package exec

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/storage"
	"repro/internal/types"
)

// ShapeCache memoizes the expensive half of AnalyzeChain — the
// ScanPartitions replay over partition metadata that computes a chain's
// as-if-solo Storage charge and pruned cardinality — keyed by a plan
// fingerprint at the scanned table's version (storage.TableData.Version).
// Fused groups call AnalyzeChain once per member per run, and every member
// of a duplicate-query batch (the paper's concurrent-dashboards motivation)
// shares one fingerprint, so the partition walk happens once per distinct
// shape per table version instead of once per member per run.
//
// The fingerprint must be stable across independently bound plans, whose
// column IDs are fresh per query. It therefore keys only bind-stable
// parts: the table name, the scanned column names, and the canonical key
// (expr.Key) of the peeled prune predicate with its partition-column
// reference rewritten to one fixed column. An entry keeps that rewritten
// predicate, and a hit must be expr.Equivalent to it, so two plans share
// an entry only when they scan the same table and columns under equivalent
// pruning; their Storage charge and pruned row count are then equal by
// construction. Stage counts are NOT cached — they are cheap to
// recompute and belong to the individual plan.
//
// The cache holds, per table, the shapes of the newest version it has
// analyzed: only that version can ever hit again, so the first analysis at
// a newer version of a table drops that table's entries, and analyses at an
// older version (a run that pinned its snapshot before an Append) are
// computed but not stored. An Append to one table leaves every other
// table's shapes cached. Entries are bounded by the number of distinct
// shapes at each table's newest version.
type ShapeCache struct {
	mu       sync.Mutex
	versions map[string]int64 // per table: the version its entries are at
	entries  map[shapeKey]shapeEntry
	hits     atomic.Int64
	misses   atomic.Int64
}

type shapeKey struct {
	table string
	cols  string // scanned column names
	cond  uint64 // expr.Key of the rewritten prune predicate
}

type shapeEntry struct {
	cond       expr.Expr // the rewritten prune predicate; nil for none
	storage    storage.Metrics
	prunedRows int64
}

// NewShapeCache creates an empty cache.
func NewShapeCache() *ShapeCache {
	return &ShapeCache{versions: make(map[string]int64), entries: make(map[shapeKey]shapeEntry)}
}

// Hits and Misses report cache effectiveness (for tests and benchmarks).
func (c *ShapeCache) Hits() int64   { return c.hits.Load() }
func (c *ShapeCache) Misses() int64 { return c.misses.Load() }

// Len reports the number of cached shapes.
func (c *ShapeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// shapeFPCol is the canonical stand-in for a chain's partition column in
// fingerprints: remapping every plan's (fresh-ID) partition column onto it
// makes equivalent prune predicates of different plans Equivalent.
var shapeFPCol = expr.NewColumn("$shapefp", types.KindUnknown)

// chainFingerprint returns the bind-stable identity of a chain's pruning
// work: its key and the rewritten prune predicate a hit must match.
// ok=false means the chain cannot be fingerprinted (never happens for
// compileChain output, but kept as a guard).
func chainFingerprint(cs *chainSpec) (shapeKey, expr.Expr, bool) {
	k := shapeKey{table: cs.scan.Table.Name, cols: strings.Join(cs.scan.ColNames, ",")}
	if cs.pruneCond == nil {
		return k, nil, true
	}
	if cs.pruneCol == nil {
		return shapeKey{}, nil, false
	}
	cond := expr.Mapping{cs.pruneCol.ID: shapeFPCol}.Apply(cs.pruneCond)
	k.cond = expr.Key(cond)
	return k, cond, true
}

// currentLocked reports whether version is the newest version of table the
// cache has seen, first dropping the table's entries when it is newer than
// theirs.
func (c *ShapeCache) currentLocked(table string, version int64) bool {
	cur := c.versions[table]
	if version > cur {
		c.versions[table] = version
		for k := range c.entries {
			if k.table == table {
				delete(c.entries, k)
			}
		}
		return true
	}
	return version == cur
}

// AnalyzeChain is exec.AnalyzeChain through the cache: recognition and
// stage layout are computed fresh (cheap, plan-specific), while the
// partition-metadata replay is served from cache when an equal-fingerprint
// chain was analyzed at the scanned table's version in snap.
func (c *ShapeCache) AnalyzeChain(root logical.Operator, snap *storage.Snapshot) (*ChainShape, bool, error) {
	cs, ok := compileChain(root)
	if !ok {
		return nil, false, nil
	}
	sh := &ChainShape{NumStages: len(cs.stages), FilterPos: -1}
	for si := range cs.stages {
		if cs.stages[si].kind == stageFilter {
			sh.FilterPos = si
			break
		}
	}
	// A version names exactly the partition set the snapshot walks, so an
	// entry never holds another version's data.
	fp, cond, fpOK := chainFingerprint(cs)
	td := snap.Data(fp.table)
	fpOK = fpOK && td != nil
	if fpOK {
		c.mu.Lock()
		var e shapeEntry
		hit := false
		if c.currentLocked(fp.table, td.Version) {
			e, hit = c.entries[fp]
			hit = hit && expr.Equivalent(e.cond, cond)
		}
		c.mu.Unlock()
		if hit {
			c.hits.Add(1)
			sh.Storage = e.storage
			sh.PrunedRows = e.prunedRows
			return sh, true, nil
		}
	}
	parts, err := snap.ScanPartitions(cs.scan.Table.Name, cs.scan.ColNames, cs.prune, &sh.Storage)
	if err != nil {
		return nil, true, err
	}
	for _, p := range parts {
		sh.PrunedRows += int64(p.NumRows)
	}
	c.misses.Add(1)
	if fpOK {
		c.mu.Lock()
		if c.currentLocked(fp.table, td.Version) {
			c.entries[fp] = shapeEntry{cond: cond, storage: sh.Storage, prunedRows: sh.PrunedRows}
		}
		c.mu.Unlock()
	}
	return sh, true, nil
}
