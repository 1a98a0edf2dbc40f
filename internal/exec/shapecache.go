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
// fingerprint at the store's data epoch. Fused groups call AnalyzeChain
// once per member per run, and every member of a duplicate-query batch (the
// paper's concurrent-dashboards motivation) shares one fingerprint, so the
// partition walk happens once per distinct shape per data version instead
// of once per member per run.
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
// The cache holds one epoch's entries: only the newest epoch can ever hit
// again, so the first analysis at a newer epoch drops every older entry,
// and analyses at an older epoch (a run that pinned its snapshot before an
// Append) are computed but not stored. Entries are bounded by the number of
// distinct shapes at the live epoch.
type ShapeCache struct {
	mu      sync.Mutex
	epoch   int64
	entries map[shapeKey]shapeEntry
	hits    atomic.Int64
	misses  atomic.Int64
}

type shapeKey struct {
	scan string // table and scanned column names
	cond uint64 // expr.Key of the rewritten prune predicate
}

type shapeEntry struct {
	cond       expr.Expr // the rewritten prune predicate; nil for none
	storage    storage.Metrics
	prunedRows int64
}

// NewShapeCache creates an empty cache.
func NewShapeCache() *ShapeCache {
	return &ShapeCache{entries: make(map[shapeKey]shapeEntry)}
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
	k := shapeKey{scan: cs.scan.Table.Name + "|" + strings.Join(cs.scan.ColNames, ",")}
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

// AnalyzeChain is exec.AnalyzeChain through the cache: recognition and
// stage layout are computed fresh (cheap, plan-specific), while the
// partition-metadata replay is served from cache when an equal-fingerprint
// chain was analyzed at the snapshot's epoch.
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
	// A snapshot's epoch names exactly the partition sets it walks, so an
	// entry never holds data from another epoch.
	fp, cond, fpOK := chainFingerprint(cs)
	epoch := snap.Epoch()
	if fpOK {
		c.mu.Lock()
		if epoch > c.epoch {
			c.epoch = epoch
			clear(c.entries)
		}
		e, hit := c.entries[fp]
		if epoch != c.epoch || !expr.Equivalent(e.cond, cond) {
			hit = false
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
		if epoch == c.epoch {
			c.entries[fp] = shapeEntry{cond: cond, storage: sh.Storage, prunedRows: sh.PrunedRows}
		}
		c.mu.Unlock()
	}
	return sh, true, nil
}
