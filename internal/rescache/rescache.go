// Package rescache is the semantic sub-plan result cache: the reuse tier
// above scan sharing (decoded chunks) and shared execution (concurrently
// fused plans). After an eligible sub-plan — a Scan→Filter→Project chain,
// optionally through one scalar or keyed GroupBy — completes, its
// materialized output is offered to a size-accounted store under a
// cost-weighted admission test (observed compute cost per result byte, the
// Cache-based MQO framework's density criterion), and later structurally
// equal sub-plans are served straight from cache, skipping scan, decode and
// evaluation entirely.
//
// Entries are keyed by a canonical plan fingerprint and carry the version
// (storage.TableData.Version) of the scanned table in the read view the
// result was computed from. A transaction takes that version from the
// run's own storage.Snapshot, which every scan of the run reads, so an
// entry's rows are exactly the result over that version. A runtime Append
// to the scanned table gives it a new version: later runs miss and drop the
// entry lazily, while appends to other tables leave it untouched.
//
// Eviction is GreedyDual-Size: each entry carries priority H = clock +
// cost/bytes; eviction removes the minimum-H entry and advances the clock
// to its H, and hits refresh H against the current clock — cheap-to-
// recompute bulky results age out first, expensive dense results persist.
package rescache

import (
	"sync"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/storage"
	"repro/internal/types"
)

// CostMetrics is the as-if-solo logical work a sub-plan performed to
// produce its result — the counters a cache hit must replay so served
// queries remain metric-identical to cold runs, and the numerator of the
// admission density test.
type CostMetrics struct {
	BytesScanned   int64
	RowsScanned    int64
	RowsProcessed  int64
	HashRows       int64
	MaskPrefixHits int64
}

// cost is the admission/eviction scalar: logical rows touched end to end.
func (c CostMetrics) cost() int64 { return c.RowsScanned + c.RowsProcessed }

// Entry is a cached, fully materialized sub-plan result.
type Entry struct {
	// Rows is the sub-plan output in emission order. Shared and immutable:
	// consumers must copy values out rather than mutate in place.
	Rows [][]types.Value
	// Cost is the logical work of the run that produced Rows.
	Cost CostMetrics
	// Bytes is the accounted size of Rows.
	Bytes int64
}

type cacheEntry struct {
	Entry
	version int64       // the scanned table's version the rows were computed at
	exprs   []expr.Expr // the fingerprint's expressions, which confirm a hit
	h       float64     // GreedyDual-Size priority: clock-at-touch + cost/bytes
}

// Cache is a size-bounded semantic result cache over one store.
type Cache struct {
	mu      sync.Mutex
	cap     int64
	bytes   int64
	clock   float64
	entries map[string]*cacheEntry
	// obsBytes/obsRows accumulate the scanned bytes and rows of every
	// offered sub-plan, whatever the admission verdict — the observed
	// decode cost profile the adaptive admission floor is derived from.
	obsBytes int64
	obsRows  int64
}

// New creates a cache bounded to capBytes of accounted result bytes.
func New(capBytes int64) *Cache {
	return &Cache{cap: capBytes, entries: make(map[string]*cacheEntry)}
}

// For resolves the store's shared result cache, creating it bounded to
// capBytes on first use. The first caller fixes the capacity (the same
// first-caller-wins contract as the scan-share cache).
func For(st *storage.Store, capBytes int64) *Cache {
	return st.ResultCacheState(func() any { return New(capBytes) }).(*Cache)
}

// MaxEntryBytes is the largest result the cache will admit: a quarter of
// capacity, so no single entry can monopolize the budget. Captures should
// abandon materialization past this bound.
func (c *Cache) MaxEntryBytes() int64 { return c.cap / 4 }

// Stats reports the cache's current footprint.
func (c *Cache) Stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.bytes
}

// Tx is one sub-plan's cache interaction: Begin fingerprints the plan and
// reads the scanned table's version from the run's snapshot, Lookup probes
// for an entry at that version, and Offer proposes a result computed from
// the same snapshot for admission.
type Tx struct {
	c       *Cache
	fp      fingerprint
	version int64
}

// Begin starts a cache transaction for op, to be computed (on a miss) from
// snap. It returns nil when op is not an eligible sub-plan shape or its
// table has no data in snap.
func (c *Cache) Begin(op logical.Operator, snap *storage.Snapshot) *Tx {
	if c == nil || c.cap <= 0 {
		return nil
	}
	fp, table, ok := fingerprintOf(op)
	if !ok {
		return nil
	}
	td := snap.Data(table)
	if td == nil {
		return nil
	}
	return &Tx{c: c, fp: fp, version: td.Version}
}

// Lookup returns the cached entry for this sub-plan if one exists at the
// transaction's table version. An entry from an older version can never
// hit again and is dropped (lazy invalidation); one from a newer version
// (this run's snapshot predates an Append) is kept and reported as a miss.
func (tx *Tx) Lookup() (*Entry, bool) {
	c := tx.c
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[tx.fp.key]
	if !ok {
		return nil, false
	}
	if e.version != tx.version {
		if e.version < tx.version {
			c.bytes -= e.Bytes
			delete(c.entries, tx.fp.key)
		}
		return nil, false
	}
	if !tx.fp.matches(e.exprs) {
		return nil, false // a key collision: a different sub-plan
	}
	// GreedyDual-Size touch: re-anchor the priority at the current clock.
	e.h = c.clock + density(e.Cost, e.Bytes)
	return &e.Entry, true
}

// density is cost per byte, the admission criterion and the GDS priority
// increment.
func density(cost CostMetrics, bytes int64) float64 {
	if bytes <= 0 {
		bytes = 1
	}
	return float64(cost.cost()) / float64(bytes)
}

// admissionFloorLocked is the minimum cost-per-byte an entry must have
// earned to be worth caching. The break-even entry is a bulk identity scan:
// it touches one logical row per stored row and re-emits every byte, so its
// density is 1/(bytes per row). Rather than hard-coding the 8-byte rows
// that ratio once assumed, the floor divides by the workload's OBSERVED
// scanned-bytes-per-scanned-row (accumulated over every offer, admitted or
// not): wide-row workloads, whose identity scans are naturally low-density,
// lower the bar proportionally, and narrow-row workloads raise it. Clamped
// to [2, 256] bytes/row so a degenerate observation window cannot open the
// cache to everything or close it entirely; until both counters have real
// observations the floor is the historical 1/8.
func (c *Cache) admissionFloorLocked() float64 {
	bpr := int64(8)
	if c.obsRows > 0 && c.obsBytes > 0 {
		bpr = c.obsBytes / c.obsRows
	}
	if bpr < 2 {
		bpr = 2
	}
	if bpr > 256 {
		bpr = 256
	}
	return 1.0 / float64(bpr)
}

// AdmissionFloor reports the current adaptive admission density floor.
func (c *Cache) AdmissionFloor() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admissionFloorLocked()
}

// Offer proposes a computed result for admission. rows must be immutable
// from here on. bytes is the caller-accounted result size. It returns
// whether the entry was admitted and how many entry bytes were evicted to
// make room; a rejection (cost density below the threshold, result too
// large, or an entry from a newer table version already cached) evicts
// nothing.
func (tx *Tx) Offer(rows [][]types.Value, bytes int64, cost CostMetrics) (admitted bool, evictedBytes int64) {
	c := tx.c
	if bytes > c.MaxEntryBytes() {
		return false, 0
	}
	// Observe this sub-plan's decode cost BEFORE deciding, so the floor
	// reflects the workload being offered, not just what was admitted.
	c.mu.Lock()
	c.obsBytes += cost.BytesScanned
	c.obsRows += cost.RowsScanned
	floor := c.admissionFloorLocked()
	c.mu.Unlock()
	if density(cost, bytes) < floor {
		return false, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[tx.fp.key]; ok {
		if old.version > tx.version {
			return false, 0
		}
		c.bytes -= old.Bytes
		delete(c.entries, tx.fp.key)
	}
	for c.bytes+bytes > c.cap && len(c.entries) > 0 {
		evictedBytes += c.evictMinLocked()
	}
	if c.bytes+bytes > c.cap {
		return false, evictedBytes
	}
	c.entries[tx.fp.key] = &cacheEntry{
		Entry:   Entry{Rows: rows, Cost: cost, Bytes: bytes},
		version: tx.version,
		exprs:   tx.fp.exprs,
		h:       c.clock + density(cost, bytes),
	}
	c.bytes += bytes
	return true, evictedBytes
}

// evictMinLocked removes the minimum-priority entry and advances the GDS
// clock to its priority, returning the evicted bytes.
func (c *Cache) evictMinLocked() int64 {
	var victimKey string
	var victim *cacheEntry
	for k, e := range c.entries {
		if victim == nil || e.h < victim.h || (e.h == victim.h && k < victimKey) {
			victimKey, victim = k, e
		}
	}
	if victim == nil {
		return 0
	}
	if victim.h > c.clock {
		c.clock = victim.h
	}
	c.bytes -= victim.Bytes
	delete(c.entries, victimKey)
	return victim.Bytes
}
