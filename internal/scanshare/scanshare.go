// Package scanshare implements cross-query scan sharing: concurrent queries
// over the same store partitions share the physical work of decoding column
// chunks instead of each paying it independently (the multi-query reuse
// direction the fusion paper names in §I).
//
// Two mechanisms compose, cheapest first:
//
//  1. A bounded, size-accounted LRU cache of decoded column chunks, keyed by
//     (Partition.Seq, column). Partitions are immutable and every published
//     partition gets a fresh Seq, so cache entries can never go stale; a
//     replaced table's chunks simply stop being requested and age out.
//  2. In-flight decode attach: when one query is currently decoding a chunk,
//     a late-arriving query attaches to that flight and waits for the
//     decoded vector instead of re-decoding. Flights exist only while a
//     leader is actively decoding, so every wait is bounded by one chunk
//     decode; a waiter whose own query is abandoned (LIMIT, error) detaches
//     via its stop channel.
//
// Concurrent scans of the same partitions therefore share through the
// flight table while one of them decodes and through the cache afterwards.
// Every query receives the same immutable decoded vectors (never partially
// decoded state), so a shared scan is value-identical to an unshared one;
// each query still windows the vectors into its own batches in its own
// partition order, so ordered delivery and LIMIT early-exit semantics are
// untouched.
package scanshare

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
	"repro/internal/types"
)

// DefaultCacheBytes is the decoded-chunk cache bound when the caller does
// not set one (estimated in-memory bytes, not encoded bytes).
const DefaultCacheBytes = 64 << 20

// ErrStopped is returned by Decode when the scan's stop channel fires while
// waiting on another query's in-flight decode; the caller is being abandoned
// and its result will be discarded.
var ErrStopped = errors.New("scanshare: scan stopped while waiting for shared decode")

// Counters accumulates one query's scan-share activity. Fields are updated
// atomically; read them only after the query's workers have drained.
type Counters struct {
	// BytesDecoded is the encoded size of the chunks this query physically
	// decoded itself — the real CPU work, as opposed to the logical
	// BytesScanned the query is billed for.
	BytesDecoded int64
	// ChunksDecoded counts those chunks.
	ChunksDecoded int64
	// SharedHits counts chunks obtained by attaching to another query's
	// in-flight decode.
	SharedHits int64
	// CacheHits counts chunks served from the decoded-chunk cache.
	CacheHits int64
	// StreamHits is always zero. It counted chunks received from another
	// scan's morsel stream, a mechanism since removed: the cache and the
	// in-flight attach served those chunks with no extra decode. The field
	// stays because the dashboard benchmark (e2ebench) still reads it.
	StreamHits int64
}

// AddDecoded charges one physically decoded chunk of the given encoded size.
func (c *Counters) AddDecoded(bytes int64) {
	atomic.AddInt64(&c.BytesDecoded, bytes)
	atomic.AddInt64(&c.ChunksDecoded, 1)
}

func (c *Counters) addShared() { atomic.AddInt64(&c.SharedHits, 1) }
func (c *Counters) addCache()  { atomic.AddInt64(&c.CacheHits, 1) }

// chunkKey identifies one decoded column chunk. Seqs are unique per
// published partition within a store (and a Manager serves one store), so
// a replaced table's old chunks can never be returned for its new
// partitions; they just age out of the LRU.
type chunkKey struct {
	seq int64
	col string
}

// flight is one in-progress chunk decode. The leader fills vals/err and
// closes done; attached waiters block on done (or their stop channel).
type flight struct {
	done chan struct{}
	vals []types.Value
	err  error
}

// Manager is the process-wide (per store) scan-share state: the decoded
// chunk cache and the in-flight decode table. All methods are safe for
// concurrent use by many queries.
type Manager struct {
	mu      sync.Mutex
	cache   *chunkCache
	flights map[chunkKey]*flight
	// flightsDone is broadcast whenever an in-flight decode resolves;
	// Quiesce waits on it.
	flightsDone sync.Cond
}

// NewManager creates a manager whose decoded-chunk cache is bounded at
// cacheBytes estimated in-memory bytes (<= 0 means DefaultCacheBytes).
func NewManager(cacheBytes int64) *Manager {
	if cacheBytes <= 0 {
		cacheBytes = DefaultCacheBytes
	}
	m := &Manager{
		cache:   newChunkCache(cacheBytes),
		flights: make(map[chunkKey]*flight),
	}
	m.flightsDone.L = &m.mu
	return m
}

// Quiesce blocks until no chunk decode is in flight. Leaders resolve
// flights with pure CPU work, so the wait is bounded by the slowest
// in-progress decode — an engine shutting down calls it after draining its
// own queries to guarantee no decode it led is still publishing.
func (m *Manager) Quiesce() {
	m.mu.Lock()
	for len(m.flights) > 0 {
		m.flightsDone.Wait()
	}
	m.mu.Unlock()
}

// For resolves the store's shared manager, creating it with cacheBytes on
// first use (later callers share the first caller's cache bound).
func For(st *storage.Store, cacheBytes int64) *Manager {
	return st.SharedScanState(func() any { return NewManager(cacheBytes) }).(*Manager)
}

// CacheBytes reports the estimated bytes currently held by the chunk cache.
func (m *Manager) CacheBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cache.used
}

// CacheChunks reports the number of chunks currently cached.
func (m *Manager) CacheChunks() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cache.order.Len()
}

// getChunk returns the decoded vector for one chunk: cache hit, in-flight
// attach, or leader decode (which publishes to the cache). stop may be nil.
func (m *Manager) getChunk(key chunkKey, chunk *storage.ColumnChunk, stop <-chan struct{}, ctr *Counters) ([]types.Value, error) {
	m.mu.Lock()
	if vals, ok := m.cache.get(key); ok {
		m.mu.Unlock()
		ctr.addCache()
		return vals, nil
	}
	if f, ok := m.flights[key]; ok {
		m.mu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.err
			}
			ctr.addShared()
			return f.vals, nil
		case <-stop: // nil stop never fires; the wait is then bounded by the leader's decode
			return nil, ErrStopped
		}
	}
	f := &flight{done: make(chan struct{})}
	m.flights[key] = f
	m.mu.Unlock()

	// Leader path: pure CPU, never blocks, so the flight always resolves.
	f.vals = chunk.DecodeAll(make([]types.Value, 0, chunk.Count))
	m.mu.Lock()
	delete(m.flights, key)
	m.cache.put(key, f.vals)
	m.flightsDone.Broadcast()
	m.mu.Unlock()
	close(f.done)
	ctr.AddDecoded(chunk.Bytes)
	return f.vals, nil
}

// Decode returns the decoded column vectors of p's cols, in that order,
// sharing work with concurrent queries wherever possible and counting it in
// ctr. stop, when non-nil, abandons waits on other queries' in-flight
// decodes (returning ErrStopped) once the caller's query has gone away.
func (m *Manager) Decode(p *storage.Partition, cols []string, stop <-chan struct{}, ctr *Counters) ([][]types.Value, error) {
	out := make([][]types.Value, len(cols))
	for i, col := range cols {
		chunk := p.Chunk(col)
		if chunk == nil {
			return nil, fmt.Errorf("scanshare: partition has no column %q", col)
		}
		vals, err := m.getChunk(chunkKey{seq: p.Seq, col: col}, chunk, stop, ctr)
		if err != nil {
			return nil, err
		}
		out[i] = vals
	}
	return out, nil
}
