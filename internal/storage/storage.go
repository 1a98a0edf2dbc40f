// Package storage implements the engine's table store: an in-memory
// columnar layout with date-partitioned fact tables, per-(partition,
// column) byte accounting, and partition pruning.
//
// It substitutes for the paper's S3 + Parquet/Snappy substrate. The
// evaluation's Figure 2 reports *ratios* of bytes read between baseline and
// fused plans; those ratios depend only on which scans are eliminated and
// which partitions/columns are pruned — behaviour this layer reproduces —
// not on absolute data volume or the encoding format.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/types"
)

// ColumnChunk is the encoded values of one column within one partition.
// Bytes is the exact encoded size of the value payload — excluding the
// optional statistics header — which is what the bytes-scanned metric
// charges when the chunk is read.
type ColumnChunk struct {
	Kind  types.Kind
	Count int
	Data  []byte
	Bytes int64

	// stats is the pre-parsed zone map for chunks encoded by this store
	// version; chunks built from raw bytes leave it nil and Stats()
	// re-parses the header on demand.
	stats *ChunkStats
}

// Partition is a horizontal slice of a table sharing one partition-column
// value (the whole table, for unpartitioned tables). Partitions are
// immutable once published: Load and Append only ever create fresh
// Partition values, which is what keeps pointer-keyed caches (scanshare's
// decoded-chunk LRU) and Seq-keyed caches (rescache partition signatures)
// invalidation-safe without coordination.
type Partition struct {
	// Key is the shared partition-column value; unpartitioned tables have a
	// single partition with a NULL key.
	Key     types.Value
	NumRows int
	// Seq is the store-wide creation sequence number of this partition: every
	// partition ever published by Load or Append gets a distinct, monotonic
	// Seq. A table's ordered Seq list is therefore a precise fingerprint of
	// its current partition set — data-version state at partition
	// granularity, where the store epoch is the coarse whole-store version.
	Seq    int64
	chunks map[string]*ColumnChunk
}

// Chunk returns the named column's chunk.
func (p *Partition) Chunk(col string) *ColumnChunk { return p.chunks[col] }

// DecodeColumns decodes the named column chunks of the partition, one
// one-pass DecodeAll per chunk, returning column vectors of NumRows values.
// It is the unit of work a morsel-scan worker performs per partition.
func (p *Partition) DecodeColumns(cols []string) ([][]types.Value, error) {
	out := make([][]types.Value, len(cols))
	for i, name := range cols {
		chunk := p.chunks[name]
		if chunk == nil {
			return nil, fmt.Errorf("storage: partition has no column %q", name)
		}
		out[i] = chunk.DecodeAll(make([]types.Value, 0, chunk.Count))
	}
	return out, nil
}

// TableData is the stored form of one table.
type TableData struct {
	Table      *catalog.Table
	Partitions []*Partition
}

// TotalBytes returns the full on-storage size of the table (all partitions,
// all columns).
func (t *TableData) TotalBytes() int64 {
	var total int64
	for _, p := range t.Partitions {
		for _, c := range p.chunks {
			total += c.Bytes
		}
	}
	return total
}

// NumRows returns the total row count.
func (t *TableData) NumRows() int64 {
	var total int64
	for _, p := range t.Partitions {
		total += int64(p.NumRows)
	}
	return total
}

// Metrics accumulates scan-side counters for one query execution. Safe for
// concurrent increments.
type Metrics struct {
	BytesScanned int64
	RowsScanned  int64
}

// AddBytes atomically adds scanned bytes.
func (m *Metrics) AddBytes(n int64) { atomic.AddInt64(&m.BytesScanned, n) }

// AddRows atomically adds scanned rows.
func (m *Metrics) AddRows(n int64) { atomic.AddInt64(&m.RowsScanned, n) }

// Store holds the data of every table in a catalog.
type Store struct {
	cat *catalog.Catalog

	// mu guards the tables map. Mutations are copy-on-write: Load and
	// Append publish a brand-new *TableData (with a fresh partition slice)
	// under the write lock, so a reader that snapshotted a TableData before
	// a concurrent mutation keeps a fully consistent immutable view.
	mu     sync.RWMutex
	tables map[string]*TableData

	// shareState is lazily initialized cross-query scan-share state, owned
	// by the scanshare layer but anchored here so every engine instance over
	// the same data resolves the same manager (sharing is only meaningful —
	// and only safe, since cache keys are partition pointers — within one
	// store).
	shareMu    sync.Mutex
	shareState any

	// rescacheState is the lazily initialized cross-query result-cache
	// state, owned by the rescache layer but anchored here for the same
	// reason as shareState: entries are validated against this store's
	// partition sequence numbers, so the cache is only meaningful within
	// one store.
	rescacheMu    sync.Mutex
	rescacheState any

	// epoch counts data mutations (Load and Append calls). Layers that
	// cache anything derived from partition metadata — chain-shape
	// attribution, pruning statistics — key their entries by epoch so a
	// data change invalidates them without coordination. Layers that want
	// finer invalidation (surviving an append to an unrelated table) use
	// per-partition Seq signatures instead.
	epoch atomic.Int64

	// partSeq allocates Partition.Seq values.
	partSeq atomic.Int64
}

// Epoch returns the store's data version: it increments on every Load and
// Append, so caches keyed by (anything, epoch) are invalidated by data
// changes. Cache layers must read the epoch BEFORE enumerating partitions:
// that ordering guarantees a concurrent mutation can at worst leave a
// result recorded under the pre-mutation epoch (a dead entry), never stale
// data under the live epoch.
func (s *Store) Epoch() int64 { return s.epoch.Load() }

// NewStore creates an empty store over the catalog.
func NewStore(cat *catalog.Catalog) *Store {
	return &Store{cat: cat, tables: make(map[string]*TableData)}
}

// Catalog returns the catalog this store serves.
func (s *Store) Catalog() *catalog.Catalog { return s.cat }

// SharedScanState returns the store's scan-share state, initializing it with
// init on first use. The first caller wins; later callers receive the
// existing state regardless of their own configuration.
func (s *Store) SharedScanState(init func() any) any {
	s.shareMu.Lock()
	defer s.shareMu.Unlock()
	if s.shareState == nil {
		s.shareState = init()
	}
	return s.shareState
}

// ResultCacheState returns the store's semantic result-cache state,
// initializing it with init on first use. Like SharedScanState, the first
// caller wins; later callers receive the existing state regardless of their
// own configuration.
func (s *Store) ResultCacheState(init func() any) any {
	s.rescacheMu.Lock()
	defer s.rescacheMu.Unlock()
	if s.rescacheState == nil {
		s.rescacheState = init()
	}
	return s.rescacheState
}

// checkRows validates row widths against the table schema.
func checkRows(tab *catalog.Table, table string, rows [][]types.Value) error {
	for i, r := range rows {
		if len(r) != len(tab.Columns) {
			return fmt.Errorf("storage: row %d of %q has %d values, want %d", i, table, len(r), len(tab.Columns))
		}
	}
	return nil
}

// checkRowKinds additionally validates value kinds against the column
// types. The runtime Append path applies it because its rows arrive from
// untrusted wire clients; Load keeps the historical width-only check for
// embedding callers that rely on it.
func checkRowKinds(tab *catalog.Table, table string, rows [][]types.Value) error {
	for i, r := range rows {
		for j, v := range r {
			if !v.Null && v.Kind != tab.Columns[j].Type {
				return fmt.Errorf("storage: row %d of %q column %q has kind %v, want %v",
					i, table, tab.Columns[j].Name, v.Kind, tab.Columns[j].Type)
			}
		}
	}
	return nil
}

// buildPartitions splits rows into partitions by the table's partition
// column and encodes per-partition column chunks (the cmd/datagen encoding:
// appendValue per value, then the storage transform), returning the new
// partitions in sorted partition-key order. Each partition gets a fresh
// store-wide Seq.
func (s *Store) buildPartitions(tab *catalog.Table, rows [][]types.Value) []*Partition {
	partIdx := tab.ColumnIndex(tab.PartitionColumn) // -1 when unpartitioned
	groups := make(map[string][]int)
	var keys []string
	keyVals := make(map[string]types.Value)
	for i, r := range rows {
		key := ""
		var kv types.Value
		if partIdx >= 0 {
			kv = r[partIdx]
			key = kv.String()
		} else {
			kv = types.NullOf(types.KindInt64)
		}
		if _, seen := groups[key]; !seen {
			keys = append(keys, key)
			keyVals[key] = kv
		}
		groups[key] = append(groups[key], i)
	}
	sort.Strings(keys)

	parts := make([]*Partition, 0, len(keys))
	for _, key := range keys {
		idxs := groups[key]
		p := &Partition{
			Key:     keyVals[key],
			NumRows: len(idxs),
			Seq:     s.partSeq.Add(1),
			chunks:  make(map[string]*ColumnChunk, len(tab.Columns)),
		}
		for ci, col := range tab.Columns {
			chunk := &ColumnChunk{Kind: col.Type, Count: len(idxs)}
			st := &ChunkStats{}
			var payload []byte
			for _, ri := range idxs {
				v := rows[ri][ci]
				st.observe(v)
				payload = appendValue(payload, v)
			}
			// Stored transformed behind the versioned stats header; reads pay
			// the reverse pass over the payload only. Bytes stays the payload
			// length, so scan accounting is unchanged by the header.
			chunk.Data = encodeChunkData(st, payload)
			chunk.Bytes = int64(len(payload))
			chunk.stats = st
			p.chunks[col.Name] = chunk
		}
		parts = append(parts, p)
	}
	return parts
}

// publish installs td as the table's data under the write lock, refreshes
// the coarse optimizer statistics, and bumps the store epoch. Holding the
// lock across the stats refresh keeps last-publish-wins ordering between
// the map and the statistics.
func (s *Store) publish(table string, td *TableData) {
	s.mu.Lock()
	s.tables[table] = td
	td.Table.Stats.RowCount.Store(td.NumRows())
	td.Table.Stats.Partitions.Store(int64(len(td.Partitions)))
	s.epoch.Add(1) // under the lock, so a Snapshot's epoch matches its tables
	s.mu.Unlock()
}

// Load ingests rows for a table, splitting them into partitions by the
// table's partition column and building per-partition column chunks. Rows
// are row-major and must match the table's column order. Load replaces any
// existing data for the table.
func (s *Store) Load(table string, rows [][]types.Value) error {
	tab, ok := s.cat.Table(table)
	if !ok {
		return fmt.Errorf("storage: unknown table %q", table)
	}
	if err := checkRows(tab, table, rows); err != nil {
		return err
	}
	td := &TableData{Table: tab, Partitions: s.buildPartitions(tab, rows)}
	s.publish(table, td)
	return nil
}

// Append ingests rows for a table as new partitions alongside the existing
// ones — the runtime write path. Like new objects landing under a table's
// S3 prefix, appended rows become fresh Partition values (several
// partitions may share a Key after appends); existing partitions are never
// mutated, so pointer-keyed caches over them stay valid, and because every
// new partition gets a fresh Seq, partition-set signatures over any touched
// table change while signatures over untouched tables survive. The store
// epoch bumps, invalidating coarse epoch-keyed caches.
func (s *Store) Append(table string, rows [][]types.Value) error {
	tab, ok := s.cat.Table(table)
	if !ok {
		return fmt.Errorf("storage: unknown table %q", table)
	}
	if err := checkRows(tab, table, rows); err != nil {
		return err
	}
	if err := checkRowKinds(tab, table, rows); err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}
	fresh := s.buildPartitions(tab, rows)
	// Copy-on-write under the write lock: concurrent readers holding the old
	// TableData keep a consistent immutable snapshot, and the read-modify-
	// publish of the partition list is atomic against concurrent appends.
	s.mu.Lock()
	td := &TableData{Table: tab}
	if old := s.tables[table]; old != nil {
		td.Partitions = append(make([]*Partition, 0, len(old.Partitions)+len(fresh)), old.Partitions...)
	}
	td.Partitions = append(td.Partitions, fresh...)
	s.tables[table] = td
	tab.Stats.RowCount.Store(td.NumRows())
	tab.Stats.Partitions.Store(int64(len(td.Partitions)))
	s.epoch.Add(1)
	s.mu.Unlock()
	return nil
}

// Data returns the stored table, or nil if not loaded. The returned
// TableData is an immutable snapshot: concurrent Load/Append calls publish
// replacement values rather than mutating it.
func (s *Store) Data(table string) *TableData {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[table]
}

// Pruner decides whether a partition must be read given its key value.
type Pruner func(key types.Value) bool

// ScanPartitions returns the partitions surviving the pruner (all of them
// when pruner is nil), charging bytes and rows for the given columns to the
// metrics. The walk runs over an immutable TableData snapshot, so a
// concurrent Load/Append never changes the partition set mid-enumeration.
func (s *Store) ScanPartitions(table string, cols []string, prune Pruner, m *Metrics) ([]*Partition, error) {
	return scanPartitions(table, s.Data(table), cols, prune, m)
}

// Snapshot is a consistent read view of every table's partition set as of
// one store epoch. Runs that must agree on which data they read — a fused
// run and the as-if-solo charges computed for its members — take one
// snapshot and read through it, so a concurrent Append cannot land between
// their partition walks.
type Snapshot struct {
	tables map[string]*TableData
	epoch  int64
}

// Snapshot captures the current table set and its epoch.
func (s *Store) Snapshot() *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tables := make(map[string]*TableData, len(s.tables))
	for name, td := range s.tables {
		tables[name] = td
	}
	return &Snapshot{tables: tables, epoch: s.epoch.Load()}
}

// Epoch returns the store epoch the snapshot was taken at.
func (sn *Snapshot) Epoch() int64 { return sn.epoch }

// ScanPartitions is Store.ScanPartitions over the snapshot's partition sets.
func (sn *Snapshot) ScanPartitions(table string, cols []string, prune Pruner, m *Metrics) ([]*Partition, error) {
	return scanPartitions(table, sn.tables[table], cols, prune, m)
}

func scanPartitions(table string, td *TableData, cols []string, prune Pruner, m *Metrics) ([]*Partition, error) {
	if td == nil {
		return nil, fmt.Errorf("storage: table %q has no data loaded", table)
	}
	var out []*Partition
	for _, p := range td.Partitions {
		if prune != nil && !prune(p.Key) {
			continue
		}
		for _, c := range cols {
			chunk := p.chunks[c]
			if chunk == nil {
				return nil, fmt.Errorf("storage: table %q has no column %q", table, c)
			}
			if m != nil {
				m.AddBytes(chunk.Bytes)
			}
		}
		if m != nil {
			m.AddRows(int64(p.NumRows))
		}
		out = append(out, p)
	}
	return out, nil
}

// PartitionSeqs returns the ordered Seq numbers of the table's current
// partitions — a precise, cheap signature of the table's data version
// (metadata only; nothing is decoded or charged). ok is false when the
// table has no data loaded.
func (s *Store) PartitionSeqs(table string) (seqs []int64, ok bool) {
	td := s.Data(table)
	if td == nil {
		return nil, false
	}
	seqs = make([]int64, len(td.Partitions))
	for i, p := range td.Partitions {
		seqs[i] = p.Seq
	}
	return seqs, true
}
