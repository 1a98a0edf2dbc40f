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
	"maps"
	"slices"
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
// Partition values, each with a fresh Seq, so a cache keyed by Seq
// (scanshare's decoded-chunk LRU) can never return another partition's data.
type Partition struct {
	// Key is the shared partition-column value; unpartitioned tables have a
	// single partition with a NULL key.
	Key     types.Value
	NumRows int
	// Seq is the store-wide creation sequence number of this partition: every
	// partition ever published by Load or Append gets a distinct, monotonic
	// Seq.
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

// TableData is the stored form of one table, as of one publish.
type TableData struct {
	Table      *catalog.Table
	Partitions []*Partition
	// Version identifies this publish of the table: every Load and Append
	// publishes a TableData with a larger Version than any before it in the
	// store, so two TableData of one store hold the same partitions exactly
	// when their Versions are equal. Caches of results derived from a table
	// (rescache entries, exec.ShapeCache shapes) key on it, which leaves
	// their entries over other tables alive across an Append.
	Version int64
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

	// snap is the current read view. Load and Append build the table's new
	// TableData and publish a fresh Snapshot holding it; a published
	// Snapshot is never modified, so a reader that took one keeps a fully
	// consistent view across concurrent mutations. mu serializes publishers
	// (the read-modify-publish of Append); readers take no lock.
	mu   sync.Mutex
	snap atomic.Pointer[Snapshot]
	// version is the last TableData.Version handed out, guarded by mu.
	version int64

	// shareState is lazily initialized cross-query scan-share state, owned
	// by the scanshare layer but anchored here so every engine instance over
	// the same data resolves the same manager (sharing is only meaningful —
	// and only safe, since cache keys are partition Seqs — within one
	// store).
	shareMu    sync.Mutex
	shareState any

	// rescacheState is the lazily initialized cross-query result-cache
	// state, owned by the rescache layer but anchored here for the same
	// reason as shareState: entries are keyed by this store's table
	// versions, so the cache is only meaningful within one store.
	rescacheMu    sync.Mutex
	rescacheState any

	// partSeq allocates Partition.Seq values.
	partSeq atomic.Int64
}

// NewStore creates an empty store over the catalog.
func NewStore(cat *catalog.Catalog) *Store {
	s := &Store{cat: cat}
	s.snap.Store(&Snapshot{tables: map[string]*TableData{}})
	return s
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

// publish installs the table's next version under the write lock: fresh
// alone (Load), or the current partitions followed by fresh (Append). It
// refreshes the coarse optimizer statistics and publishes a new Snapshot.
// Holding the lock across the stats refresh keeps last-publish-wins
// ordering between the snapshot and the statistics.
func (s *Store) publish(tab *catalog.Table, fresh []*Partition, keepOld bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	td := &TableData{Table: tab, Partitions: fresh}
	if old := cur.tables[tab.Name]; keepOld && old != nil {
		// Copy-on-write: the old TableData keeps its own partition slice.
		td.Partitions = append(slices.Clip(old.Partitions), fresh...)
	}
	s.version++
	td.Version = s.version
	tables := make(map[string]*TableData, len(cur.tables)+1)
	maps.Copy(tables, cur.tables)
	tables[tab.Name] = td
	s.snap.Store(&Snapshot{tables: tables})
	tab.Stats.RowCount.Store(td.NumRows())
	tab.Stats.Partitions.Store(int64(len(td.Partitions)))
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
	s.publish(tab, s.buildPartitions(tab, rows), false)
	return nil
}

// Append ingests rows for a table as new partitions alongside the existing
// ones — the runtime write path. Like new objects landing under a table's
// S3 prefix, appended rows become fresh Partition values (several
// partitions may share a Key after appends); existing partitions are never
// mutated. The table gets a new Version; other tables keep theirs.
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
	s.publish(tab, s.buildPartitions(tab, rows), true)
	return nil
}

// Data returns the stored table, or nil if not loaded. The returned
// TableData is immutable: concurrent Load/Append calls publish
// replacement values rather than mutating it.
func (s *Store) Data(table string) *TableData { return s.Snapshot().Data(table) }

// Pruner decides whether a partition must be read given its key value.
type Pruner func(key types.Value) bool

// ScanPartitions is Snapshot.ScanPartitions over the current snapshot.
func (s *Store) ScanPartitions(table string, cols []string, prune Pruner, m *Metrics) ([]*Partition, error) {
	return s.Snapshot().ScanPartitions(table, cols, prune, m)
}

// Snapshot is an immutable read view of every table's data as of one
// publish. A run takes one snapshot and reads every scan through it, so two
// scans of one table in a run see the same partitions even when an Append
// lands between their builds; a fused run and the as-if-solo charges
// computed for its members likewise read one snapshot.
type Snapshot struct {
	tables map[string]*TableData
}

// Snapshot returns the current read view. It takes no lock and copies
// nothing: every publish installs a fresh Snapshot, so equal pointers mean
// the same data.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// Data returns the table's data in the snapshot, or nil if not loaded.
func (sn *Snapshot) Data(table string) *TableData { return sn.tables[table] }

// ScanPartitions returns the table's partitions surviving the pruner (all
// of them when pruner is nil), charging bytes and rows for the given
// columns to the metrics (which may be nil).
func (sn *Snapshot) ScanPartitions(table string, cols []string, prune Pruner, m *Metrics) ([]*Partition, error) {
	td := sn.tables[table]
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
