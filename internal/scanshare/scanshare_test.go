package scanshare

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/types"
)

// newTestParts loads a partitioned three-column table and returns its
// partitions. Each partition gets rowsPerPart rows.
func newTestParts(t testing.TB, parts, rowsPerPart int) []*storage.Partition {
	t.Helper()
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "a", Type: types.KindInt64},
			{Name: "b", Type: types.KindString},
			{Name: "p", Type: types.KindInt64},
		},
		PartitionColumn: "p",
	})
	st := storage.NewStore(cat)
	var rows [][]types.Value
	for p := 0; p < parts; p++ {
		for r := 0; r < rowsPerPart; r++ {
			rows = append(rows, []types.Value{
				types.Int(int64(p*1000 + r)),
				types.String(fmt.Sprintf("row-%d-%d", p, r)),
				types.Int(int64(p)),
			})
		}
	}
	if err := st.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	return st.Data("t").Partitions
}

var testCols = []string{"a", "b"}

// wantDecoded is the reference decode, bypassing the share manager.
func wantDecoded(t *testing.T, p *storage.Partition, cols []string) [][]types.Value {
	t.Helper()
	d, err := p.DecodeColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func decodeAll(t *testing.T, mgr *Manager, ctr *Counters, parts []*storage.Partition, cols []string) {
	t.Helper()
	for _, p := range parts {
		got, err := mgr.Decode(p, cols, nil, ctr)
		if err != nil {
			t.Fatal(err)
		}
		if want := wantDecoded(t, p, cols); !reflect.DeepEqual(got, want) {
			t.Fatalf("shared decode differs from direct decode for partition %v", p.Key)
		}
	}
}

func chunkBytes(parts []*storage.Partition, cols []string) int64 {
	var total int64
	for _, p := range parts {
		for _, c := range cols {
			total += p.Chunk(c).Bytes
		}
	}
	return total
}

// TestAttachMidFlight: a scan that starts while another is mid-scan gets
// the partitions already decoded from the cache, and a chunk still being
// decoded by attaching to that flight, decoding nothing itself.
func TestAttachMidFlight(t *testing.T) {
	parts := newTestParts(t, 4, 20)
	mgr := NewManager(0)
	var ca, cb Counters

	decodeAll(t, mgr, &ca, parts[:2], testCols) // A is mid-scan: 2 of 4 partitions done

	// B replays partitions A already decoded: cache hits.
	decodeAll(t, mgr, &cb, parts[:2], testCols)
	if cb.CacheHits != 4 {
		t.Fatalf("CacheHits = %d, want 4 (2 partitions x 2 columns)", cb.CacheHits)
	}
	// A chunk someone is decoding right now: B waits on the flight instead
	// of decoding it again. The flight is planted by hand, and stays in the
	// table until B has returned, to pin the timing.
	key := chunkKey{seq: parts[2].Seq, col: "a"}
	f := &flight{done: make(chan struct{})}
	mgr.mu.Lock()
	mgr.flights[key] = f
	mgr.mu.Unlock()
	got := make(chan []types.Value, 1)
	go func() {
		vals, err := mgr.getChunk(key, parts[2].Chunk("a"), nil, &cb)
		if err != nil {
			t.Error(err)
		}
		got <- vals
	}()
	f.vals = wantDecoded(t, parts[2], []string{"a"})[0]
	close(f.done)
	if vals := <-got; !reflect.DeepEqual(vals, f.vals) {
		t.Fatal("flight waiter received different values")
	}
	mgr.mu.Lock()
	delete(mgr.flights, key)
	mgr.mu.Unlock()
	if cb.SharedHits != 1 {
		t.Fatalf("SharedHits = %d, want 1", cb.SharedHits)
	}
	// A decodes the rest; B then reads them from the cache.
	decodeAll(t, mgr, &ca, parts[2:], testCols)
	decodeAll(t, mgr, &cb, parts[2:], testCols)
	if cb.CacheHits != 8 {
		t.Fatalf("CacheHits = %d, want 8 (4 partitions x 2 columns)", cb.CacheHits)
	}
	if cb.BytesDecoded != 0 || cb.ChunksDecoded != 0 {
		t.Fatalf("late scan decoded %d chunks (%d bytes) itself, want 0", cb.ChunksDecoded, cb.BytesDecoded)
	}
	if cb.StreamHits != 0 {
		t.Fatalf("StreamHits = %d, want 0 (no morsel streams)", cb.StreamHits)
	}
	if want := chunkBytes(parts, testCols); ca.BytesDecoded != want {
		t.Fatalf("first scan BytesDecoded = %d, want %d", ca.BytesDecoded, want)
	}
}

// TestAttachAfterCompleted: a scan arriving after another finished is
// served entirely from the chunk cache.
func TestAttachAfterCompleted(t *testing.T) {
	parts := newTestParts(t, 3, 15)
	mgr := NewManager(0)
	var ca, cb Counters

	decodeAll(t, mgr, &ca, parts, testCols)

	decodeAll(t, mgr, &cb, parts, testCols)
	if cb.BytesDecoded != 0 {
		t.Fatalf("late scan decoded %d bytes, want 0 (cache path)", cb.BytesDecoded)
	}
	if want := int64(len(parts) * len(testCols)); cb.CacheHits != want {
		t.Fatalf("CacheHits = %d, want %d", cb.CacheHits, want)
	}
}

// TestSubscriberAbandonment: a flight waiter that goes away early (LIMIT)
// returns ErrStopped without stalling the decoding leader, and later scans
// still share normally.
func TestSubscriberAbandonment(t *testing.T) {
	parts := newTestParts(t, 5, 10)
	mgr := NewManager(0)
	var ca, cb, cc Counters

	decodeAll(t, mgr, &ca, parts[:1], testCols)
	// B waits on a flight for parts[1] and is abandoned mid-wait.
	key := chunkKey{seq: parts[1].Seq, col: "a"}
	f := &flight{done: make(chan struct{})}
	mgr.mu.Lock()
	mgr.flights[key] = f
	mgr.mu.Unlock()
	stop := make(chan struct{})
	close(stop)
	if _, err := mgr.Decode(parts[1], testCols, stop, &cb); err != ErrStopped {
		t.Fatalf("abandoned waiter err = %v, want ErrStopped", err)
	}
	mgr.mu.Lock()
	delete(mgr.flights, key)
	mgr.mu.Unlock()
	close(f.done)

	// A keeps going unaffected.
	decodeAll(t, mgr, &ca, parts[1:], testCols)

	decodeAll(t, mgr, &cc, parts, testCols)
	if cc.BytesDecoded != 0 {
		t.Fatalf("post-abandonment scan decoded %d bytes, want 0", cc.BytesDecoded)
	}
}

// TestCacheEviction: under a tiny ScanCacheBytes bound the LRU must stay
// within budget, and evicted chunks are decoded again on the next request.
func TestCacheEviction(t *testing.T) {
	parts := newTestParts(t, 6, 10)
	intCols := []string{"a"}
	// Room for two decoded 10-row int chunks (400 resident bytes each).
	const capacity = 1000
	mgr := NewManager(capacity)
	var c Counters

	decodeAll(t, mgr, &c, parts, intCols)
	if mgr.CacheBytes() > capacity {
		t.Fatalf("cache holds %d bytes, bound is %d", mgr.CacheBytes(), capacity)
	}
	if got := mgr.CacheChunks(); got != 2 {
		t.Fatalf("cache holds %d chunks, want 2 under bound %d", got, capacity)
	}
	// parts[0] was evicted long ago: decoding it again is physical work.
	before := c.ChunksDecoded
	decodeAll(t, mgr, &c, parts[:1], intCols)
	if c.ChunksDecoded != before+1 {
		t.Fatalf("evicted chunk not re-decoded: ChunksDecoded %d -> %d", before, c.ChunksDecoded)
	}

	// A chunk larger than the whole cache is never admitted.
	tiny := NewManager(1)
	var ct Counters
	decodeAll(t, tiny, &ct, parts[:1], intCols)
	if tiny.CacheChunks() != 0 || tiny.CacheBytes() != 0 {
		t.Fatalf("oversized chunk admitted: %d chunks, %d bytes", tiny.CacheChunks(), tiny.CacheBytes())
	}
}

// TestZeroPartitions: a scan over no partitions decodes nothing and
// leaves no manager state behind.
func TestZeroPartitions(t *testing.T) {
	mgr := NewManager(0)
	var c Counters
	decodeAll(t, mgr, &c, nil, testCols)
	if c != (Counters{}) {
		t.Fatalf("zero-partition scan counted %+v", c)
	}
	if len(mgr.flights) != 0 || mgr.CacheChunks() != 0 {
		t.Fatalf("zero-partition scan left %d flights, %d cached chunks", len(mgr.flights), mgr.CacheChunks())
	}
}

// TestColumnSubsetAttach: scans over a subset or a superset of another
// scan's columns share every chunk they have in common and decode only
// their extra columns.
func TestColumnSubsetAttach(t *testing.T) {
	parts := newTestParts(t, 3, 10)
	mgr := NewManager(0)
	var ca, cb, cc Counters

	decodeAll(t, mgr, &ca, parts, []string{"a", "b"})
	decodeAll(t, mgr, &cb, parts, []string{"b"})
	if cb.CacheHits != int64(len(parts)) || cb.BytesDecoded != 0 {
		t.Fatalf("subset scan CacheHits = %d, BytesDecoded = %d, want %d and 0", cb.CacheHits, cb.BytesDecoded, len(parts))
	}
	decodeAll(t, mgr, &cc, parts, []string{"a", "b", "p"})
	if cc.CacheHits != int64(len(parts)*2) {
		t.Fatalf("wide scan CacheHits = %d, want %d", cc.CacheHits, len(parts)*2)
	}
	if want := chunkBytes(parts, []string{"p"}); cc.BytesDecoded != want {
		t.Fatalf("wide scan BytesDecoded = %d, want %d (only the extra column)", cc.BytesDecoded, want)
	}
}

// TestMissingColumn: the error path mirrors storage.DecodeColumns.
func TestMissingColumn(t *testing.T) {
	parts := newTestParts(t, 1, 5)
	mgr := NewManager(0)
	var c Counters
	if _, err := mgr.Decode(parts[0], []string{"nope"}, nil, &c); err == nil {
		t.Fatal("expected error for unknown column")
	}
}

// TestStopBeforeFlightWait: a pre-closed stop channel only matters while
// waiting on someone else's flight; a plain decode still succeeds.
func TestStopBeforeFlightWait(t *testing.T) {
	parts := newTestParts(t, 1, 5)
	mgr := NewManager(0)
	var c Counters
	stop := make(chan struct{})
	close(stop)
	if _, err := mgr.Decode(parts[0], testCols, stop, &c); err != nil {
		t.Fatalf("decode with closed stop failed: %v", err)
	}
}

// TestConcurrentIdenticalScans: N concurrent scans over the same
// partitions decode each chunk exactly once between them (run under -race).
func TestConcurrentIdenticalScans(t *testing.T) {
	parts := newTestParts(t, 8, 50)
	mgr := NewManager(0)
	const n = 8
	ctrs := make([]Counters, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range parts {
				if _, err := mgr.Decode(p, testCols, nil, &ctrs[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	chunks := int64(len(parts) * len(testCols))
	var decoded, served int64
	for i := range ctrs {
		decoded += ctrs[i].ChunksDecoded
		served += ctrs[i].ChunksDecoded + ctrs[i].SharedHits + ctrs[i].CacheHits
	}
	if decoded != chunks {
		t.Fatalf("chunks decoded across scans = %d, want exactly %d", decoded, chunks)
	}
	if served != n*chunks {
		t.Fatalf("chunks served = %d, want %d", served, n*chunks)
	}
}
