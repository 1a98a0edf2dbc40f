package storage

import (
	"sync"
	"testing"

	"repro/internal/types"
)

func TestAppendExtendsTable(t *testing.T) {
	st := NewStore(testCatalog())
	if err := st.Load("t", [][]types.Value{
		{types.Int(1), types.String("one"), types.Int(10)},
		{types.Int(2), types.String("two"), types.Int(20)},
	}); err != nil {
		t.Fatal(err)
	}
	before := st.Data("t")
	epoch0 := st.Epoch()
	seqs0, ok := st.PartitionSeqs("t")
	if !ok || len(seqs0) != 2 {
		t.Fatalf("PartitionSeqs = %v, %v", seqs0, ok)
	}

	if err := st.Append("t", [][]types.Value{
		{types.Int(3), types.String("three"), types.Int(10)},
		{types.Int(4), types.String("four"), types.Int(30)},
	}); err != nil {
		t.Fatal(err)
	}
	after := st.Data("t")
	if after.NumRows() != 4 {
		t.Fatalf("rows after append = %d, want 4", after.NumRows())
	}
	// Append groups its own rows by partition value (10 and 30 here) and
	// adds fresh partitions; it never rewrites published ones.
	if len(after.Partitions) != 4 {
		t.Fatalf("partitions after append = %d, want 4", len(after.Partitions))
	}
	for i, p := range before.Partitions {
		if after.Partitions[i] != p {
			t.Fatalf("append replaced published partition %d", i)
		}
	}
	if st.Epoch() == epoch0 {
		t.Fatal("append did not bump the epoch")
	}
	seqs1, _ := st.PartitionSeqs("t")
	if len(seqs1) != 4 || seqs1[0] != seqs0[0] || seqs1[1] != seqs0[1] {
		t.Fatalf("seqs = %v, want prefix %v preserved", seqs1, seqs0)
	}
	if seqs1[2] == seqs1[3] || seqs1[2] <= seqs0[1] {
		t.Fatalf("new partition seqs not fresh and unique: %v", seqs1)
	}
	tab, _ := st.Catalog().Table("t")
	if tab.Stats.RowCount.Load() != 4 || tab.Stats.Partitions.Load() != 4 {
		t.Errorf("stats not refreshed: rows=%d parts=%d", tab.Stats.RowCount.Load(), tab.Stats.Partitions.Load())
	}
}

func TestAppendLeavesOtherTablesSignatureAlone(t *testing.T) {
	st := NewStore(testCatalog())
	if err := st.Load("t", [][]types.Value{{types.Int(1), types.String("one"), types.Int(10)}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Load("u", [][]types.Value{{types.Float(1.5)}}); err != nil {
		t.Fatal(err)
	}
	uSeqs, _ := st.PartitionSeqs("u")
	if err := st.Append("t", [][]types.Value{{types.Int(2), types.String("two"), types.Int(10)}}); err != nil {
		t.Fatal(err)
	}
	uSeqs2, _ := st.PartitionSeqs("u")
	if len(uSeqs) != len(uSeqs2) || uSeqs[0] != uSeqs2[0] {
		t.Fatalf("append to t changed u's partition set: %v -> %v", uSeqs, uSeqs2)
	}
}

func TestAppendErrorsAndEmpty(t *testing.T) {
	st := NewStore(testCatalog())
	if err := st.Append("missing", nil); err == nil {
		t.Error("unknown table accepted")
	}
	if err := st.Load("t", [][]types.Value{{types.Int(1), types.String("one"), types.Int(10)}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("t", [][]types.Value{{types.Int(1)}}); err == nil {
		t.Error("short row accepted")
	}
	if err := st.Append("t", [][]types.Value{{types.String("x"), types.String("one"), types.Int(10)}}); err == nil {
		t.Error("mistyped row accepted")
	}
	epoch := st.Epoch()
	if err := st.Append("t", nil); err != nil {
		t.Fatalf("empty append: %v", err)
	}
	if st.Epoch() != epoch {
		t.Error("empty append bumped the epoch")
	}
	// Append into a table that was never loaded starts it from scratch.
	if err := st.Append("u", [][]types.Value{{types.Float(2.5)}}); err != nil {
		t.Fatal(err)
	}
	if td := st.Data("u"); td == nil || td.NumRows() != 1 {
		t.Fatalf("append to empty table: %+v", td)
	}
}

// TestAppendRoundTrip verifies appended partitions decode back to exactly
// the rows that went in, through the same chunk encoding Load uses.
func TestAppendRoundTrip(t *testing.T) {
	st := NewStore(testCatalog())
	if err := st.Load("t", [][]types.Value{{types.Int(1), types.String("one"), types.Int(10)}}); err != nil {
		t.Fatal(err)
	}
	appended := [][]types.Value{
		{types.Int(7), types.String("seven"), types.Int(10)},
		{types.Int(8), types.NullOf(types.KindString), types.Int(20)},
	}
	if err := st.Append("t", appended); err != nil {
		t.Fatal(err)
	}
	var got [][]types.Value
	var m Metrics
	parts, err := st.ScanPartitions("t", []string{"a", "b", "d"}, nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		cols, err := p.DecodeColumns([]string{"a", "b", "d"})
		if err != nil {
			t.Fatal(err)
		}
		for i := range cols[0] {
			got = append(got, []types.Value{cols[0][i], cols[1][i], cols[2][i]})
		}
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d rows, want 3", len(got))
	}
	want := map[int64]types.Value{7: types.String("seven"), 8: types.NullOf(types.KindString)}
	for _, r := range got {
		if w, ok := want[r[0].I]; ok && !r[1].Equal(w) {
			t.Fatalf("row %d decoded b=%v, want %v", r[0].I, r[1], w)
		}
	}
}

// TestAppendConcurrentSameTable drives concurrent appends into one table:
// none may be lost (the read-modify-publish runs under the write lock).
func TestAppendConcurrentSameTable(t *testing.T) {
	st := NewStore(testCatalog())
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				err := st.Append("t", [][]types.Value{
					{types.Int(int64(w*1000 + i)), types.String("r"), types.Int(int64(w))},
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := st.Data("t").NumRows(); n != writers*perWriter {
		t.Fatalf("rows = %d, want %d (lost appends)", n, writers*perWriter)
	}
	seqs, _ := st.PartitionSeqs("t")
	seen := map[int64]bool{}
	for _, s := range seqs {
		if seen[s] {
			t.Fatalf("duplicate partition seq %d", s)
		}
		seen[s] = true
	}
}

// TestSnapshotEpochMatchesData takes snapshots while a writer appends: each
// snapshot's epoch must name exactly the data it holds, and later appends
// must not reach into it.
func TestSnapshotEpochMatchesData(t *testing.T) {
	st := NewStore(testCatalog())
	row := [][]types.Value{{types.Int(1), types.String("r"), types.Int(1)}}
	if err := st.Load("t", row); err != nil {
		t.Fatal(err)
	}
	base := st.Epoch() - 1 // the epoch before the Load
	const appends = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < appends; i++ {
			if err := st.Append("t", row); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		snap := st.Snapshot()
		parts, err := snap.ScanPartitions("t", []string{"a"}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := int64(len(parts)), snap.Epoch()-base; got != want {
			t.Fatalf("snapshot at epoch %d holds %d partitions, want %d", snap.Epoch(), got, want)
		}
	}
	old := st.Snapshot()
	if err := st.Append("t", row); err != nil {
		t.Fatal(err)
	}
	if parts, _ := old.ScanPartitions("t", []string{"a"}, nil, nil); len(parts) != appends+1 {
		t.Fatalf("old snapshot sees %d partitions after a later append, want %d", len(parts), appends+1)
	}
}
