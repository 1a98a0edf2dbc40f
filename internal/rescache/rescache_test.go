package rescache

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/storage"
	"repro/internal/types"
)

func testStore(t *testing.T) *storage.Store {
	t.Helper()
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{
		Name: "f",
		Columns: []catalog.Column{
			{Name: "k", Type: types.KindInt64},
			{Name: "v", Type: types.KindInt64},
			{Name: "d", Type: types.KindInt64},
		},
		PartitionColumn: "d",
	})
	cat.MustAdd(&catalog.Table{
		Name: "g",
		Columns: []catalog.Column{
			{Name: "x", Type: types.KindInt64},
		},
	})
	st := storage.NewStore(cat)
	var rows [][]types.Value
	for i := 0; i < 30; i++ {
		rows = append(rows, []types.Value{types.Int(int64(i % 5)), types.Int(int64(i)), types.Int(int64(i % 3))})
	}
	if err := st.Load("f", rows); err != nil {
		t.Fatal(err)
	}
	if err := st.Load("g", [][]types.Value{{types.Int(1)}}); err != nil {
		t.Fatal(err)
	}
	return st
}

// chainPlan builds SELECT k FROM f WHERE v > lim as a fresh plan tree with
// fresh column identities, the way an independent query compilation would.
func chainPlan(t *testing.T, st *storage.Store, lim int64) logical.Operator {
	t.Helper()
	tab, ok := st.Catalog().Table("f")
	if !ok {
		t.Fatal("no table f")
	}
	s := logical.NewScan(tab)
	f := logical.NewFilter(s, expr.NewBinary(expr.OpGt, expr.Ref(s.ColumnFor("v")), expr.Lit(types.Int(lim))))
	return &logical.Project{Input: f, Cols: []logical.Assignment{
		logical.Assign("k", expr.Ref(s.ColumnFor("k"))),
	}}
}

func rowsOfBytes(n int, payload int) ([][]types.Value, int64) {
	rows := make([][]types.Value, n)
	var b int64
	for i := range rows {
		rows[i] = []types.Value{types.String(string(make([]byte, payload)))}
		b += types.ResidentBytes(rows[i])
	}
	return rows, b
}

func TestFingerprintStableAcrossInstances(t *testing.T) {
	st := testStore(t)
	fp1, tab1, ok1 := fingerprintOf(chainPlan(t, st, 7))
	fp2, tab2, ok2 := fingerprintOf(chainPlan(t, st, 7))
	if !ok1 || !ok2 {
		t.Fatal("eligible chain rejected")
	}
	if fp1.key != fp2.key || !fp1.matches(fp2.exprs) || tab1 != tab2 || tab1 != "f" {
		t.Fatalf("fingerprints diverge across instances:\n%s\n%s", fp1.key, fp2.key)
	}
	fp3, _, _ := fingerprintOf(chainPlan(t, st, 8))
	if fp3.key == fp1.key || fp3.matches(fp1.exprs) {
		t.Fatal("different predicates share a fingerprint")
	}
}

func TestFingerprintRejectsIneligibleShapes(t *testing.T) {
	st := testStore(t)
	tab, _ := st.Catalog().Table("f")
	s := logical.NewScan(tab)
	sum := expr.AggCall{Fn: expr.AggSum, Arg: expr.Ref(s.ColumnFor("v"))}
	gb1 := &logical.GroupBy{Input: s, Keys: []*expr.Column{s.ColumnFor("k")},
		Aggs: []logical.AggAssign{{Col: expr.NewColumn("s", sum.ResultType()), Agg: sum}}}
	if _, _, ok := fingerprintOf(gb1); !ok {
		t.Fatal("keyed aggregation over a scan must be eligible")
	}
	cnt := expr.AggCall{Fn: expr.AggCountStar}
	gb2 := &logical.GroupBy{Input: gb1, Keys: nil,
		Aggs: []logical.AggAssign{{Col: expr.NewColumn("c", cnt.ResultType()), Agg: cnt}}}
	if _, _, ok := fingerprintOf(gb2); ok {
		t.Fatal("double aggregation must be ineligible")
	}
	if _, _, ok := fingerprintOf(&logical.Values{}); ok {
		t.Fatal("values leaf must be ineligible")
	}
}

func TestAdmissionRejectsCheapBulkyResults(t *testing.T) {
	st := testStore(t)
	c := New(1 << 20)
	tx := c.Begin(chainPlan(t, st, 0), st.Snapshot())
	if tx == nil {
		t.Fatal("Begin = nil for eligible plan")
	}
	// 100 logical rows producing 8000 result bytes: density 0.0125 < 1/8.
	rows, bytes := rowsOfBytes(100, 40)
	admitted, evicted := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 50, RowsProcessed: 50})
	if admitted || evicted != 0 {
		t.Fatalf("cheap bulky result admitted=%v evicted=%d", admitted, evicted)
	}
	// The same bytes backed by dense compute clears the bar.
	if admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 4000, RowsProcessed: 4000}); !admitted {
		t.Fatal("dense result rejected")
	}
	if _, ok := tx.Lookup(); !ok {
		t.Fatal("admitted entry not served")
	}
}

func TestAdmissionRejectsOversizedResults(t *testing.T) {
	st := testStore(t)
	c := New(1024) // MaxEntryBytes = 256
	tx := c.Begin(chainPlan(t, st, 0), st.Snapshot())
	rows, bytes := rowsOfBytes(20, 8) // 960 bytes > 256
	if admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 1 << 20}); admitted {
		t.Fatal("entry above MaxEntryBytes admitted")
	}
}

// TestEvictionOrderGreedyDualSize fills the cache with entries of equal
// size but different cost densities and verifies pressure evicts the
// cheapest-to-recompute entry first, and that a hit refreshes an entry's
// priority past an unhit peer's.
func TestEvictionOrderGreedyDualSize(t *testing.T) {
	st := testStore(t)
	// Four 500-byte entries fit (2000 ≤ 2048) and each clears the cap/4
	// per-entry bound (500 ≤ 512); a fifth forces eviction.
	c := New(2048)
	offer := func(lim int64, costRows int64) *Tx {
		t.Helper()
		tx := c.Begin(chainPlan(t, st, lim), st.Snapshot())
		rows, bytes := rowsOfBytes(10, 10) // 500 bytes each
		admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: costRows})
		if !admitted {
			t.Fatalf("offer(lim=%d) rejected", lim)
		}
		return tx
	}
	a := offer(1, 200)   // density 0.4, h = 0.4
	b := offer(2, 250)   // density 0.5, h = 0.5
	cc := offer(3, 2500) // density 5.0, h = 5.0
	d := offer(4, 275)   // density 0.55, h = 0.55
	if n, bytes := c.Stats(); n != 4 || bytes != 2000 {
		t.Fatalf("stats = %d entries %d bytes", n, bytes)
	}
	// A fifth entry forces the first eviction: the minimum-priority entry
	// (a, cheapest to recompute) goes, and the clock advances to its h=0.4.
	offer(5, 350)
	if _, ok := a.Lookup(); ok {
		t.Fatal("cheapest entry survived the first eviction")
	}
	if _, ok := cc.Lookup(); !ok {
		t.Fatal("dense entry evicted first")
	}
	// A hit refreshes b against the advanced clock: h = 0.4 + 0.5 = 0.9,
	// overtaking d (0.55). The next eviction must therefore pick d — had
	// the hit not re-anchored b's priority, b (h=0.5) would have been the
	// victim instead.
	if _, ok := b.Lookup(); !ok {
		t.Fatal("b vanished early")
	}
	offer(6, 400)
	if _, ok := d.Lookup(); ok {
		t.Fatal("d survived: hit-refresh did not re-anchor b's priority")
	}
	if _, ok := b.Lookup(); !ok {
		t.Fatal("refreshed entry b was evicted before untouched d")
	}
	if _, ok := cc.Lookup(); !ok {
		t.Fatal("dense entry evicted under pressure it should outrank")
	}
}

func TestAppendInvalidatesOnlyTouchedTable(t *testing.T) {
	st := testStore(t)
	c := New(1 << 20)
	tx := c.Begin(chainPlan(t, st, 5), st.Snapshot())
	rows, bytes := rowsOfBytes(4, 8)
	if admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 1 << 20}); !admitted {
		t.Fatal("offer rejected")
	}
	// Append to an unrelated table: entry survives.
	if err := st.Append("g", [][]types.Value{{types.Int(2)}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Begin(chainPlan(t, st, 5), st.Snapshot()).Lookup(); !ok {
		t.Fatal("append to g invalidated an entry over f")
	}
	// Append to the scanned table: lazy invalidation on next lookup.
	if err := st.Append("f", [][]types.Value{{types.Int(1), types.Int(99), types.Int(0)}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Begin(chainPlan(t, st, 5), st.Snapshot()).Lookup(); ok {
		t.Fatal("stale entry served after append to f")
	}
	if n, _ := c.Stats(); n != 0 {
		t.Fatalf("stale entry not deleted: %d entries", n)
	}
}

// TestOfferRejectsRacingAppend begins a transaction, appends to the table
// before the offer (the append-raced-the-computation window), and verifies
// that the result, computed from the pre-append snapshot, is never served
// to a run reading the table after the append — while a run still reading
// the pre-append snapshot may use it, and a stale offer never displaces a
// newer version's entry.
func TestOfferRejectsRacingAppend(t *testing.T) {
	st := testStore(t)
	c := New(1 << 20)
	pre := st.Snapshot()
	tx := c.Begin(chainPlan(t, st, 5), pre)
	if err := st.Append("f", [][]types.Value{{types.Int(1), types.Int(99), types.Int(0)}}); err != nil {
		t.Fatal(err)
	}
	rows, bytes := rowsOfBytes(4, 8)
	if admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 1 << 20}); !admitted {
		t.Fatal("offer over a consistent snapshot rejected")
	}
	if _, ok := c.Begin(chainPlan(t, st, 5), pre).Lookup(); !ok {
		t.Fatal("a run on the pre-append snapshot missed the entry computed from it")
	}
	post := c.Begin(chainPlan(t, st, 5), st.Snapshot())
	if _, ok := post.Lookup(); ok {
		t.Fatal("pre-append result served after the append")
	}
	if n, _ := c.Stats(); n != 0 {
		t.Fatalf("pre-append entry not dropped by a post-append lookup: %d entries", n)
	}
	if admitted, _ := post.Offer(rows, bytes, CostMetrics{RowsScanned: 1 << 20}); !admitted {
		t.Fatal("post-append offer rejected")
	}
	if admitted, _ := c.Begin(chainPlan(t, st, 5), pre).Offer(rows, bytes, CostMetrics{RowsScanned: 1 << 20}); admitted {
		t.Fatal("a pre-append offer displaced the post-append entry")
	}
	if _, ok := c.Begin(chainPlan(t, st, 5), pre).Lookup(); ok {
		t.Fatal("pre-append run served the post-append entry")
	}
	if _, ok := c.Begin(chainPlan(t, st, 5), st.Snapshot()).Lookup(); !ok {
		t.Fatal("post-append entry lost to a pre-append lookup or offer")
	}
}

func TestReplaceSameFingerprint(t *testing.T) {
	st := testStore(t)
	c := New(1 << 20)
	for i := 0; i < 3; i++ {
		tx := c.Begin(chainPlan(t, st, 5), st.Snapshot())
		rows, bytes := rowsOfBytes(4+i, 8)
		if admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 1 << 20}); !admitted {
			t.Fatalf("offer %d rejected", i)
		}
	}
	n, b := c.Stats()
	if n != 1 {
		t.Fatalf("same-fingerprint offers accumulated %d entries", n)
	}
	if _, want := rowsOfBytes(6, 8); b != want {
		t.Fatalf("bytes = %d, want %d (latest entry only)", b, want)
	}
}

func TestBeginNilCases(t *testing.T) {
	st := testStore(t)
	if tx := (*Cache)(nil).Begin(chainPlan(t, st, 1), st.Snapshot()); tx != nil {
		t.Fatal("nil cache began a transaction")
	}
	if tx := New(0).Begin(chainPlan(t, st, 1), st.Snapshot()); tx != nil {
		t.Fatal("zero-capacity cache began a transaction")
	}
	c := New(1 << 20)
	if tx := c.Begin(&logical.Values{}, st.Snapshot()); tx != nil {
		t.Fatal("ineligible shape began a transaction")
	}
	// A table with no data has no version.
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{Name: "f", Columns: []catalog.Column{
		{Name: "k", Type: types.KindInt64}, {Name: "v", Type: types.KindInt64}, {Name: "d", Type: types.KindInt64},
	}})
	empty := storage.NewStore(cat)
	if tx := c.Begin(chainPlan(t, st, 1), empty.Snapshot()); tx != nil {
		t.Fatal("empty table began a transaction")
	}
}

// TestLookupConfirmsKeyWithExpressions forges a key collision: a lookup
// whose fingerprint key matches an entry computed for a different
// predicate must miss, because the expressions behind the keys differ.
func TestLookupConfirmsKeyWithExpressions(t *testing.T) {
	st := testStore(t)
	c := New(1 << 20)
	tx := c.Begin(chainPlan(t, st, 5), st.Snapshot())
	rows, bytes := rowsOfBytes(4, 8)
	if admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 1 << 20}); !admitted {
		t.Fatal("offer rejected")
	}
	if _, hit := c.Begin(chainPlan(t, st, 5), st.Snapshot()).Lookup(); !hit {
		t.Fatal("same sub-plan missed")
	}
	other := c.Begin(chainPlan(t, st, 6), st.Snapshot())
	other.fp.key = tx.fp.key
	if _, hit := other.Lookup(); hit {
		t.Fatal("a key collision served another predicate's result")
	}
}

// TestFingerprintIgnoresConjunctOrder checks that predicates equal up to
// the order of their conjuncts share a fingerprint.
func TestFingerprintIgnoresConjunctOrder(t *testing.T) {
	st := testStore(t)
	tab, _ := st.Catalog().Table("f")
	plan := func(swap bool) logical.Operator {
		s := logical.NewScan(tab)
		var a expr.Expr = expr.NewBinary(expr.OpGt, expr.Ref(s.ColumnFor("v")), expr.Lit(types.Int(3)))
		b := expr.Eq(expr.Lit(types.Int(1)), expr.Ref(s.ColumnFor("k")))
		if swap {
			a, b = b, a
		}
		return logical.NewFilter(s, expr.And(a, b))
	}
	fp1, _, ok1 := fingerprintOf(plan(false))
	fp2, _, ok2 := fingerprintOf(plan(true))
	if !ok1 || !ok2 || fp1.key != fp2.key || !fp1.matches(fp2.exprs) {
		t.Fatalf("reordered conjuncts fingerprint differently:\n%s\n%s", fp1.key, fp2.key)
	}
}
