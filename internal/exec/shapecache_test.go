package exec

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/storage"
	"repro/internal/types"
)

// chainPlan builds a fresh Scan→Filter chain over sales with a prunable
// partition predicate (s_date < dateLt) and a residual (s_qty > qtyGt).
// Each call binds fresh columns, as independently planned queries do.
func chainPlan(t *testing.T, st *storage.Store, dateLt, qtyGt int64) logical.Operator {
	t.Helper()
	s := scanOf(t, st, "sales")
	return logical.NewFilter(s, expr.And(
		expr.NewBinary(expr.OpLt, expr.Ref(s.ColumnFor("s_date")), expr.Lit(types.Int(dateLt))),
		expr.NewBinary(expr.OpGt, expr.Ref(s.ColumnFor("s_qty")), expr.Lit(types.Int(qtyGt))),
	))
}

func TestShapeCacheMatchesUncached(t *testing.T) {
	st := fixture(t)
	c := NewShapeCache()

	plan := chainPlan(t, st, 2, 3)
	want, ok, err := AnalyzeChain(plan, st.Snapshot())
	if err != nil || !ok {
		t.Fatalf("uncached AnalyzeChain: ok=%v err=%v", ok, err)
	}
	got, ok, err := c.AnalyzeChain(plan, st.Snapshot())
	if err != nil || !ok {
		t.Fatalf("cached AnalyzeChain: ok=%v err=%v", ok, err)
	}
	if *got != *want {
		t.Fatalf("cached shape %+v != uncached %+v", *got, *want)
	}
	if c.Hits() != 0 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 0/1", c.Hits(), c.Misses())
	}

	// An independently bound plan of the same shape (fresh column IDs)
	// must hit and produce the identical analysis.
	again, ok, err := c.AnalyzeChain(chainPlan(t, st, 2, 3), st.Snapshot())
	if err != nil || !ok {
		t.Fatalf("second AnalyzeChain: ok=%v err=%v", ok, err)
	}
	if *again != *want {
		t.Fatalf("hit shape %+v != uncached %+v", *again, *want)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", c.Hits(), c.Misses())
	}
}

func TestShapeCacheDistinguishesShapes(t *testing.T) {
	st := fixture(t)
	c := NewShapeCache()
	a, _, err := c.AnalyzeChain(chainPlan(t, st, 2, 3), st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Different prune constant → different fingerprint → fresh analysis
	// with a different partition charge.
	b, _, err := c.AnalyzeChain(chainPlan(t, st, 1, 3), st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if c.Misses() != 2 {
		t.Fatalf("misses = %d, want 2 (distinct prune shapes shared an entry)", c.Misses())
	}
	if a.Storage.BytesScanned == b.Storage.BytesScanned && a.PrunedRows == b.PrunedRows {
		t.Fatalf("distinct prunes produced identical charges: %+v vs %+v", a.Storage, b.Storage)
	}
	// A different residual over the same prune shares the partition walk:
	// the residual is not part of the prune fingerprint only if it stays
	// out of the pruning predicate — which it does (s_qty is not the
	// partition column), so this is a hit.
	before := c.Hits()
	if _, _, err := c.AnalyzeChain(chainPlan(t, st, 2, 99), st.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if c.Hits() != before+1 {
		t.Fatalf("same-prune different-residual chain missed (hits %d, want %d)", c.Hits(), before+1)
	}
}

func TestShapeCacheEpochInvalidation(t *testing.T) {
	st := fixture(t)
	c := NewShapeCache()
	before, _, err := c.AnalyzeChain(chainPlan(t, st, 3, 0), st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Reloading the table (Load replaces its data) gives it a new version;
	// the cached charge for the old version must not be served for the new
	// data.
	var rows [][]types.Value
	for i := 0; i < 6; i++ {
		rows = append(rows, []types.Value{
			types.Int(0), types.Int(0), types.Int(int64(i)), types.Float(1), types.Int(int64(i % 3)),
		})
	}
	if err := st.Load("sales", rows); err != nil {
		t.Fatal(err)
	}
	after, _, err := c.AnalyzeChain(chainPlan(t, st, 3, 0), st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if c.Hits() != 0 || c.Misses() != 2 {
		t.Fatalf("hits/misses = %d/%d, want 0/2 (stale version served)", c.Hits(), c.Misses())
	}
	if before.PrunedRows != 12 || after.PrunedRows != 6 {
		t.Fatalf("PrunedRows before/after reload = %d/%d, want 12/6", before.PrunedRows, after.PrunedRows)
	}
	// And the uncached analysis agrees with the cached one on fresh data.
	want, _, err := AnalyzeChain(chainPlan(t, st, 3, 0), st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if *after != *want {
		t.Fatalf("cached %+v != uncached %+v after reload", *after, *want)
	}

	// Appends strand the table's previous version's entries: after k
	// appends, each followed by analyses of the same two shapes, the cache
	// holds exactly the live version's two shapes.
	for k := 0; k < 5; k++ {
		if err := st.Append("sales", rows[:2]); err != nil {
			t.Fatal(err)
		}
		for _, dateLt := range []int64{3, 1} {
			if _, _, err := c.AnalyzeChain(chainPlan(t, st, dateLt, 0), st.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
		if got := c.Len(); got != 2 {
			t.Fatalf("after append %d: %d cached shapes, want the live version's 2", k+1, got)
		}
	}

	// An analysis pinned to an older snapshot is answered from that
	// snapshot's data and neither evicts nor pollutes the live entries.
	old := st.Snapshot()
	if err := st.Append("sales", rows[:2]); err != nil {
		t.Fatal(err)
	}
	live, _, err := c.AnalyzeChain(chainPlan(t, st, 3, 0), st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	stale, _, err := c.AnalyzeChain(chainPlan(t, st, 3, 0), old)
	if err != nil {
		t.Fatal(err)
	}
	if stale.PrunedRows != live.PrunedRows-2 || c.Len() != 1 {
		t.Fatalf("old-snapshot PrunedRows %d vs live %d, %d cached shapes; want live-2 and 1",
			stale.PrunedRows, live.PrunedRows, c.Len())
	}
}

// TestShapeCacheKeepsOtherTables: an append to one table invalidates only
// that table's shapes; the cached shapes of every other table keep hitting.
func TestShapeCacheKeepsOtherTables(t *testing.T) {
	st := fixture(t)
	c := NewShapeCache()
	itemChain := func() logical.Operator {
		s := scanOf(t, st, "item")
		return logical.NewFilter(s, expr.NewBinary(expr.OpGt, expr.Ref(s.ColumnFor("i_item")), expr.Lit(types.Int(0))))
	}
	for _, plan := range []logical.Operator{chainPlan(t, st, 2, 3), itemChain()} {
		if _, _, err := c.AnalyzeChain(plan, st.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Append("item", [][]types.Value{{types.Int(9), types.String("omega")}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AnalyzeChain(chainPlan(t, st, 2, 3), st.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if c.Hits() != 1 {
		t.Fatalf("sales shape missed after an append to item (hits %d, want 1)", c.Hits())
	}
	got, _, err := c.AnalyzeChain(itemChain(), st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := AnalyzeChain(itemChain(), st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if c.Hits() != 1 || *got != *want {
		t.Fatalf("item shape after its append: hits %d, %+v vs uncached %+v", c.Hits(), *got, *want)
	}
	if c.Len() != 2 {
		t.Fatalf("%d cached shapes, want 2 (sales kept, item replaced)", c.Len())
	}
}
