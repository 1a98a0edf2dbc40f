package exec

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/types"
)

func TestWindowWithMask(t *testing.T) {
	st := fixture(t)
	s := scanOf(t, st, "sales")
	// AVG of qty over qty>=6 rows only, per store.
	w := &logical.Window{Input: s, Funcs: []logical.WindowAssign{{
		Col: expr.NewColumn("avg_big", types.KindFloat64),
		Agg: expr.AggCall{Fn: expr.AggAvg, Arg: expr.Ref(s.ColumnFor("s_qty")),
			Mask: expr.NewBinary(expr.OpGe, expr.Ref(s.ColumnFor("s_qty")), expr.Lit(types.Int(6)))},
		PartitionBy: []*expr.Column{s.ColumnFor("s_store")},
	}}}
	res := runPlan(t, st, w)
	for _, r := range res.Rows {
		store := r[1].I
		// Store 0 has qty {0,2,4,6,8,10}: masked avg = (6+8+10)/3 = 8.
		// Store 1 has qty {1,3,5,7,9,11}: masked avg = (7+9+11)/3 = 9.
		want := float64(8 + store)
		if r[5].F != want {
			t.Errorf("store %d masked window avg = %v, want %v", store, r[5].F, want)
		}
	}
}

func TestMarkDistinctChainMerged(t *testing.T) {
	st := fixture(t)
	s := scanOf(t, st, "sales")
	inner := &logical.MarkDistinct{Input: s, MarkCol: expr.NewColumn("d1", types.KindBool),
		On: []*expr.Column{s.ColumnFor("s_item")}}
	outer := &logical.MarkDistinct{Input: inner, MarkCol: expr.NewColumn("d2", types.KindBool),
		On:   []*expr.Column{s.ColumnFor("s_store")},
		Mask: expr.NewBinary(expr.OpGe, expr.Ref(s.ColumnFor("s_qty")), expr.Lit(types.Int(6)))}
	res := runPlan(t, st, outer)
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	d1Marks, d2Marks := 0, 0
	for _, r := range res.Rows {
		if r[5].IsTrue() {
			d1Marks++
		}
		if r[6].IsTrue() {
			d2Marks++
		}
	}
	if d1Marks != 4 {
		t.Errorf("inner marks = %d, want 4 distinct items", d1Marks)
	}
	// Masked outer: first occurrence of each store among qty>=6 rows only.
	if d2Marks != 2 {
		t.Errorf("outer masked marks = %d, want 2 stores", d2Marks)
	}
}

func TestSpoolExecutesOnceAndReplays(t *testing.T) {
	st := fixture(t)
	s := scanOf(t, st, "sales")
	gb := &logical.GroupBy{Input: s, Keys: []*expr.Column{s.ColumnFor("s_store")},
		Aggs: []logical.AggAssign{{Col: expr.NewColumn("total", types.KindInt64),
			Agg: expr.AggCall{Fn: expr.AggSum, Arg: expr.Ref(s.ColumnFor("s_qty"))}}}}
	producer := &logical.Spool{ID: 1, Producer: gb, Cols: gb.Schema()}
	// The reader occurrence uses fresh column identities, mapped
	// positionally at execution.
	readerCols := []*expr.Column{
		expr.NewColumn("s_store", types.KindInt64),
		expr.NewColumn("total", types.KindInt64),
	}
	reader := &logical.Spool{ID: 1, Cols: readerCols}
	join := &logical.Join{Kind: logical.InnerJoin, Left: producer, Right: reader,
		Cond: expr.Eq(expr.Ref(gb.Keys[0]), expr.Ref(readerCols[0]))}
	res := runPlan(t, st, join)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (one per store)", len(res.Rows))
	}
	if res.Metrics.SpoolBytesWritten == 0 {
		t.Error("spool write not accounted")
	}
	if res.Metrics.SpoolBytesRead != 2*res.Metrics.SpoolBytesWritten {
		t.Errorf("spool read = %d, want 2x write %d",
			res.Metrics.SpoolBytesRead, res.Metrics.SpoolBytesWritten)
	}
	// The base table must be scanned exactly once.
	if res.Metrics.Storage.RowsScanned != 12 {
		t.Errorf("rows scanned = %d, want 12 (single scan)", res.Metrics.Storage.RowsScanned)
	}
}

func TestSpoolMissingProducerErrors(t *testing.T) {
	st := fixture(t)
	orphan := &logical.Spool{ID: 42, Cols: []*expr.Column{expr.NewColumn("x", types.KindInt64)}}
	if _, err := Run(orphan, st); err == nil {
		t.Error("orphan spool reader must fail")
	}
}

func TestSortNullsLastAscending(t *testing.T) {
	st := fixture(t)
	s := scanOf(t, st, "item")
	// NULL-extend a value via a left join against nothing, then sort.
	empty := logical.NewFilter(scanOf(t, st, "sales"), expr.FalseExpr())
	lj := &logical.Join{Kind: logical.LeftJoin, Left: s, Right: empty,
		Cond: expr.Eq(expr.Ref(s.ColumnFor("i_item")), expr.Ref(empty.Schema()[0]))}
	proj := &logical.Project{Input: lj, Cols: []logical.Assignment{
		logical.Assign("v", expr.NewCoalesce([]expr.Expr{expr.Ref(lj.Schema()[2]), expr.Ref(s.ColumnFor("i_item"))})),
		logical.Assign("n", expr.Ref(lj.Schema()[3])), // always NULL
	}}
	sorted := &logical.Sort{Input: proj, Keys: []logical.SortKey{
		{E: expr.Ref(proj.Cols[1].Col)}, // all NULL: stable no-op
		{E: expr.Ref(proj.Cols[0].Col)},
	}}
	res := runPlan(t, st, sorted)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].I > res.Rows[i][0].I {
			t.Errorf("sort order violated at %d", i)
		}
	}
}

func TestNestedLoopNonEquiJoin(t *testing.T) {
	st := fixture(t)
	l := scanOf(t, st, "item")
	r := scanOf(t, st, "item")
	// Band join: i_item < i_item' (pure non-equi → nested loop).
	join := &logical.Join{Kind: logical.InnerJoin, Left: l, Right: r,
		Cond: expr.NewBinary(expr.OpLt, expr.Ref(l.ColumnFor("i_item")), expr.Ref(r.ColumnFor("i_item")))}
	res := runPlan(t, st, join)
	if len(res.Rows) != 6 { // C(4,2)
		t.Errorf("band join rows = %d, want 6", len(res.Rows))
	}
}

func TestConstantKeyHashJoin(t *testing.T) {
	st := fixture(t)
	l := scanOf(t, st, "item")
	r := scanOf(t, st, "item")
	// One side of the equality is a constant expression over the left side.
	join := &logical.Join{Kind: logical.InnerJoin, Left: l, Right: r,
		Cond: expr.Eq(
			expr.NewBinary(expr.OpAdd, expr.Ref(l.ColumnFor("i_item")), expr.Lit(types.Int(1))),
			expr.Ref(r.ColumnFor("i_item")),
		)}
	res := runPlan(t, st, join)
	if len(res.Rows) != 3 { // 0+1=1, 1+1=2, 2+1=3
		t.Errorf("expression-key join rows = %d, want 3", len(res.Rows))
	}
}

func TestLimitZero(t *testing.T) {
	st := fixture(t)
	s := scanOf(t, st, "sales")
	res := runPlan(t, st, &logical.Limit{Input: s, N: 0})
	if len(res.Rows) != 0 {
		t.Errorf("LIMIT 0 returned %d rows", len(res.Rows))
	}
}
