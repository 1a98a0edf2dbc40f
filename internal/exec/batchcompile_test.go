package exec

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vec"
)

// boolBatch builds a two-boolean-column batch holding every (l, r) pair of
// the given tri-state domain, in row-major order.
func boolBatch(domain []types.Value) (*vec.Batch, []types.Value, []types.Value) {
	var lcol, rcol []types.Value
	for _, l := range domain {
		for _, r := range domain {
			lcol = append(lcol, l)
			rcol = append(rcol, r)
		}
	}
	return vec.NewDense([][]types.Value{lcol, rcol}, len(lcol)), lcol, rcol
}

// TestBatchBooleanKleeneTruthTables pins the AND/OR three-valued truth
// tables of the batch compiler, NULL rows included, for both the value
// path (compileBatchExpr) and the bitmap path (compileBitmapExpr).
func TestBatchBooleanKleeneTruthTables(t *testing.T) {
	l := expr.NewColumn("l", types.KindBool)
	r := expr.NewColumn("r", types.KindBool)
	layout := map[expr.ColumnID]int{l.ID: 0, r.ID: 1}
	domain := []types.Value{types.Bool(true), types.Bool(false), types.NullOf(types.KindBool)}
	b, lcol, rcol := boolBatch(domain)

	ref := func(op expr.BinOp, lv, rv types.Value) types.Value {
		if op == expr.OpAnd {
			return kleeneAnd(lv, rv)
		}
		return kleeneOr(lv, rv)
	}
	// kleeneAnd/kleeneOr are themselves pinned here against the SQL truth
	// tables, so the reference above is not circular.
	if got := kleeneAnd(types.NullOf(types.KindBool), types.Bool(false)); !got.Equal(types.Bool(false)) {
		t.Fatalf("NULL AND FALSE = %v, want FALSE", got)
	}
	if got := kleeneAnd(types.NullOf(types.KindBool), types.Bool(true)); !got.Null {
		t.Fatalf("NULL AND TRUE = %v, want NULL", got)
	}
	if got := kleeneOr(types.NullOf(types.KindBool), types.Bool(true)); !got.Equal(types.Bool(true)) {
		t.Fatalf("NULL OR TRUE = %v, want TRUE", got)
	}
	if got := kleeneOr(types.NullOf(types.KindBool), types.Bool(false)); !got.Null {
		t.Fatalf("NULL OR FALSE = %v, want NULL", got)
	}

	for _, op := range []expr.BinOp{expr.OpAnd, expr.OpOr} {
		e := expr.NewBinary(op, expr.Ref(l), expr.Ref(r))
		bfn, err := compileBatchExpr(e, layout)
		if err != nil {
			t.Fatal(err)
		}
		mfn, err := compileBitmapExpr(e, layout)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]types.Value, b.Len())
		bfn(b, out)
		var bm vec.Bitmap
		mfn(b, &bm)
		for i := range out {
			want := ref(op, lcol[i], rcol[i])
			if !out[i].Equal(want) {
				t.Errorf("%s row %d (%v,%v): value path %v want %v", e, i, lcol[i], rcol[i], out[i], want)
			}
			if bm.True(i) != want.IsTrue() || bm.Null(i) != want.Null {
				t.Errorf("%s row %d (%v,%v): bitmap (t=%v,n=%v) want %v", e, i, lcol[i], rcol[i], bm.True(i), bm.Null(i), want)
			}
		}
	}
}

// TestBatchRowFallbackUnderSelection drives a row-fallback node (CASE)
// through the batch compiler with a non-nil selection vector: gathered
// rows must come from the selected physical positions, in selection order.
func TestBatchRowFallbackUnderSelection(t *testing.T) {
	a := expr.NewColumn("a", types.KindInt64)
	layout := map[expr.ColumnID]int{a.ID: 0}
	e := expr.NewCase([]expr.When{
		{Cond: expr.NewBinary(expr.OpGt, expr.Ref(a), expr.Lit(types.Int(10))), Then: expr.Lit(types.String("big"))},
	}, expr.Lit(types.String("small")))
	fn, err := compileBatchExpr(e, layout)
	if err != nil {
		t.Fatal(err)
	}
	col := []types.Value{types.Int(1), types.Int(20), types.Int(3), types.Int(40), types.Int(5)}
	b := vec.NewDense([][]types.Value{col}, 5).WithSel([]int{3, 0, 1})
	out := make([]types.Value, b.Len())
	fn(b, out)
	want := []string{"big", "small", "big"} // rows 3, 0, 1
	for i, w := range want {
		if out[i].S != w {
			t.Errorf("sel row %d: got %q want %q", i, out[i].S, w)
		}
	}
}

// TestBatchCoalesceEarlyExit pins COALESCE semantics around the all-rows-
// decided early exit: a fully non-NULL first argument wins everywhere,
// later arguments fill only NULL positions, and rows NULL in every
// argument stay NULL.
func TestBatchCoalesceEarlyExit(t *testing.T) {
	a := expr.NewColumn("a", types.KindInt64)
	c := expr.NewColumn("c", types.KindInt64)
	layout := map[expr.ColumnID]int{a.ID: 0, c.ID: 1}
	null := types.NullOf(types.KindInt64)

	acol := []types.Value{types.Int(1), null, types.Int(3), null}
	ccol := []types.Value{types.Int(-1), types.Int(-2), null, null}
	b := vec.NewDense([][]types.Value{acol, ccol}, 4)

	cases := []struct {
		e    expr.Expr
		want []types.Value
	}{
		// NULL-bearing first argument: the second fills holes where it can.
		{expr.NewCoalesce([]expr.Expr{expr.Ref(c), expr.Ref(a)}),
			[]types.Value{types.Int(-1), types.Int(-2), types.Int(3), null}},
		// Literal dense first argument decides every row immediately.
		{expr.NewCoalesce([]expr.Expr{expr.Lit(types.Int(7)), expr.Ref(a)}),
			[]types.Value{types.Int(7), types.Int(7), types.Int(7), types.Int(7)}},
		// NULL-bearing first argument: later args fill the holes only.
		{expr.NewCoalesce([]expr.Expr{expr.Ref(a), expr.Ref(c), expr.Lit(types.Int(9))}),
			[]types.Value{types.Int(1), types.Int(-2), types.Int(3), types.Int(9)}},
		// NULL in every argument stays NULL.
		{expr.NewCoalesce([]expr.Expr{expr.Ref(a), expr.Ref(c)}),
			[]types.Value{types.Int(1), types.Int(-2), types.Int(3), null}},
	}
	for _, tc := range cases {
		fn, err := compileBatchExpr(tc.e, layout)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]types.Value, 4)
		fn(b, out)
		for i := range out {
			if !out[i].Equal(tc.want[i]) {
				t.Errorf("%s row %d: got %v want %v", tc.e, i, out[i], tc.want[i])
			}
		}
	}
}

// TestCmpColColNulls exercises the column-vs-column comparison fast path
// with NULLs on either side and in both operand orders, dense and under a
// selection vector, for both the value and bitmap compilers.
func TestCmpColColNulls(t *testing.T) {
	a := expr.NewColumn("a", types.KindInt64)
	c := expr.NewColumn("c", types.KindInt64)
	layout := map[expr.ColumnID]int{a.ID: 0, c.ID: 1}
	null := types.NullOf(types.KindInt64)

	acol := []types.Value{types.Int(1), null, types.Int(3), null, types.Int(5)}
	ccol := []types.Value{types.Int(2), types.Int(2), null, null, types.Int(5)}
	batches := []*vec.Batch{
		vec.NewDense([][]types.Value{acol, ccol}, 5),
		vec.NewDense([][]types.Value{acol, ccol}, 5).WithSel([]int{4, 1, 3}),
	}
	exprs := []expr.Expr{
		expr.NewBinary(expr.OpLt, expr.Ref(a), expr.Ref(c)),
		expr.NewBinary(expr.OpLt, expr.Ref(c), expr.Ref(a)), // flipped order
		expr.NewBinary(expr.OpEq, expr.Ref(a), expr.Ref(c)),
		expr.NewBinary(expr.OpGe, expr.Ref(c), expr.Ref(a)),
	}
	for _, e := range exprs {
		if compileCmpColCol(e.(*expr.Binary), layout) == nil {
			t.Fatalf("%s: col-col fast path did not engage", e)
		}
		bfn, err := compileBatchExpr(e, layout)
		if err != nil {
			t.Fatal(err)
		}
		mfn, err := compileBitmapExpr(e, layout)
		if err != nil {
			t.Fatal(err)
		}
		rfn, err := compileExpr(e, layout)
		if err != nil {
			t.Fatal(err)
		}
		for bi, b := range batches {
			out := make([]types.Value, b.Len())
			bfn(b, out)
			var bm vec.Bitmap
			mfn(b, &bm)
			row := make(Row, b.Width())
			for i := 0; i < b.Len(); i++ {
				b.Gather(i, row)
				want := rfn(row)
				if !out[i].Equal(want) {
					t.Errorf("%s batch %d row %d: batch=%v row=%v", e, bi, i, out[i], want)
				}
				if bm.True(i) != want.IsTrue() || bm.Null(i) != want.Null {
					t.Errorf("%s batch %d row %d: bitmap (t=%v,n=%v) want %v", e, bi, i, bm.True(i), bm.Null(i), want)
				}
			}
		}
	}
}
