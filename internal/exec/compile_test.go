package exec

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

// compileAndEval compiles e over a single-column layout and evaluates it.
func compileAndEval(t *testing.T, e expr.Expr, col *expr.Column, v types.Value) types.Value {
	t.Helper()
	fn, err := compileExpr(e, map[expr.ColumnID]int{col.ID: 0})
	if err != nil {
		t.Fatalf("compile %s: %v", e, err)
	}
	return fn(Row{v})
}

func TestCompileMatchesInterpreter(t *testing.T) {
	a := expr.NewColumn("a", types.KindInt64)
	s := expr.NewColumn("s", types.KindString)
	b := expr.NewColumn("b", types.KindBool)
	layout := map[expr.ColumnID]int{a.ID: 0, s.ID: 1, b.ID: 2}

	exprs := []expr.Expr{
		expr.NewBinary(expr.OpAdd, expr.Ref(a), expr.Lit(types.Int(5))),
		expr.NewBinary(expr.OpSub, expr.Ref(a), expr.Lit(types.Int(5))),
		expr.NewBinary(expr.OpMul, expr.Ref(a), expr.Lit(types.Float(0.5))),
		expr.NewBinary(expr.OpDiv, expr.Ref(a), expr.Lit(types.Int(0))),
		expr.NewBinary(expr.OpDiv, expr.Ref(a), expr.Lit(types.Int(4))),
		expr.NewBinary(expr.OpGt, expr.Ref(a), expr.Lit(types.Int(3))),
		expr.NewBinary(expr.OpLe, expr.Ref(a), expr.Lit(types.Int(3))),
		expr.NewBinary(expr.OpNe, expr.Ref(s), expr.Lit(types.String("x"))),
		expr.NewBinary(expr.OpAnd, expr.Ref(b), expr.TrueExpr()),
		expr.NewBinary(expr.OpOr, expr.Ref(b), expr.FalseExpr()),
		expr.NewNot(expr.Ref(b)),
		expr.NewIsNull(expr.Ref(a), false),
		expr.NewIsNull(expr.Ref(a), true),
		expr.NewInList(expr.Ref(a), []expr.Expr{expr.Lit(types.Int(1)), expr.Lit(types.Int(7))}, false),
		expr.NewInList(expr.Ref(a), []expr.Expr{expr.Lit(types.Int(1)), expr.Lit(types.NullOf(types.KindInt64))}, true),
		expr.NewLike(expr.Ref(s), "he%o"),
		expr.NewCoalesce([]expr.Expr{expr.Ref(a), expr.Lit(types.Int(9))}),
		expr.NewCase([]expr.When{
			{Cond: expr.NewBinary(expr.OpGt, expr.Ref(a), expr.Lit(types.Int(0))), Then: expr.Lit(types.String("pos"))},
		}, expr.Lit(types.String("neg"))),
		expr.NewCase([]expr.When{
			{Cond: expr.Ref(b), Then: expr.Ref(a)},
		}, nil),
	}
	rows := []Row{
		{types.Int(7), types.String("hello"), types.Bool(true)},
		{types.Int(-2), types.String("x"), types.Bool(false)},
		{types.NullOf(types.KindInt64), types.NullOf(types.KindString), types.NullOf(types.KindBool)},
		{types.Int(1), types.String(""), types.Bool(true)},
	}

	for _, e := range exprs {
		fn, err := compileExpr(e, layout)
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		for ri, row := range rows {
			got := fn(row)
			env := &expr.SlotEnv{Slots: layout, Row: row}
			want := expr.Eval(e, env)
			if !got.Equal(want) {
				t.Errorf("%s on row %d: compiled=%v interpreted=%v", e, ri, got, want)
			}
		}
	}
}

func TestCompileUnboundColumn(t *testing.T) {
	a := expr.NewColumn("a", types.KindInt64)
	if _, err := compileExpr(expr.Ref(a), map[expr.ColumnID]int{}); err == nil {
		t.Error("unbound column must fail at compile time")
	}
}

func TestCompileKleeneShortCircuit(t *testing.T) {
	// FALSE AND <panic-if-evaluated> must not evaluate the right side;
	// closures always evaluate both operands of AND only when needed.
	a := expr.NewColumn("a", types.KindBool)
	e := expr.NewBinary(expr.OpAnd, expr.Ref(a), expr.NewBinary(expr.OpDiv, expr.Lit(types.Int(1)), expr.Lit(types.Int(0))))
	got := compileAndEval(t, e, a, types.Bool(false))
	if got.Null || got.AsBool() {
		t.Errorf("FALSE AND x = %v, want false", got)
	}
}

func TestEncodeKey(t *testing.T) {
	cases := [][2][]types.Value{
		{{types.Int(1)}, {types.Float(1)}},
		{{types.Int(1)}, {types.NullOf(types.KindInt64)}},
		{{types.String("a|b")}, {types.String("a"), types.String("b")}},
		{{types.String("1")}, {types.Int(1)}},
	}
	var buf1, buf2 strings.Builder
	for i, c := range cases {
		k1 := encodeKey(&buf1, c[0])
		k2 := encodeKey(&buf2, c[1])
		if k1 == k2 {
			t.Errorf("case %d: keys collide: %q", i, k1)
		}
	}
	// Same values encode identically.
	k1 := encodeKey(&buf1, []types.Value{types.Int(5), types.String("x")})
	k2 := encodeKey(&buf2, []types.Value{types.Int(5), types.String("x")})
	if k1 != k2 {
		t.Error("identical tuples must encode identically")
	}
}
