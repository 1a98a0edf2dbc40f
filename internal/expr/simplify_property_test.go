package expr

import (
	"math/rand"
	"testing"

	"repro/internal/types"
)

// randBoolExpr generates a random boolean expression over the given
// columns, with depth-bounded AND/OR/NOT/comparison/IS NULL structure.
func randBoolExpr(rng *rand.Rand, cols []*Column, depth int) Expr {
	if depth <= 0 || rng.Intn(4) == 0 {
		// Leaf: comparison, IS NULL, or boolean literal.
		switch rng.Intn(6) {
		case 0:
			return TrueExpr()
		case 1:
			return FalseExpr()
		case 2:
			c := cols[rng.Intn(len(cols))]
			return NewIsNull(Ref(c), rng.Intn(2) == 0)
		default:
			c := cols[rng.Intn(len(cols))]
			op := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}[rng.Intn(6)]
			return NewBinary(op, Ref(c), Lit(types.Int(rng.Int63n(10))))
		}
	}
	switch rng.Intn(4) {
	case 0:
		return NewBinary(OpAnd, randBoolExpr(rng, cols, depth-1), randBoolExpr(rng, cols, depth-1))
	case 1:
		return NewBinary(OpOr, randBoolExpr(rng, cols, depth-1), randBoolExpr(rng, cols, depth-1))
	case 2:
		return NewNot(randBoolExpr(rng, cols, depth-1))
	default:
		// Duplicate-heavy shapes to exercise absorption: X AND (X OR Y).
		x := randBoolExpr(rng, cols, depth-1)
		y := randBoolExpr(rng, cols, depth-1)
		if rng.Intn(2) == 0 {
			return NewBinary(OpAnd, x, NewBinary(OpOr, x, y))
		}
		return NewBinary(OpOr, x, NewBinary(OpAnd, x, y))
	}
}

type sliceEnv struct {
	ids  []ColumnID
	vals []types.Value
}

func (e *sliceEnv) Value(id ColumnID) types.Value {
	for i, x := range e.ids {
		if x == id {
			return e.vals[i]
		}
	}
	panic("unbound")
}

// TestSimplifyPreservesSemantics evaluates random boolean expressions and
// their simplified forms over random rows (including NULLs) and requires
// identical three-valued results. This guards the absorption laws and
// NOT-pushdown against unsound rewrites.
func TestSimplifyPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cols := []*Column{
		NewColumn("a", types.KindInt64),
		NewColumn("b", types.KindInt64),
		NewColumn("c", types.KindInt64),
	}
	ids := []ColumnID{cols[0].ID, cols[1].ID, cols[2].ID}
	for iter := 0; iter < 2000; iter++ {
		e := randBoolExpr(rng, cols, 4)
		s := Simplify(e)
		for trial := 0; trial < 8; trial++ {
			vals := make([]types.Value, len(cols))
			for i := range vals {
				if rng.Intn(5) == 0 {
					vals[i] = types.NullOf(types.KindInt64)
				} else {
					vals[i] = types.Int(rng.Int63n(10))
				}
			}
			env := &sliceEnv{ids: ids, vals: vals}
			got := Eval(s, env)
			want := Eval(e, env)
			// Three-valued equality: NULL == NULL, else same boolean.
			if got.Null != want.Null || (!got.Null && got.AsBool() != want.AsBool()) {
				t.Fatalf("iter %d: Simplify changed semantics\n  e: %s\n  s: %s\n  row: %v\n  want %v got %v",
					iter, e, s, vals, want, got)
			}
		}
	}
}

// TestNormalizePreservesEquivalence checks that normalize-based Equivalent
// is sound: expressions it declares equivalent must agree on random rows.
func TestNormalizePreservesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cols := []*Column{
		NewColumn("a", types.KindInt64),
		NewColumn("b", types.KindInt64),
	}
	ids := []ColumnID{cols[0].ID, cols[1].ID}
	checked := 0
	for iter := 0; iter < 3000; iter++ {
		e1 := randBoolExpr(rng, cols, 3)
		e2 := randBoolExpr(rng, cols, 3)
		if !Equivalent(e1, e2) {
			continue
		}
		checked++
		for trial := 0; trial < 8; trial++ {
			vals := []types.Value{types.Int(rng.Int63n(10)), types.Int(rng.Int63n(10))}
			env := &sliceEnv{ids: ids, vals: vals}
			g1, g2 := Eval(e1, env), Eval(e2, env)
			if g1.Null != g2.Null || (!g1.Null && g1.AsBool() != g2.AsBool()) {
				t.Fatalf("Equivalent(%s, %s) but they disagree on %v: %v vs %v", e1, e2, vals, g1, g2)
			}
		}
	}
	if checked < 10 {
		t.Skipf("only %d random pairs were equivalent; still sound", checked)
	}
}

// TestContradictorySoundness: whenever Contradictory says two conditions
// cannot both hold, no random row may satisfy their conjunction.
func TestContradictorySoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cols := []*Column{NewColumn("a", types.KindInt64)}
	ids := []ColumnID{cols[0].ID}
	flagged := 0
	for iter := 0; iter < 3000; iter++ {
		e1 := randBoolExpr(rng, cols, 2)
		e2 := randBoolExpr(rng, cols, 2)
		if !Contradictory(e1, e2) {
			continue
		}
		flagged++
		both := And(e1, e2)
		for v := int64(-2); v < 12; v++ {
			env := &sliceEnv{ids: ids, vals: []types.Value{types.Int(v)}}
			if Eval(both, env).IsTrue() {
				t.Fatalf("Contradictory(%s, %s) but a=%d satisfies both", e1, e2, v)
			}
		}
	}
	if flagged == 0 {
		t.Skip("no contradictions generated")
	}
	t.Logf("verified %d contradiction judgements", flagged)
}
