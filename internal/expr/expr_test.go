package expr

import (
	"testing"

	"repro/internal/types"
)

func col(name string, k types.Kind) *Column { return NewColumn(name, k) }

func TestColumnIDsUnique(t *testing.T) {
	a := col("x", types.KindInt64)
	b := col("x", types.KindInt64)
	if a.ID == b.ID {
		t.Fatal("two NewColumn calls returned the same ID")
	}
}

func TestBinaryTypes(t *testing.T) {
	a := Ref(col("a", types.KindInt64))
	f := Ref(col("f", types.KindFloat64))
	if NewBinary(OpAdd, a, a).Type() != types.KindInt64 {
		t.Error("int + int should be int")
	}
	if NewBinary(OpAdd, a, f).Type() != types.KindFloat64 {
		t.Error("int + float should be float")
	}
	if NewBinary(OpDiv, a, a).Type() != types.KindFloat64 {
		t.Error("div should be float")
	}
	if NewBinary(OpLt, a, a).Type() != types.KindBool {
		t.Error("comparison should be bool")
	}
}

func TestExprString(t *testing.T) {
	a := col("a", types.KindInt64)
	e := NewBinary(OpGt, Ref(a), Lit(types.Int(5)))
	want := "(a#" + itoa(int(a.ID)) + " > 5)"
	if e.String() != want {
		t.Errorf("String() = %q, want %q", e.String(), want)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

type mapEnv map[ColumnID]types.Value

func (m mapEnv) Value(id ColumnID) types.Value { return m[id] }

func TestEvalArithmetic(t *testing.T) {
	a := col("a", types.KindInt64)
	env := mapEnv{a.ID: types.Int(10)}
	cases := []struct {
		e    Expr
		want types.Value
	}{
		{NewBinary(OpAdd, Ref(a), Lit(types.Int(5))), types.Int(15)},
		{NewBinary(OpSub, Ref(a), Lit(types.Int(3))), types.Int(7)},
		{NewBinary(OpMul, Ref(a), Lit(types.Int(2))), types.Int(20)},
		{NewBinary(OpDiv, Ref(a), Lit(types.Int(4))), types.Float(2.5)},
		{NewBinary(OpMul, Ref(a), Lit(types.Float(0.5))), types.Float(5)},
		{NewBinary(OpDiv, Ref(a), Lit(types.Int(0))), types.NullOf(types.KindFloat64)},
	}
	for _, c := range cases {
		if got := Eval(c.e, env); !got.Equal(c.want) {
			t.Errorf("Eval(%s) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestEvalNullPropagation(t *testing.T) {
	a := col("a", types.KindInt64)
	env := mapEnv{a.ID: types.NullOf(types.KindInt64)}
	e := NewBinary(OpAdd, Ref(a), Lit(types.Int(1)))
	if got := Eval(e, env); !got.Null {
		t.Errorf("NULL + 1 = %v, want NULL", got)
	}
	cmp := NewBinary(OpEq, Ref(a), Lit(types.Int(1)))
	if got := Eval(cmp, env); !got.Null {
		t.Errorf("NULL = 1 should be NULL, got %v", got)
	}
}

func TestEvalKleeneLogic(t *testing.T) {
	b := col("b", types.KindBool)
	nullEnv := mapEnv{b.ID: types.NullOf(types.KindBool)}
	// FALSE AND NULL = FALSE.
	e := NewBinary(OpAnd, FalseExpr(), Ref(b))
	if got := Eval(e, nullEnv); got.Null || got.AsBool() {
		t.Errorf("FALSE AND NULL = %v, want false", got)
	}
	// TRUE OR NULL = TRUE.
	e = NewBinary(OpOr, TrueExpr(), Ref(b))
	if got := Eval(e, nullEnv); got.Null || !got.AsBool() {
		t.Errorf("TRUE OR NULL = %v, want true", got)
	}
	// TRUE AND NULL = NULL.
	e = NewBinary(OpAnd, TrueExpr(), Ref(b))
	if got := Eval(e, nullEnv); !got.Null {
		t.Errorf("TRUE AND NULL = %v, want NULL", got)
	}
	// FALSE OR NULL = NULL.
	e = NewBinary(OpOr, FalseExpr(), Ref(b))
	if got := Eval(e, nullEnv); !got.Null {
		t.Errorf("FALSE OR NULL = %v, want NULL", got)
	}
}

func TestEvalCase(t *testing.T) {
	a := col("a", types.KindInt64)
	e := NewCase([]When{
		{Cond: NewBinary(OpGt, Ref(a), Lit(types.Int(10))), Then: Lit(types.String("big"))},
		{Cond: NewBinary(OpGt, Ref(a), Lit(types.Int(0))), Then: Lit(types.String("small"))},
	}, Lit(types.String("neg")))
	if got := Eval(e, mapEnv{a.ID: types.Int(20)}); got.S != "big" {
		t.Errorf("CASE(20) = %v", got)
	}
	if got := Eval(e, mapEnv{a.ID: types.Int(5)}); got.S != "small" {
		t.Errorf("CASE(5) = %v", got)
	}
	if got := Eval(e, mapEnv{a.ID: types.Int(-5)}); got.S != "neg" {
		t.Errorf("CASE(-5) = %v", got)
	}
	noElse := NewCase(e.Whens[:1], nil)
	if got := Eval(noElse, mapEnv{a.ID: types.Int(-5)}); !got.Null {
		t.Errorf("CASE without match should be NULL, got %v", got)
	}
}

func TestEvalInList(t *testing.T) {
	a := col("a", types.KindString)
	e := NewInList(Ref(a), []Expr{Lit(types.String("m")), Lit(types.String("l"))}, false)
	if got := Eval(e, mapEnv{a.ID: types.String("m")}); !got.IsTrue() {
		t.Error("'m' IN ('m','l') should be true")
	}
	if got := Eval(e, mapEnv{a.ID: types.String("x")}); got.IsTrue() || got.Null {
		t.Error("'x' IN ('m','l') should be false")
	}
	if got := Eval(e, mapEnv{a.ID: types.NullOf(types.KindString)}); !got.Null {
		t.Error("NULL IN (...) should be NULL")
	}
	// NOT IN with a NULL element and no match is NULL.
	e2 := NewInList(Ref(a), []Expr{Lit(types.String("m")), Lit(types.NullOf(types.KindString))}, true)
	if got := Eval(e2, mapEnv{a.ID: types.String("x")}); !got.Null {
		t.Errorf("'x' NOT IN ('m', NULL) = %v, want NULL", got)
	}
}

func TestEvalLike(t *testing.T) {
	a := col("a", types.KindString)
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "x%", false},
		{"hello", "hello", true},
		{"hello", "%%", true},
		{"", "%", true},
		{"abc", "_", false},
	}
	for _, c := range cases {
		e := NewLike(Ref(a), c.p)
		if got := Eval(e, mapEnv{a.ID: types.String(c.s)}); got.AsBool() != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.p, got.AsBool(), c.want)
		}
	}
}

func TestEvalCoalesce(t *testing.T) {
	a := col("a", types.KindInt64)
	e := NewCoalesce([]Expr{Ref(a), Lit(types.Int(7))})
	if got := Eval(e, mapEnv{a.ID: types.NullOf(types.KindInt64)}); got.I != 7 {
		t.Errorf("COALESCE(NULL, 7) = %v", got)
	}
	if got := Eval(e, mapEnv{a.ID: types.Int(3)}); got.I != 3 {
		t.Errorf("COALESCE(3, 7) = %v", got)
	}
}

func TestConjunctsAndBuilders(t *testing.T) {
	a := Ref(col("a", types.KindBool))
	b := Ref(col("b", types.KindBool))
	c := Ref(col("c", types.KindBool))
	e := And(a, And(b, c))
	parts := Conjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("Conjuncts = %d parts, want 3", len(parts))
	}
	if !IsTrueLiteral(And()) {
		t.Error("And() should be TRUE")
	}
	if !IsFalseLiteral(Or()) {
		t.Error("Or() should be FALSE")
	}
	if And(nil, TrueExpr(), a) != a {
		t.Error("And should drop nil and TRUE")
	}
	if len(Disjuncts(Or(a, Or(b, c)))) != 3 {
		t.Error("Disjuncts should flatten")
	}
}

func TestSubstitute(t *testing.T) {
	a := col("a", types.KindInt64)
	b := col("b", types.KindInt64)
	m := Mapping{a.ID: b}
	e := NewBinary(OpGt, Ref(a), Lit(types.Int(5)))
	got := m.Apply(e)
	want := NewBinary(OpGt, Ref(b), Lit(types.Int(5)))
	if !Equal(got, want) {
		t.Errorf("Apply = %s, want %s", got, want)
	}
	// Original untouched.
	if !Equal(e, NewBinary(OpGt, Ref(a), Lit(types.Int(5)))) {
		t.Error("Apply mutated its input")
	}
	if m.Apply(nil) != nil {
		t.Error("Apply(nil) should be nil")
	}
}

func TestMappingMergeAndResolve(t *testing.T) {
	a, b, c, d := col("a", types.KindInt64), col("b", types.KindInt64), col("c", types.KindInt64), col("d", types.KindInt64)
	m1 := Mapping{a.ID: b}
	m2 := Mapping{c.ID: d}
	m := m1.Merge(m2)
	if m.Resolve(a) != b || m.Resolve(c) != d {
		t.Error("Merge lost entries")
	}
	if m.Resolve(d) != d {
		t.Error("unmapped column should resolve to itself")
	}
}

func TestEqualAndEquivalent(t *testing.T) {
	a := col("a", types.KindInt64)
	b := col("b", types.KindInt64)
	e1 := And(NewBinary(OpGt, Ref(a), Lit(types.Int(1))), NewBinary(OpLt, Ref(b), Lit(types.Int(9))))
	e2 := And(NewBinary(OpLt, Ref(b), Lit(types.Int(9))), NewBinary(OpGt, Ref(a), Lit(types.Int(1))))
	if Equal(e1, e2) {
		t.Error("Equal should be order-sensitive")
	}
	if !Equivalent(e1, e2) {
		t.Error("Equivalent should handle AND commutativity")
	}
	eq1 := Eq(Ref(a), Ref(b))
	eq2 := Eq(Ref(b), Ref(a))
	if !Equivalent(eq1, eq2) {
		t.Error("Equivalent should handle = commutativity")
	}
	if Equivalent(NewBinary(OpGt, Ref(a), Lit(types.Int(1))), NewBinary(OpGt, Ref(a), Lit(types.Int(2)))) {
		t.Error("different literals must not be equivalent")
	}
}

func TestEquivalentUnder(t *testing.T) {
	a := col("a", types.KindInt64)
	a2 := col("a", types.KindInt64)
	m := Mapping{a2.ID: a}
	e1 := NewBinary(OpGt, Ref(a), Lit(types.Int(1)))
	e2 := NewBinary(OpGt, Ref(a2), Lit(types.Int(1)))
	if !EquivalentUnder(m, e1, e2) {
		t.Error("EquivalentUnder failed through mapping")
	}
}

func TestSimplify(t *testing.T) {
	a := Ref(col("a", types.KindBool))
	cases := []struct {
		in, want Expr
	}{
		{And(a, TrueExpr()), a},
		{NewBinary(OpAnd, a, FalseExpr()), FalseExpr()},
		{NewBinary(OpOr, a, TrueExpr()), TrueExpr()},
		{NewBinary(OpOr, a, FalseExpr()), a},
		{NewNot(NewNot(a)), a},
		{NewBinary(OpAdd, Lit(types.Int(2)), Lit(types.Int(3))), Lit(types.Int(5))},
		{NewBinary(OpAnd, a, a), a},
	}
	for _, c := range cases {
		if got := Simplify(c.in); !Equal(got, c.want) {
			t.Errorf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestSimplifyNotComparison(t *testing.T) {
	a := col("a", types.KindInt64)
	e := NewNot(NewBinary(OpGt, Ref(a), Lit(types.Int(5))))
	want := NewBinary(OpLe, Ref(a), Lit(types.Int(5)))
	if got := Simplify(e); !Equal(got, want) {
		t.Errorf("Simplify(NOT >) = %s, want %s", got, want)
	}
}

func TestSimplifyCase(t *testing.T) {
	a := Ref(col("a", types.KindInt64))
	e := NewCase([]When{
		{Cond: FalseExpr(), Then: Lit(types.Int(1))},
		{Cond: TrueExpr(), Then: a},
	}, nil)
	if got := Simplify(e); !Equal(got, a) {
		t.Errorf("Simplify(CASE) = %s, want %s", got, a)
	}
}

func TestContradictory(t *testing.T) {
	a := col("a", types.KindInt64)
	s := col("s", types.KindString)
	gt1000 := NewBinary(OpGt, Ref(a), Lit(types.Int(1000)))
	lt50 := NewBinary(OpLt, Ref(a), Lit(types.Int(50)))
	if !Contradictory(gt1000, lt50) {
		t.Error("a>1000 AND a<50 should be contradictory")
	}
	if Contradictory(gt1000, NewBinary(OpGt, Ref(a), Lit(types.Int(2000)))) {
		t.Error("a>1000 AND a>2000 is satisfiable")
	}
	eqA := Eq(Ref(s), Lit(types.String("x")))
	eqB := Eq(Ref(s), Lit(types.String("y")))
	if !Contradictory(eqA, eqB) {
		t.Error("s='x' AND s='y' should be contradictory")
	}
	if !Contradictory(Eq(Ref(a), Lit(types.Int(1))), Eq(Ref(a), Lit(types.Int(2)))) {
		t.Error("a=1 AND a=2 should be contradictory")
	}
	// Flipped literal side.
	if !Contradictory(NewBinary(OpLt, Lit(types.Int(1000)), Ref(a)), lt50) {
		t.Error("1000<a AND a<50 should be contradictory")
	}
	// Boundary: a >= 5 AND a <= 5 is satisfiable; a > 5 AND a <= 5 is not.
	if Contradictory(NewBinary(OpGe, Ref(a), Lit(types.Int(5))), NewBinary(OpLe, Ref(a), Lit(types.Int(5)))) {
		t.Error("a>=5 AND a<=5 is satisfiable")
	}
	if !Contradictory(NewBinary(OpGt, Ref(a), Lit(types.Int(5))), NewBinary(OpLe, Ref(a), Lit(types.Int(5)))) {
		t.Error("a>5 AND a<=5 should be contradictory")
	}
}

func TestColumnsAndRefersOnly(t *testing.T) {
	a := col("a", types.KindInt64)
	b := col("b", types.KindInt64)
	e := NewBinary(OpAdd, Ref(a), Ref(b))
	cols := Columns(e)
	if !cols[a.ID] || !cols[b.ID] || len(cols) != 2 {
		t.Errorf("Columns = %v", cols)
	}
	if !RefersOnly(e, map[ColumnID]bool{a.ID: true, b.ID: true}) {
		t.Error("RefersOnly should accept full set")
	}
	if RefersOnly(e, map[ColumnID]bool{a.ID: true}) {
		t.Error("RefersOnly should reject missing column")
	}
}

func TestAggCallString(t *testing.T) {
	a := col("a", types.KindInt64)
	agg := AggCall{Fn: AggSum, Arg: Ref(a), Mask: NewBinary(OpGt, Ref(a), Lit(types.Int(0)))}
	got := agg.String()
	if got == "" || got == "SUM" {
		t.Errorf("String() = %q", got)
	}
	cs := AggCall{Fn: AggCountStar}
	if cs.String() != "COUNT(*)" {
		t.Errorf("COUNT(*) String() = %q", cs.String())
	}
}

func TestAggResultType(t *testing.T) {
	a := col("a", types.KindInt64)
	f := col("f", types.KindFloat64)
	if (AggCall{Fn: AggCountStar}).ResultType() != types.KindInt64 {
		t.Error("COUNT(*) should be int")
	}
	if (AggCall{Fn: AggSum, Arg: Ref(a)}).ResultType() != types.KindInt64 {
		t.Error("SUM(int) should be int")
	}
	if (AggCall{Fn: AggSum, Arg: Ref(f)}).ResultType() != types.KindFloat64 {
		t.Error("SUM(float) should be float")
	}
	if (AggCall{Fn: AggAvg, Arg: Ref(a)}).ResultType() != types.KindFloat64 {
		t.Error("AVG should be float")
	}
	if (AggCall{Fn: AggMin, Arg: Ref(f)}).ResultType() != types.KindFloat64 {
		t.Error("MIN should preserve type")
	}
}

func TestAggEqual(t *testing.T) {
	a := col("a", types.KindInt64)
	x := AggCall{Fn: AggSum, Arg: Ref(a)}
	y := AggCall{Fn: AggSum, Arg: Ref(a), Mask: TrueExpr()}
	if !AggEqual(x, y) {
		t.Error("nil mask and TRUE mask should compare equal")
	}
	z := AggCall{Fn: AggSum, Arg: Ref(a), Mask: Eq(Ref(a), Lit(types.Int(1)))}
	if AggEqual(x, z) {
		t.Error("different masks must not be equal")
	}
}

func TestTransformRebuilds(t *testing.T) {
	a := col("a", types.KindInt64)
	e := NewBinary(OpAdd, Ref(a), Lit(types.Int(1)))
	got := Transform(e, func(x Expr) Expr {
		if l, ok := x.(*Literal); ok && l.Val.Kind == types.KindInt64 {
			return Lit(types.Int(l.Val.I + 100))
		}
		return x
	})
	want := NewBinary(OpAdd, Ref(a), Lit(types.Int(101)))
	if !Equal(got, want) {
		t.Errorf("Transform = %s, want %s", got, want)
	}
}

func TestEvalConst(t *testing.T) {
	if v, ok := EvalConst(NewBinary(OpMul, Lit(types.Int(6)), Lit(types.Int(7)))); !ok || v.I != 42 {
		t.Errorf("EvalConst = %v, %v", v, ok)
	}
	if _, ok := EvalConst(Ref(col("a", types.KindInt64))); ok {
		t.Error("EvalConst should fail on column refs")
	}
}
