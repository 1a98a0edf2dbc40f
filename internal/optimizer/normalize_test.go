package optimizer

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/types"
)

func TestSimplifyExpressionsAcrossOperators(t *testing.T) {
	ss := logical.NewScan(salesTable())
	redundant := expr.NewBinary(expr.OpAnd, expr.NewBinary(expr.OpGt, expr.Ref(ss.Cols[2]), expr.Lit(types.Int(1))), expr.TrueExpr())
	w := &logical.Window{Input: ss, Funcs: []logical.WindowAssign{{
		Col:         expr.NewColumn("w", types.KindFloat64),
		Agg:         expr.AggCall{Fn: expr.AggAvg, Arg: expr.Ref(ss.Cols[3]), Mask: redundant},
		PartitionBy: []*expr.Column{ss.Cols[1]},
	}}}
	srt := &logical.Sort{Input: w, Keys: []logical.SortKey{{E: expr.NewBinary(expr.OpAdd, expr.Lit(types.Int(1)), expr.Lit(types.Int(2)))}}}
	md := &logical.MarkDistinct{Input: srt, MarkCol: expr.NewColumn("d", types.KindBool),
		On: []*expr.Column{ss.Cols[0]}, Mask: expr.TrueExpr()}
	out := SimplifyExpressions(md)
	mustValid(t, out)
	txt := logical.Format(out)
	if strings.Contains(txt, "AND true") {
		t.Errorf("window mask not simplified:\n%s", txt)
	}
	if !strings.Contains(txt, "Sort 3") {
		t.Errorf("sort key not folded:\n%s", txt)
	}
	// TRUE MarkDistinct mask must be dropped entirely.
	outMD := out.(*logical.MarkDistinct)
	if outMD.Mask != nil {
		t.Errorf("TRUE mask should become nil, got %s", outMD.Mask)
	}
}

func TestSimplifyFilterToTrueDisappears(t *testing.T) {
	ss := logical.NewScan(salesTable())
	f := &logical.Filter{Input: ss, Cond: expr.NewBinary(expr.OpOr, expr.TrueExpr(), expr.NotNull(expr.Ref(ss.Cols[0])))}
	out := SimplifyExpressions(f)
	if _, stillFilter := out.(*logical.Filter); stillFilter {
		t.Errorf("tautological filter survived:\n%s", logical.Format(out))
	}
}

func TestMergeFilters(t *testing.T) {
	ss := logical.NewScan(salesTable())
	inner := &logical.Filter{Input: ss, Cond: expr.NotNull(expr.Ref(ss.Cols[0]))}
	outer := &logical.Filter{Input: inner, Cond: expr.NotNull(expr.Ref(ss.Cols[1]))}
	out := MergeFilters(outer)
	f, ok := out.(*logical.Filter)
	if !ok {
		t.Fatalf("expected filter, got %T", out)
	}
	if _, nested := f.Input.(*logical.Filter); nested {
		t.Error("filters not merged")
	}
	if len(expr.Conjuncts(f.Cond)) != 2 {
		t.Errorf("merged condition wrong: %s", f.Cond)
	}
}

func TestRemoveSingletonUnion(t *testing.T) {
	ss := logical.NewScan(salesTable())
	u := &logical.UnionAll{
		Inputs:    []logical.Operator{ss},
		Cols:      []*expr.Column{expr.NewColumn("x", types.KindInt64)},
		InputCols: [][]*expr.Column{{ss.Cols[0]}},
	}
	out := RemoveTrivialOperators(u)
	if _, stillUnion := out.(*logical.UnionAll); stillUnion {
		t.Errorf("singleton union survived:\n%s", logical.Format(out))
	}
	mustValid(t, out)
}

func TestPushDownThroughWindowPartitionOnly(t *testing.T) {
	ss := logical.NewScan(salesTable())
	w := &logical.Window{Input: ss, Funcs: []logical.WindowAssign{{
		Col:         expr.NewColumn("w", types.KindFloat64),
		Agg:         expr.AggCall{Fn: expr.AggAvg, Arg: expr.Ref(ss.Cols[3])},
		PartitionBy: []*expr.Column{ss.Cols[1]},
	}}}
	// A predicate on the partition column sinks below the window.
	partPred := expr.NewBinary(expr.OpGt, expr.Ref(ss.Cols[1]), expr.Lit(types.Int(2)))
	out := PushDownPredicates(logical.NewFilter(w, partPred))
	if _, topFilter := out.(*logical.Filter); topFilter {
		t.Errorf("partition predicate should sink below window:\n%s", logical.Format(out))
	}
	// A predicate on a non-partition column must stay above.
	otherPred := expr.NewBinary(expr.OpGt, expr.Ref(ss.Cols[2]), expr.Lit(types.Int(2)))
	out2 := PushDownPredicates(logical.NewFilter(w, otherPred))
	if _, topFilter := out2.(*logical.Filter); !topFilter {
		t.Errorf("non-partition predicate must stay above window:\n%s", logical.Format(out2))
	}
}

func TestPushDownNotThroughMarkDistinct(t *testing.T) {
	ss := logical.NewScan(salesTable())
	md := &logical.MarkDistinct{Input: ss, MarkCol: expr.NewColumn("d", types.KindBool), On: []*expr.Column{ss.Cols[0]}}
	pred := expr.NewBinary(expr.OpGt, expr.Ref(ss.Cols[2]), expr.Lit(types.Int(1)))
	out := PushDownPredicates(logical.NewFilter(md, pred))
	if _, topFilter := out.(*logical.Filter); !topFilter {
		t.Errorf("filter must stay above MarkDistinct (marks depend on full input):\n%s", logical.Format(out))
	}
}

func TestPushDownSemiJoinSides(t *testing.T) {
	probe := logical.NewScan(salesTable())
	build := logical.NewScan(itemTable())
	semi := &logical.Join{Kind: logical.SemiJoin, Left: probe, Right: build,
		Cond: expr.And(
			expr.Eq(expr.Ref(probe.Cols[0]), expr.Ref(build.Cols[0])),
			expr.Eq(expr.Ref(build.Cols[1]), expr.Lit(types.String("b"))),              // right-only
			expr.NewBinary(expr.OpGt, expr.Ref(probe.Cols[2]), expr.Lit(types.Int(1))), // left-only
		)}
	out := PushDownPredicates(semi)
	mustValid(t, out)
	j := out.(*logical.Join)
	if _, ok := j.Left.(*logical.Filter); !ok {
		t.Errorf("left-only conjunct not pushed:\n%s", logical.Format(out))
	}
	if _, ok := j.Right.(*logical.Filter); !ok {
		t.Errorf("right-only conjunct not pushed:\n%s", logical.Format(out))
	}
	if len(expr.Conjuncts(j.Cond)) != 1 {
		t.Errorf("join condition should keep only the cross-side equality: %s", j.Cond)
	}
}

func TestPushDownLeftJoin(t *testing.T) {
	l := logical.NewScan(salesTable())
	r := logical.NewScan(itemTable())
	lj := &logical.Join{Kind: logical.LeftJoin, Left: l, Right: r,
		Cond: expr.Eq(expr.Ref(l.Cols[0]), expr.Ref(r.Cols[0]))}
	// Left-side predicate sinks; right-side predicate must NOT sink (it
	// would change NULL-extension semantics).
	cond := expr.And(
		expr.NewBinary(expr.OpGt, expr.Ref(l.Cols[2]), expr.Lit(types.Int(1))),
		expr.NotNull(expr.Ref(r.Cols[1])),
	)
	out := PushDownPredicates(logical.NewFilter(lj, cond))
	mustValid(t, out)
	top, isFilter := out.(*logical.Filter)
	if !isFilter {
		t.Fatalf("right-side predicate must stay above the left join:\n%s", logical.Format(out))
	}
	j := top.Input.(*logical.Join)
	if _, ok := j.Left.(*logical.Filter); !ok {
		t.Errorf("left predicate not pushed:\n%s", logical.Format(out))
	}
	if _, ok := j.Right.(*logical.Filter); ok {
		t.Errorf("right predicate wrongly pushed into outer join side:\n%s", logical.Format(out))
	}
}

func TestLowerDistinctAggregateExpressionArg(t *testing.T) {
	ss := logical.NewScan(salesTable())
	gb := &logical.GroupBy{Input: ss, Aggs: []logical.AggAssign{{
		Col: expr.NewColumn("d", types.KindInt64),
		Agg: expr.AggCall{Fn: expr.AggCount, Distinct: true,
			Arg: expr.NewBinary(expr.OpAdd, expr.Ref(ss.Cols[0]), expr.Lit(types.Int(1)))},
	}}}
	out := LowerDistinctAggregates(gb)
	mustValid(t, out)
	// The expression argument must be materialized by a projection below
	// the MarkDistinct.
	txt := logical.Format(out)
	if !strings.Contains(txt, "MarkDistinct") || !strings.Contains(txt, "$dval") {
		t.Errorf("expression arg not materialized:\n%s", txt)
	}
}

func TestSignatureCoversAllOperators(t *testing.T) {
	ss := logical.NewScan(salesTable())
	plan := &logical.Limit{
		N: 5,
		Input: &logical.Sort{
			Keys: []logical.SortKey{{E: expr.Ref(ss.Cols[0])}},
			Input: &logical.EnforceSingleRow{
				Input: &logical.Window{
					Input: &logical.UnionAll{
						Inputs:    []logical.Operator{ss},
						Cols:      []*expr.Column{expr.NewColumn("u", types.KindInt64)},
						InputCols: [][]*expr.Column{{ss.Cols[0]}},
					},
				},
			},
		},
	}
	sig := Signature(plan)
	for _, want := range []string{"limit", "sort", "esr", "window", "union", "scan"} {
		if !strings.Contains(sig, want) {
			t.Errorf("signature missing %q: %s", want, sig)
		}
	}
	v := logical.NewValuesInt("tag", 1, 2)
	if !strings.Contains(Signature(v), "values") {
		t.Error("values signature missing")
	}
	sp := &logical.Spool{ID: 3, Producer: ss, Cols: ss.Cols}
	if !strings.Contains(Signature(sp), "spool#3") {
		t.Error("spool signature missing")
	}
	// Expression kinds.
	cond := expr.And(
		expr.NewNot(expr.NotNull(expr.Ref(ss.Cols[0]))),
		expr.NewInList(expr.Ref(ss.Cols[0]), []expr.Expr{expr.Lit(types.Int(1))}, false),
		expr.NewLike(expr.Lit(types.String("x")), "x%"),
		expr.NewCase([]expr.When{{Cond: expr.TrueExpr(), Then: expr.Lit(types.Int(1))}}, nil),
		expr.NewCoalesce([]expr.Expr{expr.Ref(ss.Cols[0])}),
	)
	f := &logical.Filter{Input: ss, Cond: cond}
	sig2 := Signature(f)
	for _, want := range []string{"not(", "in(", "like(", "case(", "coalesce("} {
		if !strings.Contains(sig2, want) {
			t.Errorf("expression signature missing %q", want)
		}
	}
}
