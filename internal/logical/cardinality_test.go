package logical

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/types"
)

func statTable(rows int64) *catalog.Table {
	t := itemTable()
	t.Stats.RowCount.Store(rows)
	return t
}

func TestEstimateScanAndFilter(t *testing.T) {
	s := NewScan(statTable(10000))
	if got := EstimateRows(s); got != 10000 {
		t.Errorf("scan estimate = %v", got)
	}
	eq := NewFilter(s, expr.Eq(expr.Ref(s.Cols[1]), expr.Lit(types.String("b"))))
	if got := EstimateRows(eq); got != 1000 {
		t.Errorf("equality filter estimate = %v, want 1000", got)
	}
	rng := NewFilter(s, expr.NewBinary(expr.OpGt, expr.Ref(s.Cols[0]), expr.Lit(types.Int(5))))
	if got := EstimateRows(rng); got != 3000 {
		t.Errorf("range filter estimate = %v, want 3000", got)
	}
	// Unknown table defaults.
	unknown := NewScan(itemTable())
	if got := EstimateRows(unknown); got != 1000 {
		t.Errorf("unknown table estimate = %v", got)
	}
}

func TestEstimateJoins(t *testing.T) {
	l := NewScan(statTable(10000))
	r := NewScan(statTable(100))
	equi := &Join{Kind: InnerJoin, Left: l, Right: r,
		Cond: expr.Eq(expr.Ref(l.Cols[0]), expr.Ref(r.Cols[0]))}
	if got := EstimateRows(equi); got != 10000 {
		t.Errorf("equi join estimate = %v, want 10000", got)
	}
	cross := &Join{Kind: CrossJoin, Left: l, Right: r}
	if got := EstimateRows(cross); got != 1e6 {
		t.Errorf("cross join estimate = %v, want 1e6", got)
	}
	semi := &Join{Kind: SemiJoin, Left: l, Right: r,
		Cond: expr.Eq(expr.Ref(l.Cols[0]), expr.Ref(r.Cols[0]))}
	if got := EstimateRows(semi); got != 5000 {
		t.Errorf("semi join estimate = %v, want 5000", got)
	}
	left := &Join{Kind: LeftJoin, Left: l, Right: r,
		Cond: expr.Eq(expr.Ref(l.Cols[0]), expr.Ref(r.Cols[0]))}
	if got := EstimateRows(left); got < 10000 {
		t.Errorf("left join estimate = %v, want >= left side", got)
	}
}

func TestEstimateAggregatesAndMisc(t *testing.T) {
	s := NewScan(statTable(10000))
	scalar := &GroupBy{Input: s}
	if got := EstimateRows(scalar); got != 1 {
		t.Errorf("scalar agg estimate = %v", got)
	}
	keyed := &GroupBy{Input: s, Keys: []*expr.Column{s.Cols[0]}}
	got := EstimateRows(keyed)
	if got <= 1 || got > 10000 {
		t.Errorf("keyed agg estimate = %v, want in (1, input]", got)
	}
	lim := &Limit{Input: s, N: 7}
	if got := EstimateRows(lim); got != 7 {
		t.Errorf("limit estimate = %v", got)
	}
	esr := &EnforceSingleRow{Input: s}
	if EstimateRows(esr) != 1 {
		t.Error("ESR estimate must be 1")
	}
	v := NewValuesInt("t", 1, 2, 3)
	if EstimateRows(v) != 3 {
		t.Error("values estimate wrong")
	}
	u := NewUnionAll([]Operator{s, NewScan(statTable(500))},
		[][]*expr.Column{{s.Cols[0]}, {NewScan(statTable(500)).Cols[0]}})
	_ = u // arity mismatch on purpose avoided below
}

func TestEstimateUnionAndSpool(t *testing.T) {
	a := NewScan(statTable(100))
	b := NewScan(statTable(200))
	u := NewUnionAll([]Operator{a, b}, [][]*expr.Column{{a.Cols[0]}, {b.Cols[0]}})
	if got := EstimateRows(u); got != 300 {
		t.Errorf("union estimate = %v, want 300", got)
	}
	sp := &Spool{ID: 1, Producer: a, Cols: a.Cols}
	if got := EstimateRows(sp); got != 100 {
		t.Errorf("spool estimate = %v", got)
	}
}

func TestSelectivityShapes(t *testing.T) {
	s := NewScan(statTable(1000))
	cases := []struct {
		cond expr.Expr
		lo   float64
		hi   float64
	}{
		{expr.FalseExpr(), 0, 0},
		{expr.TrueExpr(), 1000, 1000},
		{expr.NewIsNull(expr.Ref(s.Cols[0]), false), 1, 100},
		{expr.NewInList(expr.Ref(s.Cols[0]), []expr.Expr{expr.Lit(types.Int(1)), expr.Lit(types.Int(2))}, false), 100, 300},
		{expr.NewLike(expr.Ref(s.Cols[1]), "a%"), 100, 400},
		{expr.NewNot(expr.Eq(expr.Ref(s.Cols[0]), expr.Lit(types.Int(1)))), 800, 1000},
	}
	for _, c := range cases {
		got := EstimateRows(NewFilter(s, c.cond))
		if got < c.lo || got > c.hi {
			t.Errorf("estimate(%s) = %v, want in [%v, %v]", c.cond, got, c.lo, c.hi)
		}
	}
}
