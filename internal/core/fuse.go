// Package core implements the paper's primary contribution: query fusion
// (§III) and the optimization rules built on it (§IV).
//
// Fuse(P1, P2) merges two logical plans that compute on overlapping data
// into a single plan P together with (M, L, R): M maps output columns of P2
// to output columns of P, and L and R are compensating filter conditions
// over P's output that restore P1 and P2 respectively:
//
//	P1 = Project_{outCols(P1)}(Filter_L(P))
//	P2 = Project_{M(outCols(P2))}(Filter_R(P))
//
// Fusion is defined per root-operator shape (scans, filters, projections,
// joins, group-bys via aggregate masks, MarkDistinct, pass-through
// operators) and extended with the §III.G best-effort compensations for
// mismatched roots. Crucially, fused results are expressed with standard
// relational operators only, so every other optimizer rule composes with
// them.
package core

import (
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/types"
)

// Result is the 4-tuple returned by a successful fusion.
type Result struct {
	// Plan is the fused plan; its schema includes all output columns of P1
	// plus any additional columns needed for P2's outputs and the
	// compensating filters.
	Plan logical.Operator
	// M maps output columns of P2 to output columns of Plan. Columns absent
	// from M kept their identity (they are P2 columns that appear verbatim
	// in the fused schema).
	M expr.Mapping
	// L restores P1: Filter_L(Plan) yields exactly P1's rows.
	L expr.Expr
	// R restores P2 (modulo M on columns).
	R expr.Expr
}

// trueL reports whether the compensating condition is trivially TRUE.
func trivial(e expr.Expr) bool { return e == nil || expr.IsTrueLiteral(e) }

// LTrivial and RTrivial report whether the compensations are TRUE, i.e. the
// two plans were merged without residual differences.
func (r *Result) LTrivial() bool { return trivial(r.L) }
func (r *Result) RTrivial() bool { return trivial(r.R) }

// maxFuseDepth bounds recursion; real plans are far shallower, and the
// §III.G root-mismatch compensations could otherwise ping-pong.
const maxFuseDepth = 64

// Fuse attempts to fuse two plans. The boolean result is false when fusion
// is not possible (the paper's ⊥).
func Fuse(p1, p2 logical.Operator) (*Result, bool) {
	return fuse(p1, p2, 0)
}

func fuse(p1, p2 logical.Operator, depth int) (*Result, bool) {
	if depth > maxFuseDepth {
		return nil, false
	}
	// Same-root shapes (§III.A–F, plus pass-through defaults of §III.G).
	switch x := p1.(type) {
	case *logical.Scan:
		if y, ok := p2.(*logical.Scan); ok {
			return fuseScans(x, y)
		}
	case *logical.Filter:
		if y, ok := p2.(*logical.Filter); ok {
			return fuseFilters(x, y, depth)
		}
	case *logical.Project:
		if y, ok := p2.(*logical.Project); ok {
			return fuseProjects(x, y, depth)
		}
	case *logical.Join:
		if y, ok := p2.(*logical.Join); ok {
			return fuseJoins(x, y, depth)
		}
	case *logical.GroupBy:
		if y, ok := p2.(*logical.GroupBy); ok {
			return fuseGroupBys(x, y, depth)
		}
	case *logical.MarkDistinct:
		if y, ok := p2.(*logical.MarkDistinct); ok {
			return fuseMarkDistincts(x, y, depth)
		}
	case *logical.EnforceSingleRow:
		if y, ok := p2.(*logical.EnforceSingleRow); ok {
			return fusePassThrough(x, y, depth)
		}
	case *logical.Limit:
		if y, ok := p2.(*logical.Limit); ok && x.N == y.N {
			return fusePassThrough(x, y, depth)
		}
	case *logical.Values:
		if y, ok := p2.(*logical.Values); ok {
			return fuseValues(x, y)
		}
	case *logical.Window:
		if y, ok := p2.(*logical.Window); ok {
			return fuseWindows(x, y, depth)
		}
	}
	// §III.G best-effort compensations for mismatched roots. Order matters:
	// skipping a MarkDistinct is strictly better than manufacturing trivial
	// operators (the paper's Filter/MarkDistinct example), so try it first.
	if res, ok := fuseMismatched(p1, p2, depth); ok {
		return res, true
	}
	return nil, false
}

// fuseScans implements §III.A: two scans fuse iff they read the same table.
// The fused scan reads the union of the two column sets; shared columns of
// P2 map positionally onto P1's instances, and P2-only columns keep their
// identity in the widened scan.
func fuseScans(s1, s2 *logical.Scan) (*Result, bool) {
	if s1.Table.Name != s2.Table.Name {
		return nil, false
	}
	m := expr.Identity()
	fused := s1
	var extraCols []*expr.Column
	var extraNames []string
	for i, name := range s2.ColNames {
		if c1 := s1.ColumnFor(name); c1 != nil {
			m.Add(s2.Cols[i].ID, c1)
		} else {
			extraCols = append(extraCols, s2.Cols[i])
			extraNames = append(extraNames, name)
		}
	}
	if len(extraCols) > 0 {
		fused = &logical.Scan{
			Table:    s1.Table,
			Cols:     append(append([]*expr.Column{}, s1.Cols...), extraCols...),
			ColNames: append(append([]string{}, s1.ColNames...), extraNames...),
		}
	}
	return &Result{Plan: fused, M: m, L: expr.TrueExpr(), R: expr.TrueExpr()}, true
}

// fuseFilters implements §III.B: fuse the inputs, take the disjunction of
// the two conditions as the new filter, and push each original condition
// into the respective compensating filter. Equivalent conditions simplify
// to the condition itself with unchanged compensations.
func fuseFilters(f1, f2 *logical.Filter, depth int) (*Result, bool) {
	in, ok := fuse(f1.Input, f2.Input, depth+1)
	if !ok {
		return nil, false
	}
	c1 := expr.And(f1.Cond, in.L)
	c2 := expr.And(in.M.Apply(f2.Cond), in.R)
	if expr.Equivalent(c1, c2) {
		return &Result{
			Plan: logical.NewFilter(in.Plan, expr.Simplify(c1)),
			M:    in.M,
			L:    expr.TrueExpr(),
			R:    expr.TrueExpr(),
		}, true
	}
	return &Result{
		Plan: logical.NewFilter(in.Plan, expr.Simplify(expr.Or(c1, c2))),
		M:    in.M,
		L:    expr.Simplify(c1),
		R:    expr.Simplify(c2),
	}, true
}

// fuseProjects implements §III.C: keep all of P1's assignments; for each P2
// assignment, reuse a P1 assignment computing the same (mapped) expression
// or append it. Columns needed by the compensating filters are passed
// through so L and R stay well-formed above the projection.
func fuseProjects(r1, r2 *logical.Project, depth int) (*Result, bool) {
	in, ok := fuse(r1.Input, r2.Input, depth+1)
	if !ok {
		return nil, false
	}
	assigns := append([]logical.Assignment{}, r1.Cols...)
	m := expr.Mapping{}
	for k, v := range in.M {
		m[k] = v
	}
	byKey := reuseIndex{}
	for i, a1 := range assigns {
		byKey.add(expr.Key(a1.E), i)
	}
	for _, a2 := range r2.Cols {
		mapped := in.M.Apply(a2.E)
		key := expr.Key(mapped)
		reused := false
		for _, i := range byKey[key] {
			if expr.Equivalent(assigns[i].E, mapped) {
				m.Add(a2.Col.ID, assigns[i].Col)
				reused = true
				break
			}
		}
		if !reused {
			byKey.add(key, len(assigns))
			assigns = append(assigns, logical.Assignment{Col: a2.Col, E: mapped})
			// The column is now a first-class output of the fused
			// projection under its own identity; a child-level mapping for
			// it (e.g. from scan fusion) would point below the projection.
			delete(m, a2.Col.ID)
		}
	}
	// Pass through any columns the compensating filters reference that the
	// projection would otherwise drop.
	present := make(map[expr.ColumnID]bool, len(assigns))
	for _, a := range assigns {
		present[a.Col.ID] = true
	}
	need := make(map[expr.ColumnID]bool)
	expr.CollectColumns(in.L, need)
	expr.CollectColumns(in.R, need)
	for _, c := range in.Plan.Schema() {
		if need[c.ID] && !present[c.ID] {
			assigns = append(assigns, logical.Assignment{Col: c, E: expr.Ref(c)})
			present[c.ID] = true
		}
	}
	return &Result{
		Plan: &logical.Project{Input: in.Plan, Cols: assigns},
		M:    m,
		L:    in.L,
		R:    in.R,
	}, true
}

// fuseJoins implements §III.D: pairwise-fuse the two sides, require the
// join conditions to be equivalent modulo the merged mapping, and conjoin
// the per-side compensations. Semi joins additionally require the right
// side to fuse exactly, because right-side compensating columns are not
// visible in a semi join's output.
func fuseJoins(j1, j2 *logical.Join, depth int) (*Result, bool) {
	if j1.Kind != j2.Kind {
		return nil, false
	}
	left, ok := fuse(j1.Left, j2.Left, depth+1)
	if !ok {
		return nil, false
	}
	right, ok := fuse(j1.Right, j2.Right, depth+1)
	if !ok {
		return nil, false
	}
	m := left.M.Merge(right.M)
	fusedCond := j1.Cond
	var resid1, resid2 []expr.Expr
	switch {
	case j1.Cond == nil && j2.Cond == nil:
		// Cross joins: nothing to match.
	case j1.Cond == nil || j2.Cond == nil:
		return nil, false
	case expr.EquivalentUnder(m, j1.Cond, j2.Cond):
		// Exact match.
	case j1.Kind == logical.InnerJoin:
		// §III.D footnote: for inner joins, conditions that do not fully
		// match can be split into a common portion (the fused join's
		// condition) and per-side residuals folded into the compensating
		// filters. The join runs on the weaker common condition; gated on
		// at least one shared equality so the fused join stays an
		// equi-join.
		common, r1, r2, ok := splitCommonCondition(j1.Cond, m.Apply(j2.Cond))
		if !ok {
			return nil, false
		}
		fusedCond = common
		resid1, resid2 = r1, r2
	default:
		return nil, false
	}
	if j1.Kind == logical.SemiJoin || j1.Kind == logical.LeftJoin {
		// The right side's rows do not appear (semi) or appear
		// NULL-extended (left outer) in the output; residual right-side
		// compensations cannot be applied above the join, so require an
		// exact right-side fuse. Outer joins additionally must not widen
		// the left side (a left row only in P1 would leak into P2's
		// reconstruction via NULL-extension asymmetries), so require an
		// exact left-side fuse for LeftJoin too.
		if !right.LTrivial() || !right.RTrivial() {
			return nil, false
		}
		if j1.Kind == logical.LeftJoin && (!left.LTrivial() || !left.RTrivial()) {
			return nil, false
		}
	}
	return &Result{
		Plan: &logical.Join{Kind: j1.Kind, Left: left.Plan, Right: right.Plan, Cond: fusedCond},
		M:    m,
		L:    expr.Simplify(expr.And(append([]expr.Expr{left.L, right.L}, resid1...)...)),
		R:    expr.Simplify(expr.And(append([]expr.Expr{left.R, right.R}, resid2...)...)),
	}, true
}

// splitCommonCondition partitions two join conditions (already expressed
// over the fused children's columns) into the conjuncts they share and the
// per-side residuals. It succeeds only when at least one shared conjunct is
// an equality, so the fused join remains hashable.
func splitCommonCondition(c1, c2 expr.Expr) (common expr.Expr, resid1, resid2 []expr.Expr, ok bool) {
	conj1 := expr.Conjuncts(expr.Simplify(c1))
	conj2 := expr.Conjuncts(expr.Simplify(c2))
	byKey := reuseIndex{}
	for i, b := range conj2 {
		byKey.add(expr.Key(b), i)
	}
	used := make([]bool, len(conj2))
	var shared []expr.Expr
	hasEquality := false
	for _, a := range conj1 {
		matched := false
		for _, i := range byKey[expr.Key(a)] {
			if !used[i] && expr.Equivalent(a, conj2[i]) {
				used[i] = true
				matched = true
				break
			}
		}
		if matched {
			shared = append(shared, a)
			if bin, isBin := a.(*expr.Binary); isBin && bin.Op == expr.OpEq {
				hasEquality = true
			}
		} else {
			resid1 = append(resid1, a)
		}
	}
	for i, b := range conj2 {
		if !used[i] {
			resid2 = append(resid2, b)
		}
	}
	if !hasEquality {
		return nil, nil, nil, false
	}
	return expr.And(shared...), resid1, resid2, true
}

// fuseGroupBys implements §III.E. The grouping columns must agree modulo
// the input mapping. Every aggregate's mask is tightened with the side's
// compensating filter; P2 aggregates that become identical to an existing
// one are deduplicated through the mapping. For non-scalar groupings whose
// side-compensation is non-trivial, a compensating COUNT(*) aggregate is
// added and the new compensating filter becomes count > 0, so groups whose
// rows were all discarded by the mask produce no row for that side.
func fuseGroupBys(g1, g2 *logical.GroupBy, depth int) (*Result, bool) {
	in, ok := fuse(g1.Input, g2.Input, depth+1)
	if !ok {
		return nil, false
	}
	// Grouping columns must be equal as sets modulo mapping.
	if len(g1.Keys) != len(g2.Keys) {
		return nil, false
	}
	k1 := make(map[expr.ColumnID]bool, len(g1.Keys))
	for _, k := range g1.Keys {
		k1[k.ID] = true
	}
	m := expr.Mapping{}
	for k, v := range in.M {
		m[k] = v
	}
	for _, k := range g2.Keys {
		if !k1[in.M.Resolve(k).ID] {
			return nil, false
		}
	}

	newAggs := make([]logical.AggAssign, 0, len(g1.Aggs)+len(g2.Aggs)+2)
	byKey := reuseIndex{}
	for _, a := range g1.Aggs {
		tightened := a.Agg
		tightened.Mask = expr.Simplify(expr.And(a.Agg.Mask, in.L))
		if expr.IsTrueLiteral(tightened.Mask) {
			tightened.Mask = nil
		}
		byKey.add(expr.AggKey(tightened), len(newAggs))
		newAggs = append(newAggs, logical.AggAssign{Col: a.Col, Agg: tightened})
	}
	for _, a := range g2.Aggs {
		mapped := in.M.ApplyAgg(a.Agg)
		mapped.Mask = expr.Simplify(expr.And(mapped.Mask, in.R))
		if expr.IsTrueLiteral(mapped.Mask) {
			mapped.Mask = nil
		}
		key := expr.AggKey(mapped)
		reused := false
		for _, i := range byKey[key] {
			if expr.AggEqual(newAggs[i].Agg, mapped) {
				m.Add(a.Col.ID, newAggs[i].Col)
				reused = true
				break
			}
		}
		if !reused {
			byKey.add(key, len(newAggs))
			newAggs = append(newAggs, logical.AggAssign{Col: a.Col, Agg: mapped})
		}
	}

	scalar := g1.IsScalar()
	compL, compR := expr.TrueExpr(), expr.TrueExpr()
	if !scalar && !trivial(in.L) {
		countL := expr.NewColumn("$countL", expr.AggCall{Fn: expr.AggCountStar}.ResultType())
		newAggs = append(newAggs, logical.AggAssign{
			Col: countL,
			Agg: expr.AggCall{Fn: expr.AggCountStar, Mask: in.L},
		})
		compL = expr.NewBinary(expr.OpGt, expr.Ref(countL), expr.Lit(intZero()))
	}
	if !scalar && !trivial(in.R) {
		countR := expr.NewColumn("$countR", expr.AggCall{Fn: expr.AggCountStar}.ResultType())
		newAggs = append(newAggs, logical.AggAssign{
			Col: countR,
			Agg: expr.AggCall{Fn: expr.AggCountStar, Mask: in.R},
		})
		compR = expr.NewBinary(expr.OpGt, expr.Ref(countR), expr.Lit(intZero()))
	}

	return &Result{
		Plan: &logical.GroupBy{Input: in.Plan, Keys: g1.Keys, Aggs: newAggs},
		M:    m,
		L:    compL,
		R:    compR,
	}, true
}

// fuseMarkDistincts implements §III.F with the native-mask optimization:
// fuse the inputs and chain the two MarkDistinct operators over the fused
// plan, restricting each to its side's rows via the compensating filter as
// the operator's mask. Each operator therefore distinguishes the first
// occurrence of its column combination among its own side's rows only, and
// no compensation columns need to be materialized.
func fuseMarkDistincts(d1, d2 *logical.MarkDistinct, depth int) (*Result, bool) {
	in, ok := fuse(d1.Input, d2.Input, depth+1)
	if !ok {
		return nil, false
	}
	on2 := make([]*expr.Column, len(d2.On))
	for i, c := range d2.On {
		on2[i] = in.M.Resolve(c)
	}
	mask1 := expr.Simplify(expr.And(d1.Mask, in.L))
	mask2 := expr.Simplify(expr.And(in.M.Apply(d2.Mask), in.R))
	m := expr.Mapping{}
	for k, v := range in.M {
		m[k] = v
	}
	// Identical column sets and masks make the two operators the same mark:
	// keep one and map the other's column onto it (the paper's "processing
	// a chain of MarkDistinct operators on both sides holistically").
	if samePartition(d1.On, on2) && expr.Equivalent(mask1, mask2) {
		fusedMD := &logical.MarkDistinct{Input: in.Plan, MarkCol: d1.MarkCol, On: d1.On, Mask: maskOrNil(mask1)}
		m.Add(d2.MarkCol.ID, d1.MarkCol)
		return &Result{Plan: fusedMD, M: m, L: in.L, R: in.R}, true
	}
	inner := &logical.MarkDistinct{Input: in.Plan, MarkCol: d2.MarkCol, On: on2, Mask: maskOrNil(mask2)}
	outer := &logical.MarkDistinct{Input: inner, MarkCol: d1.MarkCol, On: d1.On, Mask: maskOrNil(mask1)}
	return &Result{Plan: outer, M: m, L: in.L, R: in.R}, true
}

// reuseIndex finds earlier entries of a list by canonical key (expr.Key,
// expr.AggKey); a caller confirms each candidate with the exact
// equivalence test before reusing it.
type reuseIndex map[uint64][]int

func (ix reuseIndex) add(key uint64, i int) { ix[key] = append(ix[key], i) }

func maskOrNil(e expr.Expr) expr.Expr {
	if e == nil || expr.IsTrueLiteral(e) {
		return nil
	}
	return e
}

// fusePassThrough implements the §III.G default for operators that are
// equivalent given equal inputs (EnforceSingleRow, equal Limits). It
// requires the inputs to fuse exactly: a non-trivial compensation below a
// row-count-sensitive operator would change its semantics.
func fusePassThrough(p1, p2 logical.Operator, depth int) (*Result, bool) {
	c1, c2 := p1.Children()[0], p2.Children()[0]
	in, ok := fuse(c1, c2, depth+1)
	if !ok || !in.LTrivial() || !in.RTrivial() {
		return nil, false
	}
	return &Result{
		Plan: p1.WithChildren([]logical.Operator{in.Plan}),
		M:    in.M,
		L:    expr.TrueExpr(),
		R:    expr.TrueExpr(),
	}, true
}

// fuseValues fuses two identical constant tables positionally.
func fuseValues(v1, v2 *logical.Values) (*Result, bool) {
	if len(v1.Cols) != len(v2.Cols) || len(v1.Rows) != len(v2.Rows) {
		return nil, false
	}
	for i := range v1.Cols {
		if v1.Cols[i].Type != v2.Cols[i].Type {
			return nil, false
		}
	}
	for i := range v1.Rows {
		for j := range v1.Rows[i] {
			if !v1.Rows[i][j].Equal(v2.Rows[i][j]) {
				return nil, false
			}
		}
	}
	m := expr.Identity()
	for i := range v2.Cols {
		m.Add(v2.Cols[i].ID, v1.Cols[i])
	}
	return &Result{Plan: v1, M: m, L: expr.TrueExpr(), R: expr.TrueExpr()}, true
}

// fuseWindows merges two Window operators over exactly-fusable inputs,
// deduplicating identical windowed aggregates (same function, argument and
// partitioning modulo mapping) and appending the rest.
func fuseWindows(w1, w2 *logical.Window, depth int) (*Result, bool) {
	in, ok := fuse(w1.Input, w2.Input, depth+1)
	if !ok || !in.LTrivial() || !in.RTrivial() {
		return nil, false
	}
	m := expr.Mapping{}
	for k, v := range in.M {
		m[k] = v
	}
	funcs := append([]logical.WindowAssign{}, w1.Funcs...)
	for _, f2 := range w2.Funcs {
		mappedAgg := in.M.ApplyAgg(f2.Agg)
		part2 := make([]*expr.Column, len(f2.PartitionBy))
		for i, c := range f2.PartitionBy {
			part2[i] = in.M.Resolve(c)
		}
		reused := false
		for _, f1 := range funcs {
			if expr.AggEqual(f1.Agg, mappedAgg) && samePartition(f1.PartitionBy, part2) {
				m.Add(f2.Col.ID, f1.Col)
				reused = true
				break
			}
		}
		if !reused {
			funcs = append(funcs, logical.WindowAssign{Col: f2.Col, Agg: mappedAgg, PartitionBy: part2})
		}
	}
	return &Result{
		Plan: &logical.Window{Input: in.Plan, Funcs: funcs},
		M:    m,
		L:    expr.TrueExpr(),
		R:    expr.TrueExpr(),
	}, true
}

func samePartition(a, b []*expr.Column) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[expr.ColumnID]bool, len(a))
	for _, c := range a {
		set[c.ID] = true
	}
	for _, c := range b {
		if !set[c.ID] {
			return false
		}
	}
	return true
}

// fuseMismatched implements the §III.G best-effort compensations when the
// two roots differ. Preference order: skip a MarkDistinct root (re-adding
// it above the fused result), then manufacture an identity Project, then a
// trivial TRUE Filter.
func fuseMismatched(p1, p2 logical.Operator, depth int) (*Result, bool) {
	// Skip MarkDistinct on the left.
	if d1, ok := p1.(*logical.MarkDistinct); ok {
		if _, alsoMD := p2.(*logical.MarkDistinct); !alsoMD {
			in, ok := fuse(d1.Input, p2, depth+1)
			if !ok {
				return nil, false
			}
			return readdMarkDistinct(d1.MarkCol, d1.On, d1.Mask, in, in.L), true
		}
	}
	// Skip MarkDistinct on the right.
	if d2, ok := p2.(*logical.MarkDistinct); ok {
		if _, alsoMD := p1.(*logical.MarkDistinct); !alsoMD {
			in, ok := fuse(p1, d2.Input, depth+1)
			if !ok {
				return nil, false
			}
			on := make([]*expr.Column, len(d2.On))
			for i, c := range d2.On {
				on[i] = in.M.Resolve(c)
			}
			return readdMarkDistinct(d2.MarkCol, on, in.M.Apply(d2.Mask), in, in.R), true
		}
	}
	// Manufacture an identity projection on the projection-less side.
	if _, ok := p1.(*logical.Project); ok {
		if _, isProj := p2.(*logical.Project); !isProj {
			return fuse(p1, logical.IdentityProject(p2, p2.Schema()), depth+1)
		}
	}
	if _, ok := p2.(*logical.Project); ok {
		if _, isProj := p1.(*logical.Project); !isProj {
			return fuse(logical.IdentityProject(p1, p1.Schema()), p2, depth+1)
		}
	}
	// Manufacture a trivial TRUE filter on the filter-less side.
	if _, ok := p1.(*logical.Filter); ok {
		if _, isF := p2.(*logical.Filter); !isF {
			return fuse(p1, &logical.Filter{Input: p2, Cond: expr.TrueExpr()}, depth+1)
		}
	}
	if _, ok := p2.(*logical.Filter); ok {
		if _, isF := p1.(*logical.Filter); !isF {
			return fuse(&logical.Filter{Input: p1, Cond: expr.TrueExpr()}, p2, depth+1)
		}
	}
	return nil, false
}

// readdMarkDistinct re-adds a skipped MarkDistinct above the fused plan.
// comp is the compensating condition of the side the MarkDistinct came
// from; it becomes (part of) the operator's mask, so rows belonging only to
// the other side cannot consume this side's first-occurrence marks.
func readdMarkDistinct(markCol *expr.Column, on []*expr.Column, mask expr.Expr, in *Result, comp expr.Expr) *Result {
	return &Result{
		Plan: &logical.MarkDistinct{
			Input:   in.Plan,
			MarkCol: markCol,
			On:      on,
			Mask:    maskOrNil(expr.Simplify(expr.And(mask, comp))),
		},
		M: in.M,
		L: in.L,
		R: in.R,
	}
}

func intZero() types.Value { return types.Int(0) }
