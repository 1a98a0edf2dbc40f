package core

import (
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/types"
)

// UnionAllFusion implements §IV.D: a UnionAll whose branches fuse is
// replaced by a single evaluation of the fused plan cross-joined with a
// constant tag table; compensating filters guarded by the tag restore each
// branch's rows, and a projection selects each branch's output columns via
// CASE on the tag:
//
//	Project_{UM(c1i) := CASE WHEN tag=1 THEN c1i ELSE M(c2i) END, ...}
//	  Filter_{(tag=1 AND L) OR (tag=2 AND R)}
//	    CrossJoin(P, ConstantTable((1),(2)) AS Temp(tag))
//
// The rule is natively n-ary (§IV.E recommends extending Fuse to n inputs
// for unions rather than iterating pairwise). When the compensating filters
// of a binary union are contradictory (L AND R ≡ FALSE), the replication is
// unnecessary and the simpler Filter_{L OR R} + CASE WHEN L form is used.
type UnionAllFusion struct {
	// MinReuseRows gates the rewrite on the estimated size of the fused
	// common expression (0 = always apply).
	MinReuseRows float64
}

// Name implements Rule.
func (UnionAllFusion) Name() string { return "UnionAllFusion" }

// Apply implements Rule.
func (r UnionAllFusion) Apply(op logical.Operator) (logical.Operator, bool) {
	u, ok := op.(*logical.UnionAll)
	if !ok || len(u.Inputs) < 2 {
		return op, false
	}
	res, ok := FuseAll(u.Inputs)
	if !ok || !containsAnyScan(res.Plan) {
		return op, false
	}
	if r.MinReuseRows > 0 && logical.EstimateRows(res.Plan) < r.MinReuseRows {
		return op, false
	}

	// Contradiction shortcut for the binary case.
	if len(u.Inputs) == 2 && expr.Contradictory(res.Comps[0], res.Comps[1]) {
		filtered := logical.NewFilter(res.Plan, expr.Simplify(expr.Or(res.Comps[0], res.Comps[1])))
		top := &logical.Project{Input: filtered}
		for j, outCol := range u.Cols {
			e0 := expr.Ref(res.Ms[0].Resolve(u.InputCols[0][j]))
			e1 := expr.Ref(res.Ms[1].Resolve(u.InputCols[1][j]))
			var e expr.Expr
			if expr.Equal(e0, e1) {
				e = e0
			} else {
				e = expr.NewCase([]expr.When{{Cond: res.Comps[0], Then: e0}}, e1)
			}
			top.Cols = append(top.Cols, logical.Assignment{Col: outCol, E: e})
		}
		return top, true
	}

	n := len(u.Inputs)
	tags := make([]int64, n)
	for i := range tags {
		tags[i] = int64(i + 1)
	}
	tagTable := logical.NewValuesInt("tag", tags...)
	tagCol := tagTable.Cols[0]
	cross := &logical.Join{Kind: logical.CrossJoin, Left: res.Plan, Right: tagTable}

	branchConds := make([]expr.Expr, n)
	for i := 0; i < n; i++ {
		branchConds[i] = expr.And(
			expr.Eq(expr.Ref(tagCol), expr.Lit(types.Int(tags[i]))),
			res.Comps[i],
		)
	}
	filtered := logical.NewFilter(cross, expr.Simplify(expr.Or(branchConds...)))

	top := &logical.Project{Input: filtered}
	for j, outCol := range u.Cols {
		exprs := make([]expr.Expr, n)
		allEqual := true
		for i := 0; i < n; i++ {
			exprs[i] = expr.Ref(res.Ms[i].Resolve(u.InputCols[i][j]))
			if i > 0 && !expr.Equal(exprs[i], exprs[0]) {
				allEqual = false
			}
		}
		var e expr.Expr
		if allEqual {
			// §IV.D extension: drop the CASE when every branch selects the
			// same fused column.
			e = exprs[0]
		} else {
			whens := make([]expr.When, 0, n-1)
			for i := 0; i < n-1; i++ {
				whens = append(whens, expr.When{
					Cond: expr.Eq(expr.Ref(tagCol), expr.Lit(types.Int(tags[i]))),
					Then: exprs[i],
				})
			}
			e = expr.NewCase(whens, exprs[n-1])
		}
		top.Cols = append(top.Cols, logical.Assignment{Col: outCol, E: e})
	}
	return top, true
}
