package binder

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/sql"
)

// bindScalarSubquery plans a scalar subquery in expression position.
//
// Uncorrelated subqueries become EnforceSingleRow plans cross-joined into
// the current plan (the paper's "subquery removal", which sets up the
// JoinOnKeys scalar pattern for Q09/Q28/Q88).
//
// Correlated scalar-aggregate subqueries are decorrelated in the style of
// Galindo-Legaria & Joshi [20]: correlation equalities become grouping
// columns, and the grouped aggregate joins back to the outer query on them
// — producing the P1 ⨝ GroupBy(P2) shape that GroupByJoinToWindow rewrites
// into a window function (Q01/Q30).
func (ctx *coreCtx) bindScalarSubquery(stmt *sql.SelectStmt) (expr.Expr, error) {
	// Probe: bind with correlation tracking to classify the subquery.
	var rec []*expr.Column
	probeScope := &scope{parent: ctx.scope, correlated: &rec}
	probe, probeErr := ctx.b.bindSelect(stmt, probeScope, ctx.ctes)

	if probeErr == nil && len(rec) == 0 {
		// Uncorrelated: the probe result is the real plan.
		if len(probe.cols) != 1 {
			return nil, fmt.Errorf("binder: scalar subquery must return one column, got %d", len(probe.cols))
		}
		esr := &logical.EnforceSingleRow{Input: probe.plan}
		ctx.plan = &logical.Join{Kind: logical.CrossJoin, Left: ctx.plan, Right: esr}
		return expr.Ref(probe.cols[0]), nil
	}

	// Correlated (or the probe failed because outer references were
	// consumed oddly): decorrelate.
	return ctx.decorrelateScalarAgg(stmt)
}

// decorrelateScalarAgg handles SELECT <agg-expr> FROM ... WHERE
// <correlated equalities AND local predicates> with no GROUP BY.
func (ctx *coreCtx) decorrelateScalarAgg(stmt *sql.SelectStmt) (expr.Expr, error) {
	core, ok := stmt.Body.(*sql.SelectCore)
	if !ok {
		return nil, fmt.Errorf("binder: unsupported correlated subquery shape (set operation)")
	}
	if len(core.GroupBy) > 0 || core.Having != nil || core.Distinct ||
		len(stmt.OrderBy) > 0 || stmt.Limit != nil || len(core.Items) != 1 {
		return nil, fmt.Errorf("binder: unsupported correlated subquery shape")
	}
	ctes := ctx.ctes
	if len(stmt.With) > 0 {
		merged := make(map[string]*sql.SelectStmt, len(ctes)+len(stmt.With))
		for k, v := range ctes {
			merged[k] = v
		}
		for _, cte := range stmt.With {
			merged[cte.Name] = cte.Query
		}
		ctes = merged
	}

	var rec []*expr.Column
	sub := &coreCtx{
		b:      ctx.b,
		ctes:   ctes,
		scope:  &scope{parent: ctx.scope, correlated: &rec},
		aggMap: map[sql.Expr]*expr.Column{},
	}

	// FROM.
	var plan logical.Operator
	for _, ref := range core.From {
		p, err := sub.bindTableRef(ref)
		if err != nil {
			return nil, err
		}
		if plan == nil {
			plan = p
		} else {
			plan = &logical.Join{Kind: logical.CrossJoin, Left: plan, Right: p}
		}
	}
	if plan == nil {
		return nil, fmt.Errorf("binder: correlated subquery requires a FROM clause")
	}
	sub.plan = plan

	// WHERE: separate correlation equalities from local predicates.
	localSet := logical.OutputSet(sub.plan)
	type corrPair struct{ outer, inner *expr.Column }
	var pairs []corrPair
	var local []expr.Expr
	if core.Where != nil {
		for _, conj := range splitAnd(core.Where) {
			before := len(rec)
			e, err := sub.bindExprNoSubquery(conj)
			if err != nil {
				return nil, err
			}
			if err := checkKind("WHERE", "boolean", e); err != nil {
				return nil, err
			}
			if len(rec) == before {
				local = append(local, e)
				continue
			}
			bin, isBin := e.(*expr.Binary)
			if !isBin || bin.Op != expr.OpEq {
				return nil, fmt.Errorf("binder: correlated predicate %s must be a column equality", e)
			}
			lr, ok1 := bin.L.(*expr.ColumnRef)
			rr, ok2 := bin.R.(*expr.ColumnRef)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("binder: correlated predicate %s must compare plain columns", e)
			}
			outerCol, innerCol := lr.Col, rr.Col
			if localSet[outerCol.ID] {
				outerCol, innerCol = innerCol, outerCol
			}
			if localSet[outerCol.ID] || !localSet[innerCol.ID] {
				return nil, fmt.Errorf("binder: correlated predicate %s must link one outer and one inner column", e)
			}
			pairs = append(pairs, corrPair{outer: outerCol, inner: innerCol})
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("binder: could not decorrelate subquery (no correlation equalities)")
	}
	if len(local) > 0 {
		sub.plan = logical.NewFilter(sub.plan, expr.And(local...))
	}

	// Aggregates: group by the correlation columns.
	aggCalls := collectAggregates(core)
	if len(aggCalls) == 0 {
		return nil, fmt.Errorf("binder: correlated subquery must compute an aggregate")
	}
	var keys []*expr.Column
	seen := map[expr.ColumnID]bool{}
	for _, p := range pairs {
		if !seen[p.inner.ID] {
			keys = append(keys, p.inner)
			seen[p.inner.ID] = true
		}
	}
	var aggs []logical.AggAssign
	for _, call := range aggCalls {
		agg, err := sub.bindAggCall(call)
		if err != nil {
			return nil, err
		}
		reused := false
		for _, existing := range aggs {
			if expr.AggEqual(existing.Agg, agg) {
				sub.aggMap[call] = existing.Col
				reused = true
				break
			}
		}
		if !reused {
			col := expr.NewColumn(call.Name, agg.ResultType())
			aggs = append(aggs, logical.AggAssign{Col: col, Agg: agg})
			sub.aggMap[call] = col
		}
	}
	gb := &logical.GroupBy{Input: sub.plan, Keys: keys, Aggs: aggs}
	sub.plan = gb

	// Bind the output expression (over aggregates) and project it together
	// with the grouping keys for the join.
	valExpr, err := sub.bindExprNoSubquery(core.Items[0].Expr)
	if err != nil {
		return nil, err
	}
	valAssign := logical.Assign("$scalar", valExpr)
	proj := &logical.Project{Input: gb, Cols: []logical.Assignment{valAssign}}
	for _, k := range keys {
		proj.Cols = append(proj.Cols, logical.Assignment{Col: k, E: expr.Ref(k)})
	}

	// Join back to the outer plan on the correlation columns.
	var conds []expr.Expr
	for _, p := range pairs {
		conds = append(conds, expr.Eq(expr.Ref(p.outer), expr.Ref(p.inner)))
	}
	ctx.plan = &logical.Join{
		Kind:  logical.InnerJoin,
		Left:  ctx.plan,
		Right: proj,
		Cond:  expr.And(conds...),
	}
	return expr.Ref(valAssign.Col), nil
}
