package optimizer

import (
	"repro/internal/expr"
	"repro/internal/logical"
)

// PushDownPredicates moves filter conjuncts as close to the scans as
// possible: through projections (by substitution), into the matching side
// of joins, below group-bys (key-only conjuncts), through unions (mapped
// per branch) and sorts. Besides its classical benefit — enabling partition
// pruning and early filtering — deterministic pushdown normalizes the
// duplicate subtrees produced by CTE inlining into identical shapes, which
// is what lets Fuse match them. It returns plan itself when no predicate
// moves.
func PushDownPredicates(plan logical.Operator) logical.Operator {
	return pushDown(plan, nil)
}

// pushDown rewrites op with the given extra conjuncts (defined over op's
// output schema) applied as early as possible. With no conjuncts it returns
// op itself when nothing below moves.
func pushDown(op logical.Operator, conds []expr.Expr) logical.Operator {
	switch o := op.(type) {
	case *logical.Filter:
		out := pushDown(o.Input, append(append([]expr.Expr{}, conds...), expr.Conjuncts(o.Cond)...))
		if f, ok := out.(*logical.Filter); ok && len(conds) == 0 && f.Input == o.Input && expr.Equal(f.Cond, o.Cond) {
			return o
		}
		return out

	case *logical.Project:
		// Substitute assignment expressions into the conjuncts and push.
		sub := func(e expr.Expr) expr.Expr {
			return expr.Transform(e, func(x expr.Expr) expr.Expr {
				if ref, ok := x.(*expr.ColumnRef); ok {
					for _, a := range o.Cols {
						if a.Col.ID == ref.Col.ID {
							return a.E
						}
					}
				}
				return x
			})
		}
		mapped := make([]expr.Expr, len(conds))
		for i, c := range conds {
			mapped[i] = sub(c)
		}
		in := pushDown(o.Input, mapped)
		if in == o.Input {
			return o
		}
		return &logical.Project{Input: in, Cols: o.Cols}

	case *logical.Join:
		return pushDownJoin(o, conds)

	case *logical.GroupBy:
		keySet := make(map[expr.ColumnID]bool, len(o.Keys))
		for _, k := range o.Keys {
			keySet[k.ID] = true
		}
		var below, above []expr.Expr
		for _, c := range conds {
			if expr.RefersOnly(c, keySet) {
				below = append(below, c)
			} else {
				above = append(above, c)
			}
		}
		out := logical.Operator(o)
		if in := pushDown(o.Input, below); in != o.Input {
			out = &logical.GroupBy{Input: in, Keys: o.Keys, Aggs: o.Aggs}
		}
		return wrap(out, above)

	case *logical.UnionAll:
		newInputs := make([]logical.Operator, len(o.Inputs))
		for i, in := range o.Inputs {
			m := expr.Mapping{}
			for j, outCol := range o.Cols {
				m.Add(outCol.ID, o.InputCols[i][j])
			}
			branchConds := make([]expr.Expr, len(conds))
			for k, c := range conds {
				branchConds[k] = m.Apply(c)
			}
			newInputs[i] = pushDown(in, branchConds)
		}
		if !changedChildren(o.Inputs, newInputs) {
			return o
		}
		return &logical.UnionAll{Inputs: newInputs, Cols: o.Cols, InputCols: o.InputCols}

	case *logical.Sort:
		in := pushDown(o.Input, conds)
		if in == o.Input {
			return o
		}
		return &logical.Sort{Input: in, Keys: o.Keys}

	case *logical.Window:
		// Safe only for conjuncts over columns that partition every window
		// function (partition-homogeneous predicates).
		var shared map[expr.ColumnID]bool
		for i, f := range o.Funcs {
			s := make(map[expr.ColumnID]bool, len(f.PartitionBy))
			for _, c := range f.PartitionBy {
				s[c.ID] = true
			}
			if i == 0 {
				shared = s
			} else {
				for id := range shared {
					if !s[id] {
						delete(shared, id)
					}
				}
			}
		}
		var below, above []expr.Expr
		for _, c := range conds {
			if len(shared) > 0 && expr.RefersOnly(c, shared) {
				below = append(below, c)
			} else {
				above = append(above, c)
			}
		}
		out := logical.Operator(o)
		if in := pushDown(o.Input, below); in != o.Input {
			out = &logical.Window{Input: in, Funcs: o.Funcs}
		}
		return wrap(out, above)

	case *logical.Limit, *logical.EnforceSingleRow, *logical.MarkDistinct:
		// Row-count- or order-sensitive: recurse with nothing, keep conds
		// above.
		ch := op.Children()
		newCh := make([]logical.Operator, len(ch))
		for i, c := range ch {
			newCh[i] = pushDown(c, nil)
		}
		out := op
		if changedChildren(ch, newCh) {
			out = op.WithChildren(newCh)
		}
		return wrap(out, conds)

	default: // Scan, Values
		return wrap(op, conds)
	}
}

func pushDownJoin(o *logical.Join, conds []expr.Expr) logical.Operator {
	leftSet := logical.OutputSet(o.Left)
	rightSet := logical.OutputSet(o.Right)
	var leftConds, rightConds, here []expr.Expr

	classify := func(c expr.Expr, allowRight, allowAbove bool) {
		switch {
		case expr.RefersOnly(c, leftSet):
			leftConds = append(leftConds, c)
		case allowRight && expr.RefersOnly(c, rightSet):
			rightConds = append(rightConds, c)
		default:
			_ = allowAbove
			here = append(here, c)
		}
	}

	switch o.Kind {
	case logical.InnerJoin, logical.CrossJoin:
		for _, c := range append(append([]expr.Expr{}, conds...), expr.Conjuncts(o.Cond)...) {
			classify(c, true, true)
		}
		left := pushDown(o.Left, leftConds)
		right := pushDown(o.Right, rightConds)
		if len(here) == 0 {
			return sameJoin(o, logical.CrossJoin, left, right, nil)
		}
		return sameJoin(o, logical.InnerJoin, left, right, expr.And(here...))

	case logical.SemiJoin:
		// External conjuncts are over the left schema; left-only parts of
		// the join condition may also sink into the left side, right-only
		// parts into the right side.
		var above []expr.Expr
		for _, c := range conds {
			if expr.RefersOnly(c, leftSet) {
				leftConds = append(leftConds, c)
			} else {
				above = append(above, c)
			}
		}
		var joinCond []expr.Expr
		for _, c := range expr.Conjuncts(o.Cond) {
			switch {
			case expr.RefersOnly(c, leftSet):
				leftConds = append(leftConds, c)
			case expr.RefersOnly(c, rightSet):
				rightConds = append(rightConds, c)
			default:
				joinCond = append(joinCond, c)
			}
		}
		left := pushDown(o.Left, leftConds)
		right := pushDown(o.Right, rightConds)
		return wrap(sameJoin(o, logical.SemiJoin, left, right, expr.And(joinCond...)), above)

	case logical.LeftJoin:
		// Only left-side conjuncts sink; the join condition stays intact
		// (pushing right-side parts of an outer join's ON clause is safe,
		// but pushing WHERE conjuncts into the right side is not).
		var above []expr.Expr
		for _, c := range conds {
			if expr.RefersOnly(c, leftSet) {
				leftConds = append(leftConds, c)
			} else {
				above = append(above, c)
			}
		}
		left := pushDown(o.Left, leftConds)
		right := pushDown(o.Right, nil)
		return wrap(sameJoin(o, logical.LeftJoin, left, right, o.Cond), above)
	}
	return wrap(o, conds)
}

// sameJoin builds the join, or returns o when it is that join already.
func sameJoin(o *logical.Join, kind logical.JoinKind, left, right logical.Operator, cond expr.Expr) logical.Operator {
	if kind == o.Kind && left == o.Left && right == o.Right && expr.Equal(cond, o.Cond) {
		return o
	}
	return &logical.Join{Kind: kind, Left: left, Right: right, Cond: cond}
}

func wrap(op logical.Operator, conds []expr.Expr) logical.Operator {
	if len(conds) == 0 {
		return op
	}
	return logical.NewFilter(op, expr.Simplify(expr.And(conds...)))
}

func changedChildren(a, b []logical.Operator) bool {
	for i := range a {
		if a[i] != b[i] {
			return true
		}
	}
	return false
}
