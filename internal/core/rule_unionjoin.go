package core

import (
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/types"
)

// UnionAllOnJoin implements §IV.C: a UnionAll whose branches are joins (or
// semi joins) against fusable right-hand sides is rewritten by pushing the
// UnionAll below the join, tagging each branch, and reconstructing the join
// predicate with tag guards:
//
//	UnionAll(P1 ⋉_{C1} Z1, P2 ⋉_{C2} Z2)
//	→ SemiJoin_{(tag=1 AND C1' AND L) OR (tag=2 AND C2' AND R)}
//	    (UnionAll(Project_{tag:=1,...}(P1), Project_{tag:=2,...}(P2)), Z)
//
// where Fuse(Z1, Z2) = (Z, M, L, R) and Ci' rewrites branch columns to
// freshly added union outputs and Zi columns through M. The rule strips as
// many join levels as fuse in one application (the paper applies it
// "repeatedly, first fusing best_customer, then freq_items, and finally
// date_dim" on Q23) and handles n-ary unions natively.
type UnionAllOnJoin struct {
	// MinReuseRows gates the rewrite on the estimated size of the fused
	// right-hand sides (0 = always apply).
	MinReuseRows float64
}

// Name implements Rule.
func (UnionAllOnJoin) Name() string { return "UnionAllOnJoin" }

// uajBranch tracks one union branch during stripping: the remaining plan
// and, for each union output, the defining expression (over the remaining
// plan's columns plus already-fused right-side columns).
type uajBranch struct {
	op   logical.Operator
	outs []expr.Expr
}

// strippedLevel records one join level removed from every branch.
type strippedLevel struct {
	kind   logical.JoinKind
	fusedZ logical.Operator
	conds  []expr.Expr // per branch, right side already mapped to fusedZ
	comps  []expr.Expr // per branch, compensating filter over fusedZ
}

// Apply implements Rule.
func (r UnionAllOnJoin) Apply(op logical.Operator) (logical.Operator, bool) {
	u, ok := op.(*logical.UnionAll)
	if !ok || len(u.Inputs) < 2 {
		return op, false
	}
	branches := make([]*uajBranch, len(u.Inputs))
	for i, in := range u.Inputs {
		b := &uajBranch{op: in}
		for _, c := range u.InputCols[i] {
			b.outs = append(b.outs, expr.Ref(c))
		}
		branches[i] = b
	}

	var levels []strippedLevel
	for {
		peelProjects(branches)
		lvl, ok := stripLevel(branches)
		if !ok {
			break
		}
		levels = append(levels, lvl)
	}
	if len(levels) == 0 {
		return op, false
	}
	// Heuristic gate: at least one deduplicated right side must do real
	// work (read a table); otherwise the tag machinery is pure overhead.
	worthIt := false
	for _, lvl := range levels {
		if containsAnyScan(lvl.fusedZ) &&
			(r.MinReuseRows <= 0 || logical.EstimateRows(lvl.fusedZ) >= r.MinReuseRows) {
			worthIt = true
			break
		}
	}
	if !worthIt {
		return op, false
	}
	return rebuildUnionJoin(u, branches, levels), true
}

// peelProjects folds Project roots into each branch's output expressions
// (the §IV.E extension "carrying over projections across our
// transformations"), exposing the joins underneath.
func peelProjects(branches []*uajBranch) {
	for _, b := range branches {
		for {
			p, ok := b.op.(*logical.Project)
			if !ok {
				break
			}
			byID := make(map[expr.ColumnID]expr.Expr, len(p.Cols))
			for _, a := range p.Cols {
				byID[a.Col.ID] = a.E
			}
			for k, out := range b.outs {
				b.outs[k] = expr.Transform(out, func(x expr.Expr) expr.Expr {
					if ref, isRef := x.(*expr.ColumnRef); isRef {
						if e, found := byID[ref.Col.ID]; found {
							return e
						}
					}
					return x
				})
			}
			b.op = p.Input
		}
	}
}

// stripLevel removes one shared join level from every branch if all roots
// are joins of the same kind whose right sides fuse. On success the
// branches are mutated (op becomes the left input, outs remapped) and the
// stripped level is returned.
func stripLevel(branches []*uajBranch) (strippedLevel, bool) {
	joins := make([]*logical.Join, len(branches))
	for i, b := range branches {
		j, ok := b.op.(*logical.Join)
		if !ok {
			return strippedLevel{}, false
		}
		if i > 0 && j.Kind != joins[0].Kind {
			return strippedLevel{}, false
		}
		switch j.Kind {
		case logical.InnerJoin, logical.SemiJoin, logical.CrossJoin:
		default:
			return strippedLevel{}, false
		}
		joins[i] = j
	}
	rights := make([]logical.Operator, len(joins))
	for i, j := range joins {
		rights[i] = j.Right
	}
	fz, ok := FuseAll(rights)
	if !ok {
		return strippedLevel{}, false
	}
	lvl := strippedLevel{
		kind:   joins[0].Kind,
		fusedZ: fz.Plan,
		conds:  make([]expr.Expr, len(branches)),
		comps:  fz.Comps,
	}
	for i, b := range branches {
		lvl.conds[i] = fz.Ms[i].Apply(joins[i].Cond)
		// Inner/cross joins expose right-side columns; remap any union
		// outputs that referenced them onto the fused instance.
		for k, out := range b.outs {
			b.outs[k] = fz.Ms[i].Apply(out)
		}
		b.op = joins[i].Left
	}
	return lvl, true
}

// rebuildUnionJoin assembles the final plan: tagged union of the stripped
// branches, the fused joins re-applied with tag-guarded predicates, and a
// top projection restoring the original union schema.
func rebuildUnionJoin(u *logical.UnionAll, branches []*uajBranch, levels []strippedLevel) logical.Operator {
	n := len(branches)

	// Needed branch-local columns: those referenced by the branch's output
	// expressions or join conditions and produced by the stripped plan.
	needed := make([][]*expr.Column, n)
	for i, b := range branches {
		local := logical.OutputSet(b.op)
		want := make(map[expr.ColumnID]bool)
		for _, out := range b.outs {
			expr.CollectColumns(out, want)
		}
		for _, lvl := range levels {
			if lvl.conds[i] != nil {
				expr.CollectColumns(lvl.conds[i], want)
			}
		}
		for _, c := range b.op.Schema() {
			if want[c.ID] && local[c.ID] {
				needed[i] = append(needed[i], c)
			}
		}
	}

	// Build the tagged union: output 0 is the tag, then one output per
	// (branch, needed column); other branches supply NULL in that slot.
	tagOut := expr.NewColumn("$tag", types.KindInt64)
	unionCols := []*expr.Column{tagOut}
	subst := make([]expr.Mapping, n) // branch-local column -> union output
	for i := range branches {
		subst[i] = expr.Mapping{}
		for _, c := range needed[i] {
			out := expr.NewColumn(c.Name, c.Type)
			unionCols = append(unionCols, out)
			subst[i].Add(c.ID, out)
		}
	}
	inputs := make([]logical.Operator, n)
	inputCols := make([][]*expr.Column, n)
	for i, b := range branches {
		proj := &logical.Project{Input: b.op}
		proj.Cols = append(proj.Cols, logical.Assign("$tag", expr.Lit(types.Int(int64(i+1)))))
		for k := range branches {
			for _, c := range needed[k] {
				if k == i {
					proj.Cols = append(proj.Cols, logical.Assign(c.Name, expr.Ref(c)))
				} else {
					proj.Cols = append(proj.Cols, logical.Assign(c.Name, expr.Lit(types.NullOf(c.Type))))
				}
			}
		}
		inputs[i] = proj
		inputCols[i] = proj.Schema()
	}
	union := &logical.UnionAll{Inputs: inputs, Cols: unionCols, InputCols: inputCols}

	// Re-apply the stripped joins innermost-first. Whenever every branch's
	// condition decomposes into equalities against the same fused
	// right-side columns, the per-branch left sides are dispatched through
	// a CASE on the tag — keeping the join an equi-join the executor can
	// hash (the paper's UM(C1) construction); anything else falls back to a
	// tag-guarded disjunction.
	var current logical.Operator = union
	for li := len(levels) - 1; li >= 0; li-- {
		lvl := levels[li]
		cond := buildLevelCond(lvl, subst, tagOut)
		kind := lvl.kind
		if kind == logical.CrossJoin && !expr.IsTrueLiteral(cond) {
			kind = logical.InnerJoin
		}
		if kind == logical.InnerJoin && expr.IsTrueLiteral(cond) {
			kind = logical.CrossJoin
		}
		j := &logical.Join{Kind: kind, Left: current, Right: lvl.fusedZ}
		if !expr.IsTrueLiteral(cond) {
			j.Cond = cond
		}
		current = j
	}

	// Restore the original union output columns.
	top := buildUnionTopProject(u, branches, subst, tagOut, current)
	return top
}

func buildUnionTopProject(u *logical.UnionAll, branches []*uajBranch, subst []expr.Mapping, tagOut *expr.Column, current logical.Operator) *logical.Project {
	n := len(branches)
	top := &logical.Project{Input: current}
	for jIdx, outCol := range u.Cols {
		exprs := make([]expr.Expr, n)
		allEqual := true
		for i, b := range branches {
			exprs[i] = subst[i].Apply(b.outs[jIdx])
			if i > 0 && !expr.Equal(exprs[i], exprs[0]) {
				allEqual = false
			}
		}
		var e expr.Expr
		if allEqual {
			e = exprs[0]
		} else {
			whens := make([]expr.When, 0, n-1)
			for i := 0; i < n-1; i++ {
				whens = append(whens, expr.When{
					Cond: expr.Eq(expr.Ref(tagOut), expr.Lit(types.Int(int64(i+1)))),
					Then: exprs[i],
				})
			}
			e = expr.NewCase(whens, exprs[n-1])
		}
		top.Cols = append(top.Cols, logical.Assignment{Col: outCol, E: e})
	}
	return top
}

// buildLevelCond assembles one re-applied join level's condition.
func buildLevelCond(lvl strippedLevel, subst []expr.Mapping, tagOut *expr.Column) expr.Expr {
	n := len(lvl.conds)
	zSet := logical.OutputSet(lvl.fusedZ)

	// Pure cross join with exact fusion: no condition at all.
	allTrivial := true
	for i := 0; i < n; i++ {
		if lvl.conds[i] != nil || !trivial(lvl.comps[i]) {
			allTrivial = false
			break
		}
	}
	if allTrivial {
		return expr.TrueExpr()
	}

	// Try the CASE-dispatched equi-join form.
	type branchEqs struct {
		byZ  map[expr.ColumnID]expr.Expr
		rest []expr.Expr
	}
	all := make([]branchEqs, n)
	decomposable := true
	for i := 0; i < n && decomposable; i++ {
		all[i].byZ = map[expr.ColumnID]expr.Expr{}
		for _, c := range expr.Conjuncts(subst[i].Apply(lvl.conds[i])) {
			b, ok := c.(*expr.Binary)
			if ok && b.Op == expr.OpEq {
				lside, rside := b.L, b.R
				if refersOnlySet(lside, zSet) {
					lside, rside = rside, lside
				}
				if zr, isRef := rside.(*expr.ColumnRef); isRef && zSet[zr.Col.ID] && !refersAnySet(lside, zSet) {
					if _, dup := all[i].byZ[zr.Col.ID]; !dup {
						all[i].byZ[zr.Col.ID] = lside
						continue
					}
				}
			}
			all[i].rest = append(all[i].rest, c)
		}
		if i > 0 && len(all[i].byZ) != len(all[0].byZ) {
			decomposable = false
		}
	}
	if decomposable {
		for z := range all[0].byZ {
			for i := 1; i < n; i++ {
				if _, ok := all[i].byZ[z]; !ok {
					decomposable = false
				}
			}
		}
	}

	if decomposable && len(all[0].byZ) > 0 {
		var parts []expr.Expr
		for z, first := range all[0].byZ {
			exprs := make([]expr.Expr, n)
			exprs[0] = first
			same := true
			for i := 1; i < n; i++ {
				exprs[i] = all[i].byZ[z]
				if !expr.Equal(exprs[i], exprs[0]) {
					same = false
				}
			}
			var leftKey expr.Expr
			if same {
				leftKey = exprs[0]
			} else {
				whens := make([]expr.When, 0, n-1)
				for i := 0; i < n-1; i++ {
					whens = append(whens, expr.When{
						Cond: expr.Eq(expr.Ref(tagOut), expr.Lit(types.Int(int64(i+1)))),
						Then: exprs[i],
					})
				}
				leftKey = expr.NewCase(whens, exprs[n-1])
			}
			zCol := logical.OutputColumn(lvl.fusedZ, z)
			parts = append(parts, expr.Eq(leftKey, expr.Ref(zCol)))
		}
		// Residual conjuncts and compensations stay tag-guarded.
		var guards []expr.Expr
		needGuards := false
		for i := 0; i < n; i++ {
			g := expr.And(append([]expr.Expr{lvl.comps[i]}, all[i].rest...)...)
			if !expr.IsTrueLiteral(g) {
				needGuards = true
			}
			guards = append(guards, expr.And(
				expr.Eq(expr.Ref(tagOut), expr.Lit(types.Int(int64(i+1)))), g))
		}
		if needGuards {
			parts = append(parts, expr.Or(guards...))
		}
		return expr.Simplify(expr.And(parts...))
	}

	// Fallback: full tag-guarded disjunction.
	var branchConds []expr.Expr
	for i := 0; i < n; i++ {
		tagEq := expr.Eq(expr.Ref(tagOut), expr.Lit(types.Int(int64(i+1))))
		branchConds = append(branchConds,
			expr.And(tagEq, subst[i].Apply(lvl.conds[i]), lvl.comps[i]))
	}
	return expr.Simplify(expr.Or(branchConds...))
}

func refersOnlySet(e expr.Expr, set map[expr.ColumnID]bool) bool {
	return expr.RefersOnly(e, set)
}

func refersAnySet(e expr.Expr, set map[expr.ColumnID]bool) bool {
	any := false
	expr.Walk(e, func(x expr.Expr) bool {
		if ref, ok := x.(*expr.ColumnRef); ok && set[ref.Col.ID] {
			any = true
			return false
		}
		return true
	})
	return any
}
