package core

import (
	"hash/maphash"

	"repro/internal/expr"
	"repro/internal/logical"
)

// JoinOnKeys implements §IV.B: a join of two fusable subqueries on columns
// that are keys of both sides extends each row with the other side's
// columns, so the pattern collapses to
//
//	Filter_{L AND R AND M(C2) AND cl1 IS NOT NULL AND ...}(P)
//
// plus a projection restoring both schemas. Athena lacks general key
// propagation, so — like the paper — the rule is specialized to shapes
// whose keys are known by construction: GroupBy outputs (grouping columns
// are a key) and EnforceSingleRow outputs (at most one row, the empty key).
// The scalar special case GroupBy_∅(Q1) ⨯ GroupBy_∅(Q2) →
// Filter_{L AND R}(GroupBy_∅,A1∪M(A2)(Q)) is what collapses Q09/Q28/Q88's
// fifteen scans into one. The rule operates over the flattened n-ary join
// and linearizes pairwise (§IV.E).
type JoinOnKeys struct {
	// MinReuseRows gates fusion on the estimated size of the duplicated
	// input (0 = always apply); see GroupByJoinToWindow.MinReuseRows.
	MinReuseRows float64
}

// Name implements Rule.
func (JoinOnKeys) Name() string { return "JoinOnKeys" }

// Apply implements Rule.
func (r JoinOnKeys) Apply(op logical.Operator) (logical.Operator, bool) {
	if !isJoinRegionRoot(op) {
		return op, false
	}
	g := FlattenJoin(op)
	if !g.IsNontrivial() {
		return op, false
	}
	changed := false
	for {
		if !applyJoinOnKeysOnce(g, r.MinReuseRows) {
			break
		}
		changed = true
	}
	if !changed {
		return op, false
	}
	return g.Build(), true
}

func applyJoinOnKeysOnce(g *JoinGraph, minReuseRows float64) bool {
	classes := equalityClasses(g.Conjuncts)
	sigs := make([]uint64, len(g.Inputs))
	for i, in := range g.Inputs {
		sigs[i] = scanSignature(in)
	}
	for i := range g.Inputs {
		ki, ok := plannedKeys(g.Inputs[i])
		if !ok || !containsAnyScan(g.Inputs[i]) {
			continue
		}
		if minReuseRows > 0 && logical.EstimateRows(g.Inputs[i]) < minReuseRows {
			continue
		}
		for j := range g.Inputs {
			if i == j || sigs[i] != sigs[j] {
				continue
			}
			kj, ok := plannedKeys(g.Inputs[j])
			if !ok {
				continue
			}
			if tryJoinOnKeysPair(g, i, j, ki, kj, classes) {
				return true
			}
		}
	}
	return false
}

// equalityClasses computes the union-find equivalence classes induced by
// column-equality conjuncts across the whole join graph, so that keys
// equated transitively (probe.x = k1 AND probe.x = k2) are recognized as
// matching — the "extra predicates" latitude of §IV.B's condition
// decomposition.
func equalityClasses(conjuncts []expr.Expr) map[expr.ColumnID]expr.ColumnID {
	parent := make(map[expr.ColumnID]expr.ColumnID)
	var find func(expr.ColumnID) expr.ColumnID
	find = func(x expr.ColumnID) expr.ColumnID {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p != x {
			p = find(p)
			parent[x] = p
		}
		return p
	}
	for _, c := range conjuncts {
		b, ok := c.(*expr.Binary)
		if !ok || b.Op != expr.OpEq {
			continue
		}
		lr, ok1 := b.L.(*expr.ColumnRef)
		rr, ok2 := b.R.(*expr.ColumnRef)
		if !ok1 || !ok2 {
			continue
		}
		parent[find(lr.Col.ID)] = find(rr.Col.ID)
	}
	// Flatten.
	out := make(map[expr.ColumnID]expr.ColumnID, len(parent))
	for id := range parent {
		out[id] = find(id)
	}
	return out
}

func sameClass(classes map[expr.ColumnID]expr.ColumnID, a, b expr.ColumnID) bool {
	ca, ok1 := classes[a]
	cb, ok2 := classes[b]
	return ok1 && ok2 && ca == cb
}

// plannedKeys returns a key of the operator's output derivable by
// construction: grouping columns for a GroupBy, the empty key for
// EnforceSingleRow (≤ 1 row). Filters preserve keys, and projections
// preserve keys that pass through as identity assignments — which lets the
// rule re-match the Project(Filter(...)) shells produced by its own earlier
// applications when linearizing an n-ary join two inputs at a time.
func plannedKeys(op logical.Operator) ([]*expr.Column, bool) {
	switch o := op.(type) {
	case *logical.GroupBy:
		return o.Keys, true
	case *logical.EnforceSingleRow:
		return nil, true
	case *logical.Filter:
		return plannedKeys(o.Input)
	case *logical.Project:
		keys, ok := plannedKeys(o.Input)
		if !ok {
			return nil, false
		}
		for _, k := range keys {
			passed := false
			for _, a := range o.Cols {
				if ref, isRef := a.E.(*expr.ColumnRef); isRef && ref.Col == k && a.Col == k {
					passed = true
					break
				}
			}
			if !passed {
				return nil, false
			}
		}
		return keys, true
	}
	return nil, false
}

func tryJoinOnKeysPair(g *JoinGraph, i, j int, ki, kj []*expr.Column, classes map[expr.ColumnID]expr.ColumnID) bool {
	inI, inJ := g.Inputs[i], g.Inputs[j]
	// Scalar case: both sides are single-row; the "join on keys" is a pure
	// cross product and no equalities are required. Keyed case: both key
	// sets must be covered by (possibly transitive) join equalities.
	if (len(ki) == 0) != (len(kj) == 0) {
		return false
	}
	res, ok := Fuse(inI, inJ)
	if !ok {
		return false
	}
	// Every key column of the j side must align with its mapping image on
	// the i side (cli = M(cri)) and be equated with it by the join graph.
	if len(kj) != len(ki) {
		return false
	}
	keyI := columnSet(ki)
	covered := make(map[expr.ColumnID]bool, len(ki))
	for _, k := range kj {
		img := res.M.Resolve(k)
		if !keyI[img.ID] || !sameClass(classes, k.ID, img.ID) {
			return false
		}
		covered[img.ID] = true
	}
	if len(covered) != len(ki) {
		return false
	}

	conds := []expr.Expr{res.L, res.R}
	for _, k := range ki {
		conds = append(conds, expr.NotNull(expr.Ref(k)))
	}
	filtered := logical.NewFilter(res.Plan, expr.Simplify(expr.And(conds...)))

	// Restore both schemas: input i's columns pass through the fused plan,
	// input j's are re-exposed via the mapping.
	proj := &logical.Project{Input: filtered}
	for _, c := range inI.Schema() {
		proj.Cols = append(proj.Cols, logical.Assignment{Col: c, E: expr.Ref(c)})
	}
	fusedOut := logical.OutputSet(res.Plan)
	for _, c := range inJ.Schema() {
		mapped := res.M.Resolve(c)
		if mapped == c && !fusedOut[c.ID] {
			return false // defensive: P2 column unavailable in fused plan
		}
		if mapped == c {
			proj.Cols = append(proj.Cols, logical.Assignment{Col: c, E: expr.Ref(c)})
		} else {
			proj.Cols = append(proj.Cols, logical.Assignment{Col: c, E: expr.Ref(mapped)})
		}
	}

	// Replace the two inputs with the fused projection. The original
	// conjuncts are kept: equalities between the two sides become trivially
	// true on the fused rows (the projection exposes j's columns as i's
	// values) and the NOT NULL guards above reproduce their NULL-rejection.
	newInputs := make([]logical.Operator, 0, len(g.Inputs)-1)
	for idx, in := range g.Inputs {
		if idx == i {
			newInputs = append(newInputs, proj)
		} else if idx != j {
			newInputs = append(newInputs, in)
		}
	}
	g.Inputs = newInputs
	return true
}

func columnSet(cols []*expr.Column) map[expr.ColumnID]bool {
	s := make(map[expr.ColumnID]bool, len(cols))
	for _, c := range cols {
		s[c.ID] = true
	}
	return s
}

var tableSeed = maphash.MakeSeed()

// scanSignature summarizes the multiset of tables a plan scans. Fuse pairs
// each scan of one plan with a scan of the same table in the other, and
// neither drops nor adds a scan (the §III.G compensations only wrap or
// unwrap Filter, Project and MarkDistinct roots; operators without a fuse
// case fail), so plans whose signatures differ never fuse. The signature
// is an order-free sum of per-table hashes: equal multisets always have
// equal signatures, which is all a pre-filter needs.
func scanSignature(op logical.Operator) uint64 {
	var sig uint64
	logical.Walk(op, func(o logical.Operator) bool {
		if s, ok := o.(*logical.Scan); ok {
			sig += maphash.String(tableSeed, s.Table.Name)
		}
		return true
	})
	return sig
}
