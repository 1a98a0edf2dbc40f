package expr

import (
	"sort"

	"repro/internal/types"
)

// This file keeps the equivalence test the planner used before expression
// nodes carried their canonical identity: simplify, sort commutative
// operands by their rendered text, and compare structurally. It is the
// oracle TestEquivalentMatchesOracle and FuzzEquivalent check Equivalent,
// Key and Simplify against.

// oracleEquivalent is Equal(normalize(Simplify(a)), normalize(Simplify(b))).
func oracleEquivalent(a, b Expr) bool {
	if Equal(a, b) {
		return true
	}
	return Equal(oracleNormalize(oracleSimplify(a)), oracleNormalize(oracleSimplify(b)))
}

// oracleSimplify is Simplify recomputed from scratch on every call, with
// duplicate parts detected by rendered text.
func oracleSimplify(e Expr) Expr {
	if e == nil {
		return nil
	}
	return oracleSimplifyRec(e)
}

// simplifyRec walks the tree but treats whole AND/OR chains as single
// units: each chain is flattened, its parts simplified, and the chain
// recombined exactly once. (A naive bottom-up rewrite would re-flatten and
// re-deduplicate at every node of the chain — quadratic in the width of
// the fused conditions the optimizer builds.)
func oracleSimplifyRec(e Expr) Expr {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case OpAnd:
			parts := Conjuncts(x)
			out := make([]Expr, 0, len(parts))
			for _, p := range parts {
				// A part may itself simplify into a conjunction.
				out = append(out, Conjuncts(oracleSimplifyRec(p))...)
			}
			return oracleSimplifyAnd(out)
		case OpOr:
			parts := Disjuncts(x)
			out := make([]Expr, 0, len(parts))
			for _, p := range parts {
				out = append(out, Disjuncts(oracleSimplifyRec(p))...)
			}
			return oracleSimplifyOr(out)
		}
		l, r := oracleSimplifyRec(x.L), oracleSimplifyRec(x.R)
		nx := x
		if l != x.L || r != x.R {
			nx = NewBinary(x.Op, l, r)
		}
		return oracleSimplifyBinary(nx)
	case *Not:
		inner := oracleSimplifyRec(x.E)
		nx := x
		if inner != x.E {
			nx = NewNot(inner)
		}
		return oracleSimplifyNot(nx)
	case *IsNull:
		inner := oracleSimplifyRec(x.E)
		nx := x
		if inner != x.E {
			nx = NewIsNull(inner, x.Neg)
		}
		if l, ok := nx.E.(*Literal); ok {
			if nx.Neg {
				return Lit(types.Bool(!l.Val.Null))
			}
			return Lit(types.Bool(l.Val.Null))
		}
		return nx
	case *Case:
		return oracleSimplifyCase(oracleSimplifyChildren(x).(*Case))
	default:
		return oracleSimplifyChildren(e)
	}
}

// simplifyChildren recursively simplifies a node's children generically.
func oracleSimplifyChildren(e Expr) Expr {
	ch := e.Children()
	if len(ch) == 0 {
		return e
	}
	newCh := make([]Expr, len(ch))
	changed := false
	for i, c := range ch {
		newCh[i] = oracleSimplifyRec(c)
		if newCh[i] != c {
			changed = true
		}
	}
	if changed {
		return e.WithChildren(newCh)
	}
	return e
}

func oracleSimplifyBinary(x *Binary) Expr {
	// Fold constant subtrees.
	if IsConstant(x.L) && IsConstant(x.R) {
		return Lit(Eval(x, nil))
	}
	// x = x, x <= x etc. over identical column refs (safe only for
	// comparisons that are reflexive; = on a NULL yields NULL, so we only
	// fold when we cannot produce a wrong NULL → skip. Keep it simple and
	// sound: no folding here.)
	return x
}

func oracleSimplifyAnd(parts []Expr) Expr {
	out := make([]Expr, 0, len(parts))
	seen := make(map[string]bool, len(parts))
	for _, p := range parts {
		if IsTrueLiteral(p) {
			continue
		}
		if IsFalseLiteral(p) {
			return FalseExpr()
		}
		key := p.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, p)
	}
	// x = x is TRUE for non-NULL x; drop it when an x IS NOT NULL conjunct
	// guards the NULL case (the shape JoinOnKeys rewrites leave behind).
	if len(out) > 1 {
		notNull := map[ColumnID]bool{}
		for _, p := range out {
			if isn, ok := p.(*IsNull); ok && isn.Neg {
				if ref, ok := isn.E.(*ColumnRef); ok {
					notNull[ref.Col.ID] = true
				}
			}
		}
		if len(notNull) > 0 {
			kept := out[:0]
			for _, p := range out {
				if b, ok := p.(*Binary); ok && b.Op == OpEq {
					lr, ok1 := b.L.(*ColumnRef)
					rr, ok2 := b.R.(*ColumnRef)
					if ok1 && ok2 && lr.Col.ID == rr.Col.ID && notNull[lr.Col.ID] {
						continue
					}
				}
				kept = append(kept, p)
			}
			out = kept
		}
	}
	// Absorption: A AND (A OR B) → A. Drop any disjunctive conjunct one of
	// whose disjuncts already appears as a conjunct. This keeps the masks
	// produced by incremental n-ary fusion linear instead of quadratic.
	if len(out) > 1 {
		kept := out[:0]
		for _, p := range out {
			disjuncts := Disjuncts(p)
			absorbed := false
			if len(disjuncts) > 1 {
				for _, d := range disjuncts {
					if seen[d.String()] && d.String() != p.String() {
						absorbed = true
						break
					}
				}
			}
			if !absorbed {
				kept = append(kept, p)
			}
		}
		out = kept
	}
	return And(out...)
}

func oracleSimplifyOr(parts []Expr) Expr {
	out := make([]Expr, 0, len(parts))
	seen := make(map[string]bool, len(parts))
	for _, p := range parts {
		if IsFalseLiteral(p) {
			continue
		}
		if IsTrueLiteral(p) {
			return TrueExpr()
		}
		key := p.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, p)
	}
	// Absorption: A OR (A AND B) → A.
	if len(out) > 1 {
		kept := out[:0]
		for _, p := range out {
			conjuncts := Conjuncts(p)
			absorbed := false
			if len(conjuncts) > 1 {
				for _, c := range conjuncts {
					if seen[c.String()] && c.String() != p.String() {
						absorbed = true
						break
					}
				}
			}
			if !absorbed {
				kept = append(kept, p)
			}
		}
		out = kept
	}
	return Or(out...)
}

func oracleSimplifyNot(x *Not) Expr {
	switch inner := x.E.(type) {
	case *Literal:
		if inner.Val.Null {
			return Lit(types.NullOf(types.KindBool))
		}
		return Lit(types.Bool(!inner.Val.AsBool()))
	case *Not:
		return inner.E
	case *Binary:
		if inner.Op.IsComparison() {
			var neg BinOp
			switch inner.Op {
			case OpEq:
				neg = OpNe
			case OpNe:
				neg = OpEq
			case OpLt:
				neg = OpGe
			case OpLe:
				neg = OpGt
			case OpGt:
				neg = OpLe
			default:
				neg = OpLt
			}
			return NewBinary(neg, inner.L, inner.R)
		}
	}
	return x
}

func oracleSimplifyCase(x *Case) Expr {
	// Drop arms with constant-FALSE conditions; short-circuit on a leading
	// constant-TRUE condition.
	whens := make([]When, 0, len(x.Whens))
	for _, w := range x.Whens {
		if IsFalseLiteral(w.Cond) {
			continue
		}
		if IsTrueLiteral(w.Cond) && len(whens) == 0 {
			return w.Then
		}
		whens = append(whens, w)
	}
	if len(whens) == 0 {
		if x.Else != nil {
			return x.Else
		}
		return Lit(types.NullOf(x.Type()))
	}
	if len(whens) == len(x.Whens) {
		return x
	}
	return NewCase(whens, x.Else)
}

// normalize reorders the operand lists of commutative operators (AND, OR,
// and the operands of = and <>) into a canonical order so that Equivalent
// can compare by structure.
func oracleNormalize(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case OpAnd:
			parts := Conjuncts(e)
			for i, p := range parts {
				parts[i] = oracleNormalize(p)
			}
			oracleSortByString(parts)
			return And(parts...)
		case OpOr:
			parts := Disjuncts(e)
			for i, p := range parts {
				parts[i] = oracleNormalize(p)
			}
			oracleSortByString(parts)
			return Or(parts...)
		case OpEq, OpNe:
			l, r := oracleNormalize(x.L), oracleNormalize(x.R)
			if l.String() > r.String() {
				l, r = r, l
			}
			return NewBinary(x.Op, l, r)
		case OpAdd, OpMul:
			l, r := oracleNormalize(x.L), oracleNormalize(x.R)
			if l.String() > r.String() {
				l, r = r, l
			}
			return NewBinary(x.Op, l, r)
		}
	}
	ch := e.Children()
	if len(ch) == 0 {
		return e
	}
	newCh := make([]Expr, len(ch))
	for i, c := range ch {
		newCh[i] = oracleNormalize(c)
	}
	return e.WithChildren(newCh)
}

func oracleSortByString(es []Expr) {
	// Rendering is recursive and comparisons are O(n log n); cache the keys
	// so each expression renders exactly once.
	keys := make([]string, len(es))
	for i, e := range es {
		keys[i] = e.String()
	}
	idx := make([]int, len(es))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	sorted := make([]Expr, len(es))
	for i, j := range idx {
		sorted[i] = es[j]
	}
	copy(es, sorted)
}
