package expr

import (
	"math"

	"repro/internal/types"
)

// Simplify rewrites an expression into a cheaper equivalent form: constant
// folding, boolean identity elimination (x AND TRUE → x, x OR TRUE → TRUE,
// …), double-negation removal, duplicate-conjunct elimination, and
// NOT-pushdown over comparisons. It is applied after every fusion step so
// that compensating filters stay small (the paper relies on "orthogonal
// rules … applicable to fused results", e.g. expression simplification over
// masks).
//
// Each node's simplified form is computed once, by its constructor, from
// its children's; Simplify only reads it, and returns e itself when e is
// already simplified.
func Simplify(e Expr) Expr {
	if e == nil {
		return nil
	}
	if s := e.meta().simp; s != nil {
		return s
	}
	return e
}

// The simplify* functions below compute a new node's simplified form (nil
// when the node is its own) from its children's. A rule rewrites the node
// rebuilt over simplified children, and every rule either shrinks the tree
// or yields a left-deep chain that is its own simplified form, so the
// chain of simplified forms a constructor builds ends.

// orSelf returns nil when s is x itself.
func orSelf(x, s Expr) Expr {
	if s == x {
		return nil
	}
	return s
}

func simplifyBinary(x *Binary) Expr {
	l, r := Simplify(x.L), Simplify(x.R)
	nx := x
	if l != x.L || r != x.R {
		nx = NewBinary(x.Op, l, r)
	}
	// Fold constant subtrees. (x = x and friends are not folded: = on a
	// NULL yields NULL.)
	if !l.meta().hasCol && !r.meta().hasCol {
		return Lit(Eval(nx, nil))
	}
	return orSelf(x, nx)
}

func simplifyNot(x *Not) Expr {
	nx := x
	if inner := Simplify(x.E); inner != x.E {
		nx = NewNot(inner)
	}
	switch inner := nx.E.(type) {
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
	return orSelf(x, nx)
}

func simplifyIsNull(x *IsNull) Expr {
	nx := x
	if inner := Simplify(x.E); inner != x.E {
		nx = NewIsNull(inner, x.Neg)
	}
	if l, ok := nx.E.(*Literal); ok {
		return Lit(types.Bool(l.Val.Null != nx.Neg))
	}
	return orSelf(x, nx)
}

func simplifyCase(x *Case) Expr {
	nx := mapChildren(x, Simplify).(*Case)
	// Drop arms with constant-FALSE conditions; short-circuit on a leading
	// constant-TRUE condition.
	whens := make([]When, 0, len(nx.Whens))
	for _, w := range nx.Whens {
		if IsFalseLiteral(w.Cond) {
			continue
		}
		if IsTrueLiteral(w.Cond) && len(whens) == 0 {
			return w.Then
		}
		whens = append(whens, w)
	}
	if len(whens) == 0 {
		if nx.Else != nil {
			return nx.Else
		}
		return Lit(types.NullOf(nx.Type()))
	}
	if len(whens) == len(nx.Whens) {
		return orSelf(x, nx)
	}
	return NewCase(whens, nx.Else)
}

func simplifyGeneric(x Expr) Expr { return orSelf(x, mapChildren(x, Simplify)) }

// mapChildren rebuilds e over f of its children, or returns e when f
// changes none.
func mapChildren(e Expr, f func(Expr) Expr) Expr {
	ch := e.Children()
	var newCh []Expr
	for i, c := range ch {
		if n := f(c); n != c && newCh == nil {
			newCh = make([]Expr, len(ch))
			copy(newCh, ch[:i])
			newCh[i] = n
		} else if newCh != nil {
			newCh[i] = n
		}
	}
	if newCh == nil {
		return e
	}
	return e.WithChildren(newCh)
}

// initChain sets a new AND (OR) node's simplified form, simplifying the
// whole chain as one unit: it flattens the chain, takes the parts of each
// part's simplified form, and deduplicates and absorbs across the flat
// list. The chain is its own simplified form when that list is its parts,
// left-deep, unchanged.
func initChain(x *Binary) {
	if done := appendToSimplified(x); done {
		return
	}
	var buf [16]Expr
	parts := simplifiedParts(buf[:0], x.Op, x)
	out, short := reduceChain(x.Op, parts)
	switch {
	case short != nil:
		x.simp = short
	case isChainOf(x, out):
	case x.Op == OpAnd:
		x.simp = And(out...)
	default:
		x.simp = Or(out...)
	}
}

// appendToSimplified is initChain for the way chains are built — one part
// p appended to a chain L — asking a few questions of the parts of
// Simplify(L), a chain that is its own simplified form, instead of
// re-reducing the flat list: p is dropped (TRUE in an AND), short-circuits
// (FALSE), duplicates a part, is guarded away (c = c beside c IS NOT NULL)
// or absorbed, or is kept. That is what reduceChain computes, because L's
// parts already passed it; the one difference, a c = c part L dropped
// still absorbing a later part, is left to reduceChain, as are the rare
// appends that would remove one of L's parts. It reports false for those
// and for any other shape. Each question is one pass over L's parts, so
// building an n-part chain costs O(n²) part comparisons (reduceChain on
// every append would cost O(n³)).
func appendToSimplified(x *Binary) bool {
	l, isChain := x.L.(*Binary)
	if !isChain || l.Op != x.Op {
		return false
	}
	base, isChain := Simplify(l).(*Binary)
	if !isChain || base.Op != x.Op || base.simp != nil {
		return false
	}
	p := Simplify(x.R)
	inner := innerOp(x.Op)
	switch {
	case dropped(x.Op, p):
		x.simp = base
		return true
	case dropped(inner, p):
		x.simp = Lit(types.Bool(x.Op == OpOr))
		return true
	}
	if b, isBin := p.(*Binary); isBin && b.Op == x.Op {
		return false // p adds several parts
	}
	var sub []Expr
	var subBuf [8]Expr
	if b, isBin := p.(*Binary); isBin && b.Op == inner {
		sub = appendParts(subBuf[:0], inner, b)
		if base != l {
			for _, d := range sub {
				if _, selfEq := selfEquality(d); selfEq {
					return false
				}
			}
		}
	}
	if chainHas(base, func(q Expr) bool { return Equal(q, p) }) {
		x.simp = base // a duplicate
		return true
	}
	if chainHas(base, func(q Expr) bool {
		var buf [8]Expr
		b, isBin := q.(*Binary)
		return isBin && b.Op == inner && indexOf(appendParts(buf[:0], inner, b), p) >= 0
	}) {
		return false // p absorbs one of L's parts
	}
	removeP := false
	if x.Op == OpAnd {
		if id, ok := notNullGuard(p); ok && chainHas(base, func(q Expr) bool {
			qid, selfEq := selfEquality(q)
			return selfEq && qid == id
		}) {
			return false // p guards away one of L's parts
		}
		if id, ok := selfEquality(p); ok {
			removeP = chainHas(base, func(q Expr) bool {
				qid, guard := notNullGuard(q)
				return guard && qid == id
			})
		}
	}
	for _, d := range sub {
		if len(sub) > 1 && !removeP {
			removeP = chainHas(base, func(q Expr) bool { return Equal(q, d) })
		}
	}
	switch {
	case removeP:
		x.simp = base
	case base == l && p == x.R: // x is its own simplified form
	default:
		x.simp = NewBinary(x.Op, base, p)
	}
	return true
}

// chainHas reports whether a part of the op-chain c satisfies match.
func chainHas(c *Binary, match func(Expr) bool) bool {
	for e := Expr(c); e != nil; {
		q := e
		if b, ok := e.(*Binary); ok && b.Op == c.Op {
			q, e = b.R, b.L
		} else {
			e = nil
		}
		if match(q) {
			return true
		}
	}
	return false
}

// simplifiedParts appends the parts of Simplify(p) for every part p of the
// op-chain e.
func simplifiedParts(dst []Expr, op BinOp, e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == op {
		return simplifiedParts(simplifiedParts(dst, op, b.L), op, b.R)
	}
	if dropped(op, e) {
		return dst
	}
	return appendParts(dst, op, Simplify(e))
}

// appendParts appends the op-chain parts of e (Conjuncts or Disjuncts).
func appendParts(dst []Expr, op BinOp, e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == op {
		return appendParts(appendParts(dst, op, b.L), op, b.R)
	}
	if dropped(op, e) {
		return dst
	}
	return append(dst, e)
}

// isChainOf reports whether x is exactly the left-deep chain And(parts...)
// (Or) would build.
func isChainOf(x *Binary, parts []Expr) bool {
	var e Expr = x
	for i := len(parts) - 1; i > 0; i-- {
		b, ok := e.(*Binary)
		if !ok || b.Op != x.Op || b.R != parts[i] {
			return false
		}
		e = b.L
	}
	return len(parts) > 0 && e == parts[0]
}

// reduceChain simplifies the flat part list of an AND (OR) chain: it drops
// TRUE (FALSE) parts and duplicates, and returns the absorbing FALSE (TRUE)
// as short when a part is one. For AND it also drops x = x when an
// x IS NOT NULL conjunct guards the NULL case (the shape JoinOnKeys
// rewrites leave behind). Absorption then drops any part one of whose
// sub-parts is also a part — A AND (A OR B) → A, A OR (A AND B) → A —
// which keeps the masks incremental n-ary fusion builds linear instead of
// quadratic.
func reduceChain(op BinOp, parts []Expr) (out []Expr, short Expr) {
	inner := innerOp(op)
	// parts is filtered in place: uniq never outruns the loop index.
	uniq := parts[:0]
	for _, p := range parts {
		if dropped(op, p) {
			continue
		}
		if dropped(inner, p) { // FALSE in an AND, TRUE in an OR
			return nil, Lit(types.Bool(op == OpOr))
		}
		if indexOf(uniq, p) < 0 {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) <= 1 {
		return uniq, nil
	}
	var drop []bool
	mark := func(i int) {
		if drop == nil {
			drop = make([]bool, len(uniq))
		}
		drop[i] = true
	}
	kept := len(uniq)
	if op == OpAnd {
		var notNull []ColumnID
		for _, p := range uniq {
			if id, ok := notNullGuard(p); ok {
				notNull = append(notNull, id)
			}
		}
		if len(notNull) > 0 {
			for i, p := range uniq {
				if id, ok := selfEquality(p); ok && containsID(notNull, id) {
					mark(i)
					kept--
				}
			}
		}
	}
	if kept > 1 {
		var sub [8]Expr
		for i, p := range uniq {
			if drop != nil && drop[i] {
				continue
			}
			b, ok := p.(*Binary)
			if !ok || b.Op != inner {
				continue
			}
			subParts := appendParts(sub[:0], inner, b)
			if len(subParts) < 2 {
				continue
			}
			for _, d := range subParts {
				if !Equal(d, p) && indexOf(uniq, d) >= 0 {
					mark(i)
					break
				}
			}
		}
	}
	if drop == nil {
		return uniq, nil
	}
	out = make([]Expr, 0, len(uniq))
	for i, p := range uniq {
		if !drop[i] {
			out = append(out, p)
		}
	}
	return out, nil
}

// innerOp is the operator of the parts absorption looks into: OR inside an
// AND chain, AND inside an OR chain.
func innerOp(op BinOp) BinOp {
	if op == OpAnd {
		return OpOr
	}
	return OpAnd
}

// indexOf returns the position of the part Equal to e, or -1.
func indexOf(parts []Expr, e Expr) int {
	for i, p := range parts {
		if Equal(p, e) {
			return i
		}
	}
	return -1
}

// selfEquality reports whether e is c = c over one column c.
func selfEquality(e Expr) (ColumnID, bool) {
	if b, ok := e.(*Binary); ok && b.Op == OpEq {
		lr, ok1 := b.L.(*ColumnRef)
		rr, ok2 := b.R.(*ColumnRef)
		if ok1 && ok2 && lr.Col.ID == rr.Col.ID {
			return lr.Col.ID, true
		}
	}
	return 0, false
}

// notNullGuard reports whether e is c IS NOT NULL over one column c.
func notNullGuard(e Expr) (ColumnID, bool) {
	if isn, ok := e.(*IsNull); ok && isn.Neg {
		if ref, ok := isn.E.(*ColumnRef); ok {
			return ref.Col.ID, true
		}
	}
	return 0, false
}

func containsID(ids []ColumnID, id ColumnID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// interval is a numeric range with optional open bounds, used by the
// contradiction detector.
type interval struct {
	lo, hi         float64
	loOpen, hiOpen bool
	// eqStrings collects required string equalities (v = 'x').
	eqString    string
	hasEqString bool
	impossible  bool
}

func newInterval() *interval {
	return &interval{lo: math.Inf(-1), hi: math.Inf(1)}
}

func (iv *interval) addCompare(op BinOp, v types.Value) {
	if v.Kind == types.KindString {
		if op == OpEq {
			if iv.hasEqString && iv.eqString != v.S {
				iv.impossible = true
			}
			iv.eqString = v.S
			iv.hasEqString = true
		}
		return
	}
	if !v.Kind.IsNumeric() && v.Kind != types.KindDate {
		return
	}
	f := v.AsFloat()
	switch op {
	case OpEq:
		iv.tightenLo(f, false)
		iv.tightenHi(f, false)
	case OpLt:
		iv.tightenHi(f, true)
	case OpLe:
		iv.tightenHi(f, false)
	case OpGt:
		iv.tightenLo(f, true)
	case OpGe:
		iv.tightenLo(f, false)
	}
}

func (iv *interval) tightenLo(f float64, open bool) {
	if f > iv.lo || (f == iv.lo && open && !iv.loOpen) {
		iv.lo, iv.loOpen = f, open
	}
}

func (iv *interval) tightenHi(f float64, open bool) {
	if f < iv.hi || (f == iv.hi && open && !iv.hiOpen) {
		iv.hi, iv.hiOpen = f, open
	}
}

func (iv *interval) empty() bool {
	if iv.impossible {
		return true
	}
	if iv.lo > iv.hi {
		return true
	}
	if iv.lo == iv.hi && (iv.loOpen || iv.hiOpen) {
		return true
	}
	return false
}

// Contradictory reports whether the conjunction of a and b is unsatisfiable
// by simple single-column range analysis (e.g. x > 1000 AND x < 50, or
// s = 'a' AND s = 'b'). It is sound (a true result really is a
// contradiction) but incomplete. The UnionAll fusion rule uses it for the
// L AND R ≡ FALSE shortcut from §IV.D.
func Contradictory(a, b Expr) bool {
	conj := append(Conjuncts(Simplify(a)), Conjuncts(Simplify(b))...)
	ranges := make(map[ColumnID]*interval)
	for _, c := range conj {
		if IsFalseLiteral(c) {
			return true
		}
		bin, ok := c.(*Binary)
		if !ok || !bin.Op.IsComparison() {
			continue
		}
		col, val, op, ok := normalizeComparison(bin)
		if !ok {
			continue
		}
		iv := ranges[col]
		if iv == nil {
			iv = newInterval()
			ranges[col] = iv
		}
		iv.addCompare(op, val)
		if iv.empty() {
			return true
		}
	}
	return false
}

// normalizeComparison extracts (column, literal, op) from col-op-lit or
// lit-op-col comparisons, flipping the operator in the latter case.
func normalizeComparison(b *Binary) (ColumnID, types.Value, BinOp, bool) {
	if ref, ok := b.L.(*ColumnRef); ok {
		if lit, ok := b.R.(*Literal); ok && !lit.Val.Null {
			return ref.Col.ID, lit.Val, b.Op, true
		}
	}
	if ref, ok := b.R.(*ColumnRef); ok {
		if lit, ok := b.L.(*Literal); ok && !lit.Val.Null {
			return ref.Col.ID, lit.Val, flipOp(b.Op), true
		}
	}
	return 0, types.Value{}, 0, false
}

func flipOp(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}
