package expr

import (
	"hash/maphash"
	"math"

	"repro/internal/types"
)

// info is the identity every node carries. The node's constructor computes
// it from the children's identities — O(1) per node, O(chain length) for
// AND/OR — and nothing writes it afterwards, so a plan shared by
// goroutines holds no mutable expression state.
type info struct {
	// hash is a structural hash: Equal nodes have equal hashes.
	hash uint64
	// norm hashes the node's sorted form: AND/OR chains flattened into a
	// multiset of parts, and the operands of = <> + * unordered. Nodes
	// whose sorted forms are Equal have equal norm.
	norm uint64
	// simp is Simplify(node), or nil when the node is its own simplified
	// form.
	simp Expr
	// hasCol reports whether a column reference occurs in the subtree.
	hasCol bool
	built  bool
}

func (i *info) meta() *info {
	if !i.built {
		panic("expr: expression node not built by its constructor")
	}
	return i
}

// Hash tags, one per node kind (Binary and chain tags add the operator).
const (
	tagColumn uint64 = iota + 1
	tagLiteral
	tagNot
	tagIsNull // +1 for IS NOT NULL
	tagIsNotNull
	tagInList // +1 for NOT IN
	tagNotInList
	tagLike
	tagCase
	tagCoalesce
	tagAgg
	tagBinary      // + BinOp
	tagChain  = 64 // + BinOp
)

// mix folds v into h (a splitmix64-style finalizer over the sum).
func mix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return h
}

var stringSeed = maphash.MakeSeed()

func stringHash(s string) uint64 { return maphash.String(stringSeed, s) }

// valueHash hashes a literal consistently with types.Value.Equal: kind and
// NULL-ness count, and -0 hashes as 0.
func valueHash(v types.Value) uint64 {
	h := mix(tagLiteral, uint64(v.Kind))
	if v.Null {
		return mix(h, 1)
	}
	switch v.Kind {
	case types.KindString:
		return mix(h, stringHash(v.S))
	case types.KindFloat64:
		f := v.F
		if f == 0 {
			f = 0
		}
		return mix(h, math.Float64bits(f))
	default:
		return mix(h, uint64(v.I))
	}
}

func leafInfo(h uint64, hasCol bool) info {
	return info{hash: h, norm: h, hasCol: hasCol, built: true}
}

func unaryInfo(tag uint64, child Expr) info {
	m := child.meta()
	return info{hash: mix(tag, m.hash), norm: mix(tag, m.norm), hasCol: m.hasCol, built: true}
}

func naryInfo(tag uint64, children []Expr) info {
	in := info{hash: mix(tag, uint64(len(children))), built: true}
	in.norm = in.hash
	for _, c := range children {
		m := c.meta()
		in.hash = mix(in.hash, m.hash)
		in.norm = mix(in.norm, m.norm)
		in.hasCol = in.hasCol || m.hasCol
	}
	return in
}

// chainHash is the multiset hash of the parts an AND (OR) chain flattens
// into: the sum of the parts' mixed norm hashes, which ignores their order
// as sorting does.
func chainHash(op BinOp, e Expr) uint64 {
	if b, ok := e.(*Binary); ok && b.Op == op {
		return b.chain
	}
	return mix(e.meta().norm, tagChain)
}

// dropped reports whether Conjuncts (op AND) or Disjuncts (op OR) skips e:
// TRUE is AND's identity, FALSE is OR's.
func dropped(op BinOp, e Expr) bool {
	if op == OpAnd {
		return IsTrueLiteral(e)
	}
	return IsFalseLiteral(e)
}

// chainParts flattens an AND or OR node into its parts.
func chainParts(b *Binary) []Expr {
	if b.Op == OpAnd {
		return Conjuncts(b)
	}
	return Disjuncts(b)
}

// Key returns e's canonical key: the hash of its canonical form —
// Simplify(e) with AND/OR chains taken as part multisets and the operands
// of = <> + * unordered — fixed when e was built. Equivalent expressions
// have equal keys, so keys index maps whose hits Equivalent confirms.
func Key(e Expr) uint64 {
	if e == nil {
		return 0
	}
	return Simplify(e).meta().norm
}

// Equivalent reports whether two expressions are equal modulo commutativity
// of AND/OR/=/<>/+/* and simplification: whether their canonical forms are
// Equal. It is a sound but incomplete equivalence check, exactly what the
// fusion primitives need for the "C1 ≡ M(C2)" tests in §III. Unequal keys
// decide most calls with one comparison; equal keys are confirmed by a
// structural walk that matches chain parts as multisets.
func Equivalent(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return sortedEqual(Simplify(a), Simplify(b))
}

// EquivalentUnder reports whether a ≡ M(b).
func EquivalentUnder(m Mapping, a, b Expr) bool {
	return Equivalent(a, m.Apply(b))
}

// sortedEqual reports whether simplified x and y have Equal sorted forms:
// AND/OR chains equal as part multisets, the operands of = <> + * in
// either order. (A simplified tree's chains have two or more parts and no
// TRUE or FALSE part, so parts compare one to one.)
func sortedEqual(x, y Expr) bool {
	if x == y {
		return true
	}
	if x.meta().norm != y.meta().norm {
		return false
	}
	switch a := x.(type) {
	case *ColumnRef:
		b, ok := y.(*ColumnRef)
		return ok && a.Col.ID == b.Col.ID
	case *Literal:
		b, ok := y.(*Literal)
		return ok && a.Val.Equal(b.Val)
	case *Binary:
		b, ok := y.(*Binary)
		if !ok || a.Op != b.Op {
			return false
		}
		switch {
		case a.Op == OpAnd || a.Op == OpOr:
			return sameParts(chainParts(a), chainParts(b))
		case a.Op.commutative():
			return sortedEqual(a.L, b.L) && sortedEqual(a.R, b.R) ||
				sortedEqual(a.L, b.R) && sortedEqual(a.R, b.L)
		}
		return sortedEqual(a.L, b.L) && sortedEqual(a.R, b.R)
	case *Not:
		b, ok := y.(*Not)
		return ok && sortedEqual(a.E, b.E)
	case *IsNull:
		b, ok := y.(*IsNull)
		return ok && a.Neg == b.Neg && sortedEqual(a.E, b.E)
	case *Like:
		b, ok := y.(*Like)
		return ok && a.Pattern == b.Pattern && sortedEqual(a.E, b.E)
	case *InList:
		b, ok := y.(*InList)
		return ok && a.Neg == b.Neg && sameList(a.Children(), b.Children())
	case *Case:
		b, ok := y.(*Case)
		return ok && len(a.Whens) == len(b.Whens) && (a.Else == nil) == (b.Else == nil) &&
			sameList(a.Children(), b.Children())
	case *Coalesce:
		b, ok := y.(*Coalesce)
		return ok && sameList(a.Args, b.Args)
	}
	return false
}

func sameList(xs, ys []Expr) bool {
	if len(xs) != len(ys) {
		return false
	}
	for i := range xs {
		if !sortedEqual(xs[i], ys[i]) {
			return false
		}
	}
	return true
}

// sameParts reports whether two part lists are equal as multisets under
// sortedEqual, i.e. whether they sort to Equal lists.
func sameParts(xs, ys []Expr) bool {
	if len(xs) != len(ys) {
		return false
	}
	used := make([]bool, len(ys))
	for _, x := range xs {
		found := false
		for j, y := range ys {
			if !used[j] && sortedEqual(x, y) {
				used[j], found = true, true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
