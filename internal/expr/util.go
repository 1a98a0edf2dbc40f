package expr

// Mapping maps column identities of one plan's outputs to column instances
// of another plan — the M component of Fuse(P1, P2) = (P, M, L, R), which
// maps output columns of P2 to output columns of P. Applying a mapping to
// an expression (M(expr), in the paper's notation) is Mapping.Apply.
type Mapping map[ColumnID]*Column

// Identity returns an empty mapping (every column maps to itself).
func Identity() Mapping { return Mapping{} }

// Add records that column id now resolves to col.
func (m Mapping) Add(id ColumnID, col *Column) { m[id] = col }

// Resolve follows the mapping for one column; columns not present map to
// themselves (the caller keeps using the original column instance).
func (m Mapping) Resolve(c *Column) *Column {
	if t, ok := m[c.ID]; ok {
		return t
	}
	return c
}

// Apply substitutes mapped columns throughout an expression: M(expr).
// Unmapped columns are left untouched. A nil expression maps to nil.
func (m Mapping) Apply(e Expr) Expr {
	if e == nil || len(m) == 0 {
		return e
	}
	return Transform(e, func(x Expr) Expr {
		if ref, ok := x.(*ColumnRef); ok {
			if t, found := m[ref.Col.ID]; found {
				return Ref(t)
			}
		}
		return x
	})
}

// ApplyAgg substitutes mapped columns through an aggregate call's argument
// and mask.
func (m Mapping) ApplyAgg(a AggCall) AggCall {
	return AggCall{Fn: a.Fn, Arg: m.Apply(a.Arg), Mask: m.Apply(a.Mask), Distinct: a.Distinct}
}

// Merge combines two mappings with disjoint domains (used when fusing join
// sides: M = ML ∪ MR).
func (m Mapping) Merge(o Mapping) Mapping {
	out := make(Mapping, len(m)+len(o))
	for k, v := range m {
		out[k] = v
	}
	for k, v := range o {
		out[k] = v
	}
	return out
}

// Transform rewrites an expression bottom-up: children are transformed
// first, then f is applied to the (possibly rebuilt) node. f returning its
// argument unchanged keeps the original node.
func Transform(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	ch := e.Children()
	if len(ch) > 0 {
		newCh := make([]Expr, len(ch))
		changed := false
		for i, c := range ch {
			newCh[i] = Transform(c, f)
			if newCh[i] != c {
				changed = true
			}
		}
		if changed {
			e = e.WithChildren(newCh)
		}
	}
	return f(e)
}

// Walk visits every node of the expression tree in pre-order; returning
// false from f prunes the subtree.
func Walk(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	for _, c := range e.Children() {
		Walk(c, f)
	}
}

// Columns returns the set of column IDs referenced by the expression.
func Columns(e Expr) map[ColumnID]bool {
	out := make(map[ColumnID]bool)
	Walk(e, func(x Expr) bool {
		if ref, ok := x.(*ColumnRef); ok {
			out[ref.Col.ID] = true
		}
		return true
	})
	return out
}

// CollectColumns appends every referenced column ID into the given set.
func CollectColumns(e Expr, into map[ColumnID]bool) {
	Walk(e, func(x Expr) bool {
		if ref, ok := x.(*ColumnRef); ok {
			into[ref.Col.ID] = true
		}
		return true
	})
}

// RefersOnly reports whether every column referenced by e is in allowed.
func RefersOnly(e Expr, allowed map[ColumnID]bool) bool {
	ok := true
	Walk(e, func(x Expr) bool {
		if ref, isRef := x.(*ColumnRef); isRef && !allowed[ref.Col.ID] {
			ok = false
			return false
		}
		return ok
	})
	return ok
}

// Conjuncts flattens nested ANDs into a list. TRUE yields an empty list.
func Conjuncts(e Expr) []Expr {
	if e == nil || IsTrueLiteral(e) {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// Disjuncts flattens nested ORs into a list. FALSE yields an empty list.
func Disjuncts(e Expr) []Expr {
	if e == nil || IsFalseLiteral(e) {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == OpOr {
		return append(Disjuncts(b.L), Disjuncts(b.R)...)
	}
	return []Expr{e}
}

// And combines expressions with AND, dropping nils and TRUE literals.
// An empty combination yields TRUE.
func And(es ...Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil || IsTrueLiteral(e) {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = NewBinary(OpAnd, out, e)
		}
	}
	if out == nil {
		return TrueExpr()
	}
	return out
}

// Or combines expressions with OR, dropping nils and FALSE literals.
// An empty combination yields FALSE.
func Or(es ...Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil || IsFalseLiteral(e) {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = NewBinary(OpOr, out, e)
		}
	}
	if out == nil {
		return FalseExpr()
	}
	return out
}

// Equal reports structural equality of two expressions: same shape, same
// operators, same column identities, same literal values.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a == b {
		return true
	}
	if a.meta().hash != b.meta().hash {
		return false
	}
	switch x := a.(type) {
	case *ColumnRef:
		y, ok := b.(*ColumnRef)
		return ok && x.Col.ID == y.Col.ID
	case *Literal:
		y, ok := b.(*Literal)
		return ok && x.Val.Equal(y.Val)
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Not:
		y, ok := b.(*Not)
		return ok && Equal(x.E, y.E)
	case *IsNull:
		y, ok := b.(*IsNull)
		return ok && x.Neg == y.Neg && Equal(x.E, y.E)
	case *Like:
		y, ok := b.(*Like)
		return ok && x.Pattern == y.Pattern && Equal(x.E, y.E)
	case *InList:
		y, ok := b.(*InList)
		if !ok || x.Neg != y.Neg || len(x.List) != len(y.List) || !Equal(x.E, y.E) {
			return false
		}
		for i := range x.List {
			if !Equal(x.List[i], y.List[i]) {
				return false
			}
		}
		return true
	case *Case:
		y, ok := b.(*Case)
		if !ok || len(x.Whens) != len(y.Whens) || !Equal(x.Else, y.Else) {
			return false
		}
		for i := range x.Whens {
			if !Equal(x.Whens[i].Cond, y.Whens[i].Cond) || !Equal(x.Whens[i].Then, y.Whens[i].Then) {
				return false
			}
		}
		return true
	case *Coalesce:
		y, ok := b.(*Coalesce)
		if !ok || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Equal(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// AggEqual reports structural equality of two aggregate calls.
func AggEqual(a, b AggCall) bool {
	return a.Fn == b.Fn && a.Distinct == b.Distinct &&
		Equal(a.Arg, b.Arg) && maskEqual(a.Mask, b.Mask)
}

// AggKey returns a key for a's AggEqual class: AggEqual calls have equal
// keys, so keys index maps whose hits AggEqual confirms.
func AggKey(a AggCall) uint64 {
	h := mix(mix(tagAgg, uint64(a.Fn)), boolBits(a.Distinct))
	if a.Arg != nil {
		h = mix(h, a.Arg.meta().hash)
	}
	if a.Mask != nil && !IsTrueLiteral(a.Mask) {
		h = mix(h, Key(a.Mask))
	}
	return h
}

func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func maskEqual(a, b Expr) bool {
	ta := a == nil || IsTrueLiteral(a)
	tb := b == nil || IsTrueLiteral(b)
	if ta || tb {
		return ta && tb
	}
	return Equivalent(a, b)
}
