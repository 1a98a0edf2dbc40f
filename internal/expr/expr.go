// Package expr implements the scalar expression algebra of the engine:
// column references with process-unique identities, literals, arithmetic,
// comparisons, three-valued boolean logic, CASE, IN, IS NULL, and masked
// aggregate calls (the paper's §III.E aggregate/mask pairs).
//
// The package also provides the machinery query fusion is built from:
// column Mappings (the M component of Fuse results), substitution M(expr),
// structural equality and equivalence-under-mapping, conjunct manipulation,
// simplification with constant folding, and a contradiction detector used
// by the UnionAll rule's L AND R ≡ FALSE shortcut.
package expr

import (
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/types"
)

// ColumnID uniquely identifies a column instance across the whole process.
// Each scan of a table allocates fresh IDs for its output columns, matching
// the paper's note that "the engine follows the common practice of
// assigning new column identities to each instance of the same table".
type ColumnID int32

var nextColumnID atomic.Int32

// Column is a named, typed column instance. Columns are shared by pointer
// between an operator's output schema and the ColumnRefs above it.
type Column struct {
	ID   ColumnID
	Name string
	Type types.Kind
}

// NewColumn allocates a column with a fresh unique ID.
func NewColumn(name string, t types.Kind) *Column {
	return &Column{ID: ColumnID(nextColumnID.Add(1)), Name: name, Type: t}
}

// String renders the column as name#id for unambiguous plan output.
func (c *Column) String() string { return c.Name + "#" + strconv.Itoa(int(c.ID)) }

// Expr is a scalar expression tree node. Nodes are immutable: every field,
// including the identity a constructor computes (see info), is fixed when
// the node is built, so plans can be shared across goroutines. Build nodes
// only through this package's constructors (Ref, Lit, NewBinary, NewNot,
// NewIsNull, NewCase, NewInList, NewLike, NewCoalesce) or WithChildren.
type Expr interface {
	// Type returns the result kind of the expression.
	Type() types.Kind
	// Children returns the direct sub-expressions.
	Children() []Expr
	// WithChildren returns a copy of the node with the given children; the
	// slice length must match Children().
	WithChildren(ch []Expr) Expr
	// String renders the expression for plan output.
	String() string

	meta() *info
}

// ColumnRef references a column instance.
type ColumnRef struct {
	Col *Column
	info
}

// Ref is shorthand for constructing a ColumnRef.
func Ref(c *Column) *ColumnRef {
	e := &ColumnRef{Col: c}
	e.info = leafInfo(mix(tagColumn, uint64(uint32(c.ID))), true)
	return e
}

func (e *ColumnRef) Type() types.Kind         { return e.Col.Type }
func (e *ColumnRef) Children() []Expr         { return nil }
func (e *ColumnRef) WithChildren([]Expr) Expr { return e }
func (e *ColumnRef) String() string           { return e.Col.String() }

// Literal is a constant value.
type Literal struct {
	Val types.Value
	info
}

// Lit constructs a literal.
func Lit(v types.Value) *Literal {
	e := &Literal{Val: v}
	e.info = leafInfo(valueHash(v), false)
	return e
}

// TrueExpr and FalseExpr are the canonical boolean literals.
func TrueExpr() Expr  { return Lit(types.Bool(true)) }
func FalseExpr() Expr { return Lit(types.Bool(false)) }

func (e *Literal) Type() types.Kind         { return e.Val.Kind }
func (e *Literal) Children() []Expr         { return nil }
func (e *Literal) WithChildren([]Expr) Expr { return e }
func (e *Literal) String() string           { return e.Val.String() }

// IsTrueLiteral reports whether e is the literal TRUE.
func IsTrueLiteral(e Expr) bool {
	l, ok := e.(*Literal)
	return ok && l.Val.IsTrue()
}

// IsFalseLiteral reports whether e is the literal FALSE (non-NULL).
func IsFalseLiteral(e Expr) bool {
	l, ok := e.(*Literal)
	return ok && !l.Val.Null && l.Val.Kind == types.KindBool && l.Val.I == 0
}

// BinOp enumerates binary operators.
type BinOp uint8

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = [...]string{"+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"}

// String returns the SQL spelling of the operator.
func (op BinOp) String() string { return binOpNames[op] }

// IsComparison reports whether the operator is a comparison.
func (op BinOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// IsArithmetic reports whether the operator is arithmetic.
func (op BinOp) IsArithmetic() bool { return op <= OpDiv }

// commutative reports whether the operands may be swapped; the canonical
// form orders them.
func (op BinOp) commutative() bool {
	return op == OpEq || op == OpNe || op == OpAdd || op == OpMul
}

// Binary is a binary operation node. AND and OR nodes also carry chain,
// the multiset hash of the conjuncts (disjuncts) their canonical form
// sorts.
type Binary struct {
	Op   BinOp
	L, R Expr
	info
	chain uint64
}

// NewBinary constructs a binary node.
func NewBinary(op BinOp, l, r Expr) *Binary {
	e := &Binary{Op: op, L: l, R: r}
	lm, rm := l.meta(), r.meta()
	e.hash = mix(mix(tagBinary+uint64(op), lm.hash), rm.hash)
	e.hasCol, e.built = lm.hasCol || rm.hasCol, true
	switch {
	case op == OpAnd || op == OpOr:
		e.chain = chainHash(op, l) + chainHash(op, r)
		e.norm = mix(tagChain+uint64(op), e.chain)
		initChain(e)
	default:
		ln, rn := lm.norm, rm.norm
		if op.commutative() && ln > rn {
			ln, rn = rn, ln
		}
		e.norm = mix(mix(tagBinary+uint64(op), ln), rn)
		e.simp = simplifyBinary(e)
	}
	return e
}

// Eq builds l = r.
func Eq(l, r Expr) Expr { return NewBinary(OpEq, l, r) }

func (e *Binary) Type() types.Kind {
	if e.Op.IsArithmetic() {
		if e.Op == OpDiv {
			return types.KindFloat64
		}
		return types.NumericResult(e.L.Type(), e.R.Type())
	}
	return types.KindBool
}
func (e *Binary) Children() []Expr            { return []Expr{e.L, e.R} }
func (e *Binary) WithChildren(ch []Expr) Expr { return NewBinary(e.Op, ch[0], ch[1]) }
func (e *Binary) String() string              { return render(e) }

// Not is logical negation.
type Not struct {
	E Expr
	info
}

// NewNot builds NOT e.
func NewNot(e Expr) *Not {
	n := &Not{E: e}
	n.info = unaryInfo(tagNot, e)
	n.simp = simplifyNot(n)
	return n
}

func (e *Not) Type() types.Kind            { return types.KindBool }
func (e *Not) Children() []Expr            { return []Expr{e.E} }
func (e *Not) WithChildren(ch []Expr) Expr { return NewNot(ch[0]) }
func (e *Not) String() string              { return render(e) }

// IsNull tests for NULL (or NOT NULL when Neg is set).
type IsNull struct {
	E   Expr
	Neg bool
	info
}

// NewIsNull builds e IS NULL, or e IS NOT NULL when neg is set.
func NewIsNull(e Expr, neg bool) *IsNull {
	n := &IsNull{E: e, Neg: neg}
	tag := uint64(tagIsNull)
	if neg {
		tag++
	}
	n.info = unaryInfo(tag, e)
	n.simp = simplifyIsNull(n)
	return n
}

func (e *IsNull) Type() types.Kind            { return types.KindBool }
func (e *IsNull) Children() []Expr            { return []Expr{e.E} }
func (e *IsNull) WithChildren(ch []Expr) Expr { return NewIsNull(ch[0], e.Neg) }
func (e *IsNull) String() string              { return render(e) }

// NotNull builds e IS NOT NULL.
func NotNull(e Expr) Expr { return NewIsNull(e, true) }

// When is one WHEN...THEN arm of a CASE expression.
type When struct {
	Cond Expr
	Then Expr
}

// Case is a searched CASE expression (the binder desugars the simple form).
// Whens must not be modified after NewCase.
type Case struct {
	Whens []When
	Else  Expr // nil means ELSE NULL
	info
}

// NewCase builds CASE whens ELSE els END; els == nil means ELSE NULL. The
// node takes ownership of whens.
func NewCase(whens []When, els Expr) *Case {
	n := &Case{Whens: whens, Else: els}
	n.info = naryInfo(tagCase, n.Children())
	n.simp = simplifyCase(n)
	return n
}

func (e *Case) Type() types.Kind {
	t := e.Whens[0].Then.Type()
	if t == types.KindUnknown && e.Else != nil {
		return e.Else.Type()
	}
	return t
}
func (e *Case) Children() []Expr {
	ch := make([]Expr, 0, len(e.Whens)*2+1)
	for _, w := range e.Whens {
		ch = append(ch, w.Cond, w.Then)
	}
	if e.Else != nil {
		ch = append(ch, e.Else)
	}
	return ch
}
func (e *Case) WithChildren(ch []Expr) Expr {
	whens := make([]When, len(e.Whens))
	for i := range e.Whens {
		whens[i] = When{Cond: ch[2*i], Then: ch[2*i+1]}
	}
	var els Expr
	if e.Else != nil {
		els = ch[len(ch)-1]
	}
	return NewCase(whens, els)
}
func (e *Case) String() string { return render(e) }

// InList tests membership in a literal list (IN subqueries are planned as
// semi-joins by the binder and never reach this node).
type InList struct {
	E    Expr
	List []Expr
	Neg  bool
	info
}

// NewInList builds e IN (list), or e NOT IN (list) when neg is set. The node
// takes ownership of list.
func NewInList(e Expr, list []Expr, neg bool) *InList {
	n := &InList{E: e, List: list, Neg: neg}
	tag := uint64(tagInList)
	if neg {
		tag++
	}
	n.info = naryInfo(tag, n.Children())
	n.simp = simplifyGeneric(n)
	return n
}

func (e *InList) Type() types.Kind { return types.KindBool }
func (e *InList) Children() []Expr {
	ch := make([]Expr, 0, len(e.List)+1)
	ch = append(ch, e.E)
	ch = append(ch, e.List...)
	return ch
}
func (e *InList) WithChildren(ch []Expr) Expr { return NewInList(ch[0], ch[1:], e.Neg) }
func (e *InList) String() string              { return render(e) }

// Like is a SQL LIKE pattern match with % and _ wildcards.
type Like struct {
	E       Expr
	Pattern string
	info
}

// NewLike builds e LIKE pattern.
func NewLike(e Expr, pattern string) *Like {
	n := &Like{E: e, Pattern: pattern}
	n.info = unaryInfo(mix(tagLike, stringHash(pattern)), e)
	n.simp = simplifyGeneric(n)
	return n
}

func (e *Like) Type() types.Kind            { return types.KindBool }
func (e *Like) Children() []Expr            { return []Expr{e.E} }
func (e *Like) WithChildren(ch []Expr) Expr { return NewLike(ch[0], e.Pattern) }
func (e *Like) String() string              { return render(e) }

// Coalesce returns the first non-NULL argument.
type Coalesce struct {
	Args []Expr
	info
}

// NewCoalesce builds COALESCE(args...). The node takes ownership of args.
func NewCoalesce(args []Expr) *Coalesce {
	n := &Coalesce{Args: args}
	n.info = naryInfo(tagCoalesce, args)
	n.simp = simplifyGeneric(n)
	return n
}

func (e *Coalesce) Type() types.Kind            { return e.Args[0].Type() }
func (e *Coalesce) Children() []Expr            { return e.Args }
func (e *Coalesce) WithChildren(ch []Expr) Expr { return NewCoalesce(ch) }
func (e *Coalesce) String() string              { return render(e) }

// AggFunc enumerates aggregate functions.
type AggFunc uint8

const (
	AggCountStar AggFunc = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = [...]string{"COUNT(*)", "COUNT", "SUM", "AVG", "MIN", "MAX"}

// String returns the SQL name of the aggregate function.
func (f AggFunc) String() string { return aggNames[f] }

// AggCall is a masked aggregate: the paper's (a, m) pair from §III.E. The
// aggregate only considers input rows for which Mask evaluates to TRUE.
// Mask == nil means TRUE. Distinct is set by the binder for DISTINCT
// aggregates and lowered to a MarkDistinct operator + mask before
// optimization, so it is always false in optimized plans.
type AggCall struct {
	Fn       AggFunc
	Arg      Expr // nil for COUNT(*)
	Mask     Expr // nil means TRUE
	Distinct bool
}

// ResultType returns the kind the aggregate produces.
func (a AggCall) ResultType() types.Kind {
	switch a.Fn {
	case AggCountStar, AggCount:
		return types.KindInt64
	case AggAvg:
		return types.KindFloat64
	case AggSum:
		if a.Arg != nil && a.Arg.Type() == types.KindInt64 {
			return types.KindInt64
		}
		return types.KindFloat64
	default: // MIN / MAX
		return a.Arg.Type()
	}
}

// String renders the aggregate with its FILTER mask if present.
func (a AggCall) String() string {
	var b strings.Builder
	if a.Fn == AggCountStar {
		b.WriteString("COUNT(*)")
	} else {
		b.WriteString(a.Fn.String())
		b.WriteString("(")
		if a.Distinct {
			b.WriteString("DISTINCT ")
		}
		write(&b, a.Arg)
		b.WriteString(")")
	}
	if a.Mask != nil && !IsTrueLiteral(a.Mask) {
		b.WriteString(" FILTER (WHERE ")
		write(&b, a.Mask)
		b.WriteString(")")
	}
	return b.String()
}

// render is the shared fmt-free renderer behind every String method; the
// recursive write avoids per-node Sprintf allocations.
func render(e Expr) string {
	var b strings.Builder
	write(&b, e)
	return b.String()
}

func write(b *strings.Builder, e Expr) {
	switch x := e.(type) {
	case *ColumnRef:
		b.WriteString(x.Col.Name)
		b.WriteByte('#')
		b.WriteString(strconv.Itoa(int(x.Col.ID)))
	case *Literal:
		b.WriteString(x.Val.String())
	case *Binary:
		b.WriteByte('(')
		write(b, x.L)
		b.WriteByte(' ')
		b.WriteString(x.Op.String())
		b.WriteByte(' ')
		write(b, x.R)
		b.WriteByte(')')
	case *Not:
		b.WriteString("(NOT ")
		write(b, x.E)
		b.WriteByte(')')
	case *IsNull:
		b.WriteByte('(')
		write(b, x.E)
		if x.Neg {
			b.WriteString(" IS NOT NULL)")
		} else {
			b.WriteString(" IS NULL)")
		}
	case *Case:
		b.WriteString("CASE")
		for _, w := range x.Whens {
			b.WriteString(" WHEN ")
			write(b, w.Cond)
			b.WriteString(" THEN ")
			write(b, w.Then)
		}
		if x.Else != nil {
			b.WriteString(" ELSE ")
			write(b, x.Else)
		}
		b.WriteString(" END")
	case *InList:
		b.WriteByte('(')
		write(b, x.E)
		if x.Neg {
			b.WriteString(" NOT IN (")
		} else {
			b.WriteString(" IN (")
		}
		for i, it := range x.List {
			if i > 0 {
				b.WriteString(", ")
			}
			write(b, it)
		}
		b.WriteString("))")
	case *Like:
		b.WriteByte('(')
		write(b, x.E)
		b.WriteString(" LIKE '")
		b.WriteString(x.Pattern)
		b.WriteString("')")
	case *Coalesce:
		b.WriteString("COALESCE(")
		for i, a := range x.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			write(b, a)
		}
		b.WriteByte(')')
	default:
		b.WriteString(e.String())
	}
}
