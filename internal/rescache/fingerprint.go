package rescache

import (
	"strconv"
	"strings"
	"sync"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/types"
)

// Sub-plan fingerprints must match exactly when two sub-plans compute the
// same result from the same table. Plan trees carry per-instance column
// identities (two compilations of the same SQL never share column IDs), so
// the walker rewrites every expression onto interned columns: scan outputs
// map to a column named by (table, column), and the outputs of the n-th
// operator above the scan to columns named by (n, position). A
// fingerprint's key renders the sub-plan's shape and the canonical keys
// (expr.Key) of its rewritten expressions. Keys are shared across queries,
// where a 64-bit expression key could collide, so a key match counts only
// when the rewritten expressions are also pairwise expr.Equivalent.

var (
	internMu   sync.Mutex
	internCols = make(map[string]*expr.Column)
)

// internCol returns the process-wide canonical column for a name: the same
// name always resolves to the same *expr.Column (hence the same ID), which
// is what makes fingerprints stable across query instances.
func internCol(name string, k types.Kind) *expr.Column {
	internMu.Lock()
	defer internMu.Unlock()
	if c, ok := internCols[name]; ok {
		return c
	}
	c := expr.NewColumn(name, k)
	internCols[name] = c
	return c
}

// fingerprint is the semantic identity of an eligible sub-plan.
type fingerprint struct {
	// key renders the shape and expression keys; it indexes the cache.
	key string
	// exprs are the sub-plan's expressions rewritten onto interned
	// columns, in the order key renders them.
	exprs []expr.Expr
}

// matches reports whether a sub-plan whose key equals f's computes the
// same result: whether its rewritten expressions are equivalent to f's.
func (f fingerprint) matches(exprs []expr.Expr) bool {
	if len(exprs) != len(f.exprs) {
		return false
	}
	for i, e := range exprs {
		if !expr.Equivalent(e, f.exprs[i]) {
			return false
		}
	}
	return true
}

type printer struct {
	b     strings.Builder
	exprs []expr.Expr
	sawGB bool
}

// expr rewrites e onto canonical columns through m and records it. It
// reports false when e references a column outside the mapping
// (Mapping.Apply passes unmapped columns through, which would make the
// fingerprint depend on instance IDs).
func (p *printer) expr(m expr.Mapping, e expr.Expr) bool {
	ok := true
	expr.Walk(e, func(x expr.Expr) bool {
		if ref, isRef := x.(*expr.ColumnRef); isRef {
			if _, mapped := m[ref.Col.ID]; !mapped {
				ok = false
			}
		}
		return ok
	})
	if !ok {
		return false
	}
	e = m.Apply(e)
	p.exprs = append(p.exprs, e)
	p.b.WriteString(strconv.FormatUint(expr.Key(e), 36))
	return true
}

// fingerprintOf fingerprints an eligible sub-plan: a Filter/Project chain
// over a single Scan, with at most one GroupBy (scalar or keyed) anywhere
// in the stack. It returns the fingerprint, the scanned table, and
// ok=false for any other shape.
func fingerprintOf(op logical.Operator) (fp fingerprint, table string, ok bool) {
	var p printer
	_, table, _, ok = p.node(op)
	if !ok {
		return fingerprint{}, "", false
	}
	return fingerprint{key: p.b.String(), exprs: p.exprs}, table, true
}

// node fingerprints op and returns the mapping of its output columns onto
// interned columns and its depth above the scan.
func (p *printer) node(op logical.Operator) (m expr.Mapping, table string, depth int, ok bool) {
	if s, isScan := op.(*logical.Scan); isScan {
		m = expr.Identity()
		p.b.WriteString("scan:")
		p.b.WriteString(s.Table.Name)
		p.b.WriteByte('[')
		for i, c := range s.Cols {
			if i > 0 {
				p.b.WriteByte(',')
			}
			p.b.WriteString(s.ColNames[i])
			m.Add(c.ID, internCol("s:"+s.Table.Name+"."+s.ColNames[i], c.Type))
		}
		p.b.WriteByte(']')
		return m, s.Table.Name, 0, true
	}
	var input logical.Operator
	switch o := op.(type) {
	case *logical.Filter:
		input = o.Input
	case *logical.Project:
		input = o.Input
	case *logical.GroupBy:
		if p.sawGB {
			return nil, "", 0, false
		}
		p.sawGB = true
		input = o.Input
	default:
		return nil, "", 0, false
	}
	m, table, depth, ok = p.node(input)
	if !ok {
		return nil, "", 0, false
	}
	depth++
	out := func(j int, c *expr.Column) {
		m.Add(c.ID, internCol("o:"+strconv.Itoa(depth)+"."+strconv.Itoa(j), c.Type))
	}
	switch o := op.(type) {
	case *logical.Filter:
		p.b.WriteString("|filter:")
		ok = p.expr(m, o.Cond)
	case *logical.Project:
		p.b.WriteString("|proj:")
		for j, a := range o.Cols {
			if j > 0 {
				p.b.WriteByte(',')
			}
			if ok = p.expr(m, a.E); !ok {
				break
			}
			out(j, a.Col)
		}
	case *logical.GroupBy:
		p.b.WriteString("|gb:[")
		for i, k := range o.Keys {
			if _, mapped := m[k.ID]; !mapped {
				return nil, "", 0, false
			}
			if i > 0 {
				p.b.WriteByte(',')
			}
			p.b.WriteString(m.Resolve(k).Name)
		}
		p.b.WriteString("]aggs:[")
		for j, a := range o.Aggs {
			if j > 0 {
				p.b.WriteByte(',')
			}
			p.b.WriteString(strconv.Itoa(int(a.Agg.Fn)))
			if a.Agg.Distinct {
				p.b.WriteString(" DISTINCT")
			}
			mask := a.Agg.Mask
			if expr.IsTrueLiteral(mask) {
				mask = nil
			}
			p.b.WriteByte('(')
			if ok = p.expr(m, a.Agg.Arg); ok {
				p.b.WriteByte(';')
				ok = p.expr(m, mask)
			}
			if !ok {
				break
			}
			p.b.WriteByte(')')
			out(j, a.Col)
		}
		p.b.WriteByte(']')
	}
	if !ok {
		return nil, "", 0, false
	}
	return m, table, depth, true
}
