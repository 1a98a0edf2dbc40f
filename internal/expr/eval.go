package expr

import (
	"fmt"

	"repro/internal/types"
)

// Env supplies column values during evaluation. The executor binds column
// IDs to row slots; the constant folder uses a nil Env.
type Env interface {
	// Value returns the current value of the column.
	Value(id ColumnID) types.Value
}

// SlotEnv is the executor's Env: a layout from column ID to row position
// plus the current row. The Row field is swapped per input row without
// reallocating the env.
type SlotEnv struct {
	Slots map[ColumnID]int
	Row   []types.Value
}

// Value implements Env.
func (e *SlotEnv) Value(id ColumnID) types.Value {
	idx, ok := e.Slots[id]
	if !ok {
		panic(fmt.Sprintf("expr: column #%d not bound in row layout", id))
	}
	return e.Row[idx]
}

// Eval evaluates an expression against an environment using SQL semantics:
// NULL propagation through arithmetic and comparison, Kleene three-valued
// AND/OR, and NULL for division by zero.
func Eval(e Expr, env Env) types.Value {
	switch x := e.(type) {
	case *Literal:
		return x.Val
	case *ColumnRef:
		return env.Value(x.Col.ID)
	case *Binary:
		return evalBinary(x, env)
	case *Not:
		v := Eval(x.E, env)
		if v.Null {
			return types.NullOf(types.KindBool)
		}
		return types.Bool(!v.AsBool())
	case *IsNull:
		v := Eval(x.E, env)
		if x.Neg {
			return types.Bool(!v.Null)
		}
		return types.Bool(v.Null)
	case *Case:
		for _, w := range x.Whens {
			if Eval(w.Cond, env).IsTrue() {
				return Eval(w.Then, env)
			}
		}
		if x.Else != nil {
			return Eval(x.Else, env)
		}
		return types.NullOf(x.Type())
	case *InList:
		return evalInList(x, env)
	case *Like:
		v := Eval(x.E, env)
		if v.Null {
			return types.NullOf(types.KindBool)
		}
		return types.Bool(MatchLike(v.S, x.Pattern))
	case *Coalesce:
		for _, a := range x.Args {
			if v := Eval(a, env); !v.Null {
				return v
			}
		}
		return types.NullOf(x.Type())
	default:
		panic(fmt.Sprintf("expr: cannot evaluate %T", e))
	}
}

func evalBinary(x *Binary, env Env) types.Value {
	// Kleene logic needs special NULL handling, so AND/OR come first.
	switch x.Op {
	case OpAnd:
		l := Eval(x.L, env)
		if !l.Null && !l.AsBool() {
			return types.Bool(false)
		}
		r := Eval(x.R, env)
		if !r.Null && !r.AsBool() {
			return types.Bool(false)
		}
		if l.Null || r.Null {
			return types.NullOf(types.KindBool)
		}
		return types.Bool(true)
	case OpOr:
		l := Eval(x.L, env)
		if !l.Null && l.AsBool() {
			return types.Bool(true)
		}
		r := Eval(x.R, env)
		if !r.Null && r.AsBool() {
			return types.Bool(true)
		}
		if l.Null || r.Null {
			return types.NullOf(types.KindBool)
		}
		return types.Bool(false)
	}
	l := Eval(x.L, env)
	r := Eval(x.R, env)
	if l.Null || r.Null {
		if x.Op.IsComparison() {
			return types.NullOf(types.KindBool)
		}
		return types.NullOf(x.Type())
	}
	if x.Op.IsComparison() {
		c := types.Compare(l, r)
		switch x.Op {
		case OpEq:
			return types.Bool(c == 0)
		case OpNe:
			return types.Bool(c != 0)
		case OpLt:
			return types.Bool(c < 0)
		case OpLe:
			return types.Bool(c <= 0)
		case OpGt:
			return types.Bool(c > 0)
		default:
			return types.Bool(c >= 0)
		}
	}
	// Arithmetic.
	if x.Op == OpDiv {
		rf := r.AsFloat()
		if rf == 0 {
			return types.NullOf(types.KindFloat64)
		}
		return types.Float(l.AsFloat() / rf)
	}
	if l.Kind == types.KindFloat64 || r.Kind == types.KindFloat64 {
		lf, rf := l.AsFloat(), r.AsFloat()
		switch x.Op {
		case OpAdd:
			return types.Float(lf + rf)
		case OpSub:
			return types.Float(lf - rf)
		default:
			return types.Float(lf * rf)
		}
	}
	switch x.Op {
	case OpAdd:
		return types.Int(l.I + r.I)
	case OpSub:
		return types.Int(l.I - r.I)
	default:
		return types.Int(l.I * r.I)
	}
}

func evalInList(x *InList, env Env) types.Value {
	v := Eval(x.E, env)
	if v.Null {
		return types.NullOf(types.KindBool)
	}
	sawNull := false
	for _, item := range x.List {
		iv := Eval(item, env)
		if iv.Null {
			sawNull = true
			continue
		}
		if types.Compare(v, iv) == 0 {
			return types.Bool(!x.Neg)
		}
	}
	if sawNull {
		return types.NullOf(types.KindBool)
	}
	return types.Bool(x.Neg)
}

// MatchLike implements SQL LIKE with % (any run) and _ (any single char),
// by simple backtracking.
func MatchLike(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeMatch(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// IsConstant reports whether the expression references no columns.
func IsConstant(e Expr) bool { return e == nil || !e.meta().hasCol }

// EvalConst evaluates a constant expression; ok is false if the expression
// references columns.
func EvalConst(e Expr) (types.Value, bool) {
	if !IsConstant(e) {
		return types.Value{}, false
	}
	return Eval(e, nil), true
}
