// Package types defines the SQL value model shared by every layer of the
// engine: the scalar kinds supported by the catalog, a NULL-aware Value
// representation, and the comparison/arithmetic semantics used by the
// expression evaluator.
//
// Values are represented by a single small struct (no interface boxing) so
// rows can be stored and copied as flat []Value slices by the columnar
// store and the streaming executor.
package types

import (
	"fmt"
	"strconv"
	"time"
)

// Kind enumerates the scalar data types supported by the engine.
type Kind uint8

const (
	// KindUnknown is the zero Kind; it appears only transiently during
	// binding (e.g. for a bare NULL literal before type inference).
	KindUnknown Kind = iota
	KindBool
	KindInt64
	KindFloat64
	KindString
	// KindDate stores days since the Unix epoch in the integer payload.
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindBool:
		return "BOOLEAN"
	case KindInt64:
		return "BIGINT"
	case KindFloat64:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	default:
		return "UNKNOWN"
	}
}

// IsNumeric reports whether the kind participates in arithmetic.
func (k Kind) IsNumeric() bool { return k == KindInt64 || k == KindFloat64 }

// FixedWidth returns the on-storage width in bytes for fixed-width kinds
// and 0 for variable-width kinds (strings). The storage layer uses this for
// bytes-scanned accounting.
func (k Kind) FixedWidth() int {
	switch k {
	case KindBool:
		return 1
	case KindInt64, KindFloat64:
		return 8
	case KindDate:
		return 4
	default:
		return 0
	}
}

// Value is a NULL-aware SQL scalar. The active payload field is determined
// by Kind: I holds BIGINT, BOOLEAN (0/1) and DATE (epoch days), F holds
// DOUBLE, S holds VARCHAR.
type Value struct {
	Kind Kind
	Null bool
	I    int64
	F    float64
	S    string
}

// Null values of each kind.
func NullOf(k Kind) Value { return Value{Kind: k, Null: true} }

// Constructors.
func Bool(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.I = 1
	}
	return v
}
func Int(i int64) Value     { return Value{Kind: KindInt64, I: i} }
func Float(f float64) Value { return Value{Kind: KindFloat64, F: f} }
func String(s string) Value { return Value{Kind: KindString, S: s} }
func Date(days int64) Value { return Value{Kind: KindDate, I: days} }
func Unknown() Value        { return Value{Kind: KindUnknown, Null: true} }

// DateFromString parses an ISO date (YYYY-MM-DD) into a DATE value.
func DateFromString(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Value{}, fmt.Errorf("invalid date %q: %w", s, err)
	}
	return Date(t.Unix() / 86400), nil
}

// AsBool returns the boolean payload; callers must check Null first.
func (v Value) AsBool() bool { return v.I != 0 }

// AsFloat converts any numeric payload to float64.
func (v Value) AsFloat() float64 {
	if v.Kind == KindFloat64 {
		return v.F
	}
	return float64(v.I)
}

// IsTrue reports whether the value is a non-NULL TRUE. This implements SQL
// three-valued filter semantics: NULL and FALSE both reject a row.
func (v Value) IsTrue() bool { return !v.Null && v.Kind == KindBool && v.I != 0 }

// ByteSize returns the accounting size of the value used for bytes-scanned
// metrics (variable-width kinds use payload length).
func (v Value) ByteSize() int {
	if w := v.Kind.FixedWidth(); w > 0 {
		return w
	}
	return len(v.S)
}

// String renders the value for plan output and result printing.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindInt64:
		return strconv.FormatInt(v.I, 10)
	case KindFloat64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return "'" + v.S + "'"
	case KindDate:
		return time.Unix(v.I*86400, 0).UTC().Format("2006-01-02")
	default:
		return "?"
	}
}

// Equal reports deep equality including NULL-ness and kind. It is intended
// for tests and plan comparison, not SQL equality (use Compare for that).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind || v.Null != o.Null {
		return false
	}
	if v.Null {
		return true
	}
	switch v.Kind {
	case KindString:
		return v.S == o.S
	case KindFloat64:
		return v.F == o.F
	default:
		return v.I == o.I
	}
}

// Comparable reports whether two kinds can be compared (identical, or both
// numeric). It is the rule Compare enforces.
func Comparable(a, b Kind) bool {
	if a == b {
		return true
	}
	return a.IsNumeric() && b.IsNumeric()
}

// Compare implements SQL ordering for non-NULL values: -1, 0 or +1. Mixed
// int/float comparisons promote to float. Comparing kinds that are not
// Comparable panics; the binder rejects such expressions before execution.
func Compare(a, b Value) int {
	if !Comparable(a.Kind, b.Kind) {
		panic(fmt.Sprintf("types: cannot compare %s with %s", a.Kind, b.Kind))
	}
	if a.Kind != b.Kind {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	switch a.Kind {
	case KindString:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	case KindFloat64:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		default:
			return 0
		}
	default:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	}
}

// NumericResult returns the kind produced by arithmetic over two numeric
// kinds (float wins).
func NumericResult(a, b Kind) Kind {
	if a == KindFloat64 || b == KindFloat64 {
		return KindFloat64
	}
	return KindInt64
}
