// Package value provides the typed scalar values and integer interval
// algebra that underpin Hydra's constraint processing.
//
// Every column participating in region partitioning is mapped to an integer
// "coded" domain (ints natural, floats quantized by a per-column scale,
// strings via an order-preserving dictionary), so predicate regions become
// exact half-open integer intervals and the LP bookkeeping never suffers
// floating-point boundary ambiguity.
package value

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported scalar kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable scalar: an int64, float64, string, or SQL NULL.
// The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a floating-point value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// Kind reports the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the underlying int64. It panics unless Kind is KindInt.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: Int() on %s", v.kind))
	}
	return v.i
}

// Float returns the underlying float64. It panics unless Kind is KindFloat.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("value: Float() on %s", v.kind))
	}
	return v.f
}

// Str returns the underlying string. It panics unless Kind is KindString.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: Str() on %s", v.kind))
	}
	return v.s
}

// AsFloat converts a numeric value to float64. It panics on strings/NULL.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		panic(fmt.Sprintf("value: AsFloat() on %s", v.kind))
	}
}

// Compare orders two values: -1, 0, or +1. NULL sorts before everything.
// Numeric kinds compare by numeric value; comparing a number with a string
// panics (the planner never produces such a comparison).
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	an, aNum := a.numeric()
	bn, bNum := b.numeric()
	switch {
	case aNum && bNum:
		switch {
		case an < bn:
			return -1
		case an > bn:
			return 1
		default:
			return 0
		}
	case a.kind == KindString && b.kind == KindString:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		default:
			return 0
		}
	default:
		panic(fmt.Sprintf("value: incomparable kinds %s and %s", a.kind, b.kind))
	}
}

func (v Value) numeric() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// Equal reports whether two values are equal under Compare semantics.
func Equal(a, b Value) bool {
	if (a.kind == KindNull) != (b.kind == KindNull) {
		return false
	}
	if a.kind == KindNull {
		return true
	}
	if (a.kind == KindString) != (b.kind == KindString) {
		return false
	}
	return Compare(a, b) == 0
}

// String renders the value for display. Strings are not quoted.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return v.s
	}
}

// SQL renders the value as a SQL literal (strings single-quoted, floats in
// plain decimal notation so the result re-parses). A float always carries a
// decimal point, so it re-parses as a float: printed bare, -0.0 would come
// back as the integer 0 and a float beyond the int64 range would not parse.
func (v Value) SQL() string {
	switch v.kind {
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindFloat:
		s := strconv.FormatFloat(v.f, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	default:
		return v.String()
	}
}

// MarshalJSON encodes ints, floats, and strings natively and NULL as null.
func (v Value) MarshalJSON() ([]byte, error) {
	switch v.kind {
	case KindNull:
		return []byte("null"), nil
	case KindInt:
		return json.Marshal(v.i)
	case KindFloat:
		if math.IsInf(v.f, 0) || math.IsNaN(v.f) {
			return nil, fmt.Errorf("value: cannot marshal non-finite float %v", v.f)
		}
		return json.Marshal(v.f)
	default:
		return json.Marshal(v.s)
	}
}

// UnmarshalJSON decodes JSON numbers to int when integral, else float;
// strings to KindString; null to NULL.
func (v *Value) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*v = Null
		return nil
	}
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		*v = NewString(s)
		return nil
	}
	// Try integer first so round-trips preserve kind.
	var i int64
	if err := json.Unmarshal(data, &i); err == nil {
		*v = NewInt(i)
		return nil
	}
	var f float64
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	*v = NewFloat(f)
	return nil
}
