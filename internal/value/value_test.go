package value

import (
	"encoding/json"
	"math"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "null",
		KindInt:    "int",
		KindFloat:  "float",
		KindString: "string",
		Kind(42):   "kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(7); v.Kind() != KindInt || v.Int() != 7 {
		t.Errorf("NewInt: got %v", v)
	}
	if v := NewFloat(2.5); v.Kind() != KindFloat || v.Float() != 2.5 {
		t.Errorf("NewFloat: got %v", v)
	}
	if v := NewString("x"); v.Kind() != KindString || v.Str() != "x" {
		t.Errorf("NewString: got %v", v)
	}
	if !Null.IsNull() {
		t.Error("Null.IsNull() = false")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value should be NULL")
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"Int on string", func() { NewString("x").Int() }},
		{"Float on int", func() { NewInt(1).Float() }},
		{"Str on float", func() { NewFloat(1).Str() }},
		{"AsFloat on string", func() { NewString("x").AsFloat() }},
		{"AsFloat on null", func() { Null.AsFloat() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.fn()
		})
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewString("c"), NewString("b"), 1},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareIncomparablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic comparing int and string")
		}
	}()
	Compare(NewInt(1), NewString("1"))
}

func TestEqual(t *testing.T) {
	if !Equal(NewInt(3), NewFloat(3)) {
		t.Error("3 should equal 3.0")
	}
	if Equal(NewInt(3), NewString("3")) {
		t.Error("int 3 should not equal string \"3\"")
	}
	if Equal(Null, NewInt(0)) {
		t.Error("NULL should not equal 0")
	}
	if !Equal(Null, Null) {
		t.Error("NULL should equal NULL")
	}
}

func TestStringAndSQL(t *testing.T) {
	cases := []struct {
		v        Value
		str, sql string
	}{
		{NewInt(-5), "-5", "-5"},
		{NewFloat(2.5), "2.5", "2.5"},
		// Integral floats keep a decimal point so they re-parse as floats.
		{NewFloat(3), "3", "3.0"},
		{NewFloat(math.Copysign(0, -1)), "-0", "-0.0"},
		{NewFloat(1e21), "1e+21", "1000000000000000000000.0"},
		{NewString("hi"), "hi", "'hi'"},
		{Null, "NULL", "NULL"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.str {
			t.Errorf("%v.String() = %q, want %q", c.v, got, c.str)
		}
		if got := c.v.SQL(); got != c.sql {
			t.Errorf("%v.SQL() = %q, want %q", c.v, got, c.sql)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	vals := []Value{NewInt(42), NewInt(-1), NewFloat(3.25), NewString("a'b"), Null}
	for _, v := range vals {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var got Value
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !Equal(v, got) || v.Kind() != got.Kind() {
			t.Errorf("round trip %v -> %s -> %v", v, data, got)
		}
	}
}

func TestJSONNonFiniteError(t *testing.T) {
	if _, err := json.Marshal(NewFloat(math.Inf(1))); err == nil {
		t.Error("expected error marshaling +Inf")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var v Value
	if err := json.Unmarshal([]byte(`{"a":1}`), &v); err == nil {
		t.Error("expected error unmarshaling object")
	}
}
