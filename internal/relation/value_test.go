package relation

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTypeOf(t *testing.T) {
	cases := []struct {
		v    Value
		want Type
	}{
		{nil, TypeInvalid},
		{int64(3), TypeInt},
		{3.5, TypeFloat},
		{"x", TypeString},
		{true, TypeBool},
	}
	for _, c := range cases {
		if got := TypeOf(c.v); got != c.want {
			t.Errorf("TypeOf(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	for _, c := range []struct {
		in   any
		want Value
	}{
		{7, int64(7)},
		{int8(7), int64(7)},
		{int16(7), int64(7)},
		{int32(7), int64(7)},
		{uint(7), int64(7)},
		{uint32(7), int64(7)},
		{float32(1.5), float64(1.5)},
		{"s", "s"},
		{true, true},
		{nil, nil},
	} {
		got, err := Normalize(c.in)
		if err != nil {
			t.Fatalf("Normalize(%v): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("Normalize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := Normalize(struct{}{}); err == nil {
		t.Error("Normalize(struct{}{}) should fail")
	}
}

func TestCoerce(t *testing.T) {
	if v, err := Coerce(3.0, TypeInt); err != nil || v != int64(3) {
		t.Errorf("Coerce(3.0, INT) = %v, %v", v, err)
	}
	if _, err := Coerce(3.5, TypeInt); err == nil {
		t.Error("Coerce(3.5, INT) should fail")
	}
	if v, err := Coerce(int64(3), TypeFloat); err != nil || v != 3.0 {
		t.Errorf("Coerce(3, FLOAT) = %v, %v", v, err)
	}
	if v, err := Coerce(true, TypeInt); err != nil || v != int64(1) {
		t.Errorf("Coerce(true, INT) = %v, %v", v, err)
	}
	if v, err := Coerce(nil, TypeString); err != nil || v != nil {
		t.Errorf("Coerce(nil, TEXT) = %v, %v", v, err)
	}
	if _, err := Coerce("x", TypeInt); err == nil {
		t.Error("Coerce(string, INT) should fail")
	}
}

func TestCompareOrdering(t *testing.T) {
	// NULL < bool < number < string, and within kinds natural order.
	ordered := []Value{nil, false, true, int64(-2), 0.5, int64(1), 3.5, "a", "b"}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCompareCrossNumeric(t *testing.T) {
	if Compare(int64(2), 2.0) != 0 {
		t.Error("int64(2) should equal 2.0")
	}
	if Compare(int64(2), 2.5) != -1 {
		t.Error("2 < 2.5")
	}
}

// Property: Compare is antisymmetric and consistent with Equal for
// arbitrary int/float/string mixes.
func TestCompareAntisymmetricProperty(t *testing.T) {
	f := func(a, b int64, fa, fb float64, sa, sb string) bool {
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return true
		}
		vals := []Value{a, b, fa, fb, sa, sb, nil}
		for _, x := range vals {
			for _, y := range vals {
				if Compare(x, y) != -Compare(y, x) {
					return false
				}
				if (Compare(x, y) == 0) != Equal(x, y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTruthy(t *testing.T) {
	truthy := []Value{true, int64(1), -1.5, "x"}
	falsy := []Value{nil, false, int64(0), 0.0, ""}
	for _, v := range truthy {
		if !Truthy(v) {
			t.Errorf("Truthy(%v) should be true", v)
		}
	}
	for _, v := range falsy {
		if Truthy(v) {
			t.Errorf("Truthy(%v) should be false", v)
		}
	}
}

func TestFormat(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want string
	}{
		{nil, "NULL"},
		{int64(42), "42"},
		{2.5, "2.5"},
		{"hi", "hi"},
		{true, "true"},
		{false, "false"},
	} {
		if got := Format(c.v); got != c.want {
			t.Errorf("Format(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// encodeKey is appendKey over a sequence of values, as a string.
func encodeKey(vals []Value) string {
	var b []byte
	for _, v := range vals {
		b = appendKey(b, v)
	}
	return string(b)
}

// Property: encodeKey is injective over distinct single values.
func TestEncodeKeyInjectiveProperty(t *testing.T) {
	f := func(a, b int64, s1, s2 string) bool {
		if a != b && encodeKey([]Value{a}) == encodeKey([]Value{b}) {
			return false
		}
		if s1 != s2 && encodeKey([]Value{s1}) == encodeKey([]Value{s2}) {
			return false
		}
		// A string never collides with an int key.
		return encodeKey([]Value{s1}) != encodeKey([]Value{a})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyIntFloatUnify(t *testing.T) {
	if encodeKey([]Value{int64(3)}) != encodeKey([]Value{3.0}) {
		t.Error("integral float should key identically to int")
	}
	if encodeKey([]Value{3.5}) == encodeKey([]Value{int64(3)}) {
		t.Error("3.5 must not collide with 3")
	}
}

func TestTypeString(t *testing.T) {
	for _, c := range []struct {
		t    Type
		want string
	}{{TypeInt, "INT"}, {TypeFloat, "FLOAT"}, {TypeString, "TEXT"}, {TypeBool, "BOOL"}, {TypeInvalid, "INVALID"}} {
		if c.t.String() != c.want {
			t.Errorf("%v.String() = %q", c.t, c.t.String())
		}
	}
}
