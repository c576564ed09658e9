package relation

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// Type identifies the declared type of a column.
type Type uint8

// Column types supported by the engine.
const (
	TypeInvalid Type = iota
	TypeInt          // int64
	TypeFloat        // float64
	TypeString       // string
	TypeBool         // bool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "TEXT"
	case TypeBool:
		return "BOOL"
	default:
		return "INVALID"
	}
}

// Value is a dynamically typed cell value. The concrete type is one of
// nil (SQL NULL), int64, float64, string, or bool. Inserts coerce Go
// integer and float variants to the canonical representation.
type Value = any

// TypeOf reports the engine type of a value. NULL has TypeInvalid.
func TypeOf(v Value) Type {
	switch v.(type) {
	case nil:
		return TypeInvalid
	case int64:
		return TypeInt
	case float64:
		return TypeFloat
	case string:
		return TypeString
	case bool:
		return TypeBool
	default:
		return TypeInvalid
	}
}

// Normalize converts the supported Go numeric and string variants into the
// canonical cell representation (int64, float64, string, bool, nil).
// It returns an error for unsupported dynamic types.
func Normalize(v Value) (Value, error) {
	switch x := v.(type) {
	case nil, int64, float64, string, bool:
		return x, nil
	case int:
		return int64(x), nil
	case int8:
		return int64(x), nil
	case int16:
		return int64(x), nil
	case int32:
		return int64(x), nil
	case uint:
		return int64(x), nil
	case uint8:
		return int64(x), nil
	case uint16:
		return int64(x), nil
	case uint32:
		return int64(x), nil
	case uint64:
		return int64(x), nil
	case float32:
		return float64(x), nil
	default:
		// reflect.TypeOf, unlike formatting v itself, does not make every
		// caller's v escape to the heap.
		return nil, fmt.Errorf("relation: unsupported value type %s", reflect.TypeOf(v))
	}
}

// Coerce converts v to column type t, applying the numeric widenings a SQL
// engine would (int→float, float with zero fraction→int). NULL passes
// through unchanged.
func Coerce(v Value, t Type) (Value, error) {
	if v == nil {
		return nil, nil
	}
	nv, err := Normalize(v)
	if err != nil {
		return nil, err
	}
	switch t {
	case TypeInt:
		switch x := nv.(type) {
		case int64:
			return x, nil
		case float64:
			if x == float64(int64(x)) {
				return int64(x), nil
			}
			return nil, fmt.Errorf("relation: cannot coerce %v to INT without loss", x)
		case bool:
			if x {
				return int64(1), nil
			}
			return int64(0), nil
		}
	case TypeFloat:
		switch x := nv.(type) {
		case int64:
			return float64(x), nil
		case float64:
			return x, nil
		}
	case TypeString:
		if s, ok := nv.(string); ok {
			return s, nil
		}
	case TypeBool:
		if b, ok := nv.(bool); ok {
			return b, nil
		}
	}
	return nil, fmt.Errorf("relation: cannot coerce %T to %s", nv, t)
}

// Compare imposes a total order over cell values: NULL < bool < number <
// string; numbers compare numerically across int64/float64; false < true.
// It returns -1, 0, or +1.
func Compare(a, b Value) int {
	ra, rb := rank(a), rank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0: // both NULL
		return 0
	case 1: // bool
		ab, bb := a.(bool), b.(bool)
		switch {
		case ab == bb:
			return 0
		case !ab:
			return -1
		default:
			return 1
		}
	case 2: // numeric
		af, bf := numeric(a), numeric(b)
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	default: // string
		return strings.Compare(a.(string), b.(string))
	}
}

// Equal reports whether two cell values compare equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

func rank(v Value) int {
	switch v.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int64, float64:
		return 2
	default:
		return 3
	}
}

func numeric(v Value) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// Truthy reports whether a value counts as true in a boolean context:
// non-zero numbers, true, and non-empty strings. NULL is false.
func Truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		return x != ""
	}
	return false
}

// Format renders a value the way the engine prints result cells.
// NULL renders as "NULL"; floats use the shortest round-trip form.
func Format(v Value) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		if x {
			return "true"
		}
		return "false"
	}
	return fmt.Sprint(v)
}

// appendKey appends v's hash-index key encoding to b. The encoding is
// injective over normalized values: it tags each value with its type
// rank, quotes strings, and ends it with a separator, so a sequence of
// appended values is itself a unique key. Integral floats key identically
// to ints so that a lookup with int64(3) finds rows stored with 3.0.
// Callers encode into a stack buffer and index their maps with
// string(b), which allocates nothing.
func appendKey(b []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, "n|"...)
	case bool:
		if x {
			return append(b, "b1|"...)
		}
		return append(b, "b0|"...)
	case int64:
		b = strconv.AppendInt(append(b, 'i'), x, 10)
	case float64:
		if x == float64(int64(x)) {
			b = strconv.AppendInt(append(b, 'i'), int64(x), 10)
		} else {
			b = strconv.AppendFloat(append(b, 'f'), x, 'b', -1, 64)
		}
	case string:
		b = strconv.AppendQuote(append(b, 's'), x)
	default:
		// Normalize and validate admit nothing else; formatting x here
		// would make every probe's key escape to the heap.
		panic("relation: key value of unsupported type")
	}
	return append(b, '|')
}
