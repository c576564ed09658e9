package sqlmini

import (
	"fmt"
	"strings"

	"courserank/internal/relation"
)

// colRef names one column of an intermediate result, with the table
// binding it came from ("" for computed columns).
type colRef struct{ qual, name string }

// rowset is a materialized intermediate relation: named columns plus rows.
// The executor is a pipeline of rowset transformations.
type rowset struct {
	cols []colRef
	rows []relation.Row
}

// resolve finds the position of a (possibly qualified) column name,
// case-insensitively. Unqualified names must be unambiguous.
func (rs *rowset) resolve(qual, name string) (int, error) {
	found := -1
	for i, c := range rs.cols {
		if !strings.EqualFold(c.name, name) {
			continue
		}
		if qual != "" && !strings.EqualFold(c.qual, qual) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sqlmini: ambiguous column %q", name)
		}
		found = i
	}
	if found < 0 {
		full := name
		if qual != "" {
			full = qual + "." + name
		}
		return 0, fmt.Errorf("sqlmini: unknown column %q", full)
	}
	return found, nil
}

// filterRows applies bound conjuncts across a whole batch, appending
// the survivors (as row references) to out and returning it. The rowset
// binding work happens once per batch here instead of once per row; out
// may alias in's backing array (in-place compaction) because the append
// position never passes the read position.
func filterRows(filters []Expr, in []relation.Row, out []relation.Row, rs *rowset) ([]relation.Row, error) {
	if len(filters) == 0 {
		return append(out, in...), nil
	}
	// Decode the dominant conjunct shape — a bound column compared to a
	// non-NULL constant — once per batch, so its per-row work is a
	// single Compare instead of a recursive interface evaluation.
	// fast[i] keeps op "" for shapes the decode rejects; conjuncts
	// evaluate in written order either way, so error and short-circuit
	// behavior match the general path exactly.
	type fastPred struct {
		idx int
		op  string
		val relation.Value
	}
	var fastArr [8]fastPred
	var fast []fastPred
	if len(filters) <= len(fastArr) {
		fast = fastArr[:0]
		for _, f := range filters {
			var p fastPred
			if b, ok := f.(*Binary); ok {
				switch b.Op {
				case "=", "<>", "<", "<=", ">", ">=":
					if br, ok := b.L.(*boundRef); ok {
						if lit, ok := b.R.(*Lit); ok && lit.V != nil {
							p = fastPred{idx: br.idx, op: b.Op, val: lit.V}
						}
					}
				}
			}
			fast = append(fast, p)
		}
	}
	for _, row := range in {
		keep := true
		for fi, f := range filters {
			if fi < len(fast) && fast[fi].op != "" {
				p := &fast[fi]
				pass := false
				if v := row[p.idx]; v != nil {
					c := relation.Compare(v, p.val)
					switch p.op {
					case "=":
						pass = c == 0
					case "<>":
						pass = c != 0
					case "<":
						pass = c < 0
					case "<=":
						pass = c <= 0
					case ">":
						pass = c > 0
					default:
						pass = c >= 0
					}
				}
				if !pass {
					keep = false
					break
				}
				continue
			}
			v, err := evalScalar(f, row, rs)
			if err != nil {
				return nil, err
			}
			if !relation.Truthy(v) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, row)
		}
	}
	return out, nil
}

// evalScalar evaluates an expression against a single row. Comparisons or
// arithmetic involving NULL yield NULL (which is falsy in filters); AND
// is two-valued over Truthy and short-circuits.
func evalScalar(e Expr, row relation.Row, rs *rowset) (relation.Value, error) {
	switch x := e.(type) {
	case *Lit:
		return x.V, nil
	case *Param:
		return nil, fmt.Errorf("sqlmini: placeholder %d evaluated before binding", x.Idx+1)
	case *boundRef:
		return row[x.idx], nil
	case *Ref:
		i, err := rs.resolve(x.Qual, x.Name)
		if err != nil {
			return nil, err
		}
		return row[i], nil
	case *Unary:
		v, err := evalScalar(x.X, row, rs)
		if err != nil {
			return nil, err
		}
		switch n := v.(type) {
		case nil:
			return nil, nil
		case int64:
			return -n, nil
		case float64:
			return -n, nil
		}
		return nil, fmt.Errorf("sqlmini: cannot negate %T", v)
	case *Binary:
		l, err := evalScalar(x.L, row, rs)
		if err != nil {
			return nil, err
		}
		if x.Op == "AND" && !relation.Truthy(l) {
			return false, nil
		}
		r, err := evalScalar(x.R, row, rs)
		if err != nil {
			return nil, err
		}
		return evalBinary(x.Op, l, r)
	case *Between:
		v, err := evalScalar(x.X, row, rs)
		if err != nil {
			return nil, err
		}
		lo, err := evalScalar(x.Lo, row, rs)
		if err != nil {
			return nil, err
		}
		hi, err := evalScalar(x.Hi, row, rs)
		if err != nil {
			return nil, err
		}
		if v == nil || lo == nil || hi == nil {
			return nil, nil
		}
		return relation.Compare(v, lo) >= 0 && relation.Compare(v, hi) <= 0, nil
	}
	return nil, fmt.Errorf("sqlmini: cannot evaluate %T", e)
}

func evalBinary(op string, l, r relation.Value) (relation.Value, error) {
	if op == "AND" {
		return relation.Truthy(r), nil // l was truthy: evalScalar short-circuits
	}
	if l == nil || r == nil {
		return nil, nil
	}
	switch op {
	case "+", "-":
		return arith(op, l, r)
	}
	c := relation.Compare(l, r)
	switch op {
	case "=":
		return c == 0, nil
	case "<>":
		return c != 0, nil
	case "<":
		return c < 0, nil
	case "<=":
		return c <= 0, nil
	case ">":
		return c > 0, nil
	case ">=":
		return c >= 0, nil
	}
	return nil, fmt.Errorf("sqlmini: unknown operator %q", op)
}

// arith adds or subtracts: integer arithmetic when both sides are
// integers, float otherwise.
func arith(op string, l, r relation.Value) (relation.Value, error) {
	li, lInt := l.(int64)
	ri, rInt := r.(int64)
	if lInt && rInt {
		if op == "+" {
			return li + ri, nil
		}
		return li - ri, nil
	}
	lf, err := toFloat(l)
	if err != nil {
		return nil, err
	}
	rf, err := toFloat(r)
	if err != nil {
		return nil, err
	}
	if op == "+" {
		return lf + rf, nil
	}
	return lf - rf, nil
}

func toFloat(v relation.Value) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	}
	return 0, fmt.Errorf("sqlmini: %T is not numeric", v)
}

// computeAggregate reduces one aggregate item over a group.
func computeAggregate(c *Call, group []relation.Row, rs *rowset) (relation.Value, error) {
	var a aggState
	for _, row := range group {
		if err := a.add(c, row, rs); err != nil {
			return nil, err
		}
	}
	return a.value(c), nil
}

// aggState folds one aggregate item over a group's rows, one row at a
// time: COUNT(*) counts rows; COUNT(x) and AVG(x) skip NULLs, and AVG
// over no value is NULL. AVG sums in the order the rows are added.
type aggState struct {
	n   int
	sum float64
}

func (a *aggState) add(c *Call, row relation.Row, rs *rowset) error {
	if c.Star {
		a.n++
		return nil
	}
	v, err := evalScalar(c.Arg, row, rs)
	if err != nil || v == nil {
		return err
	}
	if c.Name == "AVG" {
		f, err := toFloat(v)
		if err != nil {
			return err
		}
		a.sum += f
	}
	a.n++
	return nil
}

func (a *aggState) value(c *Call) relation.Value {
	if c.Star || c.Name == "COUNT" {
		return int64(a.n)
	}
	if a.n == 0 {
		return nil
	}
	return a.sum / float64(a.n)
}
