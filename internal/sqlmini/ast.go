package sqlmini

import (
	"strings"

	"courserank/internal/relation"
)

// Expr is a parsed SQL expression.
type Expr interface{ String() string }

// Lit is a literal value (number, string, TRUE/FALSE, or NULL).
type Lit struct{ V relation.Value }

func (l *Lit) String() string {
	if s, ok := l.V.(string); ok {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return relation.Format(l.V)
}

// Param is a late-bound placeholder ('?'): it survives parsing and
// planning unresolved, so one parse/plan serves every execution, and
// takes a concrete value only when a statement binds arguments at
// Query time. Idx is the zero-based position among the statement's
// placeholders.
type Param struct{ Idx int }

func (p *Param) String() string { return "?" }

// Ref is a column reference, optionally qualified by a table alias.
type Ref struct{ Qual, Name string }

func (r *Ref) String() string {
	if r.Qual != "" {
		return r.Qual + "." + r.Name
	}
	return r.Name
}

// Unary is a prefix operation: "-" or "NOT".
type Unary struct {
	Op string
	X  Expr
}

func (u *Unary) String() string { return u.Op + " " + u.X.String() }

// Binary is an infix operation. Op is one of the arithmetic, comparison,
// logical or pattern operators ("+", "=", "AND", "LIKE", "NOT LIKE", "||").
type Binary struct {
	Op   string
	L, R Expr
}

func (b *Binary) String() string { return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")" }

// Call is a function invocation, scalar or aggregate. Star marks COUNT(*).
type Call struct {
	Name     string
	Args     []Expr
	Distinct bool
	Star     bool
}

func (c *Call) String() string {
	if c.Star {
		return c.Name + "(*)"
	}
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	d := ""
	if c.Distinct {
		d = "DISTINCT "
	}
	return c.Name + "(" + d + strings.Join(parts, ", ") + ")"
}

// In is "x [NOT] IN (e1, e2, ...)".
type In struct {
	X    Expr
	List []Expr
	Not  bool
}

func (in *In) String() string {
	parts := make([]string, len(in.List))
	for i, a := range in.List {
		parts[i] = a.String()
	}
	op := " IN "
	if in.Not {
		op = " NOT IN "
	}
	return in.X.String() + op + "(" + strings.Join(parts, ", ") + ")"
}

// Between is "x [NOT] BETWEEN lo AND hi".
type Between struct {
	X, Lo, Hi Expr
	Not       bool
}

func (b *Between) String() string {
	op := " BETWEEN "
	if b.Not {
		op = " NOT BETWEEN "
	}
	return b.X.String() + op + b.Lo.String() + " AND " + b.Hi.String()
}

// Case is "CASE [operand] WHEN … THEN … [ELSE …] END". With an operand
// the WHEN values compare for equality; without one each WHEN is a
// boolean condition.
type Case struct {
	Operand Expr // nil for the searched form
	Whens   []When
	Else    Expr // nil means NULL
}

// When is one WHEN/THEN arm.
type When struct {
	Cond Expr
	Then Expr
}

func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	if c.Operand != nil {
		b.WriteString(" " + c.Operand.String())
	}
	for _, w := range c.Whens {
		b.WriteString(" WHEN " + w.Cond.String() + " THEN " + w.Then.String())
	}
	if c.Else != nil {
		b.WriteString(" ELSE " + c.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// IsNull is "x IS [NOT] NULL".
type IsNull struct {
	X   Expr
	Not bool
}

func (n *IsNull) String() string {
	if n.Not {
		return n.X.String() + " IS NOT NULL"
	}
	return n.X.String() + " IS NULL"
}

// SelectItem is one output of a SELECT list. Star selects all columns,
// optionally restricted to one table alias (t.*).
type SelectItem struct {
	Expr     Expr
	Alias    string
	Star     bool
	StarQual string
}

// TableRef names a base table with an optional alias.
type TableRef struct{ Name, Alias string }

// Binding returns the name results are qualified with.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// Join is one [INNER] JOIN … ON clause; sqlmini runs no other kind.
type Join struct {
	Ref TableRef
	On  Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed SELECT.
type SelectStmt struct {
	Distinct bool
	List     []SelectItem
	From     TableRef
	Joins    []Join
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil when absent
	Offset   Expr // nil when absent
}

// aggregates reports whether the statement groups or aggregates — its
// output rows are then computed from the whole input, not row by row.
func (s *SelectStmt) aggregates() bool {
	if len(s.GroupBy) > 0 || hasAggregate(s.Having) {
		return true
	}
	for _, item := range s.List {
		if hasAggregate(item.Expr) {
			return true
		}
	}
	return false
}
