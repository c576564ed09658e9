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

// Unary is a prefix minus: "-x".
type Unary struct {
	Op string
	X  Expr
}

func (u *Unary) String() string { return u.Op + " " + u.X.String() }

// Binary is an infix operation: "AND", a comparison ("=", "<>", "<",
// "<=", ">", ">="), or "+" / "-".
type Binary struct {
	Op   string
	L, R Expr
}

func (b *Binary) String() string { return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")" }

// Call is an aggregate select item: COUNT(*), COUNT(x) or AVG(x). Star
// marks COUNT(*).
type Call struct {
	Name string
	Arg  Expr // nil when Star
	Star bool
}

func (c *Call) String() string {
	if c.Star {
		return c.Name + "(*)"
	}
	return c.Name + "(" + c.Arg.String() + ")"
}

// Between is "x BETWEEN lo AND hi".
type Between struct{ X, Lo, Hi Expr }

func (b *Between) String() string {
	return b.X.String() + " BETWEEN " + b.Lo.String() + " AND " + b.Hi.String()
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
	List    []SelectItem
	From    TableRef
	Joins   []Join
	Where   Expr
	GroupBy []Expr // column references only
	OrderBy []OrderItem
	Limit   Expr // nil when absent
}

// aggregates reports whether the statement groups or aggregates — its
// output rows are then computed from the whole input, not row by row.
// An aggregate is always a whole select item, never nested.
func (s *SelectStmt) aggregates() bool {
	if len(s.GroupBy) > 0 {
		return true
	}
	for _, item := range s.List {
		if _, ok := item.Expr.(*Call); ok {
			return true
		}
	}
	return false
}
