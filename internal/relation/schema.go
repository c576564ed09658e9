package relation

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation.
type Column struct {
	Name    string
	Type    Type
	NotNull bool
}

// Schema is an ordered set of columns with case-insensitive name lookup.
// Schemas are immutable once created.
type Schema struct {
	cols   []Column
	byName map[string]int // by the declared spelling
}

// NewSchema builds a schema from columns. Column names must be unique
// (case-insensitively); NewSchema panics otherwise, since schemas are
// program constants in this system.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range s.cols {
		for _, prev := range s.cols[:i] {
			if strings.EqualFold(prev.Name, c.Name) {
				panic(fmt.Sprintf("relation: duplicate column %q", c.Name))
			}
		}
		s.byName[c.Name] = i
	}
	return s
}

// Col is shorthand for constructing a column that admits NULL.
func Col(name string, t Type) Column { return Column{Name: name, Type: t} }

// NotNullCol is shorthand for constructing a NOT NULL column.
func NotNullCol(name string, t Type) Column { return Column{Name: name, Type: t, NotNull: true} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Columns returns a copy of the column definitions.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Column returns the i-th column definition.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Index returns the position of the named column (case-insensitive).
// The declared spelling is one map probe; any other folds over the
// columns. Neither allocates.
func (s *Schema) Index(name string) (int, bool) {
	if i, ok := s.byName[name]; ok {
		return i, true
	}
	for i, c := range s.cols {
		if strings.EqualFold(c.Name, name) {
			return i, true
		}
	}
	return 0, false
}

// MustIndex is Index that panics on a missing column; used for columns the
// program itself declares.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.Index(name)
	if !ok {
		panic(fmt.Sprintf("relation: no column %q", name))
	}
	return i
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.cols))
	for i, c := range s.cols {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as "(a INT, b TEXT, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
		if c.NotNull {
			b.WriteString(" NOT NULL")
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Row is one tuple. Cells align positionally with the owning schema.
type Row []Value

// Clone returns a shallow copy of the row (cells are immutable values).
func (r Row) Clone() Row { return append(Row(nil), r...) }
