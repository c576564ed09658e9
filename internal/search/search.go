// Package search implements CourseRank's keyword search over *search
// entities that span multiple relations* (paper §3.1). A course entity is
// not just the Courses tuple: it aggregates the title, the bulletin
// description, every student comment, the instructor names and the
// department — each as a weighted field, so a query term found in a title
// scores differently from one found in a comment. Results feed the data
// cloud layer and support click-to-refine.
package search

import (
	"fmt"
	"strings"

	"courserank/internal/textindex"
)

// FieldSpec declares one weighted entity field.
type FieldSpec struct {
	Name   string
	Weight float64
}

// EntityDef names an entity type and its fields, e.g. the course entity
// with title/description/comments/instructors/department parts.
type EntityDef struct {
	Name   string
	Fields []FieldSpec
}

// Builder accumulates entity text part by part. The parts of one entity
// typically come from several relations (Courses, Comments, Instructors),
// appended in any order, then Build seals the index.
type Builder struct {
	def      EntityDef
	fieldIdx map[string]int
	texts    map[int64][]*strings.Builder
	order    []int64
}

// NewBuilder creates a builder for the entity definition.
func NewBuilder(def EntityDef) (*Builder, error) {
	if len(def.Fields) == 0 {
		return nil, fmt.Errorf("search: entity %q needs at least one field", def.Name)
	}
	b := &Builder{
		def:      def,
		fieldIdx: make(map[string]int, len(def.Fields)),
		texts:    make(map[int64][]*strings.Builder),
	}
	for i, f := range def.Fields {
		key := strings.ToLower(f.Name)
		if _, dup := b.fieldIdx[key]; dup {
			return nil, fmt.Errorf("search: duplicate field %q", f.Name)
		}
		if f.Weight <= 0 {
			return nil, fmt.Errorf("search: field %q must have positive weight", f.Name)
		}
		b.fieldIdx[key] = i
	}
	return b, nil
}

// Append adds text to one field of an entity, creating the entity on
// first use. Multiple appends to the same field concatenate.
func (b *Builder) Append(entityID int64, field, text string) error {
	fi, ok := b.fieldIdx[strings.ToLower(field)]
	if !ok {
		return fmt.Errorf("search: entity %q has no field %q", b.def.Name, field)
	}
	parts, ok := b.texts[entityID]
	if !ok {
		parts = make([]*strings.Builder, len(b.def.Fields))
		for i := range parts {
			parts[i] = &strings.Builder{}
		}
		b.texts[entityID] = parts
		b.order = append(b.order, entityID)
	}
	if parts[fi].Len() > 0 {
		parts[fi].WriteByte('\n')
	}
	parts[fi].WriteString(text)
	return nil
}

// Build seals the accumulated entities into a searchable index.
func (b *Builder) Build() (*Index, error) {
	fields := make([]textindex.Field, len(b.def.Fields))
	for i, f := range b.def.Fields {
		fields[i] = textindex.Field{Name: f.Name, Weight: f.Weight}
	}
	ti, err := textindex.New(fields...)
	if err != nil {
		return nil, err
	}
	for _, id := range b.order {
		parts := b.texts[id]
		vals := make([]string, len(parts))
		for i, sb := range parts {
			vals[i] = sb.String()
		}
		if err := ti.Add(id, vals); err != nil {
			return nil, err
		}
	}
	ti.Finish()
	return &Index{def: b.def, ti: ti}, nil
}

// Index is a sealed entity-search index.
type Index struct {
	def EntityDef
	ti  *textindex.Index
}

// Def returns the entity definition the index was built from.
func (ix *Index) Def() EntityDef { return ix.def }

// Text returns the underlying text index (used by the cloud layer for
// corpus statistics).
func (ix *Index) Text() *textindex.Index { return ix.ti }

// Len returns the number of indexed entities.
func (ix *Index) Len() int { return ix.ti.DocCount() }

// Results is the outcome of a search: the parsed query plus every
// matching entity with its relevance score, best first.
type Results struct {
	Query textindex.Query
	Hits  []textindex.Hit
}

// Total returns the number of matching entities — the "1160 courses
// returned for this search" figure of paper §3.1.
func (r *Results) Total() int { return len(r.Hits) }

// IDs returns all matching entity ids, best first.
func (r *Results) IDs() []int64 {
	out := make([]int64, len(r.Hits))
	for i, h := range r.Hits {
		out[i] = h.DocID
	}
	return out
}

// Top returns at most k leading hits.
func (r *Results) Top(k int) []textindex.Hit {
	if k > len(r.Hits) {
		k = len(r.Hits)
	}
	return r.Hits[:k]
}

// Search runs a keyword query (quoted spans become phrases) and returns
// every match ranked by field-weighted BM25F.
func (ix *Index) Search(query string) *Results {
	q := textindex.ParseQuery(query)
	return &Results{Query: q, Hits: ix.ti.Search(q, 0)}
}

// Refine narrows previous results by one clicked cloud term: multi-word
// terms refine as phrases, single words as keywords — exactly the
// click-to-refine interaction of Figures 3→4. The refined result set is
// always a subset of the original.
func (ix *Index) Refine(prev *Results, term string) *Results {
	q := prev.Query
	next := textindex.Query{
		Keywords: append([]string(nil), q.Keywords...),
		Phrases:  append([]string(nil), q.Phrases...),
	}
	toks := textindex.Tokenize(term)
	switch {
	case len(toks) == 1:
		next.Keywords = append(next.Keywords, toks[0])
	case len(toks) >= 2:
		next.Phrases = append(next.Phrases, textindex.Bigrams(toks)...)
	}
	return &Results{Query: next, Hits: ix.ti.Search(next, 0)}
}

// Count reports how many entities match the query without ranking them.
func (ix *Index) Count(query string) int {
	return ix.ti.Count(textindex.ParseQuery(query))
}
