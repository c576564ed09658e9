// Package flexrecs implements the paper's FlexRecs engine (§3.2):
// recommendation strategies expressed declaratively as workflows over
// structured data. A workflow combines classical relational operators
// (select σ, project π, join) with an extend operator (ε) that nests a
// set of key/value pairs as a vector-valued attribute, and a special
// recommend operator (▷) that ranks one set of tuples by comparing them
// to another set using a pluggable similarity function (Jaccard, Pearson,
// cosine, inverse Euclidean, weighted average).
//
// Decoupling strategy definition from execution lets new recommendation
// types be defined without touching engine code, and lets end users pick
// and personalize strategies. Relational subtrees of a workflow are
// compiled into SQL statements executed by the conventional DBMS
// (package sqlmini); extend, recommend and post-filters over nested
// attributes run as external functions — exactly the hybrid execution
// the paper describes.
//
// The tree a template draws is not necessarily the tree that runs: on
// an engine with a matview registry, Run, Explain and RunAnalyze first
// pass it through a small rewriter (rewrite.go) that moves selections on
// an extend's group key above the extend and materializes every
// parameter-free extend and ▷/blend operand as a shared, version-keyed
// view — an extend over one table maintained per group, so a write
// re-nests only the groups it touches. Figure 5(b), drawn with its
// selections below the extends, so reads one nesting of everybody's
// ratings instead of re-nesting them per request. And a top over SQL is a LIMIT: top[k] of a subtree that
// compiles to one statement ships as that statement plus LIMIT ?, so the
// DBMS stops at k rows instead of returning everything to be cut.
//
// The scoring operators score before they copy. ▷ scores its target rows
// in place and ranks them best-first; a π over it only picks columns,
// blend reads such operands in place through their scores, and a top
// over ▷ or blend tells the operator its k — so the hybrid strategy,
// top[k](blend(π(▷), π(▷))), builds its k output rows and no other.
// RunAnalyze still reports each fused operator on its own line.
// Relations a workflow returns may share Vector cells with the views:
// treat them as read-only.
package flexrecs

import (
	"fmt"
	"strings"

	"courserank/internal/relation"
)

// Vector is a nested set-valued attribute produced by the extend
// operator: a sparse map from key (e.g. CourseID) to numeric value
// (e.g. Rating). Keys are canonical relation values.
type Vector map[relation.Value]float64

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	for k, x := range v {
		out[k] = x
	}
	return out
}

// Relation is a materialized intermediate result of a workflow. Cells
// hold either scalar relation values or Vector attributes created by
// extend.
type Relation struct {
	Cols []string
	Rows [][]any
}

// Col returns the position of the named column, case-insensitively.
func (r *Relation) Col(name string) (int, bool) { return colIndex(r.Cols, name) }

// colIndex is the position of the first of cols that equals name,
// case-insensitively.
func colIndex(cols []string, name string) (int, bool) {
	for i, c := range cols {
		if strings.EqualFold(c, name) {
			return i, true
		}
	}
	return 0, false
}

// MustCol is Col that panics on a missing column; for callers that just
// constructed the relation.
func (r *Relation) MustCol(name string) int {
	i, ok := r.Col(name)
	if !ok {
		panic(fmt.Sprintf("flexrecs: no column %q in %v", name, r.Cols))
	}
	return i
}

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// Strings renders one row for display.
func (r *Relation) Strings(i int) []string {
	out := make([]string, len(r.Cols))
	for j, v := range r.Rows[i] {
		switch x := v.(type) {
		case Vector:
			out[j] = fmt.Sprintf("<vector:%d>", len(x))
		default:
			out[j] = relation.Format(x)
		}
	}
	return out
}
