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
// ratings instead of re-nesting them per request, and a hoisted
// selection g = ? or g <> ? finds its groups in that nesting by binary
// search. And a top over SQL is a LIMIT: top[k] of a subtree that
// compiles to one statement ships as that statement plus LIMIT ?, so the
// DBMS stops at k rows instead of returning everything to be cut.
//
// The extend operator nests each group's pairs as a Vector sorted by
// key, and emits the groups in ascending key order (relation.Compare):
// a similarity finds the keys two vectors share by a merge, and W_Avg
// steps through each reference vector as the target keys ascend, so no
// scorer hashes a key or builds a table of them.
//
// The scoring operators score before they copy. ▷ scores its target rows
// in place and ranks them best-first; a π over it only picks columns,
// blend reads such operands in place through their scores, and a top
// over ▷ or blend tells the operator its k — so the hybrid strategy,
// top[k](blend(π(▷), π(▷))), builds its k output rows and no other.
// RunAnalyze still reports each fused operator on its own line.
// Relations a workflow returns may share Vector cells with the views,
// and rows with the tables (sqlmini hands back stored rows): treat them
// as read-only.
package flexrecs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"courserank/internal/relation"
)

// Vector is a nested set-valued attribute produced by the extend
// operator: a sparse vector of numeric values (e.g. Rating) by key (e.g.
// CourseID), its entries in ascending key order (keyCmp), one entry per
// key. Keys are canonical relation values, int64(1) and float64(1)
// distinct and -0 and 0 one key; a NaN key equals no key, itself
// included, so it may repeat and matches nothing. Every scorer walks
// vectors in key order — a similarity merges two, W_Avg steps through
// each reference — so none hashes a key. Build one with NewVector.
//
// Vectors in a relation a workflow returns may be shared with the views
// they were served from: treat them, like every cell, as read-only.
type Vector []Entry

// Entry is one (key, value) pair of a Vector.
type Entry struct {
	Key   relation.Value
	Value float64
}

// NewVector makes a Vector of entries that arrived in the given order:
// it sorts them by key, stably, and keeps the last value given for a
// repeated key — the later row's rating replaces the earlier one, as ε
// nests them. The keys must be normalized (relation.Normalize). It
// works in place, so entries belongs to the Vector afterwards.
func NewVector(entries []Entry) Vector {
	slices.SortStableFunc(entries, func(a, b Entry) int { return keyCmp(a.Key, b.Key) })
	n := 0
	for _, e := range entries {
		if n > 0 && keyCmp(entries[n-1].Key, e.Key) == 0 && !isNaNKey(e.Key) {
			entries[n-1] = e
			continue
		}
		entries[n] = e
		n++
	}
	return Vector(entries[:n:n])
}

// At returns the value v holds for key, which must be normalized.
func (v Vector) At(key relation.Value) (float64, bool) {
	i, found := slices.BinarySearchFunc(v, key, entryCmp)
	if !found || isNaNKey(key) {
		return 0, false
	}
	return v[i].Value, true
}

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector { return slices.Clone(v) }

// keyCmp orders normalized keys totally, equal exactly where Go's ==
// finds them equal — as a map keyed by them would match them: NULL,
// then bools, int64s, float64s and strings, each kind apart, so 1 and
// 1.0 differ while -0 and 0 do not. The one exception is NaN, which
// equals nothing: keyCmp puts it before every other float64 and calls
// two NaNs equal, so a caller that matches keys must check isNaNKey. It
// orders Vector entries and blend's right keys.
func keyCmp(a, b relation.Value) int {
	if c, ok := intCmp(a, b); ok {
		return c
	}
	if ka, kb := keyKind(a), keyKind(b); ka != kb {
		return cmp.Compare(ka, kb)
	}
	switch x := a.(type) {
	case bool:
		if y := b.(bool); x != y {
			if y {
				return -1
			}
			return 1
		}
	case float64:
		return cmp.Compare(x, b.(float64))
	case string:
		return strings.Compare(x, b.(string))
	}
	return 0
}

// intCmp is keyCmp for a and b when both are int64 (ok) — what nearly
// every key is (student and course ids). Unlike keyCmp it inlines, so
// the loops that compare a key per step (the merge in sim.go, W_Avg's
// walk) call it first and keyCmp only for other kinds.
func intCmp(a, b relation.Value) (c int, ok bool) {
	x, xok := a.(int64)
	y, yok := b.(int64)
	switch {
	case !xok || !yok:
		return 0, false
	case x < y:
		return -1, true
	case x > y:
		return 1, true
	}
	return 0, true
}

func keyKind(v relation.Value) int {
	switch v.(type) {
	case bool:
		return 1
	case int64:
		return 2
	case float64:
		return 3
	case string:
		return 4
	}
	return 0
}

// isNaNKey reports whether k is a float64 NaN, the key that matches
// nothing.
func isNaNKey(k relation.Value) bool {
	f, ok := k.(float64)
	return ok && f != f
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
