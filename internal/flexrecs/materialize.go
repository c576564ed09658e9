package flexrecs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"courserank/internal/matview"
	"courserank/internal/relation"
)

// This file wires the rewriter's materialize steps to the matview
// registry. A matStep caches its child subtree's result as a
// materialized view: the first request registers the view (build = run
// the child), later requests serve the snapshot — single-flighted when
// cold, brought up to date when a dependency changed. Without
// UseMatviews the step is transparent and simply runs its child.
//
// A view is keyed by its subtree's exact shape and bound values (matKey)
// and builds from a copy of the plan subtree with notes of its own
// (unplan). One over an ε whose operand is a chain of σ/π over one base
// table is MAINTAINED (matview's Keys and Patch): a committed row change
// names the groups it touches by the group column's value, and the next
// read recomputes just those groups — σ[g = ?] of the operand, planned
// once per view and bound to each key, streamed through a transient
// pipeline and nested as its rows arrive — and splices them into a copy
// of the snapshot's row list, which ε keeps in ascending group order.
// Such a view builds and patches from the base tables it fingerprints,
// also on a sharded site. Every other view rebuilds when a dependency
// moves.

// UseMatviews attaches a materialized-view registry: the rewriter
// (rewrite.go), which needs somewhere to put its views, starts
// rewriting, and the views it places cache through the registry. Call it
// at wiring time, before the engine serves requests — the field is not
// synchronized against concurrent Run calls. The Site facade shares one
// registry across FlexRecs and the baseline recommenders.
func (e *Engine) UseMatviews(reg *matview.Registry) { e.views = reg }

// Matviews returns the attached registry, nil when none.
func (e *Engine) Matviews() *matview.Registry { return e.views }

// MatStats reports how materialize steps were served: a hit returned
// the snapshot, and a miss blocked on a (single-flighted) build.
// Engines without a registry report zeros.
func (e *Engine) MatStats() (hits, misses uint64) {
	return e.matHits.Load(), e.matMisses.Load()
}

// matKey derives a matStep's registry key: the declared name, a hash of
// its child subtree's exact shape — every field sameShape compares,
// blend weights by their bits — and the values the subtree binds, b's
// for a plan subtree, node by node in preorder with their dynamic type.
// So a reused name over a different tree (a band width baked into an ON
// clause, a blend weight of 0.201 beside 0.2) is another view, and a
// view over a subtree that binds values is one view per binding, with
// int64(1), float64(1) and "1" apart. The walk spans every operator:
// views routinely hold ε and ▷ steps. A plan computes the key once for a
// view whose subtree binds nothing (viewKey).
func matKey(s *Step, b binding) string {
	h := shapeHashSeed
	var vals strings.Builder
	var walk func(*Step)
	walk = func(s *Step) {
		if s == nil {
			h.byte(0)
			return
		}
		h.fields(s)
		if v := b.of(s); carriesValues(v) {
			for _, a := range v.args {
				fmt.Fprintf(&vals, "%T:%v\x00", a, a)
			}
			if v.kind != selectStep {
				fmt.Fprintf(&vals, "k:%d\x00", v.k)
			}
			vals.WriteByte(1)
		}
		walk(s.child)
		walk(s.other)
	}
	walk(s.child)
	key := fmt.Sprintf("flex/%s@%016x", s.view, uint64(h))
	if vals.Len() > 0 {
		key += "|" + vals.String()
	}
	return key
}

// viewKey is a matStep's registry key: the one its note keeps, else
// matKey's.
func viewKey(s *Step, b binding) string {
	if s.plan.viewKey != "" {
		return s.plan.viewKey
	}
	return matKey(s, b)
}

// baseTables collects the distinct base-table names a subtree reads —
// the view's dependency set — stripping relation aliases ("Courses c").
func baseTables(s *Step) []string {
	seen := map[string]bool{}
	var walk func(*Step)
	walk = func(s *Step) {
		if s == nil {
			return
		}
		if s.kind == relStep {
			name := s.table
			if i := strings.IndexAny(name, " \t"); i >= 0 {
				name = name[:i]
			}
			seen[name] = true
		}
		walk(s.child)
		walk(s.other)
	}
	walk(s)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// viewFor resolves (lazily registering) the matview behind a matStep.
func (e *Engine) viewFor(s *Step, b binding) (*matview.View, error) {
	name := viewKey(s, b)
	if v, ok := e.views.View(name); ok {
		return v, nil
	}
	// The build captures a workflow of its own: the plan's subtree, copied
	// with this request's values (unplan), which the view's key names.
	child := unplan(s.child, b)
	deps := baseTables(child)
	if len(deps) == 0 {
		return nil, fmt.Errorf("flexrecs: materialize %q wraps a subtree with no base tables", s.view)
	}
	o := matview.Options{
		Name: name,
		Deps: deps,
		Build: func() (any, error) {
			return e.runStep(child, nil, true)
		},
	}
	if m := e.maintainedExtend(child, deps[0]); m != nil {
		o.Build, o.Keys, o.Patch = m.build, m.keys, m.patch
	}
	return e.views.GetOrRegister(o)
}

// extendView is the maintenance of one view over ε[g](x₀), x₀ a chain of
// σ/π over one base table: the view's keys are g's values.
type extendView struct {
	base  *Engine // runs x₀'s statements on the base tables
	ext   *Step   // the ε
	group *Step   // σ[g = ?](x₀), its σ bound to a key (slot 0)
	col   int     // g's position in the base table's rows
}

// maintainedExtend returns the maintenance of a view over child, or nil
// when the view cannot be maintained: child is not an ε over a
// single-table spine, or its group column is not a column of that table.
// The column's position is read once, from the table the registry sees
// at registration; a table dropped and created again under the view
// (RefreshDerived's EnrollmentPoints) comes back with the same columns.
func (e *Engine) maintainedExtend(child *Step, table string) *extendView {
	if child.kind != extendStep || !singleTableSpine(child.child) {
		return nil
	}
	t, ok := e.views.DB().Table(table)
	if !ok {
		return nil
	}
	col, ok := t.Schema().Index(child.groupBy)
	if !ok {
		return nil
	}
	base := e
	if e.base != nil {
		base = e.base
	}
	group := &Step{kind: selectStep, cond: child.groupBy + " = ?", child: child.child, plan: &planNote{slot: 0}}
	return &extendView{base: base, ext: child, group: group, col: col}
}

func (m *extendView) build() (any, error) { return m.base.runStep(m.ext, nil, true) }

// keys names the groups a row change touches: the group value the row
// had and the one it has.
func (m *extendView) keys(_ string, _ relation.MutKind, before, after relation.Row) ([]any, bool) {
	var keys []any
	if before != nil && before[m.col] != nil {
		keys = append(keys, before[m.col])
	}
	if after != nil && after[m.col] != nil && (before == nil || after[m.col] != before[m.col]) {
		keys = append(keys, after[m.col])
	}
	return keys, true
}

// patch returns prev with every listed group recomputed from the base
// table: replaced, inserted at its place in the key order, or removed
// when no row of it is left. prev and its rows are shared with readers
// and stay untouched; the result shares the rows it did not recompute.
func (m *extendView) patch(prev any, keys []any) (any, error) {
	old := prev.(*Relation)
	rows := slices.Clone(old.Rows)
	for _, k := range keys {
		fresh, err := m.nestGroup(k)
		if err != nil {
			return nil, err
		}
		at, found := slices.BinarySearchFunc(rows, k, func(row []any, k any) int {
			return relation.Compare(row[0], k)
		})
		switch {
		case fresh != nil && found:
			rows[at] = fresh
		case fresh != nil:
			rows = slices.Insert(rows, at, fresh)
		case found:
			rows = slices.Delete(rows, at, at+1)
		}
	}
	return &Relation{Cols: old.Cols, Rows: rows}, nil
}

// nestGroup recomputes group k of the nesting: it streams σ[g = k](x₀)
// and folds each row into the group's Vector as it arrives, by ε's own
// per-row rule (extendCell). It returns the group's (g, Vector) row, nil
// when no row of the group adds to the nesting. Rows arrive in slot
// order, as the build's scan reads them, so a patched group equals a
// built one exactly.
func (m *extendView) nestGroup(k any) ([]any, error) {
	rows, err := m.base.streamSQL(m.group, binding{{args: []any{k}}})
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	gi, ki, vi, err := extendCols(rows.Columns(), m.ext.groupBy, m.ext.keyCol, m.ext.valCol)
	if err != nil {
		return nil, err
	}
	cells := make([]any, len(rows.Columns()))
	dest := make([]any, len(cells))
	for i := range cells {
		dest[i] = &cells[i]
	}
	var (
		gkey    relation.Value
		entries []Entry
	)
	for rows.Next() {
		if err := rows.Scan(dest...); err != nil {
			return nil, err
		}
		g, key, val, ok, err := extendCell(cells[gi], cells[ki], cells[vi], m.ext.valCol)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if entries == nil {
			gkey = g
		}
		entries = append(entries, Entry{Key: key, Value: val})
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	if entries == nil {
		return nil, nil
	}
	return []any{gkey, NewVector(entries)}, nil
}

// runMatServe executes a matStep — through the registry when one is
// attached, transparently otherwise — also reporting how a registry
// served it, for EXPLAIN ANALYZE's matview annotations. Snapshots are
// shared and immutable: a consumer that only reads takes the snapshot as
// is; one that sorts or truncates in place (private) gets a fresh
// Relation header and row slice. The row cells themselves — Vector maps included
// — are never mutated: not by an operator, and not by a patch, which
// nests a new Vector for each group it recomputes and shares every
// other row with the snapshot it started from.
func (e *Engine) runMatServe(s *Step, b binding, private bool) (*Relation, matview.Serve, error) {
	if e.views == nil {
		rel, err := e.runStep(s.child, b, private)
		return rel, matview.Serve{}, err
	}
	v, err := e.viewFor(s, b)
	if err != nil {
		return nil, matview.Serve{}, err
	}
	val, serve, err := v.Get()
	if err != nil {
		return nil, matview.Serve{}, err
	}
	if serve.Kind == matview.ServeFresh {
		e.matHits.Add(1)
	} else {
		e.matMisses.Add(1)
	}
	rel := val.(*Relation)
	if private {
		rel = &Relation{
			Cols: append([]string(nil), rel.Cols...),
			Rows: append([][]any(nil), rel.Rows...),
		}
	}
	return rel, serve, nil
}

// explainMat renders a matStep for Explain, annotating how a request
// would be served right now: a warm view shows "matview hit" with the
// snapshot's age and freshness — for a stale one, whether the next read
// patches or rebuilds — and a cold or invalidated one shows the build
// that the next request pays. Peek never builds or counts.
func (e *Engine) explainMat(s *Step, b binding) string {
	line := s.describe(b)
	if e.views == nil {
		return line + " — no registry (transparent)"
	}
	v, ok := e.views.View(viewKey(s, b))
	if !ok {
		return line + " — cold (view not built yet)"
	}
	_, serve, ok := v.Peek()
	if !ok {
		if v.Stats().Refreshes > 0 {
			return line + " — invalidated, next read rebuilds"
		}
		return line + " — cold (view not built yet)"
	}
	state := "fresh"
	switch {
	case serve.Kind == matview.ServeFresh:
	case v.Maintained():
		state = "stale, next read patches"
	default:
		state = "stale, next read rebuilds"
	}
	return fmt.Sprintf("%s — matview hit (age=%v, %s)", line, serve.Age.Round(time.Millisecond), state)
}
