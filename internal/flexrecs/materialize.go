package flexrecs

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"courserank/internal/matview"
)

// This file wires the rewriter's materialize steps to the matview
// registry. A matStep caches its child subtree's result as a
// materialized view: the first request registers the view (build = run
// the child), later requests serve the snapshot — single-flighted when
// cold, brought up to date when a dependency changed. Without
// UseMatviews the step is transparent and simply runs its child.

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

// matKey derives the registry key for a matStep: the declared name, a
// short fingerprint of the child subtree's SHAPE (so a reused name over
// a different tree — e.g. a band width baked into an ON clause — cannot
// serve the wrong view), and the subtree's parameter values (so a view
// over a subtree that binds parameters is one view per binding).
// Argument values render with their dynamic type, keeping int64(1) and
// "1" — or differently grouped args that stringify alike — on separate
// views. Unlike shapeKey/gatherShapeArgs — which only see
// sqlable kinds — the walk here spans EVERY operator: materialized
// prefixes routinely hold extend and recommend steps.
func matKey(s *Step) string {
	var shape strings.Builder
	var args []any
	var walk func(*Step)
	walk = func(s *Step) {
		if s == nil {
			return
		}
		fmt.Fprintf(&shape, "%d|%s", s.kind, s.describe())
		shape.WriteByte(0)
		if s.kind == selectStep {
			args = append(args, s.args...)
		}
		walk(s.child)
		walk(s.other)
	}
	walk(s.child)
	h := fnv.New32a()
	h.Write([]byte(shape.String()))
	key := fmt.Sprintf("flex/%s@%08x", s.view, h.Sum32())
	if len(args) > 0 {
		var b strings.Builder
		for _, a := range args {
			fmt.Fprintf(&b, "%T:%v\x00", a, a)
		}
		key += "|" + b.String()
	}
	return key
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
func (e *Engine) viewFor(s *Step) (*matview.View, error) {
	deps := baseTables(s.child)
	if len(deps) == 0 {
		return nil, fmt.Errorf("flexrecs: materialize %q wraps a subtree with no base tables", s.view)
	}
	// The build captures the child tree by reference; template builds
	// construct a fresh immutable tree per request, so the captured one
	// stays valid for the view's lifetime.
	child := s.child
	return e.views.GetOrRegister(matview.Options{
		Name: matKey(s),
		Deps: deps,
		Build: func() (any, error) {
			return e.runStep(child, true)
		},
	})
}

// runMatServe executes a matStep — through the registry when one is
// attached, transparently otherwise — also reporting how the request
// was served (the serve kind, and whether a registry was consulted at
// all) for EXPLAIN ANALYZE's matview annotations. Snapshots are shared
// and immutable: a consumer that only reads takes the snapshot as is;
// one that sorts or truncates in place (private) gets a fresh Relation
// header and row slice. The row cells themselves — Vector maps included
// — are never mutated by any operator.
func (e *Engine) runMatServe(s *Step, private bool) (*Relation, matview.Serve, bool, error) {
	if e.views == nil {
		rel, err := e.runStep(s.child, private)
		return rel, matview.Serve{}, false, err
	}
	v, err := e.viewFor(s)
	if err != nil {
		return nil, matview.Serve{}, false, err
	}
	val, serve, err := v.Get()
	if err != nil {
		return nil, matview.Serve{}, false, err
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
	return rel, serve, true, nil
}

// explainMat renders a matStep for Explain, annotating how a request
// would be served right now: a warm view shows "matview hit" with the
// snapshot's age and freshness, a cold or invalidated one shows the
// build that the next request pays. Peek never builds or counts.
func (e *Engine) explainMat(s *Step) string {
	line := s.describe()
	if e.views == nil {
		return line + " — no registry (transparent)"
	}
	v, ok := e.views.View(matKey(s))
	if !ok {
		return line + " — cold (view not built yet)"
	}
	_, serve, ok := v.Peek()
	if !ok {
		return line + " — cold (view not built yet)"
	}
	state := "fresh"
	if serve.Kind != matview.ServeFresh {
		state = "stale"
	}
	return fmt.Sprintf("%s — matview hit (age=%v, %s)", line, serve.Age.Round(time.Millisecond), state)
}
