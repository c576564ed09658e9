package flexrecs

import (
	"fmt"
	"strings"
	"time"

	"courserank/internal/matview"
	"courserank/internal/sqlmini"
)

// EXPLAIN ANALYZE for workflows: the workflow executes for real and
// the report is Explain's operator tree annotated with per-step
// actuals. SQL-compiled subtrees run through the backend's analyze
// path when it has one — single-node statements and cluster statements
// both do — so their lines carry the fully annotated physical plan
// (per-operator rows/batches/time, shard fan-out, short-circuit).
// Materialized prefixes report how THIS request was served: a matview
// hit with the snapshot's age, or the build the view paid. Step times
// are inclusive of the step's operands, matching the SQL layer's
// convention.

// queryAnalyzer is the optional analyze surface of a PreparedQuery.
// *sqlmini.Stmt and *shard.Stmt both satisfy it; a backend whose
// statements don't still analyzes, just without per-operator plans.
type queryAnalyzer interface {
	QueryAnalyze(args ...any) (*sqlmini.Result, string, error)
}

// analyzeNode is one rendered line of the report plus its children —
// built bottom-up because a step's actuals are known only after its
// subtree ran.
type analyzeNode struct {
	line     string
	sub      []string // extra own lines (indented plan text)
	children []*analyzeNode
}

func (n *analyzeNode) render(depth int, b *strings.Builder) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s\n", indent, n.line)
	for _, s := range n.sub {
		fmt.Fprintf(b, "%s  | %s\n", indent, s)
	}
	for _, c := range n.children {
		c.render(depth+1, b)
	}
}

// RunAnalyze validates and executes a workflow with instrumentation,
// returning the result and the annotated report.
func (e *Engine) RunAnalyze(w *Step) (*Relation, string, error) {
	if err := w.Validate(); err != nil {
		return nil, "", err
	}
	t0 := time.Now()
	p, bound := e.plan(w)
	rel, root, err := e.analyzeStep(p, bound, true)
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	root.render(0, &b)
	fmt.Fprintf(&b, "analyzed workflow: %d rows out, total %s\n",
		len(rel.Rows), time.Since(t0).Round(time.Microsecond))
	return rel, b.String(), nil
}

func (e *Engine) analyzeStep(s *Step, b binding, private bool) (*Relation, *analyzeNode, error) {
	if sqlable(s) {
		return e.analyzeSQL(s, b)
	}
	if s.kind == matStep {
		return e.analyzeMat(s, b, private)
	}
	node := &analyzeNode{}
	t0 := time.Now()
	rel, err := e.applyStep(s, b, analyzeOperands{e, b, node})
	if err != nil {
		return nil, nil, err
	}
	node.line = fmt.Sprintf("%s (actual rows=%d time=%s)",
		s.explainLine(b), len(rel.Rows), time.Since(t0).Round(time.Microsecond))
	return rel, node, nil
}

// analyzeOperands runs a step's operands instrumented, each one's report
// node a child of node. An operator that runs fused into its consumer
// builds no rows of its own, so its node says what it read instead of
// rows out, and the report keeps every line Explain prints.
type analyzeOperands struct {
	e    *Engine
	b    binding
	node *analyzeNode
}

func (a analyzeOperands) run(s *Step, private bool) (*Relation, error) {
	rel, child, err := a.e.analyzeStep(s, a.b, private)
	if err != nil {
		return nil, err
	}
	a.node.children = append(a.node.children, child)
	return rel, nil
}

func (a analyzeOperands) fuse(s, into *Step) (operands, func(rows, of int)) {
	n := &analyzeNode{}
	a.node.children = append(a.node.children, n)
	consumer := into.describe(a.b)
	if into.kind == blendStep {
		consumer = "blend"
	}
	return analyzeOperands{a.e, a.b, n}, func(rows, of int) {
		what := "read"
		switch s.kind {
		case recommendStep:
			what = "scored"
		case blendStep:
			what = "ranked"
		case selectStep:
			n.line = fmt.Sprintf("%s (fused into %s: kept %d of %d)", s.explainLine(a.b), consumer, rows, of)
			return
		}
		n.line = fmt.Sprintf("%s (fused into %s: %s %d)", s.explainLine(a.b), consumer, what, rows)
	}
}

// analyzeSQL runs one compiled subtree, preferring the backend
// statement's analyze path for the annotated physical plan.
func (e *Engine) analyzeSQL(s *Step, b binding) (*Relation, *analyzeNode, error) {
	cs, err := e.compiled(s)
	if err != nil {
		return nil, nil, err
	}
	args := bindArgs(cs.binds, b)
	var res *sqlmini.Result
	var plan string
	t0 := time.Now()
	if qa, ok := cs.stmt.(queryAnalyzer); ok {
		res, plan, err = qa.QueryAnalyze(args...)
	} else {
		res, err = cs.stmt.Query(args...)
	}
	d := time.Since(t0)
	if err != nil {
		return nil, nil, fmt.Errorf("flexrecs: executing %q: %w", cs.sql, err)
	}
	rel := relationOf(res)
	node := &analyzeNode{line: fmt.Sprintf("%s (actual rows=%d time=%s)",
		sqlLine(cs.sql, args), len(rel.Rows), d.Round(time.Microsecond))}
	if plan != "" {
		node.sub = strings.Split(strings.TrimRight(plan, "\n"), "\n")
	}
	return rel, node, nil
}

// analyzeMat runs one materialize step, annotating how it was served.
// A hit never ran the child, so the line is the whole story — a hit that
// brought a maintained view current also says how many keys it
// recomputed; a build ran the child uninstrumented inside the registry's
// single-flight, and the line says what that cost.
func (e *Engine) analyzeMat(s *Step, b binding, private bool) (*Relation, *analyzeNode, error) {
	t0 := time.Now()
	rel, serve, err := e.runMatServe(s, b, private)
	if err != nil {
		return nil, nil, err
	}
	d := time.Since(t0).Round(time.Microsecond)
	var how string
	switch {
	case e.views == nil:
		how = "no registry (transparent, ran child)"
	case serve.Kind == matview.ServeFresh && serve.Patched > 0:
		keys := "keys"
		if serve.Patched == 1 {
			keys = "key"
		}
		how = fmt.Sprintf("matview hit (age=%v, fresh, patched %d %s)", serve.Age.Round(time.Millisecond), serve.Patched, keys)
	case serve.Kind == matview.ServeFresh:
		how = fmt.Sprintf("matview hit (age=%v, fresh)", serve.Age.Round(time.Millisecond))
	default:
		how = "matview miss (built by this request)"
	}
	node := &analyzeNode{line: fmt.Sprintf("%s — %s (actual rows=%d time=%s)", s.describe(b), how, len(rel.Rows), d)}
	return rel, node, nil
}
