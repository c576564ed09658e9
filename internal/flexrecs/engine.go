package flexrecs

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"courserank/internal/matview"
	"courserank/internal/relation"
	"courserank/internal/sqlmini"
)

// Engine executes workflows. Purely relational subtrees (σ, π, ⋈ over
// base tables) are compiled into single SQL statements run by the
// conventional DBMS; extend, recommend and residual operators over
// nested attributes execute as external functions over materialized
// results — the hybrid strategy of paper §3.2.
//
// A strategy is defined once and personalized per request (§2.1): a
// template builds a fresh Step tree per request, but the tree's shape —
// and so its rewrite and its SQL text — is the same every time; only the
// σ arguments and the top k change. So every engine runs each shape's
// plan (plan.go), binding each request's values into it, and a plan's
// sqlable node keeps its prepared statement and the order its
// placeholders bind in: per request only binding and execution remain.
type Engine struct {
	sql     *sqlmini.Engine
	backend Backend // executes compiled statements; defaults to the SQL engine

	plans planCache // workflow shape → plan

	compileHits   atomic.Uint64
	compileMisses atomic.Uint64

	// views backs materialize steps (materialize.go); nil = transparent.
	views     *matview.Registry
	matHits   atomic.Uint64
	matMisses atomic.Uint64

	// base runs statements on the SQL engine's own tables when the
	// backend is elsewhere (a shard cluster): maintained views build and
	// patch from the tables they fingerprint. nil = the engine itself.
	base *Engine
}

// PreparedQuery is one prepared SELECT a backend hands back:
// bind-and-execute, returning the materialized result. *sqlmini.Stmt
// satisfies it, as does the shard layer's cluster statement.
type PreparedQuery interface {
	Query(args ...any) (*sqlmini.Result, error)
}

// Backend is where compiled workflow statements execute. The default
// backend is the engine's own SQL engine; a sharded site substitutes
// its scatter-gather cluster, so every compiled subtree routes —
// shard-key-pinned fragments to one shard, the rest fanned out and
// merged — without the workflow layer knowing.
type Backend interface {
	Prepare(sql string) (PreparedQuery, error)
	Explain(sql string, args ...any) (string, error)
}

// sqlBackend adapts a *sqlmini.Engine to the Backend seam.
type sqlBackend struct{ e *sqlmini.Engine }

func (b sqlBackend) Prepare(sql string) (PreparedQuery, error) { return b.e.Prepare(sql) }
func (b sqlBackend) Explain(sql string, args ...any) (string, error) {
	return b.e.Explain(sql, args...)
}

// compiledSQL is a sqlable plan node's statement: its text, the prepared
// statement, and the nodes whose values bind its placeholders, in the
// order the placeholders appear in the text (render).
type compiledSQL struct {
	sql   string
	stmt  PreparedQuery
	binds []*Step
}

// compiledCacheMax bounds the plan cache. Deployed sites register a
// fixed handful of strategies, so the bound only guards degenerate
// workloads; past it, a new shape is planned and compiled per call.
const compiledCacheMax = 256

// NewEngine builds an engine over the database with its own SQL engine
// (and therefore its own plan cache).
func NewEngine(db *relation.DB) *Engine {
	return NewEngineOver(sqlmini.New(db))
}

// NewEngineOver builds an engine over an existing SQL engine, sharing
// its plan cache — the wiring the Site facade uses so FlexRecs, the
// baseline recommenders and ad-hoc queries all reuse one plan per
// statement text.
func NewEngineOver(sql *sqlmini.Engine) *Engine {
	return &Engine{sql: sql, backend: sqlBackend{sql}}
}

// NewEngineWithBackend builds an engine whose compiled statements
// execute on backend instead of the SQL engine directly. The SQL
// engine is still required: expression parsing, step-wise residual
// evaluation and ForceScan parity run against it.
func NewEngineWithBackend(sql *sqlmini.Engine, backend Backend) *Engine {
	return &Engine{sql: sql, backend: backend, base: NewEngineOver(sql)}
}

// ForceScan returns a workflow engine whose compiled statements execute
// with the naive full-scan/nested-loop strategy — the forced side of
// planner parity tests. The returned engine shares the database and is
// safe to use concurrently with the planning engine. Forced execution
// always runs on the local SQL engine, even for cluster-backed engines.
func (e *Engine) ForceScan() *Engine {
	forced := e.sql.ForceScan()
	return &Engine{sql: forced, backend: sqlBackend{forced}}
}

// SQL exposes the underlying SQL engine (used by tests and the facade).
func (e *Engine) SQL() *sqlmini.Engine { return e.sql }

// Run validates and executes a workflow, returning its materialized
// result. What executes is the rewritten tree (rewrite.go), planned once
// per workflow shape and run with w's own values (plan.go): the same
// rows in the same order, computed the way the engine chooses.
func (e *Engine) Run(w *Step) (*Relation, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p, b := e.plan(w)
	return e.runStep(p, b, true)
}

// sqlable reports whether the subtree compiles to a single SQL
// statement. An OrderBy over a sqlable subtree compiles too — as the
// statement's ORDER BY clause, where the planner can elide it against
// an ordered index — but only an OUTERMOST one: SQL has a single
// ORDER BY, and an order underneath a join or another order cannot be
// expressed in it (compiling would silently drop or hoist the inner
// sort), so those trees keep the step-wise path, which sorts the
// operand before the enclosing operator consumes it.
func sqlable(s *Step) bool {
	if s.kind == limitStep {
		// A LIMIT closes a statement: nothing compiles above it.
		return sqlableBody(s.child)
	}
	return sqlableBody(s)
}

func sqlableBody(s *Step) bool {
	switch s.kind {
	case relStep:
		return true
	case selectStep, projectStep:
		return sqlableBody(s.child)
	case joinStep:
		return sqlableBody(s.child) && sqlableBody(s.other) &&
			!containsOrder(s.child) && !containsOrder(s.other)
	case orderStep:
		return sqlableBody(s.child) && !containsOrder(s.child)
	}
	return false
}

// containsOrder reports whether a sqlable subtree holds an orderStep.
func containsOrder(s *Step) bool {
	switch s.kind {
	case orderStep:
		return true
	case selectStep, projectStep:
		return containsOrder(s.child)
	case joinStep:
		return containsOrder(s.child) || containsOrder(s.other)
	}
	return false
}

// sqlParts accumulates the pieces of a compiled statement.
type sqlParts struct {
	from  string   // "T" or "T JOIN U ON ... JOIN V ON ..."
	conds []*Step  // the σs, outermost first
	proj  []string // outermost projection wins; empty = *
	order *Step    // the ORDER BY, if any
	limit *Step    // the LIMIT ?, if any
}

// gather walks a sqlable subtree, collecting FROM/WHERE/projection.
func gather(s *Step, p *sqlParts) error {
	switch s.kind {
	case relStep:
		p.from = s.table
		return nil
	case selectStep:
		p.conds = append(p.conds, s)
		return gather(s.child, p)
	case projectStep:
		if len(p.proj) == 0 {
			p.proj = s.cols
		}
		return gather(s.child, p)
	case joinStep:
		if err := gather(s.child, p); err != nil {
			return err
		}
		var right sqlParts
		if err := gather(s.other, &right); err != nil {
			return err
		}
		if strings.Contains(right.from, " JOIN ") {
			return fmt.Errorf("flexrecs: right side of a join must be a base table")
		}
		p.from += " JOIN " + right.from + " ON " + s.on
		p.conds = append(p.conds, right.conds...)
		return nil
	case orderStep:
		p.order = s
		return gather(s.child, p)
	case limitStep:
		p.limit = s
		return gather(s.child, p)
	}
	return fmt.Errorf("flexrecs: step %s is not SQL-compilable", s.describe(nil))
}

// render writes a sqlable subtree's statement: its text, and the nodes
// whose values bind its placeholders — each σ's arguments, a limit's k —
// in the order the placeholders appear in the text.
func render(s *Step) (string, []*Step, error) {
	var p sqlParts
	if err := gather(s, &p); err != nil {
		return "", nil, err
	}
	sel := "*"
	if len(p.proj) > 0 {
		sel = strings.Join(p.proj, ", ")
	}
	sql := "SELECT " + sel + " FROM " + p.from
	// Conditions were gathered outermost-first; apply innermost first
	// for readability (order is irrelevant under AND).
	binds := p.conds
	slices.Reverse(binds)
	if len(binds) > 0 {
		conds := make([]string, len(binds))
		for i, c := range binds {
			conds[i] = c.cond
		}
		sql += " WHERE " + strings.Join(conds, " AND ")
	}
	if p.order != nil {
		sql += " ORDER BY " + p.order.orderCol
		if p.order.desc {
			sql += " DESC"
		}
	}
	if p.limit != nil {
		sql += " LIMIT ?"
		binds = append(binds, p.limit)
	}
	return sql, binds, nil
}

// bindArgs returns the values b binds to a statement's placeholders, in
// the order render recorded.
func bindArgs(binds []*Step, b binding) []any {
	var args []any
	for _, s := range binds {
		if v := b.of(s); s.kind == limitStep {
			args = append(args, int64(v.k))
		} else {
			args = append(args, v.args...)
		}
	}
	return args
}

// CompileSQL renders a sqlable subtree as its SQL statement and its
// arguments in placeholder order. It is exported so tests can show the
// exact statements shipped to the DBMS.
func CompileSQL(s *Step) (string, []any, error) {
	sql, binds, err := render(s)
	return sql, bindArgs(binds, nil), err
}

// compiled returns a sqlable plan node's statement, compiled and
// prepared on the node's first run, which counts a miss; every later run
// counts a hit.
func (e *Engine) compiled(s *Step) (*compiledSQL, error) {
	if cs := s.plan.compiled.Load(); cs != nil {
		e.compileHits.Add(1)
		return cs, nil
	}
	e.compileMisses.Add(1)
	sql, binds, err := render(s)
	if err != nil {
		return nil, err
	}
	st, err := e.backend.Prepare(sql)
	if err != nil {
		return nil, fmt.Errorf("flexrecs: compiling %q: %w", sql, err)
	}
	cs := &compiledSQL{sql: sql, stmt: st, binds: binds}
	s.plan.compiled.Store(cs)
	return cs, nil
}

// CompileStats reports the statement cache's counters: a hit means a
// request skipped SQL rendering and statement lookup entirely, going
// straight to bind + execute.
func (e *Engine) CompileStats() (hits, misses uint64) {
	return e.compileHits.Load(), e.compileMisses.Load()
}

// sqlLine renders a statement and its arguments as Explain and Analyze
// print them.
func sqlLine(sql string, args []any) string {
	if len(args) > 0 {
		return fmt.Sprintf("SQL> %s  -- args %v", sql, args)
	}
	return "SQL> " + sql
}

// relationOf takes a statement's result as a Relation, sharing its rows.
func relationOf(res *sqlmini.Result) *Relation {
	rel := &Relation{Cols: res.Columns, Rows: make([][]any, len(res.Rows))}
	for i, r := range res.Rows {
		rel.Rows[i] = r
	}
	return rel
}

func (e *Engine) runSQL(s *Step, b binding) (*Relation, error) {
	cs, err := e.compiled(s)
	if err != nil {
		return nil, err
	}
	res, err := cs.stmt.Query(bindArgs(cs.binds, b)...)
	if err != nil {
		return nil, fmt.Errorf("flexrecs: executing %q: %w", cs.sql, err)
	}
	return relationOf(res), nil
}

// streamSQL runs a sqlable plan subtree, with the values b binds, on the
// engine's own SQL engine as a transient pipeline: its rows arrive one
// at a time, and none is copied into a result.
func (e *Engine) streamSQL(s *Step, b binding) (*sqlmini.Rows, error) {
	cs, err := e.compiled(s)
	if err != nil {
		return nil, err
	}
	st, ok := cs.stmt.(*sqlmini.Stmt)
	if !ok {
		return nil, fmt.Errorf("flexrecs: %q runs on a backend that does not stream", cs.sql)
	}
	rows, err := st.QueryRows(bindArgs(cs.binds, b)...)
	if err != nil {
		return nil, fmt.Errorf("flexrecs: executing %q: %w", cs.sql, err)
	}
	return rows, nil
}

// runStep executes a subtree, a plan's with the values b binds. private
// asks for a relation the caller may edit in place (sort, truncate);
// without it a materialize step hands over the view's shared snapshot
// itself, which must only be read. Every other step returns a fresh
// relation either way.
func (e *Engine) runStep(s *Step, b binding, private bool) (*Relation, error) {
	if sqlable(s) {
		return e.runSQL(s, b)
	}
	if s.kind == matStep {
		rel, _, err := e.runMatServe(s, b, private)
		return rel, err
	}
	return e.applyStep(s, b, plainOperands{e, b})
}

// operands is how applyStep obtains what an operator reads: Run's plain
// recursion, or RunAnalyze's instrumented one (analyze.go).
type operands interface {
	// run executes a subtree; private as for runStep.
	run(s *Step, private bool) (*Relation, error)
	// fuse announces that s executes inside its consumer into instead of
	// as a step of its own: in obtains s's operands, and done reports how
	// many rows s read — for a σ, how many it kept of how many (other
	// operators pass of = 0).
	fuse(s, into *Step) (in operands, done func(rows, of int))
}

type plainOperands struct {
	e *Engine
	b binding
}

func (p plainOperands) run(s *Step, private bool) (*Relation, error) {
	return p.e.runStep(s, p.b, private)
}
func (p plainOperands) fuse(_, _ *Step) (operands, func(int, int)) { return p, func(int, int) {} }

// applyStep executes one non-sqlable operator other than materialize,
// with the values b binds, obtaining operand relations through ops.
// Operators that only read their operands (all but the in-place top and
// order) take them shared.
func (e *Engine) applyStep(s *Step, b binding, ops operands) (*Relation, error) {
	switch s.kind {
	case selectStep:
		child, err := ops.run(s.child, false)
		if err != nil {
			return nil, err
		}
		args := b.of(s).args
		if lo, hi, ok := groupRun(s, args, child); ok {
			out := &Relation{Cols: child.Cols}
			if s.keyOp == keyEq {
				out.Rows = append(out.Rows, child.Rows[lo:hi]...)
			} else if n := len(child.Rows) - (hi - lo); n > 0 {
				out.Rows = append(append(make([][]any, 0, n), child.Rows[:lo]...), child.Rows[hi:]...)
			}
			return out, nil
		}
		keep, n, err := selectKeep(s, args, child)
		if err != nil {
			return nil, err
		}
		// Size the output exactly: a selection hoisted above a shared
		// nesting keeps nearly every row (SuID <> ?) or nearly none
		// (SuID = ?), and growing by doubling costs the former twice the
		// slice it ends up with.
		out := &Relation{Cols: child.Cols}
		if n > 0 {
			out.Rows = make([][]any, 0, n)
		}
		for i, ok := range keep {
			if ok {
				out.Rows = append(out.Rows, child.Rows[i])
			}
		}
		return out, nil

	case projectStep:
		child, err := ops.run(s.child, false)
		if err != nil {
			return nil, err
		}
		idx := make([]int, len(s.cols))
		for i, c := range s.cols {
			ci, ok := child.Col(c)
			if !ok {
				return nil, fmt.Errorf("flexrecs: project: no column %q", c)
			}
			idx[i] = ci
		}
		out := &Relation{Cols: append([]string(nil), s.cols...), Rows: make([][]any, len(child.Rows))}
		for i, row := range child.Rows {
			nr := make([]any, len(idx))
			for j, ci := range idx {
				nr[j] = row[ci]
			}
			out.Rows[i] = nr
		}
		return out, nil

	case joinStep:
		left, err := ops.run(s.child, false)
		if err != nil {
			return nil, err
		}
		right, err := ops.run(s.other, false)
		if err != nil {
			return nil, err
		}
		return joinRelations(left, right, s.on)

	case extendStep:
		child, err := ops.run(s.child, false)
		if err != nil {
			return nil, err
		}
		return extend(child, s.groupBy, s.keyCol, s.valCol, s.as)

	case recommendStep:
		r, _, err := e.rank(s, b, allRows, ops)
		if err != nil {
			return nil, err
		}
		return r.relation(), nil

	case blendStep:
		rel, _, err := e.blend(s, b, allRows, ops)
		return rel, err

	case topStep:
		// A top over ▷ or blend passes k down: every candidate is still
		// scored (so scoring errors surface as they would unfused), but
		// only the k rows that survive are built.
		k := b.of(s).k
		switch s.child.kind {
		case recommendStep:
			in, done := ops.fuse(s.child, s)
			r, n, err := e.rank(s.child, b, k, in)
			if err != nil {
				return nil, err
			}
			done(n, 0)
			return r.relation(), nil
		case blendStep:
			in, done := ops.fuse(s.child, s)
			rel, ranked, err := e.blend(s.child, b, k, in)
			if err != nil {
				return nil, err
			}
			done(ranked, 0)
			return rel, nil
		}
		child, err := ops.run(s.child, true)
		if err != nil {
			return nil, err
		}
		if len(child.Rows) > k {
			child.Rows = child.Rows[:k]
		}
		return child, nil

	case orderStep:
		child, err := ops.run(s.child, true)
		if err != nil {
			return nil, err
		}
		ci, ok := child.Col(s.orderCol)
		if !ok {
			return nil, fmt.Errorf("flexrecs: order: no column %q", s.orderCol)
		}
		slices.SortStableFunc(child.Rows, func(a, b []any) int {
			c := relation.Compare(a[ci], b[ci])
			if s.desc {
				return -c
			}
			return c
		})
		return child, nil
	}
	return nil, fmt.Errorf("flexrecs: cannot execute step %s", s.describe(b))
}

// joinRelations joins two materialized relations on a SQL condition
// evaluated over the concatenated row. Column names are the
// concatenation of both sides' names; ambiguous references in the
// condition are an error surfaced by the evaluator. Equality conjuncts
// between the two sides execute as a build/probe hash join — the same
// strategy the sqlmini planner applies to base-table joins — with the
// remaining conjuncts as a residual filter; without any equi key the
// join falls back to a nested loop.
func joinRelations(left, right *Relation, on string) (*Relation, error) {
	expr, err := sqlmini.ParseExpr(on)
	if err != nil {
		return nil, err
	}
	cols := append(append([]string{}, left.Cols...), right.Cols...)
	out := &Relation{Cols: cols}

	var leftKeys, rightKeys []int
	var residual []sqlmini.Expr
	for _, c := range sqlmini.SplitConjuncts(expr) {
		if li, ri, ok := equiColumns(c, left, right); ok {
			leftKeys = append(leftKeys, li)
			rightKeys = append(rightKeys, ri)
			continue
		}
		residual = append(residual, c)
	}
	evals := make([]func([]any) (any, error), len(residual))
	for i, c := range residual {
		evals[i] = sqlmini.Evaluator(c, cols)
	}
	pass := func(row []any) (bool, error) {
		for _, ev := range evals {
			v, err := ev(row)
			if err != nil {
				return false, err
			}
			if !relation.Truthy(v) {
				return false, nil
			}
		}
		return true, nil
	}

	if len(leftKeys) > 0 {
		buckets := make(map[string][][]any, len(right.Rows))
		for _, r := range right.Rows {
			k, ok, err := encodeJoinKey(r, rightKeys)
			if err != nil {
				return nil, err
			}
			if ok {
				buckets[k] = append(buckets[k], r)
			}
		}
		for _, l := range left.Rows {
			k, ok, err := encodeJoinKey(l, leftKeys)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			for _, r := range buckets[k] {
				row := make([]any, 0, len(l)+len(r))
				row = append(row, l...)
				row = append(row, r...)
				keep, err := pass(row)
				if err != nil {
					return nil, err
				}
				if keep {
					out.Rows = append(out.Rows, row)
				}
			}
		}
		return out, nil
	}

	for _, l := range left.Rows {
		for _, r := range right.Rows {
			row := make([]any, 0, len(l)+len(r))
			row = append(row, l...)
			row = append(row, r...)
			keep, err := pass(row)
			if err != nil {
				return nil, err
			}
			if keep {
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out, nil
}

// equiColumns recognizes an "l = r" conjunct joining the two relations,
// returning the column positions on each side. References resolve
// case-insensitively by unqualified name; a name that is ambiguous —
// duplicated within a side or present on both sides — disqualifies the
// conjunct, leaving it to the residual evaluator, which raises the same
// "ambiguous column" error the nested loop always has.
func equiColumns(c sqlmini.Expr, left, right *Relation) (int, int, bool) {
	b, ok := c.(*sqlmini.Binary)
	if !ok || b.Op != "=" {
		return 0, 0, false
	}
	lr, lok := b.L.(*sqlmini.Ref)
	rr, rok := b.R.(*sqlmini.Ref)
	if !lok || !rok || lr.Qual != "" || rr.Qual != "" {
		return 0, 0, false
	}
	if li, ok := colUnique(left, lr.Name); ok && !colPresent(right, lr.Name) {
		if ri, ok := colUnique(right, rr.Name); ok && !colPresent(left, rr.Name) {
			return li, ri, true
		}
		return 0, 0, false
	}
	if li, ok := colUnique(left, rr.Name); ok && !colPresent(right, rr.Name) {
		if ri, ok := colUnique(right, lr.Name); ok && !colPresent(left, lr.Name) {
			return li, ri, true
		}
	}
	return 0, 0, false
}

// colUnique resolves name within one relation, requiring exactly one
// case-insensitive match.
func colUnique(r *Relation, name string) (int, bool) {
	found := -1
	for i, c := range r.Cols {
		if strings.EqualFold(c, name) {
			if found >= 0 {
				return 0, false
			}
			found = i
		}
	}
	return found, found >= 0
}

func colPresent(r *Relation, name string) bool {
	_, ok := r.Col(name)
	return ok
}

// encodeJoinKey encodes the join-key cells of a row, reporting ok=false
// for NULL keys (which never join). Non-relational cells (nested
// vectors) cannot key a join.
func encodeJoinKey(row []any, cols []int) (string, bool, error) {
	vals := make([]relation.Value, len(cols))
	for i, c := range cols {
		if row[c] == nil {
			return "", false, nil
		}
		v, err := relation.Normalize(row[c])
		if err != nil {
			return "", false, fmt.Errorf("flexrecs: join key column: %w", err)
		}
		vals[i] = v
	}
	return sqlmini.JoinKey(vals), true, nil
}

// extend implements ε: group child rows by groupBy and nest each group's
// (key, value) pairs as a Vector attribute, one output row per group in
// ascending group-key order (relation.Compare). Within a group a later
// row's value for a key replaces an earlier one's. Every NaN group key
// falls in one group, as NULL ones would if they were kept. Rows with
// NULL key or non-numeric value are skipped — a student's unrated
// comment contributes nothing to the rating vector.
func extend(child *Relation, groupBy, keyCol, valCol, as string) (*Relation, error) {
	gi, ki, vi, err := extendCols(child.Cols, groupBy, keyCol, valCol)
	if err != nil {
		return nil, err
	}
	ids, groups, order, err := extendGroups(child.Rows, gi, ki, vi, valCol)
	if err != nil {
		return nil, err
	}
	// Groups come out in ascending key order, whatever order the rows
	// arrived in: the nesting of a table is then one list however its
	// rows are stored or gathered, and a maintained view finds a group by
	// binary search (materialize.go), as a σ on the group key does.
	slices.SortStableFunc(order, func(a, b int32) int { return relation.Compare(groups[a], groups[b]) })
	// Every group's entries are carved from one slab, laid out in that
	// order, each group's in row order; NewVector then sorts each in
	// place. No key is hashed, and a group costs its Vector's header.
	start, end := make([]int32, len(groups)), make([]int32, len(groups))
	for _, id := range ids {
		if id >= 0 {
			end[id]++
		}
	}
	off := int32(0)
	for _, id := range order {
		start[id], off = off, off+end[id]
		end[id] = start[id]
	}
	slab := make([]Entry, off)
	for r, row := range child.Rows {
		if id := ids[r]; id >= 0 {
			_, k, val, _, _ := extendCell(row[gi], row[ki], row[vi], valCol)
			slab[end[id]] = Entry{Key: k, Value: val}
			end[id]++
		}
	}
	out := &Relation{Cols: []string{groupBy, as}, Rows: make([][]any, len(order))}
	cells := make([]any, 2*len(order)) // one backing array for every (group, vector) pair
	for i, id := range order {
		row := cells[2*i : 2*i+2 : 2*i+2]
		row[0], row[1] = groups[id], NewVector(slab[start[id]:end[id]])
		out.Rows[i] = row
	}
	return out, nil
}

// extendGroups numbers the groups of ε's rows: ids[r] is row r's group,
// -1 for a row that adds nothing (extendCell), groups[id] is the group's
// key as it first appeared, and order lists the groups in order of first
// appearance. Keys group as == matches them (keyCmp), except that every
// NaN falls in one group. Group keys are almost always int64 ids
// (students, courses), numbered through an integer map as they appear;
// the first key of another kind hands the rows to extendGroupsAny.
func extendGroups(rows [][]any, gi, ki, vi int, valCol string) (ids []int32, groups []relation.Value, order []int32, err error) {
	ids = make([]int32, len(rows))
	byInt := make(map[int64]int32)
	for r, row := range rows {
		g, _, _, ok, err := extendCell(row[gi], row[ki], row[vi], valCol)
		if err != nil {
			return nil, nil, nil, err
		}
		if !ok {
			ids[r] = -1
			continue
		}
		ig, isInt := g.(int64)
		if !isInt {
			return extendGroupsAny(rows, ids, gi, ki, vi, valCol)
		}
		id, seen := byInt[ig]
		if !seen {
			id = int32(len(groups))
			byInt[ig] = id
			groups = append(groups, g)
			order = append(order, id)
		}
		ids[r] = id
	}
	return ids, groups, order, nil
}

// extendGroupsAny is extendGroups for keys of any kind, writing into
// ids: it sorts the rows by group key (keyCmp), stably, so that each
// group is a run whose first row is the group's first appearance, and
// numbers the runs in key order.
func extendGroupsAny(rows [][]any, ids []int32, gi, ki, vi int, valCol string) ([]int32, []relation.Value, []int32, error) {
	keys := make([]relation.Value, len(rows))
	var byKey []int32
	for r, row := range rows {
		g, _, _, ok, err := extendCell(row[gi], row[ki], row[vi], valCol)
		if err != nil {
			return nil, nil, nil, err
		}
		ids[r] = -1
		if ok {
			keys[r] = g
			byKey = append(byKey, int32(r))
		}
	}
	slices.SortStableFunc(byKey, func(a, b int32) int { return keyCmp(keys[a], keys[b]) })
	var (
		groups []relation.Value
		firsts []int32 // each group's first row
	)
	for i, r := range byKey {
		if i == 0 || keyCmp(keys[byKey[i-1]], keys[r]) != 0 {
			groups = append(groups, keys[r])
			firsts = append(firsts, r)
		}
		ids[r] = int32(len(groups) - 1)
	}
	order := make([]int32, len(groups))
	for id := range order {
		order[id] = int32(id)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(firsts[a], firsts[b]) })
	return ids, groups, order, nil
}

// extendCols finds ε's group, key and value columns among cols.
func extendCols(cols []string, groupBy, keyCol, valCol string) (gi, ki, vi int, err error) {
	at := [3]int{}
	for i, name := range [3]string{groupBy, keyCol, valCol} {
		var ok bool
		if at[i], ok = colIndex(cols, name); !ok {
			return 0, 0, 0, fmt.Errorf("flexrecs: extend: no column %q", name)
		}
	}
	return at[0], at[1], at[2], nil
}

// extendCell reads what one row adds to ε's nesting: value val for key k
// in group g's Vector. ok is false for a row that adds nothing — a NULL
// group, key or value — and a value that is not a number is an error.
func extendCell(group, key, value any, valCol string) (g, k relation.Value, val float64, ok bool, err error) {
	if g, err = relation.Normalize(group); err != nil || g == nil {
		return nil, nil, 0, false, err
	}
	if k, err = relation.Normalize(key); err != nil || k == nil {
		return nil, nil, 0, false, err
	}
	switch x := value.(type) {
	case int64:
		val = float64(x)
	case float64:
		val = x
	case nil:
		return nil, nil, 0, false, nil
	default:
		return nil, nil, 0, false, fmt.Errorf("flexrecs: extend: value column %q is %T, want number", valCol, value)
	}
	return g, k, val, true, nil
}

// allRows is the k of an operator whose every row is kept.
const allRows = math.MaxInt

// unranked is the k of a ▷ blend reads: every target row is scored and
// none is ranked.
const unranked = -1

// scored is an operator's answer before its rows are built, read where
// it stands so that no intermediate row is copied; relation builds only
// the rows kept. It has one of two shapes:
//
//   - ranked, for ▷ under a top or bare: output row i is source row
//     ranked[i].pos, the best rows best-first with their scores;
//   - unranked, for blend's operands: row i is source row i, unless keep
//     (a σ fused into the ▷) drops it; a ▷ scores it scores[i], and a
//     relation read asScored has no scores.
//
// Column j of a row is its source row's column pick[j], or its score
// where pick[j] is negative; a π over a ▷ narrows pick.
type scored struct {
	cols   []string
	src    [][]any
	keep   []bool
	ranked []rankedRow // empty when nothing is kept
	scores []float64
	pick   []int
}

// rankedRow is one candidate row: source row pos and its score. Blend's
// candidates also say which operand they come from and their score in
// it (prior), which order their ties as the operands rank their rows.
type rankedRow struct {
	pos   int32
	right bool // a right-only blend row: after every left row it ties
	score float64
	prior float64
}

// asScored reads a materialized relation as a scored answer: its rows
// in order, every column its own.
func asScored(rel *Relation) *scored {
	pick := make([]int, len(rel.Cols))
	for j := range pick {
		pick[j] = j
	}
	return &scored{cols: rel.Cols, src: rel.Rows, pick: pick}
}

// len is the number of output rows: ranked's, or src's, counting any a
// fused σ dropped.
func (r *scored) len() int {
	if r.ranked == nil {
		return len(r.src)
	}
	return len(r.ranked)
}

// has reports whether row i is one: a fused σ kept it.
func (r *scored) has(i int) bool { return r.keep == nil || r.keep[i] }

// cell is column j of output row i.
func (r *scored) cell(i, j int) any {
	c := r.pick[j]
	switch {
	case r.ranked != nil && c >= 0:
		return r.src[r.ranked[i].pos][c]
	case r.ranked != nil:
		return r.ranked[i].score
	case c >= 0:
		return r.src[i][c]
	}
	return r.scores[i]
}

// weight is column j of output row i as a number, unboxed for a score.
func (r *scored) weight(i, j int) (float64, error) {
	switch {
	case r.pick[j] >= 0:
		return toWeight(r.cell(i, j))
	case r.ranked != nil:
		return r.ranked[i].score, nil
	}
	return r.scores[i], nil
}

// prior orders the rows of an unranked r among themselves, higher
// first: a ▷'s score for row i, or 0 for every row of a relation read
// asScored, which keeps its order.
func (r *scored) prior(i int) float64 {
	if r.scores == nil {
		return 0
	}
	return r.scores[i]
}

// before reports whether source row i precedes row j in r's order:
// higher prior, then lower position — how rank would have ranked them.
func (r *scored) before(i, j int) bool {
	if pi, pj := r.prior(i), r.prior(j); pi != pj {
		return pi > pj
	}
	return i < j
}

// scan visits r's rows in source order and returns the error of the
// erring row r's own order puts first: the one an operator that walked
// r's rows in that order and stopped at its first error would report.
func (r *scored) scan(visit func(i int) error) error {
	var first error
	at := 0
	for i := range r.src {
		if !r.has(i) {
			continue
		}
		if err := visit(i); err != nil && (first == nil || r.before(i, at)) {
			first, at = err, i
		}
	}
	return first
}

// fill writes output row i into row.
func (r *scored) fill(i int, row []any) {
	for j := range r.pick {
		row[j] = r.cell(i, j)
	}
}

// project narrows r to π's columns, resolved against r's own the way π
// resolves them against a materialized child.
func (r *scored) project(cols []string) error {
	pick := make([]int, len(cols))
	for i, c := range cols {
		ci, ok := colIndex(r.cols, c)
		if !ok {
			return fmt.Errorf("flexrecs: project: no column %q", c)
		}
		pick[i] = r.pick[ci]
	}
	r.cols, r.pick = append([]string(nil), cols...), pick
	return nil
}

// relation builds r's rows; r is ranked or asScored.
func (r *scored) relation() *Relation {
	return &Relation{Cols: r.cols, Rows: buildRows(r.len(), len(r.cols), r.fill)}
}

// buildRows is the one row builder: n rows of width cells carved from
// one slab, row i written by fill.
func buildRows(n, width int, fill func(i int, row []any)) [][]any {
	rows := make([][]any, n)
	slab := make([]any, n*width)
	for i := range rows {
		rows[i] = slab[i*width : (i+1)*width : (i+1)*width]
		fill(i, rows[i])
	}
	return rows
}

// selectKeep evaluates σ's predicate, bound to args, over rel's rows in
// order, marking the n rows it keeps; a σ on an ε's group key marks its
// run (groupRun).
func selectKeep(s *Step, args []any, rel *Relation) (keep []bool, n int, err error) {
	if lo, hi, ok := groupRun(s, args, rel); ok {
		keep = make([]bool, len(rel.Rows))
		for i := range keep {
			keep[i] = (i >= lo && i < hi) == (s.keyOp == keyEq)
		}
		if s.keyOp == keyEq {
			return keep, hi - lo, nil
		}
		return keep, len(keep) - (hi - lo), nil
	}
	expr, err := sqlmini.ParseExpr(s.cond, args...)
	if err != nil {
		return nil, 0, err
	}
	eval := sqlmini.Evaluator(expr, rel.Cols)
	keep = make([]bool, len(rel.Rows))
	for i, row := range rel.Rows {
		v, err := eval(row)
		if err != nil {
			return nil, 0, err
		}
		if relation.Truthy(v) {
			keep[i] = true
			n++
		}
	}
	return keep, n, nil
}

// groupRun finds the rows [lo, hi) of rel, an ε's nesting, whose group
// key equals σ s's argument args[0] when s is g = ? or g <> ? on that key
// (Step.keyOp): ε emits its groups in ascending relation.Compare order,
// and SQL's = holds exactly where Compare returns 0, so the equal rows
// are one run, found by binary search — the condition is neither parsed
// nor evaluated. = keeps the run, <> every other row. ok is false for
// any other σ, and for a nesting with a NaN group key, which Compare
// calls equal to every number: the evaluator decides those.
func groupRun(s *Step, args []any, rel *Relation) (lo, hi int, ok bool) {
	if s.keyOp == noKeyOp {
		return 0, 0, false
	}
	v, err := relation.Normalize(args[0]) // refsOnly read its class
	if err != nil {
		return 0, 0, false
	}
	rows := rel.Rows
	for _, row := range rows {
		if isNaNKey(row[0]) {
			return 0, 0, false
		}
	}
	lo = sort.Search(len(rows), func(i int) bool { return relation.Compare(rows[i][0], v) >= 0 })
	hi = lo + sort.Search(len(rows)-lo, func(i int) bool { return relation.Compare(rows[lo+i][0], v) > 0 })
	return lo, hi, true
}

// rank implements ▷ short of its rows: every target row is scored
// against the reference set, and the k best (all for allRows) are ranked
// best-first, ties by target position — the order a stable best-first
// sort gives — or, for unranked, each score is kept at its row's
// position. The columns are the target's plus the score; n counts the
// rows scored.
//
// A σ target that did not compile to SQL — one hoisted above a shared
// nesting — runs fused: its input is the target, read where it stands,
// and only the rows the σ keeps are scored. It marks them all before any
// is scored, as it raised its errors when it ran first; it keeps row
// order, so positions in its input order ties as they did in its output;
// and a comparator scores a row by that row alone (Comparator), so the
// rows it drops change no score.
func (e *Engine) rank(s *Step, b binding, k int, ops operands) (r *scored, n int, err error) {
	var (
		target *Relation
		keep   []bool
	)
	if sel := s.child; sel.kind == selectStep && !sqlable(sel) {
		in, done := ops.fuse(sel, s)
		if target, err = in.run(sel.child, false); err != nil {
			return nil, 0, err
		}
		if keep, n, err = selectKeep(sel, b.of(sel).args, target); err != nil {
			return nil, 0, err
		}
		done(n, len(target.Rows))
	} else {
		if target, err = ops.run(sel, false); err != nil {
			return nil, 0, err
		}
		n = len(target.Rows)
	}
	ref, err := ops.run(s.other, false)
	if err != nil {
		return nil, 0, err
	}
	if _, exists := target.Col(s.scoreAs); exists {
		return nil, 0, fmt.Errorf("flexrecs: recommend: target already has column %q", s.scoreAs)
	}
	score, err := s.cmp.bind(target, ref)
	if err != nil {
		return nil, 0, err
	}
	pick := make([]int, len(target.Cols)+1)
	for j := range target.Cols {
		pick[j] = j
	}
	pick[len(target.Cols)] = -1
	r = &scored{
		cols: append(append([]string{}, target.Cols...), s.scoreAs),
		src:  target.Rows,
		keep: keep,
		pick: pick,
	}
	var best *bestFirst
	if k == unranked {
		r.scores = make([]float64, len(target.Rows))
	} else {
		best = newBestFirst(n, k)
	}
	for p, row := range target.Rows {
		if !r.has(p) {
			continue
		}
		sc, err := score(row)
		if err != nil {
			return nil, 0, err
		}
		if best == nil {
			r.scores[p] = sc
		} else {
			best.add(rankedRow{pos: int32(p), score: sc})
		}
	}
	if best != nil {
		r.ranked = best.rows()
	}
	return r, n, nil
}

// bestFirst keeps the k best of at most n candidates (every one for
// allRows), ranked best-first: higher score, then a left blend row
// before a right-only one, then higher prior, then lower position. The
// order is total, so what is kept does not depend on the order the
// candidates come in. Scores compare as numbers: a NaN, which no
// comparator derives from finite data, has no defined place.
type bestFirst struct {
	k      int
	sorted bool // kept is ranked as it grows
	kept   []rankedRow
}

func newBestFirst(n, k int) *bestFirst {
	if k >= (n+3)/4 {
		// Too little to discard for the bounded insertion to pay: keep
		// every candidate and sort once. (k*4 would overflow for allRows.)
		return &bestFirst{k: k, kept: make([]rankedRow, 0, n)}
	}
	// A binary-search insertion into a list at most k long: for the
	// catalog-sized inputs and ten-to-fifty k the strategies use,
	// O(n log k) float compares instead of a sort, and k rows kept.
	return &bestFirst{k: k, sorted: true, kept: make([]rankedRow, 0, k)}
}

// better orders a before b.
func better(a, b rankedRow) bool {
	switch {
	case a.score != b.score:
		return a.score > b.score
	case a.right != b.right:
		return b.right
	case a.prior != b.prior:
		return a.prior > b.prior
	}
	return a.pos < b.pos
}

func (b *bestFirst) add(cand rankedRow) {
	if !b.sorted {
		b.kept = append(b.kept, cand)
		return
	}
	kept := b.kept
	if len(kept) == b.k && !better(cand, kept[b.k-1]) {
		return
	}
	lo, hi := 0, len(kept)
	for lo < hi {
		mid := (lo + hi) / 2
		if better(cand, kept[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if len(kept) < b.k {
		kept = append(kept, rankedRow{})
	}
	copy(kept[lo+1:], kept[lo:])
	kept[lo] = cand
	b.kept = kept
}

// rows returns the ranking.
func (b *bestFirst) rows() []rankedRow {
	if !b.sorted {
		slices.SortFunc(b.kept, func(x, y rankedRow) int {
			if better(x, y) {
				return -1
			}
			if better(y, x) {
				return 1
			}
			return 0
		})
		b.kept, b.sorted = b.kept[:min(b.k, len(b.kept))], true
	}
	return b.kept
}

// blendOperand reads one operand of blend: a ▷, bare or under one π, in
// place as its scores by row, neither ranked nor built; any other operand
// runs and is read as its rows.
func (e *Engine) blendOperand(s, blend *Step, b binding, ops operands) (*scored, error) {
	switch {
	case s.kind == recommendStep:
		in, done := ops.fuse(s, blend)
		r, n, err := e.rank(s, b, unranked, in)
		if err != nil {
			return nil, err
		}
		done(n, 0)
		return r, nil
	case s.kind == projectStep && s.child.kind == recommendStep:
		in, done := ops.fuse(s, blend)
		rin, rdone := in.fuse(s.child, blend)
		r, n, err := e.rank(s.child, b, unranked, rin)
		if err != nil {
			return nil, err
		}
		rdone(n, 0)
		if err := r.project(s.cols); err != nil {
			return nil, err
		}
		done(n, 0)
		return r, nil
	}
	rel, err := ops.run(s, false)
	if err != nil {
		return nil, err
	}
	return asScored(rel), nil
}

// blend implements the blend operator: rows of two scored operands match
// on key, and a row's score is wL·scoreL + wR·scoreR, an absent side
// contributing 0. Every left row comes out with the left columns; a
// right row whose key no left row has comes out with the key (normalized)
// and the score, its other columns NULL; a key repeated on the right
// scores by its last row. The k best rows (all for allRows) are built,
// ordered best-first, ties by position in the concatenation of the
// ranked operands — what a stable sort of it gives. ranked counts the
// candidates.
//
// Neither operand is ranked: a candidate's place in its operand is its
// score there and its position (rankedRow.prior), and the right side's
// key index is its row positions sorted by key, ties in the right
// operand's order, searched once per left row.
func (e *Engine) blend(s *Step, b binding, k int, ops operands) (rel *Relation, ranked int, err error) {
	left, err := e.blendOperand(s.child, s, b, ops)
	if err != nil {
		return nil, 0, err
	}
	right, err := e.blendOperand(s.other, s, b, ops)
	if err != nil {
		return nil, 0, err
	}
	lk, ok := colIndex(left.cols, s.blendKey)
	if !ok {
		return nil, 0, fmt.Errorf("flexrecs: blend: left has no column %q", s.blendKey)
	}
	ls, ok := colIndex(left.cols, s.scoreAs)
	if !ok {
		return nil, 0, fmt.Errorf("flexrecs: blend: left has no column %q", s.scoreAs)
	}
	rk, ok := colIndex(right.cols, s.blendKey)
	if !ok {
		return nil, 0, fmt.Errorf("flexrecs: blend: right has no column %q", s.blendKey)
	}
	rs, ok := colIndex(right.cols, s.scoreAs)
	if !ok {
		return nil, 0, fmt.Errorf("flexrecs: blend: right has no column %q", s.scoreAs)
	}
	// Keys normalized without error once are read again without a check.
	rightKey := func(p int32) relation.Value {
		v, _ := relation.Normalize(right.cell(int(p), rk))
		return v
	}

	// Candidates: left rows, then right rows no left row matches. A NaN
	// key matches nothing and scores wR·0 (−0 for a negative wR).
	best := newBestFirst(left.len()+right.len(), k)
	byKey := make([]int32, 0, right.len())
	if err := right.scan(func(i int) error {
		v, err := relation.Normalize(right.cell(i, rk))
		if err != nil {
			return err
		}
		if _, err := right.weight(i, rs); err != nil {
			return err
		}
		if v != v {
			best.add(rankedRow{pos: int32(i), right: true, score: s.wR * 0, prior: right.prior(i)})
			ranked++
		} else {
			byKey = append(byKey, int32(i))
		}
		return nil
	}); err != nil {
		return nil, 0, err
	}
	slices.SortFunc(byKey, func(a, b int32) int {
		if c := keyCmp(rightKey(a), rightKey(b)); c != 0 || a == b {
			return c
		}
		if right.before(int(a), int(b)) {
			return -1
		}
		return 1
	})

	// A key's run in byKey ends at the row whose score it takes; matched
	// marks that end once a left row has the key.
	matched := make([]bool, len(byKey))
	if err := left.scan(func(i int) error {
		v, err := relation.Normalize(left.cell(i, lk))
		if err != nil {
			return err
		}
		lw, err := left.weight(i, ls)
		if err != nil {
			return err
		}
		rw := 0.0
		if v == v {
			// The first index whose key sorts after v; its predecessor
			// ends v's run, if v has one.
			lo, hi := 0, len(byKey)
			for lo < hi {
				mid := (lo + hi) / 2
				if keyCmp(rightKey(byKey[mid]), v) <= 0 {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if end := lo - 1; end >= 0 && keyCmp(rightKey(byKey[end]), v) == 0 {
				matched[end] = true
				rw, _ = right.weight(int(byKey[end]), rs)
			}
		}
		best.add(rankedRow{pos: int32(i), score: s.wL*lw + s.wR*rw, prior: left.prior(i)})
		ranked++
		return nil
	}); err != nil {
		return nil, 0, err
	}
	for lo := 0; lo < len(byKey); {
		hi := lo + 1
		for hi < len(byKey) && keyCmp(rightKey(byKey[hi]), rightKey(byKey[lo])) == 0 {
			hi++
		}
		if !matched[hi-1] {
			rw, _ := right.weight(int(byKey[hi-1]), rs)
			for _, p := range byKey[lo:hi] {
				best.add(rankedRow{pos: p, right: true, score: s.wR * rw, prior: right.prior(int(p))})
				ranked++
			}
		}
		lo = hi
	}

	kept := best.rows()
	out := &Relation{Cols: append([]string(nil), left.cols...)}
	if len(kept) == 0 {
		return out, ranked, nil
	}
	out.Rows = buildRows(len(kept), len(out.Cols), func(i int, row []any) {
		c := kept[i]
		if c.right {
			row[lk] = rightKey(c.pos)
		} else {
			left.fill(int(c.pos), row)
		}
		row[ls] = c.score
	})
	return out, ranked, nil
}

// Explain renders the workflow plan: operator tree with SQL-compiled
// subtrees shown as the exact statements shipped to the DBMS, each
// followed by the physical plan the SQL engine's planner chose for it
// (access paths, join algorithms, pushed predicates). The tree shown is
// the rewritten one Run executes — w's shape's plan, with w's values —
// not the one the template drew.
func (e *Engine) Explain(w *Step) string {
	p, bound := e.plan(w)
	var b strings.Builder
	e.explain(p, bound, 0, &b)
	return b.String()
}

func (e *Engine) explain(s *Step, bound binding, depth int, b *strings.Builder) {
	indent := strings.Repeat("  ", depth)
	if sqlable(s) {
		sql, binds, err := render(s)
		if err != nil {
			fmt.Fprintf(b, "%s!error: %v\n", indent, err)
			return
		}
		args := bindArgs(binds, bound)
		fmt.Fprintf(b, "%s%s\n", indent, sqlLine(sql, args))
		if plan, err := e.backend.Explain(sql, args...); err == nil {
			for _, line := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
				fmt.Fprintf(b, "%s  | %s\n", indent, line)
			}
		}
		return
	}
	if s.kind == matStep {
		fmt.Fprintf(b, "%s%s\n", indent, e.explainMat(s, bound))
		e.explain(s.child, bound, depth+1, b)
		return
	}
	fmt.Fprintf(b, "%s%s\n", indent, s.explainLine(bound))
	if s.child != nil {
		e.explain(s.child, bound, depth+1, b)
	}
	if s.other != nil {
		e.explain(s.other, bound, depth+1, b)
	}
}
