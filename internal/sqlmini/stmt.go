package sqlmini

import (
	"fmt"
	"sync/atomic"

	"courserank/internal/relation"
)

// This file is the prepared-statement layer of the engine: the
// database/sql-style lifecycle
//
//	Prepare(sql) → *Stmt → Query/QueryRows(args...)
//
// Prepare lexes, parses and plans once; executions bind arguments into
// the late-bound Param slots and run the cached plan.
// Statements revalidate their schema fingerprint before every
// execution, replanning through the shared cache when a dependent
// table has mutated or been replaced.

// preparedSelect is the parameter-independent half of a SELECT: the
// physical plan plus everything execSelect used to recompute per call —
// star expansion, output naming, expression binding, aggregation mode,
// ORDER BY resolution. It is immutable after prepare and shared across
// concurrent executions.
type preparedSelect struct {
	sel     *SelectStmt
	plan    *selectPlan
	items   []SelectItem // stars expanded, exprs bound to the plan layout
	outCols []string
	outRS   *rowset // output-column resolver (ORDER BY aliases)
	aggMode bool
	groupBy []Expr // bound GROUP BY keys
	order   []orderKey
}

// orderKey is one prepared ORDER BY key: either a resolved output
// column or a bound expression over the source row / group. The
// split mirrors execution precedence — output aliases win.
type orderKey struct {
	aliasIdx int  // >= 0: sort on this output column
	expr     Expr // else: evaluate against the source row or group
	desc     bool
}

// prepareSelect performs every parameter-independent stage of a SELECT.
func (e *Engine) prepareSelect(sel *SelectStmt) (*preparedSelect, error) {
	p, err := e.plan(sel)
	if err != nil {
		return nil, err
	}
	rs := &rowset{cols: p.cols}
	items, err := expandStars(sel.List, rs)
	if err != nil {
		return nil, err
	}
	// Pre-resolve output expressions once; names that fail to bind keep
	// per-row resolution so error behavior matches unplanned execution.
	bound := make([]SelectItem, len(items))
	for i, item := range items {
		bound[i] = item
		bound[i].Expr = bindOrKeep(item.Expr, rs)
	}
	outCols := make([]string, len(items))
	for i, item := range items {
		outCols[i] = outputName(item)
	}
	outRS := &rowset{cols: make([]colRef, len(outCols))}
	for i, n := range outCols {
		outRS.cols[i] = colRef{name: n}
	}
	ps := &preparedSelect{
		sel: sel, plan: p, items: bound,
		outCols: outCols, outRS: outRS, aggMode: sel.aggregates(),
	}
	if len(sel.GroupBy) > 0 {
		ps.groupBy = make([]Expr, len(sel.GroupBy))
		for i, g := range sel.GroupBy {
			ps.groupBy[i] = bindOrKeep(g, rs)
		}
	}
	if len(sel.OrderBy) > 0 {
		ps.order = make([]orderKey, len(sel.OrderBy))
		for i, ob := range sel.OrderBy {
			k := orderKey{aliasIdx: -1, desc: ob.Desc}
			if ref, ok := ob.Expr.(*Ref); ok && ref.Qual == "" {
				if ci, err := outRS.resolve("", ref.Name); err == nil {
					k.aliasIdx = ci
				}
			}
			if k.aliasIdx < 0 {
				k.expr = bindOrKeep(ob.Expr, rs)
			}
			ps.order[i] = k
		}
	}
	return ps, nil
}

// entryFor resolves sql to a prepared entry: a cache hit when a valid
// plan exists, otherwise a fresh parse/plan that is cached for the next
// caller. Force-scan handles always build fresh, uncounted entries.
func (e *Engine) entryFor(sql string) (*cacheEntry, error) {
	if e.cache != nil {
		if en := e.cache.lookup(sql, e.db); en != nil {
			return en, nil
		}
	}
	en, err := e.buildEntry(sql)
	if err != nil {
		return nil, err
	}
	if e.cache != nil {
		e.cache.store(en)
	}
	return en, nil
}

// buildEntry parses sql with late-bound placeholders, plans it and
// records the schema fingerprint.
func (e *Engine) buildEntry(sql string) (*cacheEntry, error) {
	sel, n, err := parseStatement(sql)
	if err != nil {
		return nil, err
	}
	ps, err := e.prepareSelect(sel)
	if err != nil {
		return nil, err
	}
	return &cacheEntry{text: sql, nParams: n, sel: ps, deps: ps.plan.deps}, nil
}

// Stmt is a prepared SELECT: parsed once, planned once, executable
// many times with different arguments. Statements are safe for
// concurrent use; each execution revalidates the plan's schema
// fingerprint and transparently replans after the underlying tables
// mutate. Statements never expire — holding one across DDL is safe.
type Stmt struct {
	e     *Engine
	text  string
	entry atomic.Pointer[cacheEntry]

	// capture arms EXPLAIN ANALYZE plan capture for the slow-query
	// log: set when a slow execution is admitted without a plan,
	// consumed by the next execution, which runs instrumented
	// (observe.go).
	capture atomic.Bool
}

// Prepare parses and plans a SELECT, leaving placeholders ('?') unbound
// until execution. The plan lands in the engine's shared cache, so
// preparing the same text twice — or mixing Prepare with one-shot
// Query of the same text — shares one plan. Any other statement is
// refused: the engine is read-only.
func (e *Engine) Prepare(sql string) (*Stmt, error) {
	en, err := e.entryFor(sql)
	if err != nil {
		return nil, err
	}
	s := &Stmt{e: e, text: sql}
	s.entry.Store(en)
	return s, nil
}

// current returns the statement's entry, replanning if its fingerprint
// went stale. Reusing a held, still-valid plan counts as a cache hit.
func (s *Stmt) current() (*cacheEntry, error) {
	en := s.entry.Load()
	if en.valid(s.e.db) {
		if s.e.cache != nil {
			s.e.cache.hits.Add(1)
		}
		return en, nil
	}
	en, err := s.e.entryFor(s.text)
	if err != nil {
		return nil, err
	}
	s.entry.Store(en)
	return en, nil
}

// Text returns the statement's SQL text.
func (s *Stmt) Text() string { return s.text }

// NumParams reports how many placeholders the statement declares.
func (s *Stmt) NumParams() int { return s.entry.Load().nParams }

// Columns returns the statement's output column names.
func (s *Stmt) Columns() []string {
	return append([]string(nil), s.entry.Load().sel.outCols...)
}

// Query executes the prepared SELECT with args bound to its placeholders,
// returning the materialized result.
func (s *Stmt) Query(args ...any) (*Result, error) {
	en, err := s.current()
	if err != nil {
		return nil, err
	}
	if c := s.e.Observer(); c != nil {
		return s.observedQuery(c, en, args)
	}
	return s.e.queryEntry(en, args)
}

// QueryRows executes the prepared SELECT and returns a Rows iterator.
func (s *Stmt) QueryRows(args ...any) (*Rows, error) {
	en, err := s.current()
	if err != nil {
		return nil, err
	}
	return s.e.rowsEntry(en, args)
}

// Explain renders the statement's physical plan; placeholders show as
// '?' since their values bind only at execution.
func (s *Stmt) Explain() (string, error) {
	return s.entry.Load().sel.plan.String(), nil
}

// QueryRows executes a SELECT and returns a Rows iterator — the
// streaming counterpart of Query, through the same plan cache.
func (e *Engine) QueryRows(sql string, args ...any) (*Rows, error) {
	en, err := e.entryFor(sql)
	if err != nil {
		return nil, err
	}
	return e.rowsEntry(en, args)
}

// rowsEntry binds args and opens a Rows cursor. Plain projections —
// and, since the iterator executor, queries whose ORDER BY the planner
// elided — stream end to end: Rows.Next pulls one row at a time through
// the cursor pipeline down to the storage layer, LIMIT applies as a
// streaming stage (stopping the pipeline early), and each output row
// projects lazily at Scan. Aggregation and un-elided ORDER BY need the
// full result anyway and fall back to materialized rows.
func (e *Engine) rowsEntry(en *cacheEntry, args []any) (*Rows, error) {
	ps := en.sel
	if !ps.streams() {
		res, err := e.queryEntry(en, args)
		if err != nil {
			return nil, err
		}
		return &Rows{cols: res.Columns, out: res.Rows, idx: -1}, nil
	}
	params, err := bindArgs(en.nParams, args)
	if err != nil {
		return nil, err
	}
	limit, err := ps.limit(params)
	if err != nil {
		return nil, err
	}
	plan := bindPlan(ps.plan, params)
	// retain=false: Rows only ever reads the current batch, so transient
	// cursors may recycle their arena slabs batch over batch.
	cur, err := e.openPlan(plan, false, limit)
	if err != nil {
		return nil, err
	}
	cur = e.limited(cur, limit)
	return &Rows{
		cols:  append([]string(nil), ps.outCols...),
		cur:   cur,
		rs:    &rowset{cols: plan.cols},
		items: substItems(ps.items, params),
		idx:   -1,
	}, nil
}

// Rows is a Next/Scan-style cursor over a query result, the streaming
// alternative to the materialized *Result. A Rows is not safe for
// concurrent use.
type Rows struct {
	cols  []string
	cur   cursor         // streaming pipeline (plain/elided-order queries)
	rs    *rowset        // source-row layout for lazy projection
	items []SelectItem   // bound projection over source rows
	batch []relation.Row // current batch from the pipeline
	bi    int            // position within batch
	row   relation.Row   // current source row (streaming mode)
	out   []relation.Row // pre-materialized rows (agg/order)
	idx   int
	err   error
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// Err returns the first error the pipeline or any Scan encountered, if
// any — so a drain loop that ignores Scan's return value still observes
// the failure. Once an error is recorded, Next returns false.
func (r *Rows) Err() error { return r.err }

// fail records the cursor's first error and returns it.
func (r *Rows) fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	return err
}

// Close releases the cursor, stopping the underlying pipeline — a
// partially consumed streaming Rows does no further scan or join work.
// Close is idempotent and optional — a drained Rows holds no external
// resources.
func (r *Rows) Close() {
	if r.cur != nil {
		r.cur.Close()
		r.cur = nil
	}
	r.items, r.out, r.row, r.batch = nil, nil, nil, nil
	r.bi = 0
	r.idx = 1 << 30
}

// Next advances to the next row, reporting whether one is available. In
// streaming mode it is a thin drain over the pipeline's current batch:
// one NextBatch dispatch delivers up to Engine.batch() rows, and the
// per-row step is a slice index.
func (r *Rows) Next() bool {
	if r.err != nil {
		return false
	}
	if r.cur != nil {
		for r.bi >= len(r.batch) {
			batch, err := r.cur.NextBatch()
			if err != nil {
				r.fail(err)
				return false
			}
			if len(batch) == 0 {
				r.row, r.batch = nil, nil
				return false
			}
			r.batch, r.bi = batch, 0
		}
		r.row = r.batch[r.bi]
		r.bi++
		return true
	}
	if r.idx >= len(r.out) {
		return false
	}
	r.idx++
	return r.idx < len(r.out)
}

// Scan copies the current row into dest, one pointer per column:
// *int64, *float64, *string, *bool, or *any (which receives the raw
// value, nil for NULL). In streaming mode the projection evaluates
// here, so skipped rows are never projected at all.
func (r *Rows) Scan(dest ...any) error {
	if r.cur != nil && r.row == nil {
		return fmt.Errorf("sqlmini: Scan called without a successful Next")
	}
	if r.cur == nil && (r.idx < 0 || r.idx >= len(r.out)) {
		return fmt.Errorf("sqlmini: Scan called without a successful Next")
	}
	if len(dest) != len(r.cols) {
		return r.fail(fmt.Errorf("sqlmini: Scan expects %d destinations, got %d", len(r.cols), len(dest)))
	}
	if r.cur == nil {
		for i, d := range dest {
			if err := assignValue(d, r.out[r.idx][i]); err != nil {
				return r.fail(fmt.Errorf("sqlmini: Scan column %s: %w", r.cols[i], err))
			}
		}
		return nil
	}
	for i, item := range r.items {
		v, err := evalScalar(item.Expr, r.row, r.rs)
		if err != nil {
			return r.fail(err)
		}
		if err := assignValue(dest[i], v); err != nil {
			return r.fail(fmt.Errorf("sqlmini: Scan column %s: %w", r.cols[i], err))
		}
	}
	return nil
}

// assignValue converts one result cell into a Scan destination. Every
// typed destination reports NULL cells and type mismatches with the
// same two error shapes, so callers can branch on the message
// uniformly regardless of the destination's type.
func assignValue(dest any, v relation.Value) error {
	switch d := dest.(type) {
	case *any:
		*d = v
		return nil
	case *int64:
		if n, ok := v.(int64); ok {
			*d = n
			return nil
		}
	case *int:
		if n, ok := v.(int64); ok {
			*d = int(n)
			return nil
		}
	case *float64:
		switch n := v.(type) {
		case float64:
			*d = n
			return nil
		case int64:
			*d = float64(n)
			return nil
		}
	case *string:
		if s, ok := v.(string); ok {
			*d = s
			return nil
		}
	case *[]byte:
		if s, ok := v.(string); ok {
			*d = []byte(s)
			return nil
		}
	case *bool:
		if b, ok := v.(bool); ok {
			*d = b
			return nil
		}
	default:
		return fmt.Errorf("unsupported destination type %T", dest)
	}
	if v == nil {
		return fmt.Errorf("NULL into %T (use *any for columns that may be NULL)", dest)
	}
	return fmt.Errorf("cannot assign %T into %T", v, dest)
}
