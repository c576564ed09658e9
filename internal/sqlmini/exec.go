package sqlmini

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"courserank/internal/obs"
	"courserank/internal/relation"
)

// Engine executes SELECT statements against a relation.DB. Every
// statement passes through the cost-aware planner in planner.go before
// execution, and every statement — one-shot or prepared — shares the
// engine's plan cache. Engine handles are immutable and safe for
// concurrent use.
type Engine struct {
	db        *relation.DB
	cache     *PlanCache
	forceScan bool
	batchSize int // 0 means defaultBatch

	// obsBox is the shared observability slot: derived handles
	// (ForceScan/WithBatchSize) alias the same box, so
	// installing a collector once observes every execution path. A nil
	// load disables recording — the same atomic-pointer nil-check
	// pattern relation.Storage uses for its pluggable backend.
	obsBox *atomic.Pointer[obs.Collector]

	// an is non-nil only on the shadow handle an EXPLAIN ANALYZE
	// execution runs under (analyze.go); the executor checks it with a
	// plain nil test on the hot paths.
	an *analyzeState
}

// New returns an engine bound to db with a fresh plan cache.
func New(db *relation.DB) *Engine {
	return &Engine{db: db, cache: newPlanCache(), obsBox: &atomic.Pointer[obs.Collector]{}}
}

// ForceScan returns a handle over the same database whose SELECTs use
// the naive execution strategy — full table scans, nested-loop joins,
// no predicate pushdown — planning fresh on every call and bypassing
// the plan cache. Parity tests run a forced handle next to the planning
// engine; because handles are immutable, concurrent queries through
// both never race.
func (e *Engine) ForceScan() *Engine {
	return &Engine{db: e.db, forceScan: true, batchSize: e.batchSize, obsBox: e.obsBox}
}

// WithBatchSize returns a handle over the same database whose executor
// pipelines move rows in slabs of n (n <= 0 restores the default). The
// handle gets its own plan cache: plans record their batch size for
// Explain, so sharing cached plans across differently-sized handles
// would mislabel them. Primarily a testing knob — the differential fuzz
// harness runs the same queries at batch sizes 1, 7, and 256 to prove
// slab boundaries never change results.
func (e *Engine) WithBatchSize(n int) *Engine {
	if n < 0 {
		n = 0
	}
	h := &Engine{db: e.db, forceScan: e.forceScan, batchSize: n, obsBox: e.obsBox}
	if e.cache != nil {
		h.cache = newPlanCache()
	}
	return h
}

// batch is the executor's slab size: how many rows move per NextBatch
// dispatch through every cursor in this engine's pipelines.
func (e *Engine) batch() int {
	if e.batchSize > 0 {
		return e.batchSize
	}
	return defaultBatch
}

// DB exposes the underlying database.
func (e *Engine) DB() *relation.DB { return e.db }

// Result is a materialized query result. Its rows are read-only: they
// may be the table's stored rows (see the package doc).
type Result struct {
	Columns []string
	Rows    []relation.Row
}

// Query executes a SELECT, binding placeholders ('?') to args. It is a
// thin wrapper over the prepared-statement path: the plan comes from
// the engine's cache, so a repeated statement text parses and plans
// only once.
func (e *Engine) Query(sql string, args ...any) (*Result, error) {
	en, err := e.entryFor(sql)
	if err != nil {
		return nil, err
	}
	return e.queryEntry(en, args)
}

// queryEntry binds args and runs a cached SELECT.
func (e *Engine) queryEntry(en *cacheEntry, args []any) (*Result, error) {
	params, err := bindArgs(en.nParams, args)
	if err != nil {
		return nil, err
	}
	return e.execSelect(en.sel, params)
}

// splitConjuncts flattens a tree of ANDs into its conjuncts.
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// appendJoinKeyVal appends one type-tagged join-key value to b.
// Integral floats normalize to their int64 form so 2.0 joins 2.
func appendJoinKeyVal(b []byte, v relation.Value) []byte {
	if f, ok := v.(float64); ok && f == float64(int64(f)) {
		v = int64(f)
	}
	switch x := v.(type) {
	case int64:
		b = append(b, 'i')
		return strconv.AppendInt(b, x, 10)
	case float64:
		b = append(b, 'f')
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case string:
		b = append(b, 's')
		return append(b, x...)
	case bool:
		if x {
			return append(b, 'b', '1')
		}
		return append(b, 'b', '0')
	default:
		b = append(b, 'o')
		return append(b, fmt.Sprintf("%T:%s", v, relation.Format(v))...)
	}
}

// joinKey encodes join-key values for hash probing — the string form,
// for owners that retain the key (GROUP BY buckets).
func joinKey(vals []relation.Value) string {
	var b []byte
	for i, v := range vals {
		if i > 0 {
			b = append(b, 0)
		}
		b = appendJoinKeyVal(b, v)
	}
	return string(b)
}

// rowKey encodes the join-key values at the given columns into buf's
// storage, reporting false when any is NULL (NULL keys never join).
// The returned slice aliases buf (grown as needed): callers thread it
// back in across rows, and probe loops index their hash maps with the
// map[string(k)] pattern, which the compiler compiles to an
// allocation-free lookup.
func rowKey(row relation.Row, cols []int, buf []byte) ([]byte, bool) {
	b := buf[:0]
	for i, c := range cols {
		if row[c] == nil {
			return b, false
		}
		if i > 0 {
			b = append(b, 0)
		}
		b = appendJoinKeyVal(b, row[c])
	}
	return b, true
}

// outputName picks the result column name for a select item.
func outputName(item SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if r, ok := item.Expr.(*Ref); ok {
		return r.Name
	}
	return item.Expr.String()
}

// expandStars replaces * and t.* items with explicit column references.
func expandStars(items []SelectItem, rs *rowset) ([]SelectItem, error) {
	var out []SelectItem
	for _, item := range items {
		if !item.Star {
			out = append(out, item)
			continue
		}
		found := false
		for _, c := range rs.cols {
			if item.StarQual != "" && !strings.EqualFold(c.qual, item.StarQual) {
				continue
			}
			out = append(out, SelectItem{Expr: &Ref{Qual: c.qual, Name: c.name}, Alias: c.name})
			found = true
		}
		if !found {
			return nil, fmt.Errorf("sqlmini: %s.* matches no table", item.StarQual)
		}
	}
	return out, nil
}

// execSelect runs one prepared SELECT with the given bound parameters.
// Everything parameter-independent — the physical plan, star expansion,
// output naming, expression binding, aggregation mode — happened at
// prepare time; here parameters substitute into copy-on-write shadows
// of the shared structures, the cursor pipeline opens (cursor.go), and
// its rows drain into the projection/aggregation stages below.
func (e *Engine) execSelect(ps *preparedSelect, params []relation.Value) (*Result, error) {
	plan := bindPlan(ps.plan, params)
	if e.an != nil {
		// ANALYZE keys operator stats off the BOUND plan's nodes —
		// bindPlan may shadow-copy nodes to substitute parameters, and
		// the cursors below hold the bound copies.
		e.an.plan = plan
	}

	probeOnly := len(plan.joins) == 0 && len(plan.where) == 0 &&
		(plan.scan.access == accessPK || plan.scan.access == accessIndex)

	// A streaming statement's LIMIT is a pipeline stage: the limitCursor
	// ends the scan and every join below it at the last row wanted, and
	// the bound value is the execution row goal openPlan sizes the first
	// fetch, emit and slab by. Blocking statements (and the key-bounded
	// probe-only plan) apply it to the finished rows instead, with no goal.
	limit := int64(noLimit)
	streams := ps.streams() && !probeOnly
	if streams {
		var err error
		if limit, err = ps.limit(params); err != nil {
			return nil, err
		}
	}

	// Streaming direct projection: a non-aggregate query whose output
	// items are all plain bound columns and whose order needs no sort
	// (none requested, or the pipeline emits it) never materializes the
	// source rows at all — each batch's cells copy straight into the
	// output arena and the pipeline runs transient, so join and
	// permutation slabs recycle instead of accumulating. This is the
	// workhorse path for SELECT col,... FROM t [WHERE ...] feeds.
	if streams {
		bound := substItems(ps.items, params)
		direct := make([]int, len(bound))
		allDirect := true
		for i, item := range bound {
			if b, ok := item.Expr.(*boundRef); ok {
				direct[i] = b.idx
			} else {
				allDirect = false
				break
			}
		}
		if allDirect {
			cur, err := e.openPlan(plan, false, limit)
			if err != nil {
				return nil, err
			}
			cur = e.limited(cur, limit)
			// Without a join the pipeline hands over stored rows, which
			// outlive the batch: an all-column SELECT returns them.
			stored := len(plan.joins) == 0 && keepsEveryColumn(direct, len(plan.cols))
			arena := rowArena{rows: e.firstSlab(limit)}
			outRows := make([]relation.Row, 0, capHint(limit, plan.estOut()))
			for {
				batch, err := cur.NextBatch()
				if err != nil {
					cur.Close()
					return nil, err
				}
				if len(batch) == 0 {
					break
				}
				if stored {
					outRows = append(outRows, batch...)
					continue
				}
				for _, row := range batch {
					out := arena.alloc(len(direct))
					for i, ci := range direct {
						out[i] = row[ci]
					}
					outRows = append(outRows, out)
				}
			}
			cur.Close()
			return ps.result(outRows), nil
		}
	}

	if probeOnly && ps.foldsProbe(plan) {
		return e.foldProbe(ps, plan, params)
	}

	var drained []relation.Row
	if probeOnly {
		// Probe-only plan: the result is key-bounded; materialize it
		// directly and skip the cursor plumbing — this is the prepared
		// point-lookup hot path.
		t, ok := e.db.Table(plan.scan.ref.Name)
		if !ok {
			return nil, fmt.Errorf("sqlmini: unknown table %q", plan.scan.ref.Name)
		}
		var t0 time.Time
		if e.an != nil {
			t0 = time.Now()
		}
		var err error
		drained, err = probeRows(plan.scan, t, &rowset{cols: plan.scan.cols})
		if err != nil {
			return nil, err
		}
		if e.an != nil {
			st := e.an.nodeStat(plan.scan)
			st.ns += int64(time.Since(t0))
			st.rows += int64(len(drained))
			st.batches++
			st.loops++
		}
	} else {
		// retain=true: the drained rows feed aggregation/sort/projection
		// below and must outlive every batch boundary.
		cur, err := e.openPlan(plan, true, limit)
		if err != nil {
			return nil, err
		}
		cur = e.limited(cur, limit)
		if drained, err = drainCursor(cur, capHint(limit, plan.estOut())); err != nil {
			return nil, err
		}
	}
	rs := &rowset{cols: plan.cols, rows: drained}
	bound := substItems(ps.items, params)

	// Output rows carve from a retained arena — one slab allocation per
	// arenaSlabRows rows instead of one per row. Never reset: Result.Rows
	// escapes to the caller.
	var arena rowArena

	var outRows []relation.Row
	var sourceRows []relation.Row // parallel source row per output row (non-agg)
	var groups [][]relation.Row   // parallel group per output row (agg)

	if ps.aggMode {
		keys := []string{}
		groupMap := map[string][]relation.Row{}
		if len(ps.groupBy) == 0 {
			keys = append(keys, "")
			groupMap[""] = rs.rows
		} else {
			vals := make([]relation.Value, len(ps.groupBy))
			for _, row := range rs.rows {
				for i, g := range ps.groupBy {
					v, err := evalScalar(g, row, rs)
					if err != nil {
						return nil, err
					}
					vals[i] = v
				}
				k := joinKey(vals)
				if _, seen := groupMap[k]; !seen {
					keys = append(keys, k)
				}
				groupMap[k] = append(groupMap[k], row)
			}
		}
		for _, k := range keys {
			group := groupMap[k]
			out := arena.alloc(len(bound))
			for i, item := range bound {
				v, err := evalGroupItem(item.Expr, group, rs)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			outRows = append(outRows, out)
			groups = append(groups, group)
		}
	} else {
		// Fast path: a projection of plain bound columns copies cells
		// directly, skipping the expression evaluator per cell.
		direct := make([]int, len(bound))
		allDirect := true
		for i, item := range bound {
			if b, ok := item.Expr.(*boundRef); ok {
				direct[i] = b.idx
			} else {
				allDirect = false
				break
			}
		}
		switch {
		case allDirect && keepsEveryColumn(direct, len(rs.cols)):
			// The drained rows are the result: stored rows, or rows this
			// execution joined, and either way never written again.
			outRows = rs.rows
			sourceRows = rs.rows
		case allDirect:
			outRows = make([]relation.Row, len(rs.rows))
			for ri, row := range rs.rows {
				out := arena.alloc(len(direct))
				for i, ci := range direct {
					out[i] = row[ci]
				}
				outRows[ri] = out
			}
			sourceRows = rs.rows
		default:
			for _, row := range rs.rows {
				out := arena.alloc(len(bound))
				for i, item := range bound {
					v, err := evalScalar(item.Expr, row, rs)
					if err != nil {
						return nil, err
					}
					out[i] = v
				}
				outRows = append(outRows, out)
				sourceRows = append(sourceRows, row)
			}
		}
	}

	// ORDER BY: keys resolved to output columns at prepare time read the
	// output row; anything else evaluates against the source row (or
	// group, in aggregate mode). When the planner proved the pipeline
	// already emits the sort order (a driver range scan over the sort
	// key), the sort is elided entirely.
	if len(ps.order) > 0 && !ps.plan.orderElide {
		orderExprs := make([]Expr, len(ps.order))
		for j, ob := range ps.order {
			orderExprs[j] = substExpr(ob.expr, params)
		}
		sortKeys := make([][]relation.Value, len(outRows))
		for i := range outRows {
			keys := make([]relation.Value, len(ps.order))
			for j, ob := range ps.order {
				if ob.aliasIdx >= 0 {
					keys[j] = outRows[i][ob.aliasIdx]
					continue
				}
				var v relation.Value
				var err error
				if ps.aggMode {
					v, err = evalGroupItem(orderExprs[j], groups[i], rs)
				} else {
					v, err = evalScalar(orderExprs[j], sourceRows[i], rs)
				}
				if err != nil {
					return nil, err
				}
				keys[j] = v
			}
			sortKeys[i] = keys
		}
		idx := make([]int, len(outRows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := sortKeys[idx[a]], sortKeys[idx[b]]
			for j, ob := range ps.order {
				c := relation.Compare(ka[j], kb[j])
				if c == 0 {
					continue
				}
				if ob.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		sorted := make([]relation.Row, len(outRows))
		for i, j := range idx {
			sorted[i] = outRows[j]
		}
		outRows = sorted
	}

	if !streams {
		// A blocking statement's LIMIT applies to the finished rows.
		limit, err := ps.limit(params)
		if err != nil {
			return nil, err
		}
		if limit >= 0 && limit < int64(len(outRows)) {
			outRows = outRows[:limit]
		}
	}
	return ps.result(outRows), nil
}

// keepsEveryColumn reports whether a direct projection (output column i
// reads source column direct[i]) is the identity over width columns.
func keepsEveryColumn(direct []int, width int) bool {
	if len(direct) != width {
		return false
	}
	for i, ci := range direct {
		if ci != i {
			return false
		}
	}
	return true
}

// foldsProbe reports whether the bound plan is an aggregate over one
// index key that foldProbe answers: no GROUP BY, ORDER BY, LIMIT or
// residual filter.
func (ps *preparedSelect) foldsProbe(plan *selectPlan) bool {
	s := plan.scan
	return ps.aggMode && len(ps.groupBy) == 0 && len(ps.order) == 0 && ps.sel.Limit == nil &&
		s.access == accessIndex && len(s.probeKeys) == 1 && len(s.filter) == 0
}

// foldProbe answers a foldsProbe statement by folding each probed row
// into the aggregates as the table hands it over (Table.Each): no
// group of row references is built, so the statement allocates the same
// however many rows its key matches. The rows arrive in slot order, as
// probeRows returns them, so every aggregate equals what the drained
// path computes, bit for bit.
func (e *Engine) foldProbe(ps *preparedSelect, plan *selectPlan, params []relation.Value) (*Result, error) {
	s := plan.scan
	t, ok := e.db.Table(s.ref.Name)
	if !ok {
		return nil, fmt.Errorf("sqlmini: unknown table %q", s.ref.Name)
	}
	var t0 time.Time
	if e.an != nil {
		t0 = time.Now()
	}
	rs := &rowset{cols: plan.cols}
	key, err := evalScalar(s.probeKeys[0], nil, rs)
	if err != nil {
		return nil, err
	}
	bound := substItems(ps.items, params)
	states := make([]aggState, len(bound))
	var first []relation.Row // the group's first row, for non-aggregate items
	n := 0
	fold := func(row relation.Row) {
		if err != nil {
			return
		}
		if n++; first == nil {
			first = []relation.Row{row}
		}
		for i, item := range bound {
			if c, ok := item.Expr.(*Call); ok {
				if err = states[i].add(c, row, rs); err != nil {
					return
				}
			}
		}
	}
	if key != nil { // "= NULL" matches no row, where Each would find the NULLs
		t.Each(s.probeCol, key, fold)
	}
	if err != nil {
		return nil, err
	}
	if e.an != nil {
		st := e.an.nodeStat(s)
		st.ns += int64(time.Since(t0))
		st.rows += int64(n)
		st.batches++
		st.loops++
	}
	out := make(relation.Row, len(bound))
	for i, item := range bound {
		if c, ok := item.Expr.(*Call); ok {
			out[i] = states[i].value(c)
		} else if out[i], err = evalGroupItem(item.Expr, first, rs); err != nil {
			return nil, err
		}
	}
	return ps.result([]relation.Row{out}), nil
}

// evalGroupItem evaluates a select item or ORDER BY key over one group:
// an aggregate reduces the group, anything else reads the group's first
// row (MySQL-style leniency for columns functionally determined by the
// group key) — a row of NULLs when the group is empty.
func evalGroupItem(e Expr, group []relation.Row, rs *rowset) (relation.Value, error) {
	if c, ok := e.(*Call); ok {
		return computeAggregate(c, group, rs)
	}
	if len(group) == 0 {
		return evalScalar(e, make(relation.Row, len(rs.cols)), rs)
	}
	return evalScalar(e, group[0], rs)
}

// result packages output rows. Columns are copied so callers can keep
// or reshape the slice without reaching into the shared prepared
// statement.
func (ps *preparedSelect) result(rows []relation.Row) *Result {
	return &Result{Columns: append([]string(nil), ps.outCols...), Rows: rows}
}

// noLimit is limit's value for a statement without a LIMIT.
const noLimit = -1

// limit evaluates the statement's LIMIT clause under params — the one
// evaluation every entry point shares. A negative LIMIT means none.
func (ps *preparedSelect) limit(params []relation.Value) (int64, error) {
	n, err := evalIntClause(substExpr(ps.sel.Limit, params), noLimit)
	return max(n, noLimit), err
}

// capHint caps an output-cardinality estimate at the rows a limit lets
// through.
func capHint(limit int64, est int) int {
	if limit >= 0 && limit < int64(est) {
		return int(limit)
	}
	return est
}

// streams reports whether nothing blocking stands between the scan and
// the LIMIT: no aggregate, and an ORDER BY either absent or already
// emitted by the pipeline. Only then may a LIMIT end the pipeline early
// — and only then does the planner give it a row goal (applyRowGoal
// asks the same question) — otherwise every row is needed before the
// first can be returned.
func (ps *preparedSelect) streams() bool {
	return streamsToLimit(ps.sel, ps.aggMode, ps.plan.orderElide)
}

func streamsToLimit(st *SelectStmt, aggregates, orderElide bool) bool {
	return !aggregates && (len(st.OrderBy) == 0 || orderElide)
}

// limited wraps a streaming pipeline in its LIMIT stage; a statement
// without a LIMIT keeps the bare pipeline.
func (e *Engine) limited(cur cursor, limit int64) cursor {
	if limit < 0 {
		return cur
	}
	return &limitCursor{in: cur, remain: limit, an: e.an}
}

// evalIntClause evaluates a LIMIT expression, which must reduce to an
// integer without any column references.
func evalIntClause(e Expr, def int64) (int64, error) {
	if e == nil {
		return def, nil
	}
	v, err := evalScalar(e, nil, &rowset{})
	if err != nil {
		return 0, err
	}
	n, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("sqlmini: LIMIT must be an integer, got %v", v)
	}
	return n, nil
}
