package sqlmini

import (
	"fmt"
	"strings"
	"time"

	"courserank/internal/relation"
)

// This file is EXPLAIN ANALYZE for the vectorized executor: the query
// runs for real on a shadow engine handle whose an field points at an
// analyzeState, every cursor the pipeline opens is wrapped with an
// instrCursor, and the annotated plan tree renders Explain's exact
// shape with per-operator actuals appended.
//
// Cost model when disabled: nothing in this file runs. The executor's
// hooks are plain nil checks on Engine.an (set only on the shadow
// handle analyzeEntry stack-allocates), so ordinary executions pay no
// atomics, no allocations and no timing calls for ANALYZE support.
//
// Timing semantics match the convention real databases use: an
// operator's time is INCLUSIVE of its inputs (the hash join's line
// covers draining both sides), except the INLJ/band right-side scan
// lines, which report just the storage probes the join issued. On a
// 1-core container, concurrent load inflates every wall-time number;
// rows/batches/loops stay exact.

// whereKey keys the post-join WHERE filter's stats in analyzeState —
// the one annotated plan line with no plan-node pointer of its own.
const whereKey = "where"

// opStat accumulates one operator's actuals: rows emitted, NextBatch
// dispatches that returned rows, times the operator (re)started or
// probed (loops), and inclusive wall time.
type opStat struct {
	rows    int64
	batches int64
	loops   int64
	ns      int64
}

// analyzeState is the per-execution collection point, keyed by bound
// plan node. It lives on the shadow handle only: one execution, one
// goroutine, no locking.
type analyzeState struct {
	plan       *selectPlan
	stats      map[any]*opStat
	elapsed    time.Duration
	resultRows int
	limitStop  bool // the LIMIT stage ended the pipeline (limitCursor)
}

func (a *analyzeState) nodeStat(key any) *opStat {
	if a.stats == nil {
		a.stats = make(map[any]*opStat, 8)
	}
	st := a.stats[key]
	if st == nil {
		st = &opStat{}
		a.stats[key] = st
	}
	return st
}

// render walks the bound plan through the shared renderer, annotating
// each operator line with its actuals.
func (a *analyzeState) render() string {
	tree := a.plan.render(func(key any) string {
		st := a.stats[key]
		if st == nil {
			return " (actual: never executed)"
		}
		var b strings.Builder
		fmt.Fprintf(&b, " (actual rows=%d batches=%d", st.rows, st.batches)
		if st.loops > 0 {
			fmt.Fprintf(&b, " loops=%d", st.loops)
		}
		fmt.Fprintf(&b, " time=%s)", time.Duration(st.ns).Round(time.Microsecond))
		return b.String()
	})
	stopped := ""
	if a.limitStop {
		stopped = " (stopped at limit)"
	}
	return tree + fmt.Sprintf("analyzed: %d rows out, total %s%s\n",
		a.resultRows, a.elapsed.Round(time.Microsecond), stopped)
}

// instrCursor wraps one pipeline cursor with rows/batches/time
// accounting. Timing is inclusive: the wrapped call's time covers
// everything beneath it.
type instrCursor struct {
	in cursor
	st *opStat
}

func (c *instrCursor) markTransient() { markTransientCursor(c.in) }

func (c *instrCursor) NextBatch() ([]relation.Row, error) {
	t0 := time.Now()
	batch, err := c.in.NextBatch()
	c.st.ns += int64(time.Since(t0))
	c.st.rows += int64(len(batch))
	if len(batch) > 0 {
		c.st.batches++
	}
	return batch, err
}

func (c *instrCursor) Close() { c.in.Close() }

// analyzeEntry executes a prepared SELECT on an instrumented shadow
// handle, returning the materialized result and the annotated plan.
func (e *Engine) analyzeEntry(en *cacheEntry, args []any) (*Result, string, error) {
	h := *e
	an := &analyzeState{}
	h.an = an
	t0 := time.Now()
	res, err := h.queryEntry(en, args)
	an.elapsed = time.Since(t0)
	if err != nil {
		return nil, "", err
	}
	an.resultRows = len(res.Rows)
	if an.plan == nil {
		an.plan = en.sel.plan
	}
	return res, an.render(), nil
}

// QueryAnalyze executes the prepared SELECT with per-operator
// instrumentation, returning both the result and the annotated plan —
// the building block shard fan-out and slow-log plan capture use to
// analyze without running the query twice.
func (s *Stmt) QueryAnalyze(args ...any) (*Result, string, error) {
	en, err := s.current()
	if err != nil {
		return nil, "", err
	}
	return s.e.analyzeEntry(en, args)
}

// ExplainAnalyze executes the prepared SELECT and renders its plan
// tree annotated with per-operator actuals — rows out, batches
// dispatched, probe loops, and inclusive wall time per cursor — plus
// an execution-total footer.
func (s *Stmt) ExplainAnalyze(args ...any) (string, error) {
	_, plan, err := s.QueryAnalyze(args...)
	return plan, err
}

// ExplainAnalyze is the one-shot form, through the same plan cache.
func (e *Engine) ExplainAnalyze(sql string, args ...any) (string, error) {
	en, err := e.entryFor(sql)
	if err != nil {
		return "", err
	}
	_, plan, err := e.analyzeEntry(en, args)
	return plan, err
}
