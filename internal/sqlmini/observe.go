package sqlmini

import (
	"fmt"
	"time"

	"courserank/internal/obs"
)

// This file is the statement-level recording layer: when a collector
// is installed (Engine.Observe), every prepared Stmt.Query records
// end-to-end latency and rows under route "query" into per-fingerprint
// histograms, offers slow executions to the slow-query log, and arms
// EXPLAIN ANALYZE plan capture for admitted entries. When no collector
// is installed the cost is one atomic load per execution.

// Observe installs collector c on this engine and every handle
// derived from it — ForceScan and WithBatchSize handles share the
// same slot — or removes it when c is nil. Safe to call at
// runtime while queries are in flight.
func (e *Engine) Observe(c *obs.Collector) {
	if e.obsBox != nil {
		e.obsBox.Store(c)
	}
}

// Observer returns the installed collector, or nil when observability
// is off. One atomic pointer load — the entire disabled-path cost.
func (e *Engine) Observer() *obs.Collector {
	if e.obsBox == nil {
		return nil
	}
	return e.obsBox.Load()
}

// observedQuery runs a prepared SELECT with recording. When
// the slow log previously admitted this statement without a plan
// (capture armed), THIS execution runs instrumented and back-fills
// the entry — the deferred-capture design documented in obs.SlowLog.
func (s *Stmt) observedQuery(c *obs.Collector, en *cacheEntry, args []any) (*Result, error) {
	var own0, ride0 int64
	if c.WALWait != nil {
		own0, ride0 = c.WALWait()
	}
	var res *Result
	var plan string
	var err error
	start := time.Now()
	if s.capture.CompareAndSwap(true, false) {
		res, plan, err = s.e.analyzeEntry(en, args)
	} else {
		res, err = s.e.queryEntry(en, args)
	}
	d := time.Since(start)
	rows := 0
	if res != nil {
		rows = len(res.Rows)
	}
	c.Record(s.text, "query", d, rows, err != nil)
	if plan != "" {
		c.Slow().AttachPlan(s.text, plan)
	}
	s.maybeLogSlow(c, d, rows, args, err, own0, ride0)
	return res, err
}

// maybeLogSlow offers one execution to the slow-query log, arming
// ANALYZE plan capture when the entry is admitted plan-less.
func (s *Stmt) maybeLogSlow(c *obs.Collector, d time.Duration, rows int, args []any, err error, own0, ride0 int64) {
	slow := c.Slow()
	if slow == nil || int64(d) <= slow.Floor() {
		return
	}
	e := obs.SlowEntry{
		SQL:       s.text,
		Route:     "query",
		Rows:      rows,
		LatencyNs: int64(d),
		At:        time.Now(),
	}
	if len(args) > 0 && !slow.Redacting() {
		e.Params = make([]string, len(args))
		for i, a := range args {
			e.Params[i] = fmt.Sprintf("%v", a)
		}
	}
	if err != nil {
		e.Err = err.Error()
	}
	if c.WALWait != nil {
		own1, ride1 := c.WALWait()
		e.WALOwnNs, e.WALRideNs = own1-own0, ride1-ride0
	}
	if slow.Offer(e) {
		s.capture.Store(true)
	}
}
