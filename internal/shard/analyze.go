package shard

import (
	"fmt"
	"strings"
	"time"

	"courserank/internal/sqlmini"
)

// EXPLAIN ANALYZE across the cluster: the statement really executes —
// routed exactly like Query — and the report shows the route taken,
// per-shard rows and wall time, the merge strategy, the short-circuit
// point (the LIMIT each leg stops at), and shard 0's
// fully annotated physical plan. Shard plans are identical by
// construction (same DDL everywhere), so one annotated tree suffices;
// the per-shard lines carry the skew.

// QueryAnalyze executes the SELECT with instrumentation and returns
// the result plus the analyze report.
func (s *Stmt) QueryAnalyze(args ...any) (*sqlmini.Result, string, error) {
	kind, owner := s.route(args)
	switch kind {
	case routeSingle:
		s.c.fastPath.Add(1)
		return s.singleAnalyze(owner, fmt.Sprintf("Route: single shard %d/%d (shard key pinned)\n", owner, s.c.n), args)
	case routeReplicated:
		s.c.replicated.Add(1)
		return s.singleAnalyze(owner, "Route: any single shard (replicated tables only)\n", args)
	default:
		return s.fanoutAnalyze(args)
	}
}

// ExplainAnalyze is QueryAnalyze discarding the rows.
func (s *Stmt) ExplainAnalyze(args ...any) (string, error) {
	_, report, err := s.QueryAnalyze(args...)
	return report, err
}

func (s *Stmt) singleAnalyze(owner int, header string, args []any) (*sqlmini.Result, string, error) {
	res, plan, err := s.per[owner].QueryAnalyze(args...)
	if err != nil {
		return nil, "", err
	}
	return res, header + plan, nil
}

// fanoutAnalyze mirrors fanoutQuery — same legs, same parallel
// scatter, same merge — with each shard leg running instrumented.
func (s *Stmt) fanoutAnalyze(args []any) (*sqlmini.Result, string, error) {
	if s.fanoutErr != nil {
		return nil, "", s.fanoutErr
	}
	s.c.fanOut.Add(1)
	limit, err := s.per[0].Limit(args...)
	if err != nil {
		return nil, "", err
	}
	plans := make([]string, s.c.n)
	times := make([]time.Duration, s.c.n)
	results, err := s.parQuery(func(i int) (*sqlmini.Result, error) {
		t0 := time.Now()
		res, plan, err := s.per[i].QueryAnalyze(args...)
		times[i] = time.Since(t0)
		plans[i] = plan
		return res, err
	})
	if err != nil {
		return nil, "", err
	}
	out := s.merge(results, limit)

	var b strings.Builder
	fmt.Fprintf(&b, "Route: fan-out over %d shards, merge=%s\n", s.c.n, s.mergeName())
	in := 0
	for i, r := range results {
		fmt.Fprintf(&b, "  shard %d: %d rows in %s\n", i, len(r.Rows), times[i].Round(time.Microsecond))
		in += len(r.Rows)
	}
	if limit >= 0 {
		fmt.Fprintf(&b, "short-circuit: each shard stops at LIMIT %d\n", limit)
	}
	fmt.Fprintf(&b, "merged: %d rows in, %d rows out\n", in, len(out))
	b.WriteString("shard 0 plan:\n")
	b.WriteString(plans[0])
	return &sqlmini.Result{Columns: results[0].Columns, Rows: out}, b.String(), nil
}
