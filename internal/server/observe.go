package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"courserank/internal/community"
	"courserank/internal/core"
	"courserank/internal/matview"
	"courserank/internal/obs"
	"courserank/internal/relation"
	"courserank/internal/shard"
)

// The observability surface: a typed /api/stats payload (so the key
// set is part of the API contract and golden-tested), /api/queries
// (top statements by p99 or total time), /api/slowlog, and
// /api/analyze/{strategy} — EXPLAIN ANALYZE for a whole
// recommendation workflow. The query-level sections exist when the
// site has observability enabled (core.Site.EnableObservability);
// without it the endpoints say so instead of guessing.

// statsPayload is the /api/stats response. Every field below without
// omitempty is always present; durability, walWait and sharding appear
// on durable and sharded deployments respectively.
type statsPayload struct {
	PlanCache       planCacheSection       `json:"planCache"`
	FlexCompile     flexCompileSection     `json:"flexCompile"`
	FlexMaterialize flexMaterializeSection `json:"flexMaterialize"`
	Matviews        matviewSection         `json:"matviews"`
	Scale           core.Scale             `json:"scale"`
	Transactions    txSection              `json:"transactions"`
	Durability      *relation.DurableStats `json:"durability,omitempty"`
	WALWait         *walWaitSection        `json:"walWait,omitempty"`
	Sharding        *shard.Stats           `json:"sharding,omitempty"`
}

type planCacheSection struct {
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Invalidations uint64  `json:"invalidations"`
	Entries       int     `json:"entries"`
	HitRate       float64 `json:"hitRate"`
}

type flexCompileSection struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

type flexMaterializeSection struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// matviewSection is the registry's counters. StaleHits is always 0 —
// a view never serves a stale snapshot — and stays in the payload for
// clients that decode it.
type matviewSection struct {
	Views         int    `json:"views"`
	Hits          uint64 `json:"hits"`
	StaleHits     uint64 `json:"staleHits"`
	Misses        uint64 `json:"misses"`
	Refreshes     uint64 `json:"refreshes"`
	Patches       uint64 `json:"patches"`
	Invalidations uint64 `json:"invalidations"`
	Errors        uint64 `json:"errors"`
}

type txSection struct {
	Active    int64  `json:"active"`
	Committed uint64 `json:"committed"`
	Aborted   uint64 `json:"aborted"`
	Conflicts uint64 `json:"conflicts"`
}

// walWaitSection attributes commit durability waits: time spent
// leading an fsync vs waiting behind another committer's and riding
// it. Syncs and groupRides are the matching counts.
type walWaitSection struct {
	SyncWaitNs int64  `json:"syncWaitNs"`
	RideWaitNs int64  `json:"rideWaitNs"`
	Syncs      uint64 `json:"syncs"`
	GroupRides uint64 `json:"groupRides"`
}

func matviewSectionOf(mv matview.Stats) matviewSection {
	return matviewSection{
		Views:         mv.Views,
		Hits:          mv.Hits,
		Misses:        mv.Misses,
		Refreshes:     mv.Refreshes,
		Patches:       mv.Patches,
		Invalidations: mv.Invalidations,
		Errors:        mv.Errors,
	}
}

// statsSnapshot assembles the /api/stats payload; split from the
// handler so tests can golden the struct directly.
func (s *Server) statsSnapshot() statsPayload {
	cs := s.site.SQL.CacheStats()
	fh, fm := s.site.Flex.CompileStats()
	mh, mm := s.site.Flex.MatStats()
	tst := s.site.DB.TxStats()
	out := statsPayload{
		PlanCache: planCacheSection{
			Hits:          cs.Hits,
			Misses:        cs.Misses,
			Invalidations: cs.Invalidations,
			Entries:       cs.Entries,
			HitRate:       cs.HitRate(),
		},
		FlexCompile:     flexCompileSection{Hits: fh, Misses: fm},
		FlexMaterialize: flexMaterializeSection{Hits: mh, Misses: mm},
		Matviews:        matviewSectionOf(s.site.Views.Stats()),
		Scale:           s.site.Scale(),
		Transactions: txSection{
			Active:    tst.Active,
			Committed: tst.Committed,
			Aborted:   tst.Aborted,
			Conflicts: tst.Conflicts,
		},
	}
	if s.site.Durable != nil {
		ds := s.site.Durable.Stats()
		out.Durability = &ds
		out.WALWait = &walWaitSection{
			SyncWaitNs: ds.WAL.SyncWaitNs,
			RideWaitNs: ds.WAL.RideWaitNs,
			Syncs:      ds.WAL.Syncs,
			GroupRides: ds.WAL.GroupRides,
		}
	}
	if s.site.Sharded != nil {
		ss := s.site.Sharded.Stats()
		out.Sharding = &ss
	}
	return out
}

// errObsDisabled is what the query-level endpoints return on a site
// without EnableObservability.
var errObsDisabled = errors.New("observability disabled (site was built without EnableObservability)")

// handleQueries serves the top-K statement fingerprints by p99 or
// total time: per-statement counts, rows, and latency percentiles out
// of the lock-free histograms.
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request, _ community.User) {
	c := s.site.Obs
	if c == nil {
		writeErr(w, http.StatusServiceUnavailable, errObsDisabled)
		return
	}
	k := 10
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad k: %w", err))
			return
		}
		k = n
	}
	by := r.URL.Query().Get("by")
	switch by {
	case "":
		by = "total"
	case "p99", "total":
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("by must be p99 or total, got %q", by))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		By      string             `json:"by"`
		Queries []obs.QuerySummary `json:"queries"`
	}{By: by, Queries: c.Top(k, by)})
}

// handleSlowlog serves the slow-query log, slowest first: SQL, bound
// params (unless redacted), the ANALYZE-annotated plan once the
// statement ran again, and WAL wait attribution.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request, _ community.User) {
	c := s.site.Obs
	if c == nil {
		writeErr(w, http.StatusServiceUnavailable, errObsDisabled)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Entries []obs.SlowEntry `json:"entries"`
	}{Entries: c.Slow().Entries()})
}

// handleAnalyze is EXPLAIN ANALYZE for a recommendation strategy: the
// workflow executes for real and the response is its operator tree
// annotated with per-step actuals, each compiled subtree carrying the
// SQL engine's per-operator instrumentation (and, on sharded sites,
// the fan-out's per-shard breakdown).
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request, u community.User) {
	strategy := r.PathValue("strategy")
	tpl, ok := s.site.Strategies.Get(strategy)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no strategy %q", strategy))
		return
	}
	wf, err := tpl.Build(strategyParams(r, u))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, report, err := s.site.Flex.RunAnalyze(wf)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Strategy string `json:"strategy"`
		Rows     int    `json:"rows"`
		Plan     string `json:"plan"`
	}{Strategy: strategy, Rows: res.Len(), Plan: report})
}

// statusWriter captures the response code for endpoint latency
// recording.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// observedServe wraps the mux with endpoint latency recording: one
// histogram per route template — the pattern the mux matched and left
// on the request, e.g. "GET /api/course/{id}" — route "http", server
// errors counted. The template, not the raw path: course ids alone
// would use up the collector's 1 024 fingerprints and fold every later
// endpoint into "(other)". Runs only when the site has a collector.
func (s *Server) observedServe(c *obs.Collector, w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	route := r.Pattern
	if route == "" {
		route = "(unmatched)"
	}
	c.Record(route, "http", time.Since(start), 0, sw.code >= http.StatusInternalServerError)
}
