package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxStatements bounds the collector's fingerprint map. A workload
// that somehow produces more distinct statement texts (the plan cache
// is keyed the same way, so this would mean the plan cache is also
// thrashing) aggregates the overflow under one catch-all key instead
// of growing without bound.
const (
	maxStatements = 1024
	overflowKey   = "(other)"
)

// QueryStat is the per-fingerprint accumulator: a latency histogram
// plus row and error totals. All methods are safe for concurrent use.
type QueryStat struct {
	fingerprint string
	route       atomic.Pointer[string]
	hist        Histogram
	rows        atomic.Int64
	errs        atomic.Uint64
}

// QuerySummary is one fingerprint's extract: counts, percentiles and
// the route the statement last took. Shaped for /api/queries.
type QuerySummary struct {
	SQL     string `json:"sql"`
	Route   string `json:"route,omitempty"`
	Count   uint64 `json:"count"`
	Rows    int64  `json:"rows"`
	Errors  uint64 `json:"errors,omitempty"`
	TotalNs int64  `json:"total_ns"`
	MeanNs  int64  `json:"mean_ns"`
	P50Ns   int64  `json:"p50_ns"`
	P95Ns   int64  `json:"p95_ns"`
	P99Ns   int64  `json:"p99_ns"`
	MaxNs   int64  `json:"max_ns"`
}

// Collector aggregates per-statement latency histograms keyed by
// statement fingerprint (the same text key the plan cache uses) and
// an optional slow-query log. One collector serves a whole site; all
// methods are safe for concurrent use.
//
// WALWait, when non-nil, samples the storage layer's cumulative WAL
// commit-wait counters (own-fsync ns, group-ride ns); the slow-query
// log uses before/after deltas to attribute durability wait to a
// statement. It must be installed before traffic starts.
type Collector struct {
	stats  sync.Map // fingerprint → *QueryStat
	nstats atomic.Int64
	slow   *SlowLog

	WALWait func() (ownNs, rideNs int64)
}

// NewCollector returns a collector whose slow-query log keeps the
// slowN slowest statements (slowN <= 0 disables the log).
func NewCollector(slowN int) *Collector {
	c := &Collector{}
	if slowN > 0 {
		c.slow = NewSlowLog(slowN)
	}
	return c
}

// Slow returns the slow-query log, or nil when disabled.
func (c *Collector) Slow() *SlowLog { return c.slow }

// Stat returns the accumulator for a fingerprint, creating it on
// first use. Past maxStatements distinct fingerprints, new ones
// aggregate under a shared overflow key.
func (c *Collector) Stat(fingerprint string) *QueryStat {
	if v, ok := c.stats.Load(fingerprint); ok {
		return v.(*QueryStat)
	}
	if c.nstats.Load() >= maxStatements && fingerprint != overflowKey {
		return c.Stat(overflowKey)
	}
	v, loaded := c.stats.LoadOrStore(fingerprint, &QueryStat{fingerprint: fingerprint})
	if !loaded {
		c.nstats.Add(1)
	}
	return v.(*QueryStat)
}

// Record adds one execution: end-to-end latency, rows returned, the
// route it took ("query", "fan-out", "http", ...), and whether it
// errored. Returns the accumulator so callers can reuse it.
func (c *Collector) Record(fingerprint, route string, d time.Duration, rows int, errored bool) *QueryStat {
	st := c.Stat(fingerprint)
	st.hist.Record(d)
	st.rows.Add(int64(rows))
	if errored {
		st.errs.Add(1)
	}
	if route != "" {
		if cur := st.route.Load(); cur == nil || *cur != route {
			st.route.Store(&route)
		}
	}
	return st
}

// summary extracts one stat's QuerySummary.
func (q *QueryStat) summary() QuerySummary {
	s := QuerySummary{
		SQL:     q.fingerprint,
		Count:   q.hist.Count(),
		Rows:    q.rows.Load(),
		Errors:  q.errs.Load(),
		TotalNs: q.hist.SumNs(),
		MeanNs:  q.hist.MeanNs(),
		P50Ns:   int64(q.hist.Quantile(0.50)),
		P95Ns:   int64(q.hist.Quantile(0.95)),
		P99Ns:   int64(q.hist.Quantile(0.99)),
		MaxNs:   q.hist.MaxNs(),
	}
	if r := q.route.Load(); r != nil {
		s.Route = *r
	}
	return s
}

// Top returns the k highest-ranked fingerprints; by is "p99" or
// "total" (total time; the default). k <= 0 returns everything.
func (c *Collector) Top(k int, by string) []QuerySummary {
	var all []QuerySummary
	c.stats.Range(func(_, v any) bool {
		all = append(all, v.(*QueryStat).summary())
		return true
	})
	sort.Slice(all, func(i, j int) bool {
		if by == "p99" {
			if all[i].P99Ns != all[j].P99Ns {
				return all[i].P99Ns > all[j].P99Ns
			}
		}
		if all[i].TotalNs != all[j].TotalNs {
			return all[i].TotalNs > all[j].TotalNs
		}
		return all[i].SQL < all[j].SQL
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}
