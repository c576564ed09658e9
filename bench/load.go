package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// counters is every server-side counter the harness reads at a quiet
// point (no client running): CPU from /proc, runtime counters from the
// side listener, layer counters from /api/stats.
type counters struct {
	cpuSec float64
	mem    memStats
	api    apiStats
}

func (p *serverProc) counters() (counters, error) {
	var c counters
	var err error
	if c.cpuSec, err = p.cpuSeconds(); err != nil {
		return c, err
	}
	if c.mem, err = p.memStats(); err != nil {
		return c, err
	}
	c.api, err = p.apiStats()
	return c, err
}

// window is one measured interval of closed-loop load.
type window struct {
	seconds   float64
	attempted int
	failed    int
	writes    int       // successful rate/comment/review requests
	headline  []float64 // latencies of the headline class, ms
	before    counters
	after     counters
	calibMs   []float64 // host calibration kernel, before and after
}

func (w window) ok() int { return w.attempted - w.failed }

// allocKB is the server's TotalAlloc growth over the window per request.
func (w window) allocKB() float64 {
	return (w.after.mem.totalAlloc - w.before.mem.totalAlloc) / 1024 / float64(w.attempted)
}

// loadRun drives one server with the pre-generated client scripts.
type loadRun struct {
	p       *serverProc
	wl      workload
	scripts [][]entry
	pos     []int // next script entry per client
	out     string

	attempted, failed int // over every run call, warm-up included
	firstFailure      atomic.Pointer[string]
}

var errHang = errors.New("bench: a request hit the hang guard")

// run keeps every client in its closed loop — send, wait for the whole
// response, send the next — until d has passed, then returns once each
// in-flight request has completed.
func (r *loadRun) run(d time.Duration) (window, error) {
	var w window
	type tally struct {
		attempted, failed, writes int
		headline                  []float64
		err                       error
	}
	tallies := make([]tally, len(r.scripts))
	var hung atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range r.scripts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			script := r.scripts[c]
			for time.Now().Before(deadline) && !hung.Load() {
				if r.pos[c] >= len(script) {
					t.err = fmt.Errorf("bench: client %d ran out of script after %d requests; raise scriptRate in run.go", c, len(script))
					return
				}
				e := &script[r.pos[c]]
				r.pos[c]++
				t0 := time.Now()
				code, err := r.p.send(e)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				t.attempted++
				if err != nil || !statusOK(code) {
					t.failed++
					msg := fmt.Sprintf("%s %s: status %d, %v", e.method, e.path, code, err)
					r.firstFailure.CompareAndSwap(nil, &msg)
					var timeout interface{ Timeout() bool }
					if errors.As(err, &timeout) && timeout.Timeout() {
						hung.Store(true)
						t.err = errHang
						return
					}
					continue
				}
				if r.wl.isHeadline(e.class) {
					t.headline = append(t.headline, ms)
				}
				if isWrite(e.class) {
					t.writes++
				}
			}
		}(c)
	}
	wg.Wait()
	w.seconds = time.Since(start).Seconds()
	for _, t := range tallies {
		w.attempted += t.attempted
		w.failed += t.failed
		w.writes += t.writes
		w.headline = append(w.headline, t.headline...)
	}
	r.attempted += w.attempted
	r.failed += w.failed
	for _, t := range tallies {
		if errors.Is(t.err, errHang) {
			dump := filepath.Join(r.out, "goroutines-"+r.wl.name+".txt")
			if derr := r.p.dumpGoroutines(dump); derr != nil {
				return w, fmt.Errorf("%w (%s); goroutine dump failed: %v", errHang, *r.firstFailure.Load(), derr)
			}
			return w, fmt.Errorf("%w (%s); server stacks in %s", errHang, *r.firstFailure.Load(), dump)
		}
		if t.err != nil {
			return w, t.err
		}
	}
	return w, nil
}

// measure runs one window between two quiet points: counters and the
// host calibration kernel are taken while no client is running, so
// every CPU tick and allocated byte in the delta belongs to the
// window's requests (plus the fixed cost of reading the counters).
func (r *loadRun) measure(d time.Duration) (window, error) {
	c0 := calibrate()
	before, err := r.p.counters()
	if err != nil {
		return window{}, err
	}
	w, err := r.run(d)
	if err != nil {
		return w, err
	}
	if w.after, err = r.p.counters(); err != nil {
		return w, err
	}
	w.before = before
	w.calibMs = []float64{c0, calibrate()}
	return w, nil
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank percentile of v (which it sorts).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(p*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

// ratio is a/b, and whenZero when nothing happened to take a ratio of.
func ratio(a, b, whenZero float64) float64 {
	if b == 0 {
		return whenZero
	}
	return a / b
}

// endToEnd reduces the measured windows to the end-to-end metrics.
// Each time-based one is the median of its per-window values, so one
// disturbed window cannot move the result. alloc_kb_per_req is a count
// and the host does not disturb it; what moves it from window to window
// is lumpy background work (a checkpoint or a view rebuild falls into
// one window and not the next), which pooling the windows averages out
// and a median does not.
func endToEnd(ws []window, ms *metrics) {
	for _, s := range []struct {
		name, unit string
		value      func(w window) float64
	}{
		{"throughput_rps", "1/s", func(w window) float64 { return float64(w.ok()) / w.seconds }},
		{"p50_ms", "ms", func(w window) float64 { return percentile(w.headline, 0.50) }},
		{"p95_ms", "ms", func(w window) float64 { return percentile(w.headline, 0.95) }},
		{"cpu_ms_per_req", "ms", func(w window) float64 {
			return (w.after.cpuSec - w.before.cpuSec) * 1000 / float64(w.attempted)
		}},
	} {
		var v []float64
		for _, w := range ws {
			v = append(v, s.value(w))
		}
		ms.set(s.name, median(v), s.unit)
	}
	var kb, reqs float64
	for _, w := range ws {
		kb += w.allocKB() * float64(w.attempted)
		reqs += float64(w.attempted)
	}
	ms.set("alloc_kb_per_req", kb/reqs, "KB")
}

// Indexes into vec, the flat form of the layer counters.
const (
	cPlanHits = iota
	cPlanMisses
	cFlexHits
	cFlexMisses
	cMvHits
	cMvStale
	cMvMisses
	cMvRefreshes
	cMvInvalidations
	cTxCommitted
	cTxConflicts
	cWalCommits
	cCheckpoints
	cSyncWaitNs
	cRideWaitNs
	cSyncs
	cRides
	cShardFast
	cShardReplicated
	cShardFanOut
	cShardApplyErrors
	cMallocs
	cGCs
	nCounters
)

type vec [nCounters]float64

// vec flattens the counters so that window deltas add up field by
// field; sections a deployment does not have (durability, sharding)
// stay zero.
func (c counters) vec() vec {
	a := c.api
	v := vec{
		cPlanHits: a.PlanCache.Hits, cPlanMisses: a.PlanCache.Misses,
		cFlexHits: a.FlexCompile.Hits, cFlexMisses: a.FlexCompile.Misses,
		cMvHits: a.Matviews.Hits, cMvStale: a.Matviews.StaleHits, cMvMisses: a.Matviews.Misses,
		cMvRefreshes: a.Matviews.Refreshes, cMvInvalidations: a.Matviews.Invalidations,
		cTxCommitted: a.Transactions.Committed, cTxConflicts: a.Transactions.Conflicts,
		cMallocs: c.mem.mallocs, cGCs: c.mem.numGC,
	}
	if d := a.Durability; d != nil {
		v[cWalCommits], v[cCheckpoints] = d.WAL.Commits, d.Checkpoints
	}
	if w := a.WALWait; w != nil {
		v[cSyncWaitNs], v[cRideWaitNs], v[cSyncs], v[cRides] = w.SyncWaitNs, w.RideWaitNs, w.Syncs, w.GroupRides
	}
	if sh := a.Sharding; sh != nil {
		v[cShardFast], v[cShardReplicated], v[cShardFanOut], v[cShardApplyErrors] = sh.FastPath, sh.Replicated, sh.FanOut, sh.ApplyErrors
	}
	return v
}

// layerCounts reduces the same windows to the per-layer count metrics:
// deltas of the server's own counters summed over the measured
// windows, as ratios where a layer can waste work.
func layerCounts(ws []window, ms *metrics) {
	var reqs, writes float64
	var d vec
	var calib []float64
	for _, w := range ws {
		reqs += float64(w.attempted)
		writes += float64(w.writes)
		after, before := w.after.vec(), w.before.vec()
		for i := range d {
			d[i] += after[i] - before[i]
		}
		calib = append(calib, w.calibMs...)
	}
	// A cache nobody asked counts as all hits: the ratios exist to
	// explain a regression by a drop, and no lookups means no misses.
	ms.set("sqlmini.plan_cache_hit_ratio", ratio(d[cPlanHits], d[cPlanHits]+d[cPlanMisses], 1), "ratio")
	ms.set("flexrecs.compile_hit_ratio", ratio(d[cFlexHits], d[cFlexHits]+d[cFlexMisses], 1), "ratio")
	ms.set("matview.hit_ratio", ratio(d[cMvHits], d[cMvHits]+d[cMvStale]+d[cMvMisses], 1), "ratio")
	ms.set("matview.refreshes_per_1k_req", 1000*d[cMvRefreshes]/reqs, "count")
	ms.set("matview.invalidations_per_1k_req", 1000*d[cMvInvalidations]/reqs, "count")
	ms.set("wal.syncs_per_write", ratio(d[cSyncs], writes, 0), "count")
	ms.set("wal.group_ride_ratio", ratio(d[cRides], d[cWalCommits], 0), "ratio")
	ms.set("wal.sync_wait_us_per_write", ratio(d[cSyncWaitNs]/1e3, writes, 0), "us")
	ms.set("wal.ride_wait_us_per_write", ratio(d[cRideWaitNs]/1e3, writes, 0), "us")
	ms.set("relation.checkpoints", d[cCheckpoints], "count")
	ms.set("relation.tx_committed", d[cTxCommitted], "count")
	ms.set("relation.tx_conflicts", d[cTxConflicts], "count")
	routed := d[cShardFast] + d[cShardReplicated] + d[cShardFanOut]
	ms.set("shard.fan_out_share", ratio(d[cShardFanOut], routed, 0), "ratio")
	ms.set("shard.fast_path_share", ratio(d[cShardFast], routed, 0), "ratio")
	ms.set("shard.apply_errors", d[cShardApplyErrors], "count")
	ms.set("runtime.mallocs_per_req", d[cMallocs]/reqs, "count")
	ms.set("runtime.gc_per_1k_req", 1000*d[cGCs]/reqs, "count")
	ms.set("host.calib_ms", median(calib), "ms")
}
