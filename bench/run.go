package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// options are the knobs of one run. Only seed, seconds and scale vary
// between invocations; the rest are the load model's constants, kept
// here so the smoke test can shrink them.
type options struct {
	scale   string
	seed    int64
	seconds float64 // measured time of one run, split evenly over the windows
	all     bool    // the untraced run keeps the demoted metrics

	clients int           // closed-loop keep-alive connections, = nproc of the sizing box
	warmup  time.Duration // load before the first window: plan cache, matviews, GC pacing settle
	windows int           // measured windows per run; every metric is the median over them
	setups  int           // server start-ups per run; setup_s is their median

	traceWarm   int           // trace-script entries replayed before recording
	traceLen    int           // trace-script entries recorded
	probeBudget time.Duration // time cap of one storage-level probe

	// scriptRate sizes the pre-generated scripts: requests per second
	// per client that a script must be able to feed. Far above anything
	// the server sustains; running out fails the run.
	scriptRate float64
	// minHeadline is the fewest headline-class samples a window may
	// have: p95 needs ten samples beyond it.
	minHeadline int
}

func defaultOptions() options {
	return options{
		scale: "small", seed: 1, seconds: 18,
		clients: 2, warmup: 3 * time.Second, windows: 3, setups: 3,
		traceWarm: 300, traceLen: 700, probeBudget: 80 * time.Millisecond,
		scriptRate: 1500, minHeadline: 200,
	}
}

// result is what one run reports: the driver's four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

// newResult reports ms with the requests lr sent, warm-up included.
// Every scripted request is valid by construction, so one failure makes
// the run incorrect.
func newResult(ms *metrics, lr *loadRun) *result {
	return &result{Correct: lr.failed == 0, Attempted: lr.attempted, Failed: lr.failed, Metrics: ms.m, order: ms.names}
}

func (o options) window() time.Duration {
	return time.Duration(o.seconds / float64(o.windows) * float64(time.Second))
}

func (o options) scriptLen() int {
	return int(o.scriptRate * (o.warmup.Seconds() + o.seconds + 1))
}

// measureWorkload is the untraced run: the end-to-end metrics of wl.
func measureWorkload(l layout, bin string, wl workload, o options) (*result, error) {
	twinDir, err := os.MkdirTemp(l.out, "twin-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(twinDir)
	tw, err := newTwin(wl, o.scale, twinDir)
	if err != nil {
		return nil, err
	}
	defer tw.close()
	w, err := tw.world(o.scale)
	if err != nil {
		return nil, err
	}
	sc := generate(w, wl, o.seed, o.clients, o.scriptLen(), o.traceWarm+o.traceLen)

	// Set-up is measured o.setups times; the last server is the one the
	// load runs against.
	var p *serverProc
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if p != nil {
			p.stop()
		}
		if p, err = startServer(l, bin, wl, o.scale, w, o.clients); err != nil {
			return nil, err
		}
		setups = append(setups, p.setupSec)
	}
	defer p.stop()
	fmt.Fprintf(os.Stderr, "bench: %s set-ups: %.3f s\n", wl.name, setups)

	if err := tw.login(w); err != nil {
		return nil, err
	}
	if err := checkOutputs(p, wl, w, sc.trace, tw); err != nil {
		return nil, err
	}
	// The twin has done its job; its heap must not tax the load
	// generator's collector during the timed windows.
	tw.close()
	runtime.GC()

	lr := &loadRun{p: p, wl: wl, scripts: sc.clients, pos: make([]int, o.clients), out: l.out}
	ws, err := lr.windows(o)
	if err != nil {
		return nil, err
	}
	rss, err := p.peakRSSMB()
	if err != nil {
		return nil, err
	}
	ms := newMetrics()
	ms.set("setup_s", median(setups), "s")
	endToEnd(ws, ms)
	ms.set("peak_rss_mb", rss, "MB")
	if !o.all {
		for _, name := range demoted {
			ms.drop(name)
		}
	}
	return newResult(ms, lr), nil
}

// windows warms the server up and measures n windows, checking that
// each has enough headline samples for its percentiles.
func (r *loadRun) windows(o options) ([]window, error) {
	report := func(what string, w window) {
		if w.failed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s of %s: %d of %d requests failed, first: %s\n",
				what, r.wl.name, w.failed, w.attempted, *r.firstFailure.Load())
		}
	}
	warm, err := r.run(o.warmup)
	if err != nil {
		return nil, err
	}
	report("warm-up", warm)
	var ws []window
	for i := 0; i < o.windows; i++ {
		w, err := r.measure(o.window())
		if err != nil {
			return nil, err
		}
		report(fmt.Sprintf("window %d", i+1), w)
		if len(w.headline) < o.minHeadline {
			return nil, fmt.Errorf("bench: window %d of %s has %d %v samples, p95 needs %d; lengthen -seconds",
				i+1, r.wl.name, len(w.headline), r.wl.headline, o.minHeadline)
		}
		fmt.Fprintf(os.Stderr, "bench: %s window %d: %d requests in %.2f s, %d %v samples, %.1f KB allocated per request, host.calib_ms %.2f before, %.2f after\n",
			r.wl.name, i+1, w.attempted, w.seconds, len(w.headline), r.wl.headline, w.allocKB(), w.calibMs[0], w.calibMs[1])
		ws = append(ws, w)
	}
	return ws, nil
}

// traceWorkload is the traced run: the per-layer metrics of wl. Counts
// come from one untraced load window against the real server; times
// come from replaying the trace script serially on the server and on
// two in-process twins, and from fixed probes against the second twin.
func traceWorkload(l layout, bin string, wl workload, o options) (*result, error) {
	var twins [2]*twin
	var dirs [2]string
	// The collector stays off while the twins are built. With it on, the
	// second site's rows fill the holes the first build's garbage left
	// and end up interleaved with the first site's: the second-built site
	// then measures 5–8 % slower on every scan, whichever replay path it
	// serves, which read as coverage 1.08 and negative transport.
	gcPercent := debug.SetGCPercent(-1)
	for i := range twins {
		var err error
		if dirs[i], err = os.MkdirTemp(l.out, "twin-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dirs[i])
		if twins[i], err = newTwin(wl, o.scale, dirs[i]); err != nil {
			return nil, err
		}
		defer twins[i].close()
	}
	debug.SetGCPercent(gcPercent)
	runtime.GC()
	a, b := twins[0], twins[1]
	w, err := a.world(o.scale)
	if err != nil {
		return nil, err
	}
	sc := generate(w, wl, o.seed, o.clients, o.scriptLen(), o.traceWarm+o.traceLen)

	p, err := startServer(l, bin, wl, o.scale, w, o.clients)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	for _, t := range twins {
		if err := t.login(w); err != nil {
			return nil, err
		}
	}
	if err := checkOutputs(p, wl, w, sc.trace, a, b); err != nil {
		return nil, err
	}

	// The replay comes first, while the server's state is still exactly
	// the twins' state; the load window's writes come after.
	lr := &loadRun{p: p, wl: wl, scripts: sc.clients, pos: make([]int, o.clients), out: l.out}
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, 10*o.traceLen)}
	rts, err := replay(p, a, b, sc.trace, o.traceWarm, tr)
	if err != nil {
		return nil, err
	}
	lr.attempted += len(sc.trace)
	byClass, head, all, err := traceSummary(wl, rts)
	for _, s := range byClass {
		fmt.Fprintf(os.Stderr, "trace %-20s n=%-4d http %8.1f us  handler %8.1f us  transport %7.1f us  self %7.1f us  coverage %.3f\n",
			s.Class, s.Samples, s.HTTPUs, s.HandlerUs, s.TransportUs, s.SelfUs, s.Coverage)
	}
	if err != nil {
		return nil, err
	}

	one := o
	one.windows, one.seconds = 1, o.seconds/float64(o.windows)
	ws, err := lr.windows(one)
	if err != nil {
		return nil, err
	}
	p.stop()

	// The end-to-end metrics that are too unsteady to carry a bound
	// (spec.go, demoted) are reported here, from the one load window.
	ms, e2e := newMetrics(), newMetrics()
	endToEnd(ws, e2e)
	for _, name := range demoted {
		ms.set(name, e2e.m[name].Value, e2e.m[name].Unit)
	}
	layerCounts(ws, ms)
	traceMetrics(ms, byClass, head, all, rts, len(tr.spans))
	ms.set("obs.overhead_ratio", obsOverhead(a, sc.trace[o.traceWarm:]), "ratio")

	scratch, err := os.MkdirTemp(l.out, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	probes := newMetrics()
	if err := runProbes(b, dirs[1], scratch, o.probeBudget, probes); err != nil {
		return nil, err
	}
	for _, name := range probes.names {
		ms.set(name, probes.m[name].Value, probes.m[name].Unit)
	}
	path, err := writeTrace(l.out, traceFile{
		Workload: wl.name, Seed: o.seed,
		Summary: append(byClass, head, all), Probes: probes.m, Spans: tr.spans,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(tr.spans), path)
	return newResult(ms, lr), nil
}

// traceMetrics turns the replay's summaries into per-layer metrics.
func traceMetrics(ms *metrics, byClass []classSummary, head, all classSummary, rts []reqTimes, spans int) {
	for _, s := range []classSummary{head, all} {
		ms.set("server.self_us."+s.Class, s.SelfUs, "us")
		ms.set("community.session_us."+s.Class, s.SessionUs, "us")
		ms.set("server.json_us."+s.Class, s.JSONUs, "us")
	}
	// Every run prints every per-layer metric, so a class this workload
	// does not send reports 0 for both.
	got := map[string]classSummary{}
	for _, s := range byClass {
		got[s.Class] = s
	}
	for _, c := range classes {
		ms.set("net.transport_us."+c, got[c].TransportUs, "us")
		ms.set("trace.coverage."+c, got[c].Coverage, "ratio")
	}
	// Tracing lives in the harness: its whole cost is recording spans
	// around the call table, so the overhead is spans × cost of one span
	// over the time the traced requests took.
	var traced float64
	for _, r := range rts {
		traced += r.children
	}
	ms.set("trace.overhead_ratio", 1+spanCostUs()*float64(spans)/traced, "ratio")
}

// obsOverhead is the handler's time with query-level observability on
// over its time with it off, on the read requests of the replayed
// script (reads are idempotent, so replaying them again changes
// nothing). Passes alternate on/off so drift hits both sides alike.
func obsOverhead(a *twin, script []entry) float64 {
	var reads []entry
	for _, e := range script {
		if !isWrite(e.class) && len(reads) < 150 {
			reads = append(reads, e)
		}
	}
	for _, e := range reads {
		a.serve(e) // unmeasured: rebuilds whatever the replay's last writes staled
	}
	var on, off time.Duration
	for pass := 0; pass < 4; pass++ {
		if pass%2 == 0 {
			a.site.EnableObservability()
		} else {
			a.site.DisableObservability()
		}
		t0 := time.Now()
		for _, e := range reads {
			a.serve(e)
		}
		if pass%2 == 0 {
			on += time.Since(t0)
		} else {
			off += time.Since(t0)
		}
	}
	a.site.EnableObservability()
	return ratio(float64(on), float64(off), 0)
}
