package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call. Spans of one request share req (the trace
// script index); parent is the id of the span that caused this one, -1
// for a root. Times are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Class  string `json:"class"`
	Site   string `json:"site"` // "http" real server, "A" in-process handler, "B" in-process call table
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) begin(parent, req int, class, site, name string) int {
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{
		ID: id, Parent: parent, Req: req, Class: class, Site: site, Name: name,
		Start: time.Since(tr.t0).Nanoseconds(),
	})
	return id
}

func (tr *tracer) end(id int) { tr.spans[id].End = time.Since(tr.t0).Nanoseconds() }

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// Call-table spans the handler would count as its own work rather than
// a core-level call.
const (
	spanSession = "community.Session"
	spanJSON    = "server.JSON"
)

// reqTimes are one replayed entry's timings in microseconds.
type reqTimes struct {
	class    string
	http     float64 // real server, one client, over loopback
	handler  float64 // site A: Server.ServeHTTP with a recorder
	children float64 // site B: sum of the call-table spans
	session  float64
	json     float64
}

// replayBlock is how many trace-script entries one side replays before
// the next side gets the same entries. One entry per turn made each
// side find the CPU caches full of the others' data: the in-process
// handler ran 10 % slower than the real server on search, which read as
// a transport of −520 µs. A whole pass per side left seconds between
// the two timings of one entry, and the host's speed moves within
// seconds: coverage of a 250 µs class swung between 0.57 and 0.96. A
// block pays the cold caches on its first entries only and keeps the
// three timings of an entry within a few hundred milliseconds.
const replayBlock = 50

// replay runs the trace script block by block on three sides: the real
// server over HTTP, one twin through its HTTP handler (site "A" in the
// spans), the other as the handler's list of core-level calls with one
// span each (site "B"). All three see
// the same writes in the same order, so they stay identical, and
// nothing runs twice on one site's warm caches. Entries before warm are
// replayed but not recorded. The two in-process payloads of an entry
// must be equal: the call table computes what the handler computes, or
// it has drifted.
func replay(p *serverProc, a, b *twin, script []entry, warm int, tr *tracer) ([]reqTimes, error) {
	out := make([]reqTimes, len(script))
	payloads := make([][]byte, replayBlock)
	for lo := 0; lo < len(script); lo += replayBlock {
		block := script[lo:min(lo+replayBlock, len(script))]
		// The twins swap roles every block, so that neither's memory
		// layout leans on the ratio: the site built second measured a few
		// per cent slower on scans whichever role it played.
		if lo > 0 {
			a, b = b, a
		}
		for j := range block {
			e, i := &block[j], lo+j
			t0 := time.Now()
			code, err := p.send(e)
			t1 := time.Now()
			if err != nil || !statusOK(code) {
				return nil, fmt.Errorf("bench: serial replay %s %s: status %d, %v", e.method, e.path, code, err)
			}
			out[i] = reqTimes{class: e.class, http: float64(t1.Sub(t0).Nanoseconds()) / 1e3}
			if i >= warm {
				tr.spans = append(tr.spans, span{
					ID: len(tr.spans), Parent: -1, Req: i, Class: e.class, Site: "http", Name: "http.RoundTrip",
					Start: t0.Sub(tr.t0).Nanoseconds(), End: t1.Sub(tr.t0).Nanoseconds(),
				})
			}
		}
		for j, e := range block {
			i := lo + j
			if i < warm {
				_, payloads[j] = a.serve(e)
				continue
			}
			root := tr.begin(-1, i, e.class, "A", "server.ServeHTTP")
			code, got := a.serve(e)
			tr.end(root)
			if code != http.StatusOK {
				return nil, fmt.Errorf("bench: twin A answered %s %s with status %d: %s", e.method, e.path, code, got)
			}
			out[i].handler, payloads[j] = tr.spans[root].us(), got
		}
		for j, e := range block {
			i := lo + j
			spanFn, root := noSpan, -1
			if i >= warm {
				root = tr.begin(-1, i, e.class, "B", "twin.Request")
				spanFn = func(name string, fn func()) {
					id := tr.begin(root, i, e.class, "B", name)
					fn()
					tr.end(id)
				}
			}
			want, err := b.call(e, spanFn)
			if err != nil {
				return nil, fmt.Errorf("bench: twin B, entry %d: %w", i, err)
			}
			if i >= warm {
				tr.end(root)
				rt := &out[i]
				for _, s := range tr.spans[root+1:] {
					rt.children += s.us()
					switch s.Name {
					case spanSession:
						rt.session += s.us()
					case spanJSON:
						rt.json += s.us()
					}
				}
			}
			if !sameOutput(e.class, payloads[j], want) {
				return nil, fmt.Errorf("bench: call table drifted from the handler on %s %s\nhandler: %.300s\ncalls:   %.300s", e.method, e.path, payloads[j], want)
			}
		}
	}
	return out[warm:], nil
}

// What the traced run enforces on every request class, or the run
// fails:
//
//   - trace.coverage, Σ call-table spans ÷ handler, lies in 0.6–1.1: the
//     call table accounts for most of the handler's time and does not
//     exceed it. The handler's own routing, query parsing and response
//     recording take a fixed 15–30 µs, which is half of a 40 µs request
//     by itself, so a class also passes while its uncovered (or excess)
//     time stays within fixedHandlerUs.
//   - net.transport_us is not negative: the real server is not faster
//     than the same handler in process. Both sides are medians of
//     millisecond requests on a host whose speed moves within seconds,
//     so "not negative" means not below −transportSlack of the
//     handler's time.
const (
	coverageMin    = 0.6
	coverageMax    = 1.1
	fixedHandlerUs = 60
	transportSlack = 0.1
)

func (s classSummary) check() error {
	outside := s.Coverage < coverageMin || s.Coverage > coverageMax
	if outside && s.HandlerUs*math.Abs(1-s.Coverage) > fixedHandlerUs {
		return fmt.Errorf("bench: trace.coverage.%s = %.3f of %.0f us, outside %.1f–%.1f: the call table in bench/twin.go no longer matches internal/server's handler",
			s.Class, s.Coverage, s.HandlerUs, coverageMin, coverageMax)
	}
	if s.TransportUs < -transportSlack*s.HandlerUs {
		return fmt.Errorf("bench: net.transport_us.%s = %.1f with a handler of %.0f us: the in-process twin is slower than the real server, so it is not configured as the server is",
			s.Class, s.TransportUs, s.HandlerUs)
	}
	return nil
}

// classSummary is one request class's line in the trace summary. Every
// figure is a median over the class's replayed entries, and the derived
// ones are medians of per-entry differences or ratios: the same entry
// ran on every side, so pairing cancels the entry's own cost, and a
// median shrugs off a collector pause on one side.
type classSummary struct {
	Class       string  `json:"class"`
	Samples     int     `json:"samples"`
	HTTPUs      float64 `json:"http_us"`
	HandlerUs   float64 `json:"handler_us"`
	TransportUs float64 `json:"net_transport_us"` // http − handler
	SelfUs      float64 `json:"server_self_us"`   // handler − core-level calls: auth, routing, JSON
	SessionUs   float64 `json:"community_session_us"`
	JSONUs      float64 `json:"server_json_us"`
	Coverage    float64 `json:"coverage"` // Σ call-table spans ÷ handler
}

func summarize(class string, rts []reqTimes) classSummary {
	col := func(f func(reqTimes) float64) float64 {
		v := make([]float64, len(rts))
		for i, r := range rts {
			v[i] = f(r)
		}
		return median(v)
	}
	return classSummary{
		Class: class, Samples: len(rts),
		HTTPUs:      col(func(r reqTimes) float64 { return r.http }),
		HandlerUs:   col(func(r reqTimes) float64 { return r.handler }),
		TransportUs: col(func(r reqTimes) float64 { return r.http - r.handler }),
		SelfUs:      col(func(r reqTimes) float64 { return r.handler - (r.children - r.session - r.json) }),
		SessionUs:   col(func(r reqTimes) float64 { return r.session }),
		JSONUs:      col(func(r reqTimes) float64 { return r.json }),
		Coverage:    col(func(r reqTimes) float64 { return r.children / r.handler }),
	}
}

// traceSummary groups the replayed entries by class, plus the workload's
// headline class and everything pooled, and checks every class. The
// summaries come back even when a check fails, so the caller can print
// the table the error refers to.
func traceSummary(wl workload, rts []reqTimes) (byClass []classSummary, headline, all classSummary, err error) {
	groups := map[string][]reqTimes{}
	var head []reqTimes
	for _, r := range rts {
		groups[r.class] = append(groups[r.class], r)
		if wl.isHeadline(r.class) {
			head = append(head, r)
		}
	}
	names := make([]string, 0, len(groups))
	for c := range groups {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		s := summarize(c, groups[c])
		byClass = append(byClass, s)
		if cerr := s.check(); cerr != nil {
			err = cerr
		}
	}
	if len(head) == 0 {
		return nil, headline, all, fmt.Errorf("bench: no %v request among the %d traced entries", wl.headline, len(rts))
	}
	return byClass, summarize("headline", head), summarize("all", rts), err
}

// spanCostUs measures what recording one span costs, by recording
// empty ones.
func spanCostUs() float64 {
	tr := &tracer{t0: time.Now()}
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.begin(-1, i, "", "", ""))
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / n
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Summary  []classSummary    `json:"summary"`
	Probes   map[string]metric `json:"probes"`
	Spans    []span            `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
