package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks the
// harness against.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeAllWorkloads runs all four workloads, untraced and traced,
// against a tiny-scale server with half-second windows, and checks that
// every metric BENCHMARK.json names is printed with its unit and that
// no request failed.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the server process")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	l, err := newLayout("..")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := l.buildServer()
	if err != nil {
		t.Fatal(err)
	}
	o := defaultOptions()
	o.scale, o.seconds, o.warmup, o.setups = "tiny", 1.5, 300*time.Millisecond, 2
	o.traceWarm, o.traceLen, o.probeBudget = 100, 300, 5*time.Millisecond
	// A tiny deployment answers in tens of microseconds: the scripts must
	// feed a much higher rate, and half a second cannot hold 200 samples
	// of one class.
	o.scriptRate, o.minHeadline = 12000, 1
	for i, wl := range workloads {
		if bf.Workloads[i].Name != wl.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, bf.Workloads[i].Name, wl.name)
		}
		for trace, want := range [][]struct{ Name, Unit string }{bf.EndToEnd, bf.PerLayer} {
			res, err := runOne(l, bin, wl, trace, o)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wl.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 || !res.Correct {
				t.Errorf("%s trace=%d: %d of %d requests failed, correct=%v", wl.name, trace, res.Failed, res.Attempted, res.Correct)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, BENCHMARK.json names %d", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s is not printed", wl.name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s has unit %q, BENCHMARK.json says %q", wl.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
