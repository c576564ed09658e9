package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A/A mode runs one commit against itself: every workload n times with
// seeds seed, seed+1, …, each run a fresh process exactly as the driver
// starts it. The table says how far a metric moves with no code change,
// which is what a bound has to exceed, and the bounds in BENCHMARK.json
// are derived from it by rule (deriveBounds), not chosen.

// aaCell is one metric on one workload across the A/A runs.
type aaCell struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	// Range is (max − min) ÷ median; IQR is (Q3 − Q1) ÷ median with the
	// quartiles of Python's statistics.quantiles(values, n=4), the
	// spread the driver computes.
	Range float64 `json:"range"`
	IQR   float64 `json:"iqr"`
	// Drift is how much worse (positive) or better the median of the
	// second half of the runs is than the median of the first half, as a
	// share of the first: the driver's comparison of two sets of runs.
	Drift float64 `json:"drift"`
}

// aaBound is the bound the A/A table gives one end-to-end metric.
type aaBound struct {
	Metric   string  `json:"metric"`
	Start    float64 `json:"starting_bound"`
	MaxRange float64 `json:"max_range"` // widest range over the workloads
	On       string  `json:"on"`        // the workload that had it
	MaxIQR   float64 `json:"max_iqr"`   // widest quartile spread over the workloads
	Bound    float64 `json:"bound"`
	Demoted  bool    `json:"demoted"`
}

type aaFile struct {
	Runs    int       `json:"runs"`
	Seconds float64   `json:"seconds"`
	Seeds   []int64   `json:"seeds"`
	Failed  int       `json:"failed_requests"`
	Bounds  []aaBound `json:"bounds"`
	Cells   []aaCell  `json:"cells"`
}

// endToEndSpec is ISSUE.md's end-to-end list: name, direction and the
// starting bound a metric keeps while the A/A table allows it.
var endToEndSpec = []struct {
	name   string
	higher bool
	start  float64
}{
	{"setup_s", false, 0.25},
	{"throughput_rps", true, 0.10},
	{"p50_ms", false, 0.12},
	{"p95_ms", false, 0.20},
	{"cpu_ms_per_req", false, 0.10},
	{"alloc_kb_per_req", false, 0.03},
	{"peak_rss_mb", false, 0.12},
}

const (
	// maxBound is the widest bound BENCHMARK.json may declare.
	maxBound = 0.25
	// demoteAbove is the A/A range beyond which a metric cannot carry a
	// bound at all.
	demoteAbove = 0.25
)

// deriveBounds applies ISSUE.md's rule to the A/A table: a metric's
// bound is the largest of its starting bound, 1.25 × its widest A/A
// range and 3 × its widest quartile spread (the benchmark contract
// wants every spread below a third of its bound), rounded up to two
// decimals and at most maxBound; a metric whose range exceeds
// demoteAbove on any workload is demoted to a per-layer metric.
// setup_s has to stay end to end whatever its range: it takes maxBound.
func deriveBounds(cells []aaCell) []aaBound {
	var out []aaBound
	for _, m := range endToEndSpec {
		b := aaBound{Metric: m.name, Start: m.start}
		for _, c := range cells {
			if c.Metric != m.name {
				continue
			}
			if c.Range > b.MaxRange {
				b.MaxRange, b.On = c.Range, c.Workload
			}
			b.MaxIQR = max(b.MaxIQR, c.IQR)
		}
		b.Bound = min(maxBound, max(m.start, math.Ceil(125*b.MaxRange)/100, math.Ceil(300*b.MaxIQR)/100))
		b.Demoted = b.MaxRange > demoteAbove && m.name != "setup_s"
		out = append(out, b)
	}
	return out
}

// quartiles are Q1 and Q3 by the exclusive method (position
// (n+1)·k/4, linear interpolation), as statistics.quantiles gives them.
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(k float64) float64 {
		n := len(sorted)
		pos := float64(n+1) * k / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(1), at(3)
}

// sortedMedian is the median of an already sorted slice, the mean of
// the middle two when the count is even (statistics.median).
func sortedMedian(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func newCell(workload, name, unit string, values []float64) aaCell {
	sorted := sortedCopy(values)
	c := aaCell{Workload: workload, Metric: name, Unit: unit, Values: values,
		Median: sortedMedian(sorted), Min: sorted[0], Max: sorted[len(sorted)-1]}
	q1, q3 := quartiles(sorted)
	c.Range, c.IQR = (c.Max-c.Min)/c.Median, (q3-q1)/c.Median
	half := len(values) / 2
	first, second := sortedMedian(sortedCopy(values[:half])), sortedMedian(sortedCopy(values[half:]))
	c.Drift = (second - first) / first
	for _, m := range endToEndSpec {
		if m.name == name && m.higher {
			c.Drift = -c.Drift
		}
	}
	return c
}

func runAA(l layout, n int, o options) error {
	if n < 4 {
		return fmt.Errorf("bench: -aa needs at least 4 runs")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := aaFile{Runs: n, Seconds: o.seconds}
	for i := 0; i < n; i++ {
		out.Seeds = append(out.Seeds, o.seed+int64(i))
	}
	values := map[[2]string][]float64{}
	units := map[string]string{}
	for _, seed := range out.Seeds {
		for _, wl := range workloads {
			cmd := exec.Command(self, "--workload", wl.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0", "-scale", o.scale, "-all")
			cmd.Dir = l.root
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("bench: A/A run %s seed %d: %w\n%s", wl.name, seed, err, stderr.Bytes())
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("bench: A/A run %s seed %d: last line is not a result: %w", wl.name, seed, err)
			}
			out.Failed += res.Failed
			for name, m := range res.Metrics {
				units[name] = m.Unit
				values[[2]string{wl.name, name}] = append(values[[2]string{wl.name, name}], m.Value)
			}
			fmt.Fprintf(os.Stderr, "aa: seed %d %-10s done (%d requests, %d failed)\n", seed, wl.name, res.Attempted, res.Failed)
		}
	}
	fmt.Printf("%-11s %-18s %12s %12s %12s %8s %8s %8s\n", "workload", "metric", "median", "min", "max", "range", "iqr", "drift")
	for _, wl := range workloads {
		for _, m := range endToEndSpec {
			v := values[[2]string{wl.name, m.name}]
			c := newCell(wl.name, m.name, units[m.name], v)
			out.Cells = append(out.Cells, c)
			fmt.Printf("%-11s %-18s %12.4f %12.4f %12.4f %7.1f%% %7.1f%% %+7.1f%%\n",
				c.Workload, c.Metric, c.Median, c.Min, c.Max, 100*c.Range, 100*c.IQR, 100*c.Drift)
		}
	}
	out.Bounds = deriveBounds(out.Cells)
	fmt.Printf("\n%-18s %9s %10s %-11s %8s %7s\n", "metric", "starting", "max range", "on", "max iqr", "bound")
	for _, b := range out.Bounds {
		verdict := fmt.Sprintf("%7.2f", b.Bound)
		if b.Demoted {
			verdict = "demoted to per-layer"
		}
		fmt.Printf("%-18s %9.2f %9.1f%% %-11s %7.1f%% %s\n", b.Metric, b.Start, 100*b.MaxRange, b.On, 100*b.MaxIQR, verdict)
	}
	dir := filepath.Join(l.root, "bench", "baseline")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "aa.json"), append(b, '\n'), 0o644)
}
