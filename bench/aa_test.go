package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBoundsComeFromBaseline holds BENCHMARK.json to the committed A/A
// table: the end-to-end list is exactly the metrics deriveBounds keeps,
// each with the bound it gives, and the harness demotes exactly the
// rest.
func TestBoundsComeFromBaseline(t *testing.T) {
	var aa aaFile
	raw, err := os.ReadFile("baseline/aa.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &aa); err != nil {
		t.Fatal(err)
	}
	if aa.Failed != 0 {
		t.Errorf("baseline/aa.json records %d failed requests", aa.Failed)
	}
	var bf struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if raw, err = os.ReadFile("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	declared := map[string]float64{}
	for _, m := range bf.EndToEnd {
		declared[m.Name] = m.Bound
	}
	isDemoted := map[string]bool{}
	for _, name := range demoted {
		isDemoted[name] = true
	}
	for i, b := range deriveBounds(aa.Cells) {
		got, listed := declared[b.Metric]
		switch {
		case aa.Bounds[i] != b:
			t.Errorf("%s: baseline/aa.json records the bound %+v, its own table gives %+v", b.Metric, aa.Bounds[i], b)
		case b.Demoted != isDemoted[b.Metric]:
			t.Errorf("%s: A/A range %.1f%% says demoted=%v, spec.go says %v", b.Metric, 100*b.MaxRange, b.Demoted, isDemoted[b.Metric])
		case b.Demoted && listed:
			t.Errorf("%s is demoted but BENCHMARK.json lists it end to end", b.Metric)
		case !b.Demoted && got != b.Bound:
			t.Errorf("%s: BENCHMARK.json bound %v, the A/A table gives %v (range %.1f%% on %s)", b.Metric, got, b.Bound, 100*b.MaxRange, b.On)
		}
	}
	// What the driver asks of two sets of runs of one commit: the spread
	// inside the bound (set-up time excepted), the second median not
	// worse than the first by more than the bound.
	for _, c := range aa.Cells {
		b, ok := declared[c.Metric]
		if !ok {
			continue
		}
		if c.IQR > b && c.Metric != "setup_s" {
			t.Errorf("%s on %s: spread %.1f%% is outside its own bound %v", c.Metric, c.Workload, 100*c.IQR, b)
		}
		if c.Drift > b {
			t.Errorf("%s on %s: second half of the runs worse than the first by %.1f%%, outside its own bound %v", c.Metric, c.Workload, 100*c.Drift, b)
		}
	}
}
