// Command bench is the CourseRank benchmark: four closed-loop HTTP
// workloads against the real courserank process, every end-to-end
// metric the median of three measured windows, and a traced run that
// splits the time by layer. See README.md for every name it prints.
//
//	bash bench/run.sh --workload browse --seed 7 --seconds 18 --trace 0
//	bash bench/run.sh -seed 7            # all four workloads, untraced then traced
//	bash bench/run.sh -aa 20             # A/A table and bounds into bench/baseline/aa.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	o := defaultOptions()
	name := flag.String("workload", "", "workload to run (browse, recommend, contribute, campus); empty runs all four, untraced then traced")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	aa := flag.Int("aa", 0, "run every workload this many times (seeds seed, seed+1, …) and write the A/A table to bench/baseline/aa.json")
	flag.Int64Var(&o.seed, "seed", o.seed, "workload seed: the same seed gives the same request scripts")
	flag.Float64Var(&o.seconds, "seconds", o.seconds, "measured seconds per run, split over three windows")
	flag.BoolVar(&o.all, "all", false, "with -trace 0, report the demoted end-to-end metrics too; A/A mode measures their range with it")
	flag.StringVar(&o.scale, "scale", o.scale, "deployment scale of the server: small, or tiny for a smoke run")
	flag.Parse()

	if err := run(*name, *trace, *aa, o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// findRoot locates the repository root from the working directory: the
// driver starts the benchmark at the root, `go run -C bench .` inside
// bench/.
func findRoot() (layout, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "courserank")); err == nil {
			return newLayout(dir)
		}
	}
	return layout{}, fmt.Errorf("bench: no cmd/courserank here or one level up: start the benchmark at the root of a checkout")
}

func run(name string, trace, aa int, o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("bench: -seconds must be at least 1")
	}
	l, err := findRoot()
	if err != nil {
		return err
	}
	if aa > 0 {
		return runAA(l, aa, o)
	}
	bin, err := l.buildServer()
	if err != nil {
		return err
	}
	if name == "" {
		return runAll(l, bin, o)
	}
	wl, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("bench: unknown workload %q", name)
	}
	res, err := runOne(l, bin, wl, trace, o)
	if err != nil {
		return err
	}
	res.print(os.Stderr, wl.name)
	// The driver reads the last line of standard output.
	return json.NewEncoder(os.Stdout).Encode(res)
}

func runOne(l layout, bin string, wl workload, trace int, o options) (*result, error) {
	switch trace {
	case 0:
		return measureWorkload(l, bin, wl, o)
	case 1:
		return traceWorkload(l, bin, wl, o)
	}
	return nil, fmt.Errorf("bench: -trace must be 0 or 1")
}

// runAll is the one command that prints every metric by name with its
// unit: each workload untraced, then traced.
func runAll(l layout, bin string, o options) error {
	for _, wl := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := runOne(l, bin, wl, trace, o)
			if err != nil {
				return fmt.Errorf("%s (trace %d): %w", wl.name, trace, err)
			}
			res.print(os.Stdout, wl.name)
		}
	}
	return nil
}

func (r *result) print(f *os.File, workload string) {
	fmt.Fprintf(f, "%s: %d requests attempted, %d failed, correct %v\n", workload, r.Attempted, r.Failed, r.Correct)
	(&metrics{names: r.order, m: r.Metrics}).print(f)
}

func (ms *metrics) print(f *os.File) {
	for _, name := range ms.names {
		m := ms.m[name]
		fmt.Fprintf(f, "  %-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
}
