// Command crbench regenerates every table and figure of the paper
// against a synthetic deployment and prints them in the paper's shape.
//
// Usage:
//
//	crbench [-scale tiny|small|paper] [-exp all|table1|figure1|figure2|
//	        figure3|figure4|figure5a|figure5b|stats|grades|evolution|
//	        incentives|a1|a2|a3]
//
// crbench times nothing. The end-to-end and per-layer benchmark is
// bench/ (see BENCHMARK.json); micro-scenarios are the Benchmark*
// functions of the root bench_test.go, run and profiled with stock
// go test:
//
//	go test -run '^$' -bench YearBandJoin -benchmem -cpuprofile cpu.pprof .
//	go tool pprof -top cpu.pprof
//
// Paper-scale generation builds the full 18,605-course / 134,000-comment
// deployment and takes tens of seconds; small (a tenth) is the default.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"courserank/internal/datagen"
	"courserank/internal/experiments"
)

func main() {
	scale := flag.String("scale", "small", "deployment scale: tiny, small, paper")
	exp := flag.String("exp", "all", "experiment to run")
	flag.Parse()

	var cfg datagen.Config
	switch *scale {
	case "tiny":
		cfg = datagen.Tiny()
	case "small":
		cfg = datagen.Small()
	case "paper":
		cfg = datagen.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	fmt.Printf("generating %s-scale deployment (seed %d)...\n", *scale, cfg.Seed)
	t0 := time.Now()
	r, err := experiments.NewRunner(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "generate:", err)
		os.Exit(1)
	}
	fmt.Printf("generated in %v\n\n", time.Since(t0).Round(time.Millisecond))

	type experiment struct {
		name string
		run  func() (string, error)
	}
	all := []experiment{
		{"stats", func() (string, error) { return r.ScaleStats(), nil }},
		{"table1", func() (string, error) { return r.Table1(), nil }},
		{"figure1", func() (string, error) { return r.Figure1(), nil }},
		{"figure2", func() (string, error) { return r.Figure2(), nil }},
		{"figure3", func() (string, error) { s, _, err := r.Figure3(); return s, err }},
		{"figure4", r.Figure4},
		{"figure5a", r.Figure5a},
		{"figure5b", r.Figure5b},
		{"grades", func() (string, error) { return r.GradeDivergence(), nil }},
		{"evolution", func() (string, error) { return r.Evolution(), nil }},
		{"incentives", r.Incentives},
		{"a1", r.AblationFlexVsHardcoded},
		{"a2", r.AblationCloudCost},
		{"a3", r.AblationEntitySearch},
	}

	ran := 0
	for _, e := range all {
		if *exp != "all" && *exp != e.name {
			continue
		}
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
