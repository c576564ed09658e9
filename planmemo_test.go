package courserank

import (
	"math"
	"reflect"
	"regexp"
	"testing"

	"courserank/internal/experiments"
	"courserank/internal/flexrecs"
)

// memoClock matches what a FlexRecs report measures with a clock.
var memoClock = regexp.MustCompile(`(time=|age=|total | in )[0-9.]+[a-zµ]*`)

// sameCellsBits reports whether two results hold the same columns and
// the same cells, floats compared bit for bit.
func sameCellsBits(a, b *flexrecs.Relation) bool {
	if !reflect.DeepEqual(a.Cols, b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j, x := range a.Rows[i] {
			fx, okx := x.(float64)
			fy, oky := b.Rows[i][j].(float64)
			if okx && oky {
				if math.Float64bits(fx) != math.Float64bits(fy) {
					return false
				}
			} else if !reflect.DeepEqual(x, b.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestPlanMemoMatchesColdRewrite runs every registered template at Small
// scale, on the mono and on the 2-shard site, three ways: on the site's
// engine, whose plan memo is warm; on a fresh engine per call over the
// same backend and views, which rewrites cold; and on an engine without
// a registry, which does not rewrite. Students go A, B, then A again, so
// a plan that kept one request's values would answer the next with
// them; k, neighbours, scopes and band widths vary. Rows must match bit
// for bit, and Explain and EXPLAIN ANALYZE text must match between warm
// and cold.
func TestPlanMemoMatchesColdRewrite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two Small-scale sites")
	}
	for _, site := range []struct {
		name string
		r    *experiments.Runner
	}{{"mono", runner(t)}, {"2shard", shardedRunner(t)}} {
		t.Run(site.name, func(t *testing.T) {
			r := site.r
			s := r.Site
			engine := func(rewrite bool) *flexrecs.Engine {
				e := flexrecs.NewEngineOver(s.SQL)
				if s.Sharded != nil {
					e = flexrecs.NewEngineWithBackend(s.SQL, clusterBackend{s.Sharded})
				}
				if rewrite {
					e.UseMatviews(s.Flex.Matviews())
				}
				return e
			}
			plain := engine(false)
			intro, ok := s.Catalog.Course(r.Man.Planted["intro-programming"])
			if !ok {
				t.Fatal("no intro-programming course")
			}
			osys, ok := s.Catalog.Course(r.Man.Planted["operating-systems"])
			if !ok {
				t.Fatal("no operating-systems course")
			}
			a, b := r.Man.SampleStudent, r.Man.TwinStudent
			type draw struct {
				name   string
				params map[string]any
			}
			var draws []draw
			add := func(name string, params map[string]any) { draws = append(draws, draw{name, params}) }
			for _, st := range []int64{a, b, a} {
				for _, k := range []int{3, 10, 25} {
					add("cf-courses", map[string]any{"student": st, "k": k})
					add("grade-peers", map[string]any{"student": st, "k": k, "neighbors": int64(5)})
					add("rated-courses", map[string]any{"student": st, "k": k})
					add("hybrid", map[string]any{"student": st, "title": intro.Title, "k": k})
				}
				add("cf-courses", map[string]any{"student": st, "k": 10, "year": int64(2008)})
				add("cf-courses", map[string]any{"student": st, "k": 10, "neighbors": int64(40)})
				add("hybrid", map[string]any{"student": st, "title": osys.Title, "k": 10})
			}
			for _, dep := range []string{intro.DepID, osys.DepID, intro.DepID} {
				add("department-popular", map[string]any{"dep": dep, "k": 10})
			}
			for _, title := range []string{intro.Title, osys.Title, intro.Title} {
				add("related-courses", map[string]any{"title": title, "k": 10})
				add("related-courses", map[string]any{"title": title, "year": int64(2008), "k": 3})
				add("related-courses", map[string]any{"title": title, "since": int64(2007), "k": 25})
			}
			for _, band := range []int64{1, 3, 0, 1} {
				add("contemporary-courses", map[string]any{"course": intro.ID, "band": band, "k": 10})
			}
			add("contemporary-courses", map[string]any{"course": osys.ID, "band": int64(2), "k": 25})
			for _, k := range []int{3, 10} {
				add("top-rated", map[string]any{"min": 4.0, "k": k})
			}

			for _, d := range draws {
				tpl, ok := s.Strategies.Get(d.name)
				if !ok {
					t.Fatalf("no strategy %q", d.name)
				}
				build := func() *flexrecs.Step {
					w, err := tpl.Build(d.params)
					if err != nil {
						t.Fatal(err)
					}
					return w
				}
				want, err := plain.Run(build())
				if err != nil {
					t.Fatalf("%s %v: plain: %v", d.name, d.params, err)
				}
				warm, err := s.Flex.Run(build())
				if err != nil {
					t.Fatalf("%s %v: warm: %v", d.name, d.params, err)
				}
				cold, err := engine(true).Run(build())
				if err != nil {
					t.Fatalf("%s %v: cold: %v", d.name, d.params, err)
				}
				if !sameCellsBits(warm, want) || !sameCellsBits(cold, want) {
					t.Fatalf("%s %v: rows differ\nwarm  %v\ncold  %v\nplain %v", d.name, d.params, warm.Rows, cold.Rows, want.Rows)
				}
				we, ce := s.Flex.Explain(build()), engine(true).Explain(build())
				if memoClock.ReplaceAllString(we, "${1}T") != memoClock.ReplaceAllString(ce, "${1}T") {
					t.Fatalf("%s %v: Explain differs\nwarm:\n%s\ncold:\n%s", d.name, d.params, we, ce)
				}
				wrel, wa, err := s.Flex.RunAnalyze(build())
				if err != nil {
					t.Fatal(err)
				}
				crel, ca, err := engine(true).RunAnalyze(build())
				if err != nil {
					t.Fatal(err)
				}
				if !sameCellsBits(wrel, want) || !sameCellsBits(crel, want) {
					t.Fatalf("%s %v: analyzed rows differ", d.name, d.params)
				}
				if memoClock.ReplaceAllString(wa, "${1}T") != memoClock.ReplaceAllString(ca, "${1}T") {
					t.Fatalf("%s %v: EXPLAIN ANALYZE differs\nwarm:\n%s\ncold:\n%s", d.name, d.params, wa, ca)
				}
			}
			t.Logf("%s: %d draws over %d templates", site.name, len(draws), len(s.Strategies.List()))
			seen := map[string]bool{}
			for _, d := range draws {
				seen[d.name] = true
			}
			for _, tpl := range s.Strategies.List() {
				if !seen[tpl.Name] {
					t.Errorf("template %s has no draw", tpl.Name)
				}
			}
		})
	}
}
