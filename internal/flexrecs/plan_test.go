package flexrecs

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	"sync"
	"testing"
)

// The plan memo's oracles: a workflow run on a warm memo answers, explains
// and analyzes exactly as on an engine that rewrites it cold, and both
// answer as an engine that does not rewrite at all.

// sameCells reports whether two results hold the same columns and the
// same cells, floats compared bit for bit (NaN included).
func sameCells(a, b *Relation) bool {
	if !reflect.DeepEqual(a.Cols, b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j, x := range a.Rows[i] {
			y := b.Rows[i][j]
			fx, okx := x.(float64)
			fy, oky := y.(float64)
			if okx && oky {
				if math.Float64bits(fx) != math.Float64bits(fy) {
					return false
				}
			} else if !reflect.DeepEqual(x, y) {
				return false
			}
		}
	}
	return true
}

var clockText = regexp.MustCompile(`(time=|age=|total | in )[0-9.]+[a-zµ]*`)

// maskClock blanks what a report measures with a clock.
func maskClock(s string) string { return clockText.ReplaceAllString(s, "${1}T") }

// memoOracle runs workflows three ways: warm, on one engine whose memo
// persists; cold, on a fresh engine per call sharing warm's views; and
// plain, on an engine without a registry.
type memoOracle struct {
	t           *testing.T
	warm, plain *Engine
}

func newMemoOracle(t *testing.T) *memoOracle {
	rw, plain := rewritingEngine(t)
	return &memoOracle{t: t, warm: rw, plain: plain}
}

func (o *memoOracle) cold() *Engine {
	e := NewEngineOver(o.plain.SQL())
	e.UseMatviews(o.warm.Matviews())
	return e
}

// check runs w, as built by build, all three ways and compares rows,
// Explain and EXPLAIN ANALYZE.
func (o *memoOracle) check(name string, build func() *Step) {
	t := o.t
	t.Helper()
	want, werr := o.plain.Run(build())
	got, gerr := o.warm.Run(build())
	cold, cerr := o.cold().Run(build())
	if (werr == nil) != (gerr == nil) || (gerr == nil) != (cerr == nil) {
		t.Fatalf("%s: errors differ: plain %v, warm %v, cold %v", name, werr, gerr, cerr)
	}
	if werr != nil {
		if gerr.Error() != cerr.Error() {
			t.Fatalf("%s: warm error %q, cold %q", name, gerr, cerr)
		}
		return
	}
	if !sameCells(got, want) || !sameCells(cold, want) {
		t.Fatalf("%s: rows differ\nwarm  %v\ncold  %v\nplain %v", name, got.Rows, cold.Rows, want.Rows)
	}
	if w, c := o.warm.Explain(build()), o.cold().Explain(build()); maskClock(w) != maskClock(c) {
		t.Fatalf("%s: Explain differs\nwarm:\n%s\ncold:\n%s", name, w, c)
	}
	arel, a, err := o.warm.RunAnalyze(build())
	if err != nil {
		t.Fatalf("%s: warm analyze: %v", name, err)
	}
	crel, c, err := o.cold().RunAnalyze(build())
	if err != nil {
		t.Fatalf("%s: cold analyze: %v", name, err)
	}
	if !sameCells(arel, want) || !sameCells(crel, want) {
		t.Fatalf("%s: analyzed rows differ\nwarm %v\ncold %v", name, arel.Rows, crel.Rows)
	}
	if maskClock(a) != maskClock(c) {
		t.Fatalf("%s: EXPLAIN ANALYZE differs\nwarm:\n%s\ncold:\n%s", name, a, c)
	}
}

// The template shapes, over paperDB.

func cfWorkflow(student any, cond string, neighbors, k int, year any) *Step {
	ratings := Rel("Comments").Project("SuID", "CourseID", "Rating")
	similar := Recommend(
		ratings.Select("SuID <> ?", student).Extend("SuID", "CourseID", "Rating", "Ratings"),
		ratings.Select(cond, student).Extend("SuID", "CourseID", "Rating", "Ratings"),
		InvEuclideanOn("Ratings"),
	).Top(neighbors)
	courses := Rel("Courses")
	if year != nil {
		courses = courses.Select("Year = ?", year)
	}
	return Recommend(courses, similar, WeightedAvg("CourseID", "Ratings", "Score")).Top(k)
}

func hybridWorkflow(student any, title string, k int) *Step {
	content := Recommend(Rel("Courses"), Rel("Courses").Select("Title = ?", title), JaccardOn("Title")).
		Project("CourseID", "Title", "Score")
	cf := cfWorkflow(student, "SuID = ?", 2, 1_000, nil).child.Project("CourseID", "Score")
	return Blend(content, cf, "CourseID", "Score", 1.0, 0.2).Top(k)
}

func deptWorkflow(dep any, k int) *Step {
	return Recommend(
		Rel("Courses").Select("DepID = ?", dep),
		Rel("Comments").Project("SuID", "CourseID", "Rating").Extend("SuID", "CourseID", "Rating", "Ratings"),
		AvgOf("CourseID", "Ratings"),
	).Top(k)
}

func relatedWorkflow(title string, year, since any, k int) *Step {
	offered := Rel("Courses")
	if year != nil {
		offered = offered.Select("Year = ?", year)
	} else if since != nil {
		offered = offered.Select("Year >= ?", since)
	}
	return Recommend(offered, Rel("Courses").Select("Title = ?", title), JaccardOn("Title")).Top(k)
}

// bandWorkflow is contemporary-courses' shape: the band width is ON-clause
// text, so each width is a shape of its own.
func bandWorkflow(course int64, band, k int) *Step {
	return Rel("Courses a").Select("a.CourseID = ?", course).
		JoinOn(Rel("Courses b"), fmt.Sprintf("b.Year BETWEEN a.Year - %d AND a.Year + %d", band, band)).
		Select("b.CourseID <> ?", course).
		Project("b.CourseID", "b.Year").
		Top(k)
}

// TestPlanMemoMatchesColdRewrite: every request answers from its own
// values, however the memo was warmed — students A, B, then A again; σ
// on a group key bound to NULL, NaN, int64 and float64 in turn, each
// class a shape of its own; a view whose subtree binds a value, keyed
// per request; a top k inside a view; several band widths.
func TestPlanMemoMatchesColdRewrite(t *testing.T) {
	o := newMemoOracle(t)
	for _, st := range []int64{444, 445, 444, 446, 444} {
		for _, k := range []int{1, 3} {
			o.check(fmt.Sprintf("cf %d k=%d", st, k), func() *Step { return cfWorkflow(st, "SuID = ?", 2, k, nil) })
			o.check(fmt.Sprintf("cf-year %d k=%d", st, k), func() *Step { return cfWorkflow(st, "SuID = ?", k, 3, 2008) })
			o.check(fmt.Sprintf("hybrid %d k=%d", st, k), func() *Step { return hybridWorkflow(st, "Introduction to Programming", k) })
			o.check(fmt.Sprintf("rated %d k=%d", st, k), func() *Step { return ratedCourses(st).Top(k) })
		}
	}
	// The key-op σ's argument by class, in an order where a memo keyed
	// without the class would serve one class the plan of another.
	for _, arg := range []any{int64(444), nil, float64(444), math.NaN(), int64(1), nil, float64(1), math.NaN(), int64(445), int(444)} {
		for _, cond := range []string{"SuID = ?", "SuID <> ?", "? = SuID"} {
			o.check(fmt.Sprintf("cf %s %v", cond, arg), func() *Step { return cfWorkflow(arg, cond, 2, 3, nil) })
		}
		o.check(fmt.Sprintf("nest σ[SuID <> %v]", arg), func() *Step {
			return Rel("Comments").Select("SuID <> ?", arg).Select("SuID > 400").
				Extend("SuID", "CourseID", "Rating", "Ratings")
		})
	}
	for _, dep := range []any{"CS", "HIST", "CS", nil, "MATH"} {
		for _, k := range []int{1, 2, 10} {
			o.check(fmt.Sprintf("dept %v k=%d", dep, k), func() *Step { return deptWorkflow(dep, k) })
		}
	}
	for _, title := range []string{"Introduction to Programming", "American History", "Introduction to Programming"} {
		for _, scope := range [][2]any{{nil, nil}, {2008, nil}, {nil, 2008}, {2007, nil}, {nil, int64(2007)}} {
			o.check(fmt.Sprintf("related %s %v", title, scope), func() *Step { return relatedWorkflow(title, scope[0], scope[1], 3) })
		}
	}
	for _, band := range []int{0, 1, 2, 1} {
		for _, course := range []int64{1, 5, 1} {
			o.check(fmt.Sprintf("band %d course %d", band, course), func() *Step { return bandWorkflow(course, band, 10) })
		}
	}
	// A view over a subtree that binds a value is keyed by the value, and
	// so is a view holding a top k.
	for _, st := range []int64{444, 445, 444} {
		o.check(fmt.Sprintf("bound view %d", st), func() *Step {
			mine := Rel("Comments").Select("SuID = ?", st).Project("SuID", "CourseID", "Rating").
				Extend("SuID", "CourseID", "Rating", "Ratings").materialize("mine")
			return Recommend(Rel("Courses"), mine, AvgOf("CourseID", "Ratings")).Top(3)
		})
	}
	for _, k := range []int{2, 1, 2} {
		o.check(fmt.Sprintf("top %d in a view", k), func() *Step {
			nest := Rel("Comments").Project("SuID", "CourseID", "Rating").Extend("SuID", "CourseID", "Rating", "Ratings")
			return Recommend(Rel("Courses").Select("DepID = ?", "CS"), nest.Top(k), AvgOf("CourseID", "Ratings"))
		})
	}
	if n := len(o.warm.Matviews().Views()); n == 0 {
		t.Fatal("no view was registered: the rewriter did not run")
	}
}

// TestPlanMemoRaceAndCap: readers share one plan per template shape,
// each with its own student, and each answers as a cold engine does;
// then more shapes than compiledCacheMax still answer right, and the
// memo holds at most compiledCacheMax plans.
func TestPlanMemoRaceAndCap(t *testing.T) {
	o := newMemoOracle(t)
	requests := func(st int64) map[string]func() *Step {
		return map[string]func() *Step{
			"cf":     func() *Step { return cfWorkflow(st, "SuID = ?", 2, 3, nil) },
			"hybrid": func() *Step { return hybridWorkflow(st, "Introduction to Programming", 3) },
			"dept":   func() *Step { return deptWorkflow([]string{"CS", "HIST"}[st%2], 3) },
		}
	}
	students := []int64{444, 445, 446, 447}
	want := map[int64]map[string]*Relation{}
	for _, st := range students {
		want[st] = map[string]*Relation{}
		for name, build := range requests(st) {
			rel, err := o.cold().Run(build())
			if err != nil {
				t.Fatal(err)
			}
			want[st][name] = rel
		}
	}
	var wg sync.WaitGroup
	for _, st := range students {
		wg.Add(1)
		go func(st int64) {
			defer wg.Done()
			for range 25 {
				for name, build := range requests(st) {
					got, err := o.warm.Run(build())
					if err != nil {
						t.Errorf("student %d %s: %v", st, name, err)
						return
					}
					if !sameCells(got, want[st][name]) {
						t.Errorf("student %d %s: got %v, cold %v", st, name, got.Rows, want[st][name].Rows)
						return
					}
				}
			}
		}(st)
	}
	wg.Wait()

	for band := range compiledCacheMax + 20 {
		o.check(fmt.Sprintf("band %d", band), func() *Step { return bandWorkflow(1, band, 10) })
	}
	if n := o.warm.plans.count; n > compiledCacheMax {
		t.Errorf("the memo holds %d plans, more than %d", n, compiledCacheMax)
	}
	// A shape planned past the cap still hits the views and statements it
	// shares with cached ones, and answers from its own values.
	o.check("cf past the cap", func() *Step { return cfWorkflow(int64(445), "SuID = ?", 2, 3, nil) })
}

// TestPlanMemoHitAllocatesNothing: on a warm memo, fingerprinting a
// request's tree, finding its plan and confirming the shape node by node
// allocate nothing.
func TestPlanMemoHitAllocatesNothing(t *testing.T) {
	rw, _ := rewritingEngine(t)
	for name, w := range map[string]*Step{
		"cf":      cfWorkflow(int64(444), "SuID = ?", 2, 3, int64(2008)),
		"hybrid":  hybridWorkflow(int64(444), "Introduction to Programming", 3),
		"dept":    deptWorkflow("CS", 3),
		"related": relatedWorkflow("Introduction to Programming", int64(2008), nil, 3),
		"rated":   ratedCourses(444).Top(3),
		"band":    bandWorkflow(1, 2, 10),
	} {
		if _, err := rw.Run(w); err != nil {
			t.Fatal(err)
		}
		var p *cachedPlan
		allocs := testing.AllocsPerRun(100, func() {
			p = rw.plans.lookup(hashShape(w), w)
		})
		if p == nil {
			t.Fatalf("%s: no plan after a run", name)
		}
		if allocs != 0 {
			t.Errorf("%s: a memo hit allocates %.1f times, want 0", name, allocs)
		}
	}
}

// TestPlanHoldsNoValues: a cached plan keeps no request's values — every
// σ argument and top k is read from the request's binding — so a plan
// run without one fails instead of answering for another request.
func TestPlanHoldsNoValues(t *testing.T) {
	rw, _ := rewritingEngine(t)
	w := cfWorkflow(int64(444), "SuID = ?", 2, 3, 2008)
	if _, err := rw.Run(w); err != nil {
		t.Fatal(err)
	}
	p := rw.plans.lookup(hashShape(w), w)
	if p == nil {
		t.Fatal("no plan after a run")
	}
	var walk func(*Step)
	walk = func(s *Step) {
		if s == nil {
			return
		}
		if s.plan == nil {
			t.Errorf("plan node %s has no note", s.describe(p.bind(w)))
		}
		if len(s.args) > 0 || s.k != 0 {
			t.Errorf("plan node %s holds values %v k=%d", s.describe(p.bind(w)), s.args, s.k)
		}
		walk(s.child)
		walk(s.other)
	}
	walk(p.root)
	if p.binds != 5 { // σ SuID <> ?, σ SuID = ?, σ Year = ?, both tops
		t.Errorf("binding holds %d values, want 5", p.binds)
	}
	defer func() {
		if recover() == nil {
			t.Error("a plan ran without its binding")
		}
	}()
	_, _ = rw.runStep(p.root, nil, true)
}

// TestPlanMemoSharesComparatorsByValue: every Build makes fresh
// comparators, and equal ones share a plan; a comparator of another
// kind or configuration is another shape.
func TestPlanMemoSharesComparatorsByValue(t *testing.T) {
	for _, c := range []struct {
		a, b Comparator
		same bool
	}{
		{JaccardOn("Title"), JaccardOn("Title"), true},
		{JaccardOn("Title"), JaccardOn("Name"), false},
		{InvEuclideanOn("Ratings"), InvEuclideanOn("Ratings"), true},
		{InvEuclideanOn("Ratings"), CosineOn("Ratings"), false},
		{WeightedAvg("CourseID", "Ratings", "Score"), WeightedAvg("CourseID", "Ratings", "Score"), true},
		{WeightedAvg("CourseID", "Ratings", "Score"), AvgOf("CourseID", "Ratings"), false},
		{colScore{"Val"}, colScore{"Val"}, true},
		{colScore{"Val"}, colScore{"val"}, false},
		{colScore{"Val"}, JaccardOn("Val"), false},
	} {
		wa := Recommend(Rel("T"), Rel("U"), c.a)
		wb := Recommend(Rel("T"), Rel("U"), c.b)
		if got := sameShape(wb, shapeOf(wa)); got != c.same {
			t.Errorf("%s vs %s: same shape %v, want %v", c.a.Label(), c.b.Label(), got, c.same)
		}
		if c.same && hashShape(wa) != hashShape(wb) {
			t.Errorf("%s: equal shapes hash apart", c.a.Label())
		}
	}
	// NULL, NaN, a value and an unbindable argument are four shapes.
	classes := []any{nil, math.NaN(), int64(1), struct{}{}}
	for i, a := range classes {
		shape := shapeOf(Rel("T").Select("G = ?", a))
		for j, b := range classes {
			if got := sameShape(Rel("T").Select("G = ?", b), shape); got != (i == j) {
				t.Errorf("σ[G = %v] vs σ[G = %v]: same shape %v", a, b, got)
			}
		}
	}
	if !sameShape(Rel("T").Select("G = ?", float64(2)), shapeOf(Rel("T").Select("G = ?", int64(1)))) {
		t.Error("two values of one class are two shapes")
	}
}

// shapeOf records w's shape as planFor does.
func shapeOf(w *Step) []shapeNode {
	p := &cachedPlan{}
	p.own(w)
	return p.shape
}
