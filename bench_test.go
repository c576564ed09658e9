// Benchmarks regenerating every table and figure of the paper, plus the
// ablations (A1, A2, ...) and the engine micro-scenarios that neither
// they nor bench/probes.go time (one access path or one
// concurrency shape each, guarded by the plan it must ride). This file
// is the only home of micro-benchmarks; run and profile one with
//
//	go test -run '^$' -bench YearBandJoin -benchmem -cpuprofile cpu.pprof .
//
// The end-to-end and per-layer benchmark is bench/ (BENCHMARK.json).
// One Small-scale deployment (a tenth of
// the paper's: 1,861 courses, 13,400 comments) is generated once and
// shared; absolute timings are not the point — the paper publishes none
// — but the relative shapes (FlexRecs overhead vs hard-coded, cloud
// cost vs result size, entity vs tuple search) are the reproduction.
package courserank

import (
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"courserank/internal/catalog"
	"courserank/internal/cloud"
	"courserank/internal/comments"
	"courserank/internal/core"
	"courserank/internal/datagen"
	"courserank/internal/experiments"
	"courserank/internal/flexrecs"
	"courserank/internal/matview"
	"courserank/internal/relation"
	"courserank/internal/render"
	"courserank/internal/search"
	"courserank/internal/shard"
)

var (
	benchOnce sync.Once
	benchRun  *experiments.Runner
	benchErr  error
)

func runner(b testing.TB) *experiments.Runner {
	b.Helper()
	benchOnce.Do(func() { benchRun, benchErr = experiments.NewRunner(datagen.Small()) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRun
}

// BenchmarkTable1CapabilityAudit regenerates Table 1 with its live
// capability checks.
func BenchmarkTable1CapabilityAudit(b *testing.B) {
	r := runner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := r.Site.Table1()
		if len(rows) != 10 {
			b.Fatal("table 1 shape")
		}
	}
}

// BenchmarkFigure1CoursePage renders the course descriptor page.
func BenchmarkFigure1CoursePage(b *testing.B) {
	r := runner(b)
	id := r.Man.Planted["intro-programming"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := render.CoursePage(r.Site, id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Planner renders the multi-year plan with conflicts,
// GPAs and prerequisite validation.
func BenchmarkFigure1Planner(b *testing.B) {
	r := runner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := render.Plan(r.Site, r.Man.SampleStudent); out == "" {
			b.Fatal("empty plan")
		}
	}
}

// BenchmarkFigure2SiteBuild wires the full Figure 2 component stack
// (empty data).
func BenchmarkFigure2SiteBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.NewSite(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3SearchAmerican runs the Figure 3 entity search.
func BenchmarkFigure3SearchAmerican(b *testing.B) {
	r := runner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Site.SearchCourses("american")
		if err != nil || res.Total() != r.Man.ThemedCourses {
			b.Fatalf("total=%d err=%v", res.Total(), err)
		}
	}
}

// BenchmarkFigure3Cloud computes the Figure 3 data cloud over the full
// result set (§3.1: "how can we dynamically and efficiently compute
// their data cloud?").
func BenchmarkFigure3Cloud(b *testing.B) {
	r := runner(b)
	res, err := r.Site.SearchCourses("american")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Site.CourseCloud(res, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Refine measures the click-to-refine interaction
// (search + phrase conjunction + new cloud).
func BenchmarkFigure4Refine(b *testing.B) {
	r := runner(b)
	res, err := r.Site.SearchCourses("american")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := r.Site.RefineSearch(res, "african american")
		if err != nil || ref.Total() != r.Man.AfricanAmericanCourses {
			b.Fatalf("total=%d err=%v", ref.Total(), err)
		}
		if _, err := r.Site.CourseCloud(ref, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5aRelatedCourses runs the Figure 5(a) workflow end to
// end (SQL compile + execute + Jaccard recommend).
func BenchmarkFigure5aRelatedCourses(b *testing.B) {
	r := runner(b)
	tpl, _ := r.Site.Strategies.Get("related-courses")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wf, err := tpl.Build(map[string]any{"title": "Introduction to Programming", "k": 10})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Site.Flex.Run(wf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5bCollaborative runs the Figure 5(b) two-recommend
// workflow (extend + inv_Euclidean neighbors + Identify/W_Avg).
func BenchmarkFigure5bCollaborative(b *testing.B) {
	r := runner(b)
	tpl, _ := r.Site.Strategies.Get("cf-courses")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wf, err := tpl.Build(map[string]any{"student": r.Man.SampleStudent, "k": 10, "neighbors": 20})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Site.Flex.Run(wf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkS1DeploymentLoad measures full deployment generation —
// catalog, people, enrollments, comments, official grades, derived
// tables and the search index — at the Tiny preset (the §2 statistics
// scale linearly; crbench -scale paper runs the full 18,605/134,000).
func BenchmarkS1DeploymentLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		site, err := core.NewSite()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := datagen.Populate(site, datagen.Tiny()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkS2GradeDivergence computes the official-vs-self-reported TV
// distances across the catalog (§2.2 Engineering claim).
func BenchmarkS2GradeDivergence(b *testing.B) {
	r := runner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := r.GradeDivergence(); out == "" {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkS3IncentiveLedger measures point accrual plus total and
// leaderboard reads (§2.2 scheme).
func BenchmarkS3IncentiveLedger(b *testing.B) {
	r := runner(b)
	u, ok := r.Site.Community.UserByUsername("stu00001")
	if !ok {
		b.Fatal("missing user")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Site.Community.Award(u.ID, "bench", 1, ""); err != nil {
			b.Fatal(err)
		}
		r.Site.Community.Points(u.ID)
		r.Site.Community.Leaderboard(10)
	}
}

// BenchmarkE1Evolution computes the §1 evolution metrics (activity
// series, drift, concentration, coverage) across the whole deployment.
func BenchmarkE1Evolution(b *testing.B) {
	r := runner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := r.Evolution(); out == "" {
			b.Fatal("empty evolution report")
		}
	}
}

// figure5bBothWays returns the declarative CF workflow and the
// equivalent hard-coded recommender as two closures over one warm site —
// the pair A1 and the allocation budget compare.
func figure5bBothWays(tb testing.TB) (workflow, hardcoded func()) {
	r := runner(tb)
	tpl, _ := r.Site.Strategies.Get("cf-courses")
	workflow = func() {
		wf, err := tpl.Build(map[string]any{"student": r.Man.SampleStudent, "k": 10, "neighbors": 20})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := r.Site.Flex.Run(wf); err != nil {
			tb.Fatal(err)
		}
	}
	hardcoded = func() {
		if out := r.Site.Baseline.UserUserCF(r.Man.SampleStudent, 20, 10, false); out == nil {
			tb.Fatal("no result")
		}
	}
	workflow() // warm both: views built, statements prepared
	hardcoded()
	return workflow, hardcoded
}

// costOf runs fn n times and returns the mean wall time and the mean
// growth of runtime.MemStats.TotalAlloc per run — a count that, unlike a
// timing, repeats on a drifting host.
func costOf(n int, fn func()) (ns, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(d.Nanoseconds()) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// BenchmarkA1FlexRecsVsHardcoded contrasts the declarative CF workflow
// with the equivalent hard-coded recommender — the cost of FlexRecs'
// flexibility (§3.2). Run with -bench A1 to see both lines; the third,
// "ratio", runs the two back to back and reports workflow ÷ hardcoded
// for time and for bytes, which survive host drift where the absolute
// lines do not.
func BenchmarkA1FlexRecsVsHardcoded(b *testing.B) {
	workflow, hardcoded := figure5bBothWays(b)
	b.Run("workflow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			workflow()
		}
	})
	b.Run("hardcoded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hardcoded()
		}
	})
	b.Run("ratio", func(b *testing.B) {
		wfNs, wfBytes := costOf(b.N, workflow)
		hcNs, hcBytes := costOf(b.N, hardcoded)
		b.ReportMetric(wfNs/hcNs, "time-ratio")
		b.ReportMetric(wfBytes/hcBytes, "bytes-ratio")
	})
}

// TestFlexRecsAllocBudget is the deterministic half of A1's goal: warm,
// at Small scale, the Figure 5b workflow may allocate at most four times
// what the hand-written recommender does (40× before the rewriter, when
// every request re-nested all 13.4k comments twice), and serving a
// hundred different students registers no view — the nesting is shared,
// never per student.
func TestFlexRecsAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Small-scale site")
	}
	workflow, hardcoded := figure5bBothWays(t)
	_, wf := costOf(20, workflow)
	_, hc := costOf(20, hardcoded)
	t.Logf("cf-courses workflow %.0f B/run, hard-coded UserUserCF %.0f B/run, ratio %.2f", wf, hc, wf/hc)
	if wf > 4*hc {
		t.Errorf("workflow allocates %.0f B/run, more than 4× the hard-coded %.0f B/run", wf, hc)
	}

	r := runner(t)
	students, err := r.Site.SQL.Query(`SELECT SuID FROM Comments GROUP BY SuID ORDER BY SuID LIMIT 100`)
	if err != nil {
		t.Fatal(err)
	}
	if len(students.Rows) != 100 {
		t.Fatalf("corpus has %d commenting students, want 100", len(students.Rows))
	}
	views := len(r.Site.Views.Views())
	for _, row := range students.Rows {
		if _, err := r.Site.Strategies.Run(r.Site.Flex, "cf-courses", map[string]any{"student": row[0], "k": 10}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.Site.Views.Views()); n != views {
		t.Errorf("100 warm requests for 100 students registered views: %d → %d", views, n)
	}
}

// TestCloudAllocBudget is the deterministic half of BenchmarkFigure3Cloud:
// warm, at Small scale, the Figure 3 cloud takes at most 16 allocations
// and 16 KB a call (10 736 and 1.45 MB when it counted strings in a map).
// The counts live in a pooled scratch; only the result escapes. Both
// figures are medians of single calls, because under the race detector
// sync.Pool drops a quarter of what is put back, and each drop costs a
// fresh vocabulary-sized scratch.
func TestCloudAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Small-scale site")
	}
	r := runner(t)
	res, err := r.Site.SearchCourses("american")
	if err != nil {
		t.Fatal(err)
	}
	figure3 := func() {
		if _, err := r.Site.CourseCloud(res, 30); err != nil {
			t.Fatal(err)
		}
	}
	figure3()
	allocsPerCall, bytesPerCall := make([]float64, 21), make([]float64, 21)
	for i := range allocsPerCall {
		allocsPerCall[i] = testing.AllocsPerRun(1, figure3)
		_, bytesPerCall[i] = costOf(1, figure3)
	}
	sort.Float64s(allocsPerCall)
	sort.Float64s(bytesPerCall)
	allocs, bytes := allocsPerCall[10], bytesPerCall[10]
	t.Logf("Figure 3 cloud: %.1f allocs, %.0f B a call (median)", allocs, bytes)
	if allocs > 16 {
		t.Errorf("Figure 3 cloud takes %.1f allocations a call, budget 16", allocs)
	}
	if bytes > 16<<10 {
		t.Errorf("Figure 3 cloud allocates %.0f B a call, budget 16 KB", bytes)
	}
}

// shardedSmall is a second Small-scale site split over two shards — the
// shape the bench harness's campus workload serves from.
var shardedSmall struct {
	once sync.Once
	run  *experiments.Runner
	err  error
}

func shardedRunner(tb testing.TB) *experiments.Runner {
	tb.Helper()
	ss := &shardedSmall
	ss.once.Do(func() {
		if ss.run, ss.err = experiments.NewRunner(datagen.Small()); ss.err == nil {
			ss.err = ss.run.Site.EnableSharding(2)
		}
	})
	if ss.err != nil {
		tb.Fatal(ss.err)
	}
	return ss.run
}

// clusterBackend routes a FlexRecs engine's statements through a site's
// cluster, as core's own (unexported) backend does: the unrewritten twin
// of a sharded site has to gather from the same shards.
type clusterBackend struct{ c *shard.Cluster }

func (b clusterBackend) Prepare(sql string) (flexrecs.PreparedQuery, error) { return b.c.Prepare(sql) }
func (b clusterBackend) Explain(sql string, args ...any) (string, error) {
	return b.c.Explain(sql, args...)
}

// strategyRun returns one warm strategy request as a closure, plus the
// Explain of exactly the workflow it runs.
func strategyRun(tb testing.TB, r *experiments.Runner, name string, params map[string]any) (run func() *flexrecs.Relation, explain func() (string, error)) {
	tb.Helper()
	tpl, ok := r.Site.Strategies.Get(name)
	if !ok {
		tb.Fatalf("missing strategy %q", name)
	}
	build := func() *flexrecs.Step {
		wf, err := tpl.Build(params)
		if err != nil {
			tb.Fatal(err)
		}
		return wf
	}
	run = func() *flexrecs.Relation {
		rel, err := r.Site.Flex.Run(build())
		if err != nil {
			tb.Fatal(err)
		}
		return rel
	}
	run() // warm: statement compiled and planned
	return run, func() (string, error) { return r.Site.Flex.Explain(build()), nil }
}

// BenchmarkTopRated is the feed-style top-k read: top[10] of the
// best-rated comments with their courses, on the mono site and through
// the 2-shard cluster. The guard pins what makes it cost ten rows and
// not the table: the top compiled to LIMIT ?, the join probes Courses'
// primary key, and the descending index walk stands in for the sort.
func BenchmarkTopRated(b *testing.B) {
	for _, site := range []struct {
		name string
		r    *experiments.Runner
	}{{"mono", runner(b)}, {"2shard", shardedRunner(b)}} {
		b.Run(site.name, func(b *testing.B) {
			run, explain := strategyRun(b, site.r, "top-rated", map[string]any{"min": 4.0, "k": 10})
			for _, want := range []string{"ORDER BY Rating DESC LIMIT ?  -- args [4 10]",
				"index nested loop on (Comments.CourseID = Courses.CourseID), probe=pk(CourseID)",
				"range scan desc Comments", "order by Rating DESC elided"} {
				explainExpect(b, explain, want)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// recommendHeadKB is what one warm request of each FlexRecs strategy in
// the recommend mix allocated before ▷ scored a σ target where it stands
// and blend matched keys without a map (mean TotalAlloc growth over 20
// runs, this corpus, k = 10), on the mono site and, for the two
// strategies campus's 2-shard site sends through the same σ, there too.
// hybrid keyed all 1 861 courses in an interface map and ranked both of
// its operands in full; cf-courses and grade-peers copied 899 row
// references out of the shared nesting; related-courses lowered a copy
// of every title.
var recommendHeadKB = map[string]map[string]float64{
	"mono": {"hybrid": 304.1, "department-popular": 36.1, "cf-courses": 57.1, "grade-peers": 58.6,
		"related-courses": 50.5, "rated-courses": 30.7},
	"2shard": {"cf-courses": 57.1, "grade-peers": 58.6},
}

// recommendBudgetKB bounds every strategy of the mix at 10 % above what
// it took once the engine rewrote each workflow shape once and bound
// each request's values into the cached plan, and the index nested loop
// join carved exactly the rows each batch matched (9.8, 9.5, 55.7,
// 13.4, 5.3 and 19.7 KB for cf-courses, grade-peers, hybrid,
// department-popular, related-courses and rated-courses; 16.8, 16.3,
// 65.0, 14.8, 6.4 and 30.0 KB before).
var recommendBudgetKB = map[string]float64{
	"hybrid": 61.5, "cf-courses": 10.8, "grade-peers": 10.5, "department-popular": 14.8,
	"related-courses": 5.9, "rated-courses": 21.7,
}

// TestRecommendMixAllocBudget is the deterministic half of the recommend
// workload's alloc_kb_per_req: warm, at Small scale, each strategy of
// the mix allocates at most its recommendBudgetKB a request —
// cf-courses and grade-peers on the mono and on the 2-shard site.
func TestRecommendMixAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two Small-scale sites")
	}
	for _, site := range []struct {
		name string
		r    *experiments.Runner
	}{{"mono", runner(t)}, {"2shard", shardedRunner(t)}} {
		r := site.r
		intro, ok := r.Site.Catalog.Course(r.Man.Planted["intro-programming"])
		if !ok {
			t.Fatal("no intro-programming course")
		}
		student := r.Man.SampleStudent
		for name, params := range map[string]map[string]any{
			"hybrid":             {"student": student, "title": intro.Title, "k": 10},
			"department-popular": {"dep": intro.DepID, "k": 10},
			"cf-courses":         {"student": student, "k": 10},
			"grade-peers":        {"student": student, "k": 10},
			"related-courses":    {"title": intro.Title, "k": 10},
			"rated-courses":      {"student": student, "k": 10},
		} {
			head, ok := recommendHeadKB[site.name][name]
			if !ok {
				continue
			}
			run, _ := strategyRun(t, r, name, params)
			_, bytes := costOf(20, func() { run() })
			kb := bytes / 1024
			t.Logf("%s %s: %.1f KB/run (before the change: %.1f KB)", site.name, name, kb, head)
			if budget := recommendBudgetKB[name]; kb > budget {
				t.Errorf("%s %s allocates %.1f KB/run, budget %.1f KB", site.name, name, kb, budget)
			}
		}
	}
}

// topKHeadKB is what one warm request allocated at the commit before
// τ pushdown (mean TotalAlloc growth over 20 runs, this corpus): the
// whole 7 015-row answer was joined, copied and merged to keep ten rows.
// rated-courses sorts its dozen rows for real, so its LIMIT neither ends
// the pipeline early nor gives the planner a row goal; it cost what it
// did until the index nested loop join carved exactly the rows each
// batch matched.
var topKHeadKB = map[string]map[string]float64{
	"top-rated":     {"mono": 1795, "2shard": 2650},
	"rated-courses": {"mono": 30.8, "2shard": 30.8},
}

// ratedK20BudgetKB bounds rated-courses with k = 20 on either site, 10 %
// above the 19.9 KB it took once the index nested loop join carved
// exactly the rows each batch matched (30.3 KB before).
const ratedK20BudgetKB = 21.9

// TestTopKAllocBudget is the deterministic half of BenchmarkTopRated:
// warm, at Small scale, top-rated with k = 10 allocates at most 16 KB a
// request on the mono site and 32 KB on the 2-shard site (30.3 and
// 58.3 KB while the driver's first fetch, the join's first emit and its
// arena ignored the bound LIMIT), rated-courses at most
// ratedK20BudgetKB, both answer exactly what the drained-then-truncated
// engine answers, and on the cluster each leg's index walk fetches the
// ten rows it hands the coordinator in one batch.
func TestTopKAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two Small-scale sites")
	}
	for _, site := range []struct {
		name     string
		r        *experiments.Runner
		budgetKB float64
	}{{"mono", runner(t), 16}, {"2shard", shardedRunner(t), 32}} {
		r := site.r
		topRated := map[string]any{"min": 4.0, "k": 10}
		rated := map[string]any{"student": r.Man.SampleStudent, "k": 20}
		for name, params := range map[string]map[string]any{"top-rated": topRated, "rated-courses": rated} {
			run, _ := strategyRun(t, r, name, params)
			_, bytes := costOf(20, func() { run() })
			kb, head := bytes/1024, topKHeadKB[name][site.name]
			t.Logf("%s %s: %.1f KB/run (before the change: %.0f KB)", site.name, name, kb, head)
			switch name {
			case "top-rated":
				if kb > site.budgetKB {
					t.Errorf("%s top-rated k=10 allocates %.1f KB/run, budget %.0f KB", site.name, kb, site.budgetKB)
				}
			case "rated-courses":
				if kb > ratedK20BudgetKB {
					t.Errorf("%s rated-courses allocates %.1f KB/run, budget %.1f KB", site.name, kb, ratedK20BudgetKB)
				}
			}
		}

		// Same answers as the engine that drains the statement and cuts.
		twin := flexrecs.NewEngineOver(r.Site.SQL)
		if r.Site.Sharded != nil {
			twin = flexrecs.NewEngineWithBackend(r.Site.SQL, clusterBackend{r.Site.Sharded})
		}
		for _, k := range []int{1, 10, 50, 300, 1_000_000} {
			for _, min := range []float64{3, 4, 5, 6} {
				params := map[string]any{"min": min, "k": k}
				got, err := r.Site.Strategies.Run(r.Site.Flex, "top-rated", params)
				if err != nil {
					t.Fatal(err)
				}
				want, err := r.Site.Strategies.Run(twin, "top-rated", params)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("%s top-rated %v: pushed-down and drained-then-truncated answers differ", site.name, params)
				}
			}
		}
	}

	// The cluster's analyze report: 10 + 10 rows merged, and shard 0's
	// index walk fetched its ten rows in one batch.
	r := shardedRunner(t)
	tpl, _ := r.Site.Strategies.Get("top-rated")
	wf, err := tpl.Build(map[string]any{"min": 4.0, "k": 10})
	if err != nil {
		t.Fatal(err)
	}
	_, report, err := r.Site.Flex.RunAnalyze(wf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(actual rows=10 ", "shard 0: 10 rows in", "shard 1: 10 rows in",
		"each shard stops at LIMIT 10", "merged: 20 rows in, 10 rows out", "(stopped at limit)"} {
		if !strings.Contains(report, want) {
			t.Errorf("analyze report missing %q:\n%s", want, report)
		}
	}
	m := regexp.MustCompile(`range scan desc Comments [^\n]*\(actual rows=(\d+) batches=(\d+)`).FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("no annotated index walk in the report:\n%s", report)
	}
	if m[1] != "10" || m[2] != "1" {
		t.Errorf("shard 0 walked %s rows in %s batches for top[10], want 10 rows in 1 batch:\n%s", m[1], m[2], report)
	}
}

// BenchmarkA2CloudVsResultSize sweeps cloud computation cost against
// the number of result documents summarized.
func BenchmarkA2CloudVsResultSize(b *testing.B) {
	r := runner(b)
	res, err := r.Site.SearchCourses("american")
	if err != nil {
		b.Fatal(err)
	}
	ix, err := r.Site.SearchIndex()
	if err != nil {
		b.Fatal(err)
	}
	ids := res.IDs()
	for _, n := range []int{10, 25, 50, 100} {
		if n > len(ids) {
			n = len(ids)
		}
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cloud.Compute(ix.Text(), ids[:n], cloud.Options{MaxTerms: 30, Exclude: []string{"american"}})
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 100:
		return "docs100"
	case n >= 50:
		return "docs50"
	case n >= 25:
		return "docs25"
	default:
		return "docs10"
	}
}

// BenchmarkA3EntityVsTupleSearch contrasts entity search spanning
// relations with title-only tuple search (§3.1 Q1): the entity index
// answers over far more text yet recall is what the paper cares about;
// the report side lives in crbench -exp a3.
func BenchmarkA3EntityVsTupleSearch(b *testing.B) {
	r := runner(b)
	// Title-only index built once outside the timers.
	tb, err := search.NewBuilder(search.EntityDef{Name: "t", Fields: []search.FieldSpec{{Name: "title", Weight: 1}}})
	if err != nil {
		b.Fatal(err)
	}
	var buildErr error
	r.Site.Catalog.EachCourse(func(c catalog.Course) bool {
		buildErr = tb.Append(c.ID, "title", c.Title)
		return buildErr == nil
	})
	if buildErr != nil {
		b.Fatal(buildErr)
	}
	titleIx, err := tb.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("entity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res, err := r.Site.SearchCourses("american"); err != nil || res.Total() == 0 {
				b.Fatal("entity search failed")
			}
		}
	})
	b.Run("title-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			titleIx.Search("american")
		}
	})
}

// explainExpect is the plan-shape guard of the scenarios below that
// claim to measure one specific access path: the statement's Explain
// output must contain want, or the benchmark is timing something other
// than what its name says.
func explainExpect(b *testing.B, explain func() (string, error), want string) {
	b.Helper()
	out, err := explain()
	if err != nil {
		b.Fatalf("explain: %v", err)
	}
	if !strings.Contains(out, want) {
		b.Fatalf("scenario does not ride %q:\n%s", want, out)
	}
}

// BenchmarkRangeYearElidedSort exercises the ordered-index range path
// end to end: the Year >= ? predicate rides the CourseYears ordered
// index and the ORDER BY on the same key is elided.
func BenchmarkRangeYearElidedSort(b *testing.B) {
	r := runner(b)
	st, err := r.Site.SQL.Prepare(`SELECT CourseID, Year FROM CourseYears WHERE Year >= ? ORDER BY Year`)
	if err != nil {
		b.Fatal(err)
	}
	explainExpect(b, st.Explain, "order by Year elided")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query(int64(2008)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYearBandJoin answers "courses offered within ±1 year of this
// course's offerings" with per-left-row range probes of the
// CourseYears.Year ordered index — a band join.
func BenchmarkYearBandJoin(b *testing.B) {
	r := runner(b)
	st, err := r.Site.SQL.Prepare(`SELECT a.CourseID, b.CourseID, b.Year FROM CourseYears a JOIN CourseYears b ON b.Year BETWEEN a.Year - 1 AND a.Year + 1 WHERE a.CourseID = ?`)
	if err != nil {
		b.Fatal(err)
	}
	explainExpect(b, st.Explain, "probe=range(Year)")
	id := r.Man.Planted["intro-programming"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWideJoinStreamFirst50 measures true streaming below the Rows
// API: a comments×catalog join consumed 50 rows at a time — the iterator
// pipeline stops scanning and probing once the reader closes.
func BenchmarkWideJoinStreamFirst50(b *testing.B) {
	r := runner(b)
	st, err := r.Site.SQL.Prepare(`SELECT m.SuID, m.Rating, c.Title, c.DepID FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := st.QueryRows()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for rows.Next() && n < 50 {
			n++
		}
		rows.Close()
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeedAfterWrite measures the maintained feed's read-after-
// write path on the mono and the 2-shard site: every iteration lands a
// rating (an O(1) primary-key update of one comment, so the table does
// not grow) and then reads that course's department feed, which must be
// served fresh — the one course re-aggregated, its department re-ranked
// — without a single full build.
func BenchmarkFeedAfterWrite(b *testing.B) {
	for _, site := range []struct {
		name string
		run  func(testing.TB) *experiments.Runner
	}{{"mono", runner}, {"2shard", shardedRunner}} {
		b.Run(site.name, func(b *testing.B) {
			r := site.run(b)
			v, ok := r.Site.Views.View(core.FeedViewName)
			if !ok {
				b.Fatal("feed view not registered")
			}
			course := r.Man.Planted["intro-programming"]
			c, ok := r.Site.Catalog.Course(course)
			if !ok {
				b.Fatal("no intro-programming course")
			}
			id, err := r.Site.Comments.Add(comments.Comment{
				SuID: r.Man.SampleStudent, CourseID: course,
				Year: 2008, Term: "Aut", Text: "bench", Rating: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := r.Site.TopRatedFeed(c.DepID, 10); err != nil {
				b.Fatal(err)
			}
			tbl := r.Site.DB.MustTable("Comments")
			ri := tbl.Schema().MustIndex("Rating")
			builds := v.Stats().Refreshes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tbl.UpdateByKey([]relation.Value{id},
					func(row relation.Row) relation.Row {
						row[ri] = float64(1 + i%5)
						return row
					}); err != nil {
					b.Fatal(err)
				}
				if _, serve, err := r.Site.TopRatedFeed(c.DepID, 10); err != nil {
					b.Fatal(err)
				} else if serve.Kind != matview.ServeFresh {
					b.Fatalf("read after a rating was served %v, want fresh", serve.Kind)
				}
			}
			b.StopTimer()
			if st := v.Stats(); st.Refreshes != builds {
				b.Fatalf("%d full builds during the run, want none: %+v", st.Refreshes-builds, st)
			}
		})
	}
}

// TestFeedMaintenanceAllocBudget is the deterministic form of the feed
// maintenance claim, at Small scale on the mono and the 2-shard site: a
// rated comment for a random course followed by a read of that course's
// department feed costs at most 64 KB and no full build (before the
// feed was maintained every such pair paid for one: 8.8 MB mono, about
// 12 MB through two shards), and what the 200 patches leave is exactly
// what a build returns.
func TestFeedMaintenanceAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two Small-scale sites")
	}
	for _, site := range []struct {
		name string
		r    *experiments.Runner
	}{{"mono", runner(t)}, {"2shard", shardedRunner(t)}} {
		s := site.r.Site
		v, ok := s.Views.View(core.FeedViewName)
		if !ok {
			t.Fatal("feed view not registered")
		}
		var courses []catalog.Course
		s.Catalog.EachCourse(func(c catalog.Course) bool {
			courses = append(courses, c)
			return true
		})
		sort.Slice(courses, func(a, b int) bool { return courses[a].ID < courses[b].ID })
		rng := rand.New(rand.NewSource(24))
		const marker = "feed maintenance budget"
		pair := func() {
			c := courses[rng.Intn(len(courses))]
			if _, err := s.Comments.Add(comments.Comment{
				SuID: site.r.Man.SampleStudent, CourseID: c.ID, Year: 2009, Term: "Spr",
				Text: marker, Rating: float64(1 + rng.Intn(5)),
			}); err != nil {
				t.Fatal(err)
			}
			if _, serve, err := s.TopRatedFeed(c.DepID, 10); err != nil {
				t.Fatal(err)
			} else if serve.Kind != matview.ServeFresh {
				t.Fatalf("%s: read after a comment was served %v, want fresh", site.name, serve.Kind)
			}
		}
		if _, _, err := s.TopRatedFeed(courses[0].DepID, 10); err != nil {
			t.Fatal(err)
		}
		pair() // warm-up: plans the patch statement
		builds := v.Stats().Refreshes
		_, bytes := costOf(200, pair)
		t.Logf("%s: %.1f KB per comment + feed read", site.name, bytes/1024)
		if bytes > 64<<10 {
			t.Errorf("%s: a comment and a feed read allocate %.0f KB, budget 64 KB", site.name, bytes/1024)
		}
		if st := v.Stats(); st.Refreshes != builds || st.Patches < 200 {
			t.Errorf("%s: %d full builds and %d patches over 200 pairs, want 0 and 200: %+v", site.name, st.Refreshes-builds, st.Patches, st)
		}

		maintained, _, err := v.Get()
		if err != nil {
			t.Fatal(err)
		}
		v.Invalidate()
		built, serve, err := v.Get()
		if err != nil || serve.Kind != matview.ServeBuilt {
			t.Fatalf("%s: read after Invalidate: %v %v", site.name, serve.Kind, err)
		}
		if !reflect.DeepEqual(maintained, built) {
			t.Errorf("%s: the feed 200 patches left differs from a fresh build", site.name)
		}

		// The sites are shared with the other scenarios: take the comments
		// back out.
		tbl := s.DB.MustTable("Comments")
		ti := tbl.Schema().MustIndex("Text")
		if n, err := tbl.DeleteWhere(func(r relation.Row) bool { return r[ti] == marker }); err != nil || n != 201 {
			t.Fatalf("%s: removed %d of the 201 budget comments: %v", site.name, n, err)
		}
	}
}

// shardClusters splits the runner's deployment once into the 4-shard
// and 1-shard clusters the sharding scenarios share. The split reads
// the site's tables without modifying them (declaring the shard keys is
// advisory metadata), so the mono benchmarks are unaffected.
var shardClusters struct {
	once   sync.Once
	c4, c1 *shard.Cluster
	err    error
}

func shardBench(b *testing.B) (c4, c1 *shard.Cluster) {
	b.Helper()
	r := runner(b)
	sc := &shardClusters
	sc.once.Do(func() {
		for _, name := range []string{"Comments", "Enrollments", "EnrollmentPoints"} {
			tbl, ok := r.Site.DB.Table(name)
			if !ok {
				continue
			}
			if sc.err = tbl.SetShardKey("SuID"); sc.err != nil {
				return
			}
		}
		if sc.c4, sc.err = shard.Split(r.Site.DB, 4); sc.err != nil {
			return
		}
		sc.c1, sc.err = shard.Split(r.Site.DB, 1)
	})
	if sc.err != nil {
		b.Fatal(sc.err)
	}
	return sc.c4, sc.c1
}

// BenchmarkShardedScan times one rating-range scan over the partitioned
// Comments table whose ORDER BY the coordinator answers by merging
// per-shard key-ordered streams: scattered to 4 shards on parallel
// workers, and through a 1-shard cluster — identical routing machinery,
// no parallelism. oneshard over fanout4 is what scattering bought; on
// fewer than 4 cores it reads below 1, pure coordination overhead.
func BenchmarkShardedScan(b *testing.B) {
	const scan = `SELECT SuID, CourseID, Rating FROM Comments WHERE Rating >= ? ORDER BY Rating DESC`
	c4, c1 := shardBench(b)
	b.Run("fanout4", func(b *testing.B) {
		st, err := c4.Prepare(scan)
		if err != nil {
			b.Fatal(err)
		}
		explainExpect(b, st.Explain, "fan-out over 4 shards, merge=by-order")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Query(4.0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oneshard", func(b *testing.B) {
		st, err := c1.Prepare(scan)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Query(4.0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func txBenchTable(db *relation.DB) *relation.Table {
	return db.MustCreate(relation.MustTable("TxBench",
		relation.NewSchema(
			relation.NotNullCol("ID", relation.TypeInt),
			relation.NotNullCol("Val", relation.TypeString),
		), relation.WithPrimaryKey("ID"), relation.WithAutoIncrement("ID")))
}

// BenchmarkConcurrentWriters measures transaction commit throughput
// under contention: parallel committers on one table, each op a full
// begin → buffered insert → validate-and-apply commit cycle. Distinct
// auto-increment keys mean no conflicts — this times the transaction
// bookkeeping itself (buffering, the key read, commit under the table
// lock), not retry storms.
func BenchmarkConcurrentWriters(b *testing.B) {
	db := relation.NewDB()
	tbl := txBenchTable(db)
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tx := db.Begin()
			if _, err := tx.Insert(tbl, relation.Row{nil, "tx-payload"}); err != nil {
				tx.Rollback()
				b.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// TestExtendMaintenanceAllocBudget is the deterministic form of the ε
// views' maintenance claim, at Small scale on the mono and the 2-shard
// site: a rated comment by a random student followed by a
// department-popular read of that course's department costs at most
// 300 KB and no full build of the ratings nesting (rebuilt per comment,
// every such pair paid about 2.8 MB), and what the 100 patches leave is
// exactly what a build returns.
func TestExtendMaintenanceAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two Small-scale sites")
	}
	for _, site := range []struct {
		name string
		r    *experiments.Runner
	}{{"mono", runner(t)}, {"2shard", shardedRunner(t)}} {
		s := site.r.Site
		var courses []catalog.Course
		s.Catalog.EachCourse(func(c catalog.Course) bool {
			courses = append(courses, c)
			return true
		})
		sort.Slice(courses, func(a, b int) bool { return courses[a].ID < courses[b].ID })
		res, err := s.SQL.Query(`SELECT SuID FROM Comments GROUP BY SuID`)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		const marker = "extend maintenance budget"
		read := func(dep string) {
			if _, err := s.Strategies.Run(s.Flex, "department-popular", map[string]any{"dep": dep, "k": 10}); err != nil {
				t.Fatal(err)
			}
		}
		pair := func() {
			c := courses[rng.Intn(len(courses))]
			if _, err := s.Comments.Add(comments.Comment{
				SuID: res.Rows[rng.Intn(len(res.Rows))][0].(int64), CourseID: c.ID, Year: 2009, Term: "Spr",
				Text: marker, Rating: float64(1 + rng.Intn(5)),
			}); err != nil {
				t.Fatal(err)
			}
			read(c.DepID)
		}
		read(courses[0].DepID)
		var v *matview.View
		for _, view := range s.Views.Views() {
			if strings.HasPrefix(view.Name(), "flex/ratings-extend@") {
				v = view
			}
		}
		if v == nil {
			t.Fatalf("%s: department-popular registered no ratings nesting", site.name)
		}
		pair() // warm-up: plans the patch statement
		before := v.Stats()
		_, bytes := costOf(100, pair)
		t.Logf("%s: %.1f KB per comment + department-popular read", site.name, bytes/1024)
		if bytes > 300<<10 {
			t.Errorf("%s: a comment and a department-popular read allocate %.0f KB, budget 300 KB", site.name, bytes/1024)
		}
		if st := v.Stats(); st.Refreshes != before.Refreshes || st.Patches < before.Patches+100 {
			t.Errorf("%s: %d full builds and %d patches over 100 pairs, want 0 and 100: %+v",
				site.name, st.Refreshes-before.Refreshes, st.Patches-before.Patches, st)
		}

		maintained, _, err := v.Get()
		if err != nil {
			t.Fatal(err)
		}
		v.Invalidate()
		built, serve, err := v.Get()
		if err != nil || serve.Kind != matview.ServeBuilt {
			t.Fatalf("%s: read after Invalidate: %v %v", site.name, serve.Kind, err)
		}
		if !reflect.DeepEqual(maintained, built) {
			t.Errorf("%s: the nesting 100 patches left differs from a fresh build", site.name)
		}

		// The sites are shared with the other scenarios: take the comments
		// back out.
		tbl := s.DB.MustTable("Comments")
		ti := tbl.Schema().MustIndex("Text")
		if n, err := tbl.DeleteWhere(func(r relation.Row) bool { return r[ti] == marker }); err != nil || n != 101 {
			t.Fatalf("%s: removed %d of the 101 budget comments: %v", site.name, n, err)
		}
	}
}
