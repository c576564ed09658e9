// Parity tests for the sqlmini query planner over the generated
// CourseRank corpus: every optimized plan — index probes, pushed
// predicates, hash joins — must return results identical to forced
// full-scan/nested-loop execution, and the Figure 5 FlexRecs workflows
// must rank identically either way.
package courserank

import (
	"fmt"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"courserank/internal/datagen"
	"courserank/internal/experiments"
	"courserank/internal/flexrecs"
)

var (
	parityOnce sync.Once
	parityRun  *experiments.Runner
	parityErr  error
)

func parityRunner(t *testing.T) *experiments.Runner {
	t.Helper()
	parityOnce.Do(func() { parityRun, parityErr = experiments.NewRunner(datagen.Tiny()) })
	if parityErr != nil {
		t.Fatal(parityErr)
	}
	return parityRun
}

// runBothModes runs fn twice — once against the planning engines, once
// against force-scan handles of the same database — and returns both
// results. ForceScan handles are per-call derived engines, not a
// mutable engine-wide flag, so both executions could even run
// concurrently without racing.
func runBothModes(t *testing.T, r *experiments.Runner, fn func(flex *flexrecs.Engine) (any, error)) (planned, naive any) {
	t.Helper()
	planned, err := fn(r.Site.Flex)
	if err != nil {
		t.Fatalf("planned execution: %v", err)
	}
	naive, err = fn(r.Site.Flex.ForceScan())
	if err != nil {
		t.Fatalf("forced execution: %v", err)
	}
	return planned, naive
}

func TestSQLParityOnCorpus(t *testing.T) {
	r := parityRunner(t)
	queries := []struct {
		sql  string
		args []any
	}{
		{`SELECT * FROM Courses WHERE Title = ?`, []any{"Introduction to Programming"}},
		{`SELECT Title, DepID FROM Courses WHERE CourseID = ?`, []any{r.Man.Planted["intro-programming"]}},
		{`SELECT SuID, CourseID, Rating FROM Comments WHERE SuID = ?`, []any{r.Man.SampleStudent}},
		{`SELECT SuID, CourseID, Rating FROM Comments WHERE SuID <> ?`, []any{r.Man.SampleStudent}},
		{`SELECT Courses.CourseID, Title FROM Courses JOIN CourseYears ON Courses.CourseID = CourseYears.CourseID WHERE CourseYears.Year = 2008`, nil},
		{`SELECT c.DepID, COUNT(*) AS n, AVG(m.Rating) AS avg FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID GROUP BY c.DepID ORDER BY c.DepID`, nil},
		{`SELECT o.CourseID, o.Year, i.Name FROM Offerings o JOIN Instructors i ON o.InstructorID = i.InstructorID WHERE o.Year >= 2008 ORDER BY o.OfferingID LIMIT 50`, nil},
		{`SELECT DepID FROM Courses GROUP BY DepID ORDER BY DepID`, nil},
	}
	for _, q := range queries {
		p, n := runBothModes(t, r, func(flex *flexrecs.Engine) (any, error) {
			return flex.SQL().Query(q.sql, q.args...)
		})
		if !reflect.DeepEqual(p, n) {
			t.Errorf("%q: planned and forced results differ", q.sql)
		}
		// The prepared path must agree with both: same plan, late-bound
		// parameters instead of baked-in values.
		st, err := r.Site.SQL.Prepare(q.sql)
		if err != nil {
			t.Errorf("prepare %q: %v", q.sql, err)
			continue
		}
		prep, err := st.Query(q.args...)
		if err != nil {
			t.Errorf("prepared %q: %v", q.sql, err)
			continue
		}
		if !reflect.DeepEqual(any(prep), p) {
			t.Errorf("%q: prepared and one-shot results differ", q.sql)
		}
	}
}

func TestWorkflowParityOnCorpus(t *testing.T) {
	r := parityRunner(t)
	cases := []struct {
		strategy string
		params   map[string]any
	}{
		{"related-courses", map[string]any{"title": "Introduction to Programming", "k": 10}},
		{"related-courses", map[string]any{"title": "Introduction to Programming", "k": 10, "year": 2008}},
		{"cf-courses", map[string]any{"student": r.Man.SampleStudent, "k": 10, "neighbors": 20}},
		{"department-popular", map[string]any{"dep": "CS", "k": 10}},
	}
	for _, tc := range cases {
		tpl, ok := r.Site.Strategies.Get(tc.strategy)
		if !ok {
			t.Fatalf("missing strategy %q", tc.strategy)
		}
		p, n := runBothModes(t, r, func(flex *flexrecs.Engine) (any, error) {
			wf, err := tpl.Build(tc.params)
			if err != nil {
				return nil, err
			}
			return flex.Run(wf)
		})
		pr, nr := p.(*flexrecs.Relation), n.(*flexrecs.Relation)
		if !reflect.DeepEqual(pr.Cols, nr.Cols) {
			t.Errorf("%s: columns %v vs %v", tc.strategy, pr.Cols, nr.Cols)
			continue
		}
		if !reflect.DeepEqual(pr.Rows, nr.Rows) {
			t.Errorf("%s %v: planned and forced rankings differ", tc.strategy, tc.params)
		}
	}
}

// TestWorkflowPlanCacheHitRate pins the headline property of the
// prepared-statement redesign: a repeated parameterized workflow — the
// Figure 5(a) per-user request — plans its SQL exactly once. After one
// warm-up run, fifty further runs must be pure cache hits (rate > 0.9;
// with no DDL in flight it is exactly 1.0).
func TestWorkflowPlanCacheHitRate(t *testing.T) {
	r := parityRunner(t)
	tpl, ok := r.Site.Strategies.Get("related-courses")
	if !ok {
		t.Fatal("missing strategy related-courses")
	}
	run := func() {
		wf, err := tpl.Build(map[string]any{"title": "Introduction to Programming", "k": 10})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Site.Flex.Run(wf); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: the first request may parse and plan
	r.Site.SQL.ResetCacheStats()
	for i := 0; i < 50; i++ {
		run()
	}
	cs := r.Site.SQL.CacheStats()
	if cs.Hits == 0 {
		t.Fatalf("no cache hits recorded: %+v", cs)
	}
	if cs.Misses != 0 {
		t.Errorf("repeated workflow replanned %d times: %+v", cs.Misses, cs)
	}
	if rate := cs.HitRate(); rate <= 0.9 {
		t.Errorf("plan-cache hit rate %.3f, want > 0.9 (%+v)", rate, cs)
	}
}

// TestWorkflowExplainShowsAccessPaths verifies end to end — strategy
// registry through FlexRecs through the SQL planner — that the Figure
// 5(a) workflow's compiled reference query is answered by the Title
// index and the year scope probes CourseYears.
func TestWorkflowExplainShowsAccessPaths(t *testing.T) {
	r := parityRunner(t)
	tpl, _ := r.Site.Strategies.Get("related-courses")
	wf, err := tpl.Build(map[string]any{"title": "Introduction to Programming", "k": 5, "year": 2008})
	if err != nil {
		t.Fatal(err)
	}
	out := r.Site.Flex.Explain(wf)
	for _, want := range []string{"index probe Courses (Title = ", "index probe CourseYears (Year = 2008)", "hash join"} {
		if !strings.Contains(out, want) {
			t.Errorf("workflow explain missing %q:\n%s", want, out)
		}
	}
}

// TestWorkflowExplainShowsRewrite: Explain and EXPLAIN ANALYZE print the
// tree the engine runs, not the one the template drew. The template
// still reads as Figure 5(b) — both sides of the neighbour ▷ select
// below their extend, which the forced handle (never rewritten) shows —
// while the site engine moves the selections above one shared
// materialized nesting, after which a warm request runs no SQL at all.
func TestWorkflowExplainShowsRewrite(t *testing.T) {
	r := parityRunner(t)
	flex := r.Site.Flex
	build := func(name string, params map[string]any) *flexrecs.Step {
		tpl, ok := r.Site.Strategies.Get(name)
		if !ok {
			t.Fatalf("missing strategy %q", name)
		}
		wf, err := tpl.Build(params)
		if err != nil {
			t.Fatal(err)
		}
		return wf
	}
	cf := func() *flexrecs.Step {
		return build("cf-courses", map[string]any{"student": r.Man.SampleStudent, "k": 5})
	}

	drawn := flex.ForceScan().Explain(cf())
	for _, want := range []string{"WHERE SuID <> ?", "WHERE SuID = ?"} {
		if !strings.Contains(drawn, want) {
			t.Errorf("template as drawn should select below the extend (%q):\n%s", want, drawn)
		}
	}
	for _, tpl := range r.Site.Strategies.List() {
		wf := build(tpl.Name, map[string]any{"student": r.Man.SampleStudent, "title": "Introduction to Programming",
			"dep": "CS", "course": r.Man.Planted["intro-programming"]})
		if out := flex.ForceScan().Explain(wf); strings.Contains(out, "matview[") {
			t.Errorf("template %s places a Materialize by hand:\n%s", tpl.Name, out)
		}
	}

	// One request of each strategy that nests ratings or grades.
	for _, wf := range []*flexrecs.Step{cf(),
		build("hybrid", map[string]any{"student": r.Man.SampleStudent, "title": "Introduction to Programming"}),
		build("department-popular", map[string]any{"dep": "CS"}),
		build("grade-peers", map[string]any{"student": r.Man.SampleStudent}),
	} {
		if _, err := flex.Run(wf); err != nil {
			t.Fatal(err)
		}
	}
	count := map[string]int{}
	for _, v := range r.Site.Views.Views() {
		for _, frag := range []string{"ratings-extend", "grades-extend", "|"} {
			if name := v.Name(); strings.HasPrefix(name, "flex/") && strings.Contains(name, frag) {
				count[frag]++
			}
		}
	}
	if count["ratings-extend"] != 1 || count["grades-extend"] != 1 || count["|"] != 0 {
		t.Errorf("views after one request of each strategy: %v, want one ratings-extend, one grades-extend, none bound to parameters", count)
	}

	out := flex.Explain(cf())
	above := strings.Index(out, "σ[SuID <> ?]")
	below := strings.Index(out, "matview[ratings-extend] — matview hit (age=")
	if above < 0 || below < above || !strings.Contains(out, "σ[SuID = ?]") || strings.Contains(out, "WHERE SuID") {
		t.Errorf("explain does not show the selection above the shared view:\n%s", out)
	}

	h0, m0 := flex.MatStats()
	ch0, cm0 := flex.CompileStats()
	_, report, err := flex.RunAnalyze(cf())
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := flex.MatStats()
	ch1, cm1 := flex.CompileStats()
	if m1 != m0 || h1 < h0+2 {
		t.Errorf("warm cf-courses: matview hits %d→%d misses %d→%d, want both sides of the neighbour ▷ to hit the one view", h0, h1, m0, m1)
	}
	if ch1 != ch0 || cm1 != cm0 {
		t.Errorf("warm cf-courses executed SQL: compile hits %d→%d misses %d→%d", ch0, ch1, cm0, cm1)
	}
	for _, want := range []string{"σ[SuID <> ?]  -- args [", "matview[ratings-extend] — matview hit (age=", ", fresh) (actual rows="} {
		if !strings.Contains(report, want) {
			t.Errorf("analyze report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "SQL>") {
		t.Errorf("warm analyze report shows a statement:\n%s", report)
	}

	// A top over SQL is a LIMIT: the template draws top[10] over the
	// ordered statement (the forced handle shows it so), the engine ships
	// the statement with LIMIT ? and k as its last argument, and analyze
	// walks that same tree — ten rows left the DBMS, not every comment
	// rated 4 and up, because the window ended the pipeline.
	top := func() *flexrecs.Step { return build("top-rated", map[string]any{"min": 4.0, "k": 10}) }
	if drawn := flex.ForceScan().Explain(top()); !strings.HasPrefix(drawn, "top[10]\n") || strings.Contains(drawn, "LIMIT") {
		t.Errorf("top-rated as drawn should truncate a whole statement:\n%s", drawn)
	}
	out = flex.Explain(top())
	if !strings.HasPrefix(out, "SQL> SELECT ") || !strings.Contains(out, "ORDER BY Rating DESC LIMIT ?  -- args [4 10]\n") {
		t.Errorf("top-rated explain does not show the limited statement:\n%s", out)
	}
	rel, report, err := flex.RunAnalyze(top())
	if err != nil {
		t.Fatal(err)
	}
	all, err := flex.SQL().Query(`SELECT COUNT(*) FROM Comments WHERE Rating >= 4`)
	if err != nil {
		t.Fatal(err)
	}
	if n := all.Rows[0][0].(int64); len(rel.Rows) != 10 || n <= 10 {
		t.Fatalf("top-rated returned %d of %d qualifying rows", len(rel.Rows), n)
	}
	for _, want := range []string{"LIMIT ?  -- args [4 10] (actual rows=10 ", "| analyzed: 10 rows out, total ", " (stopped at limit)\n",
		"analyzed workflow: 10 rows out"} {
		if !strings.Contains(report, want) {
			t.Errorf("top-rated analyze report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "top[") {
		t.Errorf("top-rated analyze report still truncates above the statement:\n%s", report)
	}
}

// TestAnalyzeTreeMatchesExplain: RunAnalyze prints the operator tree
// Explain prints, line for line, for every registered template — an
// operator that runs fused into its consumer (▷ under top or blend, π
// under blend, blend under top) keeps its own line, saying what it read
// instead of rows out — and Run and RunAnalyze answer the same rows.
// Compared are the operator lines without their actuals, without the
// "|" plan lines and without a view's state; Explain also prints the
// subtree a view caches, which a served view did not run.
func TestAnalyzeTreeMatchesExplain(t *testing.T) {
	r := parityRunner(t)
	flex := r.Site.Flex
	actuals := regexp.MustCompile(` \((actual rows=|fused into )[^()]*\)$`)
	ops := func(text string, explain bool) []string {
		var out []string
		viewDepth := -1
		for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
			body := strings.TrimLeft(line, " ")
			depth := len(line) - len(body)
			if viewDepth >= 0 && depth > viewDepth {
				continue // the view's own subtree
			}
			viewDepth = -1
			if strings.HasPrefix(body, "| ") || strings.HasPrefix(body, "analyzed workflow: ") {
				continue
			}
			line = actuals.ReplaceAllString(line, "")
			if i := strings.Index(line, " — "); i >= 0 && strings.HasPrefix(body, "matview[") {
				line = line[:i]
				if explain {
					viewDepth = depth
				}
			}
			out = append(out, line)
		}
		return out
	}
	for _, tpl := range r.Site.Strategies.List() {
		wf, err := tpl.Build(map[string]any{"student": r.Man.SampleStudent, "title": "Introduction to Programming",
			"dep": "CS", "course": r.Man.Planted["intro-programming"]})
		if err != nil {
			t.Fatal(err)
		}
		ran, err := flex.Run(wf) // warm: every view built
		if err != nil {
			t.Fatal(err)
		}
		explain := flex.Explain(wf)
		analyzed, report, err := flex.RunAnalyze(wf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(analyzed, ran) {
			t.Errorf("%s: Run and RunAnalyze answer differently\n run %v\n analyze %v", tpl.Name, ran.Rows, analyzed.Rows)
		}
		if got, want := ops(report, false), ops(explain, true); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: RunAnalyze's operator lines differ from Explain's\nanalyze:\n%s\nexplain:\n%s\nfull report:\n%s",
				tpl.Name, strings.Join(got, "\n"), strings.Join(want, "\n"), report)
		}
	}
}

// TestWorkflowExplainShowsRangeAndINLJ pins the iterator-executor
// access paths on live FlexRecs workflows: the recency-scoped Figure
// 5(a) variant compiles its "Year >= since" predicate to an
// ordered-index range scan, and the per-student rated-courses feed
// joins its handful of comments to the catalog through an index
// nested-loop over the Courses primary key.
func TestWorkflowExplainShowsRangeAndINLJ(t *testing.T) {
	r := parityRunner(t)
	tpl, _ := r.Site.Strategies.Get("related-courses")
	wf, err := tpl.Build(map[string]any{"title": "Introduction to Programming", "k": 5, "since": 2008})
	if err != nil {
		t.Fatal(err)
	}
	out := r.Site.Flex.Explain(wf)
	if !strings.Contains(out, "range scan CourseYears (Year >= 2008)") {
		t.Errorf("since-scoped workflow explain missing the range scan:\n%s", out)
	}
	tpl, ok := r.Site.Strategies.Get("rated-courses")
	if !ok {
		t.Fatal("missing strategy rated-courses")
	}
	wf, err = tpl.Build(map[string]any{"student": r.Man.SampleStudent, "k": 10})
	if err != nil {
		t.Fatal(err)
	}
	out = r.Site.Flex.Explain(wf)
	if !strings.Contains(out, "index nested loop on (Comments.CourseID = Courses.CourseID), probe=pk(CourseID)") {
		t.Errorf("rated-courses explain missing the index nested-loop join:\n%s", out)
	}
}

// TestSortAwareWorkflows pins the two strategies riding the sort-aware
// executor end to end. top-rated compiles to one SELECT whose
// "Rating >= ?" range and "ORDER BY Rating DESC" the planner answers
// together — a descending walk of the Comments.Rating ordered index
// with the sort elided — and returns identical rows under forced
// execution (the pk join is 1:1, so even tie order matches).
// contemporary-courses compiles its ±band ON clause into per-left-row
// range probes of the CourseYears.Year ordered index (a band join);
// its rows compare as a multiset since the probe emits key order.
func TestSortAwareWorkflows(t *testing.T) {
	r := parityRunner(t)

	tpl, ok := r.Site.Strategies.Get("top-rated")
	if !ok {
		t.Fatal("missing strategy top-rated")
	}
	build := func(k int) *flexrecs.Step {
		wf, err := tpl.Build(map[string]any{"min": 4.0, "k": k})
		if err != nil {
			t.Fatal(err)
		}
		return wf
	}
	out := r.Site.Flex.Explain(build(15))
	for _, want := range []string{"ORDER BY Rating DESC", "range scan desc Comments", "order by Rating DESC elided"} {
		if !strings.Contains(out, want) {
			t.Errorf("top-rated explain missing %q:\n%s", want, out)
		}
	}
	p, n := runBothModes(t, r, func(flex *flexrecs.Engine) (any, error) {
		return flex.Run(build(25))
	})
	pr, nr := p.(*flexrecs.Relation), n.(*flexrecs.Relation)
	if len(pr.Rows) == 0 {
		t.Fatal("top-rated returned no rows")
	}
	if !reflect.DeepEqual(pr.Rows, nr.Rows) {
		t.Errorf("top-rated: planned and forced rows differ\nplanned: %v\nforced:  %v", pr.Rows, nr.Rows)
	}
	for i := 1; i < len(pr.Rows); i++ {
		a, okA := pr.Rows[i-1][2].(float64)
		b, okB := pr.Rows[i][2].(float64)
		if okA && okB && b > a {
			t.Fatalf("top-rated rows not descending by rating: %v", pr.Rows)
		}
	}

	tpl, ok = r.Site.Strategies.Get("contemporary-courses")
	if !ok {
		t.Fatal("missing strategy contemporary-courses")
	}
	course := r.Man.Planted["intro-programming"]
	wf, err := tpl.Build(map[string]any{"course": course, "band": 1, "k": 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	out = r.Site.Flex.Explain(wf)
	if !strings.Contains(out, "probe=range(Year)") {
		t.Errorf("contemporary-courses explain missing the band-join range probe:\n%s", out)
	}
	p, n = runBothModes(t, r, func(flex *flexrecs.Engine) (any, error) {
		wf, err := tpl.Build(map[string]any{"course": course, "band": 1, "k": 1 << 20})
		if err != nil {
			return nil, err
		}
		return flex.Run(wf)
	})
	pr, nr = p.(*flexrecs.Relation), n.(*flexrecs.Relation)
	if len(pr.Rows) == 0 {
		t.Fatal("contemporary-courses returned no rows")
	}
	sorted := func(rows [][]any) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(sorted(pr.Rows), sorted(nr.Rows)) {
		t.Error("contemporary-courses: planned and forced row multisets differ")
	}
}

// TestRangeAndINLJWorkflowParity runs the new plan shapes through the
// workflow engine against forced execution. rated-courses preserves row
// order exactly (the index nested-loop emits left-major order like the
// nested loop it replaces); the range-scoped variant emits the range in
// key order, so its rows compare as a multiset (Top is disabled via a
// huge k so boundary ties cannot skew the comparison).
func TestRangeAndINLJWorkflowParity(t *testing.T) {
	r := parityRunner(t)

	tpl, _ := r.Site.Strategies.Get("rated-courses")
	p, n := runBothModes(t, r, func(flex *flexrecs.Engine) (any, error) {
		wf, err := tpl.Build(map[string]any{"student": r.Man.SampleStudent, "k": 50})
		if err != nil {
			return nil, err
		}
		return flex.Run(wf)
	})
	pr, nr := p.(*flexrecs.Relation), n.(*flexrecs.Relation)
	if len(pr.Rows) == 0 {
		t.Fatal("rated-courses returned no rows for the sample student")
	}
	if !reflect.DeepEqual(pr.Rows, nr.Rows) {
		t.Errorf("rated-courses: planned and forced rows differ\nplanned: %v\nforced:  %v", pr.Rows, nr.Rows)
	}

	tpl, _ = r.Site.Strategies.Get("related-courses")
	p, n = runBothModes(t, r, func(flex *flexrecs.Engine) (any, error) {
		wf, err := tpl.Build(map[string]any{"title": "Introduction to Programming", "k": 1 << 20, "since": 2008})
		if err != nil {
			return nil, err
		}
		return flex.Run(wf)
	})
	pr, nr = p.(*flexrecs.Relation), n.(*flexrecs.Relation)
	if len(pr.Rows) == 0 {
		t.Fatal("since-scoped related-courses returned no rows")
	}
	if len(pr.Rows) != len(nr.Rows) {
		t.Fatalf("since-scoped related-courses: %d planned rows vs %d forced", len(pr.Rows), len(nr.Rows))
	}
	sorted := func(rows [][]any) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(sorted(pr.Rows), sorted(nr.Rows)) {
		t.Error("since-scoped related-courses: planned and forced row multisets differ")
	}
}
