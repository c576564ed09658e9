package sqlmini

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"courserank/internal/obs"
)

// Wall times are nondeterministic; the goldens normalize them and pin
// everything else (rows, batches, loops, tree shape).
var (
	timeRe  = regexp.MustCompile(`time=[^)]+\)`)
	totalRe = regexp.MustCompile(`total [0-9.]+(ns|µs|ms|s)`)
)

func normalizeAnalyze(s string) string {
	s = timeRe.ReplaceAllString(s, "time=T)")
	s = totalRe.ReplaceAllString(s, "total T")
	return s
}

// TestExplainAnalyzeGolden pins the annotated plan tree for every
// operator family: scan, range scan, pk lookup, index probe, hash
// join (both build sides), a two-join chain, index nested-loop join,
// band join, and the post-join WHERE filter — against the planner
// fixture, with exact per-operator rows/batches/loops.
func TestExplainAnalyzeGolden(t *testing.T) {
	e := plannerDB(t)
	cases := []struct {
		name string
		sql  string
		args []any
		want string
	}{
		{
			name: "full scan with pushed filter",
			sql:  `SELECT SuID, CourseID, Rating FROM Comments WHERE SuID <> 1`,
			want: "scan Comments filter (SuID <> 1) ~30 of 30 rows (actual rows=25 batches=1 loops=1 time=T)\n" +
				batchLine + "analyzed: 25 rows out, total T\n",
		},
		{
			name: "range scan with elided ORDER BY",
			sql:  `SELECT CourseID, Year FROM CourseYears WHERE Year >= 2009 ORDER BY Year`,
			want: "range scan CourseYears (Year >= 2009) ~6 of 12 rows (actual rows=6 batches=1 loops=1 time=T)\n" +
				"order by Year elided (range scan emits sort order)\n" +
				batchLine + "analyzed: 6 rows out, total T\n",
		},
		{
			name: "pk point lookup (probe-only fast path)",
			sql:  `SELECT Title FROM Courses WHERE CourseID = 7`,
			want: "pk lookup Courses (CourseID = 7) ~1 of 12 rows (actual rows=1 batches=1 loops=1 time=T)\n" +
				batchLine + "analyzed: 1 rows out, total T\n",
		},
		{
			name: "index probe with a bound parameter",
			sql:  `SELECT * FROM Courses WHERE Title = ?`,
			args: []any{"Course 3 intro"},
			want: "index probe Courses (Title = 'Course 3 intro') ~1 of 12 rows (actual rows=1 batches=1 loops=1 time=T)\n" +
				batchLine + "analyzed: 1 rows out, total T\n",
		},
		{
			name: "hash join build=right",
			sql: `SELECT Title FROM Courses JOIN CourseYears ON Courses.CourseID = CourseYears.CourseID ` +
				`WHERE CourseYears.Year = 2008`,
			want: "hash join on (Courses.CourseID = CourseYears.CourseID), build=right (INNER) (actual rows=6 batches=1 time=T)\n" +
				"  index probe CourseYears (Year = 2008) ~6 of 12 rows (actual rows=6 batches=1 loops=1 time=T)\n" +
				"  scan Courses ~12 of 12 rows (actual rows=12 batches=1 loops=1 time=T)\n" +
				batchLine + "analyzed: 6 rows out, total T\n",
		},
		{
			name: "two-join chain runs in written order",
			sql: `SELECT c.Title FROM Courses c JOIN Comments m ON c.CourseID = m.CourseID ` +
				`JOIN CourseYears y ON c.CourseID = y.CourseID WHERE m.SuID = 1 AND y.Year = 2009`,
			want: "hash join on (c.CourseID = y.CourseID), build=right (INNER) (actual rows=3 batches=1 time=T)\n" +
				"  index probe CourseYears AS y (Year = 2009) ~6 of 12 rows (actual rows=6 batches=1 loops=1 time=T)\n" +
				"  hash join on (c.CourseID = m.CourseID), build=right (INNER) (actual rows=5 batches=1 time=T)\n" +
				"    index probe Comments AS m (SuID = 1) ~4 of 30 rows (actual rows=5 batches=1 loops=1 time=T)\n" +
				"    scan Courses AS c ~12 of 12 rows (actual rows=12 batches=1 loops=1 time=T)\n" +
				batchLine + "analyzed: 3 rows out, total T\n",
		},
		{
			name: "hash join build=left: the small driver hashes, the big side streams through",
			sql:  `SELECT y.CourseID, en.SuID FROM CourseYears y JOIN Enrollments en ON y.CourseID = en.CourseID`,
			want: "hash join on (y.CourseID = en.CourseID), build=left (INNER) (actual rows=200 batches=3 time=T)\n" +
				"  scan Enrollments AS en ~200 of 200 rows (actual rows=200 batches=3 loops=1 time=T)\n" +
				"  scan CourseYears AS y ~12 of 12 rows (actual rows=12 batches=1 loops=1 time=T)\n" +
				batchLine + "analyzed: 200 rows out, total T\n",
		},
		{
			name: "index nested-loop join: right line reports the storage probes",
			sql:  `SELECT * FROM Comments m JOIN Enrollments en ON m.SuID = en.SuID WHERE m.CommentID = 1`,
			want: "index nested loop on (m.SuID = en.SuID), probe=index(SuID) (INNER) (actual rows=8 batches=1 loops=1 time=T)\n" +
				"  scan Enrollments AS en ~200 of 200 rows (actual rows=8 batches=1 time=T)\n" +
				"  pk lookup Comments AS m (CommentID = 1) ~1 of 30 rows (actual rows=1 batches=1 loops=1 time=T)\n" +
				batchLine + "analyzed: 8 rows out, total T\n",
		},
		{
			name: "band join: per-left-row range probes",
			sql: `SELECT a.CourseID, b.CourseID FROM CourseYears a ` +
				`JOIN CourseYears b ON b.Year BETWEEN a.Year - 1 AND a.Year + 1 WHERE a.CourseID = 3`,
			want: "index nested loop on b.Year BETWEEN (a.Year - 1) AND (a.Year + 1), probe=range(Year) (INNER) (actual rows=12 batches=1 loops=1 time=T)\n" +
				"  scan CourseYears AS b ~12 of 12 rows (actual rows=12 batches=1 time=T)\n" +
				"  index probe CourseYears AS a (CourseID = 3) ~1 of 12 rows (actual rows=1 batches=1 loops=1 time=T)\n" +
				batchLine + "analyzed: 12 rows out, total T\n",
		},
		{
			name: "LIMIT ends a streaming pipeline: the footer says so, and the join emitted one batch of the 5 rows wanted, not a ramp-up batch of its 200",
			sql:  `SELECT y.CourseID, en.SuID FROM CourseYears y JOIN Enrollments en ON y.CourseID = en.CourseID LIMIT 5`,
			want: "hash join on (y.CourseID = en.CourseID), build=left (INNER) (actual rows=5 batches=1 time=T)\n" +
				"  scan Enrollments AS en ~200 of 200 rows (actual rows=200 batches=3 loops=1 time=T)\n" +
				"  scan CourseYears AS y ~12 of 12 rows (actual rows=12 batches=1 loops=1 time=T)\n" +
				batchLine + "analyzed: 5 rows out, total T (stopped at limit)\n",
		},
		{
			name: "LIMIT behind a real sort slices the finished result",
			sql:  `SELECT SuID, CourseID, Rating FROM Comments WHERE SuID <> 1 ORDER BY CourseID LIMIT 5`,
			want: "scan Comments filter (SuID <> 1) ~30 of 30 rows (actual rows=25 batches=1 loops=1 time=T)\n" +
				batchLine + "analyzed: 5 rows out, total T\n",
		},
		{
			// Every conjunct that reads a column lands in a scan or a join;
			// only a column-free one is left for the post-join filter.
			name: "post-join WHERE gets its own actuals",
			sql: `SELECT * FROM Courses c JOIN Comments m ON c.CourseID = m.CourseID ` +
				`WHERE ? > 3`,
			args: []any{4},
			want: "hash join on (c.CourseID = m.CourseID), build=left (INNER) (actual rows=30 batches=1 time=T)\n" +
				"  scan Comments AS m ~30 of 30 rows (actual rows=30 batches=1 loops=1 time=T)\n" +
				"  scan Courses AS c ~12 of 12 rows (actual rows=12 batches=1 loops=1 time=T)\n" +
				"where (4 > 3) (actual rows=30 batches=1 time=T)\n" +
				batchLine + "analyzed: 30 rows out, total T\n",
		},
	}
	for _, tc := range cases {
		st, err := e.Prepare(tc.sql)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		raw, err := st.ExplainAnalyze(tc.args...)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !strings.Contains(raw, "time=") {
			t.Errorf("%s: no timings in output:\n%s", tc.name, raw)
		}
		if got := normalizeAnalyze(raw); got != tc.want {
			t.Errorf("%s:\n got:\n%s want:\n%s", tc.name, got, tc.want)
		}
	}
}

// TestExplainAnalyzeMatchesQuery proves the instrumented execution
// returns the same rows as the plain one, and that running ANALYZE
// leaves the engine unobserved (the shadow handle never escapes).
func TestExplainAnalyzeMatchesQuery(t *testing.T) {
	e := plannerDB(t)
	sql := `SELECT c.Title, m.Rating FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID WHERE m.SuID = 2 AND m.Rating >= 1`
	st, err := e.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := st.QueryAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(plain.Rows) {
		t.Fatalf("analyzed run returned %d rows, plain %d", len(res.Rows), len(plain.Rows))
	}
	for i := range res.Rows {
		for j := range res.Rows[i] {
			if res.Rows[i][j] != plain.Rows[i][j] {
				t.Fatalf("row %d differs: %v vs %v", i, res.Rows[i], plain.Rows[i])
			}
		}
	}
}

func TestExplainAnalyzeRejectsNonSelect(t *testing.T) {
	e := plannerDB(t)
	if _, err := e.ExplainAnalyze(`DELETE FROM Comments`); err == nil {
		t.Fatal("ExplainAnalyze of a non-SELECT should fail")
	}
}

// TestObserveRecordsStatements covers the statement-level recording
// layer end to end: histograms keyed by statement text, slow-log
// admission, deferred ANALYZE plan capture on the next execution, and
// uninstalling.
func TestObserveRecordsStatements(t *testing.T) {
	e := plannerDB(t)
	// Deeper than the test's total execution count, so the log never
	// fills and admission never depends on relative latencies.
	c := obs.NewCollector(32)
	e.Observe(c)
	defer e.Observe(nil)

	st, err := e.Prepare(`SELECT Title FROM Courses WHERE CourseID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := st.Query(int64(1 + i%12)); err != nil {
			t.Fatal(err)
		}
	}
	top := c.Top(0, "total")
	if len(top) == 0 || top[0].Count != 10 || top[0].SQL != st.Text() {
		t.Fatalf("collector did not record the statement: %+v", top)
	}
	if top[0].Route != "query" || top[0].Rows != 10 {
		t.Fatalf("route/rows wrong: %+v", top[0])
	}
	if top[0].P99Ns <= 0 || top[0].MaxNs <= 0 {
		t.Fatalf("no latency recorded: %+v", top[0])
	}

	// The queries were slow relative to an empty log (floor 0), so
	// entries exist plan-less, capture is armed, and the NEXT execution
	// back-fills the annotated plan.
	if len(c.Slow().Entries()) == 0 {
		t.Fatal("slow log empty after above-floor executions")
	}
	if _, err := st.Query(int64(3)); err != nil {
		t.Fatal(err)
	}
	var withPlan bool
	for _, en := range c.Slow().Entries() {
		if en.Plan != "" {
			if !strings.Contains(en.Plan, "pk lookup Courses") || !strings.Contains(en.Plan, "actual rows=") {
				t.Fatalf("captured plan is not an ANALYZE tree:\n%s", en.Plan)
			}
			withPlan = true
		}
	}
	if !withPlan {
		t.Fatal("no slow-log entry got its ANALYZE plan back-filled")
	}

	// Uninstall: recording stops, statements still work.
	e.Observe(nil)
	before := c.Top(0, "total")
	if _, err := st.Query(int64(2)); err != nil {
		t.Fatal(err)
	}
	after := c.Top(0, "total")
	var nb, na uint64
	for _, s := range before {
		nb += s.Count
	}
	for _, s := range after {
		na += s.Count
	}
	if na != nb {
		t.Fatal("collector still recording after Observe(nil)")
	}
}

// TestObserveSlowLogParams pins parameter stringification and
// redaction through the statement layer.
func TestObserveSlowLogParams(t *testing.T) {
	e := plannerDB(t)
	c := obs.NewCollector(4)
	e.Observe(c)
	st, _ := e.Prepare(`SELECT Title FROM Courses WHERE CourseID = ?`)
	if _, err := st.Query(int64(7)); err != nil {
		t.Fatal(err)
	}
	es := c.Slow().Entries()
	if len(es) != 1 || len(es[0].Params) != 1 || es[0].Params[0] != "7" {
		t.Fatalf("params not captured: %+v", es)
	}
	c.Slow().SetRedact(true)
	// A slower-looking second entry (floor is the first entry's latency
	// only once the log is full, so this is admitted) must be param-free.
	time.Sleep(time.Millisecond)
	if _, err := st.Query(int64(9)); err != nil {
		t.Fatal(err)
	}
	for _, en := range c.Slow().Entries() {
		if len(en.Params) > 0 && en.Params[0] == "9" {
			t.Fatalf("redacted entry kept params: %+v", en)
		}
	}
}
