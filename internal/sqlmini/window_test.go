package sqlmini

import (
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"courserank/internal/relation"
)

// The window property: for every SELECT shape, `… LIMIT k` is the first
// k rows of the same statement without a LIMIT — whichever entry point
// runs it, whether the LIMIT ends the pipeline early (streaming
// statements) or cuts a finished result (aggregate, GROUP BY, real
// sort), and whether or not it gave the planner a row goal that changed
// a join algorithm. The shapes mirror the corpus
// of the root package's planparity_test.go plus joins under tied sort
// keys, where "the same prefix" has to include the tie order.

// windowShape is one statement of the window corpus.
type windowShape struct {
	Name string
	SQL  string
	Args []any
	// Blocking statements need every row before the first: no early stop.
	Blocking bool
	// Sparse statements keep few of their driver's rows, so the driver's
	// fetches must grow past the first before a small LIMIT fills.
	Sparse bool
}

// windowCorpus builds the corpus's tables on e and returns its shapes.
// Notes (1 000 rows, ratings in long tie groups) is the fact table;
// Subjects (1 100 rows) is big enough that a one-batch row goal probes
// it instead of hashing it.
func windowCorpus(t testing.TB, e *Engine) []windowShape {
	t.Helper()
	db := e.DB()
	subjects := db.MustCreate(relation.MustTable("Subjects", relation.NewSchema(
		relation.NotNullCol("CourseID", relation.TypeInt),
		relation.NotNullCol("Dep", relation.TypeString),
		relation.NotNullCol("Title", relation.TypeString),
	), relation.WithPrimaryKey("CourseID"), relation.WithIndex("Title")))
	years := db.MustCreate(relation.MustTable("Years", relation.NewSchema(
		relation.NotNullCol("CourseID", relation.TypeInt),
		relation.NotNullCol("Year", relation.TypeInt),
	), relation.WithOrderedIndex("Year"), relation.WithIndex("CourseID")))
	teachers := db.MustCreate(relation.MustTable("Teachers", relation.NewSchema(
		relation.NotNullCol("TeacherID", relation.TypeInt),
		relation.Col("Name", relation.TypeString),
	), relation.WithPrimaryKey("TeacherID")))
	notes := db.MustCreate(relation.MustTable("Notes", relation.NewSchema(
		relation.NotNullCol("ID", relation.TypeInt),
		relation.NotNullCol("Owner", relation.TypeInt),
		relation.NotNullCol("Course", relation.TypeInt),
		relation.NotNullCol("Rating", relation.TypeFloat),
		relation.Col("Teacher", relation.TypeInt),
	), relation.WithPrimaryKey("ID"), relation.WithIndex("Owner"), relation.WithOrderedIndex("Rating")))
	for i := 0; i < 1100; i++ {
		subjects.MustInsert(relation.Row{i, fmt.Sprintf("D%02d", i%12), fmt.Sprintf("Title %d", i%400)})
		years.MustInsert(relation.Row{i, 2000 + (i*7)%11})
	}
	for i := 0; i < 40; i++ {
		teachers.MustInsert(relation.Row{i, fmt.Sprintf("T%d", i)})
	}
	for i := 0; i < 1000; i++ {
		var teacher any
		if i%5 != 0 {
			teacher = int64((i * 3) % 50) // some point at no teacher at all
		}
		// Ratings 1…5 in halves: nine tie groups of a hundred-odd rows,
		// interleaved across slots; courses repeat, so the join fans in.
		notes.MustInsert(relation.Row{i, (i * 13) % 60, (i * 31) % 1100, 1 + float64((i*7)%9)/2, teacher})
	}
	return []windowShape{
		{Name: "index probe", SQL: `SELECT * FROM Subjects WHERE Title = ?`, Args: []any{"Title 7"}},
		{Name: "pk probe", SQL: `SELECT Title, Dep FROM Subjects WHERE CourseID = ?`, Args: []any{int64(7)}},
		{Name: "fact probe", SQL: `SELECT Owner, Course, Rating FROM Notes WHERE Owner = ?`, Args: []any{int64(3)}},
		{Name: "fact scan", SQL: `SELECT Owner, Course, Rating FROM Notes WHERE Owner <> ?`, Args: []any{int64(3)}},
		{Name: "computed projection", SQL: `SELECT ID, Rating + 2 AS Plus FROM Notes WHERE Rating >= ?`, Args: []any{2.0}},
		{Name: "reference join", SQL: `SELECT s.CourseID, Title FROM Subjects s JOIN Years y ON s.CourseID = y.CourseID WHERE y.Year = 2008`, Sparse: true},
		{Name: "join, total order", SQL: `SELECT m.ID, m.Course, t.Name FROM Notes m JOIN Teachers t ON m.Teacher = t.TeacherID
			WHERE m.Rating >= 2 ORDER BY m.ID`, Blocking: true},
		{Name: "three tables", SQL: `SELECT m.ID, s.Title, y.Year FROM Notes m JOIN Subjects s ON m.Course = s.CourseID
			JOIN Years y ON y.CourseID = s.CourseID WHERE m.Owner = ?`, Args: []any{int64(5)}},
		{Name: "band join", SQL: `SELECT b.CourseID, b.Year FROM Years a JOIN Years b ON b.Year BETWEEN a.Year - 1 AND a.Year + 1
			WHERE a.CourseID = ? AND b.CourseID <> ?`, Args: []any{int64(9), int64(9)}},
		{Name: "tied desc over a join", SQL: `SELECT s.CourseID, Title, Rating FROM Notes m JOIN Subjects s ON m.Course = s.CourseID
			WHERE m.Rating >= ? ORDER BY Rating DESC`, Args: []any{2.5}},
		{Name: "tied asc over a join", SQL: `SELECT s.CourseID, Title, Rating FROM Notes m JOIN Subjects s ON m.Course = s.CourseID
			WHERE m.Rating <= ? ORDER BY Rating`, Args: []any{4.0}},
		{Name: "tied desc, one table", SQL: `SELECT ID, Rating FROM Notes ORDER BY Rating DESC`},
		// top-rated with a department: one driver row in twelve survives
		// the join.
		{Name: "tied desc over a sparse join", SQL: `SELECT m.ID, Title, Rating FROM Notes m JOIN Subjects s ON m.Course = s.CourseID
			WHERE m.Rating >= ? AND s.Dep = ? ORDER BY Rating DESC`, Args: []any{1.5, "D03"}, Sparse: true},
		{Name: "real sort", SQL: `SELECT s.CourseID, Title, Rating FROM Notes m JOIN Subjects s ON m.Course = s.CourseID
			WHERE m.Owner = ? ORDER BY Rating DESC`, Args: []any{int64(3)}, Blocking: true},
		{Name: "aggregate", SQL: `SELECT s.Dep, COUNT(*) AS N, AVG(m.Rating) AS Mean FROM Notes m JOIN Subjects s ON m.Course = s.CourseID
			GROUP BY s.Dep ORDER BY s.Dep`, Blocking: true},
		{Name: "group by", SQL: `SELECT Dep FROM Subjects GROUP BY Dep ORDER BY Dep`, Blocking: true},
	}
}

// limitsFor lists the LIMITs to check for a statement with n rows:
// both sides of the first arena slab (arenaSlabMin), the first fetch
// (scanBatchMin) and the batch (defaultBatch), and both ends of the
// result.
func limitsFor(n int) []int64 {
	return []int64{0, 1, 2, 3, 8, 9, 10, 31, 32, 33, 255, 256, 257, int64(n), int64(n) + 1}
}

// firstRows is the first k rows of rows, clipped.
func firstRows(rows []relation.Row, k int64) []relation.Row {
	return rows[:min(k, int64(len(rows)))]
}

func sameRows(a, b []relation.Row) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// drainRows reads a Rows iterator to the end.
func drainRows(t testing.TB, rows *Rows) []relation.Row {
	t.Helper()
	defer rows.Close()
	var out []relation.Row
	for rows.Next() {
		dest := make([]any, len(rows.Columns()))
		ptrs := make([]any, len(dest))
		for i := range dest {
			ptrs[i] = &dest[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatal(err)
		}
		out = append(out, relation.Row(dest))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWindowIsSliceOfUnwindowed(t *testing.T) {
	e := New(relation.NewDB())
	shapes := windowCorpus(t, e)
	forced := e.ForceScan()
	// Handles whose batch is below the execution row goal: it must cap
	// the first fetch, emit and slab without changing a row.
	handles := []struct {
		name string
		e    *Engine
	}{{"", e}, {"batch 1 ", e.WithBatchSize(1)}, {"batch 7 ", e.WithBatchSize(7)}}
	for _, sh := range shapes {
		base, err := e.Prepare(sh.SQL)
		if err != nil {
			t.Fatalf("%s: %v", sh.Name, err)
		}
		all, err := base.Query(sh.Args...)
		if err != nil {
			t.Fatalf("%s: %v", sh.Name, err)
		}
		if len(all.Rows) == 0 {
			t.Fatalf("%s: corpus statement returns nothing", sh.Name)
		}
		// Forced, a three-table join is 10⁹ row pairs; fuzz_test.go covers
		// that side on tables small enough for it.
		var forcedAll *Result
		if sh.Name != "three tables" {
			if forcedAll, err = forced.Query(sh.SQL, sh.Args...); err != nil {
				t.Fatalf("%s: forced: %v", sh.Name, err)
			}
		}
		if n, err := base.Limit(sh.Args...); err != nil || n != -1 {
			t.Fatalf("%s: Limit() = %d, %v; want -1 for a statement without one", sh.Name, n, err)
		}
		for _, k := range limitsFor(len(all.Rows)) {
			want := firstRows(all.Rows, k)
			check := func(entry string, got []relation.Row) {
				t.Helper()
				if !sameRows(got, want) {
					t.Fatalf("%s: %s LIMIT %d returned %d rows, not the first %d of the unlimited %d\n got %v\nwant %v",
						sh.Name, entry, k, len(got), k, len(all.Rows), clip(got), clip(want))
				}
			}
			// The LIMIT as a literal (the planner sees the number) and as a
			// parameter (it plans for one batch).
			literal := fmt.Sprintf("%s LIMIT %d", sh.SQL, k)
			bound := sh.SQL + " LIMIT ?"
			boundArgs := append(append([]any{}, sh.Args...), k)
			for _, h := range handles {
				for _, v := range []struct {
					entry, sql string
					args       []any
				}{{h.name + "literal", literal, sh.Args}, {h.name + "bound", bound, boundArgs}} {
					st, err := h.e.Prepare(v.sql)
					if err != nil {
						t.Fatalf("%s: %s: %v", sh.Name, v.entry, err)
					}
					res, err := st.Query(v.args...)
					if err != nil {
						t.Fatalf("%s: %s: %v", sh.Name, v.entry, err)
					}
					check(v.entry+" Query", res.Rows)
					rows, err := st.QueryRows(v.args...)
					if err != nil {
						t.Fatalf("%s: %s: %v", sh.Name, v.entry, err)
					}
					check(v.entry+" QueryRows", drainRows(t, rows))
					if n, err := st.Limit(v.args...); err != nil || n != k {
						t.Fatalf("%s: %s Limit() = %d, %v; want %d", sh.Name, v.entry, n, err, k)
					}
				}
			}

			// The forced handle against its own unwindowed result (without
			// a pinned order the two engines may differ in row order). Its
			// joins are nested loops over every pair of rows, so a join
			// shape checks one LIMIT, 256, not fifteen.
			if forcedAll != nil && (!strings.Contains(sh.SQL, " JOIN ") || k == defaultBatch) {
				got, err := forced.Query(literal, sh.Args...)
				if err != nil {
					t.Fatalf("%s: forced: %v", sh.Name, err)
				}
				if fw := firstRows(forcedAll.Rows, k); !sameRows(got.Rows, fw) {
					t.Fatalf("%s: forced LIMIT %d returned %d rows, want %d", sh.Name, k, len(got.Rows), len(fw))
				}
			}
		}
	}
}

func clip(rows []relation.Row) []relation.Row {
	if len(rows) > 12 {
		return rows[:12]
	}
	return rows
}

var (
	actualRowsRe = regexp.MustCompile(`actual rows=(\d+)`)
	operatorRe   = regexp.MustCompile(`(?m)^.*actual rows=(\d+) batches=(\d+).*$`)
)

// driverFetches reads the driver's line, the last operator line: the
// rows and batches it reports, and whether it is a storage scan (a
// probe driver materializes its key-bounded rows at once).
func driverFetches(t *testing.T, report string) (rows, batches int, scan bool) {
	t.Helper()
	m := operatorRe.FindAllStringSubmatch(report, -1)
	if m == nil {
		t.Fatalf("no operator line in:\n%s", report)
	}
	last := m[len(m)-1]
	rows, _ = strconv.Atoi(last[1])
	batches, _ = strconv.Atoi(last[2])
	scan = !strings.Contains(last[0], "probe ") && !strings.Contains(last[0], "pk lookup ")
	return rows, batches, scan
}

// TestWindowStopsOnlyStreamingStatements reads EXPLAIN ANALYZE: under
// LIMIT 5 a streaming statement's driver fetches the 5 rows wanted,
// growing ×4 only when a filter or join dropped some, and the footer
// says the window ended the pipeline; a blocking statement's operators
// read every row they read without the LIMIT. A handle whose batch is
// below the goal caps the driver's fetches at its batch.
func TestWindowStopsOnlyStreamingStatements(t *testing.T) {
	e := New(relation.NewDB())
	for _, sh := range windowCorpus(t, e) {
		full, err := e.ExplainAnalyze(sh.SQL, sh.Args...)
		if err != nil {
			t.Fatalf("%s: %v", sh.Name, err)
		}
		limited, err := e.ExplainAnalyze(sh.SQL+" LIMIT 5", sh.Args...)
		if err != nil {
			t.Fatalf("%s: %v", sh.Name, err)
		}
		stopped := strings.Contains(limited, "(stopped at limit)")
		if strings.Contains(full, "(stopped at limit)") {
			t.Errorf("%s: a statement without a window reports stopping at one:\n%s", sh.Name, full)
		}
		if sh.Blocking {
			// Same plan, same row counts on every operator line.
			fullRows := actualRowsRe.FindAllString(full, -1)
			if limRows := actualRowsRe.FindAllString(limited, -1); stopped || !reflect.DeepEqual(limRows, fullRows) {
				t.Errorf("%s: LIMIT changed how a blocking statement executes:\nwithout:\n%s\nwith:\n%s", sh.Name, full, limited)
			}
			continue
		}
		if strings.Contains(sh.Name, "probe") {
			continue // key-bounded plans materialize their few rows directly
		}
		if !stopped {
			t.Errorf("%s: LIMIT 5 did not end the pipeline:\n%s", sh.Name, limited)
		}
		// Whatever drives it, a streaming statement's driver hands over
		// at most one default batch under LIMIT 5.
		rows, batches, scan := driverFetches(t, limited)
		if rows > defaultBatch {
			t.Errorf("%s: driver emitted %d rows for LIMIT 5, more than one batch:\n%s", sh.Name, rows, limited)
		}
		if !scan {
			continue
		}
		// A driving scan's first fetch holds the 5 rows wanted and each
		// later one four times the last: 5, 20, 80, … A statement that
		// keeps most driver rows stops within the first fetch plus one
		// grown fetch, 25 rows; a sparse one finds its fifth row in the
		// third fetch, 105 rows.
		ramp, fetch := 0, 5
		for i := 0; i < batches; i++ {
			ramp, fetch = ramp+fetch, 4*fetch
		}
		limit := 5 + 20
		if sh.Sparse {
			limit = 5 + 20 + 80
		}
		if rows > ramp || rows > limit {
			t.Errorf("%s: driver emitted %d rows in %d batches for LIMIT 5, want at most %d on the 5, 20, 80, … ramp:\n%s",
				sh.Name, rows, batches, limit, limited)
		}
		for _, n := range []int{1, 7} {
			report, err := e.WithBatchSize(n).ExplainAnalyze(sh.SQL+" LIMIT ?", append(append([]any{}, sh.Args...), int64(10))...)
			if err != nil {
				t.Fatalf("%s: batch %d: %v", sh.Name, n, err)
			}
			if rows, batches, _ := driverFetches(t, report); rows > n*batches {
				t.Errorf("%s: batch %d: driver emitted %d rows in %d batches for LIMIT 10, more than the batch allows:\n%s",
					sh.Name, n, rows, batches, report)
			}
		}
	}
}

// TestLargeGoalKeepsDefaultSlabs: an execution row goal of scanBatchMin
// or more sizes nothing. A selective streaming join whose plan the
// LIMIT does not change allocates under LIMIT 50 what it allocates
// without a LIMIT — its projection arena starts at arenaSlabMin rows,
// not at the goal, and its INLJ carves exactly its matches either way —
// give or take the limit stage.
func TestLargeGoalKeepsDefaultSlabs(t *testing.T) {
	e := New(relation.NewDB())
	windowCorpus(t, e)
	const sql = `SELECT m.ID, Title, Rating FROM Notes m JOIN Subjects s ON m.Course = s.CourseID
		WHERE m.Owner = ? AND m.Rating >= ?`
	plain, err := e.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := e.Prepare(sql + " LIMIT ?")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Stmt{plain, limited} {
		if ex, err := st.Explain(); err != nil || !strings.Contains(ex, "index nested loop") {
			t.Fatalf("want an index nested loop with and without the LIMIT (%v):\n%s", err, ex)
		}
	}
	all, err := plain.Query(int64(3), 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(all.Rows); n == 0 || n > arenaSlabMin {
		t.Fatalf("the statement returns %d rows, want 1 to %d", n, arenaSlabMin)
	}
	perRun := func(st *Stmt, args ...any) float64 {
		t.Helper()
		run := func() {
			res, err := st.Query(args...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Rows, all.Rows) {
				t.Fatalf("got %v, want %v", res.Rows, all.Rows)
			}
		}
		run() // warm the plan cache
		const n = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	without := perRun(plain, int64(3), 4.0)
	with := perRun(limited, int64(3), 4.0, int64(50))
	t.Logf("%d rows: without a LIMIT %.0f B/run, LIMIT 50 %.0f B/run", len(all.Rows), without, with)
	if with > without+256 {
		t.Errorf("LIMIT 50 allocates %.0f B/run against %.0f B/run without a LIMIT: a goal of scanBatchMin or more enlarged a slab",
			with, without)
	}
}

// TestRowGoalPlans pins the planner's row goal on the top-rated shape:
// with a LIMIT the join probes Subjects' primary key per driver batch,
// without one it hashes the table — and nothing else about the plan
// moves. A real sort between scan and LIMIT gets no goal.
func TestRowGoalPlans(t *testing.T) {
	e := New(relation.NewDB())
	windowCorpus(t, e)
	const topRated = `SELECT s.CourseID, Title, Rating FROM Notes m JOIN Subjects s ON m.Course = s.CourseID WHERE m.Rating >= ? ORDER BY Rating DESC`
	const tail = "  range scan desc Notes AS m (Rating >= ?) ~333 of 1000 rows\n" +
		"order by Rating DESC elided (range scan emits sort order)\n" +
		"vectorized batch=256\n"
	for _, c := range []struct{ sql, want string }{
		{topRated, "hash join on (m.Course = s.CourseID), build=left (INNER)\n" +
			"  scan Subjects AS s ~1100 of 1100 rows\n" + tail},
		{topRated + " LIMIT ?", "index nested loop on (m.Course = s.CourseID), probe=pk(CourseID) (INNER)\n" +
			"  scan Subjects AS s ~1100 of 1100 rows\n" + tail},
		{topRated + " LIMIT 30", "index nested loop on (m.Course = s.CourseID), probe=pk(CourseID) (INNER)\n" +
			"  scan Subjects AS s ~1100 of 1100 rows\n" + tail},
		// 300 rows wanted: 4 × 300 probes are no cheaper than one hash build.
		{topRated + " LIMIT 300", "hash join on (m.Course = s.CourseID), build=left (INNER)\n" +
			"  scan Subjects AS s ~1100 of 1100 rows\n" + tail},
	} {
		st, err := e.Prepare(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s\n got:\n%s\nwant:\n%s", c.sql, got, c.want)
		}
	}

	// Sorted on a column the driver does not emit in order: every row is
	// read before the first is returned, so the LIMIT buys the join
	// nothing and the plan is the unlimited one.
	const sorted = `SELECT s.CourseID, Title, Rating FROM Notes m JOIN Subjects s ON m.Course = s.CourseID WHERE m.Rating >= ? ORDER BY Title`
	plain, err := e.Explain(sorted, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := e.Explain(sorted+" LIMIT 10", 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if plain != limited || !strings.Contains(plain, "hash join") {
		t.Errorf("a LIMIT behind a real sort changed the plan:\nwithout:\n%s\nwith:\n%s", plain, limited)
	}
}
