package sqlmini

import (
	"fmt"
	"reflect"
	"regexp"
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
		{Name: "reference join", SQL: `SELECT s.CourseID, Title FROM Subjects s JOIN Years y ON s.CourseID = y.CourseID WHERE y.Year = 2008`},
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
		{Name: "real sort", SQL: `SELECT s.CourseID, Title, Rating FROM Notes m JOIN Subjects s ON m.Course = s.CourseID
			WHERE m.Owner = ? ORDER BY Rating DESC`, Args: []any{int64(3)}, Blocking: true},
		{Name: "aggregate", SQL: `SELECT s.Dep, COUNT(*) AS N, AVG(m.Rating) AS Mean FROM Notes m JOIN Subjects s ON m.Course = s.CourseID
			GROUP BY s.Dep ORDER BY s.Dep`, Blocking: true},
		{Name: "group by", SQL: `SELECT Dep FROM Subjects GROUP BY Dep ORDER BY Dep`, Blocking: true},
	}
}

// limitsFor lists the LIMITs to check for a statement with n rows:
// batch boundaries and both ends of the result.
func limitsFor(n int) []int64 {
	return []int64{0, 1, 3, 255, 256, 257, int64(n), int64(n) + 1}
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
		for ki, k := range limitsFor(len(all.Rows)) {
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
			for _, v := range []struct {
				entry, sql string
				args       []any
			}{{"literal", literal, sh.Args}, {"bound", bound, boundArgs}} {
				st, err := e.Prepare(v.sql)
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

			// The forced handle against its own unwindowed result (without
			// a pinned order the two engines may differ in row order). Its
			// joins are nested loops over every pair of rows, so a join
			// shape checks one LIMIT, 256, not eight.
			if forcedAll != nil && (!strings.Contains(sh.SQL, " JOIN ") || ki == 4) {
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

var actualRowsRe = regexp.MustCompile(`actual rows=(\d+)`)

// TestWindowStopsOnlyStreamingStatements reads EXPLAIN ANALYZE: under
// LIMIT 5 a streaming statement's driver hands over one storage batch
// and the footer says the window ended the pipeline; a blocking
// statement's operators read every row they read without the LIMIT.
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
		// The driver is the last operator line: at most one default
		// storage batch left it.
		m := actualRowsRe.FindAllStringSubmatch(limited, -1)
		if n, _ := strconv.Atoi(m[len(m)-1][1]); n > defaultBatch {
			t.Errorf("%s: driver emitted %d rows for LIMIT 5:\n%s", sh.Name, n, limited)
		}
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
