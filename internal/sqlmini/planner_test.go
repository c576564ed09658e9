package sqlmini

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"courserank/internal/relation"
)

// batchLine ends every Explain rendering: plans record the engine's
// executor slab size. The golden tests append it at the comparison so
// the want strings stay focused on access paths and join algorithms.
const batchLine = "vectorized batch=256\n"

// plannerDB builds a miniature CourseRank-shaped schema: an indexed
// catalog, an offering-year table and a comments table, the shapes the
// Figure 4/5 queries run against.
func plannerDB(t *testing.T) *Engine {
	t.Helper()
	db := relation.NewDB()
	courses := relation.MustTable("Courses", relation.NewSchema(
		relation.NotNullCol("CourseID", relation.TypeInt),
		relation.NotNullCol("Title", relation.TypeString),
		relation.NotNullCol("DepID", relation.TypeString),
	), relation.WithPrimaryKey("CourseID"), relation.WithIndex("DepID"), relation.WithIndex("Title"))
	db.MustCreate(courses)
	years := relation.MustTable("CourseYears", relation.NewSchema(
		relation.NotNullCol("CourseID", relation.TypeInt),
		relation.NotNullCol("Year", relation.TypeInt),
	), relation.WithPrimaryKey("CourseID", "Year"), relation.WithIndex("Year"), relation.WithIndex("CourseID"),
		relation.WithOrderedIndex("Year"), relation.WithOrderedIndex("CourseID"))
	db.MustCreate(years)
	comments := relation.MustTable("Comments", relation.NewSchema(
		relation.NotNullCol("CommentID", relation.TypeInt),
		relation.NotNullCol("SuID", relation.TypeInt),
		relation.NotNullCol("CourseID", relation.TypeInt),
		relation.Col("Rating", relation.TypeFloat),
	), relation.WithPrimaryKey("CommentID"), relation.WithIndex("SuID"), relation.WithIndex("CourseID"))
	db.MustCreate(comments)

	deps := []string{"cs", "ee", "me", "cs"}
	for i := 1; i <= 12; i++ {
		courses.MustInsert(relation.Row{int64(i), fmt.Sprintf("Course %d intro", i), deps[i%4]})
		years.MustInsert(relation.Row{int64(i), int64(2008 + i%2)})
	}
	cid := int64(1)
	for i := 1; i <= 30; i++ {
		var rating relation.Value
		if i%5 != 0 {
			rating = float64(1 + i%5)
		}
		comments.MustInsert(relation.Row{int64(i), int64(i % 7), cid, rating})
		cid = cid%12 + 1
	}
	// Enrollments is big enough (200 rows ≥ inljMinRight) that joining a
	// small probe side against it picks an index nested-loop join.
	enroll := relation.MustTable("Enrollments", relation.NewSchema(
		relation.NotNullCol("SuID", relation.TypeInt),
		relation.NotNullCol("CourseID", relation.TypeInt),
		relation.NotNullCol("Units", relation.TypeInt),
	), relation.WithIndex("SuID"), relation.WithOrderedIndex("CourseID"))
	db.MustCreate(enroll)
	for i := 0; i < 200; i++ {
		enroll.MustInsert(relation.Row{int64(i % 25), int64(1 + i%12), int64(3 + i%3)})
	}
	return New(db)
}

// TestExplainGolden pins the access paths the planner must choose for
// the representative Figure 4/5 query shapes.
func TestExplainGolden(t *testing.T) {
	e := plannerDB(t)
	cases := []struct {
		name string
		sql  string
		args []any
		want string
	}{
		{
			name: "figure5a reference: indexed equality probe",
			sql:  `SELECT * FROM Courses WHERE Title = ?`,
			args: []any{"Course 3 intro"},
			want: "index probe Courses (Title = 'Course 3 intro') ~1 of 12 rows\n",
		},
		{
			name: "point lookup by primary key",
			sql:  `SELECT Title FROM Courses WHERE CourseID = 7`,
			want: "pk lookup Courses (CourseID = 7) ~1 of 12 rows\n",
		},
		{
			name: "the primary key beats an indexed equality; the other stays a filter",
			sql:  `SELECT Title FROM Courses WHERE Title = 'Course 4 intro' AND CourseID = 4`,
			want: "pk lookup Courses (CourseID = 4) filter (Title = 'Course 4 intro') ~1 of 12 rows\n",
		},
		{
			name: "figure5a year scope: pushdown through the join",
			sql: `SELECT Title FROM Courses JOIN CourseYears ON Courses.CourseID = CourseYears.CourseID ` +
				`WHERE CourseYears.Year = ?`,
			args: []any{2008},
			want: "hash join on (Courses.CourseID = CourseYears.CourseID), build=right (INNER)\n" +
				"  index probe CourseYears (Year = 2008) ~6 of 12 rows\n" +
				"  scan Courses ~12 of 12 rows\n",
		},
		{
			name: "figure5b ratings: scan keeps the non-equi filter",
			sql:  `SELECT SuID, CourseID, Rating FROM Comments WHERE SuID <> ?`,
			args: []any{1},
			want: "scan Comments filter (SuID <> 1) ~30 of 30 rows\n",
		},
		{
			name: "an indexed equality becomes a probe; small side builds",
			sql: `SELECT c.Title, m.Rating FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID ` +
				`WHERE m.SuID = 1`,
			want: "hash join on (m.CourseID = c.CourseID), build=left (INNER)\n" +
				"  scan Courses AS c ~12 of 12 rows\n" +
				"  index probe Comments AS m (SuID = 1) ~4 of 30 rows\n",
		},
		{
			name: "an ON conjunct on one table pushes into its scan",
			sql:  `SELECT * FROM Courses c JOIN Comments m ON c.CourseID = m.CourseID AND m.Rating > 3`,
			want: "hash join on (c.CourseID = m.CourseID), build=left (INNER)\n" +
				"  scan Comments AS m filter (m.Rating > 3) ~30 of 30 rows\n" +
				"  scan Courses AS c ~12 of 12 rows\n",
		},
		{
			name: "a WHERE conjunct on the right table pushes into its scan too",
			sql: `SELECT * FROM Courses c JOIN Comments m ON c.CourseID = m.CourseID ` +
				`WHERE m.Rating > 3`,
			want: "hash join on (c.CourseID = m.CourseID), build=left (INNER)\n" +
				"  scan Comments AS m filter (m.Rating > 3) ~30 of 30 rows\n" +
				"  scan Courses AS c ~12 of 12 rows\n",
		},
	}
	for _, tc := range cases {
		got, err := e.Explain(tc.sql, tc.args...)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want+batchLine {
			t.Errorf("%s:\n got:\n%s want:\n%s", tc.name, got, tc.want+batchLine)
		}
	}
}

func TestExplainRejectsNonSelect(t *testing.T) {
	e := plannerDB(t)
	if _, err := e.Explain(`DELETE FROM Comments`); err == nil {
		t.Fatal("Explain of a non-SELECT should fail")
	}
}

// TestPlannerParity runs a spread of query shapes both through the
// planner and through forced full-scan/nested-loop execution and
// requires byte-identical results, rows in the same order.
func TestPlannerParity(t *testing.T) {
	e := plannerDB(t)
	forced := e.ForceScan()

	queries := []struct {
		sql  string
		args []any
	}{
		{`SELECT * FROM Courses WHERE Title = ?`, []any{"Course 3 intro"}},
		{`SELECT * FROM Courses WHERE CourseID = 7`, nil},
		{`SELECT * FROM Courses WHERE DepID = 'cs' AND CourseID > 4`, nil},
		{`SELECT * FROM Comments WHERE SuID = 5`, nil},
		{`SELECT * FROM Courses WHERE CourseID = 99`, nil},
		{`SELECT * FROM Courses WHERE CourseID = 4.0`, nil},
		{`SELECT * FROM Comments WHERE SuID = ? AND Rating >= 0`, []any{3}},
		{`SELECT Title FROM Courses JOIN CourseYears ON Courses.CourseID = CourseYears.CourseID WHERE CourseYears.Year = ?`, []any{2008}},
		{`SELECT c.Title, m.Rating FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID WHERE m.SuID = 2`, nil},
		{`SELECT * FROM Courses c JOIN Comments m ON c.CourseID = m.CourseID AND m.Rating > 3`, nil},
		{`SELECT * FROM Courses c JOIN Comments m ON c.CourseID = m.CourseID WHERE m.Rating > 3`, nil},
		{`SELECT c.DepID, COUNT(*), AVG(m.Rating) FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID GROUP BY c.DepID ORDER BY c.DepID`, nil},
		{`SELECT DepID FROM Courses WHERE CourseID <> 1 GROUP BY DepID ORDER BY DepID DESC`, nil},
		{`SELECT m.CourseID, c.Title FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID AND c.DepID = 'cs' WHERE m.Rating >= 2 ORDER BY m.CourseID LIMIT 5`, nil},
		{`SELECT * FROM Comments WHERE SuID >= 2 AND SuID <= 4 AND -Rating > -4`, nil},
		{`SELECT c.Title FROM Courses c JOIN CourseYears y ON c.CourseID = y.CourseID WHERE y.Year = 2009 AND c.DepID = 'cs'`, nil},
		{`SELECT AVG(Rating), COUNT(Rating), COUNT(*) FROM Comments WHERE CourseID = ?`, []any{5}},
		{`SELECT CourseID, AVG(Rating) FROM Comments WHERE SuID = 3`, nil},
		{`SELECT SuID, AVG(Rating), COUNT(*) FROM Comments WHERE CourseID = 99`, nil},
	}
	for _, q := range queries {
		plan, err := e.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("planned %q: %v", q.sql, err)
			continue
		}
		naive, err := forced.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("forced %q: %v", q.sql, err)
			continue
		}
		if !reflect.DeepEqual(plan.Columns, naive.Columns) {
			t.Errorf("%q: columns %v vs %v", q.sql, plan.Columns, naive.Columns)
		}
		if len(plan.Rows) != len(naive.Rows) {
			t.Errorf("%q: %d rows planned vs %d forced", q.sql, len(plan.Rows), len(naive.Rows))
			continue
		}
		for i := range plan.Rows {
			if !reflect.DeepEqual(plan.Rows[i], naive.Rows[i]) {
				t.Errorf("%q row %d: %v vs %v", q.sql, i, plan.Rows[i], naive.Rows[i])
				break
			}
		}
	}
}

// TestForceScanPlansNaively pins what a ForceScan handle means: no
// index paths, no hash joins, no pushdown.
func TestForceScanPlansNaively(t *testing.T) {
	e := plannerDB(t).ForceScan()
	out, err := e.Explain(`SELECT Title FROM Courses JOIN CourseYears ON Courses.CourseID = CourseYears.CourseID WHERE CourseYears.Year = 2008`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "hash join") || strings.Contains(out, "probe") {
		t.Fatalf("forced plan still optimized:\n%s", out)
	}
	if !strings.Contains(out, "nested loop") {
		t.Fatalf("forced plan should nested-loop:\n%s", out)
	}
}

// TestExplainGoldenRangeINLJReorder pins the access paths and join
// algorithms introduced by the iterator executor: ordered-index range
// scans for inequality/BETWEEN predicates, index nested-loop joins when
// the probe side is far smaller than an indexed build side, INNER
// chains planned in the order they are written, and ORDER BY elision
// when the driving range scan already emits the sort key's order.
func TestExplainGoldenRangeINLJReorder(t *testing.T) {
	e := plannerDB(t)
	cases := []struct {
		name string
		sql  string
		args []any
		want string
	}{
		{
			name: "range scan with a literal lower bound, exact count from the index",
			sql:  `SELECT * FROM CourseYears WHERE Year >= 2009`,
			want: "range scan CourseYears (Year >= 2009) ~6 of 12 rows\n",
		},
		{
			name: "BETWEEN compiles to a two-bound range scan",
			sql:  `SELECT * FROM CourseYears WHERE Year BETWEEN 2008 AND 2009`,
			want: "range scan CourseYears (Year >= 2008 AND Year <= 2009) ~12 of 12 rows\n",
		},
		{
			name: "strict bound stays exclusive",
			sql:  `SELECT * FROM CourseYears WHERE Year > 2008`,
			want: "range scan CourseYears (Year > 2008) ~6 of 12 rows\n",
		},
		{
			name: "tiny probe side against a big indexed table: index nested loop",
			sql:  `SELECT * FROM Comments m JOIN Enrollments en ON m.SuID = en.SuID WHERE m.CommentID = 1`,
			want: "index nested loop on (m.SuID = en.SuID), probe=index(SuID) (INNER)\n" +
				"  scan Enrollments AS en ~200 of 200 rows\n" +
				"  pk lookup Comments AS m (CommentID = 1) ~1 of 30 rows\n",
		},
		{
			name: "INNER chain runs in written order, each probe pushed into its scan",
			sql: `SELECT c.Title FROM Courses c JOIN Comments m ON c.CourseID = m.CourseID ` +
				`JOIN CourseYears y ON c.CourseID = y.CourseID WHERE m.SuID = 1 AND y.Year = 2009`,
			want: "hash join on (c.CourseID = y.CourseID), build=right (INNER)\n" +
				"  index probe CourseYears AS y (Year = 2009) ~6 of 12 rows\n" +
				"  hash join on (c.CourseID = m.CourseID), build=right (INNER)\n" +
				"    index probe Comments AS m (SuID = 1) ~4 of 30 rows\n" +
				"    scan Courses AS c ~12 of 12 rows\n",
		},
		{
			name: "ORDER BY on the range column elides the sort",
			sql:  `SELECT CourseID, Year FROM CourseYears WHERE Year >= 2009 ORDER BY Year`,
			want: "range scan CourseYears (Year >= 2009) ~6 of 12 rows\n" +
				"order by Year elided (range scan emits sort order)\n",
		},
	}
	for _, tc := range cases {
		got, err := e.Explain(tc.sql, tc.args...)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want+batchLine {
			t.Errorf("%s:\n got:\n%s want:\n%s", tc.name, got, tc.want+batchLine)
		}
	}

	// A prepared range plan is chosen with the bound still unknown and
	// costed as a fixed fraction; the key renders as '?'.
	st, err := e.Prepare(`SELECT * FROM CourseYears WHERE Year >= ?`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if want := "range scan CourseYears (Year >= ?) ~4 of 12 rows\n" + batchLine; out != want {
		t.Errorf("prepared range explain:\n got:\n%s want:\n%s", out, want)
	}
}

// TestNoElisionWhenOrderDiffers pins the cases that must keep sorting:
// a different column than the driver's range key, aggregation, an
// output alias shadowing the range column with a different source, a
// key on the join's right side rather than its driver, and an unbounded
// walk over an ordered column that admits NULL (the index skips NULL
// keys, so the walk would drop rows the sort must keep).
func TestNoElisionWhenOrderDiffers(t *testing.T) {
	e := plannerDB(t)
	e.DB().MustCreate(relation.MustTable("NullScores", relation.NewSchema(
		relation.NotNullCol("ID", relation.TypeInt), relation.Col("V", relation.TypeInt),
	), relation.WithPrimaryKey("ID"), relation.WithOrderedIndex("V")))
	for _, sql := range []string{
		`SELECT CourseID, Year FROM CourseYears WHERE Year >= 2009 ORDER BY CourseID`,
		`SELECT Year, COUNT(*) AS n FROM CourseYears WHERE Year >= 2008 GROUP BY Year ORDER BY Year`,
		`SELECT CourseID AS Year FROM CourseYears WHERE Year >= 2009 ORDER BY Year`,
		`SELECT y.CourseID, en.CourseID FROM CourseYears y JOIN Enrollments en ON y.Year = en.Units ORDER BY en.CourseID`,
		`SELECT ID, V FROM NullScores ORDER BY V`,
		`SELECT ID, V FROM NullScores ORDER BY V DESC`,
	} {
		out, err := e.Explain(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if strings.Contains(out, "elided") {
			t.Errorf("%q must not elide its sort:\n%s", sql, out)
		}
	}
}

// TestExplainGoldenSortAware pins the sort-aware access paths and join
// algorithms: a hash join keeping its driver's ordered walk (ORDER BY
// elision surviving the join, ascending or descending), descending
// range walks eliding ORDER BY key DESC, unbounded ordered walks
// adopted purely for their key order, and band joins probing an
// ordered index with per-left-row bounds.
func TestExplainGoldenSortAware(t *testing.T) {
	e := plannerDB(t)
	cases := []struct {
		name string
		sql  string
		args []any
		want string
	}{
		{
			name: "two ordered indexes on the join key: still a hash join, the small driver builds",
			sql:  `SELECT y.CourseID, en.SuID FROM CourseYears y JOIN Enrollments en ON y.CourseID = en.CourseID`,
			want: "hash join on (y.CourseID = en.CourseID), build=left (INNER)\n" +
				"  scan Enrollments AS en ~200 of 200 rows\n" +
				"  scan CourseYears AS y ~12 of 12 rows\n",
		},
		{
			name: "a hash join preserves the driver's key order: ORDER BY elides through the join",
			sql:  `SELECT y.CourseID, en.SuID FROM CourseYears y JOIN Enrollments en ON y.CourseID = en.CourseID ORDER BY y.CourseID`,
			want: "hash join on (y.CourseID = en.CourseID), build=left (INNER)\n" +
				"  scan Enrollments AS en ~200 of 200 rows\n" +
				"  ordered scan CourseYears AS y (CourseID) ~12 of 12 rows\n" +
				"order by y.CourseID elided (range scan emits sort order)\n",
		},
		{
			name: "and descending: the driver walks its index backwards under the join",
			sql:  `SELECT y.CourseID, en.SuID FROM CourseYears y JOIN Enrollments en ON y.CourseID = en.CourseID ORDER BY y.CourseID DESC`,
			want: "hash join on (y.CourseID = en.CourseID), build=left (INNER)\n" +
				"  scan Enrollments AS en ~200 of 200 rows\n" +
				"  ordered scan desc CourseYears AS y (CourseID) ~12 of 12 rows\n" +
				"order by y.CourseID DESC elided (range scan emits sort order)\n",
		},
		{
			name: "ORDER BY key DESC rides a descending range walk",
			sql:  `SELECT CourseID, Year FROM CourseYears WHERE Year >= 2009 ORDER BY Year DESC`,
			want: "range scan desc CourseYears (Year >= 2009) ~6 of 12 rows\n" +
				"order by Year DESC elided (range scan emits sort order)\n",
		},
		{
			name: "no range predicate: a full scan trades for an unbounded descending walk",
			sql:  `SELECT CourseID, Year FROM CourseYears ORDER BY Year DESC`,
			want: "ordered scan desc CourseYears (Year) ~12 of 12 rows\n" +
				"order by Year DESC elided (range scan emits sort order)\n",
		},
		{
			name: "band join: per-left-row range probes of the ordered index",
			sql: `SELECT a.CourseID, b.CourseID FROM CourseYears a ` +
				`JOIN CourseYears b ON b.Year BETWEEN a.Year - 1 AND a.Year + 1 WHERE a.CourseID = 3`,
			want: "index nested loop on b.Year BETWEEN (a.Year - 1) AND (a.Year + 1), probe=range(Year) (INNER)\n" +
				"  scan CourseYears AS b ~12 of 12 rows\n" +
				"  index probe CourseYears AS a (CourseID = 3) ~1 of 12 rows\n",
		},
	}
	for _, tc := range cases {
		got, err := e.Explain(tc.sql, tc.args...)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want+batchLine {
			t.Errorf("%s:\n got:\n%s want:\n%s", tc.name, got, tc.want+batchLine)
		}
	}

	// A prepared descending range plan is chosen with the bound still
	// unknown; the elision decision does not depend on the key's value.
	st, err := e.Prepare(`SELECT CourseID, Year FROM CourseYears WHERE Year <= ? ORDER BY Year DESC`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.Explain()
	if err != nil {
		t.Fatal(err)
	}
	want := "range scan desc CourseYears (Year <= ?) ~4 of 12 rows\n" +
		"order by Year DESC elided (range scan emits sort order)\n" + batchLine
	if out != want {
		t.Errorf("prepared desc explain:\n got:\n%s want:\n%s", out, want)
	}
}

// TestSortAwareParity runs the elision-through-a-join, descending-elision
// and band-join plan shapes against forced full-scan execution. Queries
// whose ORDER BY pins a deterministic order (elided or not — both
// paths break ties in slot order) compare exactly; the rest compare as
// multisets.
func TestSortAwareParity(t *testing.T) {
	e := plannerDB(t)
	forced := e.ForceScan()

	exact := []struct {
		sql  string
		args []any
	}{
		{`SELECT CourseID, Year FROM CourseYears WHERE Year >= 2008 ORDER BY Year DESC`, nil},
		{`SELECT CourseID, Year FROM CourseYears WHERE Year >= ? ORDER BY Year DESC LIMIT ?`, []any{2008, 4}},
		{`SELECT CourseID, Year FROM CourseYears ORDER BY Year DESC LIMIT 5`, nil},
		{`SELECT y.CourseID, en.SuID FROM CourseYears y JOIN Enrollments en ON y.CourseID = en.CourseID ORDER BY y.CourseID`, nil},
		{`SELECT y.CourseID, y.Year, en.SuID, en.Units FROM CourseYears y JOIN Enrollments en ON y.CourseID = en.CourseID ORDER BY y.CourseID, y.Year, en.SuID, en.Units`, nil},
		{`SELECT y.CourseID, en.SuID FROM CourseYears y JOIN Enrollments en ON y.CourseID = en.CourseID ORDER BY y.CourseID DESC`, nil},
		{`SELECT a.CourseID, a.Year, b.CourseID, b.Year FROM CourseYears a JOIN CourseYears b ON b.Year BETWEEN a.Year - 1 AND a.Year + 1 WHERE a.CourseID = 3 ORDER BY b.CourseID, b.Year`, nil},
		{`SELECT m.CommentID, y.CourseID, y.Year FROM Comments m JOIN CourseYears y ON y.Year BETWEEN m.SuID + 2004 AND m.SuID + 2005 ORDER BY m.CommentID, y.CourseID, y.Year`, nil},
		{`SELECT m.CommentID, y.CourseID FROM Comments m JOIN CourseYears y ON y.Year BETWEEN m.SuID + ? AND m.SuID + ? ORDER BY m.CommentID, y.CourseID, y.Year`, []any{2004, 2006}},
	}
	for _, q := range exact {
		plan, err := e.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("planned %q: %v", q.sql, err)
			continue
		}
		naive, err := forced.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("forced %q: %v", q.sql, err)
			continue
		}
		if !reflect.DeepEqual(plan, naive) {
			t.Errorf("%q: planned and forced results differ\nplanned: %v\nforced:  %v", q.sql, plan.Rows, naive.Rows)
		}
	}

	multiset := []struct {
		sql  string
		args []any
	}{
		{`SELECT y.CourseID, en.SuID, en.Units FROM CourseYears y JOIN Enrollments en ON y.CourseID = en.CourseID WHERE en.Units >= 4`, nil},
		{`SELECT a.CourseID, b.CourseID FROM CourseYears a JOIN CourseYears b ON b.Year BETWEEN a.Year AND a.Year + 1`, nil},
		{`SELECT m.CommentID, y.CourseID FROM Comments m JOIN CourseYears y ON y.Year BETWEEN m.SuID + 2004 AND m.SuID + 2006 AND m.Rating >= 0`, nil},
	}
	for _, q := range multiset {
		plan, err := e.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("planned %q: %v", q.sql, err)
			continue
		}
		naive, err := forced.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("forced %q: %v", q.sql, err)
			continue
		}
		if !reflect.DeepEqual(sortedRows(plan), sortedRows(naive)) {
			t.Errorf("%q: planned and forced row multisets differ\nplanned: %v\nforced:  %v", q.sql, plan.Rows, naive.Rows)
		}
	}

	// NULL semantics around an ordered column that admits NULL: the bounded
	// descending walk excludes NULL keys exactly like the filter does,
	// and the refused unbounded elision keeps NULL rows in the sort.
	nullRatings := e.DB().MustCreate(relation.MustTable("NullRatings", relation.NewSchema(
		relation.NotNullCol("ID", relation.TypeInt), relation.Col("R", relation.TypeFloat),
	), relation.WithPrimaryKey("ID"), relation.WithOrderedIndex("R")))
	for i, r := range []any{3.5, nil, 1.0, nil, 4.5, 2.0} {
		nullRatings.MustInsert(relation.Row{i, r})
	}
	for _, sql := range []string{
		`SELECT ID, R FROM NullRatings WHERE R >= 1.5 ORDER BY R DESC`,
		`SELECT ID, R FROM NullRatings ORDER BY R DESC`,
		`SELECT ID, R FROM NullRatings ORDER BY R`,
	} {
		plan, err := e.Query(sql)
		if err != nil {
			t.Fatalf("planned %q: %v", sql, err)
		}
		naive, err := forced.Query(sql)
		if err != nil {
			t.Fatalf("forced %q: %v", sql, err)
		}
		if !reflect.DeepEqual(plan, naive) {
			t.Errorf("%q: planned and forced results differ\nplanned: %v\nforced:  %v", sql, plan.Rows, naive.Rows)
		}
	}
}

// sortedRows renders and sorts a result's rows for order-insensitive
// comparison — range scans emit key order and band joins probe-key
// order, so only the multiset is pinned for those.
func sortedRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestRangeINLJReorderParity runs the new plan shapes against forced
// full-scan execution. Queries whose output order the engine guarantees
// (ORDER BY, with or without elision) compare exactly; the rest compare
// as multisets.
func TestRangeINLJReorderParity(t *testing.T) {
	e := plannerDB(t)
	forced := e.ForceScan()

	exact := []struct {
		sql  string
		args []any
	}{
		{`SELECT CourseID, Year FROM CourseYears WHERE Year >= 2009 ORDER BY Year`, nil},
		{`SELECT CourseID, Year FROM CourseYears WHERE Year >= ? ORDER BY Year LIMIT 4`, []any{2008}},
		{`SELECT CourseID, Year FROM CourseYears WHERE Year BETWEEN 2008 AND 2009 ORDER BY Year, CourseID`, nil},
		{`SELECT * FROM Comments m JOIN Enrollments en ON m.SuID = en.SuID WHERE m.CommentID = 1`, nil},
		{`SELECT en.CourseID, c.Title FROM Enrollments en JOIN Courses c ON en.CourseID = c.CourseID WHERE en.SuID = 3`, nil},
	}
	for _, q := range exact {
		plan, err := e.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("planned %q: %v", q.sql, err)
			continue
		}
		naive, err := forced.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("forced %q: %v", q.sql, err)
			continue
		}
		if !reflect.DeepEqual(plan, naive) {
			t.Errorf("%q: planned and forced results differ\nplanned: %v\nforced:  %v", q.sql, plan.Rows, naive.Rows)
		}
	}

	multiset := []struct {
		sql  string
		args []any
	}{
		{`SELECT * FROM CourseYears WHERE Year >= 2009`, nil},
		{`SELECT * FROM CourseYears WHERE Year > ? AND Year <= ?`, []any{2007, 2009}},
		{`SELECT * FROM CourseYears WHERE Year BETWEEN 2009 - 1 AND 2010 + 0`, nil},
		{`SELECT c.Title FROM Courses c JOIN Comments m ON c.CourseID = m.CourseID JOIN CourseYears y ON c.CourseID = y.CourseID WHERE m.SuID = 1 AND y.Year = 2009`, nil},
		{`SELECT c.DepID, m.Rating FROM Courses c JOIN Comments m ON c.CourseID = m.CourseID JOIN CourseYears y ON c.CourseID = y.CourseID WHERE m.Rating >= 2 AND y.Year = 2008 AND c.DepID <> 'me'`, nil},
	}
	for _, q := range multiset {
		plan, err := e.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("planned %q: %v", q.sql, err)
			continue
		}
		naive, err := forced.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("forced %q: %v", q.sql, err)
			continue
		}
		if !reflect.DeepEqual(plan.Columns, naive.Columns) {
			t.Errorf("%q: columns %v vs %v", q.sql, plan.Columns, naive.Columns)
			continue
		}
		if !reflect.DeepEqual(sortedRows(plan), sortedRows(naive)) {
			t.Errorf("%q: planned and forced row multisets differ\nplanned: %v\nforced:  %v", q.sql, plan.Rows, naive.Rows)
		}
	}
}

// TestCreateOrderedIndexSQL: an ordered index declared on the table
// (relation.WithOrderedIndex) wires a SQL range access path end to end.
func TestCreateOrderedIndexSQL(t *testing.T) {
	db := relation.NewDB()
	readings := db.MustCreate(relation.MustTable("Readings", relation.NewSchema(
		relation.NotNullCol("ID", relation.TypeInt), relation.NotNullCol("Temp", relation.TypeFloat),
	), relation.WithPrimaryKey("ID"), relation.WithOrderedIndex("Temp")))
	for i := 0; i < 20; i++ {
		readings.MustInsert(relation.Row{i, float64(i) / 2})
	}
	e := New(db)
	out, err := e.Explain(`SELECT ID FROM Readings WHERE Temp >= 5.0`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "range scan Readings (Temp >= 5)") {
		t.Fatalf("ORDERED INDEX did not produce a range plan:\n%s", out)
	}
	res, err := e.Query(`SELECT ID FROM Readings WHERE Temp >= 5.0 ORDER BY Temp`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 || res.Rows[0][0] != int64(10) {
		t.Fatalf("range query rows: %v", res.Rows)
	}
}

// TestPlannerErrorParity keeps the error surface aligned with the
// pre-planner engine: ambiguous and unknown names still fail.
func TestPlannerErrorParity(t *testing.T) {
	e := plannerDB(t)
	bad := []string{
		`SELECT Rating FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID WHERE CourseID = 1`, // ambiguous
		`SELECT * FROM Courses WHERE Nope = 1`,
		`SELECT * FROM NoSuch WHERE A = 1`,
	}
	for _, q := range bad {
		if _, err := e.Query(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

// TestPlannerSeesMutations guards against stale statistics: plans adapt
// and results stay correct as data changes.
func TestPlannerSeesMutations(t *testing.T) {
	e := plannerDB(t)
	courses := e.DB().MustTable("Courses")
	courses.MustInsert(relation.Row{99, "Late addition", "cs"})
	res, err := e.Query(`SELECT Title FROM Courses WHERE CourseID = 99`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "Late addition" {
		t.Fatalf("pk lookup after insert: %v %v", res, err)
	}
	if err := deleteByKey(courses, 99); err != nil {
		t.Fatal(err)
	}
	res, err = e.Query(`SELECT Title FROM Courses WHERE CourseID = 99`)
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("pk lookup after delete: %v %v", res, err)
	}
	out, err := e.Explain(`SELECT * FROM Courses WHERE CourseID = 99`)
	if err != nil || !strings.Contains(out, "of 12 rows") {
		t.Fatalf("stats should reflect the delete: %q %v", out, err)
	}
}

// TestFoldedProbeMatchesDrained pins the folded aggregate over one index
// key (foldProbe) to the drained path and to a forced scan, bit for bit:
// the rows reach AVG in slot order even when a delete has left the key's
// index entries out of slot order, with and without versions retained
// for an open snapshot. The values cancel, so any other order changes
// the average.
func TestFoldedProbeMatchesDrained(t *testing.T) {
	db := relation.NewDB()
	tbl := db.MustCreate(relation.MustTable("R", relation.NewSchema(
		relation.NotNullCol("ID", relation.TypeInt),
		relation.NotNullCol("K", relation.TypeInt),
		relation.Col("V", relation.TypeFloat),
	), relation.WithPrimaryKey("ID"), relation.WithIndex("K")))
	tbl.MustInsert(relation.Row{int64(1), int64(8), 0.5})
	tbl.MustInsert(relation.Row{int64(2), int64(7), 1e16})
	tbl.MustInsert(relation.Row{int64(3), int64(7), -1e16})
	tbl.MustInsert(relation.Row{int64(4), int64(7), nil})
	if n, err := tbl.DeleteWhere(func(r relation.Row) bool { return r[0] == int64(1) }); err != nil || n != 1 {
		t.Fatalf("delete: %d %v", n, err)
	}
	tbl.MustInsert(relation.Row{int64(5), int64(7), 1.0}) // slot 0: first in slot order, last in the index
	e := New(db)
	forced := e.ForceScan()
	const folded = `SELECT K, AVG(V), COUNT(V), COUNT(*) FROM R WHERE K = ?`
	const drained = folded + ` LIMIT 5` // a LIMIT keeps the statement off the fold
	check := func(step string) {
		t.Helper()
		for _, k := range []any{int64(7), int64(8), nil} {
			want := []relation.Row{{nil, nil, int64(0), int64(0)}} // no row: K reads a row of NULLs
			if k == int64(7) {
				want = []relation.Row{{k, 0.0, int64(3), int64(4)}} // (1 + 1e16) - 1e16
			}
			for _, q := range []struct {
				e   *Engine
				sql string
			}{{e, folded}, {e, drained}, {forced, folded}} {
				res, err := q.e.Query(q.sql, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Rows, want) {
					t.Fatalf("%s: %q with K = %v = %v, want %v", step, q.sql, k, res.Rows, want)
				}
			}
		}
	}
	check("latest rows only")
	// A row moved to K = 8 and back re-enters K = 7's index entries out
	// of slot order.
	for _, k := range []int64{8, 7} {
		if err := tbl.UpdateByKey([]relation.Value{int64(2)}, func(r relation.Row) relation.Row { r[1] = k; return r }); err != nil {
			t.Fatal(err)
		}
	}
	check("a row moved away and back")
}
