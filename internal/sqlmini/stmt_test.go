package sqlmini

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"courserank/internal/relation"
)

// TestPreparedMatchesOneShot runs a spread of parameterized query
// shapes both ways — Prepare once then bind per call, and the legacy
// one-shot Query — and requires byte-identical results.
func TestPreparedMatchesOneShot(t *testing.T) {
	e := plannerDB(t)
	queries := []struct {
		sql  string
		args [][]any // successive executions of the same statement
	}{
		{`SELECT * FROM Courses WHERE Title = ?`, [][]any{{"Course 3 intro"}, {"Course 7 intro"}, {"no such"}}},
		{`SELECT Title FROM Courses WHERE CourseID = ?`, [][]any{{int64(7)}, {int64(1)}, {int64(99)}}},
		{`SELECT * FROM Comments WHERE SuID = ? AND Rating >= ?`, [][]any{{int64(1), int64(2)}, {int64(3), int64(4)}}},
		{`SELECT c.Title, m.Rating FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID WHERE m.SuID = ?`,
			[][]any{{int64(1)}, {int64(5)}}},
		{`SELECT DepID, COUNT(*) AS n FROM Courses WHERE CourseID <> ? GROUP BY DepID ORDER BY n DESC, DepID`,
			[][]any{{int64(1)}, {int64(2)}}},
		{`SELECT Title FROM Courses ORDER BY CourseID LIMIT ?`,
			[][]any{{int64(3)}, {int64(0)}, {int64(20)}}},
		{`SELECT Rating > ? AS band, Rating - ? AS delta, CommentID FROM Comments WHERE Rating >= 0 ORDER BY CommentID LIMIT 5`,
			[][]any{{float64(3), int64(1)}, {float64(1), 2.5}}},
	}
	for _, q := range queries {
		st, err := e.Prepare(q.sql)
		if err != nil {
			t.Fatalf("prepare %q: %v", q.sql, err)
		}
		for _, args := range q.args {
			prep, err := st.Query(args...)
			if err != nil {
				t.Fatalf("prepared %q %v: %v", q.sql, args, err)
			}
			shot, err := e.Query(q.sql, args...)
			if err != nil {
				t.Fatalf("one-shot %q %v: %v", q.sql, args, err)
			}
			if !reflect.DeepEqual(prep, shot) {
				t.Errorf("%q %v: prepared %v vs one-shot %v", q.sql, args, prep, shot)
			}
		}
	}
}

// TestPreparedPlansOnce pins the core cache property: N executions of
// one statement text, any mix of prepared and one-shot, plan once.
func TestPreparedPlansOnce(t *testing.T) {
	e := plannerDB(t)
	const sql = `SELECT Title FROM Courses WHERE CourseID = ?`
	st, err := e.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	e.ResetCacheStats()
	for i := 1; i <= 10; i++ {
		if _, err := st.Query(int64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Query(sql, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	cs := e.CacheStats()
	if cs.Misses != 0 || cs.Invalidations != 0 {
		t.Fatalf("already-prepared statement replanned: %+v", cs)
	}
	if cs.Hits != 20 {
		t.Fatalf("want 20 hits (10 prepared + 10 one-shot), got %+v", cs)
	}
	if rate := cs.HitRate(); rate != 1.0 {
		t.Fatalf("hit rate %v, want 1.0", rate)
	}
}

// TestPreparedExplainShowsParams: the cached plan is built before any
// value binds, so probe keys render as placeholders — proof the index
// access path was chosen with the key still unknown.
func TestPreparedExplainShowsParams(t *testing.T) {
	e := plannerDB(t)
	cases := []struct{ sql, want string }{
		{`SELECT * FROM Courses WHERE Title = ?`, "index probe Courses (Title = ?)"},
		{`SELECT Title FROM Courses WHERE CourseID = ?`, "pk lookup Courses (CourseID = ?)"},
		{`SELECT * FROM Comments WHERE SuID = ? AND Rating >= ?`, "index probe Comments (SuID = ?) filter (Rating >= ?)"},
	}
	for _, tc := range cases {
		st, err := e.Prepare(tc.sql)
		if err != nil {
			t.Fatalf("prepare %q: %v", tc.sql, err)
		}
		out, err := st.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%q: explain %q missing %q", tc.sql, out, tc.want)
		}
	}
}

// TestStmtInvalidation pins the split invalidation contract: row DML
// does not invalidate a held plan (plans bake in access paths, never
// data — the statement sees fresh rows through the same plan), while a
// schema-epoch change (adding an index to a live table) and statistics
// drifting past the replan threshold both do.
func TestStmtInvalidation(t *testing.T) {
	e := plannerDB(t)
	st, err := e.Prepare(`SELECT Title FROM Courses WHERE CourseID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(int64(1)); err != nil {
		t.Fatal(err)
	}

	// One insert: no invalidation, and the cached plan sees the new row.
	courses := e.DB().MustTable("Courses")
	courses.MustInsert(relation.Row{99, "Late addition", "cs"})
	e.ResetCacheStats()
	res, err := st.Query(int64(99))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "Late addition" {
		t.Fatalf("cached plan missed the inserted row: %v", res.Rows)
	}
	if cs := e.CacheStats(); cs.Misses != 0 || cs.Invalidations != 0 {
		t.Fatalf("row DML invalidated the held plan: %+v", cs)
	}

	// A shape change — adding an index in place — moves the schema
	// epoch and forces exactly one replan on the next execution.
	if err := e.DB().MustTable("Courses").AddOrderedIndex("CourseID"); err != nil {
		t.Fatal(err)
	}
	e.ResetCacheStats()
	if _, err := st.Query(int64(99)); err != nil {
		t.Fatal(err)
	}
	if cs := e.CacheStats(); cs.Misses == 0 {
		t.Fatalf("schema epoch change did not replan: %+v", cs)
	}
	// Re-executing is a pure hit again.
	e.ResetCacheStats()
	if _, err := st.Query(int64(99)); err != nil {
		t.Fatal(err)
	}
	if cs := e.CacheStats(); cs.Misses != 0 || cs.Hits != 1 {
		t.Fatalf("replanned statement should hit: %+v", cs)
	}

	// Bulk growth past double the planned size drifts the statistics
	// out of tolerance and replans.
	for i := 100; i < 160; i++ {
		courses.MustInsert(relation.Row{i, "filler", "cs"})
	}
	e.ResetCacheStats()
	if _, err := st.Query(int64(150)); err != nil {
		t.Fatal(err)
	}
	if cs := e.CacheStats(); cs.Misses == 0 {
		t.Fatalf("stats drift did not replan: %+v", cs)
	}
}

// TestPlanSurvivesDMLChurn pins the headline of the epoch split: a
// parameterized statement stays a pure cache hit under sustained
// insert/delete churn, where the old version-based fingerprint replanned
// on every write.
func TestPlanSurvivesDMLChurn(t *testing.T) {
	e := plannerDB(t)
	st, err := e.Prepare(`SELECT Title FROM Courses WHERE CourseID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(int64(1)); err != nil {
		t.Fatal(err)
	}
	courses := e.DB().MustTable("Courses")
	e.ResetCacheStats()
	for i := 0; i < 50; i++ {
		id := int64(500 + i%3)
		courses.MustInsert(relation.Row{id, "churn", "cs"})
		if _, err := st.Query(int64(1 + i%12)); err != nil {
			t.Fatal(err)
		}
		if err := deleteByKey(courses, id); err != nil {
			t.Fatal(err)
		}
	}
	cs := e.CacheStats()
	if cs.Misses != 0 || cs.Invalidations != 0 {
		t.Errorf("DML churn replanned the SELECT: %+v", cs)
	}
	if cs.Hits != 50 {
		t.Errorf("want 50 pure hits under churn, got %+v", cs)
	}
}

// TestStmtSurvivesDDL: a held statement whose table is dropped and
// recreated (same schema, new identity) replans against the new table
// instead of executing against the dead one.
func TestStmtSurvivesDDL(t *testing.T) {
	e := plannerDB(t)
	db := e.DB()
	st, err := e.Prepare(`SELECT Title FROM Courses WHERE CourseID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := st.Query(int64(1)); len(res.Rows) != 1 {
		t.Fatal("missing seed row")
	}
	old := db.MustTable("Courses")
	db.Drop("Courses")
	fresh := relation.MustTable("Courses", old.Schema(), relation.WithPrimaryKey("CourseID"))
	fresh.MustInsert(relation.Row{int64(1), "Replacement", "ee"})
	db.MustCreate(fresh)
	res, err := st.Query(int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "Replacement" {
		t.Fatalf("statement still bound to the dropped table: %v", res.Rows)
	}
}

// TestStmtArgErrors pins the bind-time error surface: wrong arity fails
// with the same message shape the parser used to emit, and the
// statement stays usable.
func TestStmtArgErrors(t *testing.T) {
	e := plannerDB(t)
	st, err := e.Prepare(`SELECT * FROM Courses WHERE CourseID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if n := st.NumParams(); n != 1 {
		t.Fatalf("NumParams = %d, want 1", n)
	}
	if _, err := st.Query(); err == nil {
		t.Fatal("missing arg should fail")
	}
	if _, err := st.Query(int64(1), int64(2)); err == nil {
		t.Fatal("extra arg should fail")
	}
	if res, err := st.Query(int64(1)); err != nil || len(res.Rows) != 1 {
		t.Fatalf("statement unusable after arg errors: %v %v", res, err)
	}
}

// TestPreparedExec: one prepared statement executed across many
// bindings, between writes through relation — inserts, an update and a
// delete — sees each write on the very next execution.
func TestPreparedExec(t *testing.T) {
	db := relation.NewDB()
	e := New(db)
	tbl := db.MustCreate(relation.MustTable("T", relation.NewSchema(
		relation.NotNullCol("ID", relation.TypeInt), relation.Col("V", relation.TypeInt),
	), relation.WithPrimaryKey("ID"), relation.WithAutoIncrement("ID")))
	count, err := e.Prepare(`SELECT COUNT(*) FROM T WHERE V >= ?`)
	if err != nil {
		t.Fatal(err)
	}
	expect := func(lo, want int64) {
		t.Helper()
		res, err := count.Query(lo)
		if err != nil || res.Rows[0][0] != want {
			t.Fatalf("count(V >= %d) = %v %v, want %d", lo, res, err, want)
		}
	}
	for i := 0; i < 10; i++ {
		tbl.MustInsert(relation.Row{nil, i})
		expect(0, int64(i+1))
	}
	v := tbl.Schema().MustIndex("V")
	n, err := tbl.UpdateWhere(func(r relation.Row) bool { return r[v].(int64) < 5 }, func(r relation.Row) relation.Row {
		r[v] = r[v].(int64) + 100
		return r
	})
	if err != nil || n != 5 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	expect(100, 5)
	if n, err := tbl.DeleteWhere(func(r relation.Row) bool { return r[v].(int64) >= 100 }); err != nil || n != 5 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	expect(100, 0)
	expect(0, 5)
}

// TestRowsIterator exercises the streaming cursor: typed Scan, lazy
// projection, the materialized fallback for ORDER BY, and Close.
func TestRowsIterator(t *testing.T) {
	e := plannerDB(t)
	st, err := e.Prepare(`SELECT CourseID, Title, DepID FROM Courses WHERE DepID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.QueryRows("cs")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Columns(); !reflect.DeepEqual(got, []string{"CourseID", "Title", "DepID"}) {
		t.Fatalf("columns %v", got)
	}
	want, err := st.Query("cs")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		var id int64
		var title, dep string
		if err := rows.Scan(&id, &title, &dep); err != nil {
			t.Fatal(err)
		}
		if id != want.Rows[n][0] || title != want.Rows[n][1] || dep != "cs" {
			t.Fatalf("row %d: got (%d, %q, %q), want %v", n, id, title, dep, want.Rows[n])
		}
		n++
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if n != len(want.Rows) {
		t.Fatalf("iterated %d rows, want %d", n, len(want.Rows))
	}

	// ORDER BY falls back to a materialized cursor with identical rows.
	orows, err := e.QueryRows(`SELECT CourseID FROM Courses ORDER BY CourseID DESC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for orows.Next() {
		var id int64
		if err := orows.Scan(&id); err != nil {
			t.Fatal(err)
		}
		got = append(got, id)
	}
	if !reflect.DeepEqual(got, []int64{12, 11, 10}) {
		t.Fatalf("ordered rows %v", got)
	}

	// NULLs scan into *any; Close stops iteration.
	nrows, err := e.QueryRows(`SELECT Rating FROM Comments`)
	if err != nil {
		t.Fatal(err)
	}
	sawNull := false
	for nrows.Next() {
		var v any
		if err := nrows.Scan(&v); err != nil {
			t.Fatal(err)
		}
		if v == nil {
			sawNull = true
			nrows.Close()
		}
	}
	if !sawNull {
		t.Fatal("expected a NULL rating in the corpus")
	}
	if nrows.Next() {
		t.Fatal("Next after Close should be false")
	}

	// Scan mismatches error, stick in Err, and stop iteration — a drain
	// loop that ignores Scan's return still observes the failure.
	mrows, err := e.QueryRows(`SELECT Title FROM Courses`)
	if err != nil {
		t.Fatal(err)
	}
	if mrows.Scan(new(string)) == nil {
		t.Fatal("Scan before Next should fail")
	}
	if !mrows.Next() {
		t.Fatal("expected a row")
	}
	var a, b string
	if mrows.Scan(&a, &b) == nil {
		t.Fatal("arity mismatch should fail")
	}
	var wrongType int64
	if mrows.Scan(&wrongType) == nil {
		t.Fatal("string into *int64 should fail")
	}
	if mrows.Err() == nil {
		t.Fatal("Err should report the failed Scan")
	}
	if mrows.Next() {
		t.Fatal("Next after a recorded Scan error should be false")
	}
}

// TestForceScanBypassesCache: forced handles plan naively every time
// and never touch the shared cache or its counters.
func TestForceScanBypassesCache(t *testing.T) {
	e := plannerDB(t)
	forced := e.ForceScan()
	e.ResetCacheStats()
	for i := 0; i < 3; i++ {
		if _, err := forced.Query(`SELECT * FROM Courses WHERE Title = ?`, "Course 3 intro"); err != nil {
			t.Fatal(err)
		}
	}
	if cs := e.CacheStats(); cs.Hits != 0 || cs.Misses != 0 || cs.Entries != 0 {
		t.Fatalf("forced handle touched the cache: %+v", cs)
	}
	if cs := forced.CacheStats(); cs != (CacheStats{}) {
		t.Fatalf("forced handle reports cache stats: %+v", cs)
	}
	st, err := forced.Prepare(`SELECT * FROM Courses WHERE Title = ?`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "probe") {
		t.Fatalf("forced prepared plan still optimized:\n%s", out)
	}
}

// TestCacheEviction: the cache stays bounded under a flood of distinct
// statement texts.
func TestCacheEviction(t *testing.T) {
	e := plannerDB(t)
	for i := 0; i < cacheMaxEntries+50; i++ {
		if _, err := e.Query(fmt.Sprintf(`SELECT Title FROM Courses WHERE CourseID = %d`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if cs := e.CacheStats(); cs.Entries > cacheMaxEntries {
		t.Fatalf("cache unbounded: %+v", cs)
	}
}

func TestAssignValueDestinations(t *testing.T) {
	var i int
	var i64 int64
	var b []byte
	if err := assignValue(&i, relation.Value(int64(7))); err != nil || i != 7 {
		t.Fatalf("*int: %v (i=%d)", err, i)
	}
	if err := assignValue(&b, relation.Value("blob")); err != nil || string(b) != "blob" {
		t.Fatalf("*[]byte: %v (b=%q)", err, b)
	}
	// NULL and mismatch errors are uniform across destination types.
	for _, dest := range []any{&i, &i64, &b, new(string), new(bool), new(float64)} {
		err := assignValue(dest, nil)
		if err == nil || !strings.Contains(err.Error(), "NULL into") {
			t.Fatalf("NULL into %T: %v", dest, err)
		}
	}
	for _, dest := range []any{&i, &i64, new(bool)} {
		err := assignValue(dest, relation.Value("text"))
		if err == nil || !strings.Contains(err.Error(), "cannot assign") {
			t.Fatalf("mismatch into %T: %v", dest, err)
		}
	}
	if err := assignValue(new(uint32), relation.Value(int64(1))); err == nil || !strings.Contains(err.Error(), "unsupported destination") {
		t.Fatalf("unsupported dest: %v", err)
	}
}
