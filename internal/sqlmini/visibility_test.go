package sqlmini

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"courserank/internal/relation"
)

// visibilityQueries are one statement per access path the executor
// reads a base table through, each pinned to its path by a fragment of
// its Explain output and each touching rows that stageWrites changes.
var visibilityQueries = []struct {
	path, sql, plan string
}{
	{"pk lookup", `SELECT CourseID, Title, DepID FROM Courses WHERE CourseID = 7`,
		"pk lookup Courses (CourseID = 7)"},
	{"hash join", `SELECT c.CourseID, c.Title, y.Year FROM Courses c JOIN CourseYears y ON c.CourseID = y.CourseID`,
		"hash join on (c.CourseID = y.CourseID)"},
	{"secondary-index probe", `SELECT CourseID, Title FROM Courses WHERE DepID = 'cs'`,
		"index probe Courses (DepID = 'cs')"},
	{"range scan", `SELECT CourseID, Year FROM CourseYears WHERE Year >= 2009`,
		"range scan CourseYears (Year >= 2009)"},
	{"desc-elided ORDER BY", `SELECT CourseID, Year FROM CourseYears WHERE Year >= 2009 ORDER BY Year DESC`,
		"range scan desc CourseYears (Year >= 2009)"},
	{"full scan", `SELECT CourseID, Title, DepID FROM Courses`,
		"scan Courses ~"},
	{"index nested loop", `SELECT m.CommentID, en.CourseID, en.Units FROM Comments m JOIN Enrollments en ON m.SuID = en.SuID WHERE m.CommentID = 1`,
		"index nested loop on (m.SuID = en.SuID), probe=index(SuID)"},
	{"band join", `SELECT a.CourseID, b.CourseID, b.Year FROM CourseYears a JOIN CourseYears b ON b.Year BETWEEN a.Year - 1 AND a.Year + 1 WHERE a.CourseID = 1`,
		"probe=range(Year)"},
}

// stageWrites stages, in one relation.Tx, an insert, an update and a
// delete on every table the queries read: Courses (pk 13 in, 7
// renamed, 4 out — all in department cs), CourseYears (13 in at 2010,
// 2 moved from 2008 to 2011, 3 out of 2009) and the Enrollments rows
// of student 1, whom comment 1 joins to.
func stageWrites(t *testing.T, db *relation.DB) *relation.Tx {
	t.Helper()
	tx := db.Begin()
	courses, years, enroll := db.MustTable("Courses"), db.MustTable("CourseYears"), db.MustTable("Enrollments")
	id := func(r relation.Row) int64 { return r[0].(int64) }
	steps := []func() error{
		func() error {
			_, err := tx.Insert(courses, relation.Row{int64(13), "Course 13 intro", "cs"})
			return err
		},
		func() error {
			return want1(tx.UpdateWhere(courses, func(r relation.Row) bool { return id(r) == 7 },
				func(r relation.Row) relation.Row { r[1] = "Renamed"; return r }))
		},
		func() error { return want1(tx.DeleteWhere(courses, func(r relation.Row) bool { return id(r) == 4 })) },
		func() error { _, err := tx.Insert(years, relation.Row{int64(13), int64(2010)}); return err },
		func() error {
			return want1(tx.UpdateWhere(years, func(r relation.Row) bool { return id(r) == 2 },
				func(r relation.Row) relation.Row { r[1] = int64(2011); return r }))
		},
		func() error { return want1(tx.DeleteWhere(years, func(r relation.Row) bool { return id(r) == 3 })) },
		func() error { _, err := tx.Insert(enroll, relation.Row{int64(1), int64(12), int64(5)}); return err },
		func() error {
			return want1(tx.UpdateWhere(enroll, func(r relation.Row) bool { return id(r) == 1 && r[1].(int64) == 2 },
				func(r relation.Row) relation.Row { r[2] = int64(9); return r }))
		},
		func() error {
			return want1(tx.DeleteWhere(enroll, func(r relation.Row) bool { return id(r) == 1 && r[1].(int64) == 3 }))
		},
	}
	for i, step := range steps {
		if err := step(); err != nil {
			tx.Rollback()
			t.Fatalf("staging step %d: %v", i, err)
		}
	}
	return tx
}

func want1(n int, err error) error {
	if err == nil && n != 1 {
		err = fmt.Errorf("touched %d rows, want 1", n)
	}
	return err
}

// resultText renders a result in a canonical row order, so paths that
// emit in different orders compare equal when their multisets are.
func resultText(res *Result) string {
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		lines[i] = fmt.Sprint(r)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestStagedTxInvisibleToSQL is the isolation guarantee the SQL layer keeps
// for relation.Tx, the one transaction API: rows a transaction has
// staged — inserted, updated or deleted — are invisible to
// autocommit statements on every access path until Commit, appear
// after it, and never appear when the transaction rolls back.
func TestStagedTxInvisibleToSQL(t *testing.T) {
	e := plannerDB(t)
	query := func(sql string) string {
		t.Helper()
		res, err := e.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return resultText(res)
	}
	before := make([]string, len(visibilityQueries))
	for i, q := range visibilityQueries {
		plan, err := e.Explain(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, q.plan) {
			t.Fatalf("%s: plan lost its access path (want %q):\n%s", q.path, q.plan, plan)
		}
		before[i] = query(q.sql)
	}

	check := func(stage string, want []string) {
		t.Helper()
		for i, q := range visibilityQueries {
			if got := query(q.sql); got != want[i] {
				t.Errorf("%s, %s: got\n%s\nwant\n%s", stage, q.path, got, want[i])
			}
		}
	}

	// Rolled back: nothing staged ever shows.
	tx := stageWrites(t, e.DB())
	check("staged", before)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	check("rolled back", before)

	// Committed: invisible while staged, then every path sees the
	// writes, agreeing with the naive full-scan executor.
	tx = stageWrites(t, e.DB())
	check("staged", before)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	naive := e.ForceScan()
	after := make([]string, len(visibilityQueries))
	for i, q := range visibilityQueries {
		res, err := naive.Query(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		after[i] = resultText(res)
		if after[i] == before[i] {
			t.Errorf("%s: the committed writes do not change the result, so the path is not exercised", q.path)
		}
	}
	check("committed", after)
}
