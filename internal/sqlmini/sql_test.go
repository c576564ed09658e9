package sqlmini

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"courserank/internal/relation"
)

// testDB builds a small Courses/Students/Comments database mirroring the
// paper's schema (§3.2). The engine is read-only, so the fixture writes
// through relation like the product does.
func testDB(t *testing.T) *Engine {
	t.Helper()
	db := relation.NewDB()
	courses := db.MustCreate(relation.MustTable("Courses", relation.NewSchema(
		relation.NotNullCol("CourseID", relation.TypeInt),
		relation.Col("DepID", relation.TypeString),
		relation.Col("Title", relation.TypeString),
		relation.Col("Units", relation.TypeInt),
		relation.Col("Year", relation.TypeInt),
	), relation.WithPrimaryKey("CourseID"), relation.WithAutoIncrement("CourseID"), relation.WithIndex("DepID")))
	students := db.MustCreate(relation.MustTable("Students", relation.NewSchema(
		relation.NotNullCol("SuID", relation.TypeInt),
		relation.Col("Name", relation.TypeString),
		relation.Col("Class", relation.TypeString),
		relation.Col("GPA", relation.TypeFloat),
	), relation.WithPrimaryKey("SuID")))
	comments := db.MustCreate(relation.MustTable("Comments", relation.NewSchema(
		relation.Col("SuID", relation.TypeInt),
		relation.Col("CourseID", relation.TypeInt),
		relation.Col("Year", relation.TypeInt),
		relation.Col("Rating", relation.TypeInt),
		relation.Col("Text", relation.TypeString),
	)))
	for _, r := range []relation.Row{
		{1, "CS", "Introduction to Programming", 5, 2008},
		{2, "CS", "Advanced Programming", 4, 2008},
		{3, "CS", "Operating Systems", 4, 2007},
		{4, "HIST", "American History", 3, 2008},
		{5, "CLASSICS", "Greek Science", 3, 2008},
	} {
		courses.MustInsert(r)
	}
	for _, r := range []relation.Row{
		{444, "Sally", "2009", 3.8}, {445, "Bob", "2009", 3.2}, {446, "Eve", "2010", 3.5},
	} {
		students.MustInsert(r)
	}
	for _, r := range []relation.Row{
		{444, 1, 2008, 5, "great intro"},
		{444, 4, 2008, 4, "fun course"},
		{445, 1, 2008, 4, "liked it"},
		{445, 2, 2008, 3, "hard"},
		{446, 1, 2007, 5, "best class"},
		{446, 5, 2008, nil, "no rating yet"},
	} {
		comments.MustInsert(r)
	}
	return New(db)
}

func mustQuery(t *testing.T, e *Engine, sql string, args ...any) *Result {
	t.Helper()
	res, err := e.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%s): %v", sql, err)
	}
	return res
}

// deleteByKey and updateByKey are the relation-side twins of
// `DELETE … WHERE pk = ?` and `UPDATE … WHERE pk = ?` that the churn
// tests write with: they match on tbl's first primary-key column.
func deleteByKey(tbl *relation.Table, key relation.Value) error {
	_, err := tbl.DeleteWhere(keyPred(tbl, key))
	return err
}

func updateByKey(tbl *relation.Table, key relation.Value, set func(relation.Row)) error {
	_, err := tbl.UpdateWhere(keyPred(tbl, key), func(r relation.Row) relation.Row {
		set(r)
		return r
	})
	return err
}

func keyPred(tbl *relation.Table, key relation.Value) func(relation.Row) bool {
	pk := tbl.Schema().MustIndex(tbl.PrimaryKey()[0])
	key, _ = relation.Normalize(key)
	return func(r relation.Row) bool { return relation.Equal(r[pk], key) }
}

func TestSelectAll(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT * FROM Students`)
	if len(res.Rows) != 3 || len(res.Columns) != 4 {
		t.Fatalf("got %d rows, %d cols", len(res.Rows), len(res.Columns))
	}
	if res.Columns[0] != "SuID" {
		t.Errorf("Columns = %v", res.Columns)
	}
}

func TestSelectWhereComparison(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT Title FROM Courses WHERE Year = 2008 AND Units >= 4`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSelectProjectionExpressionsAndAlias(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT Name, GPA + 10 AS Scaled FROM Students WHERE Name = 'Sally'`)
	if res.Columns[1] != "Scaled" {
		t.Errorf("Columns = %v", res.Columns)
	}
	if res.Rows[0][1] != 13.8 {
		t.Errorf("Scaled = %v", res.Rows[0][1])
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT Title FROM Courses ORDER BY Units DESC, Title ASC LIMIT 3`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[1][0] != "Advanced Programming" {
		t.Errorf("row1 = %v", res.Rows[1])
	}
	if res.Rows[2][0] != "Operating Systems" {
		t.Errorf("row2 = %v", res.Rows[2])
	}
}

func TestOrderByAliasAndSourceColumn(t *testing.T) {
	e := testDB(t)
	// Alias ordering.
	res := mustQuery(t, e, `SELECT Name, GPA + 10 AS S FROM Students ORDER BY S DESC`)
	if res.Rows[0][0] != "Sally" {
		t.Errorf("alias order: %v", res.Rows)
	}
	// Ordering by a column not in the projection.
	res = mustQuery(t, e, `SELECT Name FROM Students ORDER BY GPA ASC`)
	if res.Rows[0][0] != "Bob" {
		t.Errorf("source order: %v", res.Rows)
	}
}

func TestInnerJoinHash(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `
		SELECT s.Name, c.Title, m.Rating
		FROM Comments m
		JOIN Students s ON m.SuID = s.SuID
		JOIN Courses c ON m.CourseID = c.CourseID
		WHERE m.Rating >= 4
		ORDER BY s.Name, c.Title`)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != "Bob" || res.Rows[0][1] != "Introduction to Programming" {
		t.Errorf("row0 = %v", res.Rows[0])
	}
}

// outsideDialect holds one statement per construct sqlmini refuses,
// with the word its error must name. Joins are INNER only — including
// the keyword straight after an unaliased FROM table, where it once
// parsed as an alias and the join silently ran as INNER. The rest is
// SQL no statement the product sends uses: OR, NOT, IN, IS NULL, LIKE,
// CASE, DISTINCT, HAVING, OFFSET, SUM/MIN/MAX, scalar functions, and
// the operators ||, *, / and %.
var outsideDialect = []struct {
	join bool
	word string
	sql  string
}{
	{true, "LEFT", `SELECT c.Title, m.Rating FROM Courses c LEFT JOIN Comments m ON c.CourseID = m.CourseID`},
	{true, "LEFT", `SELECT c.Title FROM Courses c LEFT OUTER JOIN Comments m ON c.CourseID = m.CourseID`},
	{true, "RIGHT", `SELECT * FROM Courses RIGHT JOIN Comments ON RIGHT.CourseID = Comments.CourseID`},
	{true, "RIGHT", `SELECT * FROM Courses c RIGHT JOIN Comments m ON c.CourseID = m.CourseID`},
	{true, "FULL", `SELECT * FROM Courses c FULL OUTER JOIN Comments m ON c.CourseID = m.CourseID`},
	{true, "CROSS", `SELECT * FROM Courses CROSS JOIN Students`},
	{true, "OUTER", `SELECT * FROM Courses c OUTER JOIN Comments m ON c.CourseID = m.CourseID`},
	{true, "NATURAL", `SELECT * FROM Courses NATURAL JOIN Comments`},
	{true, "LEFT", `SELECT * FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID LEFT JOIN Students s ON m.SuID = s.SuID`},
	{false, "OR", `SELECT Title FROM Courses WHERE CourseID = 1 OR CourseID = 2`},
	{false, "OR", `SELECT c.Title FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID OR m.Year = c.Year`},
	{false, "NOT", `SELECT Title FROM Courses WHERE NOT CourseID = 1`},
	{false, "NOT", `SELECT Title FROM Courses WHERE Units NOT BETWEEN 3 AND 4`},
	{false, "NOT", `SELECT Title FROM Courses WHERE CourseID NOT IN (1, 2)`},
	{false, "IN", `SELECT Title FROM Courses WHERE CourseID IN (1, 2)`},
	{false, "IN", `SELECT Title FROM Courses WHERE DepID IN (?, ?)`},
	{false, "IS", `SELECT Text FROM Comments WHERE Rating IS NULL`},
	{false, "IS", `SELECT Text FROM Comments WHERE Rating IS NOT NULL`},
	{false, "LIKE", `SELECT Title FROM Courses WHERE Title LIKE '%program%'`},
	{false, "CASE", `SELECT CASE WHEN Units >= 5 THEN 'heavy' ELSE 'light' END FROM Courses`},
	{false, "CASE", `SELECT Title FROM Courses WHERE CASE DepID WHEN 'CS' THEN 1 END = 1`},
	{false, "DISTINCT", `SELECT DISTINCT DepID FROM Courses`},
	{false, "DISTINCT", `SELECT COUNT(DISTINCT SuID) FROM Comments`},
	{false, "HAVING", `SELECT CourseID, COUNT(*) FROM Comments GROUP BY CourseID HAVING COUNT(*) >= 2`},
	{false, "OFFSET", `SELECT Title FROM Courses ORDER BY Title LIMIT 2 OFFSET 1`},
	{false, "SUM", `SELECT SUM(Rating) FROM Comments`},
	{false, "MIN", `SELECT CourseID, MIN(Rating) FROM Comments GROUP BY CourseID`},
	{false, "MAX", `SELECT MAX(Rating) AS Hi FROM Comments`},
	{false, "LOWER", `SELECT LOWER(Name) FROM Students`},
	{false, "UPPER", `SELECT Name FROM Students WHERE UPPER(Name) = 'SALLY'`},
	{false, "LENGTH", `SELECT LENGTH(Name) FROM Students`},
	{false, "ABS", `SELECT ABS(-2) FROM Students`},
	{false, "ROUND", `SELECT ROUND(GPA, 1) FROM Students`},
	{false, "COALESCE", `SELECT COALESCE(Rating, 0) FROM Comments`},
	{false, "SUBSTR", `SELECT SUBSTR(Name, 1, 3) FROM Students`},
	{false, "||", `SELECT Name || '!' FROM Students`},
	{false, "*", `SELECT GPA * 10 FROM Students`},
	{false, "/", `SELECT Title FROM Courses WHERE Units / 2 = 2`},
	{false, "%", `SELECT Title FROM Courses WHERE Units % 2 = 1`},
}

// refusalOf is the error sqlmini must refuse an outsideDialect entry
// with.
func refusalOf(join bool, word string) string {
	if join {
		return "sqlmini: " + word + " JOIN is not supported: sqlmini joins are INNER"
	}
	return "sqlmini: " + word + " is not supported: it is outside sqlmini's dialect"
}

// TestRefusesOutsideDialect: sqlmini runs the dialect the product
// sends, so each construct outside it — an outer, cross or natural
// join, or an operator, keyword or function the dialect leaves out — is
// refused by name from every entry point, never run as something else,
// and the refusal changes nothing.
func TestRefusesOutsideDialect(t *testing.T) {
	e := testDB(t)
	versions := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, name := range e.DB().Names() {
			out[name] = e.DB().MustTable(name).Version()
		}
		return out
	}
	before := versions()
	for _, q := range outsideDialect {
		want := refusalOf(q.join, q.word)
		var args []any
		if strings.Contains(q.sql, "?") {
			args = []any{"CS", "HIST"}
		}
		_, errPrepare := e.Prepare(q.sql)
		_, errQuery := e.Query(q.sql, args...)
		_, errExplain := e.Explain(q.sql, args...)
		_, errAnalyze := e.ExplainAnalyze(q.sql, args...)
		for name, err := range map[string]error{"Prepare": errPrepare, "Query": errQuery, "Explain": errExplain, "ExplainAnalyze": errAnalyze} {
			if err == nil || err.Error() != want {
				t.Errorf("%s(%s) = %v, want %q", name, q.sql, err, want)
			}
		}
	}
	// The same words still parse where the dialect has them: a column
	// named like a cut function reads as a column.
	if _, err := ParseExpr(`Min + Max >= Sum`); err != nil {
		t.Errorf("columns named Min, Max and Sum: %v", err)
	}
	if after := versions(); !reflect.DeepEqual(after, before) {
		t.Errorf("refused statements changed the database: tables/versions %v, want %v", after, before)
	}
}

func TestNonEquiJoinNestedLoop(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `
		SELECT a.Title, b.Title
		FROM Courses a JOIN Courses b ON a.Units > b.Units
		WHERE a.CourseID = 1`)
	// Intro (5 units) beats the three 4- and 3-unit courses.
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
}

func TestGroupByHavingAggregates(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `
		SELECT CourseID, COUNT(*) AS N, AVG(Rating) AS AvgR, COUNT(Rating)
		FROM Comments
		GROUP BY CourseID
		ORDER BY N DESC, CourseID`)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
	r := res.Rows[0]
	if r[0] != int64(1) || r[1] != int64(3) || r[3] != int64(3) {
		t.Errorf("row = %v", r)
	}
	if avg := r[2].(float64); avg < 4.66 || avg > 4.67 {
		t.Errorf("avg = %v", avg)
	}
	// Course 5's one comment is unrated: counted by COUNT(*), not by
	// COUNT(Rating), and its average is NULL.
	if last := res.Rows[3]; last[0] != int64(5) || last[1] != int64(1) || last[2] != nil || last[3] != int64(0) {
		t.Errorf("unrated course row = %v", last)
	}
}

func TestAggregateSkipsNulls(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT COUNT(*), COUNT(Rating), AVG(Rating) FROM Comments WHERE CourseID = 5`)
	r := res.Rows[0]
	if r[0] != int64(1) || r[1] != int64(0) || r[2] != nil {
		t.Errorf("row = %v", r)
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT COUNT(*), AVG(Rating) FROM Comments WHERE CourseID = 999`)
	if len(res.Rows) != 1 {
		t.Fatalf("want single row, got %v", res.Rows)
	}
	if res.Rows[0][0] != int64(0) || res.Rows[0][1] != nil {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestCountDistinct(t *testing.T) {
	e := testDB(t)
	// The dialect counts distinct values by grouping on them: one row
	// per distinct SuID.
	res := mustQuery(t, e, `SELECT SuID, COUNT(*) FROM Comments GROUP BY SuID`)
	if len(res.Rows) != 3 {
		t.Errorf("distinct students = %v", res.Rows)
	}
}

func TestDistinctRows(t *testing.T) {
	e := testDB(t)
	// GROUP BY without an aggregate is the dialect's DISTINCT: each
	// value once, in first-seen order unless ordered.
	res := mustQuery(t, e, `SELECT DepID FROM Courses GROUP BY DepID ORDER BY DepID`)
	if got := fmt.Sprint(res.Rows); got != "[[CLASSICS] [CS] [HIST]]" {
		t.Fatalf("rows = %v", got)
	}
}

func TestLikeInBetweenIsNull(t *testing.T) {
	e := testDB(t)
	if got := mustQuery(t, e, `SELECT Title FROM Courses WHERE Units BETWEEN 4 AND 5`); len(got.Rows) != 3 {
		t.Errorf("BETWEEN rows = %v", got.Rows)
	}
	if got := mustQuery(t, e, `SELECT Title FROM Courses WHERE Units BETWEEN ? AND ? + 1`, 3, 3); len(got.Rows) != 4 {
		t.Errorf("BETWEEN with params rows = %v", got.Rows)
	}
	// A NULL operand or bound matches nothing.
	if got := mustQuery(t, e, `SELECT Text FROM Comments WHERE Rating BETWEEN 0 AND 5`); len(got.Rows) != 5 {
		t.Errorf("BETWEEN over a NULL rating rows = %v", got.Rows)
	}
	if got := mustQuery(t, e, `SELECT Title FROM Courses WHERE Units BETWEEN NULL AND 5`); len(got.Rows) != 0 {
		t.Errorf("BETWEEN NULL rows = %v", got.Rows)
	}
}

func TestArithmeticSemantics(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT 7 - 2, Units + 2, 1 + 2.5, -Units, 2 - -Units FROM Courses WHERE CourseID = 1`)
	r := res.Rows[0]
	if r[0] != int64(5) {
		t.Errorf("7-2 = %v", r[0])
	}
	if r[1] != int64(7) {
		t.Errorf("Units+2 = %v", r[1])
	}
	if r[2] != 3.5 {
		t.Errorf("1+2.5 = %v", r[2])
	}
	if r[3] != int64(-5) {
		t.Errorf("-Units = %v", r[3])
	}
	if r[4] != int64(7) {
		t.Errorf("2 - -Units = %v", r[4])
	}
}

func TestPlaceholders(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT Title FROM Courses WHERE Year = ? AND DepID = ?`, 2008, "CS")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if _, err := e.Query(`SELECT * FROM Courses WHERE Year = ?`); err == nil {
		t.Error("missing arg should error")
	}
	if _, err := e.Query(`SELECT * FROM Courses`, 1); err == nil {
		t.Error("extra arg should error")
	}
}

// TestUpdateAndDelete: predicate writes through relation — an update
// that reads the old value and a delete on a NULL test — are what the
// next SELECT sees.
func TestUpdateAndDelete(t *testing.T) {
	e := testDB(t)
	students := e.DB().MustTable("Students")
	class, gpa := students.Schema().MustIndex("Class"), students.Schema().MustIndex("GPA")
	n, err := students.UpdateWhere(func(r relation.Row) bool { return r[class] == "2009" }, func(r relation.Row) relation.Row {
		r[gpa] = r[gpa].(float64) + 0.1
		return r
	})
	if err != nil || n != 2 {
		t.Fatalf("update n=%d err=%v", n, err)
	}
	res := mustQuery(t, e, `SELECT GPA FROM Students WHERE SuID = 444`)
	if g := res.Rows[0][0].(float64); g < 3.89 || g > 3.91 {
		t.Errorf("GPA = %v", g)
	}
	comments := e.DB().MustTable("Comments")
	rating := comments.Schema().MustIndex("Rating")
	n, err = comments.DeleteWhere(func(r relation.Row) bool { return r[rating] == nil })
	if err != nil || n != 1 {
		t.Fatalf("delete n=%d err=%v", n, err)
	}
	if got := mustQuery(t, e, `SELECT COUNT(*) FROM Comments`); got.Rows[0][0] != int64(5) {
		t.Errorf("count = %v", got.Rows[0][0])
	}
}

// TestInsertPartialColumns: a row inserted through relation with its
// auto-increment key left NULL gets the next id, which SQL reads back.
func TestInsertPartialColumns(t *testing.T) {
	e := testDB(t)
	e.DB().MustTable("Courses").MustInsert(relation.Row{nil, "MATH", "Calculus", nil, nil})
	res := mustQuery(t, e, `SELECT CourseID FROM Courses WHERE Title = 'Calculus'`)
	if res.Rows[0][0] != int64(6) {
		t.Errorf("auto id = %v", res.Rows[0][0])
	}
}

func TestTableAliasSelfJoin(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `
		SELECT a.Title FROM Courses AS a JOIN Courses AS b ON a.Year = b.Year
		WHERE b.Title = 'Greek Science' AND a.CourseID <> b.CourseID ORDER BY a.Title`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestStarQualified(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT s.* FROM Comments m JOIN Students s ON m.SuID = s.SuID WHERE m.CourseID = 2`)
	if len(res.Columns) != 4 || res.Rows[0][1] != "Bob" {
		t.Errorf("cols=%v rows=%v", res.Columns, res.Rows)
	}
}

func TestErrorCases(t *testing.T) {
	e := testDB(t)
	bad := []string{
		`SELECT FROM Courses`,
		`SELECT * FROM NoSuch`,
		`SELECT NoCol FROM Courses`,
		`SELECT * FROM Courses WHERE`,
		`SELECT Rating FROM Comments m JOIN Students s ON m.SuID = s.SuID WHERE SuID = 1`, // ambiguous
		`SELECT NOSUCHFN(Title) FROM Courses`,
		`SELECT SUM(Rating, 2) FROM Comments`,
		`SELECT * FROM Courses LIMIT 'x'`,
		`BOGUS STATEMENT`,
		`SELECT COUNT(Rating, 2) FROM Comments`,
		`SELECT AVG(*) FROM Comments`,
		`SELECT CourseID FROM Comments GROUP BY CourseID + 1`,
		`SELECT 'unterminated FROM Courses`,
	}
	for _, q := range bad {
		if _, err := e.Query(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

// TestReadOnlyRefusesWrites: the engine runs SELECTs only. Every
// entry point refuses a data-changing or DDL statement by name, before
// it touches a table.
func TestReadOnlyRefusesWrites(t *testing.T) {
	e := testDB(t)
	for _, q := range []string{
		`INSERT INTO Students VALUES (1, 'x', 'y', 1.0)`,
		`UPDATE Students SET GPA = 4.0 WHERE SuID = 444`,
		`DELETE FROM Comments`,
		`CREATE TABLE Extra (ID INT)`,
	} {
		kw := strings.Fields(q)[0]
		want := "sqlmini: " + kw + " is not supported: sqlmini is read-only, write through relation.Table or relation.Tx"
		_, errPrepare := e.Prepare(q)
		_, errQuery := e.Query(q)
		_, errExplain := e.Explain(q)
		_, errAnalyze := e.ExplainAnalyze(q)
		for name, err := range map[string]error{"Prepare": errPrepare, "Query": errQuery, "Explain": errExplain, "ExplainAnalyze": errAnalyze} {
			if err == nil || err.Error() != want {
				t.Errorf("%s(%s) = %v, want %q", name, kw, err, want)
			}
		}
	}
	if n := mustQuery(t, e, `SELECT COUNT(*) FROM Comments`).Rows[0][0]; n != int64(6) {
		t.Errorf("Comments has %v rows after refused writes, want 6", n)
	}
	if _, ok := e.DB().Table("Extra"); ok {
		t.Error("refused CREATE TABLE created a table")
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	// String forms of parsed expressions re-parse to the same string.
	exprs := []string{
		`SELECT Title FROM c WHERE (A = 1 AND B <> 'x''y') AND C`,
		`SELECT Title FROM c WHERE A = TRUE AND B BETWEEN 1 AND 5 + -D`,
		`SELECT COUNT(A), AVG(B) FROM c WHERE X.Y >= 2.5 - NULL`,
	}
	for _, q := range exprs {
		sel, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		s1 := sel.Where.String()
		again, err := ParseExpr(s1)
		if err != nil {
			t.Fatalf("%s: re-parse %q: %v", q, s1, err)
		}
		if s2 := again.String(); s2 != s1 {
			t.Errorf("%s: String %q re-parses to %q", q, s1, s2)
		}
	}
}

func TestGroupByExpressionKey(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT Year, COUNT(*) AS N FROM Courses GROUP BY Year ORDER BY Year`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != int64(2007) || res.Rows[0][1] != int64(1) {
		t.Errorf("row0 = %v", res.Rows[0])
	}
	if res.Rows[1][0] != int64(2008) || res.Rows[1][1] != int64(4) {
		t.Errorf("row1 = %v", res.Rows[1])
	}
}

func TestOrderByAggregate(t *testing.T) {
	e := testDB(t)
	// An aggregate sorts by its output name.
	res := mustQuery(t, e, `SELECT CourseID, AVG(Rating) AS A FROM Comments GROUP BY CourseID ORDER BY A DESC, CourseID`)
	if res.Rows[0][0] != int64(1) {
		t.Errorf("rows = %v", res.Rows)
	}
	if _, err := e.Query(`SELECT CourseID FROM Comments GROUP BY CourseID ORDER BY AVG(Rating)`); err == nil {
		t.Error("an aggregate outside the select list should fail to parse")
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, "SELECT Title -- the title\nFROM Courses -- all courses\nWHERE CourseID = 1")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestAllColumnSelectReturnsStoredRows: a SELECT of every column of one
// table, in order, hands back the stored rows themselves — the backing
// arrays Table.Get returns — over a primary-key probe, an index probe,
// a scan with and without a filter, a sort and a LIMIT, through Query,
// a prepared statement and a ForceScan handle alike, and carves no
// output row: its bytes are its row list's, not an arena's. A projection
// that reorders the columns still builds rows of its own.
func TestAllColumnSelectReturnsStoredRows(t *testing.T) {
	e := testDB(t)
	courses := e.DB().MustTable("Courses")
	for i := range 2000 {
		courses.MustInsert(relation.Row{nil, []string{"CS", "HIST", "MATH"}[i%3], fmt.Sprintf("Course %d", i), 3, int64(2000 + i%9)})
	}
	stored := func(row relation.Row) bool {
		s, ok := courses.Get(row[0])
		return ok && len(s) == len(row) && &s[0] == &row[0]
	}
	for _, q := range []struct {
		sql  string
		args []any
	}{
		{"SELECT * FROM Courses WHERE CourseID = ?", []any{3}},
		{"SELECT * FROM Courses WHERE DepID = ?", []any{"HIST"}},
		{"SELECT * FROM Courses", nil},
		{"SELECT * FROM Courses WHERE Year > ?", []any{2004}},
		{"SELECT * FROM Courses c WHERE c.Units = ? ORDER BY Title DESC", []any{3}},
		{"SELECT * FROM Courses LIMIT ?", []any{5}},
		{"SELECT CourseID, DepID, Title, Units, Year FROM Courses WHERE DepID = ?", []any{"CS"}},
	} {
		st, err := e.Prepare(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		prepared, err := st.Query(q.args...)
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]*Result{
			"query":     mustQuery(t, e, q.sql, q.args...),
			"prepared":  prepared,
			"forcescan": mustQuery(t, e.ForceScan(), q.sql, q.args...),
		} {
			if len(res.Rows) == 0 {
				t.Fatalf("%s %s: no rows", name, q.sql)
			}
			for _, row := range res.Rows {
				if !stored(row) {
					t.Fatalf("%s %s: row %v is a copy, not the stored row", name, q.sql, row)
				}
			}
		}
	}

	bytes := func(sql string) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustQuery(t, e, sql)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	star := bytes("SELECT * FROM Courses")
	reordered := bytes("SELECT DepID, CourseID, Title, Units, Year FROM Courses")
	res := mustQuery(t, e, "SELECT DepID, CourseID, Title, Units, Year FROM Courses")
	if stored(res.Rows[0]) {
		t.Error("a reordering projection returned a stored row")
	}
	if cells := uint64(courses.Len() * 5 * 16); star > cells/2 || reordered < star+cells/2 {
		t.Errorf("SELECT * over %d rows allocated %d B, the reordered projection %d B: want no arena of %d B", courses.Len(), star, reordered, cells)
	}
}
