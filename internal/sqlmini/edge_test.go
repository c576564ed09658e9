package sqlmini

import (
	"strings"
	"testing"

	"courserank/internal/relation"
)

func TestQuotedIdentifiers(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT "Title" FROM "Courses" WHERE "CourseID" = 1`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if _, err := e.Query(`SELECT "Unterminated FROM Courses`); err == nil {
		t.Error("unterminated quoted identifier should fail")
	}
}

func TestParseExprStandalone(t *testing.T) {
	expr, err := ParseExpr(`A + 1 > ?`, 5)
	if err != nil {
		t.Fatal(err)
	}
	v, err := EvalExpr(expr, []string{"A"}, []relation.Value{int64(7)})
	if err != nil {
		t.Fatal(err)
	}
	if v != true {
		t.Errorf("7+1 > 5 = %v", v)
	}
	// Error paths.
	if _, err := ParseExpr(`A +`); err == nil {
		t.Error("truncated expr should fail")
	}
	if _, err := ParseExpr(`A B C`); err == nil {
		t.Error("trailing tokens should fail")
	}
	if _, err := ParseExpr(`?`); err == nil {
		t.Error("missing arg should fail")
	}
	if _, err := ParseExpr(`1`, 2); err == nil {
		t.Error("unused arg should fail")
	}
	if _, err := ParseExpr(`$bad$`); err == nil {
		t.Error("lexer garbage should fail")
	}
	if _, err := ParseExpr(`A = ?`, struct{}{}); err == nil {
		t.Error("unsupported arg type should fail")
	}
	// Unknown column at eval time.
	expr2, _ := ParseExpr(`Nope = 1`)
	if _, err := EvalExpr(expr2, []string{"A"}, []relation.Value{int64(1)}); err == nil {
		t.Error("unknown column should fail at eval")
	}
}

func TestUnaryAndConcatEdges(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT -GPA, -(GPA - 1), GPA > 3.5 FROM Students WHERE SuID = 444`)
	r := res.Rows[0]
	if r[0] != -3.8 || r[1] != -2.8 || r[2] != true {
		t.Errorf("row = %v", r)
	}
	if _, err := e.Query(`SELECT -Name FROM Students`); err == nil {
		t.Error("negating a string should fail")
	}
	// NULL propagation through negation and arithmetic.
	res = mustQuery(t, e, `SELECT Rating + 1, -Rating, 1 - Rating FROM Comments WHERE CourseID = 5`)
	if r := res.Rows[0]; r[0] != nil || r[1] != nil || r[2] != nil {
		t.Errorf("NULL propagation: %v", r)
	}
}

func TestArithMixedAndModulo(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT 2.5 + 2, 5 - 2.5, 7.0 - 2, GPA - 3 FROM Students WHERE SuID = 444`)
	r := res.Rows[0]
	if r[0] != 4.5 || r[1] != 2.5 || r[2] != 5.0 {
		t.Errorf("row = %v", r)
	}
	if g := r[3].(float64); g < 0.79 || g > 0.81 {
		t.Errorf("GPA - 3 = %v", g)
	}
	if _, err := e.Query(`SELECT 'a' + 1 FROM Students`); err == nil {
		t.Error("string arithmetic should fail")
	}
}

// TestAggregateInsideExpression: an aggregate is a whole select item,
// optionally aliased — never an operand, a WHERE or ORDER BY term, or
// another aggregate's argument.
func TestAggregateInsideExpression(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `
		SELECT CourseID, AVG(Rating) AS Avg, COUNT(*) Multi
		FROM Comments GROUP BY CourseID ORDER BY CourseID LIMIT 1`)
	r := res.Rows[0]
	if r[0] != int64(1) || r[2] != int64(3) || res.Columns[1] != "Avg" || res.Columns[2] != "Multi" {
		t.Fatalf("columns %v row %v", res.Columns, r)
	}
	if avg := r[1].(float64); avg < 4.66 || avg > 4.67 {
		t.Errorf("avg = %v", avg)
	}
	for _, q := range []string{
		`SELECT AVG(Rating) + 1 FROM Comments`,
		`SELECT 1 + COUNT(*) FROM Comments`,
		`SELECT COUNT(*) > 1 FROM Comments`,
		`SELECT COUNT(AVG(Rating)) FROM Comments`,
		`SELECT CourseID FROM Comments GROUP BY CourseID ORDER BY COUNT(*)`,
	} {
		if _, err := e.Query(q); err == nil || !strings.Contains(err.Error(), "parse error") {
			t.Errorf("%s: error %v, want a parse error", q, err)
		}
	}
}

func TestAggregateErrors(t *testing.T) {
	e := testDB(t)
	for _, q := range []string{
		`SELECT AVG(*) FROM Comments`,
		`SELECT AVG(Text) FROM Comments`,
		`SELECT COUNT(Rating) FROM Comments WHERE AVG(Rating) > 1`, // aggregate in WHERE
		`SELECT COUNT(Rating, SuID) FROM Comments`,
	} {
		if _, err := e.Query(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

// TestDeleteAllAndUpdateAll: whole-table writes through relation are
// what the next SELECT sees, on the cached plan as on a fresh one.
func TestDeleteAllAndUpdateAll(t *testing.T) {
	e := testDB(t)
	comments := e.DB().MustTable("Comments")
	year := comments.Schema().MustIndex("Year")
	const q = `SELECT COUNT(*) FROM Comments WHERE Year = 2009`
	if got := mustQuery(t, e, q).Rows[0][0]; got != int64(0) {
		t.Fatalf("before update: %v rows in 2009", got)
	}
	n, err := comments.UpdateWhere(func(relation.Row) bool { return true }, func(r relation.Row) relation.Row {
		r[year] = int64(2009)
		return r
	})
	if err != nil || n != 6 {
		t.Fatalf("update all = %d, %v", n, err)
	}
	if got := mustQuery(t, e, q).Rows[0][0]; got != int64(6) {
		t.Errorf("after update: %v rows in 2009, want 6", got)
	}
	n, err = comments.DeleteWhere(func(relation.Row) bool { return true })
	if err != nil || n != 6 {
		t.Fatalf("delete all = %d, %v", n, err)
	}
	if got := mustQuery(t, e, `SELECT COUNT(*) FROM Comments`).Rows[0][0]; got != int64(0) {
		t.Errorf("after delete: %v rows, want 0", got)
	}
}

func TestLexerEdges(t *testing.T) {
	// Escaped quote inside a string literal.
	e := testDB(t)
	res := mustQuery(t, e, `SELECT 'it''s fine' FROM Students WHERE SuID = 444`)
	if res.Rows[0][0] != "it's fine" {
		t.Errorf("escape = %q", res.Rows[0][0])
	}
	// Leading-dot float.
	res = mustQuery(t, e, `SELECT .5 + 1 FROM Students WHERE SuID = 444`)
	if res.Rows[0][0] != 1.5 {
		t.Errorf(".5+1 = %v", res.Rows[0][0])
	}
	if _, err := e.Query(`SELECT @ FROM Students`); err == nil {
		t.Error("stray character should fail")
	}
}

func TestJoinVariantsParse(t *testing.T) {
	e := testDB(t)
	for _, q := range []string{
		`SELECT s.Name FROM Comments m INNER JOIN Students s ON m.SuID = s.SuID LIMIT 1`,
		`SELECT s.Name FROM Comments m JOIN Students s ON m.SuID = s.SuID LIMIT 1`,
	} {
		if _, err := e.Query(q); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
	// Join with NULL keys never matches (the NULL-rating comment's
	// Rating joined against itself).
	res := mustQuery(t, e, `
		SELECT COUNT(*) FROM Comments a JOIN Comments b ON a.Rating = b.Rating AND a.SuID = 446 AND b.SuID = 446`)
	// Student 446 has ratings 5 (course 1) and NULL (course 5): only the
	// non-NULL row self-joins.
	if res.Rows[0][0] != int64(1) {
		t.Errorf("self join count = %v", res.Rows[0][0])
	}
}

func TestStatementStrings(t *testing.T) {
	// Exercise the String methods on a parse of each expression form.
	st, err := Parse(`SELECT COUNT(*), AVG(Name), A.B, -X, Title >= 'a', Y - 2
		FROM t WHERE A = 1 AND B BETWEEN 1 AND 2 AND C <> NULL AND D`)
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	for _, item := range st.List {
		parts = append(parts, item.Expr.String())
	}
	joined := strings.Join(parts, " | ")
	for _, want := range []string{"COUNT(*)", "AVG(Name)", "A.B", "- X", "(Title >= 'a')", "(Y - 2)"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in %q", want, joined)
		}
	}
	if st.Where.String() == "" {
		t.Error("where string")
	}
}

func TestEngineDBAccessor(t *testing.T) {
	db := relation.NewDB()
	e := New(db)
	if e.DB() != db {
		t.Error("DB accessor")
	}
}

func TestOffsetBeyondEnd(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT * FROM Students LIMIT 99`)
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
	res = mustQuery(t, e, `SELECT * FROM Students LIMIT 0`)
	if len(res.Rows) != 0 {
		t.Errorf("limit 0 rows = %v", res.Rows)
	}
}
