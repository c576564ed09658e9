package sqlmini

import (
	"fmt"
	"testing"
	"testing/quick"

	"courserank/internal/relation"
)

func TestCaseSearchedForm(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `
		SELECT Title, CASE WHEN Units >= 5 THEN 'heavy' WHEN Units >= 4 THEN 'medium' ELSE 'light' END AS Load
		FROM Courses ORDER BY CourseID`)
	want := []string{"heavy", "medium", "medium", "light", "light"}
	for i, w := range want {
		if res.Rows[i][1] != w {
			t.Errorf("row %d load = %v, want %s", i, res.Rows[i][1], w)
		}
	}
}

func TestCaseOperandForm(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `
		SELECT CASE DepID WHEN 'CS' THEN 'engineering' WHEN 'HIST' THEN 'humanities' END AS School,
		COUNT(*) AS N
		FROM Courses GROUP BY DepID ORDER BY DepID`)
	bySchool := map[any]any{}
	for _, r := range res.Rows {
		bySchool[r[0]] = r[1]
	}
	if bySchool["engineering"] != int64(3) {
		t.Errorf("engineering = %v", bySchool["engineering"])
	}
	if bySchool["humanities"] != int64(1) {
		t.Errorf("humanities = %v", bySchool["humanities"])
	}
	// CLASSICS has no arm and no ELSE → NULL.
	if _, ok := bySchool[nil]; !ok {
		t.Errorf("missing NULL bucket: %v", bySchool)
	}
}

func TestCaseInsideAggregate(t *testing.T) {
	e := testDB(t)
	// Conditional counting — the classic CASE-in-SUM idiom.
	res := mustQuery(t, e, `
		SELECT SUM(CASE WHEN Rating >= 4 THEN 1 ELSE 0 END) AS Good,
		       SUM(CASE WHEN Rating < 4 THEN 1 ELSE 0 END) AS Bad
		FROM Comments`)
	if res.Rows[0][0] != int64(4) || res.Rows[0][1] != int64(1) {
		t.Errorf("good/bad = %v/%v", res.Rows[0][0], res.Rows[0][1])
	}
}

func TestCaseNullOperandNeverMatches(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `
		SELECT CASE Rating WHEN 5 THEN 'five' ELSE 'other' END
		FROM Comments WHERE CourseID = 5`)
	// Course 5's one comment has NULL rating: NULL matches no arm.
	if res.Rows[0][0] != "other" {
		t.Errorf("NULL operand = %v", res.Rows[0][0])
	}
}

func TestCaseParseErrors(t *testing.T) {
	e := testDB(t)
	for _, q := range []string{
		`SELECT CASE END FROM Courses`,
		`SELECT CASE WHEN 1 FROM Courses`,
		`SELECT CASE WHEN 1 THEN 2 FROM Courses`,
	} {
		if _, err := e.Query(q); err == nil {
			t.Errorf("expected parse error for %q", q)
		}
	}
}

func TestCaseString(t *testing.T) {
	st, err := Parse(`SELECT CASE A WHEN 1 THEN 'x' ELSE 'y' END FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	s := st.List[0].Expr.String()
	if s != "CASE A WHEN 1 THEN 'x' ELSE 'y' END" {
		t.Errorf("String = %q", s)
	}
}

// Property: for random rows, a WHERE predicate over the SQL engine
// agrees with direct evaluation of the same predicate per row.
func TestWhereAgreesWithDirectEvalProperty(t *testing.T) {
	f := func(vals []int16) bool {
		db := relation.NewDB()
		eng := New(db)
		tbl := db.MustCreate(relation.MustTable("T", relation.NewSchema(
			relation.NotNullCol("ID", relation.TypeInt), relation.Col("V", relation.TypeInt),
		), relation.WithPrimaryKey("ID"), relation.WithAutoIncrement("ID")))
		for _, v := range vals {
			if _, err := tbl.Insert(relation.Row{nil, int64(v)}); err != nil {
				return false
			}
		}
		preds := []string{
			"V > 0", "V % 2 = 0", "V BETWEEN -100 AND 100",
			"CASE WHEN V < 0 THEN 1 ELSE 0 END = 1", "ABS(V) >= 50",
		}
		for _, pred := range preds {
			res, err := eng.Query(fmt.Sprintf("SELECT V FROM T WHERE %s", pred))
			if err != nil {
				return false
			}
			expr, err := ParseExpr(pred)
			if err != nil {
				return false
			}
			want := 0
			for _, v := range vals {
				got, err := EvalExpr(expr, []string{"V"}, []relation.Value{int64(v)})
				if err != nil {
					return false
				}
				if relation.Truthy(got) {
					want++
				}
			}
			if len(res.Rows) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: GROUP BY counts partition the table — the per-group COUNTs
// sum to the row count for random data.
func TestGroupByPartitionProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		db := relation.NewDB()
		eng := New(db)
		tbl := db.MustCreate(relation.MustTable("T", relation.NewSchema(
			relation.Col("K", relation.TypeInt), relation.Col("V", relation.TypeInt),
		)))
		for i, v := range vals {
			if _, err := tbl.Insert(relation.Row{int64(v % 5), int64(i)}); err != nil {
				return false
			}
		}
		res, err := eng.Query(`SELECT K, COUNT(*) FROM T GROUP BY K`)
		if err != nil {
			return false
		}
		total := int64(0)
		for _, r := range res.Rows {
			total += r[1].(int64)
		}
		return total == int64(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: ORDER BY produces a non-decreasing sequence under the
// engine's value ordering.
func TestOrderBySortedProperty(t *testing.T) {
	f := func(vals []int16) bool {
		db := relation.NewDB()
		eng := New(db)
		tbl := db.MustCreate(relation.MustTable("T", relation.NewSchema(relation.Col("V", relation.TypeInt))))
		for _, v := range vals {
			if _, err := tbl.Insert(relation.Row{int64(v)}); err != nil {
				return false
			}
		}
		res, err := eng.Query(`SELECT V FROM T ORDER BY V`)
		if err != nil {
			return false
		}
		for i := 1; i < len(res.Rows); i++ {
			if relation.Compare(res.Rows[i-1][0], res.Rows[i][0]) > 0 {
				return false
			}
		}
		return len(res.Rows) == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
