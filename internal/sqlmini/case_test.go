package sqlmini

import (
	"fmt"
	"testing"
	"testing/quick"

	"courserank/internal/relation"
)

// TestCaseParseErrors: CASE is outside the dialect and a reserved
// word, so no CASE form — malformed or not — parses, not even as a
// column named CASE with an alias.
func TestCaseParseErrors(t *testing.T) {
	e := testDB(t)
	for _, q := range []string{
		`SELECT CASE END FROM Courses`,
		`SELECT CASE WHEN 1 FROM Courses`,
		`SELECT CASE WHEN 1 THEN 2 FROM Courses`,
		`SELECT CASE WHEN Units >= 5 THEN 'heavy' ELSE 'light' END FROM Courses`,
		`SELECT CASE FROM Courses`,
	} {
		if _, err := e.Query(q); err == nil {
			t.Errorf("expected parse error for %q", q)
		}
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
			"V > 0", "V - 1 >= 2", "V BETWEEN -100 AND 100",
			"-V > 10 AND V <> -50", "(V >= 50) = TRUE",
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
