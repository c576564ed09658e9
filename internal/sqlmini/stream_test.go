package sqlmini

import (
	"reflect"
	"sync"
	"testing"

	"courserank/internal/relation"
)

// TestRowsStreamParity: the streaming cursor must produce exactly the
// rows the materialized path does, for plain projections, range-driven
// plans, joins, and elided-ORDER BY with LIMIT — all of which
// now stream end to end.
func TestRowsStreamParity(t *testing.T) {
	e := plannerDB(t)
	queries := []struct {
		sql  string
		args []any
	}{
		{`SELECT CourseID, Title FROM Courses WHERE DepID = ?`, []any{"cs"}},
		{`SELECT CourseID, Year FROM CourseYears WHERE Year >= 2009`, nil},
		{`SELECT CourseID, Year FROM CourseYears WHERE Year >= ? ORDER BY Year`, []any{2008}},
		{`SELECT CourseID, Year FROM CourseYears WHERE Year >= 2008 ORDER BY Year LIMIT 5`, nil},
		{`SELECT c.Title, m.Rating FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID WHERE m.SuID = 2`, nil},
		{`SELECT m.CommentID, en.CourseID FROM Comments m JOIN Enrollments en ON m.SuID = en.SuID WHERE m.CommentID = 1`, nil},
	}
	for _, q := range queries {
		want, err := e.Query(q.sql, q.args...)
		if err != nil {
			t.Fatalf("%q: %v", q.sql, err)
		}
		rows, err := e.QueryRows(q.sql, q.args...)
		if err != nil {
			t.Fatalf("%q: %v", q.sql, err)
		}
		var got []relation.Row
		for rows.Next() {
			dest := make([]any, len(rows.Columns()))
			ptrs := make([]any, len(dest))
			for i := range dest {
				ptrs[i] = &dest[i]
			}
			if err := rows.Scan(ptrs...); err != nil {
				t.Fatalf("%q: %v", q.sql, err)
			}
			got = append(got, relation.Row(dest))
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("%q: %v", q.sql, err)
		}
		if len(got) != len(want.Rows) {
			t.Fatalf("%q: streamed %d rows, materialized %d", q.sql, len(got), len(want.Rows))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want.Rows[i]) {
				t.Fatalf("%q row %d: streamed %v, materialized %v", q.sql, i, got[i], want.Rows[i])
			}
		}
	}
}

// TestRowsEarlyCloseStopsPipeline: a partially consumed streaming Rows
// can be closed mid-iteration; further Next calls return false and no
// error surfaces.
func TestRowsEarlyCloseStopsPipeline(t *testing.T) {
	e := plannerDB(t)
	rows, err := e.QueryRows(`SELECT m.CommentID, c.Title FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
		if n == 3 {
			rows.Close()
		}
	}
	if n != 3 {
		t.Fatalf("iterated %d rows after Close at 3", n)
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if rows.Next() {
		t.Fatal("Next after Close should stay false")
	}
}

// TestStreamingUnderDML is the -race test for the iterator executor:
// open Rows cursors pull rows (plain scans, range scans and joins)
// while writers churn the same tables. Readers check internal
// consistency — every streamed row satisfies its predicate and is
// well-formed — not fixed counts, since cursors legitimately observe a
// moving table.
func TestStreamingUnderDML(t *testing.T) {
	db := relation.NewDB()
	e := New(db)
	events := db.MustCreate(relation.MustTable("Events", relation.NewSchema(
		relation.NotNullCol("ID", relation.TypeInt),
		relation.NotNullCol("Kind", relation.TypeString),
		relation.NotNullCol("Score", relation.TypeInt),
	), relation.WithPrimaryKey("ID"), relation.WithIndex("Kind"), relation.WithOrderedIndex("Score")))
	kinds := db.MustCreate(relation.MustTable("Kinds", relation.NewSchema(
		relation.NotNullCol("Kind", relation.TypeString),
		relation.NotNullCol("Label", relation.TypeString),
	), relation.WithIndex("Kind")))
	for _, k := range []string{"a", "b", "c"} {
		kinds.MustInsert(relation.Row{k, "label-" + k})
	}
	for i := 0; i < 300; i++ {
		events.MustInsert(relation.Row{i, []string{"a", "b", "c"}[i%3], i % 100})
	}

	const (
		readers = 3
		writers = 2
		iters   = 120
	)
	var wg sync.WaitGroup
	fail := make(chan string, readers*3+writers)

	// Range readers: stream a range cursor while rows come and go.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rows, err := e.QueryRows(`SELECT ID, Score FROM Events WHERE Score >= ? ORDER BY Score`, int64(40))
				if err != nil {
					fail <- "range open: " + err.Error()
					return
				}
				prev := int64(-1)
				for rows.Next() {
					var id, score int64
					if err := rows.Scan(&id, &score); err != nil {
						fail <- "range scan: " + err.Error()
						rows.Close()
						return
					}
					if score < 40 {
						fail <- "range leaked an out-of-bounds row"
						rows.Close()
						return
					}
					if score < prev {
						fail <- "elided order not ascending"
						rows.Close()
						return
					}
					prev = score
				}
				if err := rows.Err(); err != nil {
					fail <- "range err: " + err.Error()
					return
				}
			}
		}(g)
	}

	// Join readers: stream a hash join, closing early half the time.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rows, err := e.QueryRows(`SELECT ev.ID, k.Label FROM Events ev JOIN Kinds k ON ev.Kind = k.Kind WHERE ev.Score < 50`)
				if err != nil {
					fail <- "join open: " + err.Error()
					return
				}
				n := 0
				for rows.Next() {
					var id any
					var label string
					if err := rows.Scan(&id, &label); err != nil {
						fail <- "join scan: " + err.Error()
						rows.Close()
						return
					}
					if len(label) < 6 || label[:6] != "label-" {
						fail <- "join produced a malformed row"
						rows.Close()
						return
					}
					n++
					if i%2 == 0 && n == 5 {
						rows.Close()
					}
				}
				if err := rows.Err(); err != nil {
					fail <- "join err: " + err.Error()
					return
				}
			}
		}(g)
	}

	// Writers: churn a dedicated id range under the open cursors.
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := int64(1000 + 100*g)
			for i := 0; i < iters; i++ {
				id := base + int64(i%50)
				if _, err := events.Insert(relation.Row{id, "b", 45 + i%20}); err != nil {
					fail <- "insert: " + err.Error()
					return
				}
				if err := updateByKey(events, id, func(r relation.Row) { r[2] = r[2].(int64) + 1 }); err != nil {
					fail <- "update: " + err.Error()
					return
				}
				if err := deleteByKey(events, id); err != nil {
					fail <- "delete: " + err.Error()
					return
				}
			}
		}(g)
	}

	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
}

// TestDegradedRangeFallbackKeepsElidedOrder pins the executor's last
// line of defense: a plan that elided its ORDER BY on the strength of
// an ordered index, executed against a same-name replacement table that
// lost the index (the DROP/CREATE race window before invalidation),
// must still return rows in sort order — the fallback scan re-sorts.
func TestDegradedRangeFallbackKeepsElidedOrder(t *testing.T) {
	db := relation.NewDB()
	e := New(db)
	tbl := db.MustCreate(relation.MustTable("T", relation.NewSchema(
		relation.NotNullCol("ID", relation.TypeInt), relation.NotNullCol("V", relation.TypeInt),
	), relation.WithPrimaryKey("ID"), relation.WithOrderedIndex("V")))
	for i, v := range []int64{7, 2, 9, 4, 6, 3, 8} {
		tbl.MustInsert(relation.Row{i, v})
	}
	en, err := e.buildEntry(`SELECT ID, V FROM T WHERE V >= 3 ORDER BY V`)
	if err != nil {
		t.Fatal(err)
	}
	if !en.sel.plan.orderElide {
		t.Fatal("plan should elide the sort while the ordered index exists")
	}
	// Replace T with an index-less clone holding the same rows.
	old := db.MustTable("T")
	db.Drop("T")
	fresh := relation.MustTable("T", old.Schema(), relation.WithPrimaryKey("ID"))
	old.Scan(func(_ int, r relation.Row) bool {
		fresh.MustInsert(r.Clone())
		return true
	})
	db.MustCreate(fresh)
	res, err := e.execSelect(en.sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows: %v", res.Rows)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][1].(int64) < res.Rows[i-1][1].(int64) {
			t.Fatalf("degraded fallback broke the elided order: %v", res.Rows)
		}
	}
}

// countingSource is a batchSource over the rows 0…n-1 that counts its
// fetches — each one a storage lock acquisition on a real table.
type countingSource struct {
	next, n, fetches int
}

func (s *countingSource) NextBatch(dst []relation.Row) int {
	s.fetches++
	k := 0
	for ; k < len(dst) && s.next < s.n; k++ {
		dst[k] = relation.Row{int64(s.next)}
		s.next++
	}
	return k
}

// TestScanRefillGrowsThroughFilteredFetches: a selective pushed filter
// that empties fetch after fetch must not pin the scan to its first
// fetch size. Whatever the first fetch (the default, or the one row a
// LIMIT 1 goal asks for), every full fetch grows the next ×4 up to the
// batch, so reading 10 000 rows for the one that passes takes about
// 10 000/defaultBatch fetches, not one per first-fetch size of rows.
func TestScanRefillGrowsThroughFilteredFetches(t *testing.T) {
	const n = 10_000
	last := &Binary{Op: "=", L: &boundRef{idx: 0, orig: &Ref{Name: "ID"}}, R: &Lit{V: int64(n - 1)}}
	for _, first := range []int{0, 1} {
		src := &countingSource{n: n}
		cur := &limitCursor{remain: 1, in: &batchScanCursor{src: src, rs: &rowset{cols: []colRef{{name: "ID"}}},
			filter: []Expr{last}, batchN: defaultBatch, first: first}}
		rows, err := drainCursor(cur, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0] != int64(n-1) {
			t.Fatalf("first fetch %d: got %v, want the last row alone", first, rows)
		}
		if max := n/defaultBatch + 8; src.fetches > max {
			t.Errorf("first fetch %d: LIMIT 1 took %d storage fetches for %d rows, want at most %d",
				first, src.fetches, n, max)
		}
	}
}
