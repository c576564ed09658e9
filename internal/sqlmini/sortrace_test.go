package sqlmini

import (
	"strings"
	"sync"
	"testing"

	"courserank/internal/relation"
)

// scoredTable is an empty (ID, Score) table with Score ordered-indexed.
func scoredTable(name string) *relation.Table {
	return relation.MustTable(name, relation.NewSchema(
		relation.NotNullCol("ID", relation.TypeInt),
		relation.NotNullCol("Score", relation.TypeInt),
	), relation.WithPrimaryKey("ID"), relation.WithOrderedIndex("Score"))
}

// TestSortAwareCursorsUnderDML is the -race mirror of stream_test.go
// for the sort-aware executor paths: open descending-range, elided-order
// hash-join and band-join cursors pull rows while writers churn the
// same tables.
// Readers check internal consistency — emitted order honors the elided
// ORDER BY, every row satisfies its band, rows are well-formed — not
// fixed counts, since cursors legitimately observe a moving table.
func TestSortAwareCursorsUnderDML(t *testing.T) {
	db := relation.NewDB()
	e := New(db)
	events := db.MustCreate(scoredTable("Events"))
	peers := db.MustCreate(scoredTable("Peers"))
	bands := db.MustCreate(relation.MustTable("Bands", relation.NewSchema(
		relation.NotNullCol("ID", relation.TypeInt),
		relation.NotNullCol("Lo", relation.TypeInt),
		relation.NotNullCol("Hi", relation.TypeInt),
	), relation.WithPrimaryKey("ID")))
	for i := 0; i < 300; i++ {
		events.MustInsert(relation.Row{i, i % 100})
	}
	for i := 0; i < 80; i++ {
		peers.MustInsert(relation.Row{i, i % 100})
	}
	for i := 0; i < 40; i++ {
		bands.MustInsert(relation.Row{i, i * 2, i*2 + 10})
	}

	// Pin that the readers below actually exercise the new operators.
	for query, op := range map[string]string{
		`SELECT ID, Score FROM Events WHERE Score <= 80 ORDER BY Score DESC`:                                    "range scan desc",
		`SELECT e.ID, e.Score, p.ID FROM Events e JOIN Peers p ON e.Score = p.Score ORDER BY e.Score`:           "order by e.Score elided",
		`SELECT b.Lo, b.Hi, e.Score FROM Bands b JOIN Events e ON e.Score BETWEEN b.Lo AND b.Hi WHERE b.ID = 3`: "probe=range(Score)",
	} {
		out, err := e.Explain(query)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, op) {
			t.Fatalf("stress query does not ride %q:\n%s", op, out)
		}
	}

	const (
		readers = 2
		iters   = 80
	)
	var wg sync.WaitGroup
	fail := make(chan string, readers*4+4)

	// Descending readers: the elided DESC order must hold on every pull.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rows, err := e.QueryRows(`SELECT ID, Score FROM Events WHERE Score <= ? ORDER BY Score DESC`, int64(80))
				if err != nil {
					fail <- "desc open: " + err.Error()
					return
				}
				prev := int64(1 << 60)
				for rows.Next() {
					var id, score int64
					if err := rows.Scan(&id, &score); err != nil {
						fail <- "desc scan: " + err.Error()
						rows.Close()
						return
					}
					if score > 80 {
						fail <- "desc leaked an out-of-bounds row"
						rows.Close()
						return
					}
					if score > prev {
						fail <- "elided DESC order not non-increasing"
						rows.Close()
						return
					}
					prev = score
				}
				if err := rows.Err(); err != nil {
					fail <- "desc err: " + err.Error()
					return
				}
			}
		}()
	}

	// Join readers: stream a hash join over the driver's ordered walk,
	// closing early half the time.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rows, err := e.QueryRows(`SELECT e.ID, e.Score, p.ID FROM Events e JOIN Peers p ON e.Score = p.Score ORDER BY e.Score`)
				if err != nil {
					fail <- "join open: " + err.Error()
					return
				}
				prev, n := int64(-1), 0
				for rows.Next() {
					var eid, score, pid int64
					if err := rows.Scan(&eid, &score, &pid); err != nil {
						fail <- "join scan: " + err.Error()
						rows.Close()
						return
					}
					if score < prev {
						fail <- "hash join broke the elided key order"
						rows.Close()
						return
					}
					prev = score
					n++
					if i%2 == 0 && n == 7 {
						rows.Close()
					}
				}
				if err := rows.Err(); err != nil {
					fail <- "join err: " + err.Error()
					return
				}
			}
		}()
	}

	// Band readers: every emitted row must sit inside its own band.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rows, err := e.QueryRows(`SELECT b.Lo, b.Hi, e.Score FROM Bands b JOIN Events e ON e.Score BETWEEN b.Lo AND b.Hi WHERE b.ID = ?`, int64((g*17+i)%40))
				if err != nil {
					fail <- "band open: " + err.Error()
					return
				}
				for rows.Next() {
					var lo, hi, score int64
					if err := rows.Scan(&lo, &hi, &score); err != nil {
						fail <- "band scan: " + err.Error()
						rows.Close()
						return
					}
					if score < lo || score > hi {
						fail <- "band probe emitted an out-of-band row"
						rows.Close()
						return
					}
				}
				if err := rows.Err(); err != nil {
					fail <- "band err: " + err.Error()
					return
				}
			}
		}(g)
	}

	// Writers: churn the probed/merged tables under the open cursors.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := int64(1000 + 200*g)
			for i := 0; i < iters; i++ {
				id := base + int64(i%60)
				if _, err := events.Insert(relation.Row{id, i % 100}); err != nil {
					fail <- "insert: " + err.Error()
					return
				}
				if err := updateByKey(events, id, func(r relation.Row) { r[1] = r[1].(int64) + 3 }); err != nil {
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

// TestDegradedSortPathsUnderDDLRace drives the index-vanishes-mid-race
// degraded paths: a DDL goroutine repeatedly replaces the Vanish table
// with a same-name clone that alternates between carrying and lacking
// its ordered index, while readers run descending-elided and
// elided-order join plans against it. A reader racing the swap may execute a stale plan
// against the index-less replacement — the degraded checked-scan
// fallback — and must STILL emit correct order; in the drop/create
// window itself "unknown table" is the one acceptable error.
func TestDegradedSortPathsUnderDDLRace(t *testing.T) {
	db := relation.NewDB()
	e := New(db)
	peers := db.MustCreate(scoredTable("Peers"))
	for i := 0; i < 50; i++ {
		peers.MustInsert(relation.Row{i, i % 20})
	}
	vanishSchema := relation.NewSchema(
		relation.NotNullCol("ID", relation.TypeInt),
		relation.NotNullCol("V", relation.TypeInt),
	)
	makeVanish := func(withIndex bool) *relation.Table {
		opts := []relation.TableOption{relation.WithPrimaryKey("ID")}
		if withIndex {
			opts = append(opts, relation.WithOrderedIndex("V"))
		}
		tbl := relation.MustTable("Vanish", vanishSchema, opts...)
		for i := 0; i < 60; i++ {
			tbl.MustInsert(relation.Row{int64(i), int64(i % 20)})
		}
		return tbl
	}
	db.MustCreate(makeVanish(true))

	const iters = 60
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	tolerable := func(err error) bool {
		return strings.Contains(err.Error(), "unknown table")
	}

	// DDL churn: the replacement alternates index-on/index-off, so stale
	// plans land on both the healthy and the degraded path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			db.Drop("Vanish")
			db.MustCreate(makeVanish(i%2 == 1))
		}
	}()

	// Descending reader over the churned table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters*2; i++ {
			res, err := e.Query(`SELECT ID, V FROM Vanish WHERE V >= ? ORDER BY V DESC`, int64(5))
			if err != nil {
				if tolerable(err) {
					continue
				}
				fail <- "vanish desc: " + err.Error()
				return
			}
			prev := int64(1 << 60)
			for _, row := range res.Rows {
				v := row[1].(int64)
				if v < 5 {
					fail <- "vanish desc leaked an out-of-bounds row"
					return
				}
				if v > prev {
					fail <- "vanish desc order not non-increasing (degraded path broke elision)"
					return
				}
				prev = v
			}
		}
	}()

	// Join reader: the churned table drives, its elided order must hold.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters*2; i++ {
			res, err := e.Query(`SELECT v.ID, v.V, p.ID FROM Vanish v JOIN Peers p ON v.V = p.Score ORDER BY v.V`)
			if err != nil {
				if tolerable(err) {
					continue
				}
				fail <- "vanish join: " + err.Error()
				return
			}
			prev := int64(-1)
			for _, row := range res.Rows {
				v := row[1].(int64)
				if v < prev {
					fail <- "vanish join broke key order (degraded driver unsorted?)"
					return
				}
				prev = v
			}
		}
	}()

	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
}
