package sqlmini

import (
	"sync"
	"testing"

	"courserank/internal/relation"
)

// TestBatchedCursorsUnderDML is the -race stress test for the
// vectorized executor's slab machinery: engine handles at batch sizes
// 1, 7 and 256 stream range scans, hash joins and index probes off the
// same tables while writers churn rows, so transient arena recycling,
// the emit ramp and the storage cursors' per-batch lock acquisitions
// all run concurrently with DML at every slab geometry. Readers check
// invariants (filters hold, elided order ascends), not fixed counts —
// they race the writers by design — and close early half the time so
// partially consumed pipelines tear down under churn too.
func TestBatchedCursorsUnderDML(t *testing.T) {
	db := relation.NewDB()
	e := New(db)
	readings := db.MustCreate(relation.MustTable("Readings", relation.NewSchema(
		relation.NotNullCol("ID", relation.TypeInt),
		relation.NotNullCol("Sensor", relation.TypeInt),
		relation.NotNullCol("Val", relation.TypeInt),
	), relation.WithPrimaryKey("ID"), relation.WithOrderedIndex("Val"), relation.WithIndex("Sensor")))
	sensors := db.MustCreate(relation.MustTable("Sensors", relation.NewSchema(
		relation.NotNullCol("Sensor", relation.TypeInt),
		relation.NotNullCol("Zone", relation.TypeString),
	), relation.WithPrimaryKey("Sensor"), relation.WithOrderedIndex("Sensor")))
	for s := 0; s < 12; s++ {
		sensors.MustInsert(relation.Row{s, []string{"north", "south"}[s%2]})
	}
	for i := 0; i < 400; i++ {
		readings.MustInsert(relation.Row{i, i % 12, i % 90})
	}

	sized := []*Engine{e.WithBatchSize(1), e.WithBatchSize(7), e.WithBatchSize(256)}
	const iters = 60
	var wg sync.WaitGroup
	fail := make(chan string, 3*len(sized)+2)

	for bi, be := range sized {
		// Range readers: the elided-order ascending walk must hold at
		// every slab boundary, including slabs of one row.
		wg.Add(1)
		go func(be *Engine, bi int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rows, err := be.QueryRows(`SELECT ID, Val FROM Readings WHERE Val >= ? ORDER BY Val`, int64(30))
				if err != nil {
					fail <- "range open: " + err.Error()
					return
				}
				prev, n := int64(-1), 0
				for rows.Next() {
					var id, val int64
					if err := rows.Scan(&id, &val); err != nil {
						fail <- "range scan: " + err.Error()
						rows.Close()
						return
					}
					if val < 30 || val < prev {
						fail <- "range order or bound violated"
						rows.Close()
						return
					}
					prev = val
					if n++; i%2 == 1 && n >= 5 {
						break // early close: tear down a mid-slab pipeline
					}
				}
				rows.Close()
				if err := rows.Err(); err != nil {
					fail <- "range err: " + err.Error()
					return
				}
			}
		}(be, bi)

		// Join readers: a hash join streams its probe side through
		// buckets built once, emitting across batch boundaries.
		wg.Add(1)
		go func(be *Engine) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rows, err := be.QueryRows(`SELECT r.ID, s.Zone FROM Readings r JOIN Sensors s ON r.Sensor = s.Sensor`)
				if err != nil {
					fail <- "join open: " + err.Error()
					return
				}
				n := 0
				for rows.Next() {
					var id int64
					var zone string
					if err := rows.Scan(&id, &zone); err != nil {
						fail <- "join scan: " + err.Error()
						rows.Close()
						return
					}
					if zone != "north" && zone != "south" {
						fail <- "join produced an impossible zone"
						rows.Close()
						return
					}
					if n++; i%2 == 0 && n >= 9 {
						break
					}
				}
				rows.Close()
				if err := rows.Err(); err != nil {
					fail <- "join err: " + err.Error()
					return
				}
			}
		}(be)

		// Materializing readers: the retained-arena path under the same
		// churn, checked for filter integrity.
		wg.Add(1)
		go func(be *Engine) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := be.Query(`SELECT ID, Sensor FROM Readings WHERE Sensor = ?`, int64(i%12))
				if err != nil {
					fail <- "query: " + err.Error()
					return
				}
				for _, row := range res.Rows {
					if row[1] != int64(i%12) {
						fail <- "index probe leaked another sensor's row"
						return
					}
				}
			}
		}(be)
	}

	// Writers: inserts, deletes and updates move the ordered index and
	// the row count under every reader above.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := int64(1000 + w*10000)
			for i := 0; i < iters*3; i++ {
				if _, err := readings.Insert(relation.Row{id, i % 12, i % 90}); err != nil {
					fail <- "insert: " + err.Error()
					return
				}
				if i%3 == 0 {
					if err := deleteByKey(readings, id-2); err != nil {
						fail <- "delete: " + err.Error()
						return
					}
				}
				if i%5 == 0 {
					if err := updateByKey(readings, id, func(r relation.Row) { r[2] = int64((i * 7) % 90) }); err != nil {
						fail <- "update: " + err.Error()
						return
					}
				}
				id++
			}
		}(w)
	}

	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
}
