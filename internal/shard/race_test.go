package shard

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"courserank/internal/relation"
)

// TestConcurrentScatterGatherChurn drives concurrent Query readers —
// ordered, concatenated and joined fan-outs plus the pinned fast path
// and a pinned aggregate — against writes to the base tables that reach the shards
// through FollowBase, under -race in CI. When the writers stop, the
// cluster must answer exactly like the base with no propagation error,
// and no fan-out goroutine may remain: the goroutine count has to
// settle back to its baseline.
func TestConcurrentScatterGatherChurn(t *testing.T) {
	db, e := testBase(t)
	c, err := Split(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.FollowBase(db)
	ratings := db.MustTable("Ratings")
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	var rid atomic.Int64
	rid.Store(10_000)

	// Readers: every merge strategy, plus the fast path.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				var err error
				switch i % 4 {
				case 0: // ordered fan-out, each leg stopping at the LIMIT
					_, err = c.Query(`SELECT RID, SuID, Score FROM Ratings ORDER BY Score DESC, RID LIMIT 20`)
				case 1: // concat fan-out
					_, err = c.Query(`SELECT RID, SuID FROM Ratings`)
				case 2: // co-located join fan-out
					_, err = c.Query(`SELECT r.RID, p.PID FROM Ratings r JOIN Points p ON r.SuID = p.SuID`)
				default: // pinned fast path: a row read and an aggregate
					if _, err = c.Query(`SELECT RID, Score FROM Ratings WHERE SuID = ?`, int64(i%20)); err == nil {
						_, err = c.Query(`SELECT CID, COUNT(*), AVG(Score) FROM Ratings WHERE SuID = ? GROUP BY CID ORDER BY CID`, int64(i%20))
					}
				}
				if err != nil {
					t.Errorf("reader, shape %d: %v", i%4, err)
					return
				}
			}
		}()
	}

	// Writers: base inserts, updates, deletes and shard-key migrations,
	// which the FollowBase observers mirror into the owning shards.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				id := rid.Add(1)
				if _, err := ratings.Insert(relation.Row{id, id % 20, id % 8, 1 + i%5}); err != nil {
					t.Errorf("churn insert: %v", err)
					return
				}
				var err error
				switch {
				case i%3 == 0:
					err = updateWhere(ratings, "SuID", eq(id%20), "Score", int64(1+i%5))
				case i%7 == 0:
					err = deleteWhere(ratings, "RID", eq(id))
				case i%11 == 0:
					err = updateWhere(ratings, "RID", eq(id-1), "SuID", (id+7)%20)
				}
				if err != nil {
					t.Errorf("churn write: %v", err)
					return
				}
			}
		}()
	}

	wg.Wait()

	// Fan-out workers finish with their query; give them a bounded
	// window to exit, then require the baseline back.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	for _, q := range []string{
		`SELECT RID, SuID, CID, Score FROM Ratings ORDER BY RID`,
		`SELECT r.RID, p.PID, r.Score FROM Ratings r JOIN Points p ON r.SuID = p.SuID ORDER BY r.RID, p.PID`,
	} {
		got, err := c.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%q: shards diverged from the base after churn\ncluster: %v\nbase:    %v", q, got.Rows, want.Rows)
		}
	}
	if st := c.Stats(); st.FanOut == 0 || st.FastPath == 0 || st.ApplyErrors != 0 {
		t.Fatalf("churn did not cover routing paths, or propagation failed: %+v", st)
	}
}
