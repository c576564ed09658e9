package sqlmini

import (
	"strings"
	"sync"
	"testing"

	"courserank/internal/relation"
)

// TestConcurrentPrepareQueryMutate is the -race stress test for the
// shared plan cache: one engine serves concurrent one-shot queries,
// held prepared statements, forced-scan parity probes, and writers that
// mutate the probed table mid-flight — every mutation invalidating
// cached plans that readers immediately rebuild. Results are checked
// for internal consistency (the filter really held), not for a fixed
// count, since readers race the writers by design.
func TestConcurrentPrepareQueryMutate(t *testing.T) {
	db := relation.NewDB()
	e := New(db)
	courses := db.MustCreate(relation.MustTable("Courses", relation.NewSchema(
		relation.NotNullCol("CourseID", relation.TypeInt),
		relation.NotNullCol("Title", relation.TypeString),
		relation.NotNullCol("DepID", relation.TypeString),
	), relation.WithPrimaryKey("CourseID"), relation.WithIndex("DepID")))
	for i := 1; i <= 40; i++ {
		courses.MustInsert(relation.Row{i, "seed", []string{"cs", "ee", "me"}[i%3]})
	}

	const (
		readers = 4
		writers = 2
		iters   = 150
	)
	var wg sync.WaitGroup
	fail := make(chan string, readers*2+writers+2)

	// One-shot readers: every call goes through the cache, racing the
	// writers' invalidations.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dep := []string{"cs", "ee", "me"}[g%3]
			for i := 0; i < iters; i++ {
				res, err := e.Query(`SELECT CourseID, DepID FROM Courses WHERE DepID = ?`, dep)
				if err != nil {
					fail <- "one-shot: " + err.Error()
					return
				}
				for _, row := range res.Rows {
					if row[1] != dep {
						fail <- "one-shot: filter leaked row from other department"
						return
					}
				}
			}
		}(g)
	}

	// Held-statement readers: a single *Stmt shared across executions,
	// revalidating (and replanning) as versions move underneath it.
	st, err := e.Prepare(`SELECT Title FROM Courses WHERE CourseID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := st.Query(int64(1 + (g+i)%40))
				if err != nil {
					fail <- "prepared: " + err.Error()
					return
				}
				if len(res.Rows) > 1 {
					fail <- "prepared: pk lookup returned multiple rows"
					return
				}
			}
		}(g)
	}

	// Writers: churn rows in a dedicated id range, bumping the version
	// counter and invalidating every cached Courses plan each round.
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := int64(1000 + g)
			for i := 0; i < iters; i++ {
				if _, err := courses.Insert(relation.Row{id, "churn", "cs"}); err != nil {
					fail <- "insert: " + err.Error()
					return
				}
				if err := deleteByKey(courses, id); err != nil {
					fail <- "delete: " + err.Error()
					return
				}
			}
		}(g)
	}

	// Parity prober: forced-scan handle running beside the planning
	// engine — the scenario the old mutable SetForceScan flag raced on.
	wg.Add(1)
	go func() {
		defer wg.Done()
		forced := e.ForceScan()
		for i := 0; i < iters; i++ {
			if _, err := forced.Query(`SELECT * FROM Courses WHERE DepID = 'ee'`); err != nil {
				fail <- "forced: " + err.Error()
				return
			}
		}
	}()

	// DDL churner: drop and recreate a scratch table (same schema, new
	// identity) while a reader holds a statement against it. The reader
	// tolerates unknown-table windows; wrong results are failures.
	db.MustCreate(relation.MustTable("Scratch", relation.NewSchema(
		relation.NotNullCol("K", relation.TypeInt), relation.NotNullCol("V", relation.TypeString),
	), relation.WithPrimaryKey("K"))).MustInsert(relation.Row{1, "v"})
	scratchStmt, err := e.Prepare(`SELECT V FROM Scratch WHERE K = ?`)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		sch := db.MustTable("Scratch").Schema()
		for i := 0; i < iters; i++ {
			db.Drop("Scratch")
			nt := relation.MustTable("Scratch", sch, relation.WithPrimaryKey("K"))
			nt.MustInsert(relation.Row{int64(1), "v"})
			if err := db.Create(nt); err != nil {
				fail <- "ddl: " + err.Error()
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			res, err := scratchStmt.Query(int64(1))
			if err != nil {
				if strings.Contains(err.Error(), "unknown table") {
					continue // lost the drop/create race; acceptable
				}
				fail <- "scratch: " + err.Error()
				return
			}
			if len(res.Rows) == 1 && res.Rows[0][0] != "v" {
				fail <- "scratch: wrong value after DDL replan"
				return
			}
		}
	}()

	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}

	// The dust settled: the cache must converge back to pure hits.
	e.ResetCacheStats()
	for i := 0; i < 5; i++ {
		if _, err := st.Query(int64(1)); err != nil {
			t.Fatal(err)
		}
	}
	if cs := e.CacheStats(); cs.Misses > 1 {
		t.Errorf("cache did not settle after the storm: %+v", cs)
	}
}
