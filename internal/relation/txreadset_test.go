package relation

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"courserank/internal/wal"
)

// TestTxReadSetPrecision pins what a transaction's reads promise at
// Commit. A write that changes what a read returned — a phantom row
// matching a Lookup, the key a Get missed, a row a read returned being
// updated or deleted — makes Commit return ErrTxConflict and apply
// nothing. A write to a row no read returned does not: the review path
// reads by key and by index, so concurrent reviews of other students
// and courses must not conflict with it.
func TestTxReadSetPrecision(t *testing.T) {
	lookup10 := func(tx *Tx, kv *Table) { tx.Lookup(kv, "Num", int64(10)) }
	get := func(id int64) func(*Tx, *Table) {
		return func(tx *Tx, kv *Table) { tx.Get(kv, id) }
	}
	insert := func(id, num int64) func(*Table) error {
		return func(kv *Table) error { _, err := kv.Insert(Row{id, "new", num}); return err }
	}
	update := func(id int64, set func(Row) Row) func(*Table) error {
		return func(kv *Table) error { return kv.UpdateByKey([]Value{id}, set) }
	}
	rename := func(r Row) Row { r[1] = "renamed"; return r }
	moveTo10 := func(r Row) Row { r[2] = int64(10); return r }
	cases := []struct {
		name     string
		read     func(*Tx, *Table)
		write    func(*Table) error
		conflict bool
	}{
		{"lookup, then a matching insert (phantom)", lookup10, insert(3, 10), true},
		{"lookup, then an update of a returned row", lookup10, update(1, rename), true},
		{"lookup, then a row moved into the value", lookup10, update(2, moveTo10), true},
		{"lookup, then a non-matching insert", lookup10, insert(3, 30), false},
		{"lookup, then an update of a non-matching row", lookup10, update(2, rename), false},
		{"get miss, then an insert of that key", get(5), insert(5, 50), true},
		{"get miss, then an insert of another key", get(5), insert(6, 60), false},
		{"get, then an update of that row", get(1), update(1, rename), true},
		{"get, then a delete of that row", get(1), func(kv *Table) error {
			_, err := kv.DeleteWhere(func(r Row) bool { return r[0] == int64(1) })
			return err
		}, true},
		{"get, then an update of another row", get(1), update(2, rename), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := NewDB()
			kv := db.MustCreate(kvTable())
			out := db.MustCreate(MustTable("Out", NewSchema(NotNullCol("ID", TypeInt)), WithPrimaryKey("ID")))
			kv.MustInsert(Row{int64(1), "a", int64(10)})
			kv.MustInsert(Row{int64(2), "b", int64(20)})

			tx := db.Begin()
			c.read(tx, kv)
			if _, err := tx.Insert(out, Row{int64(1)}); err != nil {
				t.Fatal(err)
			}
			if err := c.write(kv); err != nil {
				t.Fatal(err)
			}
			err := tx.Commit()
			switch {
			case c.conflict && !errors.Is(err, ErrTxConflict):
				t.Fatalf("Commit = %v, want ErrTxConflict", err)
			case c.conflict && out.Len() != 0:
				t.Fatal("a conflicted transaction applied its insert")
			case !c.conflict && err != nil:
				t.Fatalf("Commit = %v, want success: no read changed", err)
			case !c.conflict && out.Len() != 1:
				t.Fatal("a committed transaction lost its insert")
			}
		})
	}
}

// The review-shaped schema of the serializability oracle: enrolments
// looked up by student, comments with an auto-increment id, and one
// rating per (student, course).
func reviewTables(db *DB) (enroll, comments, ratings *Table) {
	enroll = db.MustCreate(MustTable("Enrollments",
		NewSchema(NotNullCol("SuID", TypeInt), NotNullCol("CourseID", TypeInt), NotNullCol("Term", TypeInt)),
		WithIndex("SuID")))
	comments = db.MustCreate(MustTable("Comments",
		NewSchema(NotNullCol("CommentID", TypeInt), NotNullCol("SuID", TypeInt), NotNullCol("CourseID", TypeInt)),
		WithPrimaryKey("CommentID"), WithAutoIncrement("CommentID")))
	ratings = db.MustCreate(MustTable("Ratings",
		NewSchema(NotNullCol("SuID", TypeInt), NotNullCol("CourseID", TypeInt), NotNullCol("Rating", TypeInt)),
		WithPrimaryKey("SuID", "CourseID")))
	return enroll, comments, ratings
}

// review is one review-shaped transaction and what it read. It
// enrolls, rates or both, and always comments.
type review struct {
	su, course, term, rating int64
	enroll, rate, sawRating  bool
}

// TestTxSerializableOracle runs concurrent review-shaped transactions —
// a Lookup of the student's enrolments, inserts, a Get of the rating's
// key and an UpdateByKey when it exists — over a few students and
// courses, so they collide often. Some only enroll and some only rate,
// so each kind of read is the only thing that orders some pairs. Commit order is read off the Comments
// observer, which every committed review reaches exactly once inside
// its commit. Replaying the committed reviews in that order against a
// shadow map must reproduce what each one read and the final state of
// every table (after a kill-replay, on the durable store); conflicted
// and rolled-back reviews leave no trace.
func TestTxSerializableOracle(t *testing.T) {
	run := func(t *testing.T, db *DB, reopen func() *DB) {
		enroll, comments, ratings := reviewTables(db)
		var mu sync.Mutex
		var order []int64
		comments.Observe(func(k MutKind, _, after Row, _ VersionSpan) {
			if k == MutInsert {
				order = append(order, after[0].(int64)) // under the table lock
			}
		})
		committed := map[int64]review{}
		var conflicts, rolledBack int

		const workers, perWorker = 4, 150
		done := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < perWorker; i++ {
					shape := rng.Intn(3)
					rv := review{su: rng.Int63n(4), course: rng.Int63n(3), term: rng.Int63n(40), rating: 1 + rng.Int63n(5),
						enroll: shape != 2, rate: shape != 1}
					id, err := runReview(db, enroll, comments, ratings, &rv, rng.Intn(8) == 0)
					mu.Lock()
					switch {
					case err == nil:
						committed[id] = rv
					case errors.Is(err, ErrTxConflict):
						conflicts++
					case errors.Is(err, errRolledBack):
						rolledBack++
					default:
						t.Error(err)
					}
					mu.Unlock()
				}
			}(int64(w + 1))
		}
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("review transactions hung")
		}
		if conflicts == 0 || len(committed) == 0 {
			t.Fatalf("%d commits and %d conflicts: the workload never raced", len(committed), conflicts)
		}
		if st := db.TxStats(); st.Conflicts != uint64(conflicts) || st.Committed != uint64(len(committed)) || st.Active != 0 {
			t.Fatalf("TxStats %+v, counted %d commits and %d conflicts", st, len(committed), conflicts)
		}

		type pair struct{ su, course int64 }
		type enrolment struct{ su, course, term int64 }
		shadowEnroll := map[enrolment]bool{}
		shadowRating := map[pair]int64{}
		shadowComment := map[int64]pair{}
		if len(order) != len(committed) {
			t.Fatalf("%d comments delivered, %d reviews committed", len(order), len(committed))
		}
		for _, id := range order {
			rv, ok := committed[id]
			if !ok {
				t.Fatalf("comment %d delivered by a review that did not commit", id)
			}
			if e := (enrolment{rv.su, rv.course, rv.term}); rv.enroll {
				if shadowEnroll[e] {
					t.Fatalf("comment %d: a duplicate enrolment committed", id)
				}
				shadowEnroll[e] = true
			}
			if rv.rate {
				if _, had := shadowRating[pair{rv.su, rv.course}]; had != rv.sawRating {
					t.Fatalf("comment %d: the review saw a rating %v, the serial order says %v", id, rv.sawRating, had)
				}
				shadowRating[pair{rv.su, rv.course}] = rv.rating
			}
			shadowComment[id] = pair{rv.su, rv.course}
		}

		check := func(label string, db *DB) {
			t.Helper()
			gotEnroll := map[enrolment]bool{}
			db.MustTable("Enrollments").Scan(func(_ int, r Row) bool {
				gotEnroll[enrolment{r[0].(int64), r[1].(int64), r[2].(int64)}] = true
				return true
			})
			gotRating := map[pair]int64{}
			db.MustTable("Ratings").Scan(func(_ int, r Row) bool {
				gotRating[pair{r[0].(int64), r[1].(int64)}] = r[2].(int64)
				return true
			})
			gotComment := map[int64]pair{}
			db.MustTable("Comments").Scan(func(_ int, r Row) bool {
				gotComment[r[0].(int64)] = pair{r[1].(int64), r[2].(int64)}
				return true
			})
			if n := db.MustTable("Enrollments").Len(); n != len(shadowEnroll) {
				t.Fatalf("%s: %d enrolments, the serial replay has %d", label, n, len(shadowEnroll))
			}
			if !reflect.DeepEqual(gotEnroll, shadowEnroll) || !reflect.DeepEqual(gotRating, shadowRating) || !reflect.DeepEqual(gotComment, shadowComment) {
				t.Fatalf("%s: the tables differ from the serial replay of %d committed reviews", label, len(committed))
			}
		}
		check("live", db)
		if reopen != nil {
			check("after kill-replay", reopen())
		}
		t.Logf("%d committed, %d conflicted, %d rolled back", len(committed), conflicts, rolledBack)
	}

	t.Run("memory", func(t *testing.T) { run(t, NewDB(), nil) })
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncNone, CheckpointEvery: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		run(t, db, func() *DB {
			if store.Stats().Checkpoints == 0 {
				t.Fatal("no auto-checkpoint ran")
			}
			db2, store2, err := OpenDurable(copyDir(t, dir), DurableOptions{Sync: wal.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store2.Close() })
			return db2
		})
	})
}

var errRolledBack = errors.New("rolled back")

// runReview is core.EnrollCommentRate's shape: refuse a duplicate
// enrolment and insert it, insert a comment, upsert the rating by key.
// With abort set it rolls back instead of committing.
func runReview(db *DB, enroll, comments, ratings *Table, rv *review, abort bool) (int64, error) {
	tx := db.Begin()
	if rv.enroll {
		for _, r := range tx.Lookup(enroll, "SuID", rv.su) {
			if r[1] == rv.course && r[2] == rv.term {
				tx.Rollback()
				return 0, errRolledBack
			}
		}
		if _, err := tx.Insert(enroll, Row{rv.su, rv.course, rv.term}); err != nil {
			tx.Rollback()
			return 0, err
		}
	}
	c, err := tx.Insert(comments, Row{nil, rv.su, rv.course})
	if err != nil {
		tx.Rollback()
		return 0, err
	}
	if key := []Value{rv.su, rv.course}; rv.rate {
		if _, rv.sawRating = tx.Get(ratings, key...); rv.sawRating {
			err = tx.UpdateByKey(ratings, key, func(r Row) Row { r[2] = rv.rating; return r })
		} else {
			_, err = tx.Insert(ratings, Row{rv.su, rv.course, rv.rating})
		}
	}
	if err != nil || abort {
		tx.Rollback()
		if err == nil {
			err = errRolledBack
		}
		return 0, err
	}
	return c[0].(int64), tx.Commit()
}

// txFailStore accepts every record except the failAt-th transaction
// record (1-based, commit records included), which it refuses.
type txFailStore struct {
	failingStore
	failAt, n int
}

func (f *txFailStore) txAppend() (uint64, error) {
	f.n++
	if f.n == f.failAt {
		return 0, fmt.Errorf("poisoned log")
	}
	return uint64(f.n), nil
}

func (f *txFailStore) LogTxMutations(uint64, string, []Mutation) (uint64, error) {
	return f.txAppend()
}
func (f *txFailStore) LogTxCommit(uint64) (uint64, error) { return f.txAppend() }

// tableState is everything a failed commit must leave as it found it.
type tableState struct {
	Rows    []Row
	PK      map[string]int
	Index   map[string][]int
	Ordered []orderedEntry
	Live    int
	Version uint64
}

func stateOf(t *Table) tableState {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := tableState{
		Rows:    append([]Row(nil), t.rows...),
		PK:      map[string]int{},
		Index:   map[string][]int{},
		Ordered: append([]orderedEntry(nil), t.ordered[t.schema.MustIndex("num")].entries...),
		Live:    t.live,
		Version: t.version,
	}
	for k, s := range t.pkIndex {
		st.PK[k] = s
	}
	for k, slots := range t.hash[t.schema.MustIndex("num")].slots {
		st.Index[k] = append([]int(nil), slots...)
		sort.Ints(st.Index[k])
	}
	return st
}

// TestTxCommitWALFailure: when the WAL refuses one of a commit's
// records — the first table's, the second table's or the commit record
// itself — Commit returns the error, every touched table keeps its
// rows, indexes, primary-key map and Version(), and no observer fires.
func TestTxCommitWALFailure(t *testing.T) {
	for failAt, label := range map[int]string{1: "first table record", 2: "second table record", 3: "commit record"} {
		t.Run(label, func(t *testing.T) {
			db := NewDB()
			var tables []*Table
			for _, name := range []string{"A", "B"} {
				tbl := db.MustCreate(MustTable(name,
					NewSchema(NotNullCol("ID", TypeInt), Col("Val", TypeString), Col("Num", TypeInt)),
					WithPrimaryKey("ID"), WithAutoIncrement("ID"), WithIndex("Num"), WithOrderedIndex("Num")))
				for i := int64(1); i <= 4; i++ {
					tbl.MustInsert(Row{nil, fmt.Sprint(name, i), i * 10})
				}
				tbl.DeleteWhere(func(r Row) bool { return r[0] == int64(2) }) // a tombstone to reuse
				tables = append(tables, tbl)
			}
			fired := 0
			before := make([]tableState, len(tables))
			for i, tbl := range tables {
				tbl.Observe(func(MutKind, Row, Row, VersionSpan) { fired++ })
				before[i] = stateOf(tbl)
			}
			db.attachStorage(&txFailStore{failAt: failAt})

			tx := db.Begin()
			a, b := tables[0], tables[1]
			steps := []error{
				tx.UpdateByKey(a, []Value{int64(1)}, func(r Row) Row { r[2] = int64(99); return r }),
				tx.UpdateByKey(a, []Value{int64(3)}, func(r Row) Row { r[0] = int64(30); return r }),
				func() error { _, err := tx.Insert(a, Row{nil, "new", int64(10)}); return err }(),
				func() error { _, err := tx.DeleteWhere(b, func(r Row) bool { return r[0] == int64(4) }); return err }(),
				func() error { _, err := tx.Insert(b, Row{int64(2), "reborn", int64(20)}); return err }(),
			}
			for i, err := range steps {
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			err := tx.Commit()
			if err == nil || errors.Is(err, ErrTxConflict) {
				t.Fatalf("Commit = %v, want the WAL error", err)
			}
			for i, tbl := range tables {
				if got := stateOf(tbl); !reflect.DeepEqual(got, before[i]) {
					t.Errorf("table %s after the refused commit:\n got %+v\nwant %+v", tbl.Name(), got, before[i])
				}
			}
			if fired != 0 {
				t.Fatalf("%d observer deliveries for a commit the WAL refused", fired)
			}
			if st := db.TxStats(); st.Committed != 0 || st.Aborted != 1 {
				t.Fatalf("TxStats = %+v, want one abort", st)
			}
		})
	}
}
