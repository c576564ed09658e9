package matview

import (
	"maps"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"courserank/internal/relation"
	"courserank/internal/wal"
)

// TestChurnStaleBoundAndNoTornSnapshots is the refresh-lifecycle race
// test: concurrent readers against a DML storm, asserting on every
// single read that the snapshot is never torn — the writer holds the
// table's write lock for a whole round (every row set to the same value)
// and the build reads under one read lock, so every legal snapshot is
// UNIFORM; a reader observing a mixed snapshot caught a torn publish —
// and that no read is served stale.
//
// Run under -race it also shakes out unsynchronized access between
// readers and the single-flight path.
func TestChurnStaleBoundAndNoTornSnapshots(t *testing.T) {
	const (
		rows     = 64
		readers  = 4
		duration = 400 * time.Millisecond
	)
	db := relation.NewDB()
	tbl := relation.MustTable("KV",
		relation.NewSchema(
			relation.NotNullCol("ID", relation.TypeInt),
			relation.NotNullCol("Val", relation.TypeInt),
		), relation.WithPrimaryKey("ID"))
	db.MustCreate(tbl)
	for i := 1; i <= rows; i++ {
		tbl.MustInsert(relation.Row{int64(i), int64(0)})
	}

	reg := NewRegistry(db)
	// The build copies every Val under one Scan (a single read lock), so
	// a snapshot taken between writer rounds is all-equal.
	v, err := reg.Register(Options{
		Name: "vals", Deps: []string{"KV"},
		Build: func() (any, error) {
			var vals []int64
			tbl.Scan(func(_ int, r relation.Row) bool {
				vals = append(vals, r[1].(int64))
				return true
			})
			return vals, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var freshServes, builtServes atomic.Int64

	// Writer: rounds of UpdateWhere setting EVERY row to the round
	// number — one write-lock pass per round.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		round := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			round++
			if _, err := tbl.UpdateWhere(
				func(relation.Row) bool { return true },
				func(r relation.Row) relation.Row { r[1] = round; return r },
			); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				val, serve, err := v.Get()
				if err != nil {
					t.Error(err)
					return
				}
				vals := val.([]int64)
				if len(vals) != rows {
					t.Errorf("snapshot has %d rows, want %d", len(vals), rows)
					return
				}
				for _, x := range vals[1:] {
					if x != vals[0] {
						t.Errorf("torn snapshot: mixed values %d and %d", vals[0], x)
						return
					}
				}
				switch serve.Kind {
				case ServeFresh:
					freshServes.Add(1)
				case ServeBuilt:
					builtServes.Add(1)
				default:
					t.Errorf("a read was served %v", serve.Kind)
					return
				}
			}
		}()
	}

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	t.Logf("serves: %d fresh, %d built; view stats %+v", freshServes.Load(), builtServes.Load(), v.Stats())
	if builtServes.Load() < 2 {
		t.Error("churn never made a read rebuild behind the writer")
	}
}

// TestChurnTableReplacement races readers against DROP/CREATE cycles:
// reads during the gap may fail (the build sees no table) but must
// never serve rows from the dropped table's snapshot once the
// replacement exists, and the registry must survive the whole storm.
func TestChurnTableReplacement(t *testing.T) {
	db := relation.NewDB()
	mk := func(tag int64) *relation.Table {
		tbl := relation.MustTable("KV",
			relation.NewSchema(
				relation.NotNullCol("ID", relation.TypeInt),
				relation.NotNullCol("Val", relation.TypeInt),
			), relation.WithPrimaryKey("ID"))
		tbl.MustInsert(relation.Row{int64(1), tag})
		return tbl
	}
	db.MustCreate(mk(0))

	reg := NewRegistry(db)
	v, err := reg.Register(Options{
		Name: "tag", Deps: []string{"KV"},
		Build: func() (any, error) {
			cur, ok := db.Table("KV")
			if !ok {
				return nil, errUnknownTable
			}
			var tag int64
			cur.Scan(func(_ int, r relation.Row) bool { tag = r[1].(int64); return true })
			return tag, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			gen++
			db.Drop("KV")
			db.MustCreate(mk(gen))
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := v.Get()
				if err != nil && !strings.Contains(err.Error(), "unknown table") {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}

var errUnknownTable = &tableError{}

type tableError struct{}

func (*tableError) Error() string { return "unknown table KV (dropped mid-churn)" }

// --- maintained views ---------------------------------------------------

// groupSum is the value of the keyed-aggregate test view: per Grp, the
// sum of Val in slot order and the row count; a group with no rows is
// absent.
type groupSum struct {
	Sum float64
	N   int
}

// groupDB builds Items(ID, Grp, Val) beside a Labels table the test
// view also depends on but cannot interpret changes of.
func groupDB(t testing.TB, db *relation.DB) (items, labels *relation.Table) {
	t.Helper()
	items = relation.MustTable("Items",
		relation.NewSchema(
			relation.NotNullCol("ID", relation.TypeInt),
			relation.NotNullCol("Grp", relation.TypeInt),
			relation.NotNullCol("Val", relation.TypeFloat),
		), relation.WithPrimaryKey("ID"), relation.WithIndex("Grp"))
	labels = relation.MustTable("Labels",
		relation.NewSchema(
			relation.NotNullCol("Grp", relation.TypeInt),
			relation.NotNullCol("Name", relation.TypeString),
		), relation.WithPrimaryKey("Grp"))
	db.MustCreate(items)
	db.MustCreate(labels)
	return items, labels
}

// groupView declares the maintained per-group aggregate: its keys are
// Grp values, a row change touches the group it leaves and the one it
// enters, the patch recomputes those groups through the Grp index, and a
// Labels change is one it cannot tell the reach of.
func groupView(items *relation.Table) Options {
	sumOf := func(rows []relation.Row) groupSum {
		var g groupSum
		for _, r := range rows {
			g.Sum += r[2].(float64)
			g.N++
		}
		return g
	}
	return Options{
		Name: "by-group", Deps: []string{"Items", "Labels"},
		Build: func() (any, error) {
			groups := map[int64][]relation.Row{}
			items.Scan(func(_ int, r relation.Row) bool {
				groups[r[1].(int64)] = append(groups[r[1].(int64)], r)
				return true
			})
			out := make(map[int64]groupSum, len(groups))
			for g, rows := range groups {
				out[g] = sumOf(rows)
			}
			return out, nil
		},
		Keys: func(dep string, _ relation.MutKind, before, after relation.Row) ([]any, bool) {
			if dep != "Items" {
				return nil, false
			}
			var keys []any
			for _, r := range []relation.Row{before, after} {
				if r != nil {
					keys = append(keys, r[1])
				}
			}
			return keys, true
		},
		Patch: func(prev any, keys []any) (any, error) {
			next := maps.Clone(prev.(map[int64]groupSum))
			for _, k := range keys {
				if rows := items.Lookup("Grp", k); len(rows) > 0 {
					next[k.(int64)] = sumOf(rows)
				} else {
					delete(next, k.(int64))
				}
			}
			return next, nil
		},
	}
}

// maintainedOracle requires, after each scripted step, the value a read
// returns to be exactly what Build returns, and full builds only where
// the script names one.
type maintainedOracle struct {
	t      *testing.T
	v      *View
	build  func() (any, error)
	builds uint64
}

func (o *maintainedOracle) check(step string, want ServeKind) {
	o.t.Helper()
	if want == ServeBuilt {
		o.builds++
	}
	val, serve, err := o.v.Get()
	if err != nil {
		o.t.Fatalf("%s: %v", step, err)
	}
	fresh, _ := o.build()
	if serve.Kind != want || !reflect.DeepEqual(val, fresh) {
		o.t.Fatalf("%s: served %v %v, want %v %v", step, serve.Kind, val, want, fresh)
	}
	if st := o.v.Stats(); st.Refreshes != o.builds || st.Errors != 0 {
		o.t.Fatalf("%s: stats %+v, want %d full builds", step, st, o.builds)
	}
}

// TestMaintainedEqualsFreshBuild drives the keyed aggregate through
// every kind of committed change on an in-memory and on a durable
// database: the patched value must equal a fresh Build after each, and
// the view must rebuild exactly at the gap and at the opaque change.
func TestMaintainedEqualsFreshBuild(t *testing.T) {
	script := func(t *testing.T, db *relation.DB) {
		items, labels := groupDB(t, db)
		for i := int64(1); i <= 6; i++ {
			items.MustInsert(relation.Row{i, i % 3, float64(i) + 0.1})
		}
		labels.MustInsert(relation.Row{int64(0), "zero"})
		reg := NewRegistry(db)
		opts := groupView(items)
		v, err := reg.Register(opts)
		if err != nil {
			t.Fatal(err)
		}
		o := &maintainedOracle{t: t, v: v, build: opts.Build}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		byID := func(id int64) func(relation.Row) bool {
			return func(r relation.Row) bool { return r[0] == id }
		}

		o.check("cold", ServeBuilt)
		o.check("warm", ServeFresh)
		items.MustInsert(relation.Row{int64(7), int64(1), 0.7})
		o.check("insert", ServeFresh)
		must(items.UpdateByKey([]relation.Value{int64(7)}, func(r relation.Row) relation.Row { r[2] = 3.7; return r }))
		o.check("value update", ServeFresh)
		must(items.UpdateByKey([]relation.Value{int64(7)}, func(r relation.Row) relation.Row { r[1] = int64(9); return r }))
		o.check("move to a new group", ServeFresh)
		if n, err := items.DeleteWhere(byID(7)); err != nil || n != 1 {
			t.Fatalf("delete: %d %v", n, err)
		}
		o.check("delete of a group's last row", ServeFresh)
		if _, ok := v.snap.Load().value.(map[int64]groupSum)[9]; ok {
			t.Fatal("the emptied group is still listed")
		}
		if n, err := items.UpdateWhere(
			func(r relation.Row) bool { return r[1] == int64(2) },
			func(r relation.Row) relation.Row { r[2] = r[2].(float64) * 1.5; return r }); err != nil || n != 2 {
			t.Fatalf("multi-row update: %d %v", n, err)
		}
		o.check("multi-row update", ServeFresh)
		if n, err := items.DeleteWhere(func(r relation.Row) bool { return r[0].(int64) <= 2 }); err != nil || n != 2 {
			t.Fatalf("multi-row delete: %d %v", n, err)
		}
		o.check("multi-row delete", ServeFresh)

		tx := db.Begin()
		_, err = tx.Insert(items, relation.Row{int64(20), int64(4), 2.5})
		must(err)
		_, err = tx.UpdateWhere(items, byID(3), func(r relation.Row) relation.Row { r[1] = int64(4); return r })
		must(err)
		must(tx.Commit())
		o.check("transaction committed", ServeFresh)
		tx = db.Begin()
		_, err = tx.Insert(items, relation.Row{int64(21), int64(4), 9.9})
		must(err)
		must(tx.Rollback())
		o.check("transaction rolled back", ServeFresh)

		// Inserted and deleted by one transaction: the version moves with
		// nothing delivered, and no row a reader sees changed. The view is
		// current as it stands; the next delivery shows the gap.
		tx = db.Begin()
		_, err = tx.Insert(items, relation.Row{int64(22), int64(5), 1.0})
		must(err)
		_, err = tx.DeleteWhere(items, byID(22))
		must(err)
		must(tx.Commit())
		o.check("born-dead insert", ServeFresh)
		items.MustInsert(relation.Row{int64(23), int64(5), 1.25})
		o.check("first delivery after the gap", ServeBuilt)
		items.MustInsert(relation.Row{int64(24), int64(5), 1.5})
		o.check("maintained again after the gap", ServeFresh)

		labels.MustInsert(relation.Row{int64(1), "one"})
		o.check("a change it cannot tell the reach of", ServeBuilt)
		items.MustInsert(relation.Row{int64(25), int64(5), 1.75})
		o.check("maintained again after the opaque change", ServeFresh)

		// Nine reads patched; those, the warm read, the one after the
		// rollback (which moved no version) and the one after the born-dead
		// insert (which moved one nobody can see) are the hits.
		if st := v.Stats(); st.Patches != 9 || st.Hits != 12 || st.Misses != 3 {
			t.Fatalf("stats %+v, want 9 patches inside 12 hits beside 3 misses", st)
		}
	}
	t.Run("memory", func(t *testing.T) { script(t, relation.NewDB()) })
	t.Run("durable", func(t *testing.T) {
		db, store, err := relation.OpenDurable(t.TempDir(), relation.DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		script(t, db)
	})
}

// TestMaintainedGapRebuildsOnce: a born-dead transaction insert moves
// the version with nothing delivered. The read after it is a hit on the
// patched snapshot — no row a reader sees changed — the first delivery
// after the gap makes the next read rebuild exactly once, and the read
// after that is a patched hit again.
func TestMaintainedGapRebuildsOnce(t *testing.T) {
	db := relation.NewDB()
	items, _ := groupDB(t, db)
	items.MustInsert(relation.Row{int64(1), int64(1), 1.0})
	reg := NewRegistry(db)
	opts := groupView(items)
	v, err := reg.Register(opts)
	if err != nil {
		t.Fatal(err)
	}
	o := &maintainedOracle{t: t, v: v, build: opts.Build}
	o.check("cold", ServeBuilt)

	items.MustInsert(relation.Row{int64(2), int64(1), 2.0}) // delivered
	tx := db.Begin()
	if _, err := tx.Insert(items, relation.Row{int64(3), int64(2), 3.0}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.DeleteWhere(items, func(r relation.Row) bool { return r[0] == int64(3) }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil { // version moves, nothing delivered
		t.Fatal(err)
	}
	o.check("patched past the delivered insert, up to the gap", ServeFresh)
	o.check("again, with nothing new", ServeFresh)
	items.MustInsert(relation.Row{int64(4), int64(2), 4.0})
	o.check("first delivery after the gap", ServeBuilt)
	o.check("warm after the rebuild", ServeFresh)
	items.MustInsert(relation.Row{int64(5), int64(2), 5.0})
	o.check("maintained again", ServeFresh)
	if st := v.Stats(); st.Refreshes != 2 || st.Patches != 2 {
		t.Fatalf("stats %+v, want the cold build, one rebuild at the gap and two patches", st)
	}
}

// TestChurnMaintainedView races four readers against writers on the
// maintained aggregate: no read may see an empty group, every delivery
// lands under the table's write lock so no read may pay for more than
// the cold build, and the quiesced value equals a fresh Build.
func TestChurnMaintainedView(t *testing.T) {
	db := relation.NewDB()
	items, _ := groupDB(t, db)
	reg := NewRegistry(db)
	opts := groupView(items)
	v, err := reg.Register(opts)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := int64(0); w < 2; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := w*1_000_000 + i
				if _, err := items.Insert(relation.Row{id, i % 5, float64(i%7) + 0.3}); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 2 {
					old := id - 2
					if _, err := items.DeleteWhere(func(r relation.Row) bool { return r[0] == old }); err != nil {
						t.Error(err)
						return
					}
				}
				if i%10 == 9 {
					// By key: the transaction reads only its own row, which
					// no other writer touches, so it never conflicts.
					tx := db.Begin()
					err := tx.UpdateByKey(items, []relation.Value{id}, func(r relation.Row) relation.Row { r[1] = int64(7); return r })
					if err == nil {
						err = tx.Commit()
					} else {
						tx.Rollback()
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				val, _, err := v.Get()
				if err != nil {
					t.Error(err)
					return
				}
				for g, s := range val.(map[int64]groupSum) {
					if s.N <= 0 {
						t.Errorf("group %d listed with %d rows", g, s.N)
						return
					}
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	val, serve, err := v.Get()
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := opts.Build()
	if serve.Kind != ServeFresh || !reflect.DeepEqual(val, fresh) {
		t.Fatalf("quiesced view (served %v) = %v, a fresh build = %v", serve.Kind, val, fresh)
	}
	st := v.Stats()
	t.Logf("view stats %+v", st)
	if st.Refreshes != 1 || st.Patches == 0 || st.Errors != 0 {
		t.Fatalf("stats %+v, want the cold build and patches only", st)
	}
}
