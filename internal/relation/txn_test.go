package relation

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"courserank/internal/wal"
)

func getVal(t *testing.T, tbl *Table, id int64) (string, bool) {
	t.Helper()
	r, ok := tbl.Get(id)
	if !ok {
		return "", false
	}
	return r[1].(string), true
}

// TestTxSnapshotIsolation pins what a transaction's reads are: the
// latest committed state on every read path, and a promise checked at
// Commit. A write committed after the read is visible to the next read
// at once, and the transaction that read the old row can no longer
// commit: a repeatable read is enforced by refusing the commit, not by
// keeping an old version.
func TestTxSnapshotIsolation(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(kvTable())
	tbl.MustInsert(Row{int64(1), "old", int64(10)})

	tx := db.Begin()
	if r, ok := tx.Get(tbl, int64(1)); !ok || r[1] != "old" {
		t.Fatalf("tx read = %v, want old", r)
	}
	if err := tbl.UpdateByKey([]Value{int64(1)}, func(r Row) Row { r[1] = "new"; return r }); err != nil {
		t.Fatal(err)
	}
	if v, _ := getVal(t, tbl, 1); v != "new" {
		t.Fatalf("plain read = %q, want new", v)
	}
	// Get, Lookup and Scan all read the latest committed rows.
	if r, ok := tx.Get(tbl, int64(1)); !ok || r[1] != "new" {
		t.Fatalf("tx Get = %v, want new", r)
	}
	if got := tx.Lookup(tbl, "Num", int64(10)); len(got) != 1 || got[0][1] != "new" {
		t.Fatalf("tx Lookup = %v, want the new row", got)
	}
	n := 0
	tx.Scan(tbl, func(r Row) bool { n++; return r[1] == "new" })
	if n != 1 {
		t.Fatalf("tx Scan saw %d rows, want 1", n)
	}
	if _, err := tx.Insert(tbl, Row{int64(2), "after a stale read", int64(20)}); err != nil {
		t.Fatal(err)
	}
	// The first Get returned a row that has since been replaced.
	if err := tx.Commit(); !errors.Is(err, ErrTxConflict) {
		t.Fatalf("Commit after the read changed = %v, want ErrTxConflict", err)
	}
	if _, ok := tbl.Get(int64(2)); ok {
		t.Fatal("a conflicted transaction applied its insert")
	}
	if st := db.TxStats(); st.Conflicts != 1 || st.Aborted != 1 || st.Active != 0 {
		t.Fatalf("TxStats = %+v, want one conflict, one abort, none active", st)
	}
}

func TestTxReadYourOwnWrites(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(kvTable())
	tbl.MustInsert(Row{int64(1), "committed", int64(1)})

	tx := db.Begin()
	defer tx.Rollback()
	if _, err := tx.Insert(tbl, Row{int64(2), "mine", int64(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(1) },
		func(r Row) Row { r[1] = "mine too"; return r }); err != nil {
		t.Fatal(err)
	}
	// The transaction sees both of its writes.
	if r, ok := tx.Get(tbl, int64(2)); !ok || r[1] != "mine" {
		t.Fatalf("tx does not see its own insert: %v", r)
	}
	if r, ok := tx.Get(tbl, int64(1)); !ok || r[1] != "mine too" {
		t.Fatalf("tx does not see its own update: %v", r)
	}
	// Nobody else does.
	if _, ok := tbl.Get(int64(2)); ok {
		t.Fatal("plain reader sees an uncommitted insert")
	}
	if v, _ := getVal(t, tbl, 1); v != "committed" {
		t.Fatalf("plain reader sees uncommitted update: %q", v)
	}
	other := db.Begin()
	if _, ok := other.Get(tbl, int64(2)); ok {
		t.Fatal("another tx sees an uncommitted insert")
	}
	other.Rollback()
	// Delete your own staged insert: gone for you, never there for others.
	if n, err := tx.DeleteWhere(tbl, func(r Row) bool { return r[0] == int64(2) }); err != nil || n != 1 {
		t.Fatalf("DeleteWhere own insert = %d, %v", n, err)
	}
	if _, ok := tx.Get(tbl, int64(2)); ok {
		t.Fatal("tx sees its own deleted insert")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Get(int64(2)); ok {
		t.Fatal("erased insert became visible after commit")
	}
	if v, _ := getVal(t, tbl, 1); v != "mine too" {
		t.Fatalf("committed update not visible: %q", v)
	}
}

func TestTxRollbackRestoresEverything(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(kvTable())
	tbl.MustInsert(Row{int64(1), "a", int64(10)})
	tbl.MustInsert(Row{int64(2), "b", int64(20)})

	tx := db.Begin()
	if _, err := tx.Insert(tbl, Row{int64(3), "c", int64(30)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(1) },
		func(r Row) Row { r[1] = "A"; r[2] = int64(11); return r }); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.DeleteWhere(tbl, func(r Row) bool { return r[0] == int64(2) }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tbl.Len())
	}
	if v, ok := getVal(t, tbl, 1); !ok || v != "a" {
		t.Fatalf("row 1 = %q, want a", v)
	}
	if v, ok := getVal(t, tbl, 2); !ok || v != "b" {
		t.Fatalf("row 2 = %q, want b", v)
	}
	if _, ok := tbl.Get(int64(3)); ok {
		t.Fatal("rolled-back insert survived")
	}
	if got := tbl.Lookup("Num", int64(11)); len(got) != 0 {
		t.Fatalf("index kept rolled-back entry: %v", got)
	}
	if got := tbl.Lookup("Num", int64(10)); len(got) != 1 {
		t.Fatalf("index lost original entry: %v", got)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Commit after Rollback = %v, want ErrTxDone", err)
	}
}

// TestTxWriteWriteConflict: two writers of one row. A transaction's
// update reads the row it replaces, so whichever write commits first
// wins and the transaction that read the row before it is refused at
// Commit. Autocommit writes never wait for or conflict with an open
// transaction.
func TestTxWriteWriteConflict(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(kvTable())
	tbl.MustInsert(Row{int64(1), "base", int64(1)})
	set := func(v string) func(Row) Row { return func(r Row) Row { r[1] = v; return r } }
	byID := func(r Row) bool { return r[0] == int64(1) }

	t.Run("staged-vs-tx", func(t *testing.T) {
		tx1, tx2 := db.Begin(), db.Begin()
		if _, err := tx1.UpdateWhere(tbl, byID, set("one")); err != nil {
			t.Fatal(err)
		}
		if err := tx2.UpdateByKey(tbl, []Value{int64(1)}, set("two")); err != nil {
			t.Fatal(err)
		}
		if err := tx2.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := tx1.Commit(); !errors.Is(err, ErrTxConflict) {
			t.Fatalf("the later committer got %v, want ErrTxConflict", err)
		}
		if v, _ := getVal(t, tbl, 1); v != "two" {
			t.Fatalf("first committer's write lost: %q", v)
		}
	})

	t.Run("committed-after-snapshot", func(t *testing.T) {
		tx := db.Begin()
		if _, err := tx.UpdateWhere(tbl, byID, set("stale")); err != nil {
			t.Fatal(err)
		}
		if err := tbl.UpdateByKey([]Value{int64(1)}, set("newer")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); !errors.Is(err, ErrTxConflict) {
			t.Fatalf("stale writer got %v, want ErrTxConflict", err)
		}
		if v, _ := getVal(t, tbl, 1); v != "newer" {
			t.Fatalf("first committer's write lost: %q", v)
		}
	})

	t.Run("autocommit-vs-staged", func(t *testing.T) {
		tx := db.Begin()
		if err := tx.UpdateByKey(tbl, []Value{int64(1)}, set("staged")); err != nil {
			t.Fatal(err)
		}
		if err := tbl.UpdateByKey([]Value{int64(1)}, set("auto")); err != nil {
			t.Fatalf("autocommit writer beside an open transaction: %v", err)
		}
		if err := tx.Commit(); !errors.Is(err, ErrTxConflict) {
			t.Fatalf("transaction after the autocommit write got %v, want ErrTxConflict", err)
		}
		if v, _ := getVal(t, tbl, 1); v != "auto" {
			t.Fatalf("autocommit write lost: %q", v)
		}
	})

	st := db.TxStats()
	if st.Conflicts != 3 {
		t.Fatalf("Conflicts = %d, want 3", st.Conflicts)
	}
	if st.Active != 0 {
		t.Fatalf("Active = %d, want 0", st.Active)
	}
}

// TestTxRefusesWriteSkew pins the anomaly snapshot isolation admits and
// a serializable transaction does not. Invariant: x + y >= 1 (say, "at
// least one of two TAs stays on call"). Two transactions each read both
// rows, see x + y = 2, and each zero a DIFFERENT row. Their write sets
// are disjoint, but the second to commit read the row the first one
// zeroed, so its Commit is refused and the invariant holds.
func TestTxRefusesWriteSkew(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(kvTable())
	tbl.MustInsert(Row{int64(1), "x", int64(1)})
	tbl.MustInsert(Row{int64(2), "y", int64(1)})
	sum := func(read func(key int64) (Row, bool)) int64 {
		t.Helper()
		var s int64
		for _, k := range []int64{1, 2} {
			r, ok := read(k)
			if !ok {
				t.Fatalf("row %d missing", k)
			}
			s += r[2].(int64)
		}
		return s
	}
	zero := func(tx *Tx, key int64) {
		t.Helper()
		if sum(func(k int64) (Row, bool) { return tx.Get(tbl, k) }) < 2 {
			t.Fatal("the invariant check must pass inside both transactions")
		}
		if err := tx.UpdateByKey(tbl, []Value{key}, func(r Row) Row { r[2] = int64(0); return r }); err != nil {
			t.Fatalf("zero row %d: %v", key, err)
		}
	}

	tx1, tx2 := db.Begin(), db.Begin()
	zero(tx1, 1)
	zero(tx2, 2)
	if err := tx1.Commit(); err != nil {
		t.Fatalf("tx1 commit: %v", err)
	}
	if err := tx2.Commit(); !errors.Is(err, ErrTxConflict) {
		t.Fatalf("tx2 commit = %v, want ErrTxConflict: it read row 1, which tx1 changed", err)
	}
	if got := sum(func(k int64) (Row, bool) { return tbl.Get(k) }); got != 1 {
		t.Fatalf("x + y = %d after both commits, want 1", got)
	}
	if st := db.TxStats(); st.Conflicts != 1 || st.Committed != 1 {
		t.Fatalf("TxStats = %+v, want 1 commit and 1 conflict", st)
	}
}

func TestTxInsertAfterOwnDelete(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(kvTable())
	tbl.MustInsert(Row{int64(1), "orig", int64(1)})

	tx := db.Begin()
	if n, err := tx.DeleteWhere(tbl, func(r Row) bool { return r[0] == int64(1) }); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if _, err := tx.Insert(tbl, Row{int64(1), "reborn", int64(2)}); err != nil {
		t.Fatalf("reinsert of own-deleted key: %v", err)
	}
	if r, ok := tx.Get(tbl, int64(1)); !ok || r[1] != "reborn" {
		t.Fatalf("tx read after reinsert = %v", r)
	}
	if v, _ := getVal(t, tbl, 1); v != "orig" {
		t.Fatalf("plain read mid-tx = %q, want orig", v)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := getVal(t, tbl, 1); v != "reborn" {
		t.Fatalf("after commit = %q, want reborn", v)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
}

// TestTxCommitAtomicity is the isolation property test: concurrent
// readers poll a multi-row invariant while transactions move value
// between two rows; no reader may ever observe a partial transaction
// (a sum off balance).
func TestTxCommitAtomicity(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(MustTable("Acct",
		NewSchema(NotNullCol("ID", TypeInt), NotNullCol("Bal", TypeInt)),
		WithPrimaryKey("ID")))
	tbl.MustInsert(Row{int64(1), int64(500)})
	tbl.MustInsert(Row{int64(2), int64(500)})

	const writers, transfers = 4, 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var violations atomic.Int64

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
				// Plain readers use the latest snapshot; transactional
				// readers a fixed one. Both must see the invariant.
				rtx := db.Begin()
				var sum int64
				n := 0
				rtx.Scan(tbl, func(r Row) bool { sum += r[1].(int64); n++; return true })
				rtx.Rollback()
				if n == 2 && sum != 1000 {
					violations.Add(1)
				}
				var psum int64
				pn := 0
				tbl.Scan(func(_ int, r Row) bool { psum += r[1].(int64); pn++; return true })
				if pn == 2 && psum != 1000 {
					violations.Add(1)
				}
			}
		}()
	}

	var committed atomic.Int64
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(seed int64) {
			defer wwg.Done()
			for i := 0; i < transfers; i++ {
				amt := (seed*int64(i))%37 + 1
				tx := db.Begin()
				_, err1 := tx.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(1) },
					func(r Row) Row { r[1] = r[1].(int64) - amt; return r })
				_, err2 := tx.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(2) },
					func(r Row) Row { r[1] = r[1].(int64) + amt; return r })
				if err1 != nil || err2 != nil {
					tx.Rollback()
					continue
				}
				if err := tx.Commit(); err == nil {
					committed.Add(1)
				} else if !errors.Is(err, ErrTxConflict) {
					t.Errorf("commit: %v", err)
				}
			}
		}(int64(w + 1))
	}
	wwg.Wait()
	close(stop)
	wg.Wait()

	if violations.Load() != 0 {
		t.Fatalf("%d partial-transaction observations", violations.Load())
	}
	if committed.Load() == 0 {
		t.Fatal("no transfer ever committed")
	}
	var sum int64
	tbl.Scan(func(_ int, r Row) bool { sum += r[1].(int64); return true })
	if sum != 1000 {
		t.Fatalf("final sum = %d, want 1000", sum)
	}
	st := db.TxStats()
	if st.Active != 0 {
		t.Fatalf("Active = %d after the storm", st.Active)
	}
}

// failingStore is a Storage stub whose LogMutations fails on demand —
// the poisoned-log regression harness for write-path error surfacing.
type failingStore struct {
	mu   sync.Mutex
	fail bool
	logs int
}

func (f *failingStore) BeginMutate() {}
func (f *failingStore) EndMutate()   {}
func (f *failingStore) LogMutations(string, []Mutation) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return 0, fmt.Errorf("poisoned log")
	}
	f.logs++
	return uint64(f.logs), nil
}
func (f *failingStore) LogTxMutations(_ uint64, table string, muts []Mutation) (uint64, error) {
	return f.LogMutations(table, muts)
}
func (f *failingStore) LogTxCommit(uint64) (uint64, error)      { return f.LogMutations("", nil) }
func (f *failingStore) LogCreate(*Table) (uint64, error)        { return 0, nil }
func (f *failingStore) LogDrop(string) (uint64, error)          { return 0, nil }
func (f *failingStore) LogAlter(string, string) (uint64, error) { return 0, nil }
func (f *failingStore) WaitDurable(uint64) error                { return nil }

// TestDeleteWherePoisonedLog is the satellite regression: a WAL append
// failure during DeleteWhere must surface as a non-nil error (not a
// silent 0) and leave the rows in place.
func TestDeleteWherePoisonedLog(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(kvTable())
	fs := &failingStore{}
	db.attachStorage(fs)
	for i := 0; i < 3; i++ {
		tbl.MustInsert(Row{nil, fmt.Sprintf("v%d", i), int64(i)})
	}

	fs.mu.Lock()
	fs.fail = true
	fs.mu.Unlock()
	n, err := tbl.DeleteWhere(func(Row) bool { return true })
	if err == nil {
		t.Fatal("DeleteWhere on a poisoned log returned nil error")
	}
	if n != 0 {
		t.Fatalf("DeleteWhere applied %d deletes despite log failure", n)
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d after failed delete, want 3", tbl.Len())
	}
	fs.mu.Lock()
	fs.fail = false
	fs.mu.Unlock()
	if n, err := tbl.DeleteWhere(func(Row) bool { return true }); err != nil || n != 3 {
		t.Fatalf("recovered DeleteWhere = %d, %v", n, err)
	}
}

func TestTxDurableCommitRecovery(t *testing.T) {
	dir := t.TempDir()
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreate(kvTable())
	tbl := db.MustTable("KV")
	tbl.MustInsert(Row{int64(1), "seed", int64(0)})

	tx := db.Begin()
	if _, err := tx.Insert(tbl, Row{int64(2), "tx-insert", int64(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(1) },
		func(r Row) Row { r[1] = "tx-update"; return r }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(db)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	db2, store2, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got := fingerprint(db2); !equalPrints(want, got) {
		t.Fatalf("recovered state differs\nwant %v\ngot  %v", want, got)
	}
}

// TestKillReplayMidTransaction extends the kill-replay harness to
// transactions: a crash before the commit record must recover NONE of
// the transaction's effects (even though its statement records are in
// the WAL), a crash after rollback likewise, and a crash after commit
// must recover ALL of them.
func TestKillReplayMidTransaction(t *testing.T) {
	dir := t.TempDir()
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db.MustCreate(kvTable())
	tbl := db.MustTable("KV")
	tbl.MustInsert(Row{int64(1), "base", int64(0)})
	base := fingerprint(db)

	check := func(label, snapDir string, want map[string][]string) {
		t.Helper()
		db2, store2, err := OpenDurable(snapDir, DurableOptions{Sync: wal.SyncAlways})
		if err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		defer store2.Close()
		if got := fingerprint(db2); !equalPrints(want, got) {
			t.Fatalf("%s: recovered state differs\nwant %v\ngot  %v", label, want, got)
		}
	}

	// Crash with an open transaction: statements journaled, no commit.
	tx := db.Begin()
	if _, err := tx.Insert(tbl, Row{int64(10), "half", int64(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(1) },
		func(r Row) Row { r[1] = "half-update"; return r }); err != nil {
		t.Fatal(err)
	}
	midDir := copyDir(t, dir)
	check("mid-transaction", midDir, base)

	// Crash after rollback: the abort marker (or its absence) must not
	// resurrect anything either.
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	check("after-rollback", copyDir(t, dir), base)

	// Crash after commit: everything must be there.
	tx2 := db.Begin()
	if _, err := tx2.Insert(tbl, Row{int64(20), "whole", int64(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.DeleteWhere(tbl, func(r Row) bool { return r[0] == int64(1) }); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(db)
	check("after-commit", copyDir(t, dir), want)
}

// TestTxIDsContinuePastReplay: records of a transaction whose commit
// record never reached the log stay dead across restarts. A transaction
// committed after reopening takes an id past every id in the log, so
// its commit record cannot adopt the orphan's records.
func TestTxIDsContinuePastReplay(t *testing.T) {
	dir := t.TempDir()
	open := func() (*DB, *DurableStore) {
		t.Helper()
		db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return db, store
	}
	db, store := open()
	db.MustCreate(kvTable())
	store.BeginMutate()
	_, err := store.LogTxMutations(1, "KV", []Mutation{{Kind: MutInsert, Slot: 0, Row: Row{int64(1), "orphan", int64(1)}}})
	store.EndMutate()
	if err != nil {
		t.Fatal(err)
	}
	store.Close()

	db, store = open()
	tx := db.Begin()
	if _, err := tx.Insert(db.MustTable("KV"), Row{int64(2), "committed", int64(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	store.Close()

	db, store = open()
	defer store.Close()
	if got := fingerprint(db)["KV"]; len(got) != 1 || got[0] != `i2|s"committed"|i2|` {
		t.Fatalf("after the second reopen KV = %v, want the committed row alone", got)
	}
}

// TestTxOpenAcrossCheckpoint: an open transaction holds nothing, so a
// checkpoint runs to completion beside it and captures none of its
// writes; the transaction then commits, and a crash after the commit
// recovers its row from the WAL past the checkpoint.
func TestTxOpenAcrossCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db.MustCreate(kvTable())
	tbl := db.MustTable("KV")
	tbl.MustInsert(Row{int64(1), "before", int64(1)})

	tx := db.Begin()
	if _, err := tx.Insert(tbl, Row{int64(2), "buffered", int64(2)}); err != nil {
		t.Fatal(err)
	}
	ckDone := make(chan error, 1)
	go func() { ckDone <- store.Checkpoint() }()
	select {
	case err := <-ckDone:
		if err != nil {
			t.Fatalf("checkpoint beside an open transaction: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("checkpoint blocked by an open transaction")
	}
	mid, midStore, err := OpenDurable(copyDir(t, dir), DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mid.MustTable("KV").Get(int64(2)); ok {
		t.Fatal("the checkpoint captured an uncommitted row")
	}
	midStore.Close()

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(db)
	db2, store2, err := OpenDurable(copyDir(t, dir), DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got := fingerprint(db2); !equalPrints(want, got) {
		t.Fatalf("kill-replay after the commit\nwant %v\ngot  %v", want, got)
	}
}

// TestTxCommitCrossingAutoCheckpoint is the regression test for the
// commit self-deadlock: the commit that crosses the auto-checkpoint
// threshold runs the checkpoint from WaitDurable, and used to do so
// while still holding the checkpoint gate shared — the checkpoint then
// waited on its own caller and every later writer queued behind it.
// This is the configuration `courserank -durable` runs, with a low
// threshold so every few commits cross it.
func TestTxCommitCrossingAutoCheckpoint(t *testing.T) {
	db, store, err := OpenDurable(t.TempDir(), DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreate(kvTable())
	tbl := db.MustTable("KV")

	const writers, per = 2, 25
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				tx := db.Begin()
				if _, err := tx.Insert(tbl, Row{nil, fmt.Sprintf("w%d-%d", w, i), int64(w)}); err != nil {
					tx.Rollback()
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	watchdog := time.After(5 * time.Second)
	for w := 0; w < writers; w++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-watchdog:
			// No store.Close here: it would block behind the stuck
			// checkpoint and turn the failure into a timeout.
			t.Fatalf("writers hung: Tx.Commit deadlocked on the auto-checkpoint (%+v)", store.Stats())
		}
	}
	if got := tbl.Len(); got != writers*per {
		t.Fatalf("table holds %d rows, want %d", got, writers*per)
	}
	if store.Stats().Checkpoints == 0 {
		t.Fatal("no auto-checkpoint ran: the test never crossed the threshold")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainedSpanContract pins what a maintained view builds on:
// every delivery carries the one version step it accounts for, in
// ascending order; a statement over n rows delivers n chained spans; and
// the chain breaks exactly where the version moved with nothing
// delivered — a row committed born dead, and whatever happened before
// the observer attached. Autocommit and transactional writes, with and
// without an open transaction beside them, on a memory and on a durable
// table.
func TestMaintainedSpanContract(t *testing.T) {
	script := func(t *testing.T, db *DB) {
		tbl := db.MustCreate(kvTable())
		tbl.MustInsert(Row{int64(1), "before the observer", int64(1)})
		var spans []VersionSpan
		tbl.Observe(func(_ MutKind, _, _ Row, span VersionSpan) { spans = append(spans, span) })
		attached := tbl.Version()
		gaps := 0 // versions the script moves without a delivery

		all := func(Row) bool { return true }
		bump := func(r Row) Row { r[2] = r[2].(int64) + 1; return r }
		for round := 0; round < 2; round++ {
			var reader *Tx
			if round == 1 {
				reader = db.Begin() // open beside the writers; changes nothing they deliver
			}
			base := int64(10 * (round + 1))
			for i := int64(0); i < 3; i++ {
				tbl.MustInsert(Row{base + i, "row", i})
			}
			if _, err := tbl.InsertGet(Row{base + 3, "row", int64(3)}); err != nil {
				t.Fatal(err)
			}
			if err := tbl.UpdateByKey([]Value{base}, bump); err != nil {
				t.Fatal(err)
			}
			if n, err := tbl.UpdateWhere(all, bump); err != nil || n < 5 {
				t.Fatalf("UpdateWhere: %d %v", n, err)
			}
			if n, err := tbl.DeleteWhere(func(r Row) bool { return r[0].(int64) >= base+2 }); err != nil || n != 2 {
				t.Fatalf("DeleteWhere: %d %v", n, err)
			}
			tx := db.Begin()
			if _, err := tx.Insert(tbl, Row{base + 5, "tx", int64(0)}); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Insert(tbl, Row{base + 6, "born dead", int64(0)}); err != nil {
				t.Fatal(err)
			}
			if n, err := tx.DeleteWhere(tbl, func(r Row) bool { return r[0] == base+6 }); err != nil || n != 1 {
				t.Fatalf("tx delete of its own insert: %d %v", n, err)
			}
			if n, err := tx.UpdateWhere(tbl, func(r Row) bool { return r[0] == base+1 }, bump); err != nil || n != 1 {
				t.Fatalf("tx update: %d %v", n, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			gaps++
			if reader != nil {
				if err := reader.Rollback(); err != nil {
					t.Fatal(err)
				}
			}
		}

		if len(spans) == 0 || spans[0].After != attached {
			t.Fatalf("first span %+v, want it to start at version %d, where the observer attached", spans, attached)
		}
		found := 0
		for i, sp := range spans {
			if sp.Through != sp.After+1 {
				t.Fatalf("span %d = %+v, want one version step", i, sp)
			}
			if i == 0 {
				continue
			}
			switch prev := spans[i-1]; {
			case sp.After == prev.Through:
			case sp.After == prev.Through+1:
				found++ // one undelivered version in between
			default:
				t.Fatalf("span %d = %+v after %+v: out of order or a wide gap", i, sp, prev)
			}
		}
		// The born-dead row of the last transaction may sit at the tail,
		// past the last span, instead of between two.
		if tail := tbl.Version() - spans[len(spans)-1].Through; found+int(tail) != gaps {
			t.Fatalf("%d gaps between spans and %d versions past the last, want %d undelivered versions in all", found, tail, gaps)
		}
	}
	t.Run("memory", func(t *testing.T) { script(t, NewDB()) })
	t.Run("durable", func(t *testing.T) {
		db, store, err := OpenDurable(t.TempDir(), DurableOptions{Sync: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		script(t, db)
	})
}
