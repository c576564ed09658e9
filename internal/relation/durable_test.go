package relation

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"courserank/internal/wal"
)

func kvTable() *Table {
	return MustTable("KV",
		NewSchema(NotNullCol("ID", TypeInt), Col("Val", TypeString), Col("Num", TypeInt)),
		WithPrimaryKey("ID"), WithAutoIncrement("ID"), WithIndex("Num"))
}

// fingerprint captures a slot-independent view of every table: sorted
// encoded rows. Two databases with equal fingerprints hold the same
// relations regardless of tombstone layout.
func fingerprint(db *DB) map[string][]string {
	out := make(map[string][]string)
	for _, name := range db.Names() {
		t := db.MustTable(name)
		var rows []string
		t.Scan(func(_ int, r Row) bool {
			rows = append(rows, encodeKey(r))
			return true
		})
		sort.Strings(rows)
		out[name] = rows
	}
	return out
}

func equalPrints(a, b map[string][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for name, rows := range a {
		brows, ok := b[name]
		if !ok || len(rows) != len(brows) {
			return false
		}
		for i := range rows {
			if rows[i] != brows[i] {
				return false
			}
		}
	}
	return true
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Create(kvTable()); err != nil {
		t.Fatal(err)
	}
	kv := db.MustTable("KV")
	for i := 0; i < 10; i++ {
		if _, err := kv.Insert(Row{nil, fmt.Sprintf("v%d", i), int64(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.UpdateByKey([]Value{int64(3)}, func(r Row) Row { r[1] = "updated"; return r }); err != nil {
		t.Fatal(err)
	}
	if n, err := kv.DeleteWhere(func(r Row) bool { return r[2] == int64(2) }); err != nil || n == 0 {
		t.Fatal("delete matched nothing")
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
	if !equalPrints(want, fingerprint(db2)) {
		t.Fatalf("recovered DB differs:\nwant %v\ngot  %v", want, fingerprint(db2))
	}
	// The recovered table keeps working: auto-increment continues past
	// replayed ids and the indexes answer.
	kv2 := db2.MustTable("KV")
	r, err := kv2.InsertGet(Row{nil, "fresh", int64(9)})
	if err != nil {
		t.Fatal(err)
	}
	if r[0].(int64) != 11 {
		t.Fatalf("auto-increment resumed at %v, want 11", r[0])
	}
	if got := kv2.Lookup("Num", int64(0)); len(got) == 0 {
		t.Fatal("secondary index empty after recovery")
	}
}

func TestDurableCheckpointThenReplay(t *testing.T) {
	dir := t.TempDir()
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreate(kvTable())
	kv := db.MustTable("KV")
	for i := 0; i < 20; i++ {
		kv.MustInsert(Row{nil, fmt.Sprintf("pre%d", i), int64(i)})
	}
	kv.DeleteWhere(func(r Row) bool { return r[0].(int64)%4 == 0 })
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if store.Stats().WAL.LastLSN != store.Stats().CheckpointLSN {
		t.Fatalf("WAL not truncated at checkpoint: %+v", store.Stats())
	}
	// Post-checkpoint tail that must replay on top of the snapshot,
	// including slot reuse of checkpointed tombstones.
	for i := 0; i < 7; i++ {
		kv.MustInsert(Row{nil, fmt.Sprintf("post%d", i), int64(100 + i)})
	}
	if _, err := kv.UpdateWhere(
		func(r Row) bool { return r[0].(int64)%2 == 1 },
		func(r Row) Row { r[1] = r[1].(string) + "!"; return r },
	); err != nil {
		t.Fatal(err)
	}
	if err := kv.AddOrderedIndex("Num"); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(db)
	store.Close()

	db2, store2, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if !equalPrints(want, fingerprint(db2)) {
		t.Fatalf("recovered DB differs:\nwant %v\ngot  %v", want, fingerprint(db2))
	}
	if !db2.MustTable("KV").HasOrderedIndex("Num") {
		t.Fatal("replayed ALTER lost the ordered index")
	}
	if store2.Stats().RecoveredRecords == 0 {
		t.Fatal("expected WAL replay past the checkpoint")
	}
}

func TestDurableDDLRecovery(t *testing.T) {
	dir := t.TempDir()
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreate(kvTable())
	db.MustCreate(MustTable("Gone", NewSchema(Col("X", TypeInt))))
	db.MustTable("Gone").MustInsert(Row{int64(1)})
	if !db.Drop("Gone") {
		t.Fatal("drop failed")
	}
	store.Close()

	db2, store2, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if _, ok := db2.Table("Gone"); ok {
		t.Fatal("dropped table resurrected by replay")
	}
	if _, ok := db2.Table("KV"); !ok {
		t.Fatal("created table lost")
	}
}

func TestEnsureAdoptsAndRejects(t *testing.T) {
	db := NewDB()
	orig := db.MustEnsure(kvTable())
	orig.MustInsert(Row{nil, "x", int64(1)})
	again := db.MustEnsure(kvTable())
	if again != orig {
		t.Fatal("Ensure built a new table instead of adopting")
	}
	if again.Len() != 1 {
		t.Fatal("adopted table lost rows")
	}
	bad := MustTable("KV", NewSchema(Col("Other", TypeString)))
	if _, err := db.Ensure(bad); err == nil {
		t.Fatal("Ensure accepted a mismatched schema")
	}
}

func TestBulkLoadsUnjournaledThenCheckpoints(t *testing.T) {
	dir := t.TempDir()
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreate(kvTable())
	walBefore := store.Stats().WAL.Appends
	err = store.Bulk(func() error {
		kv := db.MustTable("KV")
		for i := 0; i < 500; i++ {
			if _, err := kv.Insert(Row{nil, fmt.Sprintf("bulk%d", i), int64(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if appends := store.Stats().WAL.Appends; appends != walBefore {
		t.Fatalf("bulk load journaled %d records", appends-walBefore)
	}
	want := fingerprint(db)
	store.Close()
	db2, store2, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if !equalPrints(want, fingerprint(db2)) {
		t.Fatal("bulk-loaded rows did not survive the checkpoint")
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreate(kvTable())
	kv := db.MustTable("KV")
	for i := 0; i < 120; i++ {
		kv.MustInsert(Row{nil, "v", int64(i)})
	}
	st := store.Stats()
	if st.Checkpoints == 0 {
		t.Fatalf("no auto-checkpoint after 120 records (threshold 25): %+v", st)
	}
	want := fingerprint(db)
	store.Close()
	db2, store2, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if !equalPrints(want, fingerprint(db2)) {
		t.Fatal("recovered DB differs after auto-checkpoints")
	}
}

// TestDurableConcurrentCommitters exercises group commit end-to-end
// under the race detector: many goroutines journaling inserts and
// updates against two tables at once, then a recovery equality check.
func TestDurableConcurrentCommitters(t *testing.T) {
	dir := t.TempDir()
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreate(kvTable())
	db.MustCreate(MustTable("Other",
		NewSchema(NotNullCol("ID", TypeInt), Col("N", TypeInt)),
		WithPrimaryKey("ID"), WithAutoIncrement("ID")))
	const writers, per = 6, 40
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kv, other := db.MustTable("KV"), db.MustTable("Other")
			for i := 0; i < per; i++ {
				r, err := kv.InsertGet(Row{nil, fmt.Sprintf("w%d-%d", w, i), int64(w)})
				if err != nil {
					errCh <- err
					return
				}
				if i%3 == 0 {
					if err := kv.UpdateByKey([]Value{r[0]}, func(row Row) Row { row[2] = int64(w * 100); return row }); err != nil {
						errCh <- err
						return
					}
				}
				if _, err := other.Insert(Row{nil, int64(i)}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	ws := store.Stats().WAL
	if ws.DurableLSN != ws.LastLSN {
		t.Fatalf("not fully durable: %+v", ws)
	}
	want := fingerprint(db)
	store.Close()
	db2, store2, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if !equalPrints(want, fingerprint(db2)) {
		t.Fatal("recovered DB differs after concurrent storm")
	}
}

// stormOp applies one scripted operation to a database; the same script
// drives the durable DB and the in-memory oracle so their states stay
// comparable at every step.
type stormOp func(db *DB)

// makeStorm builds a deterministic DML storm: inserts, point updates,
// predicate updates and deletes, plus one mid-storm ALTER.
func makeStorm(rng *rand.Rand, n int) []stormOp {
	ops := make([]stormOp, 0, n)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(10); {
		case k < 5: // insert
			val, num := fmt.Sprintf("s%d", i), int64(rng.Intn(7))
			ops = append(ops, func(db *DB) {
				db.MustTable("KV").MustInsert(Row{nil, val, num})
			})
		case k < 7: // point update of a (probably) existing id
			id := int64(rng.Intn(i + 1))
			ops = append(ops, func(db *DB) {
				db.MustTable("KV").UpdateByKey([]Value{id}, func(r Row) Row {
					r[1] = r[1].(string) + "+"
					return r
				})
			})
		case k < 8: // predicate update
			num := int64(rng.Intn(7))
			ops = append(ops, func(db *DB) {
				db.MustTable("KV").UpdateWhere(
					func(r Row) bool { return r[2] == num },
					func(r Row) Row { r[2] = num + 7; return r },
				)
			})
		case k < 9: // delete a band
			id := int64(rng.Intn(i + 1))
			ops = append(ops, func(db *DB) {
				db.MustTable("KV").DeleteWhere(func(r Row) bool {
					v := r[0].(int64)
					return v >= id && v < id+2
				})
			})
		default: // ordered-index ALTER (idempotent after the first)
			ops = append(ops, func(db *DB) {
				db.MustTable("KV").AddOrderedIndex("Num")
			})
		}
	}
	return ops
}

// TestKillReplay is the kill-replay harness: it runs a scripted DML
// storm against a durable store, hard-abandons the writer at random
// points (the store is never Closed — its files are copied as-is, which
// is exactly what a crashed process leaves behind), reopens each copy,
// and asserts the recovered database is row-for-row equal to the
// in-memory oracle at that point in the script.
func TestKillReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nOps = 300
	ops := makeStorm(rng, nOps)

	// Pick random abandonment points, plus the very start and end.
	kills := map[int]bool{0: true, nOps - 1: true}
	for len(kills) < 12 {
		kills[rng.Intn(nOps)] = true
	}

	dir := t.TempDir()
	// CheckpointEvery 60 makes several kills land between a checkpoint
	// and the next, covering snapshot+replay recovery as well as
	// replay-only.
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: 60})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreate(kvTable())
	oracle := NewDB()
	oracle.MustCreate(kvTable())

	type snap struct {
		dir   string
		print map[string][]string
		op    int
	}
	var snaps []snap
	for i, op := range ops {
		op(db)
		op(oracle)
		if kills[i] {
			// Hard abandonment: no Close, no flush — just the files as
			// the OS has them.
			snaps = append(snaps, snap{dir: copyDir(t, dir), print: fingerprint(oracle), op: i})
		}
	}
	store.Close()

	for _, sn := range snaps {
		db2, store2, err := OpenDurable(sn.dir, DurableOptions{Sync: wal.SyncAlways})
		if err != nil {
			t.Fatalf("reopen after kill at op %d: %v", sn.op, err)
		}
		if got := fingerprint(db2); !equalPrints(sn.print, got) {
			t.Fatalf("kill at op %d: recovered DB differs from oracle\nwant %v\ngot  %v", sn.op, sn.print, got)
		}
		// The recovered store accepts new writes.
		if _, err := db2.MustTable("KV").Insert(Row{nil, "post-recovery", int64(1)}); err != nil {
			t.Fatalf("kill at op %d: post-recovery insert: %v", sn.op, err)
		}
		store2.Close()
	}
}

// checkpointedStorm runs a scripted storm against a durable store with
// one explicit checkpoint two thirds of the way through, abandons the
// store the way TestKillReplay does, and returns the abandoned
// directory with the oracle's fingerprint: recovering it takes both
// the checkpoint image and the WAL tail behind it.
func checkpointedStorm(t *testing.T, seed int64) (string, map[string][]string) {
	t.Helper()
	const nOps, ckAt = 120, 80
	ops := makeStorm(rand.New(rand.NewSource(seed)), nOps)
	dir, db, store, oracle := openStormPair(t)
	for i, op := range ops {
		if i == ckAt {
			if err := store.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		op(db)
		op(oracle)
	}
	if got := dirNames(t, dir); fmt.Sprint(got) != "[checkpoint.db wal.log]" {
		t.Fatalf("durable directory holds %v, want checkpoint.db and wal.log only", got)
	}
	return copyDir(t, dir), fingerprint(oracle)
}

// openStormPair opens a durable store with auto-checkpointing off and
// an in-memory oracle beside it, both holding an empty KV table. The
// store is closed when the test ends.
func openStormPair(t *testing.T) (dir string, db *DB, store *DurableStore, oracle *DB) {
	t.Helper()
	dir = t.TempDir()
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	db.MustCreate(kvTable())
	oracle = NewDB()
	oracle.MustCreate(kvTable())
	return dir, db, store, oracle
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// mustNotLoad asserts that OpenDurable refuses dir and that the refused
// checkpoint applied nothing: verification comes before the first row.
func mustNotLoad(t *testing.T, dir, label string) error {
	t.Helper()
	if _, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways}); err == nil {
		store.Close()
		t.Fatalf("%s: OpenDurable accepted a damaged checkpoint", label)
	}
	db := NewDB()
	_, err := loadCheckpoint(dir, db)
	if err == nil {
		t.Fatalf("%s: loadCheckpoint accepted a damaged checkpoint", label)
	}
	if names := db.Names(); len(names) != 0 {
		t.Fatalf("%s: rejected checkpoint still created tables %v", label, names)
	}
	return err
}

// TestCheckpointChecksumDetectsCorruption flips one byte of
// checkpoint.db: every header byte in turn, then random offsets across
// the payload and the trailer. Every flip must be refused before any
// table exists, and a flip past the header must be refused by the
// checksum (a header flip may trip the magic, version or length check
// first).
func TestCheckpointChecksumDetectsCorruption(t *testing.T) {
	dir, _ := checkpointedStorm(t, 21)
	path := filepath.Join(dir, "checkpoint.db")
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	offsets := make([]int, 0, ckHeaderSize+40)
	for off := 0; off < ckHeaderSize; off++ {
		offsets = append(offsets, off)
	}
	for i := 0; i < 40; i++ {
		offsets = append(offsets, ckHeaderSize+rng.Intn(len(image)-ckHeaderSize))
	}
	for _, off := range offsets {
		bad := append([]byte(nil), image...)
		bad[off] ^= byte(1 + rng.Intn(255))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		err := mustNotLoad(t, dir, fmt.Sprintf("flip at %d of %d", off, len(image)))
		if off >= ckHeaderSize && !errors.Is(err, errCheckpointSum) {
			t.Fatalf("flip at %d of %d: refused, but not by the checksum: %v", off, len(image), err)
		}
	}
}

// TestCheckpointTruncatedIsRefused cuts checkpoint.db short at the
// empty file, inside the header, inside the payload and one byte from
// the end: each is an error, never a partial load.
func TestCheckpointTruncatedIsRefused(t *testing.T) {
	dir, _ := checkpointedStorm(t, 23)
	path := filepath.Join(dir, "checkpoint.db")
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, ckHeaderSize / 2, ckHeaderSize, ckHeaderSize + 1, len(image) / 2, len(image) - ckSumSize, len(image) - 1} {
		if err := os.WriteFile(path, image[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		mustNotLoad(t, dir, fmt.Sprintf("cut to %d of %d bytes", n, len(image)))
	}
}

// TestCheckpointStrayTmpIgnored models a crash before the rename: a
// half-written checkpoint.tmp sits beside the previous image. Recovery
// must use the previous image and the WAL, and clear the stray file.
func TestCheckpointStrayTmpIgnored(t *testing.T) {
	dir, want := checkpointedStorm(t, 25)
	image, err := os.ReadFile(filepath.Join(dir, "checkpoint.db"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "checkpoint.tmp")
	if err := os.WriteFile(tmp, image[:len(image)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := fingerprint(db); !equalPrints(want, got) {
		t.Fatalf("recovered DB differs from oracle\nwant %v\ngot  %v", want, got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stray checkpoint.tmp survived recovery: %v", err)
	}
}

// TestCheckpointCrashBeforeWALTruncate models a crash between the
// rename and the WAL truncation: the new image sits beside a log that
// still holds every record the image already contains. Replay must skip
// them all — applying one twice would fail or double an insert.
func TestCheckpointCrashBeforeWALTruncate(t *testing.T) {
	dir, db, store, oracle := openStormPair(t)
	for _, op := range makeStorm(rand.New(rand.NewSource(27)), 80) {
		op(db)
		op(oracle)
	}
	fullLog, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash := copyDir(t, dir)
	if err := os.WriteFile(filepath.Join(crash, "wal.log"), fullLog, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, store2, err := OpenDurable(crash, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got, want := fingerprint(db2), fingerprint(oracle); !equalPrints(want, got) {
		t.Fatalf("recovered DB differs from oracle\nwant %v\ngot  %v", want, got)
	}
	st := store2.Stats()
	if st.RecoveredRecords != 0 || st.CheckpointLSN == 0 || st.CheckpointLSN != st.WAL.LastLSN {
		t.Fatalf("records at or below the checkpoint LSN were replayed: %+v", st)
	}
	// LSNs keep rising past the stale log, so the next record is not
	// mistaken for one the image holds.
	if _, err := db2.MustTable("KV").Insert(Row{nil, "post-recovery", int64(1)}); err != nil {
		t.Fatal(err)
	}
	if st := store2.Stats(); st.WAL.LastLSN <= st.CheckpointLSN {
		t.Fatalf("post-recovery LSN %d not past checkpoint LSN %d", st.WAL.LastLSN, st.CheckpointLSN)
	}
}

// TestRecoverWithoutCheckpointFile covers the first run that died
// before any checkpoint: a WAL and no checkpoint.db.
func TestRecoverWithoutCheckpointFile(t *testing.T) {
	dir, db, _, oracle := openStormPair(t)
	for _, op := range makeStorm(rand.New(rand.NewSource(29)), 80) {
		op(db)
		op(oracle)
	}
	crash := copyDir(t, dir)
	if got := dirNames(t, crash); fmt.Sprint(got) != "[wal.log]" {
		t.Fatalf("directory holds %v, want wal.log only", got)
	}
	db2, store2, err := OpenDurable(crash, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got, want := fingerprint(db2), fingerprint(oracle); !equalPrints(want, got) {
		t.Fatalf("recovered DB differs from oracle\nwant %v\ngot  %v", want, got)
	}
	if store2.Stats().RecoveredRecords == 0 {
		t.Fatal("nothing replayed from the WAL")
	}
}

// TestLegacyPageFileRefused: a directory written by the page-file
// layout is refused by name instead of being read as empty.
func TestLegacyPageFileRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "pages.db"), []byte("CRPG"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err == nil {
		store.Close()
		t.Fatal("OpenDurable accepted a pages.db directory")
	}
	if !strings.Contains(err.Error(), "pages.db") {
		t.Fatalf("error does not name pages.db: %v", err)
	}
}

// TestReplayAtEveryRecordBoundary is the satellite property test: for a
// scripted storm it truncates the WAL at every record boundary (and at
// torn mid-record offsets) and asserts each prefix recovers exactly the
// oracle state after the corresponding op — torn final records
// discarded, every earlier commit preserved.
func TestReplayAtEveryRecordBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nOps = 60
	ops := makeStorm(rng, nOps)

	dir := t.TempDir()
	// No auto-checkpoint: the whole storm must live in the WAL so every
	// record boundary is a valid recovery point.
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreate(kvTable())
	oracle := NewDB()
	oracle.MustCreate(kvTable())

	// records[j] = total WAL records after op j; prints[j] = oracle
	// fingerprint after op j. Ops touching zero rows append nothing, so
	// a record count can map to several ops — all with equal states.
	recsAfter := make([]uint64, nOps)
	prints := make([]map[string][]string, nOps)
	for i, op := range ops {
		op(db)
		op(oracle)
		recsAfter[i] = store.Stats().WAL.Appends
		prints[i] = fingerprint(oracle)
	}
	store.Close()

	walPath := filepath.Join(dir, "wal.log")
	recs, err := wal.ScanFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// recsAfter counts every append, the initial CREATE record included.
	if uint64(len(recs)) != recsAfter[nOps-1] {
		t.Fatalf("WAL holds %d records, script appended %d", len(recs), recsAfter[nOps-1])
	}
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// No checkpoint was ever taken, so wal.log is the whole directory.
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.db")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint.db with auto-checkpointing off: %v", err)
	}

	printForRecords := func(m uint64) (map[string][]string, bool) {
		// Find the last op whose cumulative append count (CREATE record
		// included) is exactly m.
		for j := nOps - 1; j >= 0; j-- {
			if recsAfter[j] == m {
				return prints[j], true
			}
			if recsAfter[j] < m {
				break
			}
		}
		return nil, false
	}

	// Every record boundary, plus torn cuts inside the following record.
	for k := 1; k <= len(recs); k++ {
		cuts := []int64{recs[k-1].End}
		if k < len(recs) {
			cuts = append(cuts, recs[k-1].End+3, recs[k].End-2)
		}
		for ci, cut := range cuts {
			want, ok := printForRecords(uint64(k))
			if !ok {
				if k == 1 {
					continue // bare CREATE: covered by kills[0] in TestKillReplay
				}
				t.Fatalf("no op maps to %d records", k)
			}
			sub := t.TempDir()
			if err := os.WriteFile(filepath.Join(sub, "wal.log"), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			db2, store2, err := OpenDurable(sub, DurableOptions{Sync: wal.SyncAlways})
			if err != nil {
				t.Fatalf("recover %d records (cut %d variant %d): %v", k, cut, ci, err)
			}
			if got := fingerprint(db2); !equalPrints(want, got) {
				t.Fatalf("recover %d records (cut %d variant %d): state differs\nwant %v\ngot  %v", k, cut, ci, want, got)
			}
			store2.Close()
		}
	}
}
