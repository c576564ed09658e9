package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"courserank/internal/wal"
)

// The checkpoint file is the one snapshot format: these tests check
// what a checkpoint → reopen carries across, and which payloads the
// loader refuses even when their checksum is valid.

func openTestDurable(t *testing.T, dir string) (*DB, *DurableStore) {
	t.Helper()
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncNone, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return db, store
}

// checkpointPayload returns the verified payload of dir's checkpoint.
func checkpointPayload(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	_, payload, err := verifyCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// checkpointReopen checkpoints and closes store, then reopens dir.
func checkpointReopen(t *testing.T, dir string, store *DurableStore) (*DB, *DurableStore) {
	t.Helper()
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return openTestDurable(t, dir)
}

// writeCheckpointPayload frames payload as dir's checkpoint file with a
// valid header and checksum, as writeCheckpoint would.
func writeCheckpointPayload(t *testing.T, dir, payload string) {
	t.Helper()
	head := checkpointHeader(0, uint64(len(payload)))
	sum := crc32.Update(crc32.Checksum([]byte(payload), castagnoli), castagnoli, head)
	file := append(append(head, payload...), binary.LittleEndian.AppendUint32(nil, sum)...)
	if err := os.WriteFile(filepath.Join(dir, checkpointFile), file, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRoundTripCells round-trips NULL, FLOAT, BOOL and TEXT
// cells through checkpoint → reopen, with the primary key, the
// auto-increment counter and the secondary index intact.
func TestCheckpointRoundTripCells(t *testing.T) {
	dir := t.TempDir()
	db, store := openTestDurable(t, dir)
	students := MustTable("Students",
		NewSchema(NotNullCol("SuID", TypeInt), NotNullCol("Name", TypeString), Col("GPA", TypeFloat), Col("Active", TypeBool)),
		WithPrimaryKey("SuID"), WithAutoIncrement("SuID"), WithIndex("Name"))
	db.MustCreate(students)
	students.MustInsert(Row{nil, "Ann", 3.9, true})
	students.MustInsert(Row{nil, "Bob", nil, false})
	db.MustCreate(MustTable("Plain", NewSchema(Col("X", TypeInt))))
	db.MustTable("Plain").MustInsert(Row{int64(7)})

	got, store := checkpointReopen(t, dir, store)
	defer store.Close()
	if names := got.Names(); len(names) != 2 {
		t.Fatalf("tables = %v", names)
	}
	st := got.MustTable("Students")
	if st.Len() != 2 {
		t.Fatalf("rows = %d", st.Len())
	}
	row, ok := st.Get(int64(1))
	if !ok || row[1] != "Ann" || row[2] != 3.9 || row[3] != true {
		t.Errorf("row = %v", row)
	}
	row, _ = st.Get(int64(2))
	if row[2] != nil || row[3] != false {
		t.Errorf("null round trip: %v", row)
	}
	if got := st.PrimaryKey(); len(got) != 1 || got[0] != "SuID" {
		t.Errorf("pk = %v", got)
	}
	if st.AutoIncrement() != "SuID" {
		t.Errorf("autoinc = %q", st.AutoIncrement())
	}
	st.MustInsert(Row{nil, "Cal", 3.0, true})
	if _, ok := st.Get(int64(3)); !ok {
		t.Error("auto-increment did not resume after reopen")
	}
	if !st.HasIndex("Name") {
		t.Error("secondary index lost")
	}
	if hits := st.Lookup("Name", "Ann"); len(hits) != 1 {
		t.Errorf("index lookup = %v", hits)
	}
}

func TestOrderedIndexSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, store := openTestDurable(t, dir)
	src := orderedTable(t)
	db.MustCreate(MustTable("m", src.Schema(), WithPrimaryKey("ID"), WithOrderedIndex("Score")))
	m := db.MustTable("m")
	for _, r := range src.Rows() {
		m.MustInsert(r)
	}
	want := scores(m.Range("Score", nil, nil))

	got, store := checkpointReopen(t, dir, store)
	defer store.Close()
	lt := got.MustTable("m")
	if !lt.HasOrderedIndex("Score") {
		t.Fatal("ordered index lost across checkpoint")
	}
	if got := scores(lt.Range("Score", nil, nil)); !reflect.DeepEqual(got, want) {
		t.Fatalf("range after reopen = %v, want %v", got, want)
	}
}

// refusesPayload asserts that OpenDurable refuses dir's checkpoint and
// returns why. Unlike mustNotLoad the payload passed its checksum, so
// the tables before the broken line may already exist in the discarded
// database.
func refusesPayload(t *testing.T, dir, label string) error {
	t.Helper()
	_, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncNone})
	if err == nil {
		store.Close()
		t.Fatalf("%s: OpenDurable accepted a broken payload", label)
	}
	return err
}

// TestLoadErrors: a payload whose checksum is valid but whose contents
// are not a snapshot is refused.
func TestLoadErrors(t *testing.T) {
	const head = `{"table":"T","columns":[{"name":"A","type":"INT"}],"rows":1,"slots":1}`
	cases := map[string]string{
		"unknown type":   `{"table":"T","columns":[{"name":"A","type":"WAT"}],"rows":0,"slots":0}`,
		"bad cell":       head + "\n" + `[0,"x"]`,
		"wrong arity":    head + "\n" + `[0,1,2]`,
		"no slot":        head + "\n" + `[]`,
		"missing row":    head,
		"not json":       `not json`,
		"bad pk":         `{"table":"T","columns":[{"name":"A","type":"INT"}],"pk":["nope"],"rows":0,"slots":0}`,
		"duplicate name": `{"table":"T","columns":[{"name":"A","type":"INT"}],"rows":0,"slots":0}` + "\n" + `{"table":"T","columns":[{"name":"A","type":"INT"}],"rows":0,"slots":0}`,
	}
	for name, payload := range cases {
		dir := t.TempDir()
		writeCheckpointPayload(t, dir, payload)
		err := refusesPayload(t, dir, name)
		if name == "wrong arity" && !errors.Is(err, ErrArity) {
			t.Errorf("wrong arity refused as %v, want ErrArity", err)
		}
	}
	// An empty payload is an empty database.
	dir := t.TempDir()
	writeCheckpointPayload(t, dir, "")
	db := NewDB()
	if _, err := loadCheckpoint(dir, db); err != nil || len(db.Names()) != 0 {
		t.Errorf("empty payload: %v, %v", db.Names(), err)
	}
}

// TestLoadTruncatedStream cuts a checkpoint payload inside its final
// row and re-frames it with a valid checksum: the loader must refuse it
// (never silently load a partial table) and name the table it broke in.
func TestLoadTruncatedStream(t *testing.T) {
	full := `{"table":"Users","columns":[{"name":"ID","type":"INT"},{"name":"Name","type":"TEXT"}],"pk":["ID"],"rows":2,"slots":2}` + "\n" +
		`[0,1,"ann"]` + "\n" +
		`[1,2,"bob"]` + "\n"
	// Start inside the final row's JSON (dropping only the trailing
	// newline is still a complete payload).
	for cut := len(full) - 2; cut > len(full)-12; cut-- {
		dir := t.TempDir()
		writeCheckpointPayload(t, dir, full[:cut])
		if err := refusesPayload(t, dir, "truncated payload"); !strings.Contains(err.Error(), "Users") {
			t.Fatalf("cut at %d: error does not name the table: %v", cut, err)
		}
	}
}

// Property: checkpoint → reopen → checkpoint is a fixed point (a
// byte-identical second payload) for random row contents.
func TestSnapshotFixedPointProperty(t *testing.T) {
	f := func(names []string, gpas []float64, flags []bool) bool {
		dir := t.TempDir()
		db, store := openTestDurable(t, dir)
		tbl := MustTable("T",
			NewSchema(NotNullCol("ID", TypeInt), Col("Name", TypeString), Col("GPA", TypeFloat), Col("Flag", TypeBool)),
			WithPrimaryKey("ID"), WithAutoIncrement("ID"))
		db.MustCreate(tbl)
		for i, n := range names {
			var gpa Value
			if i < len(gpas) && !isNaN(gpas[i]) {
				gpa = gpas[i]
			}
			var flag Value
			if i < len(flags) {
				flag = flags[i]
			}
			if _, err := tbl.Insert(Row{nil, n, gpa, flag}); err != nil {
				store.Close()
				return false
			}
		}
		_, store = checkpointReopen(t, dir, store)
		first := checkpointPayload(t, dir)
		_, store = checkpointReopen(t, dir, store)
		defer store.Close()
		return bytes.Equal(first, checkpointPayload(t, dir))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func isNaN(f float64) bool { return f != f }
