package relation

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func studentsTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable("Students",
		NewSchema(NotNullCol("SuID", TypeInt), NotNullCol("Name", TypeString), Col("Class", TypeString), Col("GPA", TypeFloat)),
		WithPrimaryKey("SuID"), WithAutoIncrement("SuID"), WithIndex("Class"))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestInsertAndGet(t *testing.T) {
	tbl := studentsTable(t)
	if _, err := tbl.Insert(Row{int64(1), "Ann", "2008", 3.9}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(Row{int64(2), "Bob", "2009", 3.1}); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tbl.Len())
	}
	row, ok := tbl.Get(int64(2))
	if !ok || row[1] != "Bob" {
		t.Fatalf("Get(2) = %v, %v", row, ok)
	}
	if _, ok := tbl.Get(int64(99)); ok {
		t.Error("Get(99) should miss")
	}
}

func TestInsertDuplicatePK(t *testing.T) {
	tbl := studentsTable(t)
	tbl.MustInsert(Row{int64(1), "Ann", "2008", 3.9})
	_, err := tbl.Insert(Row{int64(1), "Dup", "2008", 2.0})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("want ErrDuplicateKey, got %v", err)
	}
}

func TestAutoIncrement(t *testing.T) {
	tbl := studentsTable(t)
	tbl.MustInsert(Row{nil, "Ann", "2008", 3.9})
	tbl.MustInsert(Row{nil, "Bob", "2008", 3.0})
	if _, ok := tbl.Get(int64(1)); !ok {
		t.Error("auto id 1 missing")
	}
	if _, ok := tbl.Get(int64(2)); !ok {
		t.Error("auto id 2 missing")
	}
	// Explicit id above the counter advances it.
	tbl.MustInsert(Row{int64(10), "Eve", "2010", 3.5})
	tbl.MustInsert(Row{nil, "Zed", "2010", 2.8})
	if _, ok := tbl.Get(int64(11)); !ok {
		t.Error("auto id should continue from 11 after explicit 10")
	}
}

func TestInsertValidation(t *testing.T) {
	tbl := studentsTable(t)
	if _, err := tbl.Insert(Row{int64(1), "Ann"}); !errors.Is(err, ErrArity) {
		t.Errorf("short row: want ErrArity, got %v", err)
	}
	if _, err := tbl.Insert(Row{int64(1), nil, "2008", 3.9}); err == nil {
		t.Error("NULL in NOT NULL column should fail")
	}
	if _, err := tbl.Insert(Row{int64(1), "Ann", "2008", "high"}); err == nil {
		t.Error("type mismatch should fail")
	}
	// Int widens to float in GPA column.
	if _, err := tbl.Insert(Row{int64(1), "Ann", "2008", 4}); err != nil {
		t.Errorf("int into FLOAT column should widen: %v", err)
	}
}

func TestLookupIndexedAndUnindexed(t *testing.T) {
	tbl := studentsTable(t)
	tbl.MustInsert(Row{nil, "Ann", "2008", 3.9})
	tbl.MustInsert(Row{nil, "Bob", "2009", 3.1})
	tbl.MustInsert(Row{nil, "Cal", "2008", 3.4})

	if got := tbl.Lookup("Class", "2008"); len(got) != 2 {
		t.Errorf("indexed Lookup(Class, 2008) = %d rows, want 2", len(got))
	}
	if !tbl.HasIndex("class") {
		t.Error("HasIndex should be case-insensitive")
	}
	if got := tbl.Lookup("Name", "Bob"); len(got) != 1 || got[0][3] != 3.1 {
		t.Errorf("unindexed Lookup(Name, Bob) = %v", got)
	}
	if got := tbl.Lookup("NoSuchCol", 1); got != nil {
		t.Errorf("Lookup on missing column = %v, want nil", got)
	}
}

func TestUpdateWhere(t *testing.T) {
	tbl := studentsTable(t)
	tbl.MustInsert(Row{nil, "Ann", "2008", 3.9})
	tbl.MustInsert(Row{nil, "Bob", "2009", 3.1})
	n, err := tbl.UpdateWhere(
		func(r Row) bool { return r[1] == "Bob" },
		func(r Row) Row { r[3] = 3.6; return r })
	if err != nil || n != 1 {
		t.Fatalf("UpdateWhere = %d, %v", n, err)
	}
	row, _ := tbl.Get(int64(2))
	if row[3] != 3.6 {
		t.Errorf("Bob GPA = %v, want 3.6", row[3])
	}
}

func TestUpdatePKMove(t *testing.T) {
	tbl := studentsTable(t)
	tbl.MustInsert(Row{int64(1), "Ann", "2008", 3.9})
	tbl.MustInsert(Row{int64(2), "Bob", "2009", 3.1})
	// Moving Bob onto Ann's key must fail.
	_, err := tbl.UpdateWhere(
		func(r Row) bool { return r[0] == int64(2) },
		func(r Row) Row { r[0] = int64(1); return r })
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("want ErrDuplicateKey, got %v", err)
	}
	// Moving to a fresh key succeeds and old key disappears.
	if _, err := tbl.UpdateWhere(
		func(r Row) bool { return r[0] == int64(2) },
		func(r Row) Row { r[0] = int64(5); return r }); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Get(int64(2)); ok {
		t.Error("old key 2 should be gone")
	}
	if _, ok := tbl.Get(int64(5)); !ok {
		t.Error("new key 5 should exist")
	}
}

func TestDeleteWhereAndSlotReuse(t *testing.T) {
	tbl := studentsTable(t)
	tbl.MustInsert(Row{nil, "Ann", "2008", 3.9})
	tbl.MustInsert(Row{nil, "Bob", "2009", 3.1})
	tbl.MustInsert(Row{nil, "Cal", "2008", 3.4})
	if n, _ := tbl.DeleteWhere(func(r Row) bool { return r[2] == "2008" }); n != 2 {
		t.Fatalf("DeleteWhere = %d, want 2", n)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
	if got := tbl.Lookup("Class", "2008"); len(got) != 0 {
		t.Errorf("index should be empty for 2008, got %v", got)
	}
	// Freed slots are reused.
	tbl.MustInsert(Row{nil, "Dot", "2010", 3.2})
	tbl.MustInsert(Row{nil, "Eli", "2010", 3.3})
	if tbl.Len() != 3 {
		t.Fatalf("Len after reuse = %d, want 3", tbl.Len())
	}
	if got := tbl.Lookup("Class", "2010"); len(got) != 2 {
		t.Errorf("Lookup(2010) = %d rows, want 2", len(got))
	}
}

func TestScanEarlyStopAndRows(t *testing.T) {
	tbl := studentsTable(t)
	for i := 0; i < 5; i++ {
		tbl.MustInsert(Row{nil, "S", "2008", 3.0})
	}
	seen := 0
	tbl.Scan(func(_ int, _ Row) bool { seen++; return seen < 3 })
	if seen != 3 {
		t.Errorf("early stop saw %d rows, want 3", seen)
	}
	if rows := tbl.Rows(); len(rows) != 5 {
		t.Errorf("Rows() = %d, want 5", len(rows))
	}
}

func TestTableOptionErrors(t *testing.T) {
	sch := NewSchema(Col("A", TypeInt), Col("B", TypeString))
	if _, err := NewTable("t", sch, WithPrimaryKey("nope")); err == nil {
		t.Error("bad PK column should fail")
	}
	if _, err := NewTable("t", sch, WithAutoIncrement("B")); err == nil {
		t.Error("auto-increment on TEXT should fail")
	}
	if _, err := NewTable("t", sch, WithIndex("nope")); err == nil {
		t.Error("bad index column should fail")
	}
}

// Invariant check used by the randomized test: every live row is reachable
// through the PK index and the secondary index buckets exactly cover the
// live rows.
func checkIndexConsistency(t *testing.T, tbl *Table) {
	t.Helper()
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	live := 0
	for slot, r := range tbl.rows {
		if r == nil {
			continue
		}
		live++
		if tbl.pkIndex != nil {
			got, ok := tbl.pkIndex[tbl.pkKey(r)]
			if !ok || got != slot {
				t.Fatalf("pk index inconsistent for slot %d", slot)
			}
		}
	}
	if live != tbl.live {
		t.Fatalf("live count %d != tracked %d", live, tbl.live)
	}
	if tbl.pkIndex != nil && len(tbl.pkIndex) != live {
		t.Fatalf("pk index size %d != live %d", len(tbl.pkIndex), live)
	}
	for _, ix := range tbl.hash {
		if ix == nil {
			continue
		}
		n := 0
		for _, slots := range ix.slots {
			for _, s := range slots {
				if tbl.rows[s] == nil {
					t.Fatal("secondary index points at tombstone")
				}
				n++
			}
		}
		if n != live {
			t.Fatalf("secondary index covers %d rows, want %d", n, live)
		}
	}
}

// Property: under a random interleaving of inserts, deletes and updates the
// indexes stay exactly consistent with the live rows.
func TestRandomizedMutationInvariant(t *testing.T) {
	tbl := studentsTable(t)
	rng := rand.New(rand.NewSource(7))
	ids := make(map[int64]bool)
	next := int64(1)
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // insert
			id := next
			next++
			tbl.MustInsert(Row{id, "S", []string{"2008", "2009", "2010"}[rng.Intn(3)], float64(rng.Intn(40)) / 10})
			ids[id] = true
		case op < 8: // delete random existing
			for id := range ids {
				tbl.DeleteWhere(func(r Row) bool { return r[0] == id })
				delete(ids, id)
				break
			}
		default: // update class of a random row
			for id := range ids {
				if _, err := tbl.UpdateWhere(
					func(r Row) bool { return r[0] == id },
					func(r Row) Row { r[2] = "2011"; return r }); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	checkIndexConsistency(t, tbl)
	if tbl.Len() != len(ids) {
		t.Fatalf("Len = %d, want %d", tbl.Len(), len(ids))
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	tbl := studentsTable(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tbl.MustInsert(Row{nil, "S", "2008", 3.0})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tbl.Scan(func(_ int, row Row) bool { _ = row[0]; return true })
				tbl.Len()
			}
		}()
	}
	wg.Wait()
	if tbl.Len() != 800 {
		t.Fatalf("Len = %d, want 800", tbl.Len())
	}
	checkIndexConsistency(t, tbl)
}

func TestDBLifecycle(t *testing.T) {
	db := NewDB()
	tbl := studentsTable(t)
	if err := db.Create(tbl); err != nil {
		t.Fatal(err)
	}
	if err := db.Create(tbl); err == nil {
		t.Error("duplicate Create should fail")
	}
	got, ok := db.Table("Students")
	if !ok || got != tbl {
		t.Error("Table lookup failed")
	}
	if _, ok := db.Table("Nope"); ok {
		t.Error("missing table should not resolve")
	}
	if names := db.Names(); len(names) != 1 || names[0] != "Students" {
		t.Errorf("Names = %v", names)
	}
	if !db.Drop("Students") {
		t.Error("Drop should report true")
	}
	if db.Drop("Students") {
		t.Error("second Drop should report false")
	}
}

func TestMustTablePanics(t *testing.T) {
	db := NewDB()
	defer func() {
		if recover() == nil {
			t.Error("MustTable on missing table should panic")
		}
	}()
	db.MustTable("missing")
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(Col("A", TypeInt), NotNullCol("B", TypeString))
	if s.Len() != 2 {
		t.Fatal("Len")
	}
	if i, ok := s.Index("b"); !ok || i != 1 {
		t.Error("case-insensitive Index failed")
	}
	if s.MustIndex("A") != 0 {
		t.Error("MustIndex")
	}
	if got := s.String(); got != "(A INT, B TEXT NOT NULL)" {
		t.Errorf("String = %q", got)
	}
	if names := s.Names(); names[0] != "A" || names[1] != "B" {
		t.Errorf("Names = %v", names)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate column should panic")
		}
	}()
	NewSchema(Col("x", TypeInt), Col("X", TypeInt))
}
