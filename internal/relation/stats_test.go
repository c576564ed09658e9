package relation

import "testing"

func statsTable(t *testing.T) *Table {
	t.Helper()
	tbl := MustTable("People",
		NewSchema(
			NotNullCol("ID", TypeInt),
			NotNullCol("Dep", TypeString),
			Col("Age", TypeInt),
		), WithPrimaryKey("ID"), WithIndex("Dep"))
	for i, dep := range []string{"cs", "cs", "ee", "me", "ee", "cs"} {
		tbl.MustInsert(Row{int64(i + 1), dep, int64(20 + i)})
	}
	return tbl
}

func TestStatsIncremental(t *testing.T) {
	tbl := statsTable(t)
	st := tbl.Stats()
	if st.Rows != 6 {
		t.Fatalf("Rows = %d, want 6", st.Rows)
	}
	if d, ok := st.DistinctOf("Dep"); !ok || d != 3 {
		t.Fatalf("DistinctOf(Dep) = %d,%v, want 3,true", d, ok)
	}
	if d, ok := st.DistinctOf("ID"); !ok || d != 6 {
		t.Fatalf("DistinctOf(ID) = %d,%v, want 6,true (pk)", d, ok)
	}
	if _, ok := st.DistinctOf("Age"); ok {
		t.Fatal("Age has no index, should have no distinct estimate")
	}

	// Statistics track mutations without rescans.
	tbl.DeleteWhere(func(r Row) bool { return r[1] == "me" })
	st = tbl.Stats()
	if st.Rows != 5 {
		t.Fatalf("Rows after delete = %d, want 5", st.Rows)
	}
	if d, _ := st.DistinctOf("Dep"); d != 2 {
		t.Fatalf("DistinctOf(Dep) after delete = %d, want 2", d)
	}
	tbl.MustInsert(Row{int64(9), "bio", int64(30)})
	if d, _ := tbl.Stats().DistinctOf("Dep"); d != 3 {
		t.Fatalf("DistinctOf(Dep) after insert = %d, want 3", d)
	}
}

func TestStatsIgnoreNullBucket(t *testing.T) {
	tbl := MustTable("Opt",
		NewSchema(NotNullCol("ID", TypeInt), Col("Tag", TypeString)),
		WithPrimaryKey("ID"), WithIndex("Tag"))
	tbl.MustInsert(Row{int64(1), "a"})
	tbl.MustInsert(Row{int64(2), nil})
	tbl.MustInsert(Row{int64(3), nil})
	if d, _ := tbl.Stats().DistinctOf("Tag"); d != 1 {
		t.Fatalf("DistinctOf(Tag) = %d, want 1 (NULLs are not values)", d)
	}
}

func TestStatsSelectivity(t *testing.T) {
	tbl := statsTable(t)
	st := tbl.Stats()
	if got := st.Selectivity("Dep"); got != 2 {
		t.Fatalf("Selectivity(Dep) = %v, want 2 (6 rows / 3 distinct)", got)
	}
	if got := st.Selectivity("Age"); got != 2 {
		t.Fatalf("Selectivity(Age) = %v, want 6/3 fallback", got)
	}
}

func TestVersionBumps(t *testing.T) {
	tbl := statsTable(t)
	v0 := tbl.Version()
	tbl.MustInsert(Row{int64(7), "cs", nil})
	if tbl.Version() <= v0 {
		t.Fatal("insert should bump version")
	}
	v1 := tbl.Version()
	if _, err := tbl.UpdateWhere(func(r Row) bool { return r[0] == int64(7) }, func(r Row) Row {
		r[2] = int64(33)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() <= v1 {
		t.Fatal("update should bump version")
	}
	v2 := tbl.Version()
	tbl.DeleteWhere(func(r Row) bool { return r[0] == int64(7) })
	if tbl.Version() <= v2 {
		t.Fatal("delete should bump version")
	}
	v3 := tbl.Version()
	tbl.Scan(func(_ int, _ Row) bool { return true })
	if tbl.Version() != v3 {
		t.Fatal("reads must not bump version")
	}
}

func TestLookupMany(t *testing.T) {
	tbl := statsTable(t)
	rows := tbl.LookupManyRef("Dep", []Value{"cs", "me", nil, "nope"})
	if len(rows) != 4 {
		t.Fatalf("LookupManyRef = %d rows, want 4 (3 cs + 1 me; NULL and absent match nothing)", len(rows))
	}
	// Slot order, deduplicated even when keys repeat.
	rows = tbl.LookupManyRef("Dep", []Value{"ee", "ee"})
	if len(rows) != 2 || rows[0][0] != int64(3) || rows[1][0] != int64(5) {
		t.Fatalf("LookupManyRef dedup/order broken: %v", rows)
	}
	// Unindexed column degrades to one scan with identical semantics.
	rows = tbl.LookupManyRef("Age", []Value{int64(21), int64(24)})
	if len(rows) != 2 {
		t.Fatalf("unindexed LookupManyRef = %d rows, want 2", len(rows))
	}
	if got := tbl.LookupManyRef("Dep", nil); got != nil {
		t.Fatalf("empty key set should return nil, got %v", got)
	}
	if got := tbl.LookupManyRef("Dep", []Value{nil}); got != nil {
		t.Fatalf("a NULL-only key set should return nil, got %v", got)
	}
}

// TestEachRef pins EachRef as LookupManyRef for one key: the same
// stored rows in slot order, also once a delete has left the key's index
// entries out of slot order and the freed slot is reused.
func TestEachRef(t *testing.T) {
	tbl := statsTable(t)
	each := func(col string, key Value) []Row {
		var out []Row
		tbl.EachRef(col, key, func(r Row) { out = append(out, r) })
		return out
	}
	same := func(step string) {
		t.Helper()
		for _, q := range []struct {
			col string
			key Value
		}{{"Dep", "cs"}, {"Dep", "ee"}, {"Dep", "nope"}, {"Dep", nil}, {"Age", int64(22)}} {
			got, want := each(q.col, q.key), tbl.LookupManyRef(q.col, []Value{q.key})
			if len(got) != len(want) {
				t.Fatalf("%s: EachRef(%s, %v) = %v, LookupManyRef %v", step, q.col, q.key, got, want)
			}
			for i := range got {
				if &got[i][0] != &want[i][0] {
					t.Fatalf("%s: EachRef(%s, %v) row %d is %v, LookupManyRef's %v", step, q.col, q.key, i, got[i], want[i])
				}
			}
		}
	}
	same("fresh")
	if n, err := tbl.DeleteWhere(func(r Row) bool { return r[0] == int64(1) }); err != nil || n != 1 {
		t.Fatalf("delete: %d %v", n, err)
	}
	tbl.MustInsert(Row{int64(7), "cs", int64(30)}) // into slot 0, behind slots 1 and 5 in the index
	if rows := each("Dep", "cs"); len(rows) != 3 || rows[0][0] != int64(7) {
		t.Fatalf("EachRef after slot reuse = %v, want the reused slot's row first", rows)
	}
	same("after a delete and a reused slot")
}

func TestGetMany(t *testing.T) {
	tbl := statsTable(t)
	rows := tbl.GetManyRef([]Value{int64(5)}, []Value{int64(99)}, []Value{int64(2)}, []Value{int64(5)})
	if len(rows) != 2 {
		t.Fatalf("GetManyRef = %d rows, want 2 (missing keys skipped, dups collapsed)", len(rows))
	}
	if rows[0][0] != int64(2) || rows[1][0] != int64(5) {
		t.Fatalf("GetManyRef should return slot order regardless of key order: %v", rows)
	}
	// Returned rows are the stored rows themselves, as GetRef's are.
	if ref, _ := tbl.GetRef(int64(2)); &ref[0] != &rows[0][0] {
		t.Fatal("GetManyRef must return references to the stored rows")
	}
}
