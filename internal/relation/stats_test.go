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
	rows := tbl.LookupMany("Dep", []Value{"cs", "me", nil, "nope"})
	if len(rows) != 4 {
		t.Fatalf("LookupMany = %d rows, want 4 (3 cs + 1 me; NULL and absent match nothing)", len(rows))
	}
	// Slot order, deduplicated even when keys repeat.
	rows = tbl.LookupMany("Dep", []Value{"ee", "ee"})
	if len(rows) != 2 || rows[0][0] != int64(3) || rows[1][0] != int64(5) {
		t.Fatalf("LookupMany dedup/order broken: %v", rows)
	}
	// Unindexed column degrades to one scan with identical semantics.
	rows = tbl.LookupMany("Age", []Value{int64(21), int64(24)})
	if len(rows) != 2 {
		t.Fatalf("unindexed LookupMany = %d rows, want 2", len(rows))
	}
	if got := tbl.LookupMany("Dep", nil); got != nil {
		t.Fatalf("empty key set should return nil, got %v", got)
	}
	if got := tbl.LookupMany("Dep", []Value{nil}); got != nil {
		t.Fatalf("a NULL-only key set should return nil, got %v", got)
	}
}

// TestEach pins Each as Lookup without the slice, and both as LookupMany
// for one non-NULL key: the same stored rows in slot order, also once a
// delete has left the key's index entries out of slot order and the
// freed slot is reused.
func TestEach(t *testing.T) {
	tbl := statsTable(t)
	each := func(col string, key Value) []Row {
		var out []Row
		tbl.Each(col, key, func(r Row) { out = append(out, r) })
		return out
	}
	sameRows := func(step, what string, got, want []Row) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %s = %v, want %v", step, what, got, want)
		}
		for i := range got {
			if &got[i][0] != &want[i][0] {
				t.Fatalf("%s: %s row %d is %v, want %v", step, what, i, got[i], want[i])
			}
		}
	}
	same := func(step string) {
		t.Helper()
		for _, q := range []struct {
			col string
			key Value
		}{{"Dep", "cs"}, {"Dep", "ee"}, {"Dep", "nope"}, {"Age", int64(22)}, {"Age", 22.0}} {
			lookup := tbl.Lookup(q.col, q.key)
			sameRows(step, "Each("+q.col+")", each(q.col, q.key), lookup)
			sameRows(step, "Lookup("+q.col+") vs LookupMany", lookup, tbl.LookupMany(q.col, []Value{q.key}))
		}
	}
	same("fresh")
	if n, err := tbl.DeleteWhere(func(r Row) bool { return r[0] == int64(1) }); err != nil || n != 1 {
		t.Fatalf("delete: %d %v", n, err)
	}
	tbl.MustInsert(Row{int64(7), "cs", int64(30)}) // into slot 0, behind slots 1 and 5 in the index
	if rows := each("Dep", "cs"); len(rows) != 3 || rows[0][0] != int64(7) {
		t.Fatalf("Each after slot reuse = %v, want the reused slot's row first", rows)
	}
	same("after a delete and a reused slot")
}

func TestGetEach(t *testing.T) {
	tbl := statsTable(t)
	prefix := []Row{nil}
	rows := tbl.GetEach([]Value{int64(5), int64(99), nil, 2.0, int64(5), "x"}, prefix)
	if len(rows) != 7 || rows[0] != nil {
		t.Fatalf("GetEach = %v, want the prefix and one entry per key", rows)
	}
	rows = rows[1:]
	// Keys keep their order; a missing, NULL or mistyped key has no row;
	// an integral float finds its integer key, as Get does.
	for i, want := range []any{int64(5), nil, nil, int64(2), int64(5), nil} {
		if want == nil {
			if rows[i] != nil {
				t.Fatalf("GetEach key %d = %v, want no row", i, rows[i])
			}
			continue
		}
		if rows[i] == nil || rows[i][0] != want {
			t.Fatalf("GetEach key %d = %v, want the row of %v", i, rows[i], want)
		}
	}
	// Returned rows are the stored rows themselves, as Get's are.
	if ref, _ := tbl.Get(int64(2)); &ref[0] != &rows[3][0] {
		t.Fatal("GetEach must return the stored rows")
	}
	if allocs := testing.AllocsPerRun(50, func() {
		rows = tbl.GetEach([]Value{int64(5), int64(2)}, rows[:0])
	}); allocs != 0 {
		t.Errorf("GetEach into a slice with room allocates %.0f times, want 0", allocs)
	}
}
