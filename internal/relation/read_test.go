package relation

import "testing"

// readTable holds 300 rows keyed 1000.. with an indexed, nullable Dep
// (every seventh row NULL) and an unindexed, nullable Age.
func readTable(t *testing.T) *Table {
	t.Helper()
	tbl := MustTable("People",
		NewSchema(
			NotNullCol("ID", TypeInt),
			Col("Dep", TypeString),
			Col("Age", TypeInt),
		), WithPrimaryKey("ID"), WithIndex("Dep"))
	for i := range 300 {
		var dep, age Value = []string{"cs", "ee", "me"}[i%3], int64(20 + i%9)
		if i%7 == 0 {
			dep, age = nil, nil
		}
		tbl.MustInsert(Row{int64(1000 + i), dep, age})
	}
	return tbl
}

// TestReadsReturnStoredRows pins the one read API: every read hands out
// the stored row itself, never a copy.
func TestReadsReturnStoredRows(t *testing.T) {
	tbl := readTable(t)
	stored := map[*Value]bool{}
	tbl.Scan(func(_ int, r Row) bool { stored[&r[0]] = true; return true })
	check := func(what string, rows ...Row) {
		t.Helper()
		if len(rows) == 0 {
			t.Fatalf("%s returned no rows", what)
		}
		for _, r := range rows {
			if !stored[&r[0]] {
				t.Fatalf("%s returned a row that is not a stored one: %v", what, r)
			}
		}
	}
	r, _ := tbl.Get(int64(1001))
	check("Get", r)
	check("Lookup", tbl.Lookup("Dep", "cs")...)
	check("Lookup unindexed", tbl.Lookup("Age", int64(22))...)
	check("Rows", tbl.Rows()...)
	check("GetEach", tbl.GetEach([]Value{int64(1002), int64(1003)}, nil)...)
	check("LookupMany", tbl.LookupMany("Dep", []Value{"ee"})...)
	tbl.Each("Dep", "me", func(r Row) { check("Each", r) })

	if err := tbl.AddOrderedIndex("Age"); err != nil {
		t.Fatal(err)
	}
	check("Range", tbl.Range("Age", &RangeBound{Value: int64(24), Inclusive: true}, nil)...)

	tx := NewDB().Begin()
	tr, _ := tx.Get(tbl, int64(1004))
	check("Tx.Get", tr)
	check("Tx.Lookup", tx.Lookup(tbl, "Dep", "cs")...)
	tx.Rollback()
}

// TestLookupNullKey pins the NULL rule of Lookup, Each and Tx.Lookup: a
// NULL key finds the rows whose column is NULL, through an index and
// through a scan alike; LookupMany keeps SQL's rule, NULL matches
// nothing.
func TestLookupNullKey(t *testing.T) {
	tbl := readTable(t)
	for _, col := range []string{"Dep", "Age"} {
		ci := tbl.Schema().MustIndex(col)
		var want []Row
		tbl.Scan(func(_ int, r Row) bool {
			if r[ci] == nil {
				want = append(want, r)
			}
			return true
		})
		if len(want) != 43 {
			t.Fatalf("%s: %d NULL rows, want 43", col, len(want))
		}
		var each []Row
		tbl.Each(col, nil, func(r Row) { each = append(each, r) })
		tx := NewDB().Begin()
		for what, got := range map[string][]Row{
			"Lookup":    tbl.Lookup(col, nil),
			"Each":      each,
			"Tx.Lookup": tx.Lookup(tbl, col, nil),
		} {
			if len(got) != len(want) {
				t.Fatalf("%s(%s, NULL) = %d rows, want %d", what, col, len(got), len(want))
			}
			for i := range got {
				if &got[i][0] != &want[i][0] {
					t.Fatalf("%s(%s, NULL) row %d = %v, want %v", what, col, i, got[i], want[i])
				}
			}
		}
		tx.Rollback()
		if got := tbl.LookupMany(col, []Value{nil}); got != nil {
			t.Fatalf("LookupMany(%s, [NULL]) = %v, want nothing", col, got)
		}
	}
}

// TestReadAllocs pins what a read allocates: resolving the column name
// and encoding the probe key cost nothing, so a point read is free and
// a Lookup allocates its result slice and nothing else.
func TestReadAllocs(t *testing.T) {
	tbl := readTable(t)
	key := int64(1234)
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := tbl.Get(key); !ok {
			t.Fatal("Get missed")
		}
	}); n != 0 {
		t.Errorf("Get on an int key: %.1f allocs, want 0", n)
	}
	dep := "ee"
	if n := testing.AllocsPerRun(200, func() {
		rows := 0
		tbl.Each("Dep", dep, func(Row) { rows++ })
		if rows == 0 {
			t.Fatal("Each found nothing")
		}
	}); n != 0 {
		t.Errorf("Each on an indexed column: %.1f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if len(tbl.Lookup("dep", dep)) == 0 {
			t.Fatal("Lookup found nothing")
		}
	}); n != 1 {
		t.Errorf("Lookup on an indexed column: %.1f allocs, want 1 (the result slice)", n)
	}
}
