package relation

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// The range and descending cursors walk the live ordered index a batch
// at a time instead of copying their span when they open. These tests
// pin that the walk is the materialization it replaced — batch size and
// tie groups straddling batch boundaries notwithstanding — and that it
// keeps its contract while a writer moves the index under it.

// walkBatch is the batch size the boundary cases are laid out around.
const walkBatch = 16

// tiedTable holds n rows whose Score runs in tie groups of walkBatch+3
// — every group straddles a batch boundary somewhere — followed by a
// stretch of unique scores, inserted in an order that interleaves the
// groups across slots.
func tiedTable(t testing.TB, n int) *Table {
	t.Helper()
	tbl := MustTable("w", NewSchema(
		NotNullCol("ID", TypeInt),
		Col("Score", TypeInt),
	), WithPrimaryKey("ID"), WithOrderedIndex("Score"))
	for i := 0; i < n; i++ {
		// A stride coprime to n scatters neighbours of a group over slots.
		j := (i * 7) % n
		score := int64(j / (walkBatch + 3))
		if j >= 3*n/4 {
			score = int64(1000 + j) // the unique tail
		}
		tbl.MustInsert(Row{int64(i), score})
	}
	return tbl
}

// materialized is the oracle: a slot-order scan, filtered by the bounds
// and stably sorted by key in the walk's direction.
func materialized(tbl *Table, lo, hi *RangeBound, desc bool) []Row {
	var rows []Row
	tbl.Scan(func(_ int, r Row) bool {
		v := r[1]
		if v == nil {
			return true
		}
		if lo != nil {
			if c := Compare(v, lo.Value); c < 0 || (c == 0 && !lo.Inclusive) {
				return true
			}
		}
		if hi != nil {
			if c := Compare(v, hi.Value); c > 0 || (c == 0 && !hi.Inclusive) {
				return true
			}
		}
		rows = append(rows, r)
		return true
	})
	sort.SliceStable(rows, func(a, b int) bool {
		c := Compare(rows[a][1], rows[b][1])
		if desc {
			return c > 0
		}
		return c < 0
	})
	return rows
}

type batchCursor interface{ NextBatch([]Row) int }

func openWalk(t testing.TB, tbl *Table, lo, hi *RangeBound, desc bool) batchCursor {
	t.Helper()
	if desc {
		c, ok := tbl.NewDescCursor("Score", lo, hi)
		if !ok {
			t.Fatal("no descending cursor")
		}
		return c
	}
	c, ok := tbl.NewRangeCursor("Score", lo, hi)
	if !ok {
		t.Fatal("no range cursor")
	}
	return c
}

func ids(rows []Row) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].(int64)
	}
	return out
}

func TestOrderedCursorsMatchMaterialization(t *testing.T) {
	for _, n := range []int{0, 1, walkBatch - 1, walkBatch, walkBatch + 1, 10 * walkBatch} {
		tbl := tiedTable(t, n)
		bounds := [][2]*RangeBound{
			{nil, nil},
			{{Value: int64(1), Inclusive: true}, nil},
			{{Value: int64(1)}, {Value: int64(1100), Inclusive: true}},
			{nil, {Value: int64(3)}},
			{{Value: int64(5000)}, nil}, // empty span
		}
		for bi, b := range bounds {
			for _, desc := range []bool{false, true} {
				want := ids(materialized(tbl, b[0], b[1], desc))
				for _, batch := range []int{1, walkBatch, 3*walkBatch + 1} {
					cur := openWalk(t, tbl, b[0], b[1], desc)
					var got []Row
					buf := make([]Row, batch)
					for {
						k := cur.NextBatch(buf)
						if k == 0 {
							break
						}
						got = append(got, buf[:k]...)
					}
					if !reflect.DeepEqual(ids(got), want) {
						t.Fatalf("n=%d bounds#%d desc=%v batch=%d:\n got %v\nwant %v", n, bi, desc, batch, ids(got), want)
					}
				}
			}
		}
	}
}

// TestOrderedCursorReseeksAcrossIndexChanges moves the index between
// every two batches without touching the span being read — inserting and
// deleting rows outside the bounds shifts every entry position — and the
// walk must still be the materialization: a re-seek resumes exactly past
// the last entry consumed, mid tie group included.
func TestOrderedCursorReseeksAcrossIndexChanges(t *testing.T) {
	lo, hi := &RangeBound{Value: int64(0), Inclusive: true}, &RangeBound{Value: int64(2000)}
	for _, desc := range []bool{false, true} {
		tbl := tiedTable(t, 10*walkBatch)
		want := ids(materialized(tbl, lo, hi, desc))
		cur := openWalk(t, tbl, lo, hi, desc)
		var got []Row
		buf := make([]Row, 5) // never aligned with a tie group
		for round := 0; ; round++ {
			k := cur.NextBatch(buf)
			if k == 0 {
				break
			}
			got = append(got, buf[:k]...)
			id := int64(100_000 + round)
			tbl.MustInsert(Row{id, int64(-1 - round%3)}) // below the span: shifts it right
			if round%2 == 1 {
				if _, err := tbl.DeleteWhere(func(r Row) bool { return r[0].(int64) == id-1 }); err != nil {
					t.Fatal(err)
				}
			}
			tbl.MustInsert(Row{id + 50_000, int64(9000 + round)}) // above it
		}
		if !reflect.DeepEqual(ids(got), want) {
			t.Fatalf("desc=%v: walk across index changes\n got %v\nwant %v", desc, ids(got), want)
		}
	}
}

// TestOrderedCursorNeverEmitsARowTwice pins what a re-keyed row does to
// an open cursor: emitted already and moved ahead, it is not seen again;
// not reached yet and moved further ahead, it is seen once, at its new
// key; moved behind the cursor, it is missed; and a row inserted ahead
// may be seen.
func TestOrderedCursorNeverEmitsARowTwice(t *testing.T) {
	for _, desc := range []bool{false, true} {
		tbl := MustTable("r", NewSchema(NotNullCol("ID", TypeInt), Col("Score", TypeInt)),
			WithPrimaryKey("ID"), WithOrderedIndex("Score"))
		for i := 0; i < 10; i++ {
			tbl.MustInsert(Row{int64(i), int64(10 * i)}) // scores 0,10,…,90
		}
		// ahead/behind are score offsets in the walk's direction.
		ahead := func(from, by int64) int64 {
			if desc {
				return from - by
			}
			return from + by
		}
		rekey := func(id, score int64) {
			t.Helper()
			if err := tbl.UpdateByKey([]Value{id}, func(r Row) Row { r[1] = score; return r }); err != nil {
				t.Fatal(err)
			}
		}
		cur := openWalk(t, tbl, nil, nil, desc)
		buf := make([]Row, 3)
		if n := cur.NextBatch(buf); n != 3 {
			t.Fatalf("first batch = %d rows", n)
		}
		first, third := buf[0][0].(int64), buf[2][0].(int64)
		at := buf[2][1].(int64) // the cursor stands just past this score
		// 1. an emitted row jumps ahead of the cursor
		rekey(first, ahead(at, 25))
		// 2. an unreached row (two steps ahead) jumps further ahead
		var unreached int64 = third + 2
		if desc {
			unreached = third - 2
		}
		rekey(unreached, ahead(at, 45))
		// 3. another unreached row falls behind the cursor
		var fallen int64 = third + 3
		if desc {
			fallen = third - 3
		}
		rekey(fallen, ahead(at, -15))
		// 4. a new row lands just ahead
		tbl.MustInsert(Row{int64(77), ahead(at, 5)})

		seen := map[int64]int64{}
		prev := at
		for {
			n := cur.NextBatch(buf)
			if n == 0 {
				break
			}
			for _, r := range buf[:n] {
				id, score := r[0].(int64), r[1].(int64)
				if _, dup := seen[id]; dup || id == first {
					t.Fatalf("desc=%v: row %d emitted twice (score %d)", desc, id, score)
				}
				if (desc && score > prev) || (!desc && score < prev) {
					t.Fatalf("desc=%v: key order broke: %d after %d", desc, score, prev)
				}
				seen[id], prev = score, score
			}
		}
		if got, ok := seen[unreached]; !ok || got != ahead(at, 45) {
			t.Errorf("desc=%v: row moved further ahead: seen=%v at %d, want once at %d", desc, ok, got, ahead(at, 45))
		}
		if _, ok := seen[fallen]; ok {
			t.Errorf("desc=%v: a row re-keyed behind the cursor was emitted", desc)
		}
		if _, ok := seen[77]; !ok {
			t.Errorf("desc=%v: the row inserted just ahead was not seen", desc)
		}
	}
}

// TestOrderedCursorsUnderWriter runs cursors against one goroutine that
// inserts, re-keys and deletes for a second. Every row gets a fresh ID,
// so an ID seen twice by one cursor is one row emitted twice.
func TestOrderedCursorsUnderWriter(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(MustTable("churn", NewSchema(
		NotNullCol("ID", TypeInt),
		Col("Score", TypeInt),
	), WithPrimaryKey("ID"), WithOrderedIndex("Score")))
	for i := 0; i < 400; i++ {
		tbl.MustInsert(Row{int64(i), int64(i % 50)})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		deadline := time.Now().Add(time.Second)
		for i := 0; time.Now().Before(deadline); i++ {
			id := int64(1000 + i)
			if _, err := tbl.Insert(Row{id, int64(i % 50)}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			// Re-key an old and the new row, forwards and backwards.
			for _, k := range []int64{id, int64(i % 400)} {
				err := tbl.UpdateByKey([]Value{k}, func(r Row) Row { r[1] = (r[1].(int64) + 17) % 50; return r })
				if err != nil && i < 400 {
					t.Errorf("update %d: %v", k, err)
					return
				}
			}
			if i%3 == 0 {
				victim := id - 2
				if _, err := tbl.DeleteWhere(func(r Row) bool { return r[0].(int64) == victim }); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}
	}()

	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(desc bool) {
			defer wg.Done()
			lo, hi := &RangeBound{Value: int64(5), Inclusive: true}, &RangeBound{Value: int64(45)}
			buf := make([]Row, 7)
			for opened := 0; ; opened++ {
				select {
				case <-stop:
					if opened == 0 {
						t.Error("reader never opened a cursor")
					}
					return
				default:
				}
				cur := openWalk(t, tbl, lo, hi, desc)
				seen := map[int64]bool{}
				var prev Value
				for {
					n := cur.NextBatch(buf)
					if n == 0 {
						break
					}
					for _, r := range buf[:n] {
						id, score := r[0].(int64), r[1].(int64)
						if score < 5 || score >= 45 {
							t.Errorf("desc=%v: row %d outside the bounds: %d", desc, id, score)
							return
						}
						if prev != nil {
							if c := Compare(score, prev); (desc && c > 0) || (!desc && c < 0) {
								t.Errorf("desc=%v: key order broke: %d after %v", desc, score, prev)
								return
							}
						}
						if seen[id] {
							t.Errorf("desc=%v: row %d emitted twice", desc, id)
							return
						}
						seen[id], prev = true, score
					}
				}
			}
		}(g == 1)
	}
	wg.Wait()
}

// BenchmarkDescCursorFirstBatch is what a top-k read pays the storage
// layer: open a descending cursor over a long span and take one batch.
func BenchmarkDescCursorFirstBatch(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("span=%d", n), func(b *testing.B) {
			tbl := MustTable("b", NewSchema(NotNullCol("ID", TypeInt), Col("Score", TypeInt)),
				WithPrimaryKey("ID"), WithOrderedIndex("Score"))
			for i := 0; i < n; i++ {
				tbl.MustInsert(Row{int64(i), int64(i % 9)})
			}
			buf := make([]Row, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur, _ := tbl.NewDescCursor("Score", &RangeBound{Value: int64(2), Inclusive: true}, nil)
				if cur.NextBatch(buf) != len(buf) {
					b.Fatal("short batch")
				}
			}
		})
	}
}
