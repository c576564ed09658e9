package relation

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Ordered secondary indexes: a sorted slot list per column, maintained
// incrementally by binary search on every insert, update and delete.
// Where the hash indexes in table.go answer equality probes, an ordered
// index answers range predicates (<, <=, >, >=, BETWEEN) and yields its
// rows in key order — which lets the SQL planner elide an ORDER BY whose
// key the chosen index already sorts by.

// orderedEntry pairs one indexed value with the slot storing it.
type orderedEntry struct {
	val  Value
	slot int
}

// orderedIndex keeps entries sorted by (Compare(val), slot). NULLs are
// not indexed: no range predicate matches NULL, mirroring SQL
// comparison semantics.
type orderedIndex struct {
	col     int
	entries []orderedEntry
	gen     uint64 // bumped whenever entries change; open cursors re-seek on it
}

// search returns the position of the first entry >= (val, slot).
func (ix *orderedIndex) search(val Value, slot int) int {
	return sort.Search(len(ix.entries), func(i int) bool {
		c := Compare(ix.entries[i].val, val)
		if c != 0 {
			return c > 0
		}
		return ix.entries[i].slot >= slot
	})
}

func (ix *orderedIndex) add(slot int, row Row) {
	v := row[ix.col]
	if v == nil {
		return
	}
	i := ix.search(v, slot)
	ix.entries = append(ix.entries, orderedEntry{})
	copy(ix.entries[i+1:], ix.entries[i:])
	ix.entries[i] = orderedEntry{val: v, slot: slot}
	ix.gen++
}

func (ix *orderedIndex) remove(slot int, row Row) {
	v := row[ix.col]
	if v == nil {
		return
	}
	i := ix.search(v, slot)
	if i < len(ix.entries) && ix.entries[i].slot == slot && Equal(ix.entries[i].val, v) {
		ix.entries = append(ix.entries[:i], ix.entries[i+1:]...)
		ix.gen++
	}
}

// update rekeys slot from old's value to repl's. An unchanged key keeps
// its position, so the whole maintenance is skipped; a changed key
// relocates with one memmove over the span between the old and new
// positions, instead of the remove/add pair's two tail moves.
func (ix *orderedIndex) update(slot int, old, repl Row) {
	ov, nv := old[ix.col], repl[ix.col]
	if ov == nil {
		ix.add(slot, repl)
		return
	}
	if nv == nil {
		ix.remove(slot, old)
		return
	}
	if Equal(ov, nv) {
		return
	}
	i := ix.search(ov, slot)
	if i >= len(ix.entries) || ix.entries[i].slot != slot || !Equal(ix.entries[i].val, ov) {
		ix.add(slot, repl) // old entry absent; keep the index consistent
		return
	}
	// j is the insertion point in the array as it stands, old entry
	// still in place at i; the three cases below collapse remove(i) +
	// insert into a single bounded shift.
	j := ix.search(nv, slot)
	ix.gen++
	switch {
	case j > i+1: // moving right: (i, j) shifts left, entry lands at j-1
		copy(ix.entries[i:], ix.entries[i+1:j])
		ix.entries[j-1] = orderedEntry{val: nv, slot: slot}
	case j < i: // moving left: [j, i) shifts right, entry lands at j
		copy(ix.entries[j+1:i+1], ix.entries[j:i])
		ix.entries[j] = orderedEntry{val: nv, slot: slot}
	default: // j == i or i+1: the new key sorts in the same place
		ix.entries[i] = orderedEntry{val: nv, slot: slot}
	}
}

// RangeBound is one end of a range probe. A nil *RangeBound means the
// end is unbounded; NULL bound values match nothing (x >= NULL is never
// true), which callers handle before building the bound.
type RangeBound struct {
	Value     Value
	Inclusive bool
}

// span returns the half-open entry interval [i, j) matching the bounds.
func (ix *orderedIndex) span(lo, hi *RangeBound) (int, int) {
	start := 0
	if lo != nil {
		start = sort.Search(len(ix.entries), func(i int) bool {
			c := Compare(ix.entries[i].val, lo.Value)
			if lo.Inclusive {
				return c >= 0
			}
			return c > 0
		})
	}
	end := len(ix.entries)
	if hi != nil {
		end = sort.Search(len(ix.entries), func(i int) bool {
			c := Compare(ix.entries[i].val, hi.Value)
			if hi.Inclusive {
				return c > 0
			}
			return c >= 0
		})
	}
	if end < start {
		end = start
	}
	return start, end
}

// WithOrderedIndex adds an ordered secondary index on a single column,
// accelerating range predicates and ordered iteration. A column may
// carry both a hash index (equality) and an ordered index (ranges).
func WithOrderedIndex(col string) TableOption {
	return func(t *Table) error {
		i, ok := t.schema.Index(col)
		if !ok {
			return fmt.Errorf("relation: ordered index column %q not in schema", col)
		}
		t.ordered[i] = &orderedIndex{col: i}
		return nil
	}
}

// AddOrderedIndex builds an ordered index on the column over the
// existing rows. It is the one in-place DDL operation tables support,
// so it bumps the schema epoch: cached query plans fingerprinted on the
// old epoch replan and can adopt the new access path. Adding an index
// that already exists is a no-op. With attached Storage the alter is
// journaled so a recovered table rebuilds the same access paths.
func (t *Table) AddOrderedIndex(col string) error {
	sb := t.store.Load()
	if sb == nil {
		return t.addOrderedIndexLocked(col)
	}
	sb.s.BeginMutate()
	err := t.addOrderedIndexLocked(col)
	var lsn uint64
	if err == nil {
		lsn, err = sb.s.LogAlter(t.Name(), col)
	}
	sb.s.EndMutate()
	if err != nil {
		return err
	}
	return sb.s.WaitDurable(lsn)
}

func (t *Table) addOrderedIndexLocked(col string) error {
	ci, ok := t.schema.Index(col)
	if !ok {
		return fmt.Errorf("relation: ordered index column %q not in schema", col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ordered[ci] != nil {
		return nil
	}
	ix := &orderedIndex{col: ci}
	for slot, r := range t.rows {
		if r != nil && r[ci] != nil {
			ix.entries = append(ix.entries, orderedEntry{val: r[ci], slot: slot})
		}
	}
	sort.Slice(ix.entries, func(a, b int) bool {
		c := Compare(ix.entries[a].val, ix.entries[b].val)
		if c != 0 {
			return c < 0
		}
		return ix.entries[a].slot < ix.entries[b].slot
	})
	t.ordered[ci] = ix
	t.epoch++
	return nil
}

// HasOrderedIndex reports whether an ordered index exists on the column.
func (t *Table) HasOrderedIndex(col string) bool {
	_, ok := t.orderedIndexOf(col)
	return ok
}

// OrderedIndexes returns the lower-cased names of columns with ordered
// indexes, sorted.
func (t *Table) OrderedIndexes() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []string
	for ci, ix := range t.ordered {
		if ix != nil {
			out = append(out, strings.ToLower(t.schema.Column(ci).Name))
		}
	}
	sort.Strings(out)
	return out
}

// RangeCount returns how many index entries fall inside the bounds —
// an O(log n) selectivity estimate for the query planner — and whether
// the column has an ordered index at all.
func (t *Table) RangeCount(col string, lo, hi *RangeBound) (int, bool) {
	ix, ok := t.orderedIndexOf(col)
	if !ok {
		return 0, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, j := ix.span(lo, hi)
	return j - i, true
}

// RangeCursor iterates the rows an ordered index places inside [lo, hi]
// in key order (ties in slot order). Opening one costs nothing but the
// index lookup: the cursor keeps no copy of the matching entries and
// instead walks the live index a batch at a time under the read lock
// NextBatch takes anyway, so reading the first k rows of a span costs k
// rows however long the span is, an open cursor never blocks writers,
// and a long drain holds the lock only per batch. Between batches the
// cursor remembers its index position together with the index's change
// counter; when a writer moved the index in between it re-seeks, by
// binary search, just past the last (key, slot) entry it consumed.
//
// Under concurrent DML every emitted row lies inside the bounds and the
// emitted key sequence is always ascending with ties in ascending slot
// order (the basis of ORDER BY elision). A row deleted before the cursor
// reaches it is skipped, as is a row re-keyed to a position behind the
// cursor; no slot is ever emitted twice — a row already emitted and then
// re-keyed ahead of the cursor is not seen again — and rows inserted
// ahead of the cursor may be seen, the same read-committed-flavored
// visibility the scan cursor has.
type RangeCursor struct {
	t      *Table
	ix     *orderedIndex
	lo, hi *RangeBound
	desc   bool

	// Walk state, trusted only while ix.gen == gen. Ascending, pos runs
	// to end, the span's end. Descending, pos runs forward through one
	// key group [gstart, end) at a time and the groups are visited back
	// to front down to floor, the span's start.
	gen    uint64
	pos    int
	end    int
	gstart int
	floor  int

	// The last entry consumed, where a re-seek resumes.
	started  bool
	lastVal  Value
	lastSlot int

	// Slots handed out so far: a list while the index stands still,
	// turned into a set by the first re-seek — only a moved index can
	// offer an already emitted slot again.
	emitted []int
	seen    map[int]struct{}
}

// NewRangeCursor opens a range iteration over the column's ordered
// index, reporting false when the column has none.
func (t *Table) NewRangeCursor(col string, lo, hi *RangeBound) (*RangeCursor, bool) {
	ix, ok := t.orderedIndexOf(col)
	if !ok {
		return nil, false
	}
	return &RangeCursor{t: t, ix: ix, lo: lo, hi: hi}, true
}

func (t *Table) orderedIndexOf(col string) (*orderedIndex, bool) {
	ci, ok := t.schema.Index(col)
	if !ok {
		return nil, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix := t.ordered[ci]
	return ix, ix != nil
}

// seek positions the walk: at the span's first entry in iteration order
// when nothing was consumed yet, else just past the last consumed
// entry. Caller holds the read lock.
func (c *RangeCursor) seek() {
	ix := c.ix
	i, j := ix.span(c.lo, c.hi)
	c.gen = ix.gen
	if c.started && c.seen == nil {
		c.seen = make(map[int]struct{}, 2*len(c.emitted))
		for _, slot := range c.emitted {
			c.seen[slot] = struct{}{}
		}
		c.emitted = nil
	}
	if !c.desc {
		c.pos, c.end = i, j
		if c.started {
			c.pos = max(i, ix.search(c.lastVal, c.lastSlot+1))
		}
		return
	}
	c.floor = i
	if !c.started {
		// An exhausted pseudo-group at the span's end: the first step
		// moves to the group below it, the span's largest key.
		c.pos, c.end, c.gstart = j, j, j
		return
	}
	// The rest of the last key's group, then the groups below it.
	c.pos = ix.search(c.lastVal, c.lastSlot+1)
	c.gstart = ix.search(c.lastVal, 0)
	c.end = ix.search(c.lastVal, math.MaxInt)
}

// groupStart returns where the key group ending just before end begins,
// never below floor: a few neighbour compares for the short groups of a
// near-unique column, a binary search for long tie groups.
func (ix *orderedIndex) groupStart(end, floor int) int {
	v := ix.entries[end-1].val
	g := end - 1
	for n := 0; n < 4 && g > floor && Equal(ix.entries[g-1].val, v); n++ {
		g--
	}
	if g > floor && Equal(ix.entries[g-1].val, v) {
		g = max(floor, ix.search(v, 0))
	}
	return g
}

// step consumes the next index entry in iteration order.
func (c *RangeCursor) step() (orderedEntry, bool) {
	for c.pos >= c.end {
		if !c.desc || c.gstart <= c.floor {
			return orderedEntry{}, false
		}
		// Descending: step to the key group just below the finished one.
		c.end = c.gstart
		c.gstart = c.ix.groupStart(c.end, c.floor)
		c.pos = c.gstart
	}
	en := c.ix.entries[c.pos]
	c.pos++
	return en, true
}

// NextBatch fills dst with row references in key order, returning how
// many it produced; 0 means the cursor is exhausted. The rows must not
// be mutated (stored rows are immutable once inserted, so holding the
// references across batches is safe).
func (c *RangeCursor) NextBatch(dst []Row) int {
	c.t.mu.RLock()
	defer c.t.mu.RUnlock()
	if !c.started || c.gen != c.ix.gen {
		c.seek()
	}
	n := 0
	for n < len(dst) {
		en, ok := c.step()
		if !ok {
			break
		}
		c.started, c.lastVal, c.lastSlot = true, en.val, en.slot
		if c.seen != nil {
			if _, dup := c.seen[en.slot]; dup {
				continue
			}
			c.seen[en.slot] = struct{}{}
		} else {
			if c.emitted == nil {
				c.emitted = make([]int, 0, len(dst))
			}
			c.emitted = append(c.emitted, en.slot)
		}
		dst[n] = c.t.rows[en.slot]
		n++
	}
	return n
}

// Range returns the stored rows whose column value lies inside the
// bounds, in key order — the materialized convenience over RangeCursor.
func (t *Table) Range(col string, lo, hi *RangeBound) []Row {
	cur, ok := t.NewRangeCursor(col, lo, hi)
	if !ok {
		return nil
	}
	var out []Row
	buf := make([]Row, 64)
	for {
		n := cur.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// DescCursor iterates the rows an ordered index places inside [lo, hi]
// in DESCENDING key order, with ties in ascending slot order — exactly
// the sequence a stable descending sort of a slot-order scan produces,
// which is what lets the SQL planner elide ORDER BY key DESC and still
// match the sorted path row for row. It is a RangeCursor walking the
// live index back to front one key group at a time, with the same
// opening cost (none) and the same DML discipline, so the emitted key
// sequence is always non-increasing.
type DescCursor struct{ RangeCursor }

// NewDescCursor opens a descending range iteration over the column's
// ordered index, reporting false when the column has none.
func (t *Table) NewDescCursor(col string, lo, hi *RangeBound) (*DescCursor, bool) {
	ix, ok := t.orderedIndexOf(col)
	if !ok {
		return nil, false
	}
	return &DescCursor{RangeCursor{t: t, ix: ix, lo: lo, hi: hi, desc: true}}, true
}

// ScanCursor iterates every live row in slot order, fetching references
// in batches under the read lock — the streaming counterpart of Scan
// for pull-based executors. Rows inserted behind the cursor's position
// during iteration are not revisited; rows appended ahead are seen.
type ScanCursor struct {
	t    *Table
	next int
}

// NewScanCursor opens a batched full-table iteration.
func (t *Table) NewScanCursor() *ScanCursor {
	return &ScanCursor{t: t}
}

// NextBatch fills dst with live row references in slot order, returning
// how many it produced; 0 means the table is exhausted.
func (c *ScanCursor) NextBatch(dst []Row) int {
	c.t.mu.RLock()
	defer c.t.mu.RUnlock()
	n := 0
	for c.next < len(c.t.rows) && n < len(dst) {
		row := c.t.rows[c.next]
		c.next++
		if row == nil {
			continue
		}
		dst[n] = row
		n++
	}
	return n
}
