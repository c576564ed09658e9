package relation

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Common errors returned by table operations.
var (
	ErrDuplicateKey = errors.New("relation: duplicate primary key")
	ErrNotFound     = errors.New("relation: row not found")
	ErrArity        = errors.New("relation: row arity does not match schema")
)

// TableOption configures a table at construction time.
type TableOption func(*Table) error

// WithPrimaryKey declares the primary key columns. Inserts enforce
// uniqueness and Get performs O(1) lookups on the key.
func WithPrimaryKey(cols ...string) TableOption {
	return func(t *Table) error {
		for _, c := range cols {
			i, ok := t.schema.Index(c)
			if !ok {
				return fmt.Errorf("relation: primary key column %q not in schema", c)
			}
			t.pk = append(t.pk, i)
		}
		t.pkIndex = make(map[string]int)
		return nil
	}
}

// WithAutoIncrement makes the named INT column auto-assign increasing
// values when an insert supplies NULL for it.
func WithAutoIncrement(col string) TableOption {
	return func(t *Table) error {
		i, ok := t.schema.Index(col)
		if !ok {
			return fmt.Errorf("relation: auto-increment column %q not in schema", col)
		}
		if t.schema.Column(i).Type != TypeInt {
			return fmt.Errorf("relation: auto-increment column %q must be INT", col)
		}
		t.autoCol = i
		return nil
	}
}

// WithIndex adds a secondary hash index on a single column, accelerating
// Lookup on equality.
func WithIndex(col string) TableOption {
	return func(t *Table) error {
		i, ok := t.schema.Index(col)
		if !ok {
			return fmt.Errorf("relation: index column %q not in schema", col)
		}
		t.indexes[strings.ToLower(col)] = &secondaryIndex{col: i, slots: make(map[string][]int)}
		return nil
	}
}

// secondaryIndex is a hash index from a single column's encoded value to
// the row slots holding that value.
type secondaryIndex struct {
	col   int
	slots map[string][]int
}

func (ix *secondaryIndex) add(slot int, row Row) {
	k := encodeKey([]Value{row[ix.col]})
	ix.slots[k] = append(ix.slots[k], slot)
}

func (ix *secondaryIndex) remove(slot int, row Row) {
	k := encodeKey([]Value{row[ix.col]})
	list := ix.slots[k]
	for i, s := range list {
		if s == slot {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(ix.slots, k)
	} else {
		ix.slots[k] = list
	}
}

// update rekeys slot from old's value to repl's. Updates usually touch
// columns other than this index's, so the unchanged-value case skips
// the remove/add pair (two key encodings plus a slot-list scan).
func (ix *secondaryIndex) update(slot int, old, repl Row) {
	if Equal(old[ix.col], repl[ix.col]) {
		return
	}
	ix.remove(slot, old)
	ix.add(slot, repl)
}

// Table is a mutable, thread-safe relation: a schema plus rows, with
// optional primary-key and secondary hash indexes. Deleted rows leave
// tombstones that scans skip; slots are reused by later inserts.
type Table struct {
	mu       sync.RWMutex
	name     string
	schema   *Schema
	rows     []Row      // nil entries are tombstones; always the NEWEST version
	meta     []slotMeta // parallel to rows: MVCC visibility stamps (see txn.go)
	free     []int      // tombstone slots available for reuse
	live     int
	pk       []int
	pkIndex  map[string]int
	indexes  map[string]*secondaryIndex
	ordered  map[string]*orderedIndex
	autoCol  int
	nextAut  int64
	shardCol int           // -1 = no declared shard key (see shard.go)
	obs      []RowObserver // committed-mutation observers (see shard.go)
	version  uint64
	epoch    uint64
	store    atomic.Pointer[storageBox] // nil = ephemeral (memory-only) backend
	clock    *txClock                   // owning DB's transaction clock; nil until registered

	// vslots marks slots carrying transactional residue — staged
	// writes, retained version chains, or committed-dead heads awaiting
	// GC. Empty vslots is the fast path: every slot is plain and reads
	// skip version resolution.
	vslots map[int]struct{}
}

// Version returns a counter that increases on every mutation (insert,
// update, delete). Derived views and caches compare versions to decide
// whether a rebuild is due, instead of diffing rows.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// SchemaEpoch returns a counter that increases only when the table's
// shape changes — today, when an index is added to a live table
// (AddOrderedIndex). Row DML never moves it. Query plans fingerprint on
// the epoch rather than the mutation version, so cached plans survive
// writes and replan only when an access path could have appeared or
// vanished (or when statistics drift far enough; see sqlmini's cache).
func (t *Table) SchemaEpoch() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch
}

// PlanFingerprint returns the schema epoch and live-row count under a
// single lock acquisition — the plan-cache validity probe, which runs
// once per dependent table on every statement execution.
func (t *Table) PlanFingerprint() (epoch uint64, rows int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch, t.live
}

// ViewFingerprint returns the schema epoch and mutation version under a
// single lock acquisition — the materialized-view freshness probe.
// Where plans fingerprint on (epoch, row-count drift) because they bake
// in access paths but never data, views bake in DATA: any row DML makes
// a view's contents potentially stale, so views key on the full
// mutation counter.
func (t *Table) ViewFingerprint() (epoch, version uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch, t.version
}

// NewTable constructs an empty table with the given name and schema.
func NewTable(name string, schema *Schema, opts ...TableOption) (*Table, error) {
	t := &Table{
		name:     name,
		schema:   schema,
		indexes:  make(map[string]*secondaryIndex),
		ordered:  make(map[string]*orderedIndex),
		autoCol:  -1,
		nextAut:  1,
		shardCol: -1,
	}
	for _, opt := range opts {
		if err := opt(t); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustTable is NewTable that panics on error; for statically known schemas.
func MustTable(name string, schema *Schema, opts ...TableOption) *Table {
	t, err := NewTable(name, schema, opts...)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// PrimaryKey returns the primary-key column names, if any.
func (t *Table) PrimaryKey() []string {
	out := make([]string, len(t.pk))
	for i, c := range t.pk {
		out[i] = t.schema.Column(c).Name
	}
	return out
}

// AutoIncrement returns the auto-increment column name, or "".
func (t *Table) AutoIncrement() string {
	if t.autoCol < 0 {
		return ""
	}
	return t.schema.Column(t.autoCol).Name
}

// SecondaryIndexes returns the names of columns with secondary indexes,
// sorted.
func (t *Table) SecondaryIndexes() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.indexes))
	for name := range t.indexes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of live rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// validate coerces a row to the schema, applying auto-increment and
// checking arity, types and NOT NULL constraints. Caller holds the lock.
func (t *Table) validate(row Row) (Row, error) {
	if len(row) != t.schema.Len() {
		return nil, fmt.Errorf("%w: table %s wants %d columns, got %d", ErrArity, t.name, t.schema.Len(), len(row))
	}
	out := make(Row, len(row))
	for i, v := range row {
		if v == nil && i == t.autoCol {
			v = t.nextAut
			t.nextAut++
		}
		col := t.schema.Column(i)
		cv, err := Coerce(v, col.Type)
		if err != nil {
			return nil, fmt.Errorf("relation: table %s column %s: %w", t.name, col.Name, err)
		}
		if cv == nil && col.NotNull {
			return nil, fmt.Errorf("relation: table %s column %s: NULL in NOT NULL column", t.name, col.Name)
		}
		if iv, ok := cv.(int64); ok && i == t.autoCol && iv >= t.nextAut {
			t.nextAut = iv + 1
		}
		out[i] = cv
	}
	return out, nil
}

func (t *Table) pkKey(row Row) string {
	vals := make([]Value, len(t.pk))
	for i, c := range t.pk {
		vals[i] = row[c]
	}
	return encodeKey(vals)
}

// insertLocked validates and stores a row; the caller holds the write
// lock and stamps meta[slot].begin before releasing it. It returns the
// slot and the stored row.
func (t *Table) insertLocked(row Row) (int, Row, error) {
	r, err := t.validate(row)
	if err != nil {
		return 0, nil, err
	}
	var key string
	if t.pkIndex != nil {
		key = t.pkKey(r)
		if slot, dup := t.pkIndex[key]; dup {
			// The mapping can be stale: retained versions of a deleted
			// row keep their key mapped until GC. Only a claim that is
			// live in the latest-committed view (or staged by an open
			// transaction) blocks the insert.
			if row := t.visibleLocked(slot, LatestSnap()); row != nil && t.pkKey(row) == key {
				return 0, nil, fmt.Errorf("%w: table %s key %v", ErrDuplicateKey, t.name, key)
			}
			if m := &t.meta[slot]; m.btx != 0 && t.pkKey(t.rows[slot]) == key {
				t.countConflict()
				return 0, nil, fmt.Errorf("relation: table %s key %v staged by an open transaction: %w", t.name, key, ErrTxConflict)
			}
		}
	}
	slot := t.newSlotLocked(r)
	if t.pkIndex != nil {
		t.pkIndex[key] = slot
	}
	for _, ix := range t.indexes {
		ix.add(slot, r)
	}
	for _, ix := range t.ordered {
		ix.add(slot, r)
	}
	t.live++
	t.version++
	return slot, r, nil
}

// Insert validates and stores a row, returning the slot it occupies.
// On a table with attached Storage the insert is journaled before
// Insert returns; a WAL failure rolls the row back out of memory.
func (t *Table) Insert(row Row) (int, error) {
	if sb := t.store.Load(); sb != nil {
		slot, _, err := t.insertDurable(sb.s, row)
		return slot, err
	}
	seq, _ := t.clock.alloc()
	t.mu.Lock()
	slot, r, err := t.insertLocked(row)
	if err == nil {
		t.meta[slot].begin = seq
		t.notifyLocked(MutInsert, nil, r, t.version)
	}
	t.mu.Unlock()
	t.clock.complete(seq)
	return slot, err
}

// InsertGet inserts a row and returns a copy of the stored row, which
// reflects auto-increment assignment and type coercion.
func (t *Table) InsertGet(row Row) (Row, error) {
	if sb := t.store.Load(); sb != nil {
		_, r, err := t.insertDurable(sb.s, row)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
	seq, _ := t.clock.alloc()
	t.mu.Lock()
	slot, r, err := t.insertLocked(row)
	if err != nil {
		t.mu.Unlock()
		t.clock.complete(seq)
		return nil, err
	}
	t.meta[slot].begin = seq
	t.notifyLocked(MutInsert, nil, r, t.version)
	clone := r.Clone()
	t.mu.Unlock()
	t.clock.complete(seq)
	return clone, nil
}

// insertDurable applies an insert and journals it following the
// Storage protocol (see storage.go). The returned row is a copy.
func (t *Table) insertDurable(s Storage, row Row) (int, Row, error) {
	s.BeginMutate()
	seq, _ := t.clock.alloc()
	t.mu.Lock()
	slot, r, err := t.insertLocked(row)
	if err != nil {
		t.mu.Unlock()
		t.clock.complete(seq)
		s.EndMutate()
		return 0, nil, err
	}
	lsn, err := s.LogMutations(t.name, []Mutation{{Kind: MutInsert, Slot: slot, Row: r}})
	if err != nil {
		t.applyDeleteSlot(slot)
		t.mu.Unlock()
		t.clock.complete(seq)
		s.EndMutate()
		return 0, nil, err
	}
	t.meta[slot].begin = seq
	t.notifyLocked(MutInsert, nil, r, t.version)
	clone := r.Clone()
	t.mu.Unlock()
	t.clock.complete(seq)
	s.EndMutate()
	return slot, clone, s.WaitDurable(lsn)
}

// MustInsert inserts and panics on error; for generator/loader code paths
// where a failure indicates a programming bug.
func (t *Table) MustInsert(row Row) int {
	slot, err := t.Insert(row)
	if err != nil {
		panic(err)
	}
	return slot
}

// Get returns a copy of the row with the given primary-key values.
func (t *Table) Get(key ...Value) (Row, bool) {
	return t.GetSnap(LatestSnap(), key...)
}

// GetSnap is Get as of a snapshot. When the pk mapping misses but the
// table carries transactional residue it falls back to a scan: a
// re-inserted key remaps the pk index to the newest slot, which an old
// snapshot may not see even though an older version elsewhere matches.
func (t *Table) GetSnap(sn Snap, key ...Value) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot, ok := t.pkSlotLocked(key)
	if ok {
		if r := t.visibleLocked(slot, sn); r != nil {
			return r.Clone(), true
		}
	}
	if len(t.vslots) == 0 || t.pkIndex == nil || len(key) != len(t.pk) {
		return nil, false
	}
	norm := make([]Value, len(key))
	for i, v := range key {
		nv, err := Normalize(v)
		if err != nil {
			return nil, false
		}
		norm[i] = nv
	}
	if r, ok := t.pkFallbackLocked(sn, encodeKey(norm)); ok {
		return r.Clone(), true
	}
	return nil, false
}

// pkFallbackLocked scans for the visible row carrying primary key want.
// It backs up the pk mapping while transactional residue exists: a
// re-inserted key remaps the index to the newest slot, which a given
// snapshot (including the latest, while the re-insert is only staged)
// may not see even though the version it can see lives in another slot.
func (t *Table) pkFallbackLocked(sn Snap, want string) (Row, bool) {
	for slot := range t.rows {
		if r := t.visibleLocked(slot, sn); r != nil && t.pkKey(r) == want {
			return r, true
		}
	}
	return nil, false
}

// pkSlotLocked resolves primary-key values to a row slot; the caller
// holds at least the read lock. The single integer key — the dominant
// probe shape (auto-increment ids) — skips the normalization slice and
// encodeKey's builder: the key renders into a stack buffer and the
// string([]byte) map index compiles to a no-allocation lookup.
func (t *Table) pkSlotLocked(key []Value) (int, bool) {
	if t.pkIndex == nil || len(key) != len(t.pk) {
		return 0, false
	}
	if len(key) == 1 {
		var x int64
		switch v := key[0].(type) {
		case int64:
			x = v
		case int:
			x = int64(v)
		case float64:
			if v != float64(int64(v)) {
				goto general // non-integral floats key with an "f" tag
			}
			x = int64(v)
		default:
			goto general
		}
		{
			var kb [24]byte
			b := append(kb[:0], 'i')
			b = strconv.AppendInt(b, x, 10)
			b = append(b, '|')
			slot, ok := t.pkIndex[string(b)]
			return slot, ok
		}
	}
general:
	norm := make([]Value, len(key))
	for i, v := range key {
		nv, err := Normalize(v)
		if err != nil {
			return 0, false
		}
		norm[i] = nv
	}
	slot, ok := t.pkIndex[encodeKey(norm)]
	return slot, ok
}

// Scan calls fn for every live row in slot order; fn returning false stops
// the scan. The row passed to fn must not be mutated or retained.
func (t *Table) Scan(fn func(slot int, row Row) bool) {
	t.ScanSnap(LatestSnap(), fn)
}

// ScanSnap is Scan as of a snapshot.
func (t *Table) ScanSnap(sn Snap, fn func(slot int, row Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if sn.latest() && len(t.vslots) == 0 {
		for slot, r := range t.rows {
			if r == nil {
				continue
			}
			if !fn(slot, r) {
				return
			}
		}
		return
	}
	for slot := range t.rows {
		r := t.visibleLocked(slot, sn)
		if r == nil {
			continue
		}
		if !fn(slot, r) {
			return
		}
	}
}

// Rows returns copies of all live rows in slot order.
func (t *Table) Rows() []Row {
	out := make([]Row, 0, t.Len())
	t.Scan(func(_ int, r Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out
}

// Lookup returns copies of the rows whose named column equals v, using a
// secondary index when one exists, and a scan otherwise.
func (t *Table) Lookup(col string, v Value) []Row {
	return t.LookupSnap(LatestSnap(), col, v)
}

// LookupSnap is Lookup as of a snapshot. Index entries over-approximate
// when versions are retained, so hits re-validate against the resolved
// row.
func (t *Table) LookupSnap(sn Snap, col string, v Value) []Row {
	nv, err := Normalize(v)
	if err != nil {
		return nil
	}
	t.mu.RLock()
	ix, ok := t.indexes[strings.ToLower(col)]
	if ok {
		slots := ix.slots[encodeKey([]Value{nv})]
		out := make([]Row, 0, len(slots))
		sorted := append([]int(nil), slots...)
		sort.Ints(sorted)
		for _, s := range sorted {
			r := t.visibleLocked(s, sn)
			if r == nil || !Equal(r[ix.col], nv) {
				continue
			}
			out = append(out, r.Clone())
		}
		t.mu.RUnlock()
		return out
	}
	t.mu.RUnlock()
	ci, ok := t.schema.Index(col)
	if !ok {
		return nil
	}
	var out []Row
	t.ScanSnap(sn, func(_ int, r Row) bool {
		if Equal(r[ci], nv) {
			out = append(out, r.Clone())
		}
		return true
	})
	return out
}

// GetManyRef returns references to the latest committed rows matching
// the given primary keys — a batch GetRef under one read lock. Rows come
// back in slot (scan) order with duplicates removed, matching
// LookupManyRef, so planned multi-key probes order rows exactly as a
// scan would; absent keys are skipped. Mappings can be stale while
// versions are retained, so non-plain hits re-validate the resolved
// row's key. Rows must not be mutated; see GetRef.
func (t *Table) GetManyRef(keys ...[]Value) []Row {
	sn := LatestSnap()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.pkIndex == nil {
		return nil
	}
	slots := make([]int, 0, len(keys))
	var wantKeys map[string]bool
	fast := len(t.vslots) == 0
	if !fast {
		wantKeys = make(map[string]bool, len(keys))
	}
	for _, key := range keys {
		if len(key) != len(t.pk) {
			continue
		}
		norm := make([]Value, len(key))
		bad := false
		for i, v := range key {
			nv, err := Normalize(v)
			if err != nil {
				bad = true
				break
			}
			norm[i] = nv
		}
		if bad {
			continue
		}
		ek := encodeKey(norm)
		if !fast {
			wantKeys[ek] = true
		}
		if slot, ok := t.pkIndex[ek]; ok {
			slots = append(slots, slot)
		}
	}
	sort.Ints(slots)
	out := make([]Row, 0, len(slots))
	prev := -1
	for _, s := range slots {
		if s == prev {
			continue
		}
		prev = s
		r := t.rows[s]
		if !fast {
			r = t.visibleLocked(s, sn)
			if r == nil || !wantKeys[t.pkKey(r)] {
				continue
			}
			delete(wantKeys, t.pkKey(r))
		}
		out = append(out, r)
	}
	// Keys the mapping could not resolve may still have a visible
	// version in a displaced slot; see pkFallbackLocked. Fallback rows
	// append after the mapped ones, so strict slot order is only kept
	// while no key is displaced.
	if !fast && len(wantKeys) > 0 && len(t.vslots) > 0 {
		for want := range wantKeys {
			if r, ok := t.pkFallbackLocked(sn, want); ok {
				out = append(out, r)
			}
		}
	}
	return out
}

// GetRef is Get without the defensive copy: the returned row is the
// stored row itself. The store never mutates a stored row in place —
// updates validate a replacement and swap the slot pointer — so the
// reference stays a consistent snapshot; the caller must not mutate or
// grow it. Query executors batch through this to skip one allocation
// per probed row.
func (t *Table) GetRef(key ...Value) (Row, bool) {
	sn := LatestSnap()
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot, ok := t.pkSlotLocked(key)
	if ok {
		if r := t.visibleLocked(slot, sn); r != nil {
			return r, true
		}
	}
	if len(t.vslots) == 0 || t.pkIndex == nil || len(key) != len(t.pk) {
		return nil, false
	}
	norm := make([]Value, len(key))
	for i, v := range key {
		nv, err := Normalize(v)
		if err != nil {
			return nil, false
		}
		norm[i] = nv
	}
	return t.pkFallbackLocked(sn, encodeKey(norm))
}

// LookupManyRef returns references to the latest committed rows whose
// named column equals any of the keys, in slot (scan) order with
// duplicates removed, acquiring the read lock once for the whole batch.
// The executor drives index probes and batched index nested-loop joins
// through it without per-row locking. NULL keys match nothing,
// mirroring SQL equality; with no index on the column it degrades to a
// single scan. Index hits on a slot that carries residue re-validate
// the probed value (retained entries over-approximate the visible
// rows). Rows must not be mutated; see GetRef.
func (t *Table) LookupManyRef(col string, keys []Value) []Row {
	sn := LatestSnap()
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		if k == nil {
			continue
		}
		nk, err := Normalize(k)
		if err != nil {
			continue
		}
		want[encodeKey([]Value{nk})] = true
	}
	if len(want) == 0 {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if ix, ok := t.indexes[strings.ToLower(col)]; ok {
		var slots []int
		for k := range want {
			slots = append(slots, ix.slots[k]...)
		}
		sort.Ints(slots)
		out := make([]Row, 0, len(slots))
		prev := -1
		fast := len(t.vslots) == 0
		for _, s := range slots {
			if s == prev {
				continue // same row reached via equal-encoding keys
			}
			prev = s
			r := t.rows[s]
			if !fast {
				r = t.visibleLocked(s, sn)
				if r == nil || r[ix.col] == nil || !want[encodeKey([]Value{r[ix.col]})] {
					continue
				}
			}
			out = append(out, r)
		}
		return out
	}
	ci, ok := t.schema.Index(col)
	if !ok {
		return nil
	}
	var out []Row
	fast := len(t.vslots) == 0
	for slot, r := range t.rows {
		if !fast {
			r = t.visibleLocked(slot, sn)
		}
		if r == nil || r[ci] == nil {
			continue
		}
		if want[encodeKey([]Value{r[ci]})] {
			out = append(out, r)
		}
	}
	return out
}

// EachRef calls fn with a reference to each latest committed row whose
// named column equals key, in slot (scan) order: LookupManyRef for one
// key, without building its result. A caller that folds the rows as
// they come allocates nothing per row as long as the key's index entries
// are in slot order (a delete can break that; the entries are then
// sorted in a copy). A NULL key matches nothing; with no index on the
// column it degrades to LookupManyRef. fn runs under the table's read
// lock: it must not call into the table, and must not mutate or keep
// the row beyond what GetRef allows.
func (t *Table) EachRef(col string, key Value, fn func(Row)) {
	nk, err := Normalize(key)
	if err != nil || nk == nil {
		return
	}
	sn := LatestSnap()
	t.mu.RLock()
	ix, ok := t.indexes[strings.ToLower(col)]
	if !ok {
		t.mu.RUnlock()
		for _, r := range t.LookupManyRef(col, []Value{nk}) {
			fn(r)
		}
		return
	}
	defer t.mu.RUnlock()
	ek := encodeKey([]Value{nk})
	slots := ix.slots[ek]
	if !sort.IntsAreSorted(slots) {
		slots = append([]int(nil), slots...)
		sort.Ints(slots)
	}
	fast := len(t.vslots) == 0
	for _, s := range slots {
		r := t.rows[s]
		if !fast {
			r = t.visibleLocked(s, sn)
			if r == nil || r[ix.col] == nil || encodeKey([]Value{r[ix.col]}) != ek {
				continue
			}
		}
		fn(r)
	}
}

// HasIndex reports whether a secondary index exists on the column.
func (t *Table) HasIndex(col string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.indexes[strings.ToLower(col)]
	return ok
}

// UpdateByKey updates the row with the given primary-key values via set,
// in O(1). It returns ErrNotFound when the key is absent and fails if the
// replacement would collide on a changed key. With attached Storage the
// update is journaled before returning; a WAL failure restores the old
// row.
func (t *Table) UpdateByKey(key []Value, set func(Row) Row) error {
	if sb := t.store.Load(); sb != nil {
		return t.updateByKeyDurable(sb.s, key, set)
	}
	seq, keep := t.clock.alloc()
	t.mu.Lock()
	slot, old, repl, node, err := t.updateByKeyLocked(key, set, keep)
	if err == nil {
		t.sealUpdateLocked(slot, node, seq)
		t.notifyLocked(MutUpdate, old, repl, t.version)
	}
	t.mu.Unlock()
	t.clock.complete(seq)
	return err
}

func (t *Table) updateByKeyDurable(s Storage, key []Value, set func(Row) Row) error {
	s.BeginMutate()
	seq, keep := t.clock.alloc()
	t.mu.Lock()
	slot, old, repl, node, err := t.updateByKeyLocked(key, set, keep)
	if err != nil {
		t.mu.Unlock()
		t.clock.complete(seq)
		s.EndMutate()
		return err
	}
	lsn, err := s.LogMutations(t.name, []Mutation{{Kind: MutUpdate, Slot: slot, Row: repl}})
	if err != nil {
		if node != nil {
			t.popHeadLocked(slot, node)
		} else {
			t.applyUpdateSlot(slot, old)
		}
		t.mu.Unlock()
		t.clock.complete(seq)
		s.EndMutate()
		return err
	}
	t.sealUpdateLocked(slot, node, seq)
	t.notifyLocked(MutUpdate, old, repl, t.version)
	t.mu.Unlock()
	t.clock.complete(seq)
	s.EndMutate()
	return s.WaitDurable(lsn)
}

// sealUpdateLocked stamps an applied autocommit update with its commit
// seq: the new head begins at seq and the retained version (if any)
// ends there.
func (t *Table) sealUpdateLocked(slot int, node *rowVersion, seq uint64) {
	t.meta[slot].begin = seq
	if node != nil {
		node.end = seq
	}
}

// updateByKeyLocked performs the update under the write lock, returning
// the slot plus the pre- and post-image rows for journaling/undo. With
// keep set the superseded version is pushed onto the slot's chain (and
// returned) so active snapshots keep seeing it; the caller stamps it
// via sealUpdateLocked once the write is final.
func (t *Table) updateByKeyLocked(key []Value, set func(Row) Row, keep bool) (int, Row, Row, *rowVersion, error) {
	if t.pkIndex == nil || len(key) != len(t.pk) {
		return 0, nil, nil, nil, fmt.Errorf("%w: table %s has no matching primary key", ErrNotFound, t.name)
	}
	if len(t.vslots) > 0 {
		t.gcLocked(t.clock.minActive())
	}
	norm := make([]Value, len(key))
	for i, v := range key {
		nv, err := Normalize(v)
		if err != nil {
			return 0, nil, nil, nil, err
		}
		norm[i] = nv
	}
	oldKey := encodeKey(norm)
	slot, ok := t.pkIndex[oldKey]
	if !ok {
		return 0, nil, nil, nil, fmt.Errorf("%w: table %s key %v", ErrNotFound, t.name, norm)
	}
	if m := &t.meta[slot]; m.btx != 0 || m.etx != 0 {
		t.countConflict()
		return 0, nil, nil, nil, fmt.Errorf("relation: table %s key %v staged by an open transaction: %w", t.name, norm, ErrTxConflict)
	}
	old := t.visibleLocked(slot, LatestSnap())
	if old == nil || t.pkKey(old) != oldKey {
		return 0, nil, nil, nil, fmt.Errorf("%w: table %s key %v", ErrNotFound, t.name, norm)
	}
	repl, err := t.validate(set(old.Clone()))
	if err != nil {
		return 0, nil, nil, nil, err
	}
	newKey := t.pkKey(repl)
	if newKey != oldKey {
		if s, dup := t.pkIndex[newKey]; dup {
			if r := t.visibleLocked(s, LatestSnap()); r != nil && t.pkKey(r) == newKey {
				return 0, nil, nil, nil, fmt.Errorf("%w: table %s", ErrDuplicateKey, t.name)
			}
			if m := &t.meta[s]; m.btx != 0 && t.pkKey(t.rows[s]) == newKey {
				t.countConflict()
				return 0, nil, nil, nil, fmt.Errorf("relation: table %s key staged by an open transaction: %w", t.name, ErrTxConflict)
			}
		}
		if !keep {
			delete(t.pkIndex, oldKey)
		}
		t.pkIndex[newKey] = slot
	}
	node := t.applyUpdateVersionLocked(slot, old, repl, keep)
	t.version++
	return slot, old, repl, node, nil
}

// applyUpdateVersionLocked swaps repl in as slot's head. With keep set
// the committed head goes onto the version chain (returned, unstamped)
// and its index entries are retained; otherwise the indexes rekey in
// place exactly as before MVCC.
func (t *Table) applyUpdateVersionLocked(slot int, old, repl Row, keep bool) *rowVersion {
	if !keep {
		for _, ix := range t.indexes {
			ix.update(slot, old, repl)
		}
		for _, ix := range t.ordered {
			ix.update(slot, old, repl)
		}
		t.rows[slot] = repl
		return nil
	}
	m := &t.meta[slot]
	node := &rowVersion{row: old, begin: m.begin, prev: m.prev}
	t.addEntriesLocked(slot, repl, nil)
	t.rows[slot] = repl
	m.begin, m.prev = 0, node
	t.vslotAdd(slot)
	return node
}

// appliedUpdate records one retained-version update for stamping/undo.
type appliedUpdate struct {
	slot int
	node *rowVersion
}

// UpdateWhere applies set to every row satisfying pred and reports how
// many rows changed. The set function receives a copy and returns the
// replacement row, which is validated like an insert. A mid-batch
// validation error leaves earlier updates applied (and, with attached
// Storage, journaled); a WAL failure instead rolls the whole batch back.
func (t *Table) UpdateWhere(pred func(Row) bool, set func(Row) Row) (int, error) {
	sb := t.store.Load()
	if sb == nil {
		seq, keep := t.clock.alloc()
		t.mu.Lock()
		// Effects are collected only when an observer needs the pre/post
		// image pairs; the unobserved path keeps its zero-allocation shape.
		n, muts, undo, ups, err := t.updateWhereLocked(pred, set, t.observedLocked(), keep)
		for _, u := range ups {
			t.sealUpdateLocked(u.slot, u.node, seq)
		}
		t.notifyUpdatesLocked(muts, undo)
		t.mu.Unlock()
		t.clock.complete(seq)
		return n, err
	}
	s := sb.s
	s.BeginMutate()
	seq, keep := t.clock.alloc()
	t.mu.Lock()
	n, muts, undo, ups, uerr := t.updateWhereLocked(pred, set, true, keep)
	if n == 0 {
		t.mu.Unlock()
		t.clock.complete(seq)
		s.EndMutate()
		return 0, uerr
	}
	lsn, err := s.LogMutations(t.name, muts)
	if err != nil {
		if len(ups) > 0 {
			for i := len(ups) - 1; i >= 0; i-- {
				t.popHeadLocked(ups[i].slot, ups[i].node)
			}
		} else {
			t.undoLocked(undo)
		}
		t.mu.Unlock()
		t.clock.complete(seq)
		s.EndMutate()
		return 0, err
	}
	for _, u := range ups {
		t.sealUpdateLocked(u.slot, u.node, seq)
	}
	t.notifyUpdatesLocked(muts, undo)
	t.mu.Unlock()
	t.clock.complete(seq)
	s.EndMutate()
	if werr := s.WaitDurable(lsn); uerr == nil {
		uerr = werr
	}
	return n, uerr
}

// updateWhereLocked is UpdateWhere's body under the write lock. With
// collect set it gathers the applied effects (post-images) and their
// inverses (pre-images) for journaling and rollback; the memory path
// skips both allocations. While transaction snapshots are active (keep,
// or leftover residue) it routes through the version-retaining path and
// additionally returns the applied slots/chain nodes for stamping.
func (t *Table) updateWhereLocked(pred func(Row) bool, set func(Row) Row, collect, keep bool) (int, []Mutation, []Mutation, []appliedUpdate, error) {
	if len(t.vslots) > 0 {
		t.gcLocked(t.clock.minActive())
	}
	n := 0
	var muts, undo []Mutation
	if !keep && len(t.vslots) == 0 {
		for slot, r := range t.rows {
			if r == nil || !pred(r) {
				continue
			}
			repl, err := t.validate(set(r.Clone()))
			if err != nil {
				return n, muts, undo, nil, err
			}
			if t.pkIndex != nil {
				oldKey, newKey := t.pkKey(r), t.pkKey(repl)
				if oldKey != newKey {
					if _, dup := t.pkIndex[newKey]; dup {
						return n, muts, undo, nil, fmt.Errorf("%w: table %s", ErrDuplicateKey, t.name)
					}
					delete(t.pkIndex, oldKey)
					t.pkIndex[newKey] = slot
				}
			}
			for _, ix := range t.indexes {
				ix.update(slot, r, repl)
			}
			for _, ix := range t.ordered {
				ix.update(slot, r, repl)
			}
			t.rows[slot] = repl
			t.version++
			n++
			if collect {
				muts = append(muts, Mutation{Kind: MutUpdate, Slot: slot, Row: repl})
				undo = append(undo, Mutation{Kind: MutUpdate, Slot: slot, Row: r})
			}
		}
		return n, muts, undo, nil, nil
	}
	// Version-retaining path: snapshots are active, so superseded
	// versions go onto the chains and staged rows conflict.
	var ups []appliedUpdate
	for slot := range t.rows {
		cur := t.visibleLocked(slot, LatestSnap())
		if cur == nil || !pred(cur) {
			continue
		}
		if m := &t.meta[slot]; m.btx != 0 || m.etx != 0 {
			t.countConflict()
			return n, muts, undo, ups, fmt.Errorf("relation: table %s slot %d staged by an open transaction: %w", t.name, slot, ErrTxConflict)
		}
		repl, err := t.validate(set(cur.Clone()))
		if err != nil {
			return n, muts, undo, ups, err
		}
		if t.pkIndex != nil {
			oldKey, newKey := t.pkKey(cur), t.pkKey(repl)
			if oldKey != newKey {
				if s, dup := t.pkIndex[newKey]; dup && s != slot {
					if r := t.visibleLocked(s, LatestSnap()); r != nil && t.pkKey(r) == newKey {
						return n, muts, undo, ups, fmt.Errorf("%w: table %s", ErrDuplicateKey, t.name)
					}
				}
				t.pkIndex[newKey] = slot
			}
		}
		node := t.applyUpdateVersionLocked(slot, cur, repl, true)
		t.version++
		n++
		ups = append(ups, appliedUpdate{slot: slot, node: node})
		if collect {
			muts = append(muts, Mutation{Kind: MutUpdate, Slot: slot, Row: repl})
			undo = append(undo, Mutation{Kind: MutUpdate, Slot: slot, Row: cur})
		}
	}
	return n, muts, undo, ups, nil
}

// DeleteWhere removes every row satisfying pred and reports the count.
// With attached Storage the batch is journaled as one record; if the
// WAL rejects it the deletes are rolled back and the error is returned
// (previously this was silently reported as 0 rows). While transaction
// snapshots are active, deleted versions are retained on their slots
// until no snapshot can see them; a row staged by an open transaction
// makes the statement fail with ErrTxConflict before any row is
// removed.
func (t *Table) DeleteWhere(pred func(Row) bool) (int, error) {
	sb := t.store.Load()
	if sb == nil {
		seq, keep := t.clock.alloc()
		t.mu.Lock()
		if !keep && t.sweptPlainLocked() {
			n, _, undo := t.deleteWhereLocked(pred, t.observedLocked())
			t.notifyDeletesLocked(undo)
			t.mu.Unlock()
			t.clock.complete(seq)
			return n, nil
		}
		slots, pre, err := t.deleteWhereVersionedLocked(pred)
		if err != nil {
			t.mu.Unlock()
			t.clock.complete(seq)
			return 0, err
		}
		t.sealDeletesLocked(slots, seq)
		t.notifyDeletedRowsLocked(pre)
		t.mu.Unlock()
		t.clock.complete(seq)
		return len(slots), nil
	}
	s := sb.s
	s.BeginMutate()
	seq, keep := t.clock.alloc()
	t.mu.Lock()
	if !keep && t.sweptPlainLocked() {
		n, muts, undo := t.deleteWhereLocked(pred, true)
		if n == 0 {
			t.mu.Unlock()
			t.clock.complete(seq)
			s.EndMutate()
			return 0, nil
		}
		lsn, err := s.LogMutations(t.name, muts)
		if err != nil {
			t.undoLocked(undo)
			t.mu.Unlock()
			t.clock.complete(seq)
			s.EndMutate()
			return 0, err
		}
		t.notifyDeletesLocked(undo)
		t.mu.Unlock()
		t.clock.complete(seq)
		s.EndMutate()
		return n, s.WaitDurable(lsn)
	}
	// Version-retaining path: nothing is applied until the WAL accepts
	// the record, so a rejection needs no undo.
	slots, pre, err := t.deleteWhereVersionedLocked(pred)
	if err != nil || len(slots) == 0 {
		t.mu.Unlock()
		t.clock.complete(seq)
		s.EndMutate()
		return 0, err
	}
	muts := make([]Mutation, len(slots))
	for i, slot := range slots {
		muts[i] = Mutation{Kind: MutDelete, Slot: slot}
	}
	lsn, err := s.LogMutations(t.name, muts)
	if err != nil {
		t.mu.Unlock()
		t.clock.complete(seq)
		s.EndMutate()
		return 0, err
	}
	t.sealDeletesLocked(slots, seq)
	t.notifyDeletedRowsLocked(pre)
	t.mu.Unlock()
	t.clock.complete(seq)
	s.EndMutate()
	return len(slots), s.WaitDurable(lsn)
}

// sweptPlainLocked sweeps residue and reports whether every slot came
// out plain — the precondition for the legacy physical-delete path.
func (t *Table) sweptPlainLocked() bool {
	if len(t.vslots) > 0 {
		t.gcLocked(t.clock.minActive())
	}
	return len(t.vslots) == 0
}

// deleteWhereVersionedLocked collects the latest-visible rows matching
// pred without applying anything; sealDeletesLocked makes them dead.
// A matching row staged by an open transaction aborts the statement.
func (t *Table) deleteWhereVersionedLocked(pred func(Row) bool) ([]int, []Row, error) {
	var slots []int
	var pre []Row
	for slot := range t.rows {
		cur := t.visibleLocked(slot, LatestSnap())
		if cur == nil || !pred(cur) {
			continue
		}
		if m := &t.meta[slot]; m.btx != 0 || m.etx != 0 {
			t.countConflict()
			return nil, nil, fmt.Errorf("relation: table %s slot %d staged by an open transaction: %w", t.name, slot, ErrTxConflict)
		}
		slots = append(slots, slot)
		pre = append(pre, cur)
	}
	return slots, pre, nil
}

// sealDeletesLocked stamps the collected slots dead at seq, retaining
// their versions (rows, index entries, pk mappings) for snapshots that
// still see them; GC reclaims the slots once no snapshot can.
func (t *Table) sealDeletesLocked(slots []int, seq uint64) {
	for _, slot := range slots {
		m := &t.meta[slot]
		m.end = seq
		t.vslotAdd(slot)
		t.live--
		t.version++
	}
}

// deleteWhereLocked is DeleteWhere's physical body under the write
// lock; with collect set it gathers effects and their inverses for
// journaling. Only valid when every slot is plain (no active
// snapshots).
func (t *Table) deleteWhereLocked(pred func(Row) bool, collect bool) (int, []Mutation, []Mutation) {
	n := 0
	var muts, undo []Mutation
	for slot, r := range t.rows {
		if r == nil || !pred(r) {
			continue
		}
		if t.pkIndex != nil {
			delete(t.pkIndex, t.pkKey(r))
		}
		for _, ix := range t.indexes {
			ix.remove(slot, r)
		}
		for _, ix := range t.ordered {
			ix.remove(slot, r)
		}
		t.rows[slot] = nil
		t.free = append(t.free, slot)
		t.live--
		t.version++
		n++
		if collect {
			muts = append(muts, Mutation{Kind: MutDelete, Slot: slot})
			undo = append(undo, Mutation{Kind: MutInsert, Slot: slot, Row: r})
		}
	}
	return n, muts, undo
}

// --- slot-addressed effect application ---------------------------------
//
// The helpers below re-apply (or reverse) row effects at exact slots,
// maintaining every index, the free list and the live/version counters
// without re-validation. Recovery replay drives them forward; the
// journaled mutators drive them backward when the WAL rejects a record.
// Caller holds the write lock.

// applyInsertSlot places r at slot, growing the row slice as needed.
// Replayed rows carry the "ancient" begin stamp: recovery runs with no
// live snapshots, so every recovered row predates every future one.
func (t *Table) applyInsertSlot(slot int, r Row) error {
	for len(t.rows) <= slot {
		t.rows = append(t.rows, nil)
		t.meta = append(t.meta, slotMeta{})
	}
	if t.rows[slot] != nil {
		return fmt.Errorf("relation: table %s replay insert into occupied slot %d", t.name, slot)
	}
	t.meta[slot] = slotMeta{begin: 1}
	for i, s := range t.free {
		if s == slot {
			t.free[i] = t.free[len(t.free)-1]
			t.free = t.free[:len(t.free)-1]
			break
		}
	}
	t.rows[slot] = r
	if t.pkIndex != nil {
		t.pkIndex[t.pkKey(r)] = slot
	}
	for _, ix := range t.indexes {
		ix.add(slot, r)
	}
	for _, ix := range t.ordered {
		ix.add(slot, r)
	}
	t.live++
	t.version++
	t.bumpAutoLocked(r)
	return nil
}

// applyUpdateSlot replaces the live row at slot with repl.
func (t *Table) applyUpdateSlot(slot int, repl Row) error {
	if slot < 0 || slot >= len(t.rows) || t.rows[slot] == nil {
		return fmt.Errorf("relation: table %s replay update of dead slot %d", t.name, slot)
	}
	old := t.rows[slot]
	if t.pkIndex != nil {
		oldKey, newKey := t.pkKey(old), t.pkKey(repl)
		if oldKey != newKey {
			delete(t.pkIndex, oldKey)
			t.pkIndex[newKey] = slot
		}
	}
	for _, ix := range t.indexes {
		ix.update(slot, old, repl)
	}
	for _, ix := range t.ordered {
		ix.update(slot, old, repl)
	}
	t.rows[slot] = repl
	t.meta[slot] = slotMeta{begin: 1}
	t.version++
	t.bumpAutoLocked(repl)
	return nil
}

// applyDeleteSlot tombstones the live row at slot.
func (t *Table) applyDeleteSlot(slot int) error {
	if slot < 0 || slot >= len(t.rows) || t.rows[slot] == nil {
		return fmt.Errorf("relation: table %s replay delete of dead slot %d", t.name, slot)
	}
	t.meta[slot] = slotMeta{}
	r := t.rows[slot]
	if t.pkIndex != nil {
		delete(t.pkIndex, t.pkKey(r))
	}
	for _, ix := range t.indexes {
		ix.remove(slot, r)
	}
	for _, ix := range t.ordered {
		ix.remove(slot, r)
	}
	t.rows[slot] = nil
	t.free = append(t.free, slot)
	t.live--
	t.version++
	return nil
}

// undoLocked reverses a batch of inverse effects, newest first.
func (t *Table) undoLocked(undo []Mutation) {
	for i := len(undo) - 1; i >= 0; i-- {
		m := undo[i]
		switch m.Kind {
		case MutInsert:
			t.applyInsertSlot(m.Slot, m.Row)
		case MutUpdate:
			t.applyUpdateSlot(m.Slot, m.Row)
		case MutDelete:
			t.applyDeleteSlot(m.Slot)
		}
	}
}

// bumpAutoLocked keeps the auto-increment counter ahead of any id that
// arrives via replay, so post-recovery inserts never collide.
func (t *Table) bumpAutoLocked(r Row) {
	if t.autoCol < 0 {
		return
	}
	if iv, ok := r[t.autoCol].(int64); ok && iv >= t.nextAut {
		t.nextAut = iv + 1
	}
}

// rebuildFreeLocked recomputes the free list from the tombstones —
// recovery's final step, after snapshot load and replay both poked
// slots directly. It also squares up the meta slice with the rows
// (recovered rows carry the ancient begin stamp).
func (t *Table) rebuildFreeLocked() {
	t.free = t.free[:0]
	for len(t.meta) < len(t.rows) {
		t.meta = append(t.meta, slotMeta{})
	}
	for slot, r := range t.rows {
		if r == nil {
			t.free = append(t.free, slot)
			t.meta[slot] = slotMeta{}
		} else if t.meta[slot].begin == 0 {
			t.meta[slot] = slotMeta{begin: 1}
		}
	}
}
