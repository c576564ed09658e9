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
	rows     []Row // nil entries are tombstones
	free     []int // tombstone slots available for reuse
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

// keyOf encodes primary-key values the way pkKey encodes a stored
// row's, reporting false when they cannot be a key of this table.
func (t *Table) keyOf(key []Value) (string, bool) {
	if t.pkIndex == nil || len(key) != len(t.pk) {
		return "", false
	}
	norm := make([]Value, len(key))
	for i, v := range key {
		nv, err := Normalize(v)
		if err != nil {
			return "", false
		}
		norm[i] = nv
	}
	return encodeKey(norm), true
}

// effect is one applied row change at slot: before is nil for an
// insert and after is nil for a delete. A write collects its effects to
// journal them, deliver them to the observers and, if the WAL refuses
// them, undo them.
type effect struct {
	slot          int
	before, after Row
}

func (e effect) kind() MutKind {
	switch {
	case e.before == nil:
		return MutInsert
	case e.after == nil:
		return MutDelete
	}
	return MutUpdate
}

// mutationsOf is the WAL image of effs.
func mutationsOf(effs []effect) []Mutation {
	muts := make([]Mutation, len(effs))
	for i, e := range effs {
		muts[i] = Mutation{Kind: e.kind(), Slot: e.slot, Row: e.after}
	}
	return muts
}

// write runs one autocommit statement following the Storage protocol
// (see storage.go). apply changes the table under its write lock and
// returns the effects it applied; write journals them, delivers them
// to the observers in the same lock hold and waits for durability
// outside it. If the WAL refuses the record the effects are undone and
// the WAL error returned. An error from apply itself is returned after
// whatever it applied before failing is published. n is the number of
// effects that stand.
func (t *Table) write(apply func() ([]effect, error)) (n int, err error) {
	var s Storage
	if sb := t.store.Load(); sb != nil {
		s = sb.s
		s.BeginMutate()
	}
	t.mu.Lock()
	from := t.version
	effs, err := apply()
	var lsn uint64
	if s != nil && len(effs) > 0 {
		var lerr error
		if lsn, lerr = s.LogMutations(t.name, mutationsOf(effs)); lerr != nil {
			t.undoLocked(effs, from)
			effs, err = nil, lerr
		}
	}
	t.notifyLocked(effs)
	t.mu.Unlock()
	if s == nil {
		return len(effs), err
	}
	s.EndMutate()
	if lsn != 0 {
		if werr := s.WaitDurable(lsn); err == nil {
			err = werr
		}
	}
	return len(effs), err
}

// insert validates and stores a row, returning its slot and the stored
// row.
func (t *Table) insert(row Row) (slot int, stored Row, err error) {
	_, err = t.write(func() ([]effect, error) {
		r, err := t.validate(row)
		if err != nil {
			return nil, err
		}
		if t.pkIndex != nil {
			if _, dup := t.pkIndex[t.pkKey(r)]; dup {
				return nil, fmt.Errorf("%w: table %s key %v", ErrDuplicateKey, t.name, t.pkKey(r))
			}
		}
		slot = t.takeSlotLocked()
		t.placeLocked(slot, r)
		stored = r
		return []effect{{slot: slot, after: r}}, nil
	})
	if err != nil {
		return 0, nil, err
	}
	return slot, stored, nil
}

// Insert validates and stores a row, returning the slot it occupies.
// On a table with attached Storage the insert is journaled before
// Insert returns; a WAL failure rolls the row back out of memory.
func (t *Table) Insert(row Row) (int, error) {
	slot, _, err := t.insert(row)
	return slot, err
}

// InsertGet inserts a row and returns a copy of the stored row, which
// reflects auto-increment assignment and type coercion.
func (t *Table) InsertGet(row Row) (Row, error) {
	_, r, err := t.insert(row)
	return r.Clone(), err
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
	r, ok := t.GetRef(key...)
	return r.Clone(), ok
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
	k, ok := t.keyOf(key)
	if !ok {
		return 0, false
	}
	slot, ok := t.pkIndex[k]
	return slot, ok
}

// Scan calls fn for every live row in slot order; fn returning false stops
// the scan. The row passed to fn must not be mutated or retained.
func (t *Table) Scan(fn func(slot int, row Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for slot, r := range t.rows {
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
	nv, err := Normalize(v)
	if err != nil {
		return nil
	}
	t.mu.RLock()
	ix, ok := t.indexes[strings.ToLower(col)]
	if ok {
		slots := append([]int(nil), ix.slots[encodeKey([]Value{nv})]...)
		sort.Ints(slots)
		out := make([]Row, len(slots))
		for i, s := range slots {
			out[i] = t.rows[s].Clone()
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
	t.Scan(func(_ int, r Row) bool {
		if Equal(r[ci], nv) {
			out = append(out, r.Clone())
		}
		return true
	})
	return out
}

// probeLocked returns the slots, ascending, and the rows the index
// holds under an encoded key. Caller holds at least the read lock.
func (t *Table) probeLocked(ix *secondaryIndex, key string) ([]int, []Row) {
	slots := append([]int(nil), ix.slots[key]...)
	sort.Ints(slots)
	rows := make([]Row, len(slots))
	for i, s := range slots {
		rows[i] = t.rows[s]
	}
	return slots, rows
}

// GetManyRef returns references to the rows matching the given primary
// keys — a batch GetRef under one read lock. Rows come back in slot
// (scan) order with duplicates removed, matching LookupManyRef, so
// planned multi-key probes order rows exactly as a scan would; absent
// keys are skipped. Rows must not be mutated; see GetRef.
func (t *Table) GetManyRef(keys ...[]Value) []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.pkIndex == nil {
		return nil
	}
	slots := make([]int, 0, len(keys))
	for _, key := range keys {
		if k, ok := t.keyOf(key); ok {
			if slot, ok := t.pkIndex[k]; ok {
				slots = append(slots, slot)
			}
		}
	}
	sort.Ints(slots)
	out := make([]Row, 0, len(slots))
	prev := -1
	for _, s := range slots {
		if s != prev {
			out = append(out, t.rows[s])
		}
		prev = s
	}
	return out
}

// GetRef is Get without the defensive copy: the returned row is the
// stored row itself. The store never mutates a stored row in place —
// updates validate a replacement and swap the slot pointer — so the
// reference stays a consistent snapshot; the caller must not mutate or
// grow it. Query executors batch through this to skip one allocation
// per probed row, and a transaction validates its reads by comparing
// the references it was given with the ones the table holds at Commit.
func (t *Table) GetRef(key ...Value) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot, ok := t.pkSlotLocked(key)
	if !ok {
		return nil, false
	}
	return t.rows[slot], true
}

// LookupManyRef returns references to the rows whose named column
// equals any of the keys, in slot (scan) order with duplicates removed,
// acquiring the read lock once for the whole batch. The executor drives
// index probes and batched index nested-loop joins through it without
// per-row locking. NULL keys match nothing, mirroring SQL equality;
// with no index on the column it degrades to a single scan. Rows must
// not be mutated; see GetRef.
func (t *Table) LookupManyRef(col string, keys []Value) []Row {
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
		for _, s := range slots {
			if s != prev { // the same row reached via equal-encoding keys
				out = append(out, t.rows[s])
			}
			prev = s
		}
		return out
	}
	ci, ok := t.schema.Index(col)
	if !ok {
		return nil
	}
	var out []Row
	for _, r := range t.rows {
		if r != nil && r[ci] != nil && want[encodeKey([]Value{r[ci]})] {
			out = append(out, r)
		}
	}
	return out
}

// EachRef calls fn with a reference to each row whose named column
// equals key, in slot (scan) order: LookupManyRef for one key, without
// building its result. A caller that folds the rows as they come
// allocates nothing per row as long as the key's index entries are in
// slot order (a delete can break that; the entries are then sorted in a
// copy). A NULL key matches nothing; with no index on the column it
// degrades to LookupManyRef. fn runs under the table's read lock: it
// must not call into the table, and must not mutate or keep the row
// beyond what GetRef allows.
func (t *Table) EachRef(col string, key Value, fn func(Row)) {
	nk, err := Normalize(key)
	if err != nil || nk == nil {
		return
	}
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
	slots := ix.slots[encodeKey([]Value{nk})]
	if !sort.IntsAreSorted(slots) {
		slots = append([]int(nil), slots...)
		sort.Ints(slots)
	}
	for _, s := range slots {
		fn(t.rows[s])
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
	_, err := t.write(func() ([]effect, error) {
		slot, ok := t.pkSlotLocked(key)
		if !ok {
			return nil, fmt.Errorf("%w: table %s key %v", ErrNotFound, t.name, key)
		}
		e, err := t.updateLocked(slot, set)
		if err != nil {
			return nil, err
		}
		return []effect{e}, nil
	})
	return err
}

// updateLocked replaces the row at slot with set's validated image of
// it, refusing a changed primary key that another row holds.
func (t *Table) updateLocked(slot int, set func(Row) Row) (effect, error) {
	old := t.rows[slot]
	repl, err := t.validate(set(old.Clone()))
	if err != nil {
		return effect{}, err
	}
	if t.pkIndex != nil {
		if key := t.pkKey(repl); key != t.pkKey(old) {
			if _, dup := t.pkIndex[key]; dup {
				return effect{}, fmt.Errorf("%w: table %s", ErrDuplicateKey, t.name)
			}
		}
	}
	t.applyUpdateSlot(slot, repl)
	return effect{slot: slot, before: old, after: repl}, nil
}

// UpdateWhere applies set to every row satisfying pred and reports how
// many rows changed. The set function receives a copy and returns the
// replacement row, which is validated like an insert. A mid-batch
// validation error leaves earlier updates applied (and, with attached
// Storage, journaled); a WAL failure instead rolls the whole batch back.
func (t *Table) UpdateWhere(pred func(Row) bool, set func(Row) Row) (int, error) {
	return t.write(func() ([]effect, error) {
		var effs []effect
		for slot, r := range t.rows {
			if r == nil || !pred(r) {
				continue
			}
			e, err := t.updateLocked(slot, set)
			if err != nil {
				return effs, err
			}
			effs = append(effs, e)
		}
		return effs, nil
	})
}

// DeleteWhere removes every row satisfying pred and reports the count.
// With attached Storage the batch is journaled as one record; if the
// WAL rejects it the deletes are rolled back and the error is returned.
func (t *Table) DeleteWhere(pred func(Row) bool) (int, error) {
	return t.write(func() ([]effect, error) {
		var effs []effect
		for slot, r := range t.rows {
			if r != nil && pred(r) {
				t.applyDeleteSlot(slot)
				effs = append(effs, effect{slot: slot, before: r})
			}
		}
		return effs, nil
	})
}

// --- slot-addressed effect application ---------------------------------
//
// The helpers below apply (or reverse) row effects at exact slots,
// maintaining every index, the free list and the live/version counters
// without re-validation. The write paths and Tx.Commit drive them
// forward, recovery replay re-applies journaled effects through them,
// and undoLocked drives them backward when the WAL rejects a record.
// A primary-key mapping is only removed while it still names the slot
// being changed, so a batch that swaps keys between rows lands on the
// right mapping in any order. Caller holds the write lock.

// takeSlotLocked returns a free slot, reusing a tombstone if any.
func (t *Table) takeSlotLocked() int {
	if n := len(t.free); n > 0 {
		slot := t.free[n-1]
		t.free = t.free[:n-1]
		return slot
	}
	t.rows = append(t.rows, nil)
	return len(t.rows) - 1
}

// placeLocked stores r at the free slot and indexes it.
func (t *Table) placeLocked(slot int, r Row) {
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
}

// applyInsertSlot places r at slot, growing the row slice as needed.
func (t *Table) applyInsertSlot(slot int, r Row) error {
	for len(t.rows) <= slot {
		t.rows = append(t.rows, nil)
	}
	if t.rows[slot] != nil {
		return fmt.Errorf("relation: table %s replay insert into occupied slot %d", t.name, slot)
	}
	for i, s := range t.free {
		if s == slot {
			t.free[i] = t.free[len(t.free)-1]
			t.free = t.free[:len(t.free)-1]
			break
		}
	}
	t.placeLocked(slot, r)
	t.bumpAutoLocked(r)
	return nil
}

// unmapKeyLocked drops r's primary-key mapping if it still names slot.
func (t *Table) unmapKeyLocked(slot int, r Row) {
	if t.pkIndex == nil {
		return
	}
	if key := t.pkKey(r); t.pkIndex[key] == slot {
		delete(t.pkIndex, key)
	}
}

// applyUpdateSlot replaces the live row at slot with repl.
func (t *Table) applyUpdateSlot(slot int, repl Row) error {
	if slot < 0 || slot >= len(t.rows) || t.rows[slot] == nil {
		return fmt.Errorf("relation: table %s replay update of dead slot %d", t.name, slot)
	}
	old := t.rows[slot]
	if t.pkIndex != nil {
		if key := t.pkKey(repl); key != t.pkKey(old) {
			t.unmapKeyLocked(slot, old)
			t.pkIndex[key] = slot
		}
	}
	for _, ix := range t.indexes {
		ix.update(slot, old, repl)
	}
	for _, ix := range t.ordered {
		ix.update(slot, old, repl)
	}
	t.rows[slot] = repl
	t.version++
	t.bumpAutoLocked(repl)
	return nil
}

// applyDeleteSlot tombstones the live row at slot.
func (t *Table) applyDeleteSlot(slot int) error {
	if slot < 0 || slot >= len(t.rows) || t.rows[slot] == nil {
		return fmt.Errorf("relation: table %s replay delete of dead slot %d", t.name, slot)
	}
	r := t.rows[slot]
	t.unmapKeyLocked(slot, r)
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

// undoLocked reverses applied effects, newest first, and returns the
// version to from, the one before them: the versions in between came
// and went inside one hold of the write lock, so no reader saw them.
func (t *Table) undoLocked(effs []effect, from uint64) {
	defer func() { t.version = from }()
	for i := len(effs) - 1; i >= 0; i-- {
		switch e := effs[i]; e.kind() {
		case MutInsert:
			t.applyDeleteSlot(e.slot)
		case MutUpdate:
			t.applyUpdateSlot(e.slot, e.before)
		case MutDelete:
			t.applyInsertSlot(e.slot, e.before)
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
// slots directly.
func (t *Table) rebuildFreeLocked() {
	t.free = t.free[:0]
	for slot, r := range t.rows {
		if r == nil {
			t.free = append(t.free, slot)
		}
	}
}
