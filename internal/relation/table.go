package relation

import (
	"errors"
	"fmt"
	"sort"
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
		t.hash[i] = &secondaryIndex{col: i, slots: make(map[string][]int)}
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
	var kb [64]byte
	k := appendKey(kb[:0], row[ix.col])
	ix.slots[string(k)] = append(ix.slots[string(k)], slot)
}

func (ix *secondaryIndex) remove(slot int, row Row) {
	var kb [64]byte
	k := string(appendKey(kb[:0], row[ix.col]))
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
	hash     []*secondaryIndex // by column; nil = no hash index. Fixed at construction
	ordered  []*orderedIndex   // by column; nil = no ordered index
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
		hash:     make([]*secondaryIndex, schema.Len()),
		ordered:  make([]*orderedIndex, schema.Len()),
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

// SecondaryIndexes returns the lower-cased names of columns with
// secondary indexes, sorted.
func (t *Table) SecondaryIndexes() []string {
	var out []string
	for ci, ix := range t.hash {
		if ix != nil {
			out = append(out, strings.ToLower(t.schema.Column(ci).Name))
		}
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
	var kb [64]byte
	b := kb[:0]
	for _, c := range t.pk {
		b = appendKey(b, row[c])
	}
	return string(b)
}

// appendPK appends the encoding of primary-key values to b the way
// pkKey encodes a stored row's, reporting false when they cannot be a
// key of this table.
func (t *Table) appendPK(b []byte, key []Value) ([]byte, bool) {
	if t.pkIndex == nil || len(key) != len(t.pk) {
		return b, false
	}
	for _, v := range key {
		nv, err := Normalize(v)
		if err != nil {
			return b, false
		}
		b = appendKey(b, nv)
	}
	return b, true
}

// keyOf is appendPK's key as a string of its own.
func (t *Table) keyOf(key []Value) (string, bool) {
	b, ok := t.appendPK(nil, key)
	return string(b), ok
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

// InsertGet inserts a row and returns the stored row, which reflects
// auto-increment assignment and type coercion. It is read-only, as every
// row a read returns is.
func (t *Table) InsertGet(row Row) (Row, error) {
	_, r, err := t.insert(row)
	return r, err
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

// Get returns the stored row with the given primary-key values. The row
// is read-only (see "Reading rows" in the package documentation).
func (t *Table) Get(key ...Value) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot, ok := t.pkSlotLocked(key)
	if !ok {
		return nil, false
	}
	return t.rows[slot], true
}

// pkSlotLocked resolves primary-key values to a row slot; the caller
// holds at least the read lock. The key renders into a stack buffer and
// the string([]byte) map index compiles to a no-allocation lookup.
func (t *Table) pkSlotLocked(key []Value) (int, bool) {
	var kb [64]byte
	b, ok := t.appendPK(kb[:0], key)
	if !ok {
		return 0, false
	}
	slot, ok := t.pkIndex[string(b)]
	return slot, ok
}

// GetEach resolves each of keys through a single-column primary key
// under one read lock, appending the key's stored row — nil for NULL or
// a key no row has — to rows, and returns the extended slice: a batch
// Get that builds no key slices and keeps the keys' order. The rows are
// read-only.
func (t *Table) GetEach(keys []Value, rows []Row) []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, v := range keys {
		var row Row
		if v != nil {
			key := [1]Value{v}
			if slot, ok := t.pkSlotLocked(key[:]); ok {
				row = t.rows[slot]
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// rowsAtLocked returns the rows at slots in slot order, each once. It
// sorts slots in place.
func (t *Table) rowsAtLocked(slots []int) []Row {
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

// Scan calls fn for every live row in slot order; fn returning false stops
// the scan. fn runs under the table's read lock and must not call into
// the table.
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

// Rows returns every live row in slot order.
func (t *Table) Rows() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Row, 0, t.live)
	for _, r := range t.rows {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Lookup returns the rows whose named column equals v, in slot order,
// through the column's hash index when it has one and by a scan
// otherwise. A NULL v finds the rows whose column is NULL — unlike SQL's
// "=", and unlike LookupMany. An unknown column finds nothing.
func (t *Table) Lookup(col string, v Value) []Row {
	ci, ok := t.schema.Index(col)
	nv, err := Normalize(v)
	if !ok || err != nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	slots := t.matchLocked(ci, nv)
	out := make([]Row, len(slots))
	for i, s := range slots {
		out[i] = t.rows[s]
	}
	return out
}

// Each calls fn with each row Lookup(col, v) returns, in the same order,
// without building the slice: a caller that folds the rows as they come
// allocates nothing as long as the key's index entries are in slot order
// (a delete can break that; they are then sorted in a copy). fn runs
// under the table's read lock and must not call into the table.
func (t *Table) Each(col string, v Value, fn func(Row)) {
	ci, ok := t.schema.Index(col)
	nv, err := Normalize(v)
	if !ok || err != nil {
		return
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, s := range t.matchLocked(ci, nv) {
		fn(t.rows[s])
	}
}

// matchLocked returns the slots, ascending, of the rows whose column ci
// equals the normalized value nv — Lookup's and Each's one probe. With a
// hash index on ci they are the index's own list when it is already in
// slot order (the caller must neither modify nor keep it) and a sorted
// copy when it is not; without one, a scan collects them. Caller holds
// at least the read lock.
func (t *Table) matchLocked(ci int, nv Value) []int {
	if ix := t.hash[ci]; ix != nil {
		var kb [64]byte
		slots := ix.slots[string(appendKey(kb[:0], nv))]
		if !sort.IntsAreSorted(slots) {
			slots = append([]int(nil), slots...)
			sort.Ints(slots)
		}
		return slots
	}
	var slots []int
	for slot, r := range t.rows {
		if r != nil && Equal(r[ci], nv) {
			slots = append(slots, slot)
		}
	}
	return slots
}

// LookupMany returns the rows whose named column equals any of the
// keys, in slot (scan) order with duplicates removed, acquiring the read
// lock once for the whole batch. The executor drives index probes and
// batched index nested-loop joins through it without per-row locking.
// NULL keys match nothing, mirroring SQL equality; with no index on the
// column it degrades to a single scan.
func (t *Table) LookupMany(col string, keys []Value) []Row {
	ci, ok := t.schema.Index(col)
	if !ok {
		return nil
	}
	want := make(map[string]bool, len(keys))
	var kb [64]byte
	for _, k := range keys {
		if k == nil {
			continue
		}
		nk, err := Normalize(k)
		if err != nil {
			continue
		}
		want[string(appendKey(kb[:0], nk))] = true
	}
	if len(want) == 0 {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if ix := t.hash[ci]; ix != nil {
		var slots []int
		for k := range want {
			slots = append(slots, ix.slots[k]...)
		}
		return t.rowsAtLocked(slots)
	}
	var out []Row
	for _, r := range t.rows {
		if r != nil && r[ci] != nil && want[string(appendKey(kb[:0], r[ci]))] {
			out = append(out, r)
		}
	}
	return out
}

// HasIndex reports whether a secondary index exists on the column. The
// hash indexes are fixed at construction, so it takes no lock.
func (t *Table) HasIndex(col string) bool {
	ci, ok := t.schema.Index(col)
	return ok && t.hash[ci] != nil
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
	for ci, ix := range t.hash {
		if ix != nil {
			ix.add(slot, r)
		}
		if ox := t.ordered[ci]; ox != nil {
			ox.add(slot, r)
		}
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
	for ci, ix := range t.hash {
		if ix != nil {
			ix.update(slot, old, repl)
		}
		if ox := t.ordered[ci]; ox != nil {
			ox.update(slot, old, repl)
		}
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
	for ci, ix := range t.hash {
		if ix != nil {
			ix.remove(slot, r)
		}
		if ox := t.ordered[ci]; ox != nil {
			ox.remove(slot, r)
		}
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
