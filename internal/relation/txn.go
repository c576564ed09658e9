package relation

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// ErrTxDone is returned when a finished transaction is used again.
var ErrTxDone = errors.New("relation: transaction already committed or rolled back")

// ErrTxConflict is returned by Commit when something the transaction
// read changed before it could commit: a row it read was updated,
// replaced or deleted, or a row matching one of its reads appeared.
// Nothing was applied; the caller may run the transaction again.
var ErrTxConflict = errors.New("relation: transaction conflict: a read changed before commit")

// txCounters are a DB's transaction id allocator and the counters
// served under /api/stats.
type txCounters struct {
	lastID    atomic.Uint64
	active    atomic.Int64
	committed atomic.Uint64
	aborted   atomic.Uint64
	conflicts atomic.Uint64
}

// TxStats is the transaction section of /api/stats.
type TxStats struct {
	Active    int64  `json:"active"`
	Committed uint64 `json:"committed"`
	Aborted   uint64 `json:"aborted"`
	Conflicts uint64 `json:"conflicts"`
}

// TxStats snapshots the database's transaction counters.
func (db *DB) TxStats() TxStats {
	c := &db.tx
	return TxStats{
		Active:    c.active.Load(),
		Committed: c.committed.Load(),
		Aborted:   c.aborted.Load(),
		Conflicts: c.conflicts.Load(),
	}
}

// Tx is an optimistic write batch over one DB. Its reads see the latest
// committed state plus its own buffered writes, and it records what
// each read returned. Nothing it writes is visible to anyone else until
// Commit, which locks the touched tables, re-runs every recorded read,
// and applies the buffer only if each returns the same rows — so every
// committed transaction is serializable, in commit order, with every
// other write. A Tx is not safe for concurrent use by multiple
// goroutines.
type Tx struct {
	db     *DB
	tables []*txTable // in first-touch order
	done   bool
}

// txTable is what a transaction read from and buffered for one table.
// A row of its view lives at a committed slot (loc >= 0) or in ins
// (loc = -1-i).
type txTable struct {
	t    *Table
	repl map[int]Row // committed slot → the row replacing it; nil = deleted
	ins  []Row       // rows inserted, in order; nil = deleted again

	keys    []keyRead
	lookups []lookupRead
	scanned bool
	version uint64 // the table version the first full scan saw
}

// keyRead is one primary-key probe of the committed rows and the row
// it found (nil: a miss).
type keyRead struct {
	key string
	row Row
}

// lookupRead is one secondary-index probe of the committed rows (column
// ci equal to the normalized val) and the slots and rows it found, slots
// ascending.
type lookupRead struct {
	ci    int
	val   Value
	slots []int
	rows  []Row
}

// Begin opens a transaction. It takes no lock and enters no gate: an
// open transaction blocks neither writers nor checkpoints.
func (db *DB) Begin() *Tx {
	db.tx.active.Add(1)
	return &Tx{db: db}
}

func (tx *Tx) table(t *Table) *txTable {
	for _, tt := range tx.tables {
		if tt.t == t {
			return tt
		}
	}
	tt := &txTable{t: t}
	tx.tables = append(tx.tables, tt)
	return tt
}

// Get returns the row with the given primary key as this transaction
// sees it: a stored row, or one this transaction buffered. The row is
// read-only.
func (tx *Tx) Get(t *Table, key ...Value) (Row, bool) {
	if tx.done {
		return nil, false
	}
	k, ok := t.keyOf(key)
	if !ok {
		return nil, false
	}
	_, r := tx.table(t).find(k)
	return r, r != nil
}

// Lookup returns the rows whose column equals v, as this transaction
// sees them, with Table.Lookup's NULL rule. The rows are read-only. A
// column without a secondary index is read by a full scan.
func (tx *Tx) Lookup(t *Table, col string, v Value) []Row {
	ci, ok := t.schema.Index(col)
	nv, err := Normalize(v)
	if tx.done || !ok || err != nil {
		return nil
	}
	tt := tx.table(t)
	var out []Row
	match := func(_ int, r Row) bool {
		if Equal(r[ci], nv) {
			out = append(out, r)
		}
		return true
	}
	if t.hash[ci] == nil {
		tt.scan(match)
		return out
	}
	lr := lookupRead{ci: ci, val: nv}
	t.mu.RLock()
	lr.slots = append([]int(nil), t.matchLocked(ci, nv)...)
	lr.rows = make([]Row, len(lr.slots))
	for i, s := range lr.slots {
		lr.rows[i] = t.rows[s]
	}
	t.mu.RUnlock()
	tt.lookups = append(tt.lookups, lr)
	tt.overlay(lr.slots, lr.rows, match)
	return out
}

// Scan calls fn on every row this transaction sees: the committed rows
// in slot order with its own writes applied, then its inserts. The rows
// are read-only.
func (tx *Tx) Scan(t *Table, fn func(row Row) bool) {
	if !tx.done {
		tx.table(t).scan(func(_ int, r Row) bool { return fn(r) })
	}
}

// Insert buffers a row insert. The row is validated, and its
// auto-increment value assigned, under the table lock at once, so the
// returned image, the buffered row itself and read-only, carries its id
// before Commit; a rolled-back or conflicted insert leaves a gap in the
// ids.
func (tx *Tx) Insert(t *Table, row Row) (Row, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	t.mu.Lock()
	r, err := t.validate(row)
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	tt := tx.table(t)
	if err := tt.claimKey(r); err != nil {
		return nil, err
	}
	tt.ins = append(tt.ins, r)
	return r, nil
}

// UpdateByKey buffers an update of the row with the given primary key,
// reading it by key: ErrNotFound when this transaction sees no such
// row.
func (tx *Tx) UpdateByKey(t *Table, key []Value, set func(Row) Row) error {
	if tx.done {
		return ErrTxDone
	}
	tt := tx.table(t)
	var loc int
	var cur Row
	if k, ok := t.keyOf(key); ok {
		loc, cur = tt.find(k)
	}
	if cur == nil {
		return fmt.Errorf("%w: table %s key %v", ErrNotFound, t.name, key)
	}
	return tt.update(loc, cur, set)
}

// UpdateWhere buffers an update of every row this transaction sees that
// satisfies pred, reporting how many. It reads the whole table. A
// validation error mid-batch leaves the earlier updates buffered.
func (tx *Tx) UpdateWhere(t *Table, pred func(Row) bool, set func(Row) Row) (int, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	tt := tx.table(t)
	hits := tt.match(pred)
	for i, h := range hits {
		if err := tt.update(h.loc, h.row, set); err != nil {
			return i, err
		}
	}
	return len(hits), nil
}

// DeleteWhere buffers deletion of every row this transaction sees that
// satisfies pred, reporting how many. It reads the whole table.
func (tx *Tx) DeleteWhere(t *Table, pred func(Row) bool) (int, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	tt := tx.table(t)
	hits := tt.match(pred)
	for _, h := range hits {
		tt.put(h.loc, nil)
	}
	return len(hits), nil
}

// Commit applies the transaction, or nothing. Under the checkpoint gate
// it locks every table the transaction touched in name order, re-runs
// each recorded read and returns ErrTxConflict unless all return the
// same rows. It then applies the buffered writes, journals them as
// transaction records followed by a commit record, and delivers them to
// the observers, all in one lock hold; a WAL failure undoes them and is
// returned. Finally, outside every lock, it waits for durability.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.finish()
	tts := tx.tables
	sort.Slice(tts, func(i, j int) bool { return tts[i].t.name < tts[j].t.name })
	s := tx.db.storage()
	if s != nil {
		s.BeginMutate()
	}
	for _, tt := range tts {
		if tt.writes() {
			tt.t.mu.Lock()
		} else {
			tt.t.mu.RLock()
		}
	}
	lsn, err := tx.applyLocked(s, tts)
	for _, tt := range tts {
		if tt.writes() {
			tt.t.mu.Unlock()
		} else {
			tt.t.mu.RUnlock()
		}
	}
	if s != nil {
		s.EndMutate()
	}
	c := &tx.db.tx
	if err != nil {
		if errors.Is(err, ErrTxConflict) {
			c.conflicts.Add(1)
		}
		c.aborted.Add(1)
		return err
	}
	c.committed.Add(1)
	if lsn == 0 {
		return nil
	}
	return s.WaitDurable(lsn)
}

// Rollback discards the buffered writes.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.finish()
	tx.db.tx.aborted.Add(1)
	return nil
}

func (tx *Tx) finish() {
	tx.done = true
	tx.db.tx.active.Add(-1)
}

// applyLocked is Commit's body under the table locks; it returns the
// commit record's LSN, 0 when nothing was journaled.
func (tx *Tx) applyLocked(s Storage, tts []*txTable) (uint64, error) {
	for _, tt := range tts {
		if !tt.validLocked() {
			return 0, fmt.Errorf("%w (table %s)", ErrTxConflict, tt.t.name)
		}
	}
	effs := make([][]effect, len(tts))
	from := make([]uint64, len(tts))
	for i, tt := range tts {
		if tt.writes() { // the tables only read are only read-locked
			from[i] = tt.t.version
			effs[i] = tt.applyLocked()
		}
	}
	var lsn uint64
	if s != nil {
		var err error
		if lsn, err = tx.journal(s, tts, effs); err != nil {
			for i := len(tts) - 1; i >= 0; i-- {
				if tts[i].writes() {
					tts[i].t.undoLocked(effs[i], from[i])
				}
			}
			return 0, err
		}
	}
	for i, tt := range tts {
		tt.t.notifyLocked(effs[i])
	}
	return lsn, nil
}

// journal appends one transaction record per table the transaction
// changed and then its commit record, returning the commit record's
// LSN; replay redoes the records only if the commit record is there.
func (tx *Tx) journal(s Storage, tts []*txTable, effs [][]effect) (uint64, error) {
	id := tx.db.tx.lastID.Add(1)
	logged := false
	for i, tt := range tts {
		if len(effs[i]) == 0 {
			continue
		}
		if _, err := s.LogTxMutations(id, tt.t.name, mutationsOf(effs[i])); err != nil {
			return 0, err
		}
		logged = true
	}
	if !logged {
		return 0, nil
	}
	return s.LogTxCommit(id)
}

func (tt *txTable) writes() bool { return len(tt.repl) > 0 || len(tt.ins) > 0 }

// find returns where the row with primary key k lives in the
// transaction's view, and the row; nil when there is none. It records
// the committed read.
func (tt *txTable) find(k string) (loc int, r Row) {
	t := tt.t
	for i, r := range tt.ins {
		if r != nil && t.pkKey(r) == k {
			return -1 - i, r
		}
	}
	for slot, r := range tt.repl {
		if r != nil && t.pkKey(r) == k {
			return slot, r
		}
	}
	t.mu.RLock()
	slot, ok := t.pkIndex[k]
	if ok {
		r = t.rows[slot]
	}
	t.mu.RUnlock()
	tt.keys = append(tt.keys, keyRead{key: k, row: r})
	if _, mine := tt.repl[slot]; ok && mine {
		return 0, nil // this transaction deleted or re-keyed it
	}
	return slot, r
}

// claimKey refuses r when a row in the transaction's view holds its
// primary key — unless an earlier read of the transaction found the key
// free, or held by another row: that read has changed, so r is taken
// and Commit refuses the whole transaction with ErrTxConflict instead.
func (tt *txTable) claimKey(r Row) error {
	if tt.t.pkIndex == nil {
		return nil
	}
	key := tt.t.pkKey(r)
	seen := len(tt.keys)
	if _, held := tt.find(key); held == nil {
		return nil
	}
	if len(tt.keys) > seen { // held by a committed row: find read it
		for _, kr := range tt.keys[:seen] {
			if kr.key == key && !sameRow(kr.row, tt.keys[seen].row) {
				return nil
			}
		}
	}
	return fmt.Errorf("%w: table %s key %v", ErrDuplicateKey, tt.t.name, key)
}

// update buffers set's validated image of cur, the row at loc.
func (tt *txTable) update(loc int, cur Row, set func(Row) Row) error {
	t := tt.t
	t.mu.Lock()
	repl, err := t.validate(set(cur.Clone()))
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if t.pkIndex != nil && t.pkKey(repl) != t.pkKey(cur) {
		if err := tt.claimKey(repl); err != nil {
			return err
		}
	}
	tt.put(loc, repl)
	return nil
}

// put buffers r (nil: a delete) as the row at loc.
func (tt *txTable) put(loc int, r Row) {
	if loc < 0 {
		tt.ins[-1-loc] = r
		return
	}
	if tt.repl == nil {
		tt.repl = make(map[int]Row)
	}
	tt.repl[loc] = r
}

// scan records a whole-table read and calls fn on the transaction's
// view of every row.
func (tt *txTable) scan(fn func(loc int, r Row) bool) {
	t := tt.t
	t.mu.RLock()
	slots := make([]int, 0, t.live)
	rows := make([]Row, 0, t.live)
	for slot, r := range t.rows {
		if r != nil {
			slots = append(slots, slot)
			rows = append(rows, r)
		}
	}
	if !tt.scanned {
		tt.scanned, tt.version = true, t.version
	}
	t.mu.RUnlock()
	tt.overlay(slots, rows, fn)
}

type txRow struct {
	loc int
	row Row
}

// match returns the rows of the transaction's view that satisfy pred.
func (tt *txTable) match(pred func(Row) bool) []txRow {
	var hits []txRow
	tt.scan(func(loc int, r Row) bool {
		if pred(r) {
			hits = append(hits, txRow{loc, r})
		}
		return true
	})
	return hits
}

// overlay calls fn on the transaction's view of the committed rows read
// at slots (ascending; rows[i] at slots[i]) — its replacements
// substituted, its deletes skipped — then on its replacements of other
// slots, and last on its own inserts, until fn returns false.
func (tt *txTable) overlay(slots []int, rows []Row, fn func(loc int, r Row) bool) {
	var others []int
	for slot := range tt.repl {
		if i := sort.SearchInts(slots, slot); i == len(slots) || slots[i] != slot {
			others = append(others, slot)
		}
	}
	sort.Ints(others)
	for i, slot := range slots {
		r, mine := tt.repl[slot]
		if !mine {
			r = rows[i]
		}
		if r != nil && !fn(slot, r) {
			return
		}
	}
	for _, slot := range others {
		if r := tt.repl[slot]; r != nil && !fn(slot, r) {
			return
		}
	}
	for i, r := range tt.ins {
		if r != nil && !fn(-1-i, r) {
			return
		}
	}
}

// validLocked reports whether every read the transaction made of the
// table would return the same rows now. Rows compare by reference: a
// stored row is never changed in place, so an updated or replaced row
// is a different reference, and the read set keeps every row it
// recorded alive, so no new row can reuse its address. Caller holds the
// table lock.
func (tt *txTable) validLocked() bool {
	t := tt.t
	if tt.scanned && t.version != tt.version {
		return false
	}
	for _, kr := range tt.keys {
		var cur Row
		if slot, ok := t.pkIndex[kr.key]; ok {
			cur = t.rows[slot]
		}
		if !sameRow(cur, kr.row) {
			return false
		}
	}
	for _, lr := range tt.lookups {
		slots := t.matchLocked(lr.ci, lr.val)
		if len(slots) != len(lr.slots) {
			return false
		}
		for i, slot := range slots {
			if slot != lr.slots[i] || !sameRow(t.rows[slot], lr.rows[i]) {
				return false
			}
		}
	}
	return true
}

// sameRow reports whether a and b are the same stored row, or both nil.
func sameRow(a, b Row) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	return &a[0] == &b[0]
}

// applyLocked applies the buffered writes to the table and returns
// their effects. A row the transaction inserted and deleted again moves
// the table's version with nothing to deliver, as a committed-dead row
// always has (see RowObserver); those steps come before the delivered
// ones.
func (tt *txTable) applyLocked() []effect {
	t := tt.t
	var effs []effect
	for _, r := range tt.ins {
		if r == nil {
			t.version++
		}
	}
	slots := make([]int, 0, len(tt.repl))
	for slot := range tt.repl {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	for _, slot := range slots {
		e := effect{slot: slot, before: t.rows[slot], after: tt.repl[slot]}
		if e.after == nil {
			t.applyDeleteSlot(slot)
		} else {
			t.applyUpdateSlot(slot, e.after)
		}
		effs = append(effs, e)
	}
	for _, r := range tt.ins {
		if r != nil {
			slot := t.takeSlotLocked()
			t.placeLocked(slot, r)
			effs = append(effs, effect{slot: slot, after: r})
		}
	}
	return effs
}
