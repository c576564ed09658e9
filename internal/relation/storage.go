package relation

// Storage is the pluggable durability backend behind a DB. The
// in-memory backend is the absence of one — tables with no attached
// Storage mutate under their own lock and nothing else — while the
// durable backend (DurableStore) journals every mutation through a
// write-ahead log before the mutator returns.
//
// Every write, autocommit statement or transaction commit, follows one
// protocol, in order:
//
//  1. BeginMutate — enter the checkpoint gate (shared side). While any
//     writer is inside the gate a checkpoint cannot start, so the
//     snapshot a checkpoint captures is always on a record boundary.
//  2. Lock the tables written (a transaction: every table it touched,
//     in name order, after validating its reads), apply the change in
//     memory and collect the applied row effects as Mutations.
//  3. Journal them, still under the table locks, so WAL order equals
//     apply order: LogMutations for a statement; for a transaction,
//     LogTxMutations per table and then LogTxCommit. On error the
//     writer reverses the in-memory effects with the slot-addressed
//     undo helpers and reports failure.
//  4. Deliver the effects to the row observers, unlock, EndMutate.
//  5. WaitDurable — outside every lock, block until the record's LSN
//     is durable per the store's commit policy (fsync now, or return
//     immediately and let the background flusher catch up).
//
// A transaction holds nothing before Commit, so an open one never
// delays a checkpoint. Recovery replays a transaction's records if and
// only if its commit record made it to the log.
//
// DDL goes through LogCreate/LogDrop/LogAlter with the same bracket.
type Storage interface {
	// BeginMutate enters the checkpoint gate; every Log* call must be
	// bracketed by BeginMutate/EndMutate.
	BeginMutate()
	// EndMutate leaves the checkpoint gate.
	EndMutate()
	// LogMutations appends one redo record covering the applied row
	// effects of a single statement against table. Called under the
	// table's write lock.
	LogMutations(table string, muts []Mutation) (lsn uint64, err error)
	// LogTxMutations appends one redo record covering transaction tx's
	// row effects on table; replay ignores it unless tx's commit record
	// is also in the log.
	LogTxMutations(tx uint64, table string, muts []Mutation) (lsn uint64, err error)
	// LogTxCommit appends the commit record for tx.
	LogTxCommit(tx uint64) (lsn uint64, err error)
	// LogCreate appends a redo record for a table definition.
	LogCreate(t *Table) (lsn uint64, err error)
	// LogDrop appends a redo record dropping the named table.
	LogDrop(name string) (lsn uint64, err error)
	// LogAlter appends a redo record adding an ordered index.
	LogAlter(table, orderedCol string) (lsn uint64, err error)
	// WaitDurable blocks until the record at lsn is durable under the
	// store's commit policy. Called outside all locks.
	WaitDurable(lsn uint64) error
}

// MutKind discriminates the row effects a statement applied.
type MutKind uint8

// The three row-level effects a redo record can carry.
const (
	MutInsert MutKind = iota // Row stored at Slot
	MutUpdate                // Row replaced the row at Slot
	MutDelete                // row at Slot tombstoned (Row is nil)
)

// Mutation is one applied row effect: the exact slot it touched and
// the post-image row (nil for deletes). Effects — not logical
// statements — are what the WAL carries, because predicates and set
// functions are Go closures that cannot be serialized; replay
// re-applies effects slot-for-slot and needs no re-evaluation.
type Mutation struct {
	Kind MutKind
	Slot int
	Row  Row
}

// storageBox wraps the Storage interface in a pointer cell so tables
// can read their backend with a single atomic load on the hot path and
// swap it during attach/detach (open, Bulk) without a lock.
type storageBox struct{ s Storage }
