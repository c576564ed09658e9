// Package relation implements the relational storage engine that
// underpins CourseRank. It provides typed schemas, row storage with
// primary and secondary hash indexes, ordered (sorted) indexes,
// predicate-based scans, and two interchangeable backends: a pure
// in-memory store (NewDB) and a durable store (OpenDurable) that
// journals every mutation through a write-ahead log and checkpoints
// into one checksummed file. The SQL engine in package sqlmini executes against
// this store, which is the "conventional DBMS" the paper's FlexRecs
// workflows compile into.
//
// # The Storage interface: pluggable table backends
//
// Table and DB never talk to disk directly. Each table instead holds an
// optional Storage (storage.go), attached atomically, that observes
// mutations:
//
//	BeginMutate / EndMutate     bracket a mutation (checkpoint gate)
//	LogMutations(table, muts)   journal applied row effects, return LSN
//	LogCreate / LogDrop / LogAlter  journal DDL
//	WaitDurable(lsn)            block until the LSN is commit-durable
//
// A nil Storage is the in-memory backend: a write applies under the
// table lock and delivers to the observers, and that is all. With a
// Storage attached, every Insert/UpdateByKey/UpdateWhere/DeleteWhere,
// every Tx.Commit and every DDL call journals the row effects it
// applied (Mutation: kind, slot, post-image) while still holding the
// table locks — so WAL order always equals apply order — and then waits
// for durability outside all locks. If the journal write fails, the
// already-applied effects are rolled back slot-for-slot (undoLocked),
// the table's version with them, and the error is returned: a mutation
// is either applied-and-journaled or not applied.
//
// # Reading rows
//
// Every read hands out the stored rows themselves, never copies:
// Table.Get, Lookup, Each, GetEach, LookupMany, Rows, Range and Scan,
// the cursors (RangeCursor, DescCursor, ScanCursor), InsertGet's result,
// and Tx.Get, Tx.Lookup, Tx.Scan and Tx.Insert's. A returned row is
// read-only: its reader must neither write into it nor grow it. In
// exchange a read allocates only the slice it returns (Each and Scan not
// even that), and a row stays a consistent snapshot for as long as its
// reader holds it, because the store never changes a stored row in
// place: an update validates a replacement row and swaps the slot's
// pointer, and a delete drops it. A caller that wants to edit a row it
// read copies it first (Row.Clone); UpdateByKey and UpdateWhere, in a
// Tx too, hand their set function such a copy.
//
// Lookup, Each and Tx.Lookup find the rows whose column equals the
// given value under Compare's equality through the column's hash index,
// or a scan without one, in slot order. A NULL value finds the rows
// whose column is NULL. LookupMany, the executor's batched probe, keeps
// SQL's rule instead: a NULL key matches nothing. Resolving a column
// name and encoding a probe key allocate nothing.
//
// # Transactions
//
// A table holds one version of each row; there is one write path, and
// autocommit writes never conflict. relation.Tx (DB.Begin) is an
// optimistic write batch. It buffers its writes outside the tables and
// reads the latest committed rows plus its own buffer, recording what
// each read returned: a Get's key and row reference (or the miss), a
// Lookup's index value with the slots and references it found, and the
// table version for a full scan (Scan, UpdateWhere, DeleteWhere).
// Commit enters the checkpoint gate, locks the touched tables in name
// order and re-runs every recorded read. Rows compare by reference,
// because a stored row is never changed in place; a replaced row, a
// deleted one, or a new row matching a read (a phantom) is a change,
// and Commit returns ErrTxConflict with nothing applied. Otherwise it
// applies, journals, delivers to the observers and unlocks: every
// committed Tx is serializable in commit order. An open Tx holds no
// lock, so it delays neither writers nor checkpoints.
//
// # Effect-based redo logging
//
// WAL records carry the EFFECTS of a statement, not the statement:
// exact row slots plus post-images. Predicates and set functions are Go
// closures and cannot be serialized; replay therefore re-applies slots
// verbatim (applyInsertSlot/applyUpdateSlot/applyDeleteSlot) with no
// re-evaluation, and recovery is deterministic regardless of what code
// produced the mutation. Auto-increment sequences recover from the
// largest replayed key; free lists and indexes are rebuilt after
// replay.
//
// # WAL record format
//
// The log (package wal) is a single append-only file:
//
//	header: magic "CRWAL1\0\0" + uint64 start LSN
//	record: uint32 length | uint32 CRC32-Castagnoli | uint64 LSN |
//	        uint8 type | payload
//
// The CRC covers (LSN, type, payload). Payloads here are JSON:
// recDML (1) is {table, [op "i"/"u"/"d", slot, row-cells]...};
// recCreate (2) is the table's snapshot header; recDrop (3) and
// recAlter (4) name the table (and ordered-index column); recTxDML (5)
// is a recDML tagged with a transaction id, redone only if that
// transaction's recTxCommit (6) is in the log; recTxAbort (7), written
// by older versions, is skipped. On open, the
// scan stops at the first short or CRC-failing record and physically
// truncates the file there: a torn final record from a crash is
// discarded, every earlier record is preserved.
//
// # LSN and checkpoint lifecycle
//
// Every appended record gets the next LSN; Commit(lsn) makes it
// durable per the sync policy. A checkpoint (DurableStore.Checkpoint)
// takes the gate exclusively (quiescing mutators), snapshots every
// table into checkpoint.db, and truncates the WAL up to the snapshot
// LSN. The snapshot is streamed to checkpoint.tmp — header {magic,
// format version, LSN, payload length}, JSON-lines payload,
// CRC32-Castagnoli trailer — fsynced, renamed over checkpoint.db, and
// the directory is fsynced: the rename is the commit point, so a crash
// mid-checkpoint leaves the previous snapshot intact and at most a
// stray checkpoint.tmp that the next open removes. Recovery verifies
// the whole file against its checksum before applying a row, loads it,
// then replays only WAL records with LSN > snapshot LSN (covering a
// crash between the rename and the log truncation).
// Checkpoints also run automatically every CheckpointEvery journaled
// records (synchronously, inside the WaitDurable of the record that
// crossed the threshold), and DurableStore.Bulk loads data with the
// journal detached and checkpoints once at the end — the bulk corpus
// lands in the checkpoint file, not the log.
//
// # Sync vs async commit
//
// wal.SyncAlways fsyncs on every commit, with group commit: concurrent
// committers ride one another's fsyncs (a leader syncs once for every
// waiter whose LSN it covers), so the log issues far fewer fsyncs than
// commits under load. wal.SyncNone acknowledges as soon as the record
// is written to the OS, with a background flusher (FlushEvery) and
// fsyncs at checkpoints and Close: a process crash loses nothing (the
// OS has the writes); power loss can lose the last flush interval.
//
// The durable fixture serves CourseRank end to end: core.NewDurableSite
// opens a site over OpenDurable, cmd/courserank exposes it as
// -durable DIR -fsync sync|async, and /api/stats reports the WAL and
// checkpoint counters under "durability".
package relation
