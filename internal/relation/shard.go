package relation

import "fmt"

// This file holds the small hooks the scatter-gather router
// (internal/shard) needs from the storage layer: shard-key metadata on
// tables, and row observers that let a shard cluster follow a base
// table's mutations for write-through propagation.

// WithShardKey declares col as the table's shard key: the column whose
// value decides which shard of a partitioned cluster owns each row.
// The metadata is advisory — a standalone table behaves identically
// with or without it — and deliberately does not participate in
// schemaEquiv, so durable recovery can adopt tables created before the
// key was declared.
func WithShardKey(col string) TableOption {
	return func(t *Table) error {
		i, ok := t.schema.Index(col)
		if !ok {
			return fmt.Errorf("relation: shard key column %q not in schema", col)
		}
		t.shardCol = i
		return nil
	}
}

// SetShardKey declares the shard key on a live table; see WithShardKey.
func (t *Table) SetShardKey(col string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.schema.Index(col)
	if !ok {
		return fmt.Errorf("relation: shard key column %q not in table %s", col, t.name)
	}
	t.shardCol = i
	return nil
}

// ShardKey returns the declared shard key column name, if any.
func (t *Table) ShardKey() (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.shardCol < 0 {
		return "", false
	}
	return t.schema.Column(t.shardCol).Name, true
}

// VersionSpan is the half-open range (After, Through] of one table's
// mutation versions (Table.Version, the counter ViewFingerprint reports).
type VersionSpan struct{ After, Through uint64 }

// stepTo is the span of the one row mutation that produced version.
func stepTo(version uint64) VersionSpan {
	return VersionSpan{After: version - 1, Through: version}
}

// RowObserver sees every committed row mutation on a table:
//
//	MutInsert: before == nil, after is the stored row
//	MutUpdate: before is the pre-image, after the post-image
//	MutDelete: before is the pre-image, after == nil
//
// span says which of the table's mutation versions the delivery accounts
// for: the row change IS the step from version span.After to
// span.Through. Deliveries reach an observer in ascending span order, so
// a consumer that has seen spans chaining without a gap from version a
// to version b has seen every change between the table states a and b,
// and may bring something derived from state a up to state b from the
// deliveries alone. The chain has a gap wherever the version moved and
// nothing was delivered: a row a transaction both inserted and deleted
// (committed born dead), the apply-then-undo of a mutation the WAL
// refused, recovery replay, a notification dropped after a WaitDurable
// failure, and every mutation made while no observer was attached. A
// consumer meeting a gap knows only that it no longer knows the table
// state and must re-read it. A statement that changes n rows delivers n
// spans, one per row, after its last row is applied.
//
// On an ephemeral table observers run synchronously under the table's
// write lock, within the same lock hold that applied the mutation: a
// reader that sees Version() == v finds every span up to v already
// delivered. On a durable table they run after WaitDurable confirms the
// mutation's WAL record — never before, so a crash cannot leave an
// observer (e.g. a shard write-through) holding rows the recovered base
// never committed — which means Version() runs ahead of the delivered
// spans while a confirmation is in flight. Deferred delivery is
// serialized per table in WAL order (mutations are never reordered or
// dropped relative to each other), outside the table lock; a WAL append
// rejection rolls the rows back without notifying, and a WaitDurable
// failure drops the queued notifications and counts them in NotifyStats.
// Under an asynchronous commit policy WaitDurable returns before the
// fsync lands; those deliveries are counted as unconfirmed in
// NotifyStats rather than held back.
//
// Observers must be fast, must not call back into the observed table,
// and must copy any row they retain — the slices are the stored rows
// themselves. Recovery replay and WAL-failure rollback bypass
// observers: they reconstruct state, they do not originate mutations.
type RowObserver func(kind MutKind, before, after Row, span VersionSpan)

// queuedNotify is one committed mutation on a durable table awaiting
// durability confirmation before the observers may see it.
type queuedNotify struct {
	lsn     uint64
	kind    MutKind
	before  Row
	after   Row
	version uint64 // the table version this mutation produced
}

// queueNotifyLocked records the committed mutation that moved the table
// to version for observer delivery. With lsn == 0 (ephemeral table)
// delivery is synchronous under the table write lock; otherwise the
// notification is parked until flushNotifies confirms the record
// durable. Caller holds the table write lock.
func (t *Table) queueNotifyLocked(lsn uint64, kind MutKind, before, after Row, version uint64) {
	if len(t.obs) == 0 {
		return
	}
	if lsn == 0 {
		t.notifyLocked(kind, before, after, version)
		return
	}
	t.nqMu.Lock()
	t.nq = append(t.nq, queuedNotify{lsn: lsn, kind: kind, before: before, after: after, version: version})
	t.nqMu.Unlock()
}

// flushNotifies delivers every queued notification with LSN at or below
// lsn, after WaitDurable(lsn) returned werr. Delivery order is WAL
// order: notifyMu serializes concurrent flushers, and a later flusher
// covering a group-committed batch drains earlier writers' entries too.
// On werr != nil the covered entries are dropped and counted; under a
// commit policy whose WaitDurable does not confirm the fsync they are
// delivered but counted as unconfirmed. Called outside all table locks.
func (t *Table) flushNotifies(lsn uint64, werr error, s Storage) {
	t.nqMu.Lock()
	pending := len(t.nq) > 0
	t.nqMu.Unlock()
	if !pending {
		return
	}
	t.notifyMu.Lock()
	defer t.notifyMu.Unlock()
	t.nqMu.Lock()
	i := 0
	for i < len(t.nq) && t.nq[i].lsn <= lsn {
		i++
	}
	batch := t.nq[:i:i]
	t.nq = append([]queuedNotify(nil), t.nq[i:]...)
	if len(t.nq) == 0 {
		t.nq = nil
	}
	t.nqMu.Unlock()
	if len(batch) == 0 {
		return
	}
	if werr != nil {
		if t.clock != nil {
			t.clock.notifyDropped.Add(uint64(len(batch)))
		}
		return
	}
	if t.clock != nil && !storageSyncConfirms(s) {
		t.clock.notifyUnconfirmed.Add(uint64(len(batch)))
	}
	t.mu.RLock()
	obs := append([]RowObserver(nil), t.obs...)
	t.mu.RUnlock()
	for _, q := range batch {
		for _, fn := range obs {
			fn(q.kind, q.before, q.after, stepTo(q.version))
		}
	}
}

// storageSyncConfirms reports whether s's WaitDurable confirms the
// fsync (conservatively false for backends that don't say).
func storageSyncConfirms(s Storage) bool {
	ts, ok := s.(TxStorage)
	return ok && ts.SyncConfirms()
}

// Observe attaches a row observer. Observers cannot be detached;
// attach them to tables whose lifetime matches the observer's.
func (t *Table) Observe(fn RowObserver) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.obs = append(t.obs, fn)
}

// observedLocked reports whether any observer is attached; caller
// holds at least the read lock.
func (t *Table) observedLocked() bool { return len(t.obs) > 0 }

// notifyLocked fans out the committed mutation that moved the table to
// version; caller holds the write lock.
func (t *Table) notifyLocked(kind MutKind, before, after Row, version uint64) {
	for _, fn := range t.obs {
		fn(kind, before, after, stepTo(version))
	}
}

// firstVersionOf returns the version the first of a statement's n row
// mutations produced, read after the last one: a multi-row statement
// bumps the version once per row and notifies after its loop. Caller
// holds the write lock.
func (t *Table) firstVersionOf(n int) uint64 { return t.version - uint64(n) + 1 }

// notifyUpdatesLocked replays collected update effects (post-images in
// muts, pre-images in undo, index-aligned) to the observers.
func (t *Table) notifyUpdatesLocked(muts, undo []Mutation) {
	if len(t.obs) == 0 {
		return
	}
	first := t.firstVersionOf(len(muts))
	for i := range muts {
		t.notifyLocked(MutUpdate, undo[i].Row, muts[i].Row, first+uint64(i))
	}
}

// notifyDeletesLocked replays collected delete effects (pre-images in
// undo) to the observers.
func (t *Table) notifyDeletesLocked(undo []Mutation) {
	if len(t.obs) == 0 {
		return
	}
	first := t.firstVersionOf(len(undo))
	for i := range undo {
		t.notifyLocked(MutDelete, undo[i].Row, nil, first+uint64(i))
	}
}
