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
// nothing was delivered: every mutation made before the observer was
// attached (recovery replay included) and, after that, only versions
// that changed no row a reader can see — a row a transaction both
// inserted and deleted (committed born dead). A consumer whose chain of
// spans breaks knows only that it no longer knows the table state and
// must re-read it. A statement that changes n rows delivers n spans, one per row,
// after its last row is applied.
//
// Observers run synchronously under the table's write lock, within the
// same lock hold that applied the mutation — on a durable table right
// after the WAL accepted its record and before WaitDurable. A reader
// that sees Version() == v therefore finds every span up to v already
// delivered, and anything an observer maintains agrees with what SQL
// readers of the table see. A WAL append rejection rolls the rows back,
// and the version with them, without notifying. Every observer the program attaches keeps
// in-memory state only (matview change logs, shard.FollowBase into
// memory shards rebuilt at start), so a crash cannot leave one holding
// a row the recovered base never committed; after a WaitDurable
// failure the base keeps the row in memory, and its observers agree.
//
// Observers must be fast and must copy any row they retain — the slices
// are the stored rows themselves. They must not call back into the
// observed table, nor into any other table of its database: a
// transaction's Commit delivers while it holds every table it touched.
// Recovery replay and WAL-failure rollback bypass observers: they
// reconstruct state, they do not originate mutations.
type RowObserver func(kind MutKind, before, after Row, span VersionSpan)

// Observe attaches a row observer. Observers cannot be detached;
// attach them to tables whose lifetime matches the observer's.
func (t *Table) Observe(fn RowObserver) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.obs = append(t.obs, fn)
}

// notifyLocked delivers effs, the changes that moved the table through
// its last len(effs) versions, to the observers in order, one version
// step each; caller holds the write lock.
func (t *Table) notifyLocked(effs []effect) {
	if len(t.obs) == 0 {
		return
	}
	first := t.version - uint64(len(effs))
	for i, e := range effs {
		for _, fn := range t.obs {
			fn(e.kind(), e.before, e.after, stepTo(first+uint64(i)+1))
		}
	}
}
