// Package matview is the asynchronous materialization layer: a registry
// of materialized views over the relation store, each a precomputed
// value (a rating map, a feed relation, an extend-step result) that
// interactive requests read instead of recomputing — the precomputation
// pattern social-systems infrastructure leans on to keep recommendation
// and feed queries at interactive latencies.
//
// # Versioned invalidation
//
// A view declares the base tables it depends on. Every build captures a
// fingerprint per dependency — the table pointer (identity across
// DROP/CREATE), its SCHEMA EPOCH and its MUTATION VERSION
// (relation.Table.ViewFingerprint) — before the build reads anything,
// so a write racing the build merely makes the snapshot stale a round
// early, never wrong. A read is a hit when every dependency still
// matches exactly. The fingerprint split matters:
//
//   - version moved (row DML): the view's DATA is stale. Async views
//     may still serve it inside their staleness bound.
//   - epoch moved or the table was replaced (DDL): the view may hold
//     stale-SCHEMA rows. These are never served — the snapshot is
//     dropped and the read rebuilds.
//
// This is the same (SchemaEpoch, Version) machinery sqlmini's plan
// cache fingerprints with, keyed one level stricter: plans bake in
// access paths and survive row DML; views bake in data and do not.
//
// # Single-flight refresh
//
// All rebuilds of one view are single-flighted: the first reader (or
// background worker) to find the view stale runs the build; every
// concurrent reader joins that in-flight build and shares its result.
// A cold view hit by N simultaneous requests builds once, not N times
// — the stampede the hand-rolled caches this package replaced would
// serialize into N sequential rebuilds.
//
// # Serving modes
//
// Sync views refresh on read: a stale read blocks on the (shared)
// rebuild and always returns data reflecting every mutation committed
// before the build started.
//
// Async views bound staleness instead of eliminating it: once a read
// observes the snapshot stale the staleness clock starts, and reads
// inside the view's MaxStale bound serve the previous snapshot
// immediately while enqueueing a background refresh behind them
// (deduplicated — one queued refresh per view). A read past the bound —
// meaning refreshes have failed to land for MaxStale despite demand —
// blocks like Sync. The clock starts at first OBSERVATION rather than
// at the write because a write nobody reads after serves nobody stale
// data, and it makes a long-fresh snapshot that just went stale serve
// instantly instead of spuriously blocking on its calendar age.
// Snapshots are immutable and published through an atomic pointer, so
// a reader never observes a torn view: it gets the whole previous
// snapshot or the whole next one.
//
// # Maintained views
//
// A view that declares Keys and Patch beside Build is maintained: a
// committed row change costs the keys it touched, not a build. Three
// parts meet.
//
// The change log. At its first build the view attaches one observer to
// each table it fingerprints (before it reads the version, so nothing
// past the fingerprint can miss the log). relation delivers every
// committed row change with the span of the table's mutation versions
// it accounts for; the observer asks Keys which view keys the change
// touches — or hears "cannot tell" — and appends (span, keys) to that
// dependency's log. It does nothing else, and the reason is where it
// runs: on an in-memory table, under the table's write lock. So it never
// reads a table, and the only lock it takes is the log's own, which a
// reader holds just long enough to copy keys out — never while it
// probes a table.
//
// The no-hole rule. A read that finds the snapshot stale takes the
// single-flight lock and walks each moved dependency's log from the
// snapshot's version: if the spans chain without a gap up to the log's
// head, it collects their keys, has Patch return a NEW value with those
// keys recomputed from the base tables, and publishes it stamped with
// the heads — a hit and a patch in the counters, never a refresh.
// Concurrent stale readers take turns on the lock and all but the first
// find the work done. The stamp is the log's head, not the table's
// version: a change landing while the patch runs is recomputed again by
// the read after it, which is harmless because Patch recomputes keys
// rather than adjusting them. Entries at or below a published
// snapshot's versions are dropped, so a write racing a build costs
// nothing: it is either inside the build's fingerprint or still in the
// log. A build that finishes after maintenance has carried the snapshot
// past its fingerprint is not published over it.
//
// The three fallbacks, each exactly an unmaintained view's behaviour:
//
//   - a hole: the version moved and nothing was delivered (a row a
//     transaction inserted and deleted, a rolled-back WAL rejection, a
//     dropped notification, a log that overflowed unread). The log
//     cannot say what changed: rebuild — behind the read for an async
//     view inside its bound, blocking otherwise.
//   - "cannot tell": Keys refused a change. Same.
//   - the table is ahead of the log's head with no hole: on a durable
//     table a delivery waits for its WAL record, so this is a commit in
//     flight. An async view serves the snapshot, patched as far as the
//     log reaches, as ServeStale inside MaxStale WITHOUT enqueueing a
//     rebuild — the delivery will bring it current. A sync view, and an
//     async one past the bound, block on a rebuild; the bound expiring
//     is also how a version that never gets a delivery heals when no
//     later change exposes the hole.
//
// # Lifecycle
//
// A Registry owns the background refresher pool: Start launches the
// workers, Close stops them and drains in-flight builds. An unstarted
// (or closed) registry still serves every view correctly — async views
// simply degrade to blocking refreshes once past their bound. The core
// Site starts its registry at construction and exposes Close; tests
// defer it so goroutines drain.
package matview
