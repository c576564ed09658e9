// Package matview is the materialization layer: a registry of
// materialized views over the relation store, each a precomputed
// value (a rating map, a feed relation, an extend-step result) that
// interactive requests read instead of recomputing — the precomputation
// pattern social-systems infrastructure leans on to keep recommendation
// and feed queries at interactive latencies. The top-rated feed and
// FlexRecs' extend views over one table are maintained: a write costs
// the keys it touched, not a rebuild. Every other view rebuilds when a
// dependency moves.
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
//   - version moved (row DML): the view's DATA is stale. A maintained
//     view catches it up from its change logs (below); any other view
//     rebuilds.
//   - epoch moved or the table was replaced (DDL): the view may hold
//     stale-SCHEMA rows. The snapshot is dropped and the read rebuilds.
//
// Either way a read returns a value that reflects every change committed
// before it: a read after a write sees the write.
//
// This is the same (SchemaEpoch, Version) machinery sqlmini's plan
// cache fingerprints with, keyed one level stricter: plans bake in
// access paths and survive row DML; views bake in data and do not.
//
// # Single-flight refresh
//
// All rebuilds of one view are single-flighted: the first reader to
// find the view stale runs the build; every concurrent reader joins
// that in-flight build and shares its result — and a joiner whose own
// write the flight may predate checks the result and, if it is behind,
// builds once more. A cold view hit by N simultaneous requests builds
// once, not N times — the stampede the hand-rolled caches this package
// replaced would serialize into N sequential rebuilds. Snapshots are
// immutable and published through an atomic pointer, so a reader never
// observes a torn view: it gets the whole previous snapshot or the whole
// next one.
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
// runs: under the table's write lock, in the lock hold that applied the
// change, durable tables included. So it never reads a table, and the
// only lock it takes is the log's own, which a reader holds just long
// enough to copy keys out — never while it probes a table. And because
// the log grows in the same lock hold as the table's version, a reader
// that sees a version finds its change already logged.
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
// The two fallbacks, each exactly an unmaintained view's behaviour:
//
//   - a gap: the spans do not chain, because a version moved with nothing
//     delivered (a row a transaction inserted and deleted, a rolled-back
//     WAL rejection) or a log overflowed unread. The log cannot say what
//     changed: rebuild. Such a version changed no row a reader can see,
//     so a table merely ahead of its log's head is served as it stands;
//     the gap surfaces, and rebuilds, at the next delivery.
//   - "cannot tell": Keys refused a change. Rebuild.
package matview
