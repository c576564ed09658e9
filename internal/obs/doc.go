// Package obs is the query-observability layer: latency histograms
// and a slow-query log, shared by every execution layer (sqlmini
// statements, shard scatter-gather, the HTTP handlers).
//
// # Design
//
// The package holds only passive accumulators — nothing here knows
// how to execute a query. The execution layers push into a Collector
// at their natural completion points (Stmt.Query, the HTTP
// middleware), keyed by statement fingerprint: the statement's
// SQL text, the same key the plan cache uses, so /api/queries rows
// line up one-to-one with plan-cache entries.
//
// Everything on the record path is lock-free: Histogram buckets are
// atomic counters (log-linear, 16 sub-buckets per octave, ≤6.25%
// relative error — any reported quantile is within one bucket of the
// true order statistic), QueryStat lookups are one sync.Map load on
// the steady state, and the SlowLog rejects below-floor latencies
// with a single atomic load before ever taking its insertion lock.
// When no collector is installed the execution layers skip all of it
// behind one atomic-pointer nil check, so the bare path stays at its
// benchmarked cost (bench/'s obs.overhead_ratio probe measures the
// difference).
//
// # Slow-query plan capture
//
// A SlowLog entry is admitted without a plan: instrumenting the very
// execution that turned out slow would require instrumenting every
// execution. Instead the recording layer arms the fingerprint and the
// statement's next execution runs with EXPLAIN ANALYZE
// instrumentation, back-filling the entry (SlowLog.AttachPlan). The
// plan shown is therefore from a later run of the same statement —
// the standard deferred-capture trade-off.
//
// # WAL wait attribution
//
// On durable sites Collector.WALWait samples the WAL's cumulative
// commit-wait counters; the recording layer takes before/after deltas
// around a statement to attribute durability wait (own fsync vs
// riding another commit's group fsync) to slow-log entries. Deltas
// are per-process counters, so under concurrent commits a statement
// may be attributed a neighbor's wait — good enough to answer "was
// this slow because of fsync?", and documented as approximate.
package obs
