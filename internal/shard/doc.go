// Package shard is the scatter-gather layer above the planner: it runs
// one sqlmini engine per shard and routes prepared SELECTs across them,
// so fan-out queries scale with cores while shard-key point lookups
// stay one-engine cheap. It has one write path, FollowBase, and one
// gather path, the materialized merge below.
//
// # Placement
//
// A table with a declared shard key (relation.WithShardKey /
// Table.SetShardKey) is PARTITIONED: each row lives on exactly one
// shard, chosen by hashing the key value (NULL keys hash to shard 0).
// Tables without a shard key are REPLICATED: every shard holds a full
// copy. CourseRank partitions its fact tables (Comments, Enrollments,
// EnrollmentPoints) by student id and replicates the catalog
// (Courses, Offerings, Departments, ...), so the social joins the
// paper's workloads issue — a student's ratings against the course
// catalog — stay partition-local.
//
// # Routing rules
//
// At prepare time the router extracts equality conjuncts from WHERE
// and JOIN ON clauses and closes them into equivalence classes. Every
// sqlmini join is INNER (outer and cross joins fail to parse), so an ON
// conjunct filters exactly like a WHERE one and its value pins route.
// At execution it decides, per statement:
//
//   - Single-shard fast path: every partitioned table's shard key is
//     pinned — directly or through an equality class — to a value that
//     hashes to one owner. The statement runs on that shard alone.
//   - Replicated route: the statement touches no partitioned table.
//     It runs on one shard, rotated round-robin for balance.
//   - Fan-out: otherwise, the prepared statement runs on every shard
//     on parallel goroutines (a per-query pool bounded by GOMAXPROCS)
//     and the per-shard results are merged once all legs return.
//
// A fan-out is refused at execution (never silently wrong) when:
//
//   - two partitioned tables join without their shard keys in one
//     equivalence class (a cross-shard join — rows that must meet
//     live on different shards);
//   - an ORDER BY key is not an output column (the cross-shard order
//     contract — see the sqlmini package docs);
//   - the statement aggregates (COUNT, AVG or GROUP BY): no merge
//     combines per-shard groups, so an aggregate runs only when pinned.
//
// Such statements still execute fine when pinned to a single shard.
//
// # Merge strategies
//
// There are two:
//
//   - by-order: ORDER BY fan-outs reuse the engine's sort contract —
//     each shard's result arrives sorted, so the gather is a k-way
//     merge on output columns. With LIMIT k every shard runs the
//     statement as written and stops at its k-th row, and the merge
//     stops at its k-th row too: it is the answer. Where the statement
//     streams (the ORDER BY elided into an index walk) the shard's
//     executor ends its pipeline there and, for a k below one fetch,
//     reads about k rows of its partition, so the coordinator reads
//     shards × k rows and keeps k, not the table.
//   - concat: unordered fan-outs append the per-shard results in
//     shard order, each leg cut to the LIMIT like an ordered one, and
//     stop at the LIMIT.
//
// # Writes follow the base
//
// SQL is read-only (see package sqlmini), so the cluster takes no
// writes of its own. Every write goes to a base database through
// relation.Table or relation.Tx, and the cluster follows it
// (FollowBase): row observers propagate each committed base mutation
// into the shards — an insert to its owner (every shard for a
// replicated table), an update as a delete from the old owner plus an
// insert at the new one, so a shard-key change migrates the row. This
// is how core.Site serves every non-SQL subsystem from the base store
// while SQL reads scatter. Split and FollowBase require a quiescent
// base (no writes until FollowBase returns); writes that slip into the
// window between the copy and the observers attaching are detected by
// table-version comparison and counted in Stats.ApplyErrors, as are
// propagations a shard rejects. Tables created on the base after
// FollowBase are not followed; reshard after DDL.
//
// # Skew caveats
//
// Hash placement balances students, not load: a department-popular
// workload hammers whichever shards own the loud students (the Digg
// friend-feed skew), and per-shard row-count stats (Stats.RowsPerShard)
// make that visible rather than fixing it. Replicated tables multiply
// write amplification by the shard count: FollowBase applies each of
// their writes once per shard. NULL shard keys all land on shard 0 by
// construction.
package shard
