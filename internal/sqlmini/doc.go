// Package sqlmini is a small, read-only SQL engine over the relation
// store. It plays the role of the "conventional DBMS" in the paper's
// FlexRecs architecture (§3.2), and its dialect is exactly the SQL
// CourseRank sends — the FlexRecs compiler's statements, the feed's
// build and patch, the baseline recommender's ratings read and the
// benchmark probes:
//
//	SELECT item {, item} FROM t [a] {[INNER] JOIN t [a] ON cond} [WHERE cond]
//	  [GROUP BY col {, col}] [ORDER BY expr [ASC|DESC] {, …}] [LIMIT expr]
//	item := * | a.* | expr [[AS] name] | COUNT(*) | COUNT(expr) | AVG(expr)
//	cond := pred {AND pred}
//	pred := add (= | <> | != | < | <= | > | >=) add | add BETWEEN add AND add
//	add  := ["-"] prim {(+ | -) ["-"] prim}
//	prim := number | 'string' | ? | NULL | TRUE | FALSE | [a.]col | (cond)
//
// An aggregate is always a whole select item, never an operand. Every
// join is INNER: LEFT, RIGHT, FULL, CROSS, OUTER and NATURAL joins are
// refused by name at parse time, and so is the rest of SQL no product
// statement uses — OR, NOT, IN, IS [NOT] NULL, LIKE, CASE, DISTINCT,
// HAVING, OFFSET, SUM, MIN, MAX, the scalar functions and the ||, *, /
// and % operators — each with the one error "sqlmini: X is not
// supported: it is outside sqlmini's dialect". It never writes: tables
// are created and changed through relation.DB, relation.Table and
// relation.Tx, which is how every write a request makes already
// travels, and INSERT, UPDATE, DELETE and CREATE are refused by name at
// parse time too.
//
// # Lifecycle: prepare → plan cache → bind → execute
//
// The public API is database/sql-shaped, built so that serving the same
// parameterized query per user request costs one plan, ever:
//
//	stmt, _ := engine.Prepare(`SELECT Title FROM Courses WHERE CourseID = ?`)
//	res, _  := stmt.Query(courseID)        // materialized *Result
//	rows, _ := stmt.QueryRows(courseID)    // streaming Next/Scan cursor
//
// Prepare runs the per-statement stages exactly once:
//
//	lex+parse (parser.go) — SQL text to AST; '?' stays a late-bound Param
//	plan      (planner.go) — cost-aware physical planning
//	prepare   (stmt.go)    — star expansion, output naming, name binding
//
// Param expressions survive parsing and planning unresolved: the
// planner costs them as unknown equality constants, so an index probe
// or primary-key lookup is chosen while the key's value is still
// unknown (Stmt.Explain renders such keys as '?'). Execution then only
// binds — arguments substitute into copy-on-write shadows of the shared
// plan (bind.go) — and runs (exec.go). The one-shot Query(sql, args...)
// is a thin wrapper over the same path.
//
// A Result's rows are read-only. A statement that selects every column
// of one table in order (SELECT *, with or without a WHERE, probe or
// scan) hands back the stored rows themselves, as the scan or probe
// read them, and builds no row of its own: relation never changes a
// stored row in place (a write installs a new one), so the rows stay a
// consistent snapshot however long the caller keeps them — but a caller
// that wrote into one would write into the table.
//
// Durability is invisible to this whole lifecycle: on a durable store
// (relation.OpenDurable) relation journals each write through the
// write-ahead log, and this engine only ever reads what was applied.
// Reads never touch the log, and no statement changes shape between a
// memory-backed and a durable store.
//
// Every prepared statement lands in the engine's PlanCache, keyed on
// the statement text and fingerprinted by the identity, SCHEMA EPOCH
// (relation.Table.SchemaEpoch) and planned row count of each table the
// plan touches. Row DML never invalidates: plans bake in access-path
// choices, not data, so a cached plan keeps serving across arbitrary
// insert/update/delete churn. A plan replans only when its fingerprint
// genuinely staled — the table was dropped and recreated, an index was
// added in place (the epoch moved), or the live-row count drifted past
// double or below half of what the planner costed with. Held *Stmt
// handles revalidate the same way before every execution, so statements
// survive DDL. The Site facade shares one engine (hence one cache)
// across the SQL facade, FlexRecs and the baseline recommenders, and
// exposes the hit/miss/invalidation counters (CacheStats) at
// /api/stats.
//
// # Planning
//
// The planner splits the WHERE/ON trees into conjuncts and decides, per
// base table, how to read it:
//
//   - pk lookup: equality constants (literals or params) cover the
//     primary key → O(1) Get
//   - index probe: equality over an indexed column → one key against
//     the secondary hash index; when several indexed equalities
//     compete, table statistics (relation.TableStats) pick the most
//     selective
//   - range scan: <, <=, >, >= or BETWEEN over a column with an ordered
//     index (relation.WithOrderedIndex)
//     → an index walk between the bounds, yielding rows in key order;
//     literal bounds are costed by counting index entries, late-bound
//     params by a fixed fraction. The walk runs in either direction:
//     descending (keys desc, slots asc within a key — the stable sort's
//     tie order) when ORDER BY key DESC can be elided, and unbounded
//     ("ordered scan" in Explain) when a full scan is traded purely for
//     its key order (sort elision over a NOT NULL column)
//   - scan: everything else, with the table's pushed-down predicates
//     evaluated inline during the scan
//
// Every single-table predicate, from WHERE or any ON clause, pushes into
// its table's scan. Joins run in the order the statement writes them,
// the FROM table driving, and each picks its algorithm from the
// estimates:
//
//   - index nested loop: the probe input is far smaller than an indexed
//     right scan → left rows arrive in batches whose keys drive
//     LookupMany (or GetEach through a single-column primary key), so
//     only right rows that can match are ever fetched
//   - hash join: remaining equi joins, with the smaller side as build
//   - band join: a join without equi keys whose ON clause holds
//     "right.col BETWEEN lo AND hi" with the column ordered-indexed and
//     both bounds computable from the left row → per-left-row range
//     probes of the ordered index (Explain: probe=range(col)) instead
//     of a full nested-loop pass
//   - nested loop: everything else
//
// Column references are resolved to positions once at prepare time
// (boundRef), so per-row evaluation skips name resolution entirely.
//
// # Execution: the vectorized batch pipeline
//
// Execution is batch-at-a-time (cursor.go): every plan node opens as a
// cursor whose native protocol is NextBatch, moving rows through the
// pipeline in slabs of Engine.batch() rows (256 by default; Explain
// prints the plan's size as "vectorized batch=N"). Per-row dynamic
// dispatch is paid once per slab rather than once per row: cursors
// have no one-row method, and Rows.Next serves from the current slab
// with a slice index.
//
// The batch contract: the slice NextBatch returns — and, for transient
// cursors, the rows it holds — is owned by the cursor and valid only
// until the next NextBatch/Close call; an empty batch means end of
// stream. Combined (join) and projected rows carve out of per-cursor
// arenas — one slab allocation per couple thousand rows instead of one
// per row — which run in carve-only retained mode when the consumer
// materializes, and recycle their slabs (zero steady-state allocation)
// when the consumer is the streaming Rows path, which never retains
// rows past the current batch. Scans, join outputs and arenas start
// small and grow geometrically toward the batch — from the execution
// row goal when the statement has one (see LIMIT below) — so a consumer
// that stops after a handful of rows never pays for a full slab of rows
// it will not read.
//
// Nothing below a hash-join build side materializes, so a wide join
// consumed through Rows — or cut short by a streaming LIMIT or an
// early Close — never pays for rows nobody reads. Aggregation and
// un-elided ORDER BY drain the pipeline first, since they need the full
// result anyway — except an aggregate with no GROUP BY, ORDER BY, LIMIT
// or residual filter over one index key (the top-rated feed's patch
// statement), which folds each probed row into its aggregates as the
// table hands it over (foldProbe over Table.Each), in the slot order
// the drained path reads, and so allocates the same however many rows
// the key matches. WithBatchSize returns a handle whose
// pipelines use a different slab size — primarily a testing knob: the
// differential fuzz harness replays its corpus at batch sizes 1, 7 and
// 256 to prove slab boundaries never change results.
//
// Every join cursor emits left-major row order — identical to the
// materialized executor it replaced — which makes two things true: the
// planning engine returns byte-identical results to ForceScan (parity
// tests, plus the differential query-fuzz harness in fuzz_test.go,
// which generates hundreds of random SELECTs per test run and asserts
// planner ≡ ForceScan for every plan shape the planner picks), and a
// driver index walk's key order survives to the output. The planner
// exploits the latter to ELIDE an ORDER BY whose single key — ascending
// OR descending — is the driver's ordered column (Explain shows "order
// by … elided"); elided-order queries stream through Rows like
// unordered ones.
//
// # LIMIT: the window contract and the two row goals
//
// A statement STREAMS when nothing blocking stands between its scan and
// its LIMIT: no aggregate, and an ORDER BY that is absent or elided.
// For a streaming statement the LIMIT is a pipeline stage — one
// limitCursor on top of the plan, built from one evaluation of the
// LIMIT clause — under BOTH entry points: Stmt.Query (and so every
// shard leg) as well as the QueryRows iterator stop pulling batches at
// the last row wanted, so the scan and every join below read about the
// rows wanted instead of the table, and the result slice is sized to
// the limit. A statement that does not stream needs its whole input
// before its first output row; it executes exactly as it would without
// the LIMIT and keeps the first rows of the finished result. So does
// the key-bounded probe-only plan, which has no pipeline to stop.
// EXPLAIN ANALYZE's footer says "(stopped at limit)" when the LIMIT, not
// the end of the input, ended the execution. Either way `… LIMIT k` is
// the first k rows of the statement without one, ties included
// (window_test.go holds every entry point to it).
//
// A streaming LIMIT sets two row goals, one per phase.
//
// The PLAN GOAL comes from the statement text and decides join
// algorithms: the pipeline will be closed after limit rows, so each
// join's left input is costed at that many rows — which turns "hash all
// of Courses to emit ten rows" into an index nested loop through its
// primary key. It is the literal's value, and ONE EXECUTOR BATCH (256)
// for a '?' (rowGoalParam): plans are cached by statement text and bake
// in access paths, never data, so it cannot depend on the value an
// execution binds. It may change a hash join into an INLJ and nothing
// else — not the driver's access path, a band join, or order elision,
// all decided before it — and both algorithms emit left-major order with
// right matches in slot order, so the limited statement returns exactly
// the prefix of the unlimited one.
//
// The EXECUTION GOAL is the value the LIMIT has at execution, literal or
// bound, and decides buffer sizes, never the plan: execSelect and
// rowsEntry pass it to openPlan as an argument (no Engine field, so a
// cached plan and a shared engine stay goal-free). A goal below 32
// sizes three first buffers at the goal (capped at the engine's batch):
// the driver scan's first storage fetch, each join's first emitted batch
// (emitRamp) and the streaming projection's output arena; an INLJ
// carves exactly the rows each batch matches, goal or none. Every later
// fetch, emit and slab grows from there
// exactly as without a goal, so a `LIMIT ?` bound to 10 fetches, joins
// and builds ten rows, not 32 and an 8 + 32-row arena, while a join that
// drops most driver rows still grows its fetches ×4 toward the batch.
// An arena's first slab is larger than the default 8 rows only for a
// goal of 9 to 31 on a statement that returns 8 rows or fewer. A goal of
// 32 or more would not shrink the fetch or the emit, so it sizes nothing,
// and a build-left hash join, which drains every stage beneath it before
// it emits, leaves those stages unsized. A statement without a LIMIT, or
// one that does not stream, gets no goal.
//
// Explain returns the chosen plan as text without executing; the
// FlexRecs engine surfaces it beneath each compiled statement, and the
// HTTP layer exposes it at /api/explain/{strategy}. ForceScan returns a
// derived engine handle using the naive strategy — full scans, nested
// loops, no pushdown, no caching — which parity tests run beside the
// planning engine; handles are immutable, so the two never race.
//
// # Reading an EXPLAIN ANALYZE tree
//
// Stmt.ExplainAnalyze (and QueryAnalyze, which also returns the
// result) executes the statement with per-cursor instrumentation and
// renders the same tree Explain prints, each operator line annotated
// with what actually happened:
//
//	(actual rows=N batches=B time=D)
//
// rows is how many rows the operator EMITTED (not how many it read —
// compare against the planner's "~est of total rows" estimate on the
// same line to spot misestimates), batches is how many slabs those
// rows left in, and time is INCLUSIVE wall time: the operator plus
// everything below it, so a parent is never faster than its children
// and the root's time is the statement's execution time. An operator
// the execution never opened — the build side of a join whose driver
// was empty, a branch cut off by LIMIT — reads "(actual: never
// executed)". A trailing footer sums the statement up, noting when a
// LIMIT ended the pipeline before the input ran out:
//
//	analyzed: N rows out, total D [(stopped at limit)]
//
// Two annotations depart from the one-line-one-cursor rule. Index
// nested loop and band joins probe their right side per driver batch
// rather than opening it as a cursor, so the RIGHT line's rows count
// STORAGE PROBES RETURNED (rows fetched from the index, before the ON
// residual), and the join line itself carries "loops=N" — the number
// of driver batches that triggered a probe round. A filter line's
// rows are post-predicate, so driver-line rows minus filter-line rows
// is the filter's kill count.
//
// Layers above decorate the same trees rather than reinvent them: the
// shard coordinator's ExplainAnalyze prefixes a route report (single
// shard vs fan-out, per-shard rows and time, merge kind, and the
// short-circuit line showing the LIMIT each shard stops at) above a
// representative shard's annotated plan, and the
// FlexRecs engine's RunAnalyze nests each compiled statement's
// annotated tree under its workflow step, tagging materialize steps
// with hit/stale/miss and the served view's age. Caveat: times are
// wall clock on whatever the scheduler gave the query — parallel
// shard fan-out can report per-shard times that sum to more than the
// route total, and a loaded box inflates everything. Compare rows
// across runs, times only within one.
//
// # View fingerprints vs plan-cache fingerprints
//
// Two caches above the storage layer key on the same per-table
// machinery — relation.Table's pointer identity, SchemaEpoch and
// mutation Version — but at different strictness, because they bake in
// different things:
//
//   - the PLAN cache here fingerprints (identity, SchemaEpoch, costed
//     row count). Plans bake in ACCESS PATHS, never data, so row DML
//     leaves them correct: a cached plan survives arbitrary
//     insert/update/delete churn and replans only on DDL (the epoch
//     moved, or the table was replaced) or when live-row statistics
//     drift past the replan threshold (Table.PlanFingerprint).
//   - internal/matview's view registry fingerprints (identity,
//     SchemaEpoch, Version) — the FULL mutation counter
//     (Table.ViewFingerprint). Materialized views bake in DATA, so any
//     row DML stales them; epoch moves invalidate outright (a view
//     must never serve stale-SCHEMA rows), while version moves merely
//     stale the data, which a maintained view catches up from its
//     change log instead of rebuilding.
//
// The split keeps the hot path honest: one row update leaves every cached
// plan untouched but marks the rating views stale; one AddOrderedIndex
// replans affected statements AND hard-invalidates dependent views.
//
// # Transactions and visibility
//
// Every statement reads the committed rows of internal/relation, which
// holds one version of each row: each access path (pk and index probes,
// range and desc cursors, full scans, the inner sides of
// index-nested-loop and band joins) reads a batch at a time under the
// table's read lock. Transactions are relation.Tx (DB.Begin), the one
// transaction API — core.EnrollCommentRate is its client. A Tx buffers
// its writes outside the tables, so no statement of this engine sees
// them until Commit applies them, under the write lock of every table
// they touch; after Rollback they never existed. The engine needs no
// transaction awareness for that.
//
// A statement reading one table sees a commit's rows in it all or
// none. A statement joining two tables takes their locks one batch at
// a time, so like any two autocommit reads it may see a commit's row in
// one table and not yet in the other.
//
// Plan fingerprints (SchemaEpoch + row-count drift) and view
// fingerprints (the full mutation version) likewise read committed
// state only, so a transaction's buffered writes neither replan a
// statement nor stale a materialized view before Commit.
//
// # Cross-shard order contracts
//
// The scatter-gather layer (internal/shard) runs one prepared Stmt of
// this engine per shard and leans on two contracts this executor
// already keeps:
//
//   - KEY ORDER IS REAL: a statement with ORDER BY yields rows in
//     exactly that key order (whether sorted or elided into an ordered
//     index walk), so the coordinator can merge N per-shard streams
//     with a plain heads-compare — no re-sort — provided every ORDER
//     BY key is an output column it can read back. The coordinator's
//     tie order is shard arrival, not this engine's stable slot order;
//     queries needing bitwise-reproducible cross-shard order must pin
//     a total order (end the ORDER BY in a key unique per row).
//   - LIMIT IS A PUSHDOWN: every shard runs the statement as written,
//     so each returns at most its first k rows (any shard might hold
//     all of the global first k), and the coordinator keeps the first
//     k after the merge (Stmt.Limit reads k under the arguments). A leg
//     whose statement streams stops its own pipeline at that row (the
//     window contract above); it does not drain and trim.
//
// Aggregates never fan out, and neither do expression-valued ORDER BY
// keys: the coordinator has no merge for them, so they are refused at
// fan-out and execute only when a shard-key predicate pins the
// statement to one shard.
package sqlmini
