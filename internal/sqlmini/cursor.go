package sqlmini

import (
	"fmt"
	"sort"
	"time"

	"courserank/internal/relation"
)

// This file is the batch-at-a-time (vectorized) executor: every plan
// node opens as a cursor, and rows move through the pipeline in slabs
// of Engine.batch() rows — NextBatch is the native protocol, and
// Rows.Next in stmt.go is a thin drain over the current slab. Nothing
// below a hash-join build side materializes, so wide joins consumed a
// batch at a time (or cut short by LIMIT or an early Close) never pay
// for the rows nobody reads.
//
// Batch contract: the slice NextBatch returns — and, for transient
// cursors, the rows it holds — is owned by the cursor and valid only
// until the next NextBatch/Close call on that cursor. An empty batch
// means end of stream. NextBatch is the only way to consume a cursor;
// the join cursors build theirs from an unexported one-row stepper
// (next) with direct, non-interface calls, so dynamic dispatch is paid
// once per batch rather than once per row.
//
// Allocation discipline: combined (join) rows carve out of a rowArena —
// one slab allocation per arenaSlabRows rows instead of one per row.
// Pipelines feeding drainCursor (the materialized path) run their
// arenas in carve-only retained mode, so drained rows stay valid
// forever; the streaming Rows path marks the pipeline transient
// (markTransient), letting each cursor reset its arena at its safe
// reuse point and serve steady-state with zero per-row allocations.
// Storage scans hand out references to stored rows (the relation layer
// never mutates a stored row in place), which are valid indefinitely.
//
// Ordering contract: every join cursor emits left-major row order, with
// right matches per left row in right slot order — exactly the order
// the materialized executor produced — so forced-scan parity holds row
// for row, and a driver range scan's key order survives to the output
// (the basis of ORDER BY elision).

// defaultBatch is the pipeline's slab size when the engine does not
// override it (Engine.WithBatchSize): the ceiling the ramps below grow
// to — how many rows a storage cursor fetches per lock acquisition and
// how many rows a join emits per dispatch once a pipeline has proven
// long. No buffer starts at it.
const defaultBatch = 256

// Buffers start small and grow geometrically toward the batch size:
// point lookups and tiny scans (the common case in probe-heavy
// workloads) must not pay kilobytes of slab allocation per cursor open
// just because wide scans want 256-row slabs. A streaming statement's
// execution row goal (its bound LIMIT, see firstSlab) below
// scanBatchMin starts the driver's fetch, each join's emit and the
// projection arena at the goal instead; every later fetch, emit and
// slab grows from there as it does without one. An INLJ needs no goal:
// it counts each batch's matches and carves exactly those rows.
const (
	arenaSlabMin  = 8    // rows in an arena's first slab without a goal
	arenaSlabRows = 2048 // rows per slab once an arena has proven hot
	scanBatchMin  = 32   // rows in a scan's first fetch and a join's first emit without a goal
)

// firstSlab is the size an execution row goal gives a pipeline's first
// storage fetch, join emit and arena slab: the goal, capped at the
// engine's batch. It returns 0, "start at the default", without a goal
// (goal <= 0) and for a goal of scanBatchMin or more, which would not
// shrink the fetch or the emit and would only enlarge an arena's first
// slab past arenaSlabMin. For a goal between arenaSlabMin and
// scanBatchMin the arena's first slab is larger than the default only
// for a statement that returns arenaSlabMin rows or fewer; one that
// returns more carves fewer rows than the default's 8 + 32.
func (e *Engine) firstSlab(goal int64) int {
	if goal <= 0 || goal >= scanBatchMin {
		return 0
	}
	return int(min(goal, int64(e.batch())))
}

// cursor is the executor's pull interface. NextBatch returns the next
// slab of rows under the batch contract above. After an error or Close
// the cursor stays exhausted.
type cursor interface {
	NextBatch() ([]relation.Row, error)
	Close()
}

// transientMarker is implemented by cursors that can recycle their
// arena slabs under the batch contract. openPlan marks the pipeline
// transient only when the consumer is the streaming Rows path, which
// never retains rows past the current batch.
type transientMarker interface{ markTransient() }

func markTransientCursor(c cursor) {
	if tm, ok := c.(transientMarker); ok {
		tm.markTransient()
	}
}

// rowArena carves fixed-width rows out of large value slabs, replacing
// one allocation per combined/projected row with one per slab. Slabs
// grow ×4 from the first (rows, arenaSlabMin when zero) up to
// arenaSlabRows. Carved rows use full-capacity slicing, so appending to
// one can never bleed into a neighbor. Retained mode (reset never
// called) keeps every carved row valid for the arena's lifetime; a
// transient owner calls reset at its safe reuse point — after which
// previously carved rows alias new ones, exactly the invalidation the
// batch contract already declares.
type rowArena struct {
	slab []relation.Value
	off  int
	rows int // rows in the next fresh slab; zero means arenaSlabMin
}

// alloc carves one n-wide row. The caller must write every cell: after
// a reset the slab holds stale values.
func (a *rowArena) alloc(n int) relation.Row {
	if a.off+n > len(a.slab) {
		if a.rows == 0 {
			a.rows = arenaSlabMin
		}
		a.slab = make([]relation.Value, a.rows*n)
		a.off = 0
		a.rows = min(4*a.rows, arenaSlabRows)
	}
	row := a.slab[a.off : a.off+n : a.off+n]
	a.off += n
	return row
}

// reset rewinds the current slab for reuse. Only transient owners call
// it, at points where no previously carved row can still be live.
func (a *rowArena) reset() { a.off = 0 }

// fit makes room for n more cells: an owner that knows how many rows it
// is about to carve replaces a slab too small for them with one of
// exactly n cells. Rows carved before stay valid in the slab they came
// from.
func (a *rowArena) fit(n int) {
	if a.off+n > len(a.slab) {
		a.slab, a.off = make([]relation.Value, n), 0
	}
}

// combine carves and fills a joined row: left cells, then right cells.
func (a *rowArena) combine(l, r relation.Row) relation.Row {
	row := a.alloc(len(l) + len(r))
	copy(row, l)
	copy(row[len(l):], r)
	return row
}

// emitRamp sizes a join cursor's output batches: the first batch holds
// n rows — the execution row goal's firstSlab when the statement has
// one, else scanBatchMin — so an early-LIMIT consumer never pays for
// joined rows it will not read, and every filled batch doubles the next
// one toward the engine batch size.
type emitRamp struct{ n int }

func (r *emitRamp) next(max int) int {
	if r.n == 0 {
		r.n = scanBatchMin
	}
	if r.n > max {
		r.n = max
	}
	return r.n
}

func (r *emitRamp) observe(emitted, max int) {
	// Doubling (not quadrupling) keeps the worst-case overshoot for an
	// early-closing consumer under ~2x the rows it read, while a
	// full drain still reaches max within a handful of batches.
	if emitted >= r.n && r.n < max {
		r.n *= 2
	}
}

// leftDrain pulls a cursor's rows batch-wise but serves them one at a
// time through a direct (non-interface) method call — the join cursors'
// left inputs go through it, so the per-row cost of walking the left
// pipeline is one slice index, not a dynamic dispatch.
type leftDrain struct {
	c     cursor
	batch []relation.Row
	i     int
	done  bool
}

func (d *leftDrain) next() (relation.Row, error) {
	for d.i >= len(d.batch) {
		if d.done {
			return nil, nil
		}
		b, err := d.c.NextBatch()
		if err != nil {
			return nil, err
		}
		if len(b) == 0 {
			d.done = true
			return nil, nil
		}
		d.batch, d.i = b, 0
	}
	r := d.batch[d.i]
	d.i++
	return r, nil
}

// passFilters evaluates bound conjuncts against one row.
func passFilters(filters []Expr, row relation.Row, rs *rowset) (bool, error) {
	for _, f := range filters {
		v, err := evalScalar(f, row, rs)
		if err != nil {
			return false, err
		}
		if !relation.Truthy(v) {
			return false, nil
		}
	}
	return true, nil
}

// sliceCursor iterates a materialized row list (probe results, sorted
// fallbacks); its NextBatch hands the remainder out as one slab.
type sliceCursor struct {
	rows []relation.Row
	pos  int
}

func (c *sliceCursor) NextBatch() ([]relation.Row, error) {
	if c.pos >= len(c.rows) {
		return nil, nil
	}
	out := c.rows[c.pos:]
	c.pos = len(c.rows)
	return out, nil
}

func (c *sliceCursor) Close() { c.rows, c.pos = nil, 0 }

// batchSource is the storage layer's pull shape: both the full-table
// ScanCursor and the ordered-index RangeCursor fill a reference batch
// under one lock acquisition.
type batchSource interface {
	NextBatch(dst []relation.Row) int
}

// rangeCheck re-applies range bounds on the degraded fallback scan — a
// concrete type bound once at cursor open where a closure used to be
// allocated, with the bound ends resolved before the first row.
type rangeCheck struct {
	col    int
	lo, hi *relation.RangeBound
}

func (rc *rangeCheck) pass(row relation.Row) bool {
	v := row[rc.col]
	if v == nil {
		return false // mirrors the index, which skips NULL keys
	}
	if rc.lo != nil {
		c := relation.Compare(v, rc.lo.Value)
		if c < 0 || (c == 0 && !rc.lo.Inclusive) {
			return false
		}
	}
	if rc.hi != nil {
		c := relation.Compare(v, rc.hi.Value)
		if c > 0 || (c == 0 && !rc.hi.Inclusive) {
			return false
		}
	}
	return true
}

// rowColSorter sorts rows by one column through a concrete
// sort.Interface, replacing the per-call comparator closures the
// degraded fallbacks used to hand sort.SliceStable. sort.Stable keeps
// the slot-ascending tie order the index walk would have produced.
type rowColSorter struct {
	rows []relation.Row
	col  int
	desc bool
}

func (s *rowColSorter) Len() int      { return len(s.rows) }
func (s *rowColSorter) Swap(i, j int) { s.rows[i], s.rows[j] = s.rows[j], s.rows[i] }
func (s *rowColSorter) Less(i, j int) bool {
	c := relation.Compare(s.rows[i][s.col], s.rows[j][s.col])
	if s.desc {
		return c > 0
	}
	return c < 0
}

// batchScanCursor streams rows from a storage batch source (full scan
// in slot order, or range scan in key order): refill pulls one
// reference slab under the storage lock, applies the degraded-path
// bounds re-check and the pushed filters across the whole slab
// (compacting survivors in place), and NextBatch then hands out the
// filtered buffer. Emitted rows are references to stored rows
// and stay valid indefinitely; the batch slice itself is reused on
// refill, per the batch contract.
type batchScanCursor struct {
	src      batchSource
	rs       *rowset
	filter   []Expr
	check    *rangeCheck // optional degraded-path bounds re-check
	batchN   int
	first    int // rows in the first storage fetch; zero means scanBatchMin
	buf      []relation.Row
	pos, n   int
	lastFull bool // last storage fetch filled buf: grow it before the next
	done     bool
}

func (c *batchScanCursor) refill() error {
	max := c.batchN
	if max <= 0 {
		max = defaultBatch
	}
	for {
		if c.buf == nil {
			n := c.first
			if n <= 0 {
				n = scanBatchMin
			}
			c.buf = make([]relation.Row, min(n, max))
		} else if c.lastFull && len(c.buf) < max {
			// The last fetch came back full — whether its rows went out or
			// the filters emptied it — so the table is big enough to
			// deserve bigger slabs, up to the engine's batch size.
			c.buf = make([]relation.Row, min(4*len(c.buf), max))
		}
		n := c.src.NextBatch(c.buf)
		c.lastFull = n == len(c.buf)
		if n == 0 {
			c.done = true
			c.pos, c.n = 0, 0
			return nil
		}
		rows := c.buf[:n]
		if c.check != nil {
			kept := c.buf[:0]
			for _, row := range rows {
				if c.check.pass(row) {
					kept = append(kept, row)
				}
			}
			rows = kept
		}
		if len(c.filter) > 0 {
			kept, err := filterRows(c.filter, rows, c.buf[:0], c.rs)
			if err != nil {
				return err
			}
			rows = kept
		}
		if len(rows) > 0 {
			c.pos, c.n = 0, len(rows)
			return nil
		}
	}
}

func (c *batchScanCursor) NextBatch() ([]relation.Row, error) {
	for c.pos >= c.n {
		if c.done {
			return nil, nil
		}
		if err := c.refill(); err != nil {
			return nil, err
		}
	}
	out := c.buf[c.pos:c.n]
	c.pos = c.n
	return out, nil
}

func (c *batchScanCursor) Close() { c.done, c.n, c.pos = true, 0, 0 }

// evalRangeBounds evaluates a range scan's bound expressions at cursor
// open. A bound that evaluates to NULL matches nothing ("x >= NULL" is
// never true), reported via empty.
func evalRangeBounds(s *scanNode, rs *rowset) (lo, hi *relation.RangeBound, empty bool, err error) {
	if s.rangeLo != nil {
		v, err := evalScalar(s.rangeLo, nil, rs)
		if err != nil {
			return nil, nil, false, err
		}
		if v == nil {
			return nil, nil, true, nil
		}
		lo = &relation.RangeBound{Value: v, Inclusive: s.loInc}
	}
	if s.rangeHi != nil {
		v, err := evalScalar(s.rangeHi, nil, rs)
		if err != nil {
			return nil, nil, false, err
		}
		if v == nil {
			return nil, nil, true, nil
		}
		hi = &relation.RangeBound{Value: v, Inclusive: s.hiInc}
	}
	return lo, hi, false, nil
}

// probeRows materializes a pk-lookup or index-probe access: the result
// is bounded by the probe keys, so nothing is gained by streaming it.
// Fetched rows are the stored rows themselves (Get, LookupMany), which
// are read-only — the projection stages copy cells out before anything
// escapes the engine. Pushed residual filters apply before returning.
func probeRows(s *scanNode, t *relation.Table, rs *rowset) ([]relation.Row, error) {
	keys := make([]relation.Value, len(s.probeKeys))
	for i, ke := range s.probeKeys {
		v, err := evalScalar(ke, nil, rs)
		if err != nil {
			return nil, err
		}
		if v == nil {
			return nil, nil // "= NULL" matches no row
		}
		keys[i] = v
	}
	var rows []relation.Row
	if s.access == accessIndex {
		rows = t.LookupMany(s.probeCol, keys)
	} else if row, found := t.Get(keys...); found {
		rows = append(rows, row)
	}
	if len(s.filter) > 0 {
		kept, err := filterRows(s.filter, rows, rows[:0], rs)
		if err != nil {
			return nil, err
		}
		rows = kept
	}
	return rows, nil
}

// openScan opens one planned base-table access as a cursor. Probe paths
// (pk lookup, index probe) materialize their small key-bounded results;
// scans and range scans stream in batches. keyOrder demands the output
// come back in the range column's key order even on the degraded path —
// set when the plan elided an ORDER BY on the strength of this scan.
// first sizes a streamed scan's first storage fetch (firstSlab; zero for
// the default). Scanned rows are retained by reference: the relation
// store never mutates a stored row in place, so references stay
// consistent snapshots. Under EXPLAIN ANALYZE (one nil check otherwise) the
// returned cursor is wrapped with per-operator instrumentation.
func (e *Engine) openScan(s *scanNode, keyOrder bool, first int) (cursor, error) {
	if e.an == nil {
		return e.openScanRaw(s, keyOrder, first)
	}
	st := e.an.nodeStat(s)
	t0 := time.Now()
	cur, err := e.openScanRaw(s, keyOrder, first)
	st.ns += int64(time.Since(t0)) // eager work: probes, degraded-path sorts
	st.loops++
	if err != nil {
		return nil, err
	}
	return &instrCursor{in: cur, st: st}, nil
}

func (e *Engine) openScanRaw(s *scanNode, keyOrder bool, first int) (cursor, error) {
	t, ok := e.db.Table(s.ref.Name)
	if !ok {
		return nil, fmt.Errorf("sqlmini: unknown table %q", s.ref.Name)
	}
	rs := &rowset{cols: s.cols}
	switch s.access {
	case accessPK, accessIndex:
		rows, err := probeRows(s, t, rs)
		if err != nil {
			return nil, err
		}
		return &sliceCursor{rows: rows}, nil
	case accessRange:
		lo, hi, empty, err := evalRangeBounds(s, rs)
		if err != nil {
			return nil, err
		}
		if empty {
			return &sliceCursor{}, nil
		}
		if s.rangeDesc {
			if dc, ok := t.NewDescCursor(s.rangeCol, lo, hi); ok {
				return &batchScanCursor{src: dc, rs: rs, filter: s.filter, batchN: e.batch(), first: first}, nil
			}
		} else if rc, ok := t.NewRangeCursor(s.rangeCol, lo, hi); ok {
			return &batchScanCursor{src: rc, rs: rs, filter: s.filter, batchN: e.batch(), first: first}, nil
		}
		// The ordered index vanished beneath a replaced table: degrade
		// to a checked full scan so results stay correct. The plan is
		// about to be invalidated, but THIS execution must still honor
		// an elided ORDER BY, so keyOrder sorts the fallback — in the
		// walk's direction, with the stable sort reproducing its
		// slot-ascending tie order.
		ci, err := rs.resolve("", s.rangeCol)
		if err != nil {
			return nil, err
		}
		check := &rangeCheck{col: ci, lo: lo, hi: hi}
		cur := cursor(&batchScanCursor{src: t.NewScanCursor(), rs: rs, filter: s.filter, check: check, batchN: e.batch(), first: first})
		if keyOrder {
			rows, err := drainCursor(cur, int(s.est))
			if err != nil {
				return nil, err
			}
			sort.Stable(&rowColSorter{rows: rows, col: ci, desc: s.rangeDesc})
			cur = &sliceCursor{rows: rows}
		}
		return cur, nil
	default:
		return &batchScanCursor{src: t.NewScanCursor(), rs: rs, filter: s.filter, batchN: e.batch(), first: first}, nil
	}
}

// passResidual applies a join's residual conjuncts to one combined row.
func passResidual(jn *joinNode, row relation.Row, combined *rowset) (bool, error) {
	if len(jn.residual) == 0 {
		return true, nil
	}
	return passFilters(jn.residual, row, combined)
}

// hashJoinCursor is the build=right hash join: the right side drains
// into hash buckets when the first row is pulled, then the left side
// streams through, probing per row. Memory is bounded by the build
// side; the (usually larger) probe side never materializes. The bucket
// rows are storage references; only the combined output rows carve from
// the cursor's arena, reset per output batch when transient.
type hashJoinCursor struct {
	e        *Engine
	left     cursor
	jn       *joinNode
	combined *rowset

	started   bool
	closed    bool
	transient bool
	ldrain    leftDrain
	arena     rowArena
	nb        []relation.Row
	ramp      emitRamp
	buckets   map[string][]relation.Row
	keyBuf    []byte
	cur       relation.Row
	bucket    []relation.Row
	bi        int
}

func (c *hashJoinCursor) markTransient() {
	c.transient = true
	markTransientCursor(c.left)
}

func (c *hashJoinCursor) start() error {
	rc, err := c.e.openScan(c.jn.scan, false, 0)
	if err != nil {
		return err
	}
	defer rc.Close()
	c.buckets = make(map[string][]relation.Row)
	var buf []byte
	for {
		batch, err := rc.NextBatch()
		if err != nil {
			return err
		}
		if len(batch) == 0 {
			break
		}
		for _, r := range batch {
			k, ok := rowKey(r, c.jn.rightKeys, buf)
			buf = k
			if ok {
				c.buckets[string(k)] = append(c.buckets[string(k)], r)
			}
		}
	}
	c.started = true
	return nil
}

func (c *hashJoinCursor) next() (relation.Row, error) {
	if c.closed {
		return nil, nil
	}
	if !c.started {
		if err := c.start(); err != nil {
			return nil, err
		}
	}
	for {
		for c.bi < len(c.bucket) {
			r := c.bucket[c.bi]
			c.bi++
			row := c.arena.combine(c.cur, r)
			ok, err := passResidual(c.jn, row, c.combined)
			if err != nil {
				return nil, err
			}
			if ok {
				return row, nil
			}
		}
		l, err := c.ldrain.next()
		if err != nil {
			return nil, err
		}
		if l == nil {
			return nil, nil
		}
		c.cur, c.bi, c.bucket = l, 0, nil
		k, ok := rowKey(l, c.jn.leftKeys, c.keyBuf)
		c.keyBuf = k
		if ok {
			c.bucket = c.buckets[string(k)]
		}
	}
}

func (c *hashJoinCursor) NextBatch() ([]relation.Row, error) {
	if c.transient {
		c.arena.reset()
	}
	n := c.ramp.next(c.e.batch())
	out := c.nb[:0]
	for len(out) < n {
		row, err := c.next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		out = append(out, row)
	}
	c.ramp.observe(len(out), c.e.batch())
	c.nb = out
	return out, nil
}

func (c *hashJoinCursor) Close() {
	c.closed = true
	c.left.Close()
	c.buckets, c.bucket, c.cur = nil, nil, nil
}

// buildLeftJoinCursor hashes the (smaller) left side instead, streaming
// the right side through it once and buffering matches per left row to
// keep left-major output order.
type buildLeftJoinCursor struct {
	e        *Engine
	left     cursor
	jn       *joinNode
	combined *rowset

	started bool
	closed  bool
	arena   rowArena
	nb      []relation.Row
	ramp    emitRamp
	matches [][]relation.Row // combined rows per left row
	li, mi  int
}

// markTransient is absorbed without forwarding: the cursor buffers
// every left row and all combined matches across batch boundaries, so
// its subtree must stay retained and its own arena is carve-only by
// construction.
func (c *buildLeftJoinCursor) markTransient() {}

func (c *buildLeftJoinCursor) start() error {
	var leftRows []relation.Row
	for {
		batch, err := c.left.NextBatch()
		if err != nil {
			return err
		}
		if len(batch) == 0 {
			break
		}
		leftRows = append(leftRows, batch...)
	}
	buckets := make(map[string][]int, len(leftRows))
	var buf []byte
	for i, l := range leftRows {
		k, ok := rowKey(l, c.jn.leftKeys, buf)
		buf = k
		if ok {
			buckets[string(k)] = append(buckets[string(k)], i)
		}
	}
	c.matches = make([][]relation.Row, len(leftRows))
	rc, err := c.e.openScan(c.jn.scan, false, 0)
	if err != nil {
		return err
	}
	defer rc.Close()
	var rbuf []byte
	for {
		batch, err := rc.NextBatch()
		if err != nil {
			return err
		}
		if len(batch) == 0 {
			break
		}
		for _, r := range batch {
			k, ok := rowKey(r, c.jn.rightKeys, rbuf)
			rbuf = k
			if !ok {
				continue
			}
			for _, li := range buckets[string(k)] {
				row := c.arena.combine(leftRows[li], r)
				ok, err := passResidual(c.jn, row, c.combined)
				if err != nil {
					return err
				}
				if ok {
					c.matches[li] = append(c.matches[li], row)
				}
			}
		}
	}
	c.started = true
	return nil
}

func (c *buildLeftJoinCursor) next() (relation.Row, error) {
	if c.closed {
		return nil, nil
	}
	if !c.started {
		if err := c.start(); err != nil {
			return nil, err
		}
	}
	for c.li < len(c.matches) {
		if c.mi < len(c.matches[c.li]) {
			row := c.matches[c.li][c.mi]
			c.mi++
			return row, nil
		}
		c.li, c.mi = c.li+1, 0
	}
	return nil, nil
}

func (c *buildLeftJoinCursor) NextBatch() ([]relation.Row, error) {
	n := c.ramp.next(c.e.batch())
	out := c.nb[:0]
	for len(out) < n {
		row, err := c.next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		out = append(out, row)
	}
	c.ramp.observe(len(out), c.e.batch())
	c.nb = out
	return out, nil
}

func (c *buildLeftJoinCursor) Close() {
	c.closed = true
	c.left.Close()
	c.matches = nil
}

// inljCursor is the index nested-loop join: left rows arrive one input
// batch per dispatch, their join keys drive one batched index probe
// (LookupMany, or GetEach through a single-column primary key),
// and only the right rows that can possibly match are ever fetched.
// Output is left-major with right matches in slot order — identical to
// the hash join — and memory is bounded by one batch. The batch's
// matches are counted before any row is combined, so the combined rows
// carve from one arena slab of exactly that many rows; fillBatch is the
// transient reset point, reached only when the queue has fully drained,
// and a transient cursor's next batch reuses the slab when it is big
// enough.
type inljCursor struct {
	e        *Engine
	left     cursor
	jn       *joinNode
	combined *rowset
	rightRS  *rowset

	transient bool
	arena     rowArena
	queue     []relation.Row
	qi        int
	leftDone  bool
	closed    bool
	keys      []relation.Value

	// Through a primary key, found[i] is left row i's one match, nil for
	// none; through a secondary index, buckets holds the fetched rows by
	// full join key, and seen the distinct probe keys.
	found   []relation.Row
	buckets map[string][]relation.Row
	seen    map[string]bool
	lbuf    []byte
	rbuf    []byte

	// EXPLAIN ANALYZE hooks (nil when not analyzing): probeStat takes
	// the right-side fetches — rows and wall time of the batched index
	// probes, since INLJ never opens the right side through openScan —
	// and loopStat counts probe rounds on the join's own line.
	probeStat *opStat
	loopStat  *opStat
}

func (c *inljCursor) markTransient() {
	c.transient = true
	markTransientCursor(c.left)
}

func (c *inljCursor) fillBatch() error {
	c.queue, c.qi = c.queue[:0], 0
	if c.transient {
		// Safe reset point: the queue — the only holder of this arena's
		// rows — was emptied above, and the caller's previous batch is
		// invalidated by contract.
		c.arena.reset()
	}
	batch, err := c.left.NextBatch()
	if err != nil {
		return err
	}
	if len(batch) == 0 {
		c.leftDone = true
		return nil
	}
	t, ok := c.e.db.Table(c.jn.scan.ref.Name)
	if !ok {
		return fmt.Errorf("sqlmini: unknown table %q", c.jn.scan.ref.Name)
	}
	if c.loopStat != nil {
		c.loopStat.loops++
	}
	if cap(c.keys) < len(batch) {
		c.keys = make([]relation.Value, 0, len(batch))
	}
	var t0 time.Time
	if c.probeStat != nil {
		t0 = time.Now()
	}
	var (
		fetched int
		probed  bool
	)
	if c.jn.inljPK {
		fetched, probed, err = c.probePK(t, batch)
	} else {
		fetched, probed, err = c.probeIndex(t, batch)
	}
	if err != nil {
		return err
	}
	if c.probeStat != nil && probed {
		c.probeStat.ns += int64(time.Since(t0))
		c.probeStat.rows += int64(fetched)
		c.probeStat.batches++
	}
	n := 0
	for i, l := range batch {
		n += len(c.matches(i, l))
	}
	if n == 0 {
		return nil
	}
	c.arena.fit(n * len(c.combined.cols))
	if cap(c.queue) < n {
		c.queue = make([]relation.Row, 0, n)
	}
	for i, l := range batch {
		for _, r := range c.matches(i, l) {
			row := c.arena.combine(l, r)
			ok, err := passResidual(c.jn, row, c.combined)
			if err != nil {
				return err
			}
			if ok {
				c.queue = append(c.queue, row)
			}
		}
	}
	return nil
}

// probePK resolves each left row's probe key through the primary key,
// at most one right row a key, and keeps the row in found when it
// passes the right side's pushed filters and matches the full join key.
// It returns whether any key was probed — NULL keys never join — and,
// under EXPLAIN ANALYZE, how many distinct rows the probe fetched.
func (c *inljCursor) probePK(t *relation.Table, batch []relation.Row) (fetched int, probed bool, err error) {
	probePos := c.jn.leftKeys[c.jn.inljKeyIdx]
	keys := c.keys[:0]
	for _, l := range batch {
		keys = append(keys, l[probePos]) // found lines up with the batch
		probed = probed || l[probePos] != nil
	}
	c.keys = keys
	if cap(c.found) < len(keys) {
		c.found = make([]relation.Row, 0, len(keys))
	}
	c.found = t.GetEach(keys, c.found[:0])
	if c.probeStat != nil {
		fetched = distinctRows(c.found)
	}
	for i, r := range c.found {
		if r == nil {
			continue
		}
		ok, err := passFilters(c.jn.scan.filter, r, c.rightRS)
		if err != nil {
			return 0, false, err
		}
		if ok {
			var lk, rk []byte
			lk, ok = rowKey(batch[i], c.jn.leftKeys, c.lbuf)
			rk, _ = rowKey(r, c.jn.rightKeys, c.rbuf)
			c.lbuf, c.rbuf = lk, rk
			ok = ok && string(lk) == string(rk)
		}
		if !ok {
			c.found[i] = nil
		}
	}
	return fetched, probed, nil
}

// distinctRows counts the stored rows in found, each once however many
// left rows share it.
func distinctRows(found []relation.Row) int {
	seen := make(map[*relation.Value]bool, len(found))
	for _, r := range found {
		if r != nil {
			seen[&r[0]] = true
		}
	}
	return len(seen)
}

// probeIndex fetches the rows of the batch's distinct probe keys through
// the secondary index and buckets those that pass the right side's
// pushed filters by full join key. It returns how many rows the probe
// fetched and whether any key was probed.
func (c *inljCursor) probeIndex(t *relation.Table, batch []relation.Row) (int, bool, error) {
	// Distinct probe keys across the batch; NULL keys never join.
	probePos := c.jn.leftKeys[c.jn.inljKeyIdx]
	if c.seen == nil {
		c.seen = make(map[string]bool, len(batch))
		c.buckets = make(map[string][]relation.Row, len(batch))
	} else {
		clear(c.seen)
		clear(c.buckets)
	}
	keys := c.keys[:0]
	kbuf := c.lbuf
	for _, l := range batch {
		v := l[probePos]
		if v == nil {
			continue
		}
		kbuf = appendJoinKeyVal(kbuf[:0], v)
		if !c.seen[string(kbuf)] {
			c.seen[string(kbuf)] = true
			keys = append(keys, v)
		}
	}
	c.keys, c.lbuf = keys, kbuf
	if len(keys) == 0 {
		return 0, false, nil
	}
	fetched := t.LookupMany(c.jn.inljCol, keys)
	for _, r := range fetched {
		ok, err := passFilters(c.jn.scan.filter, r, c.rightRS)
		if err != nil {
			return 0, false, err
		}
		if !ok {
			continue
		}
		k, okk := rowKey(r, c.jn.rightKeys, c.rbuf)
		c.rbuf = k
		if okk {
			c.buckets[string(k)] = append(c.buckets[string(k)], r)
		}
	}
	return len(fetched), true, nil
}

// matches returns left row i's right matches, as the probe left them.
func (c *inljCursor) matches(i int, l relation.Row) []relation.Row {
	if c.jn.inljPK {
		if c.found[i] == nil {
			return nil
		}
		return c.found[i : i+1]
	}
	k, ok := rowKey(l, c.jn.leftKeys, c.lbuf)
	c.lbuf = k
	if !ok {
		return nil
	}
	return c.buckets[string(k)]
}

func (c *inljCursor) NextBatch() ([]relation.Row, error) {
	if c.closed {
		return nil, nil
	}
	for c.qi >= len(c.queue) {
		if c.leftDone {
			return nil, nil
		}
		if err := c.fillBatch(); err != nil {
			return nil, err
		}
	}
	out := c.queue[c.qi:]
	c.qi = len(c.queue)
	return out, nil
}

func (c *inljCursor) Close() {
	c.closed = true
	c.left.Close()
	c.queue = nil
}

// bandJoinCursor is the range-probe nested loop behind band joins: for
// every left row the band predicate's bounds evaluate against that row
// alone and probe the right table's ordered index, fetching only the
// rows inside [lo, hi] — O(log n + matches) per left row where the
// nested loop paid a full inner pass. Right matches emit in key order
// (slots ascending within a key). If the ordered index vanished beneath
// a replaced table, the cursor degrades once to a materialized right
// side checked per left row, sorted to keep the probe path's key order.
type bandJoinCursor struct {
	e        *Engine
	left     cursor
	jn       *joinNode
	combined *rowset
	leftRS   *rowset // layout of the left input rows
	rightRS  *rowset

	closed    bool
	transient bool
	ldrain    leftDrain
	arena     rowArena
	nb        []relation.Row
	ramp      emitRamp
	t         *relation.Table
	fellBack  bool
	fallback  []relation.Row // right side, materialized once, key-sorted
	buf       []relation.Row // probe scratch, reused across left rows

	cur   relation.Row
	queue []relation.Row // right matches for cur, reused across probes
	qi    int

	// EXPLAIN ANALYZE hooks (nil when not analyzing): the band join
	// probes storage directly per left row, so the right-side line's
	// rows/time come from here rather than openScan.
	probeStat *opStat
	loopStat  *opStat
}

func (c *bandJoinCursor) markTransient() {
	c.transient = true
	markTransientCursor(c.left)
}

// probe fills c.queue with the right rows matching the band bounds of
// one left row, timing the range probe when analyzing.
func (c *bandJoinCursor) probe(l relation.Row) error {
	if c.probeStat == nil {
		return c.probeInner(l)
	}
	c.loopStat.loops++
	t0 := time.Now()
	err := c.probeInner(l)
	c.probeStat.ns += int64(time.Since(t0))
	c.probeStat.rows += int64(len(c.queue))
	c.probeStat.batches++
	return err
}

// probeInner fills c.queue with the right rows matching the band
// bounds of one left row, with the right side's pushed filters
// applied. The queue holds storage references and is reused across
// probes.
func (c *bandJoinCursor) probeInner(l relation.Row) error {
	c.queue = c.queue[:0]
	lo, err := evalScalar(c.jn.bandLo, l, c.leftRS)
	if err != nil {
		return err
	}
	hi, err := evalScalar(c.jn.bandHi, l, c.leftRS)
	if err != nil {
		return err
	}
	if lo == nil || hi == nil {
		return nil // "x BETWEEN NULL AND …" matches nothing
	}
	if c.t == nil {
		t, ok := c.e.db.Table(c.jn.scan.ref.Name)
		if !ok {
			return fmt.Errorf("sqlmini: unknown table %q", c.jn.scan.ref.Name)
		}
		c.t = t
	}
	if !c.fellBack {
		rc, ok := c.t.NewRangeCursor(c.jn.bandCol,
			&relation.RangeBound{Value: lo, Inclusive: true},
			&relation.RangeBound{Value: hi, Inclusive: true})
		if ok {
			if c.buf == nil {
				c.buf = make([]relation.Row, scanBatchMin)
			}
			for {
				n := rc.NextBatch(c.buf)
				if n == 0 {
					return nil
				}
				kept, err := filterRows(c.jn.scan.filter, c.buf[:n], c.queue, c.rightRS)
				if err != nil {
					return err
				}
				c.queue = kept
				if n == len(c.buf) && len(c.buf) < c.e.batch() {
					// A full fetch: this band is wide, fetch bigger slabs.
					c.buf = make([]relation.Row, min(4*len(c.buf), c.e.batch()))
				}
			}
		}
		// The ordered index vanished: materialize the right side once and
		// select per left row from the sorted snapshot.
		rows, err := drainCursor(&batchScanCursor{src: c.t.NewScanCursor(), rs: c.rightRS, filter: c.jn.scan.filter, batchN: c.e.batch()}, int(c.jn.scan.est))
		if err != nil {
			return err
		}
		kept := rows[:0]
		for _, r := range rows {
			if r[c.jn.bandIdx] != nil {
				kept = append(kept, r)
			}
		}
		sort.Stable(&rowColSorter{rows: kept, col: c.jn.bandIdx})
		c.fallback, c.fellBack = kept, true
	}
	for _, r := range c.fallback {
		v := r[c.jn.bandIdx]
		if relation.Compare(v, lo) < 0 {
			continue
		}
		if relation.Compare(v, hi) > 0 {
			break // fallback rows are key-sorted
		}
		c.queue = append(c.queue, r)
	}
	return nil
}

func (c *bandJoinCursor) next() (relation.Row, error) {
	if c.closed {
		return nil, nil
	}
	for {
		if c.cur != nil {
			for c.qi < len(c.queue) {
				r := c.queue[c.qi]
				c.qi++
				row := c.arena.combine(c.cur, r)
				ok, err := passResidual(c.jn, row, c.combined)
				if err != nil {
					return nil, err
				}
				if ok {
					return row, nil
				}
			}
			c.cur = nil
		}
		l, err := c.ldrain.next()
		if err != nil {
			return nil, err
		}
		if l == nil {
			return nil, nil
		}
		if err := c.probe(l); err != nil {
			return nil, err
		}
		c.cur, c.qi = l, 0
	}
}

func (c *bandJoinCursor) NextBatch() ([]relation.Row, error) {
	if c.transient {
		c.arena.reset()
	}
	n := c.ramp.next(c.e.batch())
	out := c.nb[:0]
	for len(out) < n {
		row, err := c.next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		out = append(out, row)
	}
	c.ramp.observe(len(out), c.e.batch())
	c.nb = out
	return out, nil
}

func (c *bandJoinCursor) Close() {
	c.closed = true
	c.left.Close()
	c.queue, c.fallback, c.cur = nil, nil, nil
}

// nestedLoopCursor handles joins without equi keys: the right side
// materializes once, the left streams through it.
type nestedLoopCursor struct {
	e        *Engine
	left     cursor
	jn       *joinNode
	combined *rowset

	started   bool
	closed    bool
	transient bool
	ldrain    leftDrain
	arena     rowArena
	nb        []relation.Row
	ramp      emitRamp
	rightRows []relation.Row
	cur       relation.Row
	ri        int
}

func (c *nestedLoopCursor) markTransient() {
	c.transient = true
	markTransientCursor(c.left)
}

func (c *nestedLoopCursor) start() error {
	rc, err := c.e.openScan(c.jn.scan, false, 0)
	if err != nil {
		return err
	}
	rows, err := drainCursor(rc, int(c.jn.scan.est))
	if err != nil {
		return err
	}
	c.rightRows = rows
	c.started = true
	return nil
}

func (c *nestedLoopCursor) next() (relation.Row, error) {
	if c.closed {
		return nil, nil
	}
	if !c.started {
		if err := c.start(); err != nil {
			return nil, err
		}
	}
	for {
		if c.cur != nil {
			for c.ri < len(c.rightRows) {
				r := c.rightRows[c.ri]
				c.ri++
				row := c.arena.combine(c.cur, r)
				ok, err := passResidual(c.jn, row, c.combined)
				if err != nil {
					return nil, err
				}
				if ok {
					return row, nil
				}
			}
			c.cur = nil
		}
		l, err := c.ldrain.next()
		if err != nil {
			return nil, err
		}
		if l == nil {
			return nil, nil
		}
		c.cur, c.ri = l, 0
	}
}

func (c *nestedLoopCursor) NextBatch() ([]relation.Row, error) {
	if c.transient {
		c.arena.reset()
	}
	n := c.ramp.next(c.e.batch())
	out := c.nb[:0]
	for len(out) < n {
		row, err := c.next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		out = append(out, row)
	}
	c.ramp.observe(len(out), c.e.batch())
	c.nb = out
	return out, nil
}

func (c *nestedLoopCursor) Close() {
	c.closed = true
	c.left.Close()
	c.rightRows, c.cur = nil, nil
}

// filterCursor applies the post-join WHERE conjuncts one input batch at
// a time, emitting the survivors of each batch (row pointers into the
// child's batch — valid exactly as long as the contract requires).
type filterCursor struct {
	in    cursor
	rs    *rowset
	conds []Expr
	out   []relation.Row
}

func (c *filterCursor) markTransient() { markTransientCursor(c.in) }

func (c *filterCursor) NextBatch() ([]relation.Row, error) {
	for {
		batch, err := c.in.NextBatch()
		if err != nil || len(batch) == 0 {
			return nil, err
		}
		kept, err := filterRows(c.conds, batch, c.out[:0], c.rs)
		if err != nil {
			return nil, err
		}
		c.out = kept
		if len(kept) > 0 {
			return kept, nil
		}
	}
}

func (c *filterCursor) Close() { c.in.Close() }

// limitCursor is the LIMIT stage of a streaming pipeline — one whose
// output order is already final (no sort pending): it stops the whole
// pipeline — and all the work below it — once the limit is reached,
// slicing the last batch on the way through. Both the materialized
// (Query) and the iterator (QueryRows) entry points put this cursor on
// top of the plan.
type limitCursor struct {
	in     cursor
	remain int64
	an     *analyzeState // EXPLAIN ANALYZE: told when the limit ends the pipeline
}

func (c *limitCursor) markTransient() { markTransientCursor(c.in) }

func (c *limitCursor) NextBatch() ([]relation.Row, error) {
	if c.remain == 0 {
		if c.an != nil {
			c.an.limitStop = true
		}
		return nil, nil
	}
	batch, err := c.in.NextBatch()
	if err != nil || len(batch) == 0 {
		return nil, err
	}
	if int64(len(batch)) > c.remain {
		batch = batch[:c.remain]
	}
	c.remain -= int64(len(batch))
	return batch, nil
}

func (c *limitCursor) Close() { c.in.Close() }

// openPlan opens the full planned pipeline: driver access, joins in
// written order, then residual WHERE conjuncts. The driver keeps key
// order when the plan elided its ORDER BY on it. retain
// declares the consumer's retention: true when rows outlive their batch
// (drainCursor into aggregation/sort), false for the streaming Rows
// path, which lets transient cursors recycle their arena slabs. goal is
// the execution row goal — the LIMIT a streaming statement bound, or
// noLimit — and sizes the driver's first fetch and each join's first
// emit (firstSlab); the plan itself never
// changes with it. A build-left hash join drains every stage beneath it
// before it emits a row, so only the stages from the last such join up
// are sized by the goal.
func (e *Engine) openPlan(p *selectPlan, retain bool, goal int64) (cursor, error) {
	drained := 0 // stages below this one are drained: 0 is the driver, i+1 join i
	for i, jn := range p.joins {
		if len(jn.leftKeys) > 0 && jn.buildLeft {
			drained = i + 1
		}
	}
	firstAt := func(stage int) int {
		if stage < drained {
			return 0
		}
		return e.firstSlab(goal)
	}
	cur, err := e.openScan(p.scan, p.orderElide, firstAt(0))
	if err != nil {
		return nil, err
	}
	var acc []colRef
	if len(p.joins) > 0 {
		acc = append(acc, p.scan.cols...)
	}
	for i, jn := range p.joins {
		first := firstAt(i + 1)
		leftWidth := len(acc)
		acc = append(acc, jn.scan.cols...)
		combined := &rowset{cols: append([]colRef(nil), acc...)}
		switch {
		case jn.inlj:
			cur = &inljCursor{e: e, left: cur, jn: jn, combined: combined,
				rightRS: &rowset{cols: jn.scan.cols}}
		case jn.band:
			// Only band joins evaluate bounds against the left row alone,
			// so only they pay for the left-layout rowset.
			cur = &bandJoinCursor{e: e, left: cur, jn: jn, combined: combined,
				ldrain: leftDrain{c: cur}, ramp: emitRamp{n: first},
				leftRS: &rowset{cols: combined.cols[:leftWidth]}, rightRS: &rowset{cols: jn.scan.cols}}
		case len(jn.leftKeys) > 0 && jn.buildLeft:
			cur = &buildLeftJoinCursor{e: e, left: cur, jn: jn, combined: combined,
				ramp: emitRamp{n: first}}
		case len(jn.leftKeys) > 0:
			cur = &hashJoinCursor{e: e, left: cur, jn: jn, combined: combined,
				ldrain: leftDrain{c: cur}, ramp: emitRamp{n: first}}
		default:
			cur = &nestedLoopCursor{e: e, left: cur, jn: jn, combined: combined,
				ldrain: leftDrain{c: cur}, ramp: emitRamp{n: first}}
		}
		if e.an != nil {
			// The join's own line measures inclusively (its time covers
			// the inputs, like real EXPLAIN ANALYZE); INLJ and band joins
			// additionally report their storage probes on the right-hand
			// scan line, which openScan never sees for them.
			jst := e.an.nodeStat(jn)
			switch jc := cur.(type) {
			case *inljCursor:
				jc.probeStat, jc.loopStat = e.an.nodeStat(jn.scan), jst
			case *bandJoinCursor:
				jc.probeStat, jc.loopStat = e.an.nodeStat(jn.scan), jst
			}
			cur = &instrCursor{in: cur, st: jst}
		}
	}
	if len(p.where) > 0 {
		cur = &filterCursor{in: cur, rs: &rowset{cols: p.cols}, conds: p.where}
		if e.an != nil {
			cur = &instrCursor{in: cur, st: e.an.nodeStat(whereKey)}
		}
	}
	if !retain {
		markTransientCursor(cur)
	}
	return cur, nil
}

// drainCursor pulls a pipeline dry into a materialized row list — the
// bridge to the aggregation and sort stages, which need the full
// result anyway. The pipeline must have been opened with retain=true:
// drained rows are kept past every batch boundary. hint presizes the
// list (a planner cardinality estimate); zero means grow by appending.
func drainCursor(cur cursor, hint int) ([]relation.Row, error) {
	defer cur.Close()
	var out []relation.Row
	if hint > 0 {
		// Estimates run a few percent low (selectivity rounding); the
		// slack avoids one final near-full-size regrow copy.
		out = make([]relation.Row, 0, hint+hint/8+8)
	}
	for {
		batch, err := cur.NextBatch()
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			return out, nil
		}
		out = append(out, batch...)
	}
}
