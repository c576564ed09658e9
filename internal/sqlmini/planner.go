package sqlmini

import (
	"fmt"
	"strings"

	"courserank/internal/relation"
)

// This file is the cost-aware planning stage between parsing and
// execution. plan analyzes a SELECT's WHERE/JOIN tree, splits the
// conjuncts, pushes single-table predicates into their table's scan,
// picks an access path per table from the table statistics (primary-key
// lookup, secondary-index probe, range scan or full scan), and decides
// each join's algorithm and hash build side. The executor in exec.go
// runs the resulting selectPlan.
//
// Semantics notes:
//   - Every join is INNER (the parser refuses outer and cross joins), so
//     any single-table conjunct, from WHERE or from any ON clause, may
//     filter its table's scan, and a multi-table conjunct may run at the
//     first join that sees all its tables.
//   - Joins run in the order the statement writes them, the FROM table
//     driving: the product's statements join at most once, so there is
//     no order to choose.
//   - Binding (resolving column names to positions) happens once at
//     plan time. Names that fail to resolve fall back to per-row
//     resolution so that error timing matches the unplanned executor.
//   - Pushing a filter below a join can surface an evaluation error
//     (arithmetic on a string) on a row the join would have discarded
//     — the same class of error, observed earlier.

// boundRef is a column reference resolved to a fixed position at plan
// time; evaluating it indexes the row directly instead of matching
// names per row.
type boundRef struct {
	idx  int
	orig *Ref
}

func (b *boundRef) String() string { return b.orig.String() }

// bindExpr returns e with every column reference resolved against rs.
// It fails when any name is unknown or ambiguous; callers fall back to
// the unbound expression so errors surface at evaluation time, as they
// did before planning existed.
func bindExpr(e Expr, rs *rowset) (Expr, error) {
	return mapExpr(e, func(l Expr) (Expr, error) {
		r, ok := l.(*Ref)
		if !ok {
			return l, nil
		}
		i, err := rs.resolve(r.Qual, r.Name)
		if err != nil {
			return nil, err
		}
		return &boundRef{idx: i, orig: r}, nil
	})
}

// bindOrKeep binds e against rs, keeping the original on failure.
func bindOrKeep(e Expr, rs *rowset) Expr {
	if b, err := bindExpr(e, rs); err == nil {
		return b
	}
	return e
}

// isConst reports whether e evaluates without reading any column. A
// late-bound Param counts: its value is fixed before execution starts,
// so the planner may cost it as an (unknown) constant and build index
// probes whose keys resolve at bind time.
func isConst(e Expr) bool {
	return !anyLeaf(e, func(l Expr) bool {
		switch l.(type) {
		case *Ref, *boundRef:
			return true
		}
		return false
	})
}

// containsParam reports whether e has any late-bound placeholder.
func containsParam(e Expr) bool {
	return anyLeaf(e, func(l Expr) bool { _, ok := l.(*Param); return ok })
}

// refsOf appends every column reference in e to out.
func refsOf(e Expr, out []*Ref) []*Ref {
	anyLeaf(e, func(l Expr) bool {
		switch x := l.(type) {
		case *Ref:
			out = append(out, x)
		case *boundRef:
			out = append(out, x.orig)
		}
		return false
	})
	return out
}

// planTable carries one binding's planning state.
type planTable struct {
	ref   TableRef
	tbl   *relation.Table
	rs    *rowset // this table's columns only
	stats relation.TableStats
	scan  *scanNode
}

// bindingsOf reports which tables e references as a bitmask, and whether
// every reference resolved unambiguously.
func bindingsOf(e Expr, tables []*planTable) (uint64, bool) {
	refs := refsOf(e, nil)
	var mask uint64
	for _, r := range refs {
		hit := -1
		for i, t := range tables {
			if _, err := t.rs.resolve(r.Qual, r.Name); err == nil {
				if hit >= 0 {
					return 0, false // ambiguous across bindings
				}
				hit = i
			}
		}
		if hit < 0 {
			return 0, false // unknown column
		}
		mask |= 1 << uint(hit)
	}
	return mask, true
}

// plan builds the physical plan for st and stamps it with the engine's
// executor batch size (shown by Explain as "vectorized batch=N").
func (e *Engine) plan(st *SelectStmt) (*selectPlan, error) {
	p, err := e.planSelect(st)
	if err != nil {
		return nil, err
	}
	p.batch = e.batch()
	return p, nil
}

// planSelect builds the physical plan for st. With forceScan set it
// emits the naive plan — full scans, nested loops, no pushdown — which
// is the pre-planner execution strategy, kept for parity testing.
func (e *Engine) planSelect(st *SelectStmt) (*selectPlan, error) {
	tables := make([]*planTable, 0, 1+len(st.Joins))
	var deps []tableDep
	add := func(ref TableRef) error {
		t, ok := e.db.Table(ref.Name)
		if !ok {
			return fmt.Errorf("sqlmini: unknown table %q", ref.Name)
		}
		// The schema epoch is read before the statistics: a shape change
		// racing the plan then leaves a stale fingerprint, forcing a
		// replan, rather than a fresh fingerprint over stale statistics.
		epoch := t.SchemaEpoch()
		stats := t.Stats()
		deps = append(deps, tableDep{name: ref.Name, tbl: t, epoch: epoch, rows: stats.Rows})
		qual := ref.Binding()
		sch := t.Schema()
		rs := &rowset{cols: make([]colRef, sch.Len())}
		for i := 0; i < sch.Len(); i++ {
			rs.cols[i] = colRef{qual: qual, name: sch.Column(i).Name}
		}
		tables = append(tables, &planTable{ref: ref, tbl: t, rs: rs, stats: stats})
		return nil
	}
	if err := add(st.From); err != nil {
		return nil, err
	}
	for _, j := range st.Joins {
		if err := add(j.Ref); err != nil {
			return nil, err
		}
	}
	for _, t := range tables {
		t.scan = &scanNode{ref: t.ref, cols: t.rs.cols, tableRows: t.stats.Rows}
	}

	p := &selectPlan{scan: tables[0].scan, deps: deps}
	combined := &rowset{}
	for _, t := range tables {
		combined.cols = append(combined.cols, t.rs.cols...)
	}
	p.cols = combined.cols

	if e.forceScan {
		// Naive plan: everything stays where the query text put it.
		for _, t := range tables {
			t.scan.est = float64(t.stats.Rows)
		}
		for i, j := range st.Joins {
			jn := &joinNode{scan: tables[i+1].scan}
			if j.On != nil {
				jn.residual = splitConjuncts(j.On)
			}
			p.joins = append(p.joins, jn)
		}
		if st.Where != nil {
			p.where = splitConjuncts(st.Where)
		}
		return p, nil
	}

	// Classify WHERE conjuncts: single-table predicates push into that
	// table's scan; multi-table conjuncts fold into the first join that
	// sees all their tables; the rest stay post-join.
	type foldedConjunct struct {
		expr Expr
		join int // index into st.Joins
	}
	var folded []foldedConjunct
	if st.Where != nil {
		for _, c := range splitConjuncts(st.Where) {
			mask, ok := bindingsOf(c, tables)
			if !ok || mask == 0 {
				p.where = append(p.where, c)
				continue
			}
			if mask&(mask-1) == 0 { // single table
				ti := bitIndex(mask)
				tables[ti].scan.filter = append(tables[ti].scan.filter, c)
				continue
			}
			folded = append(folded, foldedConjunct{expr: c, join: bitIndex(mask) - 1})
		}
	}

	// Build each join: split the ON tree, extract equi keys, push
	// single-table ON conjuncts into their table's scan.
	leftCols := &rowset{cols: append([]colRef(nil), tables[0].rs.cols...)}
	for ji, j := range st.Joins {
		right := tables[ji+1]
		jn := &joinNode{scan: right.scan}
		conjs := []Expr(nil)
		if j.On != nil {
			conjs = splitConjuncts(j.On)
		}
		for _, f := range folded {
			if f.join == ji {
				conjs = append(conjs, f.expr)
			}
		}
		for _, c := range conjs {
			if li, ri, ok := equiKey(c, leftCols, right.rs); ok {
				jn.leftKeys = append(jn.leftKeys, li)
				jn.rightKeys = append(jn.rightKeys, ri)
				jn.keyText = append(jn.keyText, c.String())
				continue
			}
			mask, ok := bindingsOf(c, tables[:ji+2])
			if ok && mask != 0 && mask&(mask-1) == 0 {
				ti := bitIndex(mask)
				tables[ti].scan.filter = append(tables[ti].scan.filter, c)
				continue
			}
			jn.residual = append(jn.residual, c)
		}
		p.joins = append(p.joins, jn)
		leftCols.cols = append(leftCols.cols, right.rs.cols...)
	}

	// Pick access paths now that every pushable predicate has landed.
	for _, t := range tables {
		chooseAccess(t)
	}

	// Decide join algorithms and build sides from the estimates.
	decideJoins(p, tables)

	// Bind what can be bound once, so per-row evaluation skips name
	// resolution. Scan filters bind against the table's own columns;
	// join residuals against the columns joined so far; WHERE against
	// the full layout.
	for _, t := range tables {
		for i, f := range t.scan.filter {
			t.scan.filter[i] = bindOrKeep(f, t.rs)
		}
	}
	seen := len(tables[0].rs.cols)
	for ji, jn := range p.joins {
		leftSub := &rowset{cols: combined.cols[:seen]}
		seen += len(tables[ji+1].rs.cols)
		sub := &rowset{cols: combined.cols[:seen]}
		if jn.band {
			// Band bounds evaluate against the left row alone, before the
			// probe, so they bind against the left-only layout.
			jn.bandLo = bindOrKeep(jn.bandLo, leftSub)
			jn.bandHi = bindOrKeep(jn.bandHi, leftSub)
		}
		for i, r := range jn.residual {
			jn.residual[i] = bindOrKeep(r, sub)
		}
	}
	for i, w := range p.where {
		p.where[i] = bindOrKeep(w, combined)
	}
	setOrderElision(p, st, tables[0])
	applyRowGoal(p, st, tables)
	return p, nil
}

// Index nested-loop thresholds: the probe side must be at least this
// much smaller than the build side, and the build side big enough that
// skipping its hash build is worth per-batch probe overhead.
const (
	inljMinRight    = 64
	inljProbeFactor = 4
)

// decideJoins picks each join's physical algorithm from the estimates,
// left-deep outward: index nested-loop when the left input is far
// smaller than an indexed right scan, otherwise a hash join with the
// smaller side as build. Joins without equi keys probe the right
// ordered index per left row when the ON clause holds a band predicate,
// and nested-loop otherwise. tables is aligned with p.scan and p.joins.
func decideJoins(p *selectPlan, tables []*planTable) {
	estLeft := tables[0].scan.est
	for i, jn := range p.joins {
		right := tables[i+1]
		jn.estLeft = estLeft
		if len(jn.leftKeys) > 0 {
			tryINLJ(jn, right, estLeft)
			if !jn.inlj && estLeft < jn.scan.est {
				jn.buildLeft = true
			}
			// Crude output estimate: an equi join keeps about the larger
			// side; a nested loop multiplies.
			estLeft = maxf(estLeft, jn.scan.est)
		} else {
			tryBandProbe(jn, tables[:i+1], right)
			estLeft = estLeft * maxf(jn.scan.est, 1)
		}
	}
}

// tryINLJ turns an equi join into an index nested loop when estLeft left
// rows are few enough against the right scan to beat hashing it, and the
// right side offers an index on a join key to probe.
func tryINLJ(jn *joinNode, right *planTable, estLeft float64) {
	if right.scan.access != accessScan || right.scan.est < inljMinRight ||
		estLeft*inljProbeFactor > right.scan.est {
		return
	}
	if ki, col, pk, ok := inljProbe(right, jn.rightKeys); ok {
		jn.inlj, jn.inljCol, jn.inljPK, jn.inljKeyIdx = true, col, pk, ki
		jn.buildLeft = false
	}
}

// rowGoalParam is the row goal of a statement whose LIMIT is a '?': one
// executor batch. Plans are cached by statement text and bake
// in access paths, never data, so the goal cannot depend on the value
// an execution will bind.
const rowGoalParam = defaultBatch

// applyRowGoal re-decides join algorithms for a statement that streams
// into a LIMIT: the pipeline will be closed after limit rows, so
// each join's left input is costed at that many rows instead of its
// full estimate, which turns "hash the whole right table to emit ten
// rows" into an index nested loop. The goal changes a hash join into an
// INLJ and nothing else — the driver's access path, band joins and
// order elision were all decided without it, and both algorithms emit
// left-major order with right matches in slot order — so the limited
// statement returns exactly the prefix of the unlimited one, ties
// included.
func applyRowGoal(p *selectPlan, st *SelectStmt, tables []*planTable) {
	if st.Limit == nil || !streamsToLimit(st, st.aggregates(), p.orderElide) {
		return
	}
	goal := float64(rowGoalParam)
	if lim, ok := st.Limit.(*Lit); ok {
		if n, ok := lim.V.(int64); ok && n >= 0 {
			goal = float64(n)
		}
	}
	estLeft := tables[0].scan.est
	for i, jn := range p.joins {
		estLeft = min(estLeft, goal)
		if len(jn.leftKeys) == 0 {
			estLeft *= maxf(jn.scan.est, 1)
			continue
		}
		if !jn.inlj {
			tryINLJ(jn, tables[i+1], estLeft)
		}
		estLeft = maxf(estLeft, jn.scan.est)
	}
}

// tryBandProbe turns a join without equi keys — otherwise a full nested
// loop — into per-left-row range probes when one residual conjunct is a
// band predicate: "right.col BETWEEN lo AND hi" with the column
// ordered-indexed on the right table and both bounds computable from
// the left row alone (left columns, constants, params). The probed
// conjunct leaves the residual list; the index range enforces it.
func tryBandProbe(jn *joinNode, leftTables []*planTable, right *planTable) {
	if right.scan.access != accessScan {
		return
	}
	var leftCols []colRef
	for _, t := range leftTables {
		leftCols = append(leftCols, t.rs.cols...)
	}
	combined := &rowset{cols: append(append([]colRef(nil), leftCols...), right.rs.cols...)}
	for ri, c := range jn.residual {
		x, ok := c.(*Between)
		if !ok {
			continue
		}
		ref, isRef := x.X.(*Ref)
		if !isRef {
			continue
		}
		gi, err := combined.resolve(ref.Qual, ref.Name)
		if err != nil || gi < len(leftCols) {
			continue // not (unambiguously) a right-side column
		}
		col := right.rs.cols[gi-len(leftCols)].name
		if !right.tbl.HasOrderedIndex(col) {
			continue
		}
		if !leftComputable(x.Lo, combined, len(leftCols)) || !leftComputable(x.Hi, combined, len(leftCols)) {
			continue
		}
		jn.band = true
		jn.bandCol = col
		jn.bandIdx = gi - len(leftCols)
		jn.bandLo, jn.bandHi = x.Lo, x.Hi
		jn.bandText = c.String()
		jn.residual = append(jn.residual[:ri], jn.residual[ri+1:]...)
		return
	}
}

// leftComputable reports whether every column e references resolves
// unambiguously in the combined join layout AND lands on the left side,
// so the bound can evaluate against each left row before the probe.
func leftComputable(e Expr, combined *rowset, leftWidth int) bool {
	for _, r := range refsOf(e, nil) {
		gi, err := combined.resolve(r.Qual, r.Name)
		if err != nil || gi >= leftWidth {
			return false
		}
	}
	return true
}

// inljProbe finds a right-side join key column answerable through an
// index: a secondary hash index, or a single-column primary key (probed
// batched via GetEach).
func inljProbe(right *planTable, rightKeys []int) (int, string, bool, bool) {
	for ki, rpos := range rightKeys {
		col := right.rs.cols[rpos].name
		if right.tbl.HasIndex(col) {
			return ki, col, false, true
		}
		if pk := right.tbl.PrimaryKey(); len(pk) == 1 && strings.EqualFold(pk[0], col) {
			return ki, col, true, true
		}
	}
	return 0, "", false, false
}

// setOrderElision marks the plan when the pipeline can emit the query's
// ORDER BY order directly: the single sort key resolves to a column of
// the driver (the FROM table) whose ordered index the driver already
// walks (a range scan) or could walk (a full scan traded for an
// unbounded ordered walk), and no aggregation reshapes rows. Descending
// keys elide too — the driver walks the index backwards (keys desc,
// slots asc within a key, matching the stable sort's tie order). Every
// join algorithm preserves
// left-major row order, so the driver's key order survives to the
// output, the elided result still satisfies its ORDER BY, and the sort
// can be skipped. Tie order matches the sorted path's exactly (slot
// order — the basis of the exact forced-scan parity the goldens pin)
// whenever each join also emits its right matches in slot order; a
// band join emits them in probe-key order instead, so differential
// tests over band shapes pin a total order or compare multisets (see
// fuzz_test.go's order discipline).
func setOrderElision(p *selectPlan, st *SelectStmt, driver *planTable) {
	if len(st.OrderBy) != 1 {
		return
	}
	desc := st.OrderBy[0].Desc
	if st.aggregates() {
		return
	}
	ref, ok := st.OrderBy[0].Expr.(*Ref)
	if !ok {
		return
	}
	combined := &rowset{cols: p.cols}
	gi, err := combined.resolve(ref.Qual, ref.Name)
	if err != nil {
		return
	}
	if gi >= len(driver.rs.cols) {
		return // the sort key is not a driver column
	}
	col := driver.rs.cols[gi].name
	switch driver.scan.access {
	case accessRange:
		if !strings.EqualFold(driver.scan.rangeCol, col) {
			return
		}
	case accessScan:
		// A full scan can walk the column's ordered index instead — same
		// rows in key order for the cost of the scan — but only when the
		// schema marks the column NOT NULL: the index skips NULL keys,
		// and dropping those rows would change the result.
		if !driver.tbl.HasOrderedIndex(col) {
			return
		}
		ci, ok := driver.tbl.Schema().Index(col)
		if !ok || !driver.tbl.Schema().Column(ci).NotNull {
			return
		}
	default:
		return
	}
	// ORDER BY resolves output aliases before source columns: an
	// explicit item whose name shadows the sort key must itself be that
	// same column, or the sort reads different values and must run.
	if ref.Qual == "" {
		for _, item := range st.List {
			if item.Star || !strings.EqualFold(outputName(item), ref.Name) {
				continue
			}
			r2, isRef := item.Expr.(*Ref)
			if !isRef {
				return
			}
			gi2, err := combined.resolve(r2.Qual, r2.Name)
			if err != nil || gi2 != gi {
				return
			}
		}
	}
	if driver.scan.access == accessScan {
		driver.scan.access = accessRange
		driver.scan.rangeCol = col
	}
	driver.scan.rangeDesc = desc
	p.orderElide, p.orderText = true, st.OrderBy[0].Expr.String()
	if desc {
		p.orderText += " DESC"
	}
}

// equiKey recognizes "l = r" with one side in the left layout and the
// other in the right table, returning the resolved positions.
func equiKey(c Expr, left, right *rowset) (int, int, bool) {
	b, ok := c.(*Binary)
	if !ok || b.Op != "=" {
		return 0, 0, false
	}
	lref, lok := b.L.(*Ref)
	rref, rok := b.R.(*Ref)
	if !lok || !rok {
		return 0, 0, false
	}
	if li, err := left.resolve(lref.Qual, lref.Name); err == nil {
		if ri, err := right.resolve(rref.Qual, rref.Name); err == nil {
			return li, ri, true
		}
	}
	if li, err := left.resolve(rref.Qual, rref.Name); err == nil {
		if ri, err := right.resolve(lref.Qual, lref.Name); err == nil {
			return li, ri, true
		}
	}
	return 0, 0, false
}

// chooseAccess selects the cheapest access path for one table from its
// pushed filters and statistics, moving the predicates an index already
// guarantees out of the filter list.
func chooseAccess(t *planTable) {
	s := t.scan
	s.est = float64(t.stats.Rows)

	type eq struct {
		col string
		key Expr
		pos int // position in s.filter
	}
	var eqs []eq
	for i, f := range s.filter {
		x, ok := f.(*Binary)
		if !ok || x.Op != "=" {
			continue
		}
		if r, ok := x.L.(*Ref); ok && isConst(x.R) {
			eqs = append(eqs, eq{col: r.Name, key: x.R, pos: i})
		} else if r, ok := x.R.(*Ref); ok && isConst(x.L) {
			eqs = append(eqs, eq{col: r.Name, key: x.L, pos: i})
		}
	}
	if len(eqs) == 0 {
		chooseRange(t)
		return
	}

	// Primary key first: all key columns covered by equalities makes the
	// scan a point lookup.
	pk := t.tbl.PrimaryKey()
	if len(pk) > 0 {
		keys := make([]Expr, len(pk))
		used := make([]int, 0, len(pk))
		covered := 0
		for i, col := range pk {
			for _, c := range eqs {
				if strings.EqualFold(c.col, col) {
					keys[i] = c.key
					used = append(used, c.pos)
					covered++
					break
				}
			}
		}
		if covered == len(pk) {
			s.access = accessPK
			s.probeCol = strings.Join(pk, ", ")
			s.probeKeys = keys
			s.filter = removeAt(s.filter, used)
			s.est = 1
			return
		}
	}

	// Otherwise probe the indexed column with the most distinct values
	// (lowest selectivity).
	best := -1
	bestDistinct := 0
	for i, c := range eqs {
		if !t.tbl.HasIndex(c.col) {
			continue
		}
		d, _ := t.stats.DistinctOf(c.col)
		if best < 0 || d > bestDistinct {
			best, bestDistinct = i, d
		}
	}
	if best < 0 {
		chooseRange(t)
		return
	}
	c := eqs[best]
	s.access = accessIndex
	s.probeCol = c.col
	s.probeKeys = []Expr{c.key}
	s.filter = removeAt(s.filter, []int{c.pos})
	s.est = min(t.stats.Selectivity(c.col), float64(t.stats.Rows))
}

// chooseRange upgrades a scan to an ordered-index range access when its
// pushed filters bound an ordered-indexed column with <, <=, >, >= or
// BETWEEN. One lower and one upper conjunct per column combine; with
// literal bounds the index itself counts the matching rows (O(log n)),
// late-bound params fall back to fixed fractions. The used conjuncts
// leave the filter list — the range cursor enforces them.
func chooseRange(t *planTable) {
	s := t.scan
	type cand struct {
		col          string
		lo, hi       Expr
		loInc, hiInc bool
		drop         []int
	}
	var cands []*cand
	candFor := func(col string) *cand {
		for _, c := range cands {
			if strings.EqualFold(c.col, col) {
				return c
			}
		}
		c := &cand{col: col}
		cands = append(cands, c)
		return c
	}
	for i, f := range s.filter {
		switch x := f.(type) {
		case *Binary:
			op := x.Op
			var ref *Ref
			var key Expr
			if r, ok := x.L.(*Ref); ok && isConst(x.R) {
				ref, key = r, x.R
			} else if r, ok := x.R.(*Ref); ok && isConst(x.L) {
				ref, key = r, x.L
				op = flipCompare(op)
			} else {
				continue
			}
			if op != "<" && op != "<=" && op != ">" && op != ">=" {
				continue
			}
			if !t.tbl.HasOrderedIndex(ref.Name) {
				continue
			}
			c := candFor(ref.Name)
			switch op {
			case ">", ">=":
				if c.lo == nil {
					c.lo, c.loInc = key, op == ">="
					c.drop = append(c.drop, i)
				}
			case "<", "<=":
				if c.hi == nil {
					c.hi, c.hiInc = key, op == "<="
					c.drop = append(c.drop, i)
				}
			}
		case *Between:
			r, ok := x.X.(*Ref)
			if !ok || !isConst(x.Lo) || !isConst(x.Hi) {
				continue
			}
			if !t.tbl.HasOrderedIndex(r.Name) {
				continue
			}
			c := candFor(r.Name)
			if c.lo == nil && c.hi == nil {
				c.lo, c.loInc, c.hi, c.hiInc = x.Lo, true, x.Hi, true
				c.drop = append(c.drop, i)
			}
		}
	}
	if len(cands) == 0 {
		return
	}
	estOf := func(c *cand) float64 {
		lo, loOK := rangeBoundOf(c.lo, c.loInc)
		hi, hiOK := rangeBoundOf(c.hi, c.hiInc)
		if loOK && hiOK {
			if n, ok := t.tbl.RangeCount(c.col, lo, hi); ok {
				return float64(n)
			}
		}
		if c.lo != nil && c.hi != nil {
			return float64(t.stats.Rows) / 4
		}
		return float64(t.stats.Rows) / 3
	}
	best := cands[0]
	bestEst := estOf(best)
	for _, c := range cands[1:] {
		if est := estOf(c); est < bestEst {
			best, bestEst = c, est
		}
	}
	s.access = accessRange
	s.rangeCol = best.col
	s.rangeLo, s.loInc = best.lo, best.loInc
	s.rangeHi, s.hiInc = best.hi, best.hiInc
	s.filter = removeAt(s.filter, best.drop)
	s.est = bestEst
	if s.est > float64(t.stats.Rows) {
		s.est = float64(t.stats.Rows)
	}
}

// rangeBoundOf evaluates a planning-time bound expression into a
// relation.RangeBound, reporting false when the value is only known at
// bind time (it contains a param) or fails to evaluate.
func rangeBoundOf(e Expr, inclusive bool) (*relation.RangeBound, bool) {
	if e == nil {
		return nil, true
	}
	if containsParam(e) {
		return nil, false
	}
	v, err := evalScalar(e, nil, &rowset{})
	if err != nil || v == nil {
		return nil, false
	}
	return &relation.RangeBound{Value: v, Inclusive: inclusive}, true
}

// flipCompare mirrors a comparison operator across its operands:
// "k < col" means "col > k".
func flipCompare(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// removeAt returns list without the elements at the given positions.
func removeAt(list []Expr, drop []int) []Expr {
	if len(drop) == 0 {
		return list
	}
	del := make(map[int]bool, len(drop))
	for _, i := range drop {
		del[i] = true
	}
	out := list[:0]
	for i, e := range list {
		if !del[i] {
			out = append(out, e)
		}
	}
	return out
}

// bitIndex returns the position of mask's highest set bit.
func bitIndex(mask uint64) int {
	i := 0
	for mask > 1 {
		mask >>= 1
		i++
	}
	return i
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
