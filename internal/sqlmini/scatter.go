package sqlmini

import (
	"fmt"
	"strings"

	"courserank/internal/relation"
)

// This file is the engine's half of the scatter-gather contract with
// internal/shard. The shard router sits ABOVE the planner: it prepares
// one statement per shard and needs two things from each prepared
// statement — routing metadata (which tables the statement touches,
// which equality predicates could pin a shard key, how cross-shard
// results may be merged or combined) and windowed execution (run the
// same plan with the LIMIT/OFFSET clause overridden, so a fan-out can
// fetch limit+offset rows per shard and apply the global window once
// at the coordinator).
//
// Cross-shard order contract: a fan-out of an ORDER BY query is merged
// by comparing OUTPUT columns across the per-shard result streams, so
// every ORDER BY key must be an output column — either an unqualified
// alias of the select list or a column reference the select list also
// projects. Keys that only exist in the source rows (expressions, or
// columns the projection drops) cannot be compared at the coordinator;
// RouteInfo reports them as unmergeable and the router refuses the
// fan-out rather than returning misordered rows.

// TableUse is one base table referenced by a SELECT, identified by its
// binding (alias, or table name when unaliased) — self-joins reference
// one table under two bindings, and routing reasons about bindings.
type TableUse struct {
	Binding string
	Name    string
}

// BoundCol names a column of a specific binding.
type BoundCol struct{ Binding, Col string }

// EqCond is one equality conjunct useful for routing: either an edge
// between two columns (join / co-location), or a column pinned to a
// placeholder or literal value.
type EqCond struct {
	Col   BoundCol
	Other *BoundCol      // column edge; nil for value pins
	Param int            // >= 0: pinned to this placeholder
	Value relation.Value // literal pin, valid when Other == nil && Param < 0
}

// MergeKey is one prepared ORDER BY key mapped onto the output row: a
// cross-shard merge compares output column Out, descending when Desc.
type MergeKey struct {
	Out  int
	Desc bool
}

// CombineOp says how one output column of a partial-aggregate fan-out
// combines across shards.
type CombineOp int

// Combine operations for partial aggregation.
const (
	CombineKey CombineOp = iota // group key: equal values merge rows
	CombineSum                  // COUNT/SUM partials add
	CombineMin                  // MIN partials take the minimum
	CombineMax                  // MAX partials take the maximum
)

// RouteInfo is the routing metadata of a prepared statement: everything
// the shard layer needs to decide single-shard fast path vs fan-out,
// and how to merge a fan-out's per-shard results. It is derived from
// the statement text alone — never from data — so it is computed once
// at prepare and shared across executions.
type RouteInfo struct {
	Tables   []TableUse
	Eq       []EqCond
	Agg      bool
	Distinct bool
	HasOrder bool
	HasLimit bool

	// MergeKeys maps each ORDER BY key to an output column; valid when
	// MergeOK. MergeErr explains an unmergeable order (the cross-shard
	// order contract above).
	MergeKeys []MergeKey
	MergeOK   bool
	MergeErr  string

	// Combine maps each output column of an aggregate query to its
	// partial-combine operation; valid when CombineOK. CombineErr
	// explains an uncombinable aggregate (AVG, HAVING, DISTINCT,
	// expressions over aggregates, group keys the projection drops).
	Combine    []CombineOp
	CombineOK  bool
	CombineErr string
}

// RouteInfo computes the statement's routing metadata. The result is
// layout-independent (it names bindings and output positions, not plan
// internals), so callers may cache it for the statement's lifetime.
func (s *Stmt) RouteInfo() (*RouteInfo, error) {
	en, err := s.current()
	if err != nil {
		return nil, err
	}
	return routeInfoOf(en.sel), nil
}

// routeInfoOf extracts the routing shape from a prepared select.
func routeInfoOf(ps *preparedSelect) *RouteInfo {
	sel := ps.sel
	ri := &RouteInfo{
		Agg:      ps.aggMode,
		Distinct: sel.Distinct,
		HasOrder: len(ps.order) > 0,
		HasLimit: sel.Limit != nil || sel.Offset != nil,
	}
	ri.Tables = append(ri.Tables, TableUse{Binding: sel.From.Binding(), Name: sel.From.Name})
	for _, j := range sel.Joins {
		ri.Tables = append(ri.Tables, TableUse{Binding: j.Ref.Binding(), Name: j.Ref.Name})
	}
	// Every join is INNER, so ON and WHERE conjuncts filter alike: a
	// value pin in either may route the statement.
	res := func(ref *Ref) (BoundCol, bool) { return resolveBinding(ref, ri.Tables, ps.plan.cols) }
	conjs := splitConjuncts(sel.Where)
	for _, j := range sel.Joins {
		conjs = append(conjs, splitConjuncts(j.On)...)
	}
	for _, c := range conjs {
		if eq, ok := eqCondOf(c, res); ok {
			ri.Eq = append(ri.Eq, eq)
		}
	}
	ri.MergeKeys, ri.MergeOK, ri.MergeErr = mergeKeysOf(ps)
	if ps.aggMode {
		ri.Combine, ri.CombineOK, ri.CombineErr = combineOpsOf(ps)
	}
	return ri
}

// resolveBinding maps a column reference to (binding, column).
// Qualified refs name their binding directly; unqualified refs resolve
// through the plan's column layout, which already handles ambiguity.
func resolveBinding(ref *Ref, tables []TableUse, cols []colRef) (BoundCol, bool) {
	if ref.Qual != "" {
		for _, t := range tables {
			if strings.EqualFold(t.Binding, ref.Qual) {
				return BoundCol{Binding: t.Binding, Col: ref.Name}, true
			}
		}
		return BoundCol{}, false
	}
	rs := &rowset{cols: cols}
	idx, err := rs.resolve("", ref.Name)
	if err != nil {
		return BoundCol{}, false
	}
	return BoundCol{Binding: cols[idx].qual, Col: cols[idx].name}, true
}

// eqCondOf recognizes one routing-relevant equality conjunct.
func eqCondOf(c Expr, res func(*Ref) (BoundCol, bool)) (EqCond, bool) {
	b, ok := c.(*Binary)
	if !ok || b.Op != "=" {
		return EqCond{}, false
	}
	l, lref := b.L.(*Ref)
	r, rref := b.R.(*Ref)
	switch {
	case lref && rref:
		lc, ok1 := res(l)
		rc, ok2 := res(r)
		if !ok1 || !ok2 {
			return EqCond{}, false
		}
		return EqCond{Col: lc, Other: &rc, Param: -1}, true
	case lref:
		return valuePin(l, b.R, res)
	case rref:
		return valuePin(r, b.L, res)
	}
	return EqCond{}, false
}

func valuePin(ref *Ref, v Expr, res func(*Ref) (BoundCol, bool)) (EqCond, bool) {
	bc, ok := res(ref)
	if !ok {
		return EqCond{}, false
	}
	switch x := v.(type) {
	case *Param:
		return EqCond{Col: bc, Param: x.Idx}, true
	case *Lit:
		nv, err := relation.Normalize(x.V)
		if err != nil {
			return EqCond{}, false
		}
		return EqCond{Col: bc, Param: -1, Value: nv}, true
	}
	return EqCond{}, false
}

// mergeKeysOf maps the prepared ORDER BY onto output columns, per the
// cross-shard order contract.
func mergeKeysOf(ps *preparedSelect) ([]MergeKey, bool, string) {
	if len(ps.order) == 0 {
		return nil, true, ""
	}
	keys := make([]MergeKey, len(ps.order))
	for i, k := range ps.order {
		if k.aliasIdx >= 0 {
			keys[i] = MergeKey{Out: k.aliasIdx, Desc: k.desc}
			continue
		}
		br, ok := k.expr.(*boundRef)
		if !ok {
			return nil, false, fmt.Sprintf("ORDER BY key %d is an expression the projection does not output", i+1)
		}
		out := -1
		for j, item := range ps.items {
			if ib, ok := item.Expr.(*boundRef); ok && ib.idx == br.idx {
				out = j
				break
			}
		}
		if out < 0 {
			return nil, false, fmt.Sprintf("ORDER BY key %d (%s) is not an output column", i+1, br.orig)
		}
		keys[i] = MergeKey{Out: out, Desc: k.desc}
	}
	return keys, true, ""
}

// combineOpsOf decides how each output column of an aggregate query
// combines across per-shard partials, or why it cannot.
func combineOpsOf(ps *preparedSelect) ([]CombineOp, bool, string) {
	if ps.having != nil {
		return nil, false, "HAVING cannot filter per-shard partials"
	}
	if ps.sel.Distinct {
		return nil, false, "DISTINCT over aggregates cannot combine partials"
	}
	groupRefs := make([]*boundRef, len(ps.groupBy))
	groupIdx := make(map[int]bool, len(ps.groupBy))
	for i, g := range ps.groupBy {
		br, ok := g.(*boundRef)
		if !ok {
			return nil, false, "GROUP BY expression is not a plain column"
		}
		groupRefs[i] = br
		groupIdx[br.idx] = true
	}
	projected := make(map[int]bool, len(ps.groupBy))
	ops := make([]CombineOp, len(ps.items))
	for i, item := range ps.items {
		switch x := item.Expr.(type) {
		case *boundRef:
			if !groupIdx[x.idx] {
				return nil, false, fmt.Sprintf("output column %d is neither a group key nor an aggregate", i+1)
			}
			ops[i] = CombineKey
			projected[x.idx] = true
		case *Call:
			if !aggregates[x.Name] {
				return nil, false, fmt.Sprintf("output column %d is not a combinable aggregate", i+1)
			}
			if x.Distinct {
				return nil, false, fmt.Sprintf("%s(DISTINCT) cannot combine partials", x.Name)
			}
			switch x.Name {
			case "COUNT", "SUM":
				ops[i] = CombineSum
			case "MIN":
				ops[i] = CombineMin
			case "MAX":
				ops[i] = CombineMax
			default: // AVG
				return nil, false, "AVG cannot combine partials (rewrite as SUM and COUNT)"
			}
		default:
			return nil, false, fmt.Sprintf("output column %d is not a combinable aggregate", i+1)
		}
	}
	// Every group key must be an output column: the coordinator merges
	// partials BY those values, so a dropped key would fold distinct
	// groups into one row.
	for _, br := range groupRefs {
		if !projected[br.idx] {
			return nil, false, fmt.Sprintf("GROUP BY key %s is not projected, so per-shard partials cannot be merged by group", br.orig)
		}
	}
	return ops, true, ""
}

// QueryWindow executes a prepared SELECT with its LIMIT/OFFSET clause
// overridden: limit < 0 means unlimited, offset <= 0 means none. The
// plan, projection and ORDER BY are untouched — only the window
// changes — so a shard fan-out can fetch limit+offset rows from each
// shard and apply the statement's own window once after the merge.
func (s *Stmt) QueryWindow(limit, offset int64, args ...any) (*Result, error) {
	en, err := s.current()
	if err != nil {
		return nil, err
	}
	return s.e.queryEntry(windowEntry(en, limit, offset), args)
}

// windowEntry shadows a prepared entry with the window replaced by
// literals. Entries are immutable, so the shadow copies the two
// structs on the path to the Limit/Offset fields and shares the rest.
func windowEntry(en *cacheEntry, limit, offset int64) *cacheEntry {
	sel := *en.sel.sel
	if limit < 0 {
		sel.Limit = nil
	} else {
		sel.Limit = &Lit{V: limit}
	}
	if offset <= 0 {
		sel.Offset = nil
	} else {
		sel.Offset = &Lit{V: offset}
	}
	ps := *en.sel
	ps.sel = &sel
	sh := *en
	sh.sel = &ps
	return &sh
}

// WindowValues evaluates the statement's own LIMIT/OFFSET clause with
// args bound: limit is -1 when absent, offset 0. The router uses the
// values to size per-shard windows (each shard must produce
// limit+offset rows for the coordinator's global window to be exact).
func (s *Stmt) WindowValues(args ...any) (limit, offset int64, err error) {
	en := s.entry.Load()
	params, err := bindArgs(en.nParams, args)
	if err != nil {
		return -1, 0, err
	}
	win, err := en.sel.window(params)
	if err != nil {
		return -1, 0, err
	}
	return win.limit, win.offset, nil
}
