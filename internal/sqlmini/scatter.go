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
// results may be merged) and the statement's LIMIT under given
// arguments, which the coordinator applies once more after the merge.
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

// RouteInfo is the routing metadata of a prepared statement: everything
// the shard layer needs to decide single-shard fast path vs fan-out,
// and how to merge a fan-out's per-shard results. It is derived from
// the statement text alone — never from data — so it is computed once
// at prepare and shared across executions.
type RouteInfo struct {
	Tables   []TableUse
	Eq       []EqCond
	Agg      bool
	HasOrder bool

	// MergeKeys maps each ORDER BY key to an output column; valid when
	// MergeOK. MergeErr explains an unmergeable order (the cross-shard
	// order contract above).
	MergeKeys []MergeKey
	MergeOK   bool
	MergeErr  string
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
		HasOrder: len(ps.order) > 0,
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

// Limit evaluates the statement's LIMIT with args bound: -1 when the
// statement has none. A fan-out's legs each stop at that many rows, and
// the coordinator applies it once more after the merge.
func (s *Stmt) Limit(args ...any) (int64, error) {
	en := s.entry.Load()
	params, err := bindArgs(en.nParams, args)
	if err != nil {
		return noLimit, err
	}
	return en.sel.limit(params)
}
