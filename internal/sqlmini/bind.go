package sqlmini

import (
	"fmt"

	"courserank/internal/relation"
)

// This file is the bind stage of the prepared-statement lifecycle:
// turning a statement's late-bound Param expressions into concrete
// values at execution time. Substitution is copy-on-write — nodes
// containing no parameter are returned as-is — so a cached, shared plan
// is never mutated and binding an argument-free statement costs nothing.

// bindArgs normalizes the caller's argument values for a statement
// declaring n placeholders.
func bindArgs(n int, args []any) ([]relation.Value, error) {
	if len(args) != n {
		return nil, fmt.Errorf("sqlmini: %d args provided, %d placeholders used", len(args), n)
	}
	if n == 0 {
		return nil, nil
	}
	params := make([]relation.Value, n)
	for i, a := range args {
		v, err := relation.Normalize(a)
		if err != nil {
			return nil, fmt.Errorf("sqlmini: arg %d: %w", i, err)
		}
		params[i] = v
	}
	return params, nil
}

// mapExpr rebuilds e bottom-up with every leaf (literal, param, column
// reference) replaced by leaf's result. A node whose children all come
// back unchanged is returned as-is, so untouched subtrees stay shared
// and an identity leaf function allocates nothing. It is the one
// place that knows each node's children: binding, parameter
// substitution and the planner's leaf queries are all built on it.
func mapExpr(e Expr, leaf func(Expr) (Expr, error)) (Expr, error) {
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *Unary:
		in, err := mapExpr(x.X, leaf)
		if err != nil || in == x.X {
			return x, err
		}
		return &Unary{Op: x.Op, X: in}, nil
	case *Binary:
		l, err := mapExpr(x.L, leaf)
		if err != nil {
			return nil, err
		}
		r, err := mapExpr(x.R, leaf)
		if err != nil || (l == x.L && r == x.R) {
			return x, err
		}
		return &Binary{Op: x.Op, L: l, R: r}, nil
	case *Between:
		v, err := mapExpr(x.X, leaf)
		if err != nil {
			return nil, err
		}
		lo, err := mapExpr(x.Lo, leaf)
		if err != nil {
			return nil, err
		}
		hi, err := mapExpr(x.Hi, leaf)
		if err != nil || (v == x.X && lo == x.Lo && hi == x.Hi) {
			return x, err
		}
		return &Between{X: v, Lo: lo, Hi: hi}, nil
	case *Call:
		arg, err := mapExpr(x.Arg, leaf)
		if err != nil || arg == x.Arg {
			return x, err
		}
		return &Call{Name: x.Name, Arg: arg, Star: x.Star}, nil
	}
	return leaf(e)
}

// anyLeaf reports whether pred holds for some leaf of e.
func anyLeaf(e Expr, pred func(Expr) bool) bool {
	found := false
	mapExpr(e, func(l Expr) (Expr, error) {
		found = found || pred(l)
		return l, nil
	})
	return found
}

// substExpr replaces every Param in e with its bound value, sharing
// subtrees that contain none.
func substExpr(e Expr, params []relation.Value) Expr {
	if len(params) == 0 {
		return e
	}
	out, _ := mapExpr(e, func(l Expr) (Expr, error) {
		if p, ok := l.(*Param); ok {
			return &Lit{V: params[p.Idx]}, nil
		}
		return l, nil
	})
	return out
}

// substList substitutes params across a slice of expressions, reporting
// whether anything changed; the original slice is shared when nothing did.
func substList(list []Expr, params []relation.Value) ([]Expr, bool) {
	var out []Expr
	for i, e := range list {
		s := substExpr(e, params)
		if s != e && out == nil {
			out = append([]Expr(nil), list...)
		}
		if out != nil {
			out[i] = s
		}
	}
	if out == nil {
		return list, false
	}
	return out, true
}

// substItems substitutes params across select items.
func substItems(items []SelectItem, params []relation.Value) []SelectItem {
	if len(params) == 0 {
		return items
	}
	var out []SelectItem
	for i, item := range items {
		s := substExpr(item.Expr, params)
		if s != item.Expr && out == nil {
			out = append([]SelectItem(nil), items...)
		}
		if out != nil {
			out[i].Expr = s
		}
	}
	if out == nil {
		return items
	}
	return out
}

// substSelect substitutes params across every clause of a SELECT,
// sharing the original when it declares no placeholders.
func substSelect(s *SelectStmt, params []relation.Value) *SelectStmt {
	if len(params) == 0 {
		return s
	}
	ns := *s
	ns.List = substItems(s.List, params)
	if len(s.Joins) > 0 {
		ns.Joins = append([]Join(nil), s.Joins...)
		for i := range ns.Joins {
			ns.Joins[i].On = substExpr(ns.Joins[i].On, params)
		}
	}
	ns.Where = substExpr(s.Where, params)
	if len(s.OrderBy) > 0 {
		ns.OrderBy = append([]OrderItem(nil), s.OrderBy...)
		for i := range ns.OrderBy {
			ns.OrderBy[i].Expr = substExpr(ns.OrderBy[i].Expr, params)
		}
	}
	ns.Limit = substExpr(s.Limit, params)
	return &ns
}

// bindScan returns s with its probe keys, range bounds and filters
// bound; the shared node is returned untouched when nothing references
// a parameter.
func bindScan(s *scanNode, params []relation.Value) *scanNode {
	keys, kc := substList(s.probeKeys, params)
	filter, fc := substList(s.filter, params)
	lo := substExpr(s.rangeLo, params)
	hi := substExpr(s.rangeHi, params)
	if !kc && !fc && lo == s.rangeLo && hi == s.rangeHi {
		return s
	}
	ns := *s
	ns.probeKeys, ns.filter = keys, filter
	ns.rangeLo, ns.rangeHi = lo, hi
	return &ns
}

// bindPlan returns an executable copy of a cached plan with every Param
// replaced by its bound value. Untouched nodes are shared with the
// cached plan, which is treated as immutable after planning.
func bindPlan(p *selectPlan, params []relation.Value) *selectPlan {
	if len(params) == 0 {
		return p
	}
	np := *p
	np.scan = bindScan(p.scan, params)
	changed := np.scan != p.scan
	if len(p.joins) > 0 {
		joins := p.joins
		for i, jn := range p.joins {
			scan := bindScan(jn.scan, params)
			residual, rc := substList(jn.residual, params)
			bandLo := substExpr(jn.bandLo, params)
			bandHi := substExpr(jn.bandHi, params)
			if scan == jn.scan && !rc && bandLo == jn.bandLo && bandHi == jn.bandHi {
				continue
			}
			if &joins[0] == &p.joins[0] {
				joins = append([]*joinNode(nil), p.joins...)
			}
			nj := *jn
			nj.scan, nj.residual = scan, residual
			nj.bandLo, nj.bandHi = bandLo, bandHi
			joins[i] = &nj
			changed = true
		}
		np.joins = joins
	}
	var wc bool
	np.where, wc = substList(p.where, params)
	if !changed && !wc {
		return p
	}
	return &np
}
