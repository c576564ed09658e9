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

// substExpr replaces every Param in e with its bound value, sharing
// subtrees that contain none.
func substExpr(e Expr, params []relation.Value) Expr {
	if len(params) == 0 {
		return e
	}
	switch x := e.(type) {
	case nil:
		return nil
	case *Param:
		return &Lit{V: params[x.Idx]}
	case *Lit, *Ref, *boundRef:
		return e
	case *Unary:
		if in := substExpr(x.X, params); in != x.X {
			return &Unary{Op: x.Op, X: in}
		}
		return x
	case *Binary:
		l, r := substExpr(x.L, params), substExpr(x.R, params)
		if l != x.L || r != x.R {
			return &Binary{Op: x.Op, L: l, R: r}
		}
		return x
	case *Call:
		if args, changed := substList(x.Args, params); changed {
			return &Call{Name: x.Name, Args: args, Distinct: x.Distinct, Star: x.Star}
		}
		return x
	case *In:
		v := substExpr(x.X, params)
		list, changed := substList(x.List, params)
		if v != x.X || changed {
			return &In{X: v, List: list, Not: x.Not}
		}
		return x
	case *Between:
		v, lo, hi := substExpr(x.X, params), substExpr(x.Lo, params), substExpr(x.Hi, params)
		if v != x.X || lo != x.Lo || hi != x.Hi {
			return &Between{X: v, Lo: lo, Hi: hi, Not: x.Not}
		}
		return x
	case *IsNull:
		if v := substExpr(x.X, params); v != x.X {
			return &IsNull{X: v, Not: x.Not}
		}
		return x
	case *Case:
		op, els := substExpr(x.Operand, params), substExpr(x.Else, params)
		whens, wc := substWhens(x.Whens, params)
		if op != x.Operand || els != x.Else || wc {
			return &Case{Operand: op, Whens: whens, Else: els}
		}
		return x
	}
	return e
}

// substWhens substitutes params across CASE arms, sharing the original
// slice when nothing changed.
func substWhens(whens []When, params []relation.Value) ([]When, bool) {
	var out []When
	for i, w := range whens {
		c, t := substExpr(w.Cond, params), substExpr(w.Then, params)
		if (c != w.Cond || t != w.Then) && out == nil {
			out = append([]When(nil), whens...)
		}
		if out != nil {
			out[i] = When{Cond: c, Then: t}
		}
	}
	if out == nil {
		return whens, false
	}
	return out, true
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
	ns.GroupBy, _ = substList(s.GroupBy, params)
	ns.Having = substExpr(s.Having, params)
	if len(s.OrderBy) > 0 {
		ns.OrderBy = append([]OrderItem(nil), s.OrderBy...)
		for i := range ns.OrderBy {
			ns.OrderBy[i].Expr = substExpr(ns.OrderBy[i].Expr, params)
		}
	}
	ns.Limit = substExpr(s.Limit, params)
	ns.Offset = substExpr(s.Offset, params)
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
