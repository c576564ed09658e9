package shard

import (
	"fmt"
	"strings"

	"courserank/internal/relation"
	"courserank/internal/sqlmini"
)

// pinSrc says where a partitioned binding's shard-key value comes from
// at execution: a placeholder, or a literal baked into the text.
type pinSrc struct {
	ok    bool
	param int            // >= 0: args[param]
	value relation.Value // literal, when param < 0
}

// partUse is one partitioned binding of a SELECT plus its pin.
type partUse struct {
	binding string
	table   string
	pin     pinSrc
}

// Stmt is a prepared SELECT across the cluster: one per-shard
// prepared statement plus the routing decision state. Statements are
// safe for concurrent use and cached per text on the cluster.
type Stmt struct {
	c    *Cluster
	text string
	per  []*sqlmini.Stmt
	info *sqlmini.RouteInfo

	parts     []partUse
	fanoutErr error // fan-out illegal/unsupported; pinned execution still works
}

// Prepare parses, plans and route-analyzes sql once per shard,
// memoized on the cluster by text.
func (c *Cluster) Prepare(text string) (*Stmt, error) {
	if v, ok := c.stmts.Load(text); ok {
		return v.(*Stmt), nil
	}
	per := make([]*sqlmini.Stmt, c.n)
	for i, e := range c.eng {
		st, err := e.Prepare(text)
		if err != nil {
			return nil, err
		}
		per[i] = st
	}
	info, err := per[0].RouteInfo()
	if err != nil {
		return nil, err
	}
	s := &Stmt{c: c, text: text, per: per, info: info}
	s.analyze()
	c.stmts.Store(text, s)
	return s, nil
}

// Text returns the statement's SQL text.
func (s *Stmt) Text() string { return s.text }

// Columns returns the statement's output column names.
func (s *Stmt) Columns() []string { return s.per[0].Columns() }

// analyze closes the statement's equality conjuncts into equivalence
// classes, resolves each partitioned binding's pin, and decides
// whether a fan-out would be legal.
func (s *Stmt) analyze() {
	info := s.info

	// Union-find over (binding, column) nodes.
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) { parent[find(a)] = find(b) }
	node := func(bc sqlmini.BoundCol) string {
		return strings.ToLower(bc.Binding) + "\x00" + strings.ToLower(bc.Col)
	}

	for _, eq := range info.Eq {
		if eq.Other != nil {
			union(node(eq.Col), node(*eq.Other))
		}
	}
	// First value pin per class wins; a second, conflicting pin would
	// make the predicate unsatisfiable, so routing by either is correct.
	pins := map[string]pinSrc{}
	for _, eq := range info.Eq {
		if eq.Other != nil {
			continue
		}
		root := find(node(eq.Col))
		if _, dup := pins[root]; dup {
			continue
		}
		pins[root] = pinSrc{ok: true, param: eq.Param, value: eq.Value}
	}

	for _, t := range info.Tables {
		key, partitioned := s.c.shardKeyOf(t.Name)
		if !partitioned {
			continue
		}
		root := find(node(sqlmini.BoundCol{Binding: t.Binding, Col: key}))
		s.parts = append(s.parts, partUse{binding: t.Binding, table: t.Name, pin: pins[root]})
	}

	// Fan-out legality, cheapest refusal first.
	if info.Agg {
		s.fanoutErr = fmt.Errorf("shard: %s: fan-out unsupported: an aggregate runs only when pinned to one shard", s.text)
		return
	}
	if info.HasOrder && !info.MergeOK {
		s.fanoutErr = fmt.Errorf("shard: %s: fan-out unsupported: %s", s.text, info.MergeErr)
		return
	}
	for i := 1; i < len(s.parts); i++ {
		a, b := s.parts[0], s.parts[i]
		ka, _ := s.c.shardKeyOf(a.table)
		kb, _ := s.c.shardKeyOf(b.table)
		ra := find(node(sqlmini.BoundCol{Binding: a.binding, Col: ka}))
		rb := find(node(sqlmini.BoundCol{Binding: b.binding, Col: kb}))
		if ra != rb {
			s.fanoutErr = fmt.Errorf("shard: %s: fan-out unsupported: join of %s and %s is not co-located on their shard keys", s.text, a.binding, b.binding)
			return
		}
	}
}

// routeKind is the execution-time routing decision.
type routeKind int

const (
	routeSingle routeKind = iota
	routeReplicated
	routeFanout
)

// route resolves the statement's pins against args. Single-shard
// requires every partitioned binding pinned to one owner.
func (s *Stmt) route(args []any) (routeKind, int) {
	if len(s.parts) == 0 {
		return routeReplicated, int(s.c.rr.Add(1) % uint64(s.c.n))
	}
	owner := -1
	for _, p := range s.parts {
		if !p.pin.ok {
			return routeFanout, 0
		}
		v := p.pin.value
		if p.pin.param >= 0 {
			if p.pin.param >= len(args) {
				return routeFanout, 0
			}
			nv, err := relation.Normalize(args[p.pin.param])
			if err != nil {
				return routeFanout, 0
			}
			v = nv
		}
		o := s.c.ownerOf(v)
		if owner < 0 {
			owner = o
		} else if o != owner {
			// All partitioned tables pinned, but to different shards: only a
			// co-located fan-out could answer this, and co-location implies
			// one class, hence one value. Let the fan-out path decide.
			return routeFanout, 0
		}
	}
	return routeSingle, owner
}

// Query routes and executes a SELECT, returning the materialized
// result. Single-shard routes delegate untouched to the owning
// engine; fan-outs gather per gather.go.
func (s *Stmt) Query(args ...any) (*sqlmini.Result, error) {
	kind, owner := s.route(args)
	switch kind {
	case routeSingle:
		s.c.fastPath.Add(1)
		return s.per[owner].Query(args...)
	case routeReplicated:
		s.c.replicated.Add(1)
		return s.per[owner].Query(args...)
	default:
		return s.fanoutQuery(args)
	}
}

// Explain describes the statement's routing, then shard 0's physical
// plan.
func (s *Stmt) Explain() (string, error) { return s.explain(nil, false) }

// ExplainArgs is Explain with the concrete route args would take.
func (s *Stmt) ExplainArgs(args ...any) (string, error) { return s.explain(args, true) }

func (s *Stmt) explain(args []any, concrete bool) (string, error) {
	var b strings.Builder
	if concrete {
		kind, owner := s.route(args)
		switch kind {
		case routeSingle:
			fmt.Fprintf(&b, "Route: single shard %d/%d (shard key pinned)\n", owner, s.c.n)
		case routeReplicated:
			fmt.Fprintf(&b, "Route: any single shard (replicated tables only)\n")
		default:
			fmt.Fprintf(&b, "Route: fan-out over %d shards, merge=%s\n", s.c.n, s.mergeName())
		}
	} else if len(s.parts) == 0 {
		fmt.Fprintf(&b, "Route: any single shard (replicated tables only)\n")
	} else {
		fmt.Fprintf(&b, "Route: single shard when pinned, else fan-out over %d shards, merge=%s\n", s.c.n, s.mergeName())
	}
	if s.fanoutErr != nil {
		fmt.Fprintf(&b, "Fan-out: unsupported (%v)\n", s.fanoutErr)
	}
	plan, err := s.per[0].Explain()
	if err != nil {
		return "", err
	}
	b.WriteString(plan)
	return b.String(), nil
}

func (s *Stmt) mergeName() string {
	if s.info.HasOrder {
		return "by-order"
	}
	return "concat"
}
