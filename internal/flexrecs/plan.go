package flexrecs

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"courserank/internal/relation"
)

// This file plans workflows: every engine runs a workflow through the
// plan of its SHAPE, the way sqlmini caches a plan per statement text. A
// template builds a fresh Step tree per request, but only the values a
// student supplies change from one request to the next: the σ arguments
// and the top k. So the engine rewrites each shape once (rewrite.go; the
// identity on an engine without a registry), strips those values out of
// the result, and runs every request of the shape on that one plan, each
// with its own binding: the input tree's value-carrying nodes in preorder
// (binding). A plan node that reads a value reads it from the binding,
// through the slot its note names — with no binding it panics instead of
// answering with another request's values.
//
// A shape is everything the rewriter reads of a tree except those
// values: operator kinds and their text fields, the comparator's kind
// and configuration (compared by value: every Build makes fresh ones),
// each σ's argument count, and each argument's class — NULL, NaN, a
// value, or one SQL cannot bind — since a σ on an ε's group key moves
// and binary-searches only for a value (refsOnly). Lookup hashes the
// shape (hashShape) and confirms a hit node by node (sameShape); neither
// allocates for the int64, float64, string and NULL arguments templates
// bind. The cache holds compiledCacheMax plans at most; past that a
// new shape is planned per call, by the same function.
//
// Every node that executes carries a note, and the note is what a plan
// keeps for it: a sqlable node's statement and the order its
// placeholders bind in, compiled on the node's first run, and a view's
// registry key, computed once when its subtree binds nothing. A view's
// key is made from the same exact shape (matKey).

// planNote is what a plan keeps for one of its nodes.
type planNote struct {
	// slot is the node's entry in a request's binding — the input node
	// whose σ arguments or top k it runs with — or -1: it binds nothing.
	slot int
	// viewKey is a matStep's registry key when its subtree binds nothing.
	viewKey string
	// compiled is a sqlable node's statement, compiled on its first run.
	compiled atomic.Pointer[compiledSQL]
}

// binding is one request's values for a plan: the nodes of the request's
// own tree that carry values (carriesValues), in preorder.
type binding []*Step

// of returns the node whose values s runs with: s itself, unless s is a
// plan node that binds one.
func (b binding) of(s *Step) *Step {
	if s.plan == nil || s.plan.slot < 0 {
		return s
	}
	return b[s.plan.slot]
}

// carriesValues reports whether s holds request values: a σ with
// arguments, or a top (or limit) k.
func carriesValues(s *Step) bool {
	return s.kind == topStep || s.kind == limitStep || (s.kind == selectStep && len(s.args) > 0)
}

// bindTo appends w's value-carrying nodes to b in preorder.
func bindTo(w *Step, b binding) binding {
	if w == nil {
		return b
	}
	if carriesValues(w) {
		b = append(b, w)
	}
	return bindTo(w.other, bindTo(w.child, b))
}

// cachedPlan is one shape's plan.
type cachedPlan struct {
	shape []shapeNode
	root  *Step
	binds int         // the binding's length
	next  *cachedPlan // another shape with the same hash
}

// bind takes w's values for the plan.
func (p *cachedPlan) bind(w *Step) binding {
	return bindTo(w, make(binding, 0, p.binds))
}

// planCache maps shape hashes to plans. Readers load the map without a
// lock; a new plan is published in a copy of it.
type planCache struct {
	mu    sync.Mutex // serializes publishing
	m     atomic.Pointer[map[uint64]*cachedPlan]
	count int // plans published; guarded by mu
}

func (c *planCache) lookup(h uint64, w *Step) *cachedPlan {
	if m := c.m.Load(); m != nil {
		for p := (*m)[h]; p != nil; p = p.next {
			if sameShape(w, p.shape) {
				return p
			}
		}
	}
	return nil
}

// publish caches p under h, unless a request racing this one cached the
// shape first — then that plan is returned — or the cache is full, when
// p serves this call only.
func (c *planCache) publish(h uint64, w *Step, p *cachedPlan) *cachedPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if q := c.lookup(h, w); q != nil {
		return q
	}
	if c.count >= compiledCacheMax {
		return p
	}
	m := make(map[uint64]*cachedPlan, c.count+1)
	if old := c.m.Load(); old != nil {
		maps.Copy(m, *old)
	}
	p.next = m[h]
	m[h] = p
	c.m.Store(&m)
	c.count++
	return p
}

// plan returns the tree the engine runs for w — the plan of w's shape —
// and w's binding to it.
func (e *Engine) plan(w *Step) (*Step, binding) {
	h := hashShape(w)
	p := e.plans.lookup(h, w)
	if p == nil {
		p = e.plans.publish(h, w, e.planFor(w))
	}
	return p.root, p.bind(w)
}

// planFor rewrites w's shape into a plan: w is copied as a tree (a node
// it reaches twice is copied twice) whose value-carrying nodes note
// their preorder slot, the copy is rewritten — the rewriter carries each
// note to the node that takes over its values — and notePlan strips the
// values out.
func (e *Engine) planFor(w *Step) *cachedPlan {
	p := &cachedPlan{}
	own := p.own(w)
	p.root = e.rewrite(own)
	notePlan(p.root)
	return p
}

// own copies s for planFor, recording its shape.
func (p *cachedPlan) own(s *Step) *Step {
	if s == nil {
		p.shape = append(p.shape, shapeNode{})
		return nil
	}
	key := *s
	key.args, key.k, key.child, key.other = nil, 0, nil, nil
	node := shapeNode{s: &key}
	for _, a := range s.args {
		node.args = append(node.args, classOf(a))
	}
	p.shape = append(p.shape, node)
	dup := *s
	if carriesValues(s) {
		dup.plan = &planNote{slot: p.binds}
		p.binds++
	}
	dup.child = p.own(s.child)
	dup.other = p.own(s.other)
	return &dup
}

// notePlan finishes a rewritten tree as a plan: every node gets a note,
// a view over a subtree that binds nothing gets its registry key, and
// every value is stripped from the tree. It reports whether s's subtree
// binds a value.
func notePlan(s *Step) bool {
	if s == nil {
		return false
	}
	child, other := notePlan(s.child), notePlan(s.other)
	if s.plan == nil {
		s.plan = &planNote{slot: -1}
	}
	if s.kind == matStep && !child {
		s.plan.viewKey = matKey(s, nil)
	}
	if s.plan.slot < 0 {
		return child || other
	}
	s.args, s.k = nil, 0
	return true
}

// unplan copies a plan subtree back into a workflow that carries its own
// values, b's: what a view builds from. Each node gets a note of its own
// that binds nothing — a statement belongs to the engine that runs it,
// and a maintained view builds on another — so every rebuild reuses the
// statements the first build compiled.
func unplan(s *Step, b binding) *Step {
	if s == nil {
		return nil
	}
	dup := *s
	v := b.of(s)
	dup.plan, dup.args, dup.k = &planNote{slot: -1}, v.args, v.k
	dup.child, dup.other = unplan(s.child, b), unplan(s.other, b)
	return &dup
}

// argClass is what the rewriter can tell of a σ argument.
type argClass uint8

const (
	argValue argClass = iota
	argNull
	argNaN
	argBad // not a value SQL can bind
)

func classOf(a any) argClass {
	v, err := relation.Normalize(a)
	switch {
	case err != nil:
		return argBad
	case v == nil:
		return argNull
	case isNaNKey(v):
		return argNaN
	}
	return argValue
}

// shapeNode is one node of a shape, in preorder: the node without its
// values or operands, and its σ arguments by class. An absent operand is
// a shapeNode with a nil s.
type shapeNode struct {
	s    *Step
	args []argClass
}

// texts lists a node's text fields.
func (s *Step) texts() [11]string {
	return [11]string{s.table, s.cond, s.on, s.groupBy, s.keyCol, s.valCol, s.as,
		s.scoreAs, s.blendKey, s.orderCol, s.view}
}

// shapeHash is FNV-1a over a shape in preorder.
type shapeHash uint64

const shapeHashSeed shapeHash = 14695981039346656037

func hashShape(w *Step) uint64 {
	h := shapeHashSeed
	h.node(w)
	return uint64(h)
}

func (h *shapeHash) byte(c byte) { *h = (*h ^ shapeHash(c)) * 1099511628211 }

func (h *shapeHash) str(t string) {
	for i := 0; i < len(t); i++ {
		h.byte(t[i])
	}
	h.byte(0)
}

func (h *shapeHash) float(f float64) {
	for v, i := math.Float64bits(f), 0; i < 64; i += 8 {
		h.byte(byte(v >> i))
	}
}

func (h *shapeHash) node(s *Step) {
	if s == nil {
		h.byte(0)
		return
	}
	h.fields(s)
	h.byte(byte(len(s.args)))
	for _, a := range s.args {
		h.byte(byte(classOf(a)))
	}
	h.node(s.child)
	h.node(s.other)
}

// fields hashes what sameShape compares of a node besides its arguments
// and operands: kind, text fields, comparator by value, blend weights by
// their bits and direction.
func (h *shapeHash) fields(s *Step) {
	h.byte(byte(s.kind))
	h.byte(byte(s.keyOp))
	for _, t := range s.texts() {
		h.str(t)
	}
	h.byte(byte(len(s.cols)))
	for _, c := range s.cols {
		h.str(c)
	}
	switch c := s.cmp.(type) {
	case *jaccardCmp:
		h.str(c.attr)
	case *vectorCmp:
		h.str(c.name)
		h.str(c.attr)
	case *wavgCmp:
		h.str(c.keyAttr)
		h.str(c.vecAttr)
		h.str(c.weightAttr)
	case nil:
	default: // any other comparator (only tests define one), by value
		h.str(fmt.Sprintf("%#v", c))
	}
	h.float(s.wL)
	h.float(s.wR)
	if s.desc {
		h.byte(1)
	}
}

// sameShape reports whether w has the shape.
func sameShape(w *Step, shape []shapeNode) bool {
	i, ok := matchShape(w, shape, 0)
	return ok && i == len(shape)
}

// matchShape matches the subtree s against shape from index i on,
// returning the index after it.
func matchShape(s *Step, shape []shapeNode, i int) (int, bool) {
	if i >= len(shape) {
		return i, false
	}
	n := shape[i]
	if s == nil || n.s == nil {
		return i + 1, s == nil && n.s == nil
	}
	k := n.s
	if s.kind != k.kind || s.keyOp != k.keyOp || s.texts() != k.texts() || !slices.Equal(s.cols, k.cols) ||
		math.Float64bits(s.wL) != math.Float64bits(k.wL) || math.Float64bits(s.wR) != math.Float64bits(k.wR) ||
		s.desc != k.desc || len(s.args) != len(n.args) || !sameCmp(s.cmp, k.cmp) {
		return i, false
	}
	for j, a := range s.args {
		if classOf(a) != n.args[j] {
			return i, false
		}
	}
	i, ok := matchShape(s.child, shape, i+1)
	if !ok {
		return i, false
	}
	return matchShape(s.other, shape, i)
}

// sameCmp compares two comparators by kind and configuration. A
// comparator of another type matches an equal value of its own type, if
// the type is comparable.
func sameCmp(a, b Comparator) bool {
	switch x := a.(type) {
	case *jaccardCmp:
		y, ok := b.(*jaccardCmp)
		return ok && *x == *y
	case *vectorCmp:
		// The name picks the function: the constructors pair them.
		y, ok := b.(*vectorCmp)
		return ok && x.attr == y.attr && x.name == y.name
	case *wavgCmp:
		y, ok := b.(*wavgCmp)
		return ok && *x == *y
	}
	t := reflect.TypeOf(a)
	return t == reflect.TypeOf(b) && (t == nil || t.Comparable()) && a == b
}
