package flexrecs

import (
	"strings"

	"courserank/internal/sqlmini"
)

// This file is the workflow rewriter: the one compile-time pass between
// a validated Step tree and its execution, where the engine — not the
// template author — decides how a declarative workflow runs (paper
// §3.2). It runs once per workflow SHAPE, not per request (plan.go):
// the engine keys its result by a fingerprint of everything the pass
// reads — operator kinds and text, comparators by kind and
// configuration, each σ's argument count and each argument's class
// (NULL, NaN, a value, unbindable) — confirmed node by node, and keeps
// it with every σ argument and top k stripped out. Each request then
// binds its own values into that plan: the input tree's σs with
// arguments and its tops, in preorder, each plan node reading its
// values through the slot it was given when the pass copied it. Three
// rules, all answer-preserving row for row:
//
//	(a) σ/ε commutation. ε[g: k→v as A](X) decides group membership by g
//	    alone, so a selection of X that mentions no column but g keeps or
//	    drops whole groups and may run after the nesting instead of
//	    before it: ε(σ[c](X₀)) ≡ σ[c](ε(X₀)). ε emits groups in
//	    ascending group-key order, so the surviving groups keep theirs.
//	    The move is made only when it leaves X₀ free of '?' arguments —
//	    the point is to expose a prefix every request shares.
//	(b) Automatic materialization. Every maximal parameter-free subtree
//	    that is an ε, or a whole operand of ▷/blend, is wrapped in a
//	    materialize step named as a pure function of the subtree, so all
//	    templates (and all students) that nest the same ratings read ONE
//	    view, kept current against its base tables' (SchemaEpoch,
//	    Version): an ε over one table is patched per group a write
//	    touches (materialize.go), any other view rebuilds.
//	(d) τ pushdown. top[k](X) over a subtree X that compiles to one SQL
//	    statement — with or without an outermost order — is that
//	    statement plus LIMIT ?, k bound as its last argument: one compiled
//	    shape and one cached plan for every k. The DBMS then stops at k
//	    rows (sqlmini ends the pipeline at the window and plans its joins
//	    for k rows, a shard fan-out asks each shard for k) instead of
//	    handing over its whole result to be cut. Not a rewrite but its
//	    executor twin: a top over ▷ or blend passes k to the operator,
//	    which scores every candidate and builds only the k rows kept
//	    (engine.go applyStep); a top over anything else stays a slice.
//
// Figure 5(b) as the template draws it,
//
//	▷[inv_Euclidean]( ε(σ[SuID <> ?](ratings)), ε(σ[SuID = ?](ratings)) )
//
// therefore runs as two cheap selections over one shared, maintained
// nesting instead of re-nesting every student's ratings per request.
//
// The pass needs somewhere to put the views: on an engine without a
// matview registry it is the identity — rule (d) included, though it
// places no view — which is also what keeps ForceScan handles and plain
// engines the naive, drained-then-truncated side of every parity test.
// (There is no rule (c): ROADMAP item 1(c) was profile-chosen executor
// work, not a rewrite.)

// rewrite returns the tree the engine executes for w, values included;
// planFor strips them out. The input is never modified — callers reuse
// trees across engines — and untouched subtrees are shared with it. A
// node the rewriter replaces hands its plan note (its binding slot) to
// the node that takes over its values.
func (e *Engine) rewrite(w *Step) *Step {
	if e.views == nil {
		return w
	}
	return pushTopK(materializeFree(hoistGroupSelects(w), false))
}

// pushTopK applies rule (d) everywhere below s.
func pushTopK(s *Step) *Step {
	if s == nil || s.kind == matStep || sqlable(s) {
		// A view caches its subtree as written; a sqlable subtree holds
		// no top.
		return s
	}
	if s.kind == topStep && sqlable(s.child) {
		return &Step{kind: limitStep, k: s.k, child: s.child, plan: s.plan}
	}
	child, other := pushTopK(s.child), pushTopK(s.other)
	if child == s.child && other == s.other {
		return s
	}
	dup := *s
	dup.child, dup.other = child, other
	return &dup
}

// hoistGroupSelects applies rule (a) everywhere below s.
func hoistGroupSelects(s *Step) *Step {
	if s == nil || s.kind == matStep || sqlable(s) {
		// A view caches its subtree as written; a sqlable subtree holds
		// no ε.
		return s
	}
	child, other := hoistGroupSelects(s.child), hoistGroupSelects(s.other)
	if child != s.child || other != s.other {
		dup := *s
		dup.child, dup.other = child, other
		s = &dup
	}
	if s.kind != extendStep || strings.EqualFold(s.as, s.groupBy) {
		return s
	}
	if !singleTableSpine(s.child) {
		return s
	}
	var moved []*Step
	x0 := stripGroupSelects(s.child, s.groupBy, &moved)
	if len(moved) == 0 || !paramFree(x0) {
		return s
	}
	ext := *s
	ext.child = x0
	out := &ext
	for i := len(moved) - 1; i >= 0; i-- {
		moved[i].child = out
		out = moved[i]
	}
	return out
}

// singleTableSpine reports whether s is a chain of σ/π over one base
// table — the only operand shape rule (a) moves selections out of.
// Under a join the unqualified group column could be ambiguous to SQL
// yet unique in the nested result, and the two forms would then
// disagree on an error.
func singleTableSpine(s *Step) bool {
	for s.kind == selectStep || s.kind == projectStep {
		s = s.child
	}
	return s.kind == relStep
}

// stripGroupSelects rebuilds a single-table spine without the selections
// that reference only the group column g, collecting those outermost
// first, each as a fresh σ for the caller to place above the ε.
func stripGroupSelects(s *Step, g string, moved *[]*Step) *Step {
	if s.kind == relStep {
		return s
	}
	if s.kind == selectStep {
		if only, op := refsOnly(s.cond, s.args, g); only {
			*moved = append(*moved, &Step{kind: selectStep, keyOp: op, cond: s.cond, args: s.args, plan: s.plan})
			return stripGroupSelects(s.child, g, moved)
		}
	}
	child := stripGroupSelects(s.child, g, moved)
	if child == s.child {
		return s
	}
	dup := *s
	dup.child = child
	return &dup
}

// refsOnly reports whether a selection condition references no column
// other than the unqualified g. A condition that does not parse is left
// where it is, to fail where it always has. When the condition is
// g = ? or g <> ? (either way round) and its one argument is neither
// NULL nor NaN, op says which: above the ε such a σ keeps a run of its
// groups, which ε emits in ascending relation.Compare order — the order
// SQL's = and <> compare by — so it finds them by binary search
// (groupRun). NULL and NaN are left to the evaluator: SQL compares
// nothing to NULL, and Compare calls NaN equal to every number.
func refsOnly(cond string, args []any, g string) (only bool, op keyOp) {
	expr, err := sqlmini.ParseExpr(cond, args...)
	if err != nil {
		return false, noKeyOp
	}
	only = true
	var walk func(sqlmini.Expr)
	walk = func(e sqlmini.Expr) {
		switch x := e.(type) {
		case nil, *sqlmini.Lit, *sqlmini.Param:
		case *sqlmini.Ref:
			if x.Qual != "" || !strings.EqualFold(x.Name, g) {
				only = false
			}
		case *sqlmini.Unary:
			walk(x.X)
		case *sqlmini.Binary:
			walk(x.L)
			walk(x.R)
		case *sqlmini.Between:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		default:
			only = false // an expression form this pass does not know
		}
	}
	walk(expr)
	b, ok := expr.(*sqlmini.Binary)
	if !only || !ok || len(args) != 1 || (b.Op != "=" && b.Op != "<>") {
		return only, noKeyOp
	}
	// With one argument bound, a literal beside g is that argument.
	lit, ok := b.R.(*sqlmini.Lit)
	if !ok {
		lit, ok = b.L.(*sqlmini.Lit)
	}
	_, lref := b.L.(*sqlmini.Ref)
	_, rref := b.R.(*sqlmini.Ref)
	if !ok || lref == rref || lit.V == nil || isNaNKey(lit.V) {
		return only, noKeyOp
	}
	if b.Op == "=" {
		return only, keyEq
	}
	return only, keyNe
}

// paramFree reports whether a subtree's result is the same for every
// request: no selection binds a '?' argument. A view already in the
// tree counts as parameterized, so the rewriter never nests one view in
// another.
func paramFree(s *Step) bool {
	if s == nil {
		return true
	}
	if s.kind == matStep || (s.kind == selectStep && len(s.args) > 0) {
		return false
	}
	return paramFree(s.child) && paramFree(s.other)
}

// materializeFree applies rule (b) top-down, so the views it places are
// the maximal ones. operand marks a whole operand of ▷ or blend.
func materializeFree(s *Step, operand bool) *Step {
	if s == nil || s.kind == matStep {
		return s
	}
	if (operand || s.kind == extendStep) && paramFree(s) {
		return s.materialize(autoViewName(s))
	}
	if sqlable(s) {
		return s
	}
	operands := s.kind == recommendStep || s.kind == blendStep
	child, other := materializeFree(s.child, operands), materializeFree(s.other, operands)
	if child == s.child && other == s.other {
		return s
	}
	dup := *s
	dup.child, dup.other = child, other
	return &dup
}

// autoViewName names the view over a parameter-free subtree from the
// subtree alone (matKey appends a fingerprint of its shape): the ε that
// nests Comments as Ratings is "ratings-extend" in whichever template it
// appears, a whole-table operand is "courses-operand".
func autoViewName(s *Step) string {
	if s.kind == extendStep {
		return strings.ToLower(s.as) + "-extend"
	}
	return strings.ToLower(strings.Join(baseTables(s), "+")) + "-operand"
}
