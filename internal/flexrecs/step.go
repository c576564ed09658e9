package flexrecs

import (
	"fmt"
	"strings"
)

// stepKind discriminates workflow operators.
type stepKind uint8

const (
	relStep stepKind = iota + 1
	selectStep
	projectStep
	joinStep
	extendStep
	recommendStep
	blendStep
	topStep
	orderStep
	matStep
	limitStep // top[k] the rewriter pushed into its child's statement (rewrite.go rule d)
)

// keyOp is the comparison of a σ on an ε's group key, if it is one.
type keyOp uint8

const (
	noKeyOp keyOp = iota // any other σ, and every other step
	keyEq                // g = ?
	keyNe                // g <> ?
)

// Step is one node of a workflow DAG. Workflows are built fluently:
//
//	similar := flexrecs.Recommend(
//	    flexrecs.Rel("Courses").Select("Year = 2008"),
//	    flexrecs.Rel("Courses").Select("Title = ?", "Introduction to Programming"),
//	    flexrecs.JaccardOn("Title"),
//	).Top(10)
//
// which is exactly the related-course workflow of Figure 5(a).
type Step struct {
	kind stepKind

	// keyOp marks a selectStep the rewriter hoisted above an ε whose
	// condition is g = ? or g <> ? on the ε's group key g (refsOnly):
	// such a σ finds its rows by binary search (groupRun).
	keyOp keyOp

	table string // relStep: base table (may carry an alias, "Courses c")

	cond string // selectStep: SQL boolean expression
	args []any  // selectStep: placeholder bindings

	cols []string // projectStep

	on string // joinStep: SQL join condition

	groupBy, keyCol, valCol, as string // extendStep

	cmp     Comparator // recommendStep
	scoreAs string     // recommendStep: output column (default "Score")

	blendKey string // blendStep: join key column
	wL, wR   float64

	k int // topStep, limitStep

	orderCol string // orderStep
	desc     bool

	view string // matStep: the view's name

	child, other *Step // other = join right side / recommend reference

	// plan is set on the nodes of a cached plan only (plan.go): which of
	// a request's values the node runs with, and what the plan keeps for
	// it.
	plan *planNote
}

// Rel starts a workflow at a base table. The table string is passed
// through to SQL, so it may include an alias ("Courses c").
func Rel(table string) *Step { return &Step{kind: relStep, table: table} }

// Select appends a selection (σ) with a SQL boolean condition;
// placeholders ('?') bind to args.
func (s *Step) Select(cond string, args ...any) *Step {
	return &Step{kind: selectStep, cond: cond, args: args, child: s}
}

// Project appends a projection (π) to the named columns.
func (s *Step) Project(cols ...string) *Step {
	return &Step{kind: projectStep, cols: append([]string(nil), cols...), child: s}
}

// JoinOn appends a join with the right-hand workflow under a SQL
// condition.
func (s *Step) JoinOn(right *Step, on string) *Step {
	return &Step{kind: joinStep, on: on, child: s, other: right}
}

// Extend appends the extend operator (ε): the child relation is grouped
// by groupBy, and each group's (keyCol → valCol) pairs are nested as a
// Vector attribute named as. The output schema is (groupBy, as) — the
// set of ratings becomes "another attribute of the student irrespective
// of the database schema" (paper §3.2).
func (s *Step) Extend(groupBy, keyCol, valCol, as string) *Step {
	return &Step{kind: extendStep, groupBy: groupBy, keyCol: keyCol, valCol: valCol, as: as, child: s}
}

// Recommend builds the recommend operator (▷): it ranks the target
// tuples by comparing each to the reference tuples with the given
// comparator, appending the similarity as a "Score" column (rename with
// As) and sorting best-first.
func Recommend(target, ref *Step, cmp Comparator) *Step {
	return &Step{kind: recommendStep, child: target, other: ref, cmp: cmp, scoreAs: "Score"}
}

// As renames the score column of a recommend step.
func (s *Step) As(col string) *Step {
	if s.kind != recommendStep {
		panic("flexrecs: As applies only to Recommend steps")
	}
	dup := *s
	dup.scoreAs = col
	return &dup
}

// Blend merges two recommendation workflows — "the operator may be
// combined with other recommend operators" (§3.2). Rows pair up on the
// key column; the output score is wL·left + wR·right, with an absent
// side contributing zero (union semantics). The left side's non-score
// columns are kept for rows present on the left; right-only rows keep
// the key and score.
func Blend(left, right *Step, key, scoreCol string, wL, wR float64) *Step {
	return &Step{kind: blendStep, child: left, other: right, blendKey: key, scoreAs: scoreCol, wL: wL, wR: wR}
}

// Top truncates the workflow result to its first k rows.
func (s *Step) Top(k int) *Step { return &Step{kind: topStep, k: k, child: s} }

// OrderBy sorts the result by one column.
func (s *Step) OrderBy(col string, desc bool) *Step {
	return &Step{kind: orderStep, orderCol: col, desc: desc, child: s}
}

// materialize caches this subtree's result in the engine's
// materialized-view registry under name (matKey adds the subtree's
// shape and parameter values): the first request builds it, later
// requests serve the snapshot, brought up to date when a dependency
// table has changed. The rewriter places one over every parameter-free
// extend and ▷/blend operand (rewrite.go). On an engine without a
// registry the step is transparent.
func (s *Step) materialize(name string) *Step {
	return &Step{kind: matStep, view: name, child: s}
}

// describe renders this single operator for Explain, a plan node with
// the values b binds to it.
func (s *Step) describe(b binding) string {
	switch s.kind {
	case relStep:
		return s.table
	case selectStep:
		return "σ[" + s.cond + "]"
	case projectStep:
		return "π{" + strings.Join(s.cols, ",") + "}"
	case joinStep:
		return "⋈[" + s.on + "]"
	case extendStep:
		return fmt.Sprintf("ε[%s: %s→%s as %s]", s.groupBy, s.keyCol, s.valCol, s.as)
	case recommendStep:
		return "▷[" + s.cmp.Label() + " as " + s.scoreAs + "]"
	case blendStep:
		return fmt.Sprintf("blend[%s: %.2g·L + %.2g·R on %s]", s.scoreAs, s.wL, s.wR, s.blendKey)
	case topStep:
		return fmt.Sprintf("top[%d]", b.of(s).k)
	case limitStep:
		return fmt.Sprintf("limit[%d]", b.of(s).k)
	case orderStep:
		dir := "asc"
		if s.desc {
			dir = "desc"
		}
		return fmt.Sprintf("order[%s %s]", s.orderCol, dir)
	case matStep:
		return "matview[" + s.view + "]"
	}
	return "?"
}

// explainLine is describe plus what a plan reader needs beyond the
// operator's shape: the values bound to a residual selection's '?'s,
// shown the way compiled statements show theirs.
func (s *Step) explainLine(b binding) string {
	if args := b.of(s).args; s.kind == selectStep && len(args) > 0 {
		return fmt.Sprintf("%s  -- args %v", s.describe(b), args)
	}
	return s.describe(b)
}

// Validate checks structural well-formedness of the workflow without
// executing it: every operator has its operands, conditions are present,
// and recommend steps carry comparators.
func (s *Step) Validate() error {
	if s == nil {
		return fmt.Errorf("flexrecs: nil workflow step")
	}
	switch s.kind {
	case relStep:
		if s.table == "" {
			return fmt.Errorf("flexrecs: Rel requires a table name")
		}
		return nil
	case selectStep:
		if s.cond == "" {
			return fmt.Errorf("flexrecs: Select requires a condition")
		}
	case projectStep:
		if len(s.cols) == 0 {
			return fmt.Errorf("flexrecs: Project requires at least one column")
		}
	case joinStep:
		if s.on == "" {
			return fmt.Errorf("flexrecs: JoinOn requires a condition")
		}
		if err := s.other.Validate(); err != nil {
			return err
		}
	case extendStep:
		if s.groupBy == "" || s.keyCol == "" || s.valCol == "" || s.as == "" {
			return fmt.Errorf("flexrecs: Extend requires groupBy, key, value and output names")
		}
	case recommendStep:
		if s.cmp == nil {
			return fmt.Errorf("flexrecs: Recommend requires a comparator")
		}
		if err := s.other.Validate(); err != nil {
			return err
		}
	case blendStep:
		if s.blendKey == "" || s.scoreAs == "" {
			return fmt.Errorf("flexrecs: Blend requires key and score column names")
		}
		if err := s.other.Validate(); err != nil {
			return err
		}
	case topStep, limitStep:
		if s.k <= 0 {
			return fmt.Errorf("flexrecs: Top requires k > 0")
		}
	case orderStep:
		if s.orderCol == "" {
			return fmt.Errorf("flexrecs: OrderBy requires a column")
		}
	case matStep:
		if s.view == "" {
			return fmt.Errorf("flexrecs: materialize requires a view name")
		}
	default:
		return fmt.Errorf("flexrecs: unknown step kind %d", s.kind)
	}
	return s.child.Validate()
}
