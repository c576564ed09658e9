package sqlmini

import "courserank/internal/relation"

// ParseExpr parses a standalone SQL expression (as used in WHERE
// clauses). Placeholders bind to args. It is exported for layers — like
// the FlexRecs workflow engine — that evaluate residual predicates over
// materialized intermediate results.
func ParseExpr(src string, args ...any) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %q", p.peek().text)
	}
	params, err := bindArgs(p.nParams, args)
	if err != nil {
		return nil, err
	}
	return substExpr(e, params), nil
}

// EvalExpr evaluates a parsed expression against one row described by
// unqualified column names. Cells whose dynamic type is outside the
// relation value set (e.g. nested rating vectors) may be present in the
// row as long as the expression does not reference them.
func EvalExpr(e Expr, cols []string, row []relation.Value) (relation.Value, error) {
	rs := &rowset{cols: make([]colRef, len(cols))}
	for i, c := range cols {
		rs.cols[i] = colRef{name: c}
	}
	return evalScalar(e, row, rs)
}

// Evaluator pre-resolves an expression against unqualified column names
// and returns a closure evaluating it per row — the batched form of
// EvalExpr for layers (FlexRecs filters, materialized joins) that apply
// one predicate to many rows. Unresolvable names keep per-row
// resolution, so errors surface on the first evaluation exactly as with
// EvalExpr.
func Evaluator(e Expr, cols []string) func(row []relation.Value) (relation.Value, error) {
	rs := &rowset{cols: make([]colRef, len(cols))}
	for i, c := range cols {
		rs.cols[i] = colRef{name: c}
	}
	bound := bindOrKeep(e, rs)
	return func(row []relation.Value) (relation.Value, error) {
		return evalScalar(bound, row, rs)
	}
}

// SplitConjuncts flattens a tree of ANDs into its conjuncts — the
// decomposition the planner performs on WHERE/ON trees, exported for
// layers running their own join analysis over materialized results.
func SplitConjuncts(e Expr) []Expr { return splitConjuncts(e) }

// JoinKey injectively encodes a slice of join-key values for hash
// probing; integral floats encode like ints so 3.0 meets 3.
func JoinKey(vals []relation.Value) string { return joinKey(vals) }

// Explain plans a SELECT without executing it and renders the chosen
// physical plan: access paths (scan, index probe, primary-key lookup)
// with pushed-down predicates and row estimates, join algorithms with
// build sides, and residual filters.
func (e *Engine) Explain(sql string, args ...any) (string, error) {
	sel, err := Parse(sql, args...)
	if err != nil {
		return "", err
	}
	p, err := e.plan(sel)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}
