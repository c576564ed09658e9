package sqlmini

import (
	"fmt"
	"strconv"
	"strings"
)

// parser is a recursive-descent parser over the token stream. Placeholder
// tokens ('?') become late-bound Param expressions numbered in order.
type parser struct {
	toks    []token
	i       int
	nParams int
}

// Parse parses a single SELECT with its argument values substituted for
// the placeholders — the eagerly-bound form Explain uses. Prepared
// statements instead keep placeholders late-bound via parseStatement.
func Parse(src string, args ...any) (*SelectStmt, error) {
	stmt, n, err := parseStatement(src)
	if err != nil {
		return nil, err
	}
	params, err := bindArgs(n, args)
	if err != nil {
		return nil, err
	}
	return substSelect(stmt, params), nil
}

// parseStatement parses src leaving placeholders as Param expressions,
// reporting how many the statement declares.
func parseStatement(src string) (*SelectStmt, int, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, 0, err
	}
	if p.peek().kind != tokEOF {
		return nil, 0, p.errf("unexpected trailing input %q", p.peek().text)
	}
	return stmt, p.nParams, nil
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) errf(format string, a ...any) error {
	return fmt.Errorf("sqlmini: parse error near offset %d: %s", p.peek().pos, fmt.Sprintf(format, a...))
}

// acceptKeyword consumes the next token if it is the given keyword.
func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokIdent && t.upper() == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if t := p.peek(); t.kind == tokIdent {
		p.i++
		return t.text, nil
	}
	return "", p.errf("expected identifier, got %q", p.peek().text)
}

// parseStmt parses the one statement sqlmini runs, a SELECT. The engine
// is read-only: every write goes through relation.Table or relation.Tx,
// so data-changing and DDL keywords are refused by name.
func (p *parser) parseStmt() (*SelectStmt, error) {
	switch kw := p.peek().upper(); kw {
	case "SELECT":
		return p.parseSelect()
	case "INSERT", "UPDATE", "DELETE", "CREATE":
		return nil, fmt.Errorf("sqlmini: %s is not supported: sqlmini is read-only, write through relation.Table or relation.Tx", kw)
	}
	return nil, p.errf("expected statement, got %q", p.peek().text)
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	s.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.List = append(s.List, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	ref, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	s.From = ref
	for {
		if t := p.peek(); t.kind == tokIdent && outerJoinWords[t.upper()] {
			return nil, fmt.Errorf("sqlmini: %s JOIN is not supported: sqlmini joins are INNER", t.upper())
		}
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		jref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Joins = append(s.Joins, Join{Ref: jref, On: on})
	}
	if p.acceptKeyword("WHERE") {
		if s.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		if s.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		if s.Limit, err = p.parseExpr(); err != nil {
			return nil, err
		}
		if p.acceptKeyword("OFFSET") {
			if s.Offset, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// "*" or "alias.*"
	if p.peek().kind == tokSymbol && p.peek().text == "*" {
		p.i++
		return SelectItem{Star: true}, nil
	}
	if p.peek().kind == tokIdent && p.i+2 < len(p.toks) &&
		p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "." &&
		p.toks[p.i+2].kind == tokSymbol && p.toks[p.i+2].text == "*" {
		qual := p.next().text
		p.next()
		p.next()
		return SelectItem{Star: true, StarQual: qual}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		if item.Alias, err = p.expectIdent(); err != nil {
			return SelectItem{}, err
		}
	} else if t := p.peek(); t.kind == tokIdent && !reserved[t.upper()] {
		item.Alias = p.next().text
	}
	return item, nil
}

// reserved lists keywords that terminate an implicit column or table
// alias.
var reserved = map[string]bool{
	"FROM": true, "WHERE": true, "GROUP": true, "HAVING": true, "ORDER": true,
	"LIMIT": true, "OFFSET": true, "JOIN": true, "INNER": true, "LEFT": true,
	"RIGHT": true, "FULL": true, "CROSS": true, "OUTER": true, "NATURAL": true,
	"ON": true, "AND": true, "OR": true, "NOT": true, "AS": true, "ASC": true,
	"DESC": true, "SELECT": true, "DISTINCT": true, "BY": true, "IN": true,
	"BETWEEN": true, "IS": true, "NULL": true, "LIKE": true, "VALUES": true,
	"SET": true, "INTO": true, "UNION": true,
}

// outerJoinWords are the join keywords sqlmini refuses by name: every
// join it runs is INNER, so an outer, cross or natural join must fail
// at parse time rather than run as something it is not.
var outerJoinWords = map[string]bool{
	"LEFT": true, "RIGHT": true, "FULL": true, "CROSS": true, "OUTER": true, "NATURAL": true,
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.acceptKeyword("AS") {
		if ref.Alias, err = p.expectIdent(); err != nil {
			return TableRef{}, err
		}
	} else if t := p.peek(); t.kind == tokIdent && !reserved[t.upper()] {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// --- expressions ---

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

// parseCase parses the body after the consumed CASE keyword.
func (p *parser) parseCase() (Expr, error) {
	c := &Case{}
	if t := p.peek(); !(t.kind == tokIdent && t.upper() == "WHEN") {
		operand, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = operand
	}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, When{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		not := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Not: not}, nil
	}
	not := false
	if t := p.peek(); t.kind == tokIdent && t.upper() == "NOT" {
		// Lookahead for NOT IN / NOT BETWEEN / NOT LIKE.
		if p.i+1 < len(p.toks) {
			nx := p.toks[p.i+1].upper()
			if nx == "IN" || nx == "BETWEEN" || nx == "LIKE" {
				p.i++
				not = true
			}
		}
	}
	switch {
	case p.acceptKeyword("IN"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		in := &In{X: l, Not: not}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Between{X: l, Lo: lo, Hi: hi, Not: not}, nil
	case p.acceptKeyword("LIKE"):
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		op := "LIKE"
		if not {
			op = "NOT LIKE"
		}
		return &Binary{Op: op, L: l, R: r}, nil
	case not:
		return nil, p.errf("dangling NOT")
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.acceptSymbol(op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptSymbol("+"):
			op = "+"
		case p.acceptSymbol("-"):
			op = "-"
		case p.acceptSymbol("||"):
			op = "||"
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptSymbol("*"):
			op = "*"
		case p.acceptSymbol("/"):
			op = "/"
		case p.acceptSymbol("%"):
			op = "%"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.i++
		if strings.ContainsRune(t.text, '.') {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return &Lit{V: f}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &Lit{V: n}, nil
	case tokString:
		p.i++
		return &Lit{V: t.text}, nil
	case tokPlaceholder:
		p.i++
		p.nParams++
		return &Param{Idx: p.nParams - 1}, nil
	case tokSymbol:
		if t.text == "(" {
			p.i++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		switch t.upper() {
		case "NULL":
			p.i++
			return &Lit{V: nil}, nil
		case "TRUE":
			p.i++
			return &Lit{V: true}, nil
		case "FALSE":
			p.i++
			return &Lit{V: false}, nil
		case "CASE":
			p.i++
			return p.parseCase()
		}
		p.i++
		name := t.text
		// Function call?
		if p.acceptSymbol("(") {
			call := &Call{Name: strings.ToUpper(name)}
			if p.acceptSymbol("*") {
				call.Star = true
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if p.acceptSymbol(")") {
				return call, nil
			}
			call.Distinct = p.acceptKeyword("DISTINCT")
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, e)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		// Qualified reference?
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &Ref{Qual: name, Name: col}, nil
		}
		return &Ref{Name: name}, nil
	}
	return nil, p.errf("unexpected token %q", t.text)
}
