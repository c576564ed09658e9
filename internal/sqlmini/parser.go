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

// errf reports a parse error at the next token — unless that token is
// a construct outside the dialect, which is refused by name instead.
func (p *parser) errf(format string, a ...any) error {
	if t := p.peek(); (t.kind == tokIdent || t.kind == tokSymbol) && notInDialect[t.upper()] {
		return refuse(t.upper())
	}
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
			col, err := p.parseColumn()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, col)
			if !p.acceptSymbol(",") {
				break
			}
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
	var e Expr
	var err error
	if name := p.peek().upper(); aggregates[name] && p.peekCall() {
		e, err = p.parseAggregate(name)
	} else {
		e, err = p.parseExpr()
	}
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

// aggregates are the aggregate functions sqlmini computes. Each is a
// whole select item: COUNT(*), COUNT(x) or AVG(x).
var aggregates = map[string]bool{"COUNT": true, "AVG": true}

// peekCall reports whether the next token is an identifier followed by
// "(" — a function call.
func (p *parser) peekCall() bool {
	return p.peek().kind == tokIdent && p.i+1 < len(p.toks) &&
		p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "("
}

// parseAggregate parses COUNT(*), COUNT(x) or AVG(x).
func (p *parser) parseAggregate(name string) (Expr, error) {
	p.i += 2 // name and "("
	call := &Call{Name: name}
	if name == "COUNT" && p.acceptSymbol("*") {
		call.Star = true
	} else {
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.Arg = arg
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return call, nil
}

// reserved lists keywords that terminate an implicit column or table
// alias and never name a column.
var reserved = map[string]bool{
	"FROM": true, "WHERE": true, "GROUP": true, "HAVING": true, "ORDER": true,
	"LIMIT": true, "OFFSET": true, "JOIN": true, "INNER": true, "LEFT": true,
	"RIGHT": true, "FULL": true, "CROSS": true, "OUTER": true, "NATURAL": true,
	"ON": true, "AND": true, "OR": true, "NOT": true, "AS": true, "ASC": true,
	"DESC": true, "SELECT": true, "DISTINCT": true, "BY": true, "IN": true,
	"BETWEEN": true, "IS": true, "NULL": true, "LIKE": true, "VALUES": true,
	"SET": true, "INTO": true, "UNION": true, "CASE": true,
}

// outerJoinWords are the join keywords sqlmini refuses by name: every
// join it runs is INNER, so an outer, cross or natural join must fail
// at parse time rather than run as something it is not.
var outerJoinWords = map[string]bool{
	"LEFT": true, "RIGHT": true, "FULL": true, "CROSS": true, "OUTER": true, "NATURAL": true,
}

// notInDialect lists the keywords, functions and operators of SQL that
// sqlmini's dialect leaves out because no statement the product sends
// uses them. The parser refuses each by name wherever it stops on one.
var notInDialect = map[string]bool{
	"OR": true, "NOT": true, "IN": true, "IS": true, "LIKE": true, "CASE": true,
	"DISTINCT": true, "HAVING": true, "OFFSET": true,
	"SUM": true, "MIN": true, "MAX": true,
	"LOWER": true, "UPPER": true, "LENGTH": true, "ABS": true, "ROUND": true, "COALESCE": true, "SUBSTR": true,
	"||": true, "*": true, "/": true, "%": true,
}

func refuse(word string) error {
	return fmt.Errorf("sqlmini: %s is not supported: it is outside sqlmini's dialect", word)
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
//
//	cond := pred {AND pred}
//	pred := add [(= | <> | != | < | <= | > | >=) add | BETWEEN add AND add]
//	add  := ["-"] prim {(+ | -) ["-"] prim}
//	prim := number | 'string' | ? | NULL | TRUE | FALSE | [a.]col | (cond)

func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parsePred()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parsePred()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parsePred() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("BETWEEN") {
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
		return &Between{X: l, Lo: lo, Hi: hi}, nil
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
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := "+"
		if !p.acceptSymbol("+") {
			if !p.acceptSymbol("-") {
				return l, nil
			}
			op = "-"
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
		x, err := p.parsePrimary()
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
		if p.acceptSymbol("(") {
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
		switch u := t.upper(); {
		case u == "NULL":
			p.i++
			return &Lit{V: nil}, nil
		case u == "TRUE":
			p.i++
			return &Lit{V: true}, nil
		case u == "FALSE":
			p.i++
			return &Lit{V: false}, nil
		case p.peekCall():
			switch {
			case notInDialect[u]:
				return nil, refuse(u)
			case aggregates[u]:
				return nil, p.errf("aggregate %s is allowed only as a whole select item", u)
			}
			return nil, p.errf("unknown function %s", t.text)
		case !reserved[u]:
			return p.parseColumn()
		}
	}
	return nil, p.errf("unexpected token %q", t.text)
}

// parseColumn parses a column reference, [alias.]col.
func (p *parser) parseColumn() (Expr, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.acceptSymbol(".") {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &Ref{Qual: name, Name: col}, nil
	}
	return &Ref{Name: name}, nil
}
