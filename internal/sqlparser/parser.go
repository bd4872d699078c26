package sqlparser

import (
	"fmt"
	"strings"

	"repro/internal/ast"
)

// Parse parses a single SQL SELECT statement into its AST. A trailing
// semicolon is allowed; any other trailing input is an error.
func Parse(sql string) (*ast.Node, error) {
	p, err := newParser(sql)
	if err != nil {
		return nil, err
	}
	stmt, perr := p.parseSelect()
	if perr != nil {
		return nil, perr
	}
	if p.peek().kind == tokSemi {
		p.advance()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected trailing input %s", p.peek())
	}
	return stmt, nil
}

// MustParse parses sql and panics on error; intended for tests and
// workload generators whose inputs are program constants.
func MustParse(sql string) *ast.Node {
	n, err := Parse(sql)
	if err != nil {
		panic(err)
	}
	return n
}

type parser struct {
	src  string
	toks []token
	i    int
}

func newParser(sql string) (*parser, *Error) {
	toks, err := newLexer(sql).lex()
	if err != nil {
		return nil, err
	}
	return &parser{src: sql, toks: toks}, nil
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) peek2() token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) advance() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) *Error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, got %s", strings.ToUpper(kw), p.peek())
	}
	return nil
}

func (p *parser) expect(kind tokenKind) (token, *Error) {
	if p.peek().kind != kind {
		return token{}, p.errorf("expected %s, got %s", kind, p.peek())
	}
	return p.advance(), nil
}

func (p *parser) errorf(format string, args ...any) *Error {
	return &Error{Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...), SQL: p.src}
}

// parseSelect parses SELECT [DISTINCT] [TOP n] projlist [FROM ...]
// [WHERE ...] [GROUP BY ...] [HAVING ...] [ORDER BY ...] [LIMIT n].
func (p *parser) parseSelect() (*ast.Node, *Error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	sel := ast.NewSelect()
	if p.acceptKeyword("distinct") {
		sel.SetAttr("distinct", "true")
	}
	if p.acceptKeyword("top") {
		n, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		sel.Children[ast.SlotLimit] = ast.NewAttr(ast.TypeLimit, "kind", "top", n)
	}

	proj, err := p.parseProjectList()
	if err != nil {
		return nil, err
	}
	sel.Children[ast.SlotProject] = proj

	if p.acceptKeyword("from") {
		from, err := p.parseFromList()
		if err != nil {
			return nil, err
		}
		sel.Children[ast.SlotFrom] = from
	}
	if p.acceptKeyword("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Children[ast.SlotWhere] = ast.New(ast.TypeWhere, e)
	}
	if p.atKeyword("group") {
		p.advance()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		g := ast.New(ast.TypeGroupBy)
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			g.Children = append(g.Children, e)
			if p.peek().kind != tokComma {
				break
			}
			p.advance()
		}
		sel.Children[ast.SlotGroupBy] = g
	}
	if p.acceptKeyword("having") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Children[ast.SlotHaving] = ast.New(ast.TypeHaving, e)
	}
	if p.atKeyword("order") {
		p.advance()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		o := ast.New(ast.TypeOrderBy)
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			oc := ast.New(ast.TypeOrderClause, e)
			if p.acceptKeyword("desc") {
				oc.SetAttr("dir", "desc")
			} else if p.acceptKeyword("asc") {
				oc.SetAttr("dir", "asc")
			}
			o.Children = append(o.Children, oc)
			if p.peek().kind != tokComma {
				break
			}
			p.advance()
		}
		sel.Children[ast.SlotOrderBy] = o
	}
	if p.acceptKeyword("limit") {
		if !ast.IsEmptyClause(sel.Children[ast.SlotLimit]) {
			return nil, p.errorf("both TOP and LIMIT present")
		}
		n, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		sel.Children[ast.SlotLimit] = ast.NewAttr(ast.TypeLimit, "kind", "limit", n)
	}
	return sel, nil
}

func (p *parser) parseProjectList() (*ast.Node, *Error) {
	proj := ast.New(ast.TypeProject)
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		pc := ast.New(ast.TypeProjClause, e)
		if alias, ok, err := p.parseOptAlias(); err != nil {
			return nil, err
		} else if ok {
			pc.SetAttr("alias", alias)
		}
		proj.Children = append(proj.Children, pc)
		if p.peek().kind != tokComma {
			return proj, nil
		}
		p.advance()
	}
}

// parseOptAlias accepts "AS ident" or a bare identifier alias.
func (p *parser) parseOptAlias() (string, bool, *Error) {
	if p.acceptKeyword("as") {
		t, err := p.expect(tokIdent)
		if err != nil {
			return "", false, err
		}
		return t.text, true, nil
	}
	if p.peek().kind == tokIdent {
		return p.advance().text, true, nil
	}
	return "", false, nil
}

func (p *parser) parseFromList() (*ast.Node, *Error) {
	from := ast.New(ast.TypeFrom)
	for {
		fc, err := p.parseJoinChain()
		if err != nil {
			return nil, err
		}
		from.Children = append(from.Children, fc)
		if p.peek().kind != tokComma {
			return from, nil
		}
		p.advance()
	}
}

// parseJoinChain parses item ([INNER|LEFT [OUTER]] JOIN item ON expr)*,
// left-associated: each join wraps the accumulated clause and the new
// relation in a JoinExpr inside a fresh FromClause.
func (p *parser) parseJoinChain() (*ast.Node, *Error) {
	fc, err := p.parseFromItem()
	if err != nil {
		return nil, err
	}
	for {
		kind := ""
		switch {
		case p.atKeyword("join"):
			p.advance()
			kind = "inner"
		case p.atKeyword("inner") && p.peek2().kind == tokKeyword && p.peek2().text == "join":
			p.advance()
			p.advance()
			kind = "inner"
		case p.atKeyword("left"):
			p.advance()
			p.acceptKeyword("outer")
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			kind = "left"
		default:
			return fc, nil
		}
		right, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("on"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc = ast.New(ast.TypeFromClause,
			ast.NewAttr(ast.TypeJoin, "kind", kind, fc, right, cond))
	}
}

func (p *parser) parseFromItem() (*ast.Node, *Error) {
	var rel *ast.Node
	switch {
	case p.peek().kind == tokLParen:
		p.advance()
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		rel = ast.New(ast.TypeSubQuery, sub)
	case p.peek().kind == tokIdent:
		name, err := p.parseQualifiedName()
		if err != nil {
			return nil, err
		}
		if p.peek().kind == tokLParen {
			// Table-valued function, e.g. dbo.fGetNearbyObjEq(5.8, 0.3, 2.0).
			args, err := p.parseCallArgs()
			if err != nil {
				return nil, err
			}
			rel = ast.New(ast.TypeTabFunc,
				append([]*ast.Node{ast.Leaf(ast.TypeFuncName, strings.ToLower(name))}, args...)...)
		} else {
			rel = ast.Leaf(ast.TypeTabExpr, name)
		}
	default:
		return nil, p.errorf("expected table reference, got %s", p.peek())
	}
	fc := ast.New(ast.TypeFromClause, rel)
	if alias, ok, err := p.parseOptAlias(); err != nil {
		return nil, err
	} else if ok {
		fc.SetAttr("alias", alias)
	}
	return fc, nil
}

// parseQualifiedName parses ident(.ident)* into a dotted string.
func (p *parser) parseQualifiedName() (string, *Error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return "", err
	}
	name := t.text
	for p.peek().kind == tokDot && p.peek2().kind == tokIdent {
		p.advance()
		name += "." + p.advance().text
	}
	return name, nil
}

// parseCallArgs parses "( expr, ... )" (already positioned at '(').
func (p *parser) parseCallArgs() ([]*ast.Node, *Error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var args []*ast.Node
	if p.peek().kind == tokRParen {
		p.advance()
		return args, nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
		if p.peek().kind == tokComma {
			p.advance()
			continue
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return args, nil
	}
}
