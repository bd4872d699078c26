package sqlparser

import (
	"strings"

	"repro/internal/ast"
)

// Expression grammar, loosest-binding first:
//
//	expr        = orExpr
//	orExpr      = andExpr (OR andExpr)*
//	andExpr     = notExpr (AND notExpr)*
//	notExpr     = NOT notExpr | cmpExpr
//	cmpExpr     = addExpr [cmpOp addExpr | [NOT] LIKE addExpr |
//	              IS [NOT] NULL | [NOT] IN (...) | [NOT] BETWEEN addExpr AND addExpr]
//	addExpr     = mulExpr ((+|-) mulExpr)*
//	mulExpr     = unaryExpr ((*|/|%) unaryExpr)*
//	unaryExpr   = - unaryExpr | primary
func (p *parser) parseExpr() (*ast.Node, *Error) { return p.parseOr() }

func (p *parser) parseOr() (*ast.Node, *Error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = ast.NewAttr(ast.TypeBiExpr, "op", "or", left, right)
	}
	return left, nil
}

func (p *parser) parseAnd() (*ast.Node, *Error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("and") {
		p.advance()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = ast.NewAttr(ast.TypeBiExpr, "op", "and", left, right)
	}
	return left, nil
}

func (p *parser) parseNot() (*ast.Node, *Error) {
	if p.acceptKeyword("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return ast.NewAttr(ast.TypeUniExpr, "op", "not", e), nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (*ast.Node, *Error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t, next := p.peek(), p.peek2()
	switch {
	case t.kind == tokOp && isCmpOp(t.text):
		p.advance()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return ast.NewAttr(ast.TypeBiExpr, "op", t.text, left, right), nil
	case t.kind == tokKeyword && (t.text == "like" || (t.text == "not" && next.kind == tokKeyword && next.text == "like")):
		op := "like"
		if p.acceptKeyword("not") {
			op = "not like"
		}
		p.advance()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return ast.NewAttr(ast.TypeBiExpr, "op", op, left, right), nil
	case t.kind == tokKeyword && t.text == "is":
		p.advance()
		op := "is"
		if p.acceptKeyword("not") {
			op = "is not"
		}
		if err := p.expectKeyword("null"); err != nil {
			return nil, err
		}
		return ast.NewAttr(ast.TypeBiExpr, "op", op, left, ast.New(ast.TypeNullExpr)), nil
	case t.kind == tokKeyword && (t.text == "in" || t.text == "between" ||
		(t.text == "not" && isSetOp(next))):
		neg := false
		if p.acceptKeyword("not") {
			neg = true
		}
		if p.acceptKeyword("between") {
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("and"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			b := ast.New(ast.TypeBetween, left, lo, hi)
			if neg {
				b.SetAttr("not", "true")
			}
			return b, nil
		}
		if err := p.expectKeyword("in"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		in := ast.New(ast.TypeInExpr, left)
		if neg {
			in.SetAttr("not", "true")
		}
		if p.atKeyword("select") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			in.Children = append(in.Children, ast.New(ast.TypeSubQuery, sub))
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.Children = append(in.Children, e)
				if p.peek().kind != tokComma {
					break
				}
				p.advance()
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return in, nil
	}
	return left, nil
}

func isSetOp(t token) bool {
	return t.kind == tokKeyword && (t.text == "in" || t.text == "between")
}

func isCmpOp(op string) bool {
	switch op {
	case "=", "<>", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) parseAdditive() (*ast.Node, *Error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && (p.peek().text == "+" || p.peek().text == "-") {
		op := p.advance().text
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = ast.NewAttr(ast.TypeBiExpr, "op", op, left, right)
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (*ast.Node, *Error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var op string
		switch {
		case t.kind == tokStar:
			op = "*"
		case t.kind == tokOp && (t.text == "/" || t.text == "%"):
			op = t.text
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = ast.NewAttr(ast.TypeBiExpr, "op", op, left, right)
	}
}

func (p *parser) parseUnary() (*ast.Node, *Error) {
	if p.peek().kind == tokOp && p.peek().text == "-" {
		p.advance()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return ast.NewAttr(ast.TypeUniExpr, "op", "-", e), nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (*ast.Node, *Error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		return ast.Leaf(ast.TypeNumExpr, t.text), nil
	case tokHexNumber:
		p.advance()
		n := ast.Leaf(ast.TypeNumExpr, t.text)
		n.SetAttr("fmt", "hex")
		return n, nil
	case tokString:
		p.advance()
		return ast.Leaf(ast.TypeStrExpr, t.text), nil
	case tokStar:
		p.advance()
		return ast.New(ast.TypeStarExpr), nil
	case tokLParen:
		p.advance()
		if p.atKeyword("select") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return ast.New(ast.TypeSubQuery, sub), nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return ast.New(ast.TypeParen, e), nil
	case tokKeyword:
		switch t.text {
		case "null":
			p.advance()
			return ast.New(ast.TypeNullExpr), nil
		case "true", "false":
			p.advance()
			return ast.Leaf(ast.TypeBoolExpr, t.text), nil
		case "cast":
			return p.parseCast()
		case "case":
			return p.parseCase()
		}
		return nil, p.errorf("unexpected keyword %s in expression", strings.ToUpper(t.text))
	case tokIdent:
		return p.parseIdentExpr()
	}
	return nil, p.errorf("unexpected %s in expression", t)
}

// parseCast parses CAST(expr [AS type]); the paper's ad-hoc log contains
// the non-standard single-argument form CAST(col).
func (p *parser) parseCast() (*ast.Node, *Error) {
	p.advance() // cast
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	c := ast.New(ast.TypeCastExpr, e)
	if p.acceptKeyword("as") {
		t, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		c.SetAttr("as", t.text)
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseCase() (*ast.Node, *Error) {
	p.advance() // case
	c := ast.New(ast.TypeCaseExpr)
	if !p.atKeyword("when") {
		operand, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Children = append(c.Children, operand)
	}
	for p.acceptKeyword("when") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("then"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Children = append(c.Children, ast.New(ast.TypeWhenClause, cond, res))
	}
	if p.acceptKeyword("else") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Children = append(c.Children, ast.New(ast.TypeElseClause, e))
	}
	if err := p.expectKeyword("end"); err != nil {
		return nil, err
	}
	return c, nil
}

// parseIdentExpr parses a possibly qualified identifier followed
// optionally by a call argument list ("func(...)") or ".*".
func (p *parser) parseIdentExpr() (*ast.Node, *Error) {
	first := p.advance().text
	parts := []string{first}
	for p.peek().kind == tokDot {
		if p.peek2().kind == tokStar {
			p.advance()
			p.advance()
			return ast.NewAttr(ast.TypeStarExpr, "table", strings.Join(parts, ".")), nil
		}
		if p.peek2().kind != tokIdent {
			break
		}
		p.advance()
		parts = append(parts, p.advance().text)
	}
	if p.peek().kind == tokLParen {
		name := strings.ToLower(strings.Join(parts, "."))
		p.advance()
		fn := ast.New(ast.TypeFuncExpr, ast.Leaf(ast.TypeFuncName, name))
		if p.acceptKeyword("distinct") {
			fn.SetAttr("distinct", "true")
		}
		if p.peek().kind == tokRParen {
			p.advance()
			return fn, nil
		}
		for {
			var arg *ast.Node
			var err *Error
			if p.peek().kind == tokStar {
				p.advance()
				arg = ast.New(ast.TypeStarExpr)
			} else {
				arg, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			fn.Children = append(fn.Children, arg)
			if p.peek().kind == tokComma {
				p.advance()
				continue
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return fn, nil
		}
	}
	col := ast.Leaf(ast.TypeColExpr, parts[len(parts)-1])
	if len(parts) > 1 {
		col.SetAttr("table", strings.Join(parts[:len(parts)-1], "."))
	}
	return col, nil
}
