package sqlparser

import (
	"strings"

	"repro/internal/ast"
)

// lexer tokenizes a SQL string. It is deliberately permissive about
// whitespace and comments since real query logs contain both.
type lexer struct {
	src string
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: src} }

// lex tokenizes the whole input up front; logs contain short statements
// so a two-pass design keeps the parser simple.
func (l *lexer) lex() ([]token, *Error) {
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func (l *lexer) next() (token, *Error) {
	l.skipSpaceAndComments()
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{tokLParen, "(", start}, nil
	case c == ')':
		l.pos++
		return token{tokRParen, ")", start}, nil
	case c == ',':
		l.pos++
		return token{tokComma, ",", start}, nil
	case c == ';':
		l.pos++
		return token{tokSemi, ";", start}, nil
	case c == '.':
		// A dot starting a number (".5") lexes as a number; otherwise a
		// qualifier separator.
		if l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
			return l.lexNumber()
		}
		l.pos++
		return token{tokDot, ".", start}, nil
	case c == '*':
		l.pos++
		return token{tokStar, "*", start}, nil
	case c == '\'':
		return l.lexString()
	case c == '"' || c == '[' || c == '`':
		return l.lexQuotedIdent()
	case isDigit(c):
		return l.lexNumber()
	case isIdentStart(c):
		return l.lexWord()
	case strings.IndexByte("=<>!+-/%", c) >= 0:
		return l.lexOp()
	}
	return token{}, &Error{Pos: start, Msg: "unexpected character " + string(c), SQL: l.src}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += 2 + end + 2
		default:
			return
		}
	}
}

func (l *lexer) lexString() (token, *Error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' is an escaped quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return token{tokString, b.String(), start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return token{}, &Error{Pos: start, Msg: "unterminated string literal", SQL: l.src}
}

func (l *lexer) lexQuotedIdent() (token, *Error) {
	start := l.pos
	open := l.src[l.pos]
	close := open
	if open == '[' {
		close = ']'
	}
	l.pos++
	end := strings.IndexByte(l.src[l.pos:], close)
	if end < 0 {
		return token{}, &Error{Pos: start, Msg: "unterminated quoted identifier", SQL: l.src}
	}
	if end == 0 {
		return token{}, &Error{Pos: start, Msg: "empty quoted identifier", SQL: l.src}
	}
	text := l.src[l.pos : l.pos+end]
	l.pos += end + 1
	return token{tokIdent, text, start}, nil
}

func (l *lexer) lexNumber() (token, *Error) {
	start := l.pos
	// Hex literal: SDSS logs use 0x... object ids.
	if l.src[l.pos] == '0' && l.pos+1 < len(l.src) && (l.src[l.pos+1] == 'x' || l.src[l.pos+1] == 'X') {
		l.pos += 2
		for l.pos < len(l.src) && isHexDigit(l.src[l.pos]) {
			l.pos++
		}
		if l.pos == start+2 {
			return token{}, &Error{Pos: start, Msg: "malformed hex literal", SQL: l.src}
		}
		return token{tokHexNumber, l.src[start:l.pos], start}, nil
	}
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		if (c == 'e' || c == 'E') && l.pos+1 < len(l.src) &&
			(isDigit(l.src[l.pos+1]) || l.src[l.pos+1] == '-' || l.src[l.pos+1] == '+') {
			l.pos += 2
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
		break
	}
	return token{tokNumber, l.src[start:l.pos], start}, nil
}

func (l *lexer) lexWord() (token, *Error) {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	w := l.src[start:l.pos]
	if ast.IsKeyword(w) {
		return token{tokKeyword, strings.ToLower(w), start}, nil
	}
	return token{tokIdent, w, start}, nil
}

func (l *lexer) lexOp() (token, *Error) {
	start := l.pos
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.pos += 2
		return token{tokOp, two, start}, nil
	}
	c := l.src[l.pos]
	l.pos++
	if c == '!' {
		return token{}, &Error{Pos: start, Msg: "unexpected '!'", SQL: l.src}
	}
	return token{tokOp, string(c), start}, nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool   { return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') }
func isIdentStart(c byte) bool { return c == '_' || c == '@' || c == '#' || isAlpha(c) }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) || c == '$' }
func isAlpha(c byte) bool      { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
