// Package sqlparser is a hand-written lexer and recursive-descent parser
// for the SQL subset appearing in the paper's query logs (SDSS, OLAP and
// ad-hoc student queries). It replaces the third-party parsing service
// the paper used and emits internal/ast trees directly.
package sqlparser

import "fmt"

// tokenKind enumerates lexical token classes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokHexNumber
	tokString
	tokOp // symbolic operators: = <> != < <= > >= + - * / %
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokSemi
	tokStar
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "EOF"
	case tokIdent:
		return "identifier"
	case tokKeyword:
		return "keyword"
	case tokNumber:
		return "number"
	case tokHexNumber:
		return "hex number"
	case tokString:
		return "string"
	case tokOp:
		return "operator"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokSemi:
		return "';'"
	case tokStar:
		return "'*'"
	}
	return "?"
}

// token is one lexical token with its source position (byte offset).
type token struct {
	kind tokenKind
	text string // raw text; keywords lower-cased
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "EOF"
	}
	return fmt.Sprintf("%s %q", t.kind, t.text)
}

// Error is a parse error with the byte offset where it occurred.
type Error struct {
	Pos int
	Msg string
	SQL string
}

func (e *Error) Error() string {
	return fmt.Sprintf("sqlparser: %s at offset %d in %q", e.Msg, e.Pos, truncate(e.SQL, 80))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
