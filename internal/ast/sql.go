package ast

import (
	"fmt"
	"strings"
)

// SQL renders the subtree back to SQL text. Rendering a tree produced by
// internal/sqlparser and re-parsing it yields a structurally equal tree
// (property-tested), which is what lets the generated interface hand
// executable SQL to exec().
func SQL(n *Node) string {
	var b strings.Builder
	writeSQL(&b, n)
	return b.String()
}

func writeSQL(b *strings.Builder, n *Node) {
	if n == nil {
		return
	}
	switch n.Type {
	case TypeSelect:
		writeSelect(b, n)
	case TypeProject:
		writeList(b, n.Children)
	case TypeProjClause:
		writeSQL(b, n.Child(0))
		if a := n.Attr("alias"); a != "" {
			b.WriteString(" AS ")
			writeIdent(b, a)
		}
	case TypeFrom:
		writeList(b, n.Children)
	case TypeFromClause:
		writeSQL(b, n.Child(0))
		if a := n.Attr("alias"); a != "" {
			b.WriteString(" AS ")
			writeIdent(b, a)
		}
	case TypeWhere, TypeHaving, TypeElseClause:
		writeSQL(b, n.Child(0))
	case TypeParen:
		b.WriteByte('(')
		writeSQL(b, n.Child(0))
		b.WriteByte(')')
	case TypeGroupBy, TypeOrderBy:
		writeList(b, n.Children)
	case TypeOrderClause:
		writeSQL(b, n.Child(0))
		switch n.Attr("dir") {
		case "desc":
			b.WriteString(" DESC")
		case "asc": // explicit in the source; kept, or the tree changes
			b.WriteString(" ASC")
		}
	case TypeLimit:
		writeSQL(b, n.Child(0))
	case TypeSubQuery:
		b.WriteByte('(')
		writeSQL(b, n.Child(0))
		b.WriteByte(')')
	case TypeJoin:
		writeSQL(b, n.Child(0))
		if n.Attr("kind") == "left" {
			b.WriteString(" LEFT JOIN ")
		} else {
			b.WriteString(" JOIN ")
		}
		writeSQL(b, n.Child(1))
		b.WriteString(" ON ")
		writeSQL(b, n.Child(2))
	case TypeUpdate:
		b.WriteString("UPDATE ")
		writeSQL(b, n.Child(0))
		b.WriteString(" SET ")
		writeSQL(b, n.Child(1))
		if w := n.Child(2); !IsEmptyClause(w) {
			b.WriteString(" WHERE ")
			writeSQL(b, w)
		}
	case TypeDelete:
		b.WriteString("DELETE FROM ")
		writeSQL(b, n.Child(0))
		if w := n.Child(1); !IsEmptyClause(w) {
			b.WriteString(" WHERE ")
			writeSQL(b, w)
		}
	case TypeSet:
		writeList(b, n.Children)
	case TypeSetItem:
		writeIdent(b, n.Attr("col"))
		b.WriteString(" = ")
		writeSQL(b, n.Child(0))
	case TypeTabExpr:
		writeName(b, n.Value())
	case TypeTabFunc:
		writeFunc(b, n)
	case TypeBiExpr:
		writeSQL(b, n.Child(0))
		op := n.Attr("op")
		if isWordOp(op) {
			b.WriteByte(' ')
			b.WriteString(strings.ToUpper(op))
			b.WriteByte(' ')
		} else {
			b.WriteString(" " + op + " ")
		}
		writeSQL(b, n.Child(1))
	case TypeUniExpr:
		op := n.Attr("op")
		if isWordOp(op) {
			b.WriteString(strings.ToUpper(op))
			b.WriteByte(' ')
		} else {
			// "- -x" must not render as "--x", a comment.
			if op == "-" && strings.HasSuffix(b.String(), "-") {
				b.WriteByte(' ')
			}
			b.WriteString(op)
		}
		writeSQL(b, n.Child(0))
	case TypeFuncExpr:
		writeFunc(b, n)
	case TypeFuncName:
		writeFuncName(b, n.Value())
	case TypeCastExpr:
		b.WriteString("CAST(")
		writeSQL(b, n.Child(0))
		if as := n.Attr("as"); as != "" {
			b.WriteString(" AS ")
			writeIdent(b, as)
		}
		b.WriteByte(')')
	case TypeCaseExpr:
		writeCase(b, n)
	case TypeWhenClause:
		b.WriteString("WHEN ")
		writeSQL(b, n.Child(0))
		b.WriteString(" THEN ")
		writeSQL(b, n.Child(1))
	case TypeInExpr:
		writeSQL(b, n.Child(0))
		if n.Attr("not") == "true" {
			b.WriteString(" NOT")
		}
		b.WriteString(" IN (")
		writeList(b, n.Children[1:])
		b.WriteByte(')')
	case TypeBetween:
		writeSQL(b, n.Child(0))
		if n.Attr("not") == "true" {
			b.WriteString(" NOT")
		}
		b.WriteString(" BETWEEN ")
		writeSQL(b, n.Child(1))
		b.WriteString(" AND ")
		writeSQL(b, n.Child(2))
	case TypeColExpr:
		if t := n.Attr("table"); t != "" {
			writeName(b, t)
			b.WriteByte('.')
		}
		writeIdent(b, n.Value())
	case TypeStrExpr:
		b.WriteByte('\'')
		b.WriteString(strings.ReplaceAll(n.Value(), "'", "''"))
		b.WriteByte('\'')
	case TypeNumExpr:
		b.WriteString(n.Value())
	case TypeStarExpr:
		if t := n.Attr("table"); t != "" {
			writeName(b, t)
			b.WriteByte('.')
		}
		b.WriteByte('*')
	case TypeNullExpr:
		b.WriteString("NULL")
	case TypeBoolExpr:
		b.WriteString(strings.ToUpper(n.Value()))
	default:
		fmt.Fprintf(b, "/*?%s*/", n.Type)
	}
}

func writeSelect(b *strings.Builder, n *Node) {
	b.WriteString("SELECT ")
	if n.Attr("distinct") == "true" {
		b.WriteString("DISTINCT ")
	}
	if lim := n.Child(SlotLimit); !IsEmptyClause(lim) && lim.Attr("kind") == "top" {
		b.WriteString("TOP ")
		writeSQL(b, lim)
		b.WriteByte(' ')
	}
	writeSQL(b, n.Child(SlotProject))
	if f := n.Child(SlotFrom); !IsEmptyClause(f) {
		b.WriteString(" FROM ")
		writeSQL(b, f)
	}
	if w := n.Child(SlotWhere); !IsEmptyClause(w) {
		b.WriteString(" WHERE ")
		writeSQL(b, w)
	}
	if g := n.Child(SlotGroupBy); !IsEmptyClause(g) {
		b.WriteString(" GROUP BY ")
		writeSQL(b, g)
	}
	if h := n.Child(SlotHaving); !IsEmptyClause(h) {
		b.WriteString(" HAVING ")
		writeSQL(b, h)
	}
	if o := n.Child(SlotOrderBy); !IsEmptyClause(o) {
		b.WriteString(" ORDER BY ")
		writeSQL(b, o)
	}
	if lim := n.Child(SlotLimit); !IsEmptyClause(lim) && lim.Attr("kind") != "top" {
		b.WriteString(" LIMIT ")
		writeSQL(b, lim)
	}
}

func writeFunc(b *strings.Builder, n *Node) {
	writeFuncName(b, n.Child(0).Value())
	b.WriteByte('(')
	if n.Attr("distinct") == "true" {
		b.WriteString("DISTINCT ")
	}
	writeList(b, n.Children[1:])
	b.WriteByte(')')
}

func writeCase(b *strings.Builder, n *Node) {
	b.WriteString("CASE")
	for _, c := range n.Children {
		switch c.Type {
		case TypeWhenClause:
			b.WriteByte(' ')
			writeSQL(b, c)
		case TypeElseClause:
			b.WriteString(" ELSE ")
			writeSQL(b, c)
		default: // the optional operand
			b.WriteByte(' ')
			writeSQL(b, c)
		}
	}
	b.WriteString(" END")
}

func writeList(b *strings.Builder, items []*Node) {
	for i, c := range items {
		if i > 0 {
			b.WriteString(", ")
		}
		writeSQL(b, c)
	}
}

// isWordOp reports whether a binary/unary operator renders as a keyword
// (AND, OR, NOT, LIKE, IS, IS NOT) rather than a symbol.
func isWordOp(op string) bool {
	switch strings.ToLower(op) {
	case "and", "or", "not", "like", "is", "is not", "not like":
		return true
	}
	return false
}

// keywords are the words the lexer reserves (matched
// case-insensitively): bare, they never read as identifiers.
var keywords = map[string]bool{
	"select": true, "from": true, "where": true, "group": true,
	"by": true, "having": true, "order": true, "limit": true,
	"top": true, "distinct": true, "as": true, "and": true, "or": true,
	"not": true, "in": true, "between": true, "like": true, "is": true,
	"null": true, "case": true, "when": true, "then": true, "else": true,
	"end": true, "cast": true, "asc": true, "desc": true, "true": true,
	"false": true, "join": true, "inner": true, "left": true,
	"outer": true, "on": true, "update": true, "delete": true,
	"set": true,
}

// IsKeyword reports whether word is a reserved word in any letter case.
func IsKeyword(word string) bool {
	var lower [8]byte // the longest keyword is 8 bytes
	if len(word) > len(lower) {
		return false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		lower[i] = c
	}
	return keywords[string(lower[:len(word)])]
}

// bareIdent reports whether the lexer reads s, unquoted, back as the one
// identifier s: a word of its identifier bytes that is not reserved.
func bareIdent(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '_' || c == '@' || c == '#' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
		case i > 0 && (c == '$' || '0' <= c && c <= '9'):
		default:
			return false
		}
	}
	return s != "" && !IsKeyword(s)
}

// writeIdent renders one identifier: bare when that reads back as the
// same identifier, otherwise quoted ("0" is a column, 0 a number) with
// a delimiter the text does not contain — text that was lexed from one
// quoted identifier always lacks at least its own closing delimiter.
func writeIdent(b *strings.Builder, s string) {
	quotes := "``"
	switch {
	case bareIdent(s):
		b.WriteString(s)
		return
	case !strings.Contains(s, `"`):
		quotes = `""`
	case !strings.Contains(s, "]"):
		quotes = "[]"
	}
	b.WriteByte(quotes[0])
	b.WriteString(s)
	b.WriteByte(quotes[1])
}

// writeName renders a qualified name, which the parser stores as its
// identifiers joined by dots: identifier by identifier, or — when a dot
// inside a quoted identifier left an empty piece — as the one quoted
// identifier that joins to the same text (which reads back unless its
// parts between them held all three closing delimiters).
func writeName(b *strings.Builder, s string) {
	if strings.HasPrefix(s, ".") || strings.HasSuffix(s, ".") || strings.Contains(s, "..") {
		writeIdent(b, s)
		return
	}
	for {
		part, rest, more := strings.Cut(s, ".")
		writeIdent(b, part)
		if !more {
			return
		}
		b.WriteByte('.')
		s = rest
	}
}

// writeFuncName renders a function name, which the parser stores
// lower-cased: upper-cased when it is plain, as a quoted name otherwise.
func writeFuncName(b *strings.Builder, name string) {
	for rest, more := name, true; more; {
		var part string
		if part, rest, more = strings.Cut(rest, "."); !bareIdent(part) {
			writeName(b, name)
			return
		}
	}
	b.WriteString(strings.ToUpper(name))
}
