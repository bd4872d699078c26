// Package qlog models query logs: ordered sequences of SQL statements
// with optional client and sequence metadata, plus text-file IO and
// per-client partitioning. It is the system's input boundary (§3: "using
// logs as the system API").
package qlog

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/ast"
	"repro/internal/sqlparser"
)

// Entry is one logged query.
type Entry struct {
	SQL    string
	Client string // client/session identifier ("" when unknown)
	Seq    int    // position within the log
}

// Log is an ordered sequence of queries, assumed to come from a single
// logical analysis unless partitioned by client first.
type Log struct {
	Entries []Entry
}

// FromSQL builds a log from a slice of SQL strings (client "" and
// sequential Seq).
func FromSQL(queries ...string) *Log {
	l := &Log{Entries: make([]Entry, len(queries))}
	for i, q := range queries {
		l.Entries[i] = Entry{SQL: q, Seq: i}
	}
	return l
}

// Len returns the number of entries.
func (l *Log) Len() int { return len(l.Entries) }

// SQLs returns the raw statements in order.
func (l *Log) SQLs() []string {
	out := make([]string, len(l.Entries))
	for i, e := range l.Entries {
		out[i] = e.SQL
	}
	return out
}

// Append adds a query to the log.
func (l *Log) Append(sql, client string) {
	l.Entries = append(l.Entries, Entry{SQL: sql, Client: client, Seq: len(l.Entries)})
}

// Slice returns the sub-log [from, to) with sequence numbers rebased.
func (l *Log) Slice(from, to int) *Log {
	if from < 0 {
		from = 0
	}
	if to > len(l.Entries) {
		to = len(l.Entries)
	}
	if from > to {
		from = to
	}
	out := &Log{Entries: make([]Entry, to-from)}
	copy(out.Entries, l.Entries[from:to])
	for i := range out.Entries {
		out.Entries[i].Seq = i
	}
	return out
}

// Parse parses every entry into an AST, failing on the first statement
// that does not parse.
func (l *Log) Parse() ([]*ast.Node, error) {
	out := make([]*ast.Node, len(l.Entries))
	for i := range l.Entries {
		n, err := l.ParseEntry(i)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// ParseEntry parses entry i into an AST; the error names the entry and
// its client.
func (l *Log) ParseEntry(i int) (*ast.Node, error) {
	n, err := sqlparser.Parse(l.Entries[i].SQL)
	if err != nil {
		return nil, l.EntryError(i, err)
	}
	return n, nil
}

// EntryError wraps err, the failure to parse entry i, naming the entry
// and its client.
func (l *Log) EntryError(i int, err error) error {
	return fmt.Errorf("qlog: entry %d (client %q): %w", i, l.Entries[i].Client, err)
}

// Interleave merges several logs round-robin, simulating the
// heterogeneous multi-client logs of §7.2.3.
func Interleave(logs ...*Log) *Log {
	out := &Log{}
	for i := 0; ; i++ {
		progressed := false
		for _, l := range logs {
			if i < len(l.Entries) {
				e := l.Entries[i]
				out.Append(e.SQL, e.Client)
				progressed = true
			}
		}
		if !progressed {
			return out
		}
	}
}

// Split returns the first n entries as training and the rest as holdout.
func (l *Log) Split(n int) (train, holdout *Log) {
	return l.Slice(0, n), l.Slice(n, len(l.Entries))
}

// Write emits the log in the text format Read accepts: one
// "client<TAB>sql" line per entry (client omitted when empty).
func (l *Log) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range l.Entries {
		sql := strings.ReplaceAll(e.SQL, "\n", " ")
		var err error
		if e.Client != "" {
			_, err = fmt.Fprintf(bw, "%s\t%s\n", e.Client, sql)
		} else {
			_, err = fmt.Fprintln(bw, sql)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the text log format. The simple form is what Write
// emits — one statement per line, optionally "client<TAB>sql" — but
// real logs are messier, so the reader also accepts:
//
//   - multi-line statements: a line that does not start a new statement
//     (and is not ';'-terminated) continues the previous one, and lines
//     inside an unbalanced parenthesis — subqueries wrapped across
//     lines — always continue;
//   - explicit ';' terminators, including several statements per line;
//   - "--" end-of-line comments (quote-aware: a '--' inside a string
//     literal is kept) and full-line "#" comments;
//   - blank lines, which terminate any pending multi-line statement.
//
// The client TAB prefix is recognized on the first line of a statement.
func Read(r io.Reader) (*Log, error) {
	l := &Log{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	st := NewStatementScanner()
	for sc.Scan() {
		st.Line(sc.Text())
		for _, e := range st.Drain() {
			l.Append(e.SQL, e.Client)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	st.Flush()
	for _, e := range st.Drain() {
		l.Append(e.SQL, e.Client)
	}
	return l, nil
}

// StatementScanner assembles complete log entries from text lines fed
// incrementally — the streaming core behind Read and the ingest file
// tailer, which sees a log file grow line-by-line and must not split a
// statement across a flush.
//
// Statement boundaries: a ';' (outside string literals) always
// terminates. Without one, a line *continues* the pending statement
// only when it plausibly belongs to it — it is indented, starts with a
// clause keyword (FROM, WHERE, AND, JOIN, ...) or closing punctuation,
// the pending text has an unbalanced '(' or string literal, or it is
// the SELECT body of a pending WITH. Any other line completes the
// pending statement and starts its own entry (so a legacy one-per-line
// log keeps its per-line semantics, and a junk line cannot corrupt the
// statement before it). Blank lines complete the pending statement,
// "#"-lines and "--" comment tails are dropped.
type StatementScanner struct {
	out     []Entry
	pending []string
	client  string
	depth   int  // unclosed '(' across pending lines
	inQuote bool // unclosed string literal across pending lines
}

// NewStatementScanner returns an empty scanner.
func NewStatementScanner() *StatementScanner { return &StatementScanner{} }

// Line feeds one input line (without trailing newline). Completed
// entries accumulate until Drain.
func (s *StatementScanner) Line(line string) {
	indented := len(line) > 0 && (line[0] == ' ' || line[0] == '\t')
	line = strings.TrimSpace(line)
	if line == "" {
		s.Flush()
		return
	}
	if strings.HasPrefix(line, "#") && !s.inQuote {
		return
	}
	if !s.inQuote {
		line = strings.TrimSpace(stripLineComment(line))
		if line == "" {
			return
		}
	}

	continues := s.depth > 0 || s.inQuote ||
		(len(s.pending) > 0 && (indented || continuesStatement(line) ||
			(s.pendingWithNeedsBody() && startsWith(line, "SELECT"))))
	if !continues {
		// The line is a new entry: complete any pending statement and
		// parse the leading "client<TAB>" prefix, if any.
		s.Flush()
		if i := strings.IndexByte(line, '\t'); i >= 0 {
			s.client = line[:i]
			line = strings.TrimSpace(line[i+1:])
		}
	}

	// Split on ';' terminators outside string literals.
	for {
		cut := semicolonIndex(line, s.inQuote)
		if cut < 0 {
			break
		}
		s.push(line[:cut])
		s.Flush()
		line = strings.TrimSpace(line[cut+1:])
		if line == "" {
			return
		}
	}
	s.push(line)
}

// push appends a fragment to the pending statement, updating the paren
// and quote balance.
func (s *StatementScanner) push(frag string) {
	if frag == "" {
		return
	}
	s.pending = append(s.pending, frag)
	inQuote := s.inQuote
	depth := s.depth
	for i := 0; i < len(frag); i++ {
		switch frag[i] {
		case '\'':
			inQuote = !inQuote
		case '(':
			if !inQuote {
				depth++
			}
		case ')':
			if !inQuote && depth > 0 {
				depth--
			}
		}
	}
	s.inQuote = inQuote
	s.depth = depth
}

// Flush completes the pending statement, if any.
func (s *StatementScanner) Flush() {
	if len(s.pending) > 0 {
		sql := strings.Join(s.pending, " ")
		s.out = append(s.out, Entry{SQL: sql, Client: s.client})
	}
	s.pending = s.pending[:0]
	s.client = ""
	s.depth = 0
	s.inQuote = false
}

// Drain returns the completed entries accumulated so far and resets the
// output buffer. Seq fields are zero; callers appending to a Log get
// rebased sequence numbers from Log.Append.
func (s *StatementScanner) Drain() []Entry {
	out := s.out
	s.out = nil
	return out
}

// pendingWithNeedsBody reports whether the pending statement is a WITH
// that still lacks its main SELECT (no SELECT outside parentheses
// yet): only then may a following SELECT line continue it. A complete
// single-line WITH query does not swallow the unrelated SELECT after
// it.
func (s *StatementScanner) pendingWithNeedsBody() bool {
	if len(s.pending) == 0 || !startsWith(s.pending[0], "WITH") {
		return false
	}
	depth, inQuote := 0, false
	for _, frag := range s.pending {
		for i := 0; i < len(frag); i++ {
			switch frag[i] {
			case '\'':
				inQuote = !inQuote
			case '(':
				if !inQuote {
					depth++
				}
			case ')':
				if !inQuote && depth > 0 {
					depth--
				}
			default:
				if !inQuote && depth == 0 && startsWith(frag[i:], "SELECT") &&
					(i == 0 || frag[i-1] == ' ' || frag[i-1] == '\t' || frag[i-1] == ')') {
					return false // body already present
				}
			}
		}
	}
	return true
}

// continuationWords are clause openers that mark an unindented line as
// the continuation of the pending statement rather than a new entry.
var continuationWords = []string{
	"FROM", "WHERE", "GROUP", "ORDER", "HAVING", "LIMIT", "OFFSET", "BY",
	"AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "ON", "AS",
	"JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS",
	"UNION", "EXCEPT", "INTERSECT",
	"WHEN", "THEN", "ELSE", "END", "DESC", "ASC",
}

// continuesStatement reports whether an unindented line plausibly
// continues a pending statement: it opens with a clause keyword or
// with closing/listing punctuation.
func continuesStatement(line string) bool {
	if line[0] == ')' || line[0] == ',' {
		return true
	}
	for _, kw := range continuationWords {
		if startsWith(line, kw) {
			return true
		}
	}
	return false
}

// startsWith reports a case-insensitive keyword prefix ending at a word
// boundary ("SELECTED" does not start a statement).
func startsWith(s, kw string) bool {
	if len(s) < len(kw) || !strings.EqualFold(s[:len(kw)], kw) {
		return false
	}
	if len(s) == len(kw) {
		return true
	}
	switch s[len(kw)] {
	case ' ', '\t', '(', '*', ';', ',', ')':
		return true
	}
	return false
}

// stripLineComment removes a "--" comment tail, ignoring "--" inside
// single-quoted string literals.
func stripLineComment(line string) string {
	inQuote := false
	for i := 0; i < len(line)-1; i++ {
		switch line[i] {
		case '\'':
			inQuote = !inQuote
		case '-':
			if !inQuote && line[i+1] == '-' {
				return line[:i]
			}
		}
	}
	return line
}

// semicolonIndex returns the index of the first ';' outside string
// literals, or -1. startInQuote carries quote state from prior lines.
func semicolonIndex(line string, startInQuote bool) int {
	inQuote := startInQuote
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\'':
			inQuote = !inQuote
		case ';':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}
