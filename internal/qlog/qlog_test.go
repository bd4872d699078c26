package qlog

import (
	"bytes"
	"strings"
	"testing"
)

func TestFromSQLAndSlice(t *testing.T) {
	l := FromSQL("SELECT a FROM t", "SELECT b FROM t", "SELECT c FROM t")
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	s := l.Slice(1, 3)
	if s.Len() != 2 || s.Entries[0].SQL != "SELECT b FROM t" || s.Entries[0].Seq != 0 {
		t.Fatalf("Slice wrong: %+v", s.Entries)
	}
	if out := l.Slice(-5, 99); out.Len() != 3 {
		t.Fatalf("clamped slice = %d", out.Len())
	}
	if out := l.Slice(2, 1); out.Len() != 0 {
		t.Fatalf("inverted slice = %d", out.Len())
	}
}

func TestParseReportsEntry(t *testing.T) {
	l := FromSQL("SELECT a FROM t", "NOT SQL AT ALL ~~~")
	if _, err := l.Parse(); err == nil || !strings.Contains(err.Error(), "entry 1") {
		t.Fatalf("error should name the failing entry: %v", err)
	}
	good := FromSQL("SELECT a FROM t", "SELECT b FROM u")
	qs, err := good.Parse()
	if err != nil || len(qs) != 2 {
		t.Fatalf("parse: %v, %d", err, len(qs))
	}
}

func TestInterleave(t *testing.T) {
	a := &Log{}
	a.Append("SELECT a1 FROM t", "a")
	a.Append("SELECT a2 FROM t", "a")
	b := &Log{}
	b.Append("SELECT b1 FROM t", "b")
	out := Interleave(a, b)
	got := make([]string, out.Len())
	for i, e := range out.Entries {
		got[i] = e.Client
	}
	want := "a,b,a"
	if strings.Join(got, ",") != want {
		t.Fatalf("interleave order = %v, want %s", got, want)
	}
}

func TestSplit(t *testing.T) {
	l := FromSQL("SELECT a FROM t", "SELECT b FROM t", "SELECT c FROM t", "SELECT d FROM t")
	train, hold := l.Split(3)
	if train.Len() != 3 || hold.Len() != 1 {
		t.Fatalf("split = %d/%d", train.Len(), hold.Len())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	l := &Log{}
	l.Append("SELECT a FROM t WHERE x = 1", "c1")
	l.Append("SELECT b\nFROM t", "") // embedded newline flattened
	var buf bytes.Buffer
	if err := l.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round trip len = %d", back.Len())
	}
	if back.Entries[0].Client != "c1" || back.Entries[0].SQL != "SELECT a FROM t WHERE x = 1" {
		t.Fatalf("entry 0 = %+v", back.Entries[0])
	}
	if back.Entries[1].Client != "" || back.Entries[1].SQL != "SELECT b FROM t" {
		t.Fatalf("entry 1 = %+v", back.Entries[1])
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "-- header\n\n# note\nSELECT a FROM t\n"
	l, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Fatalf("len = %d", l.Len())
	}
}

// TestReadStatements is the table-driven spec for the statement
// scanner: multi-line statements, ';' terminators, quote-aware '--'
// comments, client prefixes and paren-wrapped subqueries.
func TestReadStatements(t *testing.T) {
	type entry struct{ client, sql string }
	cases := []struct {
		name string
		in   string
		want []entry
	}{
		{
			name: "one per line legacy",
			in:   "SELECT a FROM t\nSELECT b FROM t\n",
			want: []entry{{"", "SELECT a FROM t"}, {"", "SELECT b FROM t"}},
		},
		{
			name: "multi-line continuation",
			in:   "SELECT a, b\n  FROM t\n  WHERE x = 1\nSELECT c FROM u\n",
			want: []entry{{"", "SELECT a, b FROM t WHERE x = 1"}, {"", "SELECT c FROM u"}},
		},
		{
			name: "semicolon terminators",
			in:   "SELECT a\nFROM t;\nSELECT b FROM u;",
			want: []entry{{"", "SELECT a FROM t"}, {"", "SELECT b FROM u"}},
		},
		{
			name: "two statements one line",
			in:   "SELECT a FROM t; SELECT b FROM u\n",
			want: []entry{{"", "SELECT a FROM t"}, {"", "SELECT b FROM u"}},
		},
		{
			name: "trailing comment stripped",
			in:   "SELECT a FROM t -- grab a\n  WHERE x = 1 -- filter\n",
			want: []entry{{"", "SELECT a FROM t WHERE x = 1"}},
		},
		{
			name: "dashes inside string literal kept",
			in:   "SELECT a FROM t WHERE note = 'a -- b'\n",
			want: []entry{{"", "SELECT a FROM t WHERE note = 'a -- b'"}},
		},
		{
			name: "semicolon inside string literal kept",
			in:   "SELECT a FROM t WHERE note = 'x; y'; SELECT b FROM u\n",
			want: []entry{{"", "SELECT a FROM t WHERE note = 'x; y'"}, {"", "SELECT b FROM u"}},
		},
		{
			name: "client prefix on first line",
			in:   "alice\tSELECT a\n  FROM t\nbob\tSELECT b FROM u\n",
			want: []entry{{"alice", "SELECT a FROM t"}, {"bob", "SELECT b FROM u"}},
		},
		{
			name: "subquery SELECT at line start continues",
			in:   "SELECT * FROM (\nSELECT a FROM t\n) q\nSELECT b FROM u\n",
			want: []entry{{"", "SELECT * FROM ( SELECT a FROM t ) q"}, {"", "SELECT b FROM u"}},
		},
		{
			name: "blank line terminates pending",
			in:   "SELECT a\nFROM t\n\nSELECT b FROM u\n",
			want: []entry{{"", "SELECT a FROM t"}, {"", "SELECT b FROM u"}},
		},
		{
			name: "comment only lines",
			in:   "-- preamble\n# hash note\nSELECT a FROM t\n-- postscript\n",
			want: []entry{{"", "SELECT a FROM t"}},
		},
		{
			name: "unterminated final statement flushes at EOF",
			in:   "SELECT a\nFROM t",
			want: []entry{{"", "SELECT a FROM t"}},
		},
		{
			name: "junk line does not merge into its neighbor",
			in:   "SELECT a FROM t\nEXEC sp_foo\nSELECT b FROM t\n",
			want: []entry{{"", "SELECT a FROM t"}, {"", "EXEC sp_foo"}, {"", "SELECT b FROM t"}},
		},
		{
			name: "unindented clause keyword continues",
			in:   "SELECT a FROM t\nWHERE x = 1\nAND y = 2\nSELECT b FROM u\n",
			want: []entry{{"", "SELECT a FROM t WHERE x = 1 AND y = 2"}, {"", "SELECT b FROM u"}},
		},
		{
			name: "WITH starts a statement",
			in:   "WITH q AS (SELECT a FROM t)\nSELECT * FROM q;\nSELECT b FROM u\n",
			want: []entry{{"", "WITH q AS (SELECT a FROM t) SELECT * FROM q"}, {"", "SELECT b FROM u"}},
		},
		{
			name: "complete one-line WITH does not swallow next SELECT",
			in:   "WITH q AS (SELECT a FROM t) SELECT * FROM q\nSELECT b FROM u\nSELECT c FROM u\n",
			want: []entry{
				{"", "WITH q AS (SELECT a FROM t) SELECT * FROM q"},
				{"", "SELECT b FROM u"},
				{"", "SELECT c FROM u"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := Read(strings.NewReader(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			if l.Len() != len(tc.want) {
				t.Fatalf("got %d entries %+v, want %d", l.Len(), l.Entries, len(tc.want))
			}
			for i, w := range tc.want {
				if l.Entries[i].Client != w.client || l.Entries[i].SQL != w.sql {
					t.Errorf("entry %d = {%q %q}, want {%q %q}",
						i, l.Entries[i].Client, l.Entries[i].SQL, w.client, w.sql)
				}
				if l.Entries[i].Seq != i {
					t.Errorf("entry %d seq = %d", i, l.Entries[i].Seq)
				}
			}
		})
	}
}

// TestStatementScannerIncremental drives the scanner the way the file
// tailer does: line fragments arrive one at a time, Drain between
// lines, Flush only at the very end.
func TestStatementScannerIncremental(t *testing.T) {
	sc := NewStatementScanner()
	var got []Entry
	for _, line := range []string{"SELECT a,", "  b FROM t;", "tail\tSELECT c", "FROM u"} {
		sc.Line(line)
		got = append(got, sc.Drain()...)
	}
	if len(got) != 1 || got[0].SQL != "SELECT a, b FROM t" {
		t.Fatalf("mid-stream entries = %+v", got)
	}
	sc.Flush()
	got = append(got, sc.Drain()...)
	if len(got) != 2 || got[1].Client != "tail" || got[1].SQL != "SELECT c FROM u" {
		t.Fatalf("final entries = %+v", got)
	}
}
