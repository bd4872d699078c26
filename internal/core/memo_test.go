package core

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/qlog"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// checkMemo: every mined query equals a fresh parse of its log entry,
// entries with equal text share one pointer, and the statement memo
// holds exactly the log's distinct texts, each mapped to the pointer
// mined for it.
func checkMemo(t *testing.T, m *Miner) {
	t.Helper()
	log, queries := m.Log(), m.Interface().Graph.Queries
	if log.Len() != len(queries) {
		t.Fatalf("%d log entries, %d mined queries", log.Len(), len(queries))
	}
	byText := map[string]*ast.Node{}
	for i, e := range log.Entries {
		fresh, err := sqlparser.Parse(e.SQL)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if !ast.Equal(queries[i], fresh) {
			t.Fatalf("entry %d mined as %s, parses as %s", i, ast.SQL(queries[i]), ast.SQL(fresh))
		}
		if first, ok := byText[e.SQL]; !ok {
			byText[e.SQL] = queries[i]
		} else if first != queries[i] {
			t.Fatalf("entry %d: equal text, two pointers: %q", i, e.SQL)
		}
	}
	if len(m.stmts) != len(byText) {
		t.Fatalf("memo holds %d texts, log has %d distinct", len(m.stmts), len(byText))
	}
	for sql, n := range byText {
		if m.stmts[sql] != n {
			t.Fatalf("memo entry for %q is not the mined pointer", sql)
		}
	}
}

// TestStatementMemo runs checkMemo over the three workload logs, for a
// batch-mined miner and for one grown by appends salted with repeats of
// its own entries and with unparsable statements.
func TestStatementMemo(t *testing.T) {
	logs := []struct {
		name string
		log  *qlog.Log
	}{
		{"sdss", workload.SDSSFullLog(2000, 1)},
		{"olap", workload.OLAPLog(150, 7)},
		{"adhoc", workload.AdhocLog(150, 7)},
	}
	for _, l := range logs {
		t.Run(l.name, func(t *testing.T) {
			batch, err := NewMiner(l.log, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			checkMemo(t, batch)

			grown, err := NewMiner(l.log.Slice(0, 1), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			for at := 1; at < l.log.Len(); at += 16 {
				chunk := append([]qlog.Entry(nil), l.log.Entries[at:min(at+16, l.log.Len())]...)
				chunk = append(chunk, l.log.Entries[at/2], qlog.Entry{SQL: "DROP TABLE x"})
				if _, _, err := grown.Append(chunk); err != nil {
					t.Fatal(err)
				}
			}
			checkMemo(t, grown)
		})
	}
}

// TestMemoKeepsParseErrors: failures are never memoized, so a bad
// statement appended twice counts twice with the same message, and
// NewMiner's error names the entry and its client as it always has.
func TestMemoKeepsParseErrors(t *testing.T) {
	const bad = "DROP TABLE x"
	const parseErr = `sqlparser: expected SELECT, got identifier "DROP" at offset 0 in "DROP TABLE x"`
	good := qlog.FromSQL("SELECT a FROM t", "SELECT a FROM t WHERE x = 1")

	m, err := NewMiner(good, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := m.Append([]qlog.Entry{{SQL: bad}, {SQL: bad}})
	if err != nil {
		t.Fatal(err)
	}
	want := AppendStats{ParseErrors: 2, LastParseError: `entry "DROP TABLE x": ` + parseErr}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if _, st, _ = m.Append([]qlog.Entry{{SQL: bad}}); st.LastParseError != want.LastParseError {
		t.Fatalf("a later failure reads %q, want %q", st.LastParseError, want.LastParseError)
	}
	if _, ok := m.stmts[bad]; ok || len(m.stmts) != 2 {
		t.Fatalf("memo holds %d texts (bad one present: %v), want the 2 good ones", len(m.stmts), ok)
	}

	log := good.Slice(0, good.Len())
	log.Append(bad, "c1")
	_, err = NewMiner(log, DefaultOptions())
	if want := `qlog: entry 2 (client "c1"): ` + parseErr; err == nil || err.Error() != want {
		t.Fatalf("NewMiner error = %v, want %s", err, want)
	}
}
