package sqlparser_test

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/qlog"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// FuzzParse: no input panics the parser, and a statement that parses
// renders through ast.SQL to text that parses back to an equal tree —
// the property that lets a mined interface hand executable SQL to the
// engine. Seeded from the mined workloads plus the DML forms; the
// inputs that broke the property are checked in under testdata/fuzz.
func FuzzParse(f *testing.F) {
	for _, l := range []*qlog.Log{workload.SDSSFullLog(40, 7), workload.OLAPLog(40, 7)} {
		for _, sql := range l.SQLs() {
			f.Add(sql)
		}
	}
	f.Add("UPDATE ontime SET Delay = Delay + 1, Carrier = 'AA' WHERE Day = 3")
	f.Add("DELETE FROM ontime WHERE Month IN (1, 2)")
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := sqlparser.ParseStatement(sql)
		if err != nil {
			return
		}
		rendered := ast.SQL(q)
		again, err := sqlparser.ParseStatement(rendered)
		if err != nil {
			t.Fatalf("%q parses but its rendering %q does not: %v", sql, rendered, err)
		}
		if !ast.Equal(q, again) {
			t.Fatalf("%q renders as %q, which parses to a different tree:\n%s\nvs\n%s", sql, rendered, q, again)
		}
	})
}
