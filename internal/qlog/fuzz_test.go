package qlog_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/qlog"
	"repro/internal/workload"
)

// FuzzRead: no text panics the log reader, and what it returns is a
// log — entries numbered in order, none blank. Seeded with a written
// workload log (client prefixes, one statement per line) and the messy
// forms Read documents.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := qlog.Interleave(workload.SDSSClients(3, 8, 7)...).Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("-- header\n\n# note\nSELECT a, b\n  FROM t -- tail\n  WHERE x = 'a -- b';SELECT c FROM u; SELECT d\n")
	f.Add("c1\tWITH w AS (SELECT a\nFROM t)\nSELECT * FROM w\n\nc2\tSELECT (\nSELECT 1\n)\n")
	f.Fuzz(func(t *testing.T, text string) {
		l, err := qlog.Read(strings.NewReader(text))
		if err != nil {
			return
		}
		for i, e := range l.Entries {
			if e.Seq != i || strings.TrimSpace(e.SQL) == "" {
				t.Fatalf("entry %d of %q is %+v", i, text, e)
			}
		}
	})
}
