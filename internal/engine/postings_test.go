package engine

import (
	"math"
	"slices"
	"testing"
)

// eqPred is the compiled form of `col = lit`.
func eqPred(lit Value) *colPred { return &colPred{op: "=", lit: lit} }

// scanPositions is the oracle: the positions the scan kernel keeps.
func scanPositions(ct *ColumnarTable, ci int, pr *colPred) []int32 {
	f, _ := ct.predEval(pr, ci)
	var out []int32
	for i := int32(0); i < int32(ct.N); i++ {
		if f(i) {
			out = append(out, i)
		}
	}
	return out
}

// TestPostingsMatchScan: a column's second `=` lookup answers from its
// postings, with exactly the positions the scan keeps, for every
// literal the coercion rules make interesting.
func TestPostingsMatchScan(t *testing.T) {
	tb := NewTable("t", "n", "s")
	for i, s := range []string{"5", "a", "NaN", "05", "5", "b", "5.0", "a"} {
		n := Num(float64(i % 3))
		if i == 6 {
			n = Null()
		}
		tb.MustAddRow(n, Str(s))
	}
	tb.MustAddRow(Num(math.Copysign(0, -1)), Null())
	ct := BuildColumnar(tb)
	lits := []Value{Num(0), Num(1), Num(5), Num(7), Str("5"), Str("a"), Str("NaN"), Str("zz"), Null()}
	for ci, kind := range []ColumnKind{ColNum, ColStr} {
		if ct.cols[ci].Kind != kind {
			t.Fatalf("column %d kind = %v, want %v", ci, ct.cols[ci].Kind, kind)
		}
		for _, lit := range lits {
			pr := eqPred(lit)
			if lit.Kind != KindNumber && kind == ColNum {
				continue // declines; TestPostingsDecline
			}
			ct.lookup(ci, pr) // the first use scans
			got, ok := ct.lookup(ci, pr)
			if !ok {
				t.Fatalf("column %d = %v: second lookup declined", ci, lit)
			}
			if want := scanPositions(ct, ci, pr); !slices.Equal(got, want) {
				t.Errorf("column %d = %v: postings %v, scan %v", ci, lit, got, want)
			}
		}
	}
}

// TestPostingsDecline: the lookups the postings must leave to the scan.
func TestPostingsDecline(t *testing.T) {
	tb := NewTable("t", "n", "s", "m")
	tb.MustAddRow(Num(1), Str("x"), Num(1))
	tb.MustAddRow(Num(2), Str("y"), Str("1"))
	ct := BuildColumnar(tb)
	if ct.cols[2].Kind != ColMixed {
		t.Fatalf("column m kind = %v, want ColMixed", ct.cols[2].Kind)
	}
	twice := func(ci int, pr *colPred) bool {
		_, first := ct.lookup(ci, pr)
		_, second := ct.lookup(ci, pr)
		if first {
			t.Fatalf("column %d %s %v: first lookup served", ci, pr.op, pr.lit)
		}
		return second
	}
	if !twice(0, eqPred(Num(1))) || !twice(1, eqPred(Str("x"))) {
		t.Fatal("a plain equality was not served on its second lookup")
	}
	for _, c := range []struct {
		ci int
		pr *colPred
	}{
		{0, &colPred{op: "<", lit: Num(2)}},
		{1, &colPred{op: "<>", lit: Str("x")}},
		{0, eqPred(Str("1"))},
		{0, eqPred(Num(math.NaN()))},
		{0, eqPred(Null())},
		{2, eqPred(Num(1))},
	} {
		if _, ok := ct.lookup(c.ci, c.pr); ok {
			t.Errorf("column %d %s %v: served, want the scan", c.ci, c.pr.op, c.pr.lit)
		}
	}

	// A NaN equals every number, so a numeric column holding one is
	// never served, whether or not buildColumn lets NaN into ColNum.
	nan := BuildColumnar(tb)
	nan.cols[0].Nums[1] = math.NaN()
	nan.lookup(0, eqPred(Num(1)))
	if _, ok := nan.lookup(0, eqPred(Num(1))); ok {
		t.Fatal("a ColNum column holding a NaN was served")
	}
}

// TestPostingsHandOutCopies: ExecColumnar narrows the selection a
// lookup hands it in place, so every lookup must return a fresh slice.
func TestPostingsHandOutCopies(t *testing.T) {
	db := mixedDB()
	for i := 0; i < 2; i++ {
		// s = 'ca' keeps rows 0 and 3; n > 1 narrows that to row 3.
		if res, _, _ := runColumnar(t, db, "SELECT n FROM t WHERE s = 'ca' AND n > 1"); len(res.Rows) != 1 {
			t.Fatalf("run %d: %d rows, want 1", i, len(res.Rows))
		}
	}
	if res, _, _ := runColumnar(t, db, "SELECT n FROM t WHERE s = 'ca'"); len(res.Rows) != 2 {
		t.Fatalf("narrowing leaked into the postings: %d rows, want 2", len(res.Rows))
	}
	tab, _ := db.Table("t")
	ct := tab.Columnar()
	ct.lookup(0, eqPred(Num(1)))
	pos, ok := ct.lookup(0, eqPred(Num(1)))
	if !ok || len(pos) != 2 {
		t.Fatalf("n = 1: %v (ok=%v), want two positions", pos, ok)
	}
	pos[0] = 99
	if again, _ := ct.lookup(0, eqPred(Num(1))); again[0] == 99 {
		t.Fatal("a lookup handed out the postings themselves")
	}
}
