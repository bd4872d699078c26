package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// fuzzCells are the values a fuzzed table is drawn from: every column
// layout (numeric, dictionary string, boxed mixed) and the coercion
// corners between them.
var fuzzCells = []Value{
	Null(), Num(0), Num(1), Num(-3), Num(math.NaN()),
	Str("5"), Str("05"), Str("a"), Str("NULL"), Boolean(true), Str("NaN"),
}

// fuzzLits are the SQL literals a fuzzed predicate compares against.
var fuzzLits = []string{"NULL", "0", "1", "-3", "'5'", "'05'", "'a'", "'NULL'", "'NaN'", "true", "'%a%'", "'_'"}

var (
	fuzzCmpOps = []string{"=", "<>", "!=", "<", "<=", ">", ">=", "LIKE"}
	fuzzAggs   = []string{"COUNT(*)", "COUNT(%s)", "SUM(%s)", "AVG(%s)", "MIN(%s)", "MAX(%s)"}
	fuzzCols   = []string{"a", "b", "c"}
)

// fuzzQuery decodes a table of up to 8 rows over fuzzCells and one
// predicate or aggregate query over it.
func fuzzQuery(data []byte) (*DB, string) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	tb := NewTable("t", fuzzCols...)
	for r := next() % 9; r > 0; r-- {
		tb.MustAddRow(fuzzCells[next()%len(fuzzCells)], fuzzCells[next()%len(fuzzCells)], fuzzCells[next()%len(fuzzCells)])
	}
	db := NewDB()
	db.AddTable(tb)

	col := func() string { return fuzzCols[next()%len(fuzzCols)] }
	lit := func() string { return fuzzLits[next()%len(fuzzLits)] }
	not := func() string {
		if next()%2 == 1 {
			return "NOT "
		}
		return ""
	}
	agg := func() string { return strings.Replace(fuzzAggs[next()%len(fuzzAggs)], "%s", col(), 1) }
	var sql string
	switch next() % 7 {
	case 0:
		sql = fmt.Sprintf("SELECT * FROM t WHERE %s %s %s", col(), fuzzCmpOps[next()%len(fuzzCmpOps)], lit())
	case 1:
		sql = fmt.Sprintf("SELECT * FROM t WHERE %s %s %s", lit(), fuzzCmpOps[next()%len(fuzzCmpOps)], col())
	case 2:
		sql = fmt.Sprintf("SELECT * FROM t WHERE %s IS %sNULL", col(), not())
	case 3:
		sql = fmt.Sprintf("SELECT * FROM t WHERE %s %sBETWEEN %s AND %s", col(), not(), lit(), lit())
	case 4:
		sql = fmt.Sprintf("SELECT * FROM t WHERE %s %sIN (%s, %s)", col(), not(), lit(), lit())
	case 5:
		sql = fmt.Sprintf("SELECT %s FROM t", agg())
	default:
		g := col()
		sql = fmt.Sprintf("SELECT %s, %s FROM t GROUP BY %s", g, agg(), g)
	}
	return db, sql
}

// FuzzColumnarMatchesRow: on any small table and any predicate or
// aggregate the columnar kernels take, they give the row interpreter's
// table (a NaN equal to a NaN) or its error text.
func FuzzColumnarMatchesRow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 5, 9, 4, 7, 0, 2, 3, 8, 0, 0, 1, 2})
	f.Add([]byte{8, 4, 4, 4, 1, 1, 1, 2, 2, 2, 0, 0, 0, 3, 3, 3, 5, 5, 5, 6, 6, 6, 8, 8, 8, 3, 0, 1, 0})
	f.Add([]byte{6, 0, 5, 7, 1, 6, 8, 2, 7, 9, 3, 8, 0, 4, 9, 1, 5, 0, 2, 6, 1, 7, 1, 2})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 3, 0, 1, 0, 0})
	f.Add([]byte{4, 1, 1, 1, 4, 4, 4, 2, 2, 2, 0, 0, 0, 5, 2, 1})
	// a = '5' over a dictionary column "5", "NaN", "05", "5": every row
	// matches, and the postings union three groups out of row order.
	f.Add([]byte{4, 5, 1, 1, 10, 2, 2, 6, 3, 3, 5, 4, 4, 0, 0, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		db, sql := fuzzQuery(data)
		tb, _ := db.Table("t")
		t.Logf("over\n%s", tb.Render())
		matchBoth(t, db, sql)
	})
}
