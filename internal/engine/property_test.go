package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomExecDB builds a small random table deterministically.
func randomExecDB(r *rand.Rand) *DB {
	db := NewDB()
	t := NewTable("r", "k", "v", "s")
	n := 5 + r.Intn(40)
	for i := 0; i < n; i++ {
		t.MustAddRow(
			Num(float64(r.Intn(5))),
			Num(float64(r.Intn(100))),
			Str(string(rune('a'+r.Intn(4)))),
		)
	}
	db.AddTable(t)
	return db
}

// TestPropertyWhereSubset: filtering never yields more rows than the
// unfiltered scan, and filters compose monotonically (AND narrows).
func TestPropertyWhereSubset(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		db := randomExecDB(r)
		all := exec(t, db, "SELECT k, v FROM r")
		x := r.Intn(100)
		filtered := exec(t, db, fmt.Sprintf("SELECT k, v FROM r WHERE v > %d", x))
		both := exec(t, db, fmt.Sprintf("SELECT k, v FROM r WHERE v > %d AND k = 1", x))
		if len(filtered.Rows) > len(all.Rows) || len(both.Rows) > len(filtered.Rows) {
			t.Fatalf("monotonicity violated: %d, %d, %d",
				len(all.Rows), len(filtered.Rows), len(both.Rows))
		}
	}
}

// TestPropertyLimitBound: LIMIT/TOP n returns at most n rows and is a
// prefix of the unlimited ordering.
func TestPropertyLimitBound(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 30; trial++ {
		db := randomExecDB(r)
		n := 1 + r.Intn(10)
		full := exec(t, db, "SELECT v FROM r ORDER BY v DESC")
		lim := exec(t, db, fmt.Sprintf("SELECT TOP %d v FROM r ORDER BY v DESC", n))
		if len(lim.Rows) > n {
			t.Fatalf("TOP %d returned %d rows", n, len(lim.Rows))
		}
		for i := range lim.Rows {
			if Compare(lim.Rows[i][0], full.Rows[i][0]) != 0 {
				t.Fatalf("TOP result is not a prefix at row %d", i)
			}
		}
	}
}

// TestPropertyDistinctIdempotent: DISTINCT output has no duplicate rows
// and re-applying it changes nothing.
func TestPropertyDistinctIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for trial := 0; trial < 30; trial++ {
		db := randomExecDB(r)
		d := exec(t, db, "SELECT DISTINCT k, s FROM r")
		seen := map[string]bool{}
		for _, row := range d.Rows {
			key := rowKey(row)
			if seen[key] {
				t.Fatalf("duplicate row after DISTINCT: %v", row)
			}
			seen[key] = true
		}
	}
}

// TestPropertyGroupCountsSum: per-group COUNT(*) sums to the table
// cardinality, and the number of groups equals COUNT(DISTINCT key).
func TestPropertyGroupCountsSum(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	for trial := 0; trial < 30; trial++ {
		db := randomExecDB(r)
		total := exec(t, db, "SELECT COUNT(*) FROM r").Rows[0][0].Num
		grouped := exec(t, db, "SELECT k, COUNT(*) FROM r GROUP BY k")
		sum := 0.0
		for _, row := range grouped.Rows {
			sum += row[1].Num
		}
		if sum != total {
			t.Fatalf("group counts sum %v != total %v", sum, total)
		}
		distinct := exec(t, db, "SELECT COUNT(DISTINCT k) FROM r").Rows[0][0].Num
		if float64(len(grouped.Rows)) != distinct {
			t.Fatalf("groups %d != distinct keys %v", len(grouped.Rows), distinct)
		}
	}
}

// TestPropertyAggregateAlgebra: SUM = AVG * COUNT, MIN <= AVG <= MAX
// for every group.
func TestPropertyAggregateAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	for trial := 0; trial < 30; trial++ {
		db := randomExecDB(r)
		res := exec(t, db,
			"SELECT k, SUM(v), AVG(v), COUNT(v), MIN(v), MAX(v) FROM r GROUP BY k")
		for _, row := range res.Rows {
			sum, avg, cnt := row[1].Num, row[2].Num, row[3].Num
			min, max := row[4].Num, row[5].Num
			if diff := sum - avg*cnt; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("SUM %v != AVG %v * COUNT %v", sum, avg, cnt)
			}
			if min > avg || avg > max {
				t.Fatalf("MIN %v <= AVG %v <= MAX %v violated", min, avg, max)
			}
		}
	}
}

// TestPropertyJoinVsWhere: an inner join equals the cross product
// filtered by the same condition.
func TestPropertyJoinVsWhere(t *testing.T) {
	r := rand.New(rand.NewSource(58))
	for trial := 0; trial < 20; trial++ {
		db := randomExecDB(r)
		u := NewTable("u", "k2", "w")
		for i := 0; i < 4+r.Intn(10); i++ {
			u.MustAddRow(Num(float64(r.Intn(5))), Num(float64(r.Intn(50))))
		}
		db.AddTable(u)
		joined := exec(t, db, "SELECT COUNT(*) FROM r JOIN u ON k = k2")
		crossed := exec(t, db, "SELECT COUNT(*) FROM r, u WHERE k = k2")
		if joined.Rows[0][0].Num != crossed.Rows[0][0].Num {
			t.Fatalf("join %v != filtered cross product %v",
				joined.Rows[0][0], crossed.Rows[0][0])
		}
	}
}
