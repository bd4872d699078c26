package engine

import (
	"sort"
	"testing"
	"time"

	"repro/internal/sqlparser"
)

// TestColumnarAtLeast10x pins the PR's executable perf bar: the
// columnar kernels must beat row-at-a-time Exec by ≥10x on the OLAP
// widget shape (filter + group-by + aggregates over the on-time
// table), measured as median-of-runs on the same snapshot. The margin
// in practice is larger (the row path boxes every value, builds string
// group keys and walks the AST per row, where the kernels scan typed
// vectors), so 10x holds on loaded CI machines.
func TestColumnarAtLeast10x(t *testing.T) {
	if testing.Short() {
		t.Skip("perf pin skipped in -short")
	}
	db := OnTimeDB(20000)
	sql := "SELECT DestState, COUNT(*), AVG(ArrDelay) FROM ontime WHERE Month = 2 AND DayOfWeek = 3 GROUP BY DestState"
	n, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := CompileColumnar(n)
	if !ok {
		t.Fatal("OLAP widget query did not compile to a columnar plan")
	}

	// Correctness first; also warms the columnar projection cache so
	// the timed section measures kernels, not the one-time build.
	want, err := Exec(db, n)
	if err != nil {
		t.Fatal(err)
	}
	got, ran, err := ExecColumnar(db, p)
	if !ran || err != nil {
		t.Fatalf("columnar exec: ran=%v err=%v", ran, err)
	}
	if !sameResult(want, got) {
		t.Fatalf("columnar result differs from row path:\nrow:\n%s\ncolumnar:\n%s", want.Render(), got.Render())
	}

	median := func(runs int, f func()) time.Duration {
		ds := make([]time.Duration, runs)
		for i := range ds {
			t0 := time.Now()
			f()
			ds[i] = time.Since(t0)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[runs/2]
	}

	rowT := median(7, func() {
		if _, err := Exec(db, n); err != nil {
			t.Fatal(err)
		}
	})
	colT := median(31, func() {
		if _, ran, err := ExecColumnar(db, p); !ran || err != nil {
			t.Fatalf("ran=%v err=%v", ran, err)
		}
	})
	if colT <= 0 {
		colT = time.Nanosecond
	}
	ratio := float64(rowT) / float64(colT)
	t.Logf("row path median %v, columnar median %v (%.1fx)", rowT, colT, ratio)
	if ratio < 10 {
		t.Fatalf("columnar path only %.1fx faster than row path (row %v, columnar %v); want >= 10x",
			ratio, rowT, colT)
	}
}
