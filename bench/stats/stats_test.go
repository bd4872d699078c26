package stats

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting is exercised
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{seq(101), 51},
	} {
		if got := Median(tc.in); got != tc.want {
			t.Errorf("Median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{0, 50, 0, false},
		{100, 90, 90, true},    // 10 samples beyond
		{100, 91, 0, false},    // 9 beyond
		{1000, 99, 990, true},  // exactly 10 beyond
		{1000, 99.9, 0, false}, // 1 beyond
		{10000, 99.9, 9990, true},
		{20, 50, 10, true},
		{19, 50, 0, false},
		{100, 0, 0, false},
		{100, 101, 0, false},
	} {
		got, ok := Percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("Percentile(1..%d, %v) = %v,%v want %v,%v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMeanAndSpread(t *testing.T) {
	if got := Mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Spread([]float64{90, 100, 120}); got != 0.3 {
		t.Errorf("Spread = %v", got)
	}
	if got := Spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("Spread of zeros = %v", got)
	}
}
