// Package stats holds the few order statistics the benchmark reports:
// medians, nearest-rank percentiles that refuse to be read off too few
// samples, and the relative spread used as the noise indicator.
package stats

import (
	"math"
	"sort"
)

// MinBeyond is how many samples must lie beyond a percentile before
// the benchmark prints it (choosing-metrics §1).
const MinBeyond = 10

// Median returns the median of xs (mean of the middle pair for an even
// count) and 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100).
// ok is false — and the value 0 — when fewer than MinBeyond samples
// lie beyond it, so a p99.9 is never read off a few hundred ops.
func Percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p > 100 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 1-based; the epsilon absorbs 99.9*n/100 landing a hair above an integer
	if n-rank < MinBeyond {
		return 0, false
	}
	return sorted(xs)[rank-1], true
}

// Mean returns the arithmetic mean, 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Spread is (max - min) / median: the relative distance between the
// extreme repetitions, 0 when the median is 0.
func Spread(xs []float64) float64 {
	m := Median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	s := sorted(xs)
	return (s[len(s)-1] - s[0]) / m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
