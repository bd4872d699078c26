package api

import (
	"context"
	"sort"
	"testing"
	"time"
)

// BenchmarkQueryPlanCached measures the full cached-plan query path a
// warm dashboard pays per interaction — pooled key render, plan-cache
// hit, bound execution against the hosted snapshot — and reports tail
// latency (p50_ns/p99_ns) alongside the mean, because the mean hides
// exactly the stalls a slider drag feels. It drives QueryIntoCtx with a
// reused response, the same shape the HTTP handler's response pool
// produces, so the number is the serving path's cost, not the
// caller's allocation discipline. scripts/bench_json.sh folds the
// numbers into BENCH_query.json.
func BenchmarkQueryPlanCached(b *testing.B) {
	svc, h := newTestService(b)
	w := sliderWidget(b, h.Iface())
	lo, _ := w.Domain.Range()
	req := QueryRequest{Widgets: []WidgetBinding{{Path: w.Path.String(), Number: &lo}}}

	// Warm the plan cache; every timed iteration must be a hit.
	if _, err := svc.Query("olap", req); err != nil {
		b.Fatal(err)
	}
	if resp, err := svc.Query("olap", req); err != nil || resp.Plan != "hit" {
		b.Fatalf("warmup did not cache the plan: %+v (%v)", resp, err)
	}

	var resp QueryResponse
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := svc.QueryIntoCtx(context.Background(), "olap", req, &resp); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p int) float64 {
		idx := len(lat) * p / 100
		if idx >= len(lat) {
			idx = len(lat) - 1
		}
		return float64(lat[idx].Nanoseconds())
	}
	b.ReportMetric(pct(50), "p50_ns")
	b.ReportMetric(pct(99), "p99_ns")
}
