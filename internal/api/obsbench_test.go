package api

import (
	"context"
	"sort"
	"testing"
	"time"
)

// newBenchService builds the cached-plan benchmark fixture with
// metrics either live (the shipped configuration) or disabled (the
// clean baseline the overhead comparison needs).
func newBenchService(b testing.TB, metrics bool) (*Service, QueryRequest) {
	iface, db := minedOLAP(b)
	reg := NewRegistry()
	if !metrics {
		reg.DisableMetrics()
	}
	h, err := reg.Add("olap", "OnTime OLAP dashboard", iface, db)
	if err != nil {
		b.Fatal(err)
	}
	svc := NewService(reg)
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
	return svc, req
}

// BenchmarkQueryPlanCachedNoMetrics is BenchmarkQueryPlanCached with
// instrumentation compiled out of the hosted interface — the "metrics
// off" baseline scripts/bench_json.sh folds into BENCH_obs.json to
// compute the instrumentation overhead ratio.
func BenchmarkQueryPlanCachedNoMetrics(b *testing.B) {
	svc, req := newBenchService(b, false)
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
