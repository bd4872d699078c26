package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// lines returns the non-comment sample lines of an exposition dump.
func lines(dump string) []string {
	var out []string
	for _, l := range strings.Split(dump, "\n") {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		out = append(out, l)
	}
	return out
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("t_requests_total", "Requests.", "route", "class")
	for i := 0; i < 3; i++ {
		c.With("/v1/query/{id}", "2xx").Inc()
	}
	c.With("/v1/query/{id}", "5xx").Inc()
	g := r.GaugeVec("t_depth", "Depth.")
	g.With().Set(-2.5)
	r.GaugeFunc("t_lazy", "Lazy gauge.", func() float64 { return 42 })

	dump := scrape(t, r)
	for _, want := range []string{
		`t_requests_total{route="/v1/query/{id}",class="2xx"} 3`,
		`t_requests_total{route="/v1/query/{id}",class="5xx"} 1`,
		`t_depth -2.5`,
		`t_lazy 42`,
		"# TYPE t_requests_total counter",
		"# TYPE t_depth gauge",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("exposition missing %q:\n%s", want, dump)
		}
	}
}

func TestLabelAndHelpEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("t_esc_total", "Help with \\ and\nnewline.", "sql")
	c.With("SELECT \"a\\b\"\nFROM t").Inc()

	dump := scrape(t, r)
	wantHelp := `# HELP t_esc_total Help with \\ and\nnewline.`
	wantLine := `t_esc_total{sql="SELECT \"a\\b\"\nFROM t"} 1`
	if !strings.Contains(dump, wantHelp) {
		t.Errorf("help not escaped, want %q in:\n%s", wantHelp, dump)
	}
	if !strings.Contains(dump, wantLine) {
		t.Errorf("label not escaped, want %q in:\n%s", wantLine, dump)
	}
}

// TestHistogramInvariants pins the three properties every Prometheus
// consumer assumes: buckets are cumulative and non-decreasing, the
// +Inf bucket equals _count, and _sum equals the sum of observations
// in exposed units.
func TestHistogramInvariants(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("t_lat_seconds", "Latency.", []float64{1e-6, 1e-3, 1}, "op")
	h := hv.With("query")
	obsd := []time.Duration{
		500 * time.Nanosecond, // first bucket
		2 * time.Microsecond,  // second
		time.Millisecond,      // second (inclusive upper bound)
		50 * time.Millisecond, // third
		5 * time.Second,       // +Inf
	}
	var sum time.Duration
	for _, d := range obsd {
		h.Observe(d)
		sum += d
	}

	dump := scrape(t, r)
	get := func(suffix string) float64 {
		t.Helper()
		for _, l := range lines(dump) {
			if strings.HasPrefix(l, "t_lat_seconds"+suffix) {
				f, err := strconv.ParseFloat(l[strings.LastIndexByte(l, ' ')+1:], 64)
				if err != nil {
					t.Fatalf("bad sample line %q: %v", l, err)
				}
				return f
			}
		}
		t.Fatalf("no line with suffix %q in:\n%s", suffix, dump)
		return 0
	}
	buckets := []float64{
		get(`_bucket{op="query",le="1e-06"}`),
		get(`_bucket{op="query",le="0.001"}`),
		get(`_bucket{op="query",le="1"}`),
		get(`_bucket{op="query",le="+Inf"}`),
	}
	want := []float64{1, 3, 4, 5}
	for i := range buckets {
		if buckets[i] != want[i] {
			t.Errorf("bucket %d = %v, want %v", i, buckets[i], want[i])
		}
		if i > 0 && buckets[i] < buckets[i-1] {
			t.Errorf("buckets not cumulative at %d: %v", i, buckets)
		}
	}
	if count := get(`_count{op="query"}`); count != buckets[3] {
		t.Errorf("_count %v != +Inf bucket %v", count, buckets[3])
	}
	if got, wantSum := get(`_sum{op="query"}`), sum.Seconds(); got < wantSum*0.999 || got > wantSum*1.001 {
		t.Errorf("_sum = %v, want ~%v", got, wantSum)
	}
}

func TestUnitHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.UnitHistogramVec("t_batch", "Batch sizes.", []float64{1, 8, 64}).With()
	for _, n := range []int64{1, 5, 64, 100} {
		h.ObserveN(n)
	}
	dump := scrape(t, r)
	for _, want := range []string{
		`t_batch_bucket{le="1"} 1`,
		`t_batch_bucket{le="8"} 2`,
		`t_batch_bucket{le="64"} 3`,
		`t_batch_bucket{le="+Inf"} 4`,
		`t_batch_sum 170`,
		`t_batch_count 4`,
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("missing %q in:\n%s", want, dump)
		}
	}
}

func TestLazyCounterFunc(t *testing.T) {
	r := NewRegistry()
	var backing uint64 = 7
	r.CounterVec("t_lazy_total", "Lazy.", "iface").Func(func() uint64 { return backing }, "olap")
	if !strings.Contains(scrape(t, r), `t_lazy_total{iface="olap"} 7`) {
		t.Fatal("lazy counter not evaluated at scrape")
	}
	backing = 9
	if !strings.Contains(scrape(t, r), `t_lazy_total{iface="olap"} 9`) {
		t.Fatal("lazy counter not re-evaluated")
	}
}

func TestVecHandleIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("t_id_total", "x.", "a")
	if v.With("x") != v.With("x") {
		t.Error("same labels resolved to different handles")
	}
	if v.With("x") == v.With("y") {
		t.Error("different labels resolved to the same handle")
	}
	// Re-registering the family yields the same series.
	v2 := r.CounterVec("t_id_total", "x.", "a")
	if v.With("x") != v2.With("x") {
		t.Error("re-registered family lost its series")
	}
}

func TestRegistryShapeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("t_shape_total", "x.", "a")
	defer func() {
		if recover() == nil {
			t.Error("label mismatch did not panic")
		}
	}()
	r.CounterVec("t_shape_total", "x.", "b")
}

// TestMetricsRecordZeroAlloc pins the record path — counter, gauge,
// histogram, and the slow-ring decision — at zero allocations. This is
// what lets the cached-plan query path stay at 0 allocs/op with
// instrumentation live.
func TestMetricsRecordZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("t_za_total", "x.", "iface").With("olap")
	g := r.GaugeVec("t_za_gauge", "x.").With()
	h := r.HistogramVec("t_za_seconds", "x.", LatencyBuckets, "iface", "plan").With("olap", "hit")
	ring := NewSlowRing(8, 50*time.Millisecond, 0)

	allocs := testing.AllocsPerRun(500, func() {
		c.Inc()
		g.Set(1.5)
		h.Observe(300 * time.Nanosecond)
		h.Observe(80 * time.Millisecond)
		if ring.Should(time.Microsecond) {
			t.Fatal("1us should not pass a 50ms threshold")
		}
		_ = ring.Armed()
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %.1f objects per op, want 0", allocs)
	}
}

// TestConcurrentScrapeWhileRecording drives writers on every metric
// kind while scraping in a loop; run under -race this pins the
// lock-free record path against the exposition snapshot.
func TestConcurrentScrapeWhileRecording(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("t_cc_total", "x.", "i")
	g := r.GaugeVec("t_cc_gauge", "x.", "i")
	h := r.HistogramVec("t_cc_seconds", "x.", LatencyBuckets, "i")
	ring := NewSlowRing(16, time.Nanosecond, 3)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := fmt.Sprintf("w%d", w)
			cc, gg, hh := c.With(lbl), g.With(lbl), h.With(lbl)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cc.Inc()
				gg.Set(float64(i))
				d := time.Duration(i%1000) * time.Microsecond
				hh.Observe(d)
				if ring.Should(d) {
					ring.Record(SlowEntry{Interface: lbl, TotalMS: d.Seconds() * 1e3})
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var b bytes.Buffer
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		// Cumulativity must hold on every concurrent snapshot: _count
		// is derived from the same bucket loads, so +Inf == _count.
		assertCumulative(t, b.String())
		ring.Report()
	}
	close(stop)
	wg.Wait()
}

// assertCumulative checks every histogram series in a dump for
// non-decreasing buckets and +Inf == _count. It relies on the writer's
// per-series layout (buckets, then _sum, then _count), which is part
// of the exposition contract.
func assertCumulative(t *testing.T, dump string) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(dump))
	last := map[string]float64{} // per-series prefix -> previous bucket value
	curInf := -1.0               // +Inf of the series currently being walked
	for sc.Scan() {
		l := sc.Text()
		if strings.HasPrefix(l, "#") || l == "" {
			continue
		}
		val := func() float64 {
			v, err := strconv.ParseFloat(l[strings.LastIndexByte(l, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("bad sample line %q: %v", l, err)
			}
			return v
		}
		if i := strings.Index(l, `le="`); i >= 0 && strings.Contains(l, "_bucket") {
			v := val()
			key := l[:i]
			if v < last[key] {
				t.Fatalf("bucket regression in %q: %v < %v", l, v, last[key])
			}
			last[key] = v
			if strings.Contains(l, `le="+Inf"`) {
				curInf = v
			}
			continue
		}
		if strings.Contains(l, "_count") && curInf >= 0 {
			if v := val(); v != curInf {
				t.Fatalf("_count %v != +Inf bucket %v at %q", v, curInf, l)
			}
			curInf = -1
		}
	}
}
