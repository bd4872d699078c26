// Package obs is the fleet's dependency-free metrics substrate: atomic
// counters, gauges, and fixed-bucket histograms behind a registry that
// exposes everything in Prometheus text format. The design constraint
// that shapes the whole package is the cached-plan query path, which
// serves a warm dashboard interaction in ~215ns: instrumentation must
// cost zero allocations and no map lookups per record. Label-resolved
// handles are therefore materialized once (at host/startup time, under
// a lock) and the record path touches only atomics.
//
// Histograms count in integer "ticks" (one tick = 1/scale of the
// exposed unit; latency histograms use scale 1e9 so a tick is a
// nanosecond and the exposed unit is seconds). Integer ticks keep the
// sum a single atomic add instead of a CAS loop on float bits, and
// bucket search an integer compare ladder.
//
// Values that something else already counts — cache hit totals, a
// hosted interface's query counter — register as lazy series
// (CounterVec.Func / GaugeVec.Func): the registry calls the closure at
// scrape time instead of paying a second atomic on the hot path. This
// is also what keeps /v1/debug and /v1/metrics from drifting: both
// read the same underlying atomics.
package obs

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current total.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return floatFrom(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Bounds are inclusive upper
// edges in ticks; counts[len(bounds)] is the +Inf bucket. The exposed
// _count is derived from the buckets at scrape time, so the
// cumulative-bucket / +Inf / _count invariants hold by construction
// even under concurrent recording.
type Histogram struct {
	upper []int64  // tick upper bounds, ascending
	le    []string // preformatted `le` values for exposition
	scale float64  // ticks per exposed unit

	counts []atomic.Uint64 // len(upper)+1
	sum    atomic.Int64    // ticks
}

// Observe records a duration (for scale-1e9 histograms: exposed in
// seconds). Zero allocations.
func (h *Histogram) Observe(d time.Duration) { h.ObserveTicks(int64(d)) }

// ObserveN records a dimensionless value on a unit histogram
// (scale 1): batch sizes, row counts.
func (h *Histogram) ObserveN(n int64) { h.ObserveTicks(n) }

// ObserveTicks records a raw tick value.
func (h *Histogram) ObserveTicks(t int64) {
	i := 0
	for i < len(h.upper) && t > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(t)
}

// LatencyBuckets spans 250ns to 2.5s: the low end covers the cached
// in-process query path, the high end covers a cross-shard proxy stall.
var LatencyBuckets = []float64{
	250e-9, 1e-6, 5e-6, 25e-6, 100e-6, 500e-6,
	2.5e-3, 10e-3, 50e-3, 250e-3, 1, 2.5,
}

// SizeBuckets is a power-of-two ladder for batch sizes and counts.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one label combination inside a family. Exactly one of the
// value fields is used, matching the family kind; fnU64/fnF64 mark
// lazy series evaluated at scrape time.
type series struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
	fnU64  func() uint64
	fnF64  func() float64
}

type family struct {
	name    string
	help    string
	k       kind
	labels  []string
	buckets []float64 // exposed units; histogram only
	scale   float64   // histogram only

	mu    sync.Mutex
	index map[string]*series
	order []*series
}

const keySep = "\xff"

func seriesKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	var b []byte
	b = make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, keySep...)
		}
		b = append(b, v...)
	}
	return string(b)
}

// ensure returns the series for the given label values, creating it if
// needed. Called at handle-resolution time, never per record.
func (f *family) ensure(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.index[key]
	if !ok {
		vals := make([]string, len(values))
		copy(vals, values)
		s = &series{values: vals}
		switch f.k {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = newHistogram(f.buckets, f.scale)
		}
		f.index[key] = s
		f.order = append(f.order, s)
	}
	return s
}

func newHistogram(buckets []float64, scale float64) *Histogram {
	h := &Histogram{
		upper:  make([]int64, len(buckets)),
		le:     make([]string, len(buckets)),
		scale:  scale,
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	for i, b := range buckets {
		h.upper[i] = int64(b * scale)
		h.le[i] = strconv.FormatFloat(b, 'g', -1, 64)
	}
	return h
}

// Registry holds metric families. The zero value is not usable; use
// NewRegistry or the package-level Default.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	start time.Time
}

// Default is the process-wide registry every package in this repo
// instruments against. Both binaries expose it at /v1/metrics.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family), start: time.Now()}
}

// family registers (or returns the existing) family. Re-registration
// with the same shape is idempotent — tests and re-hosted interfaces
// resolve the same families repeatedly — but a kind or label mismatch
// is a programming error and panics.
func (r *Registry) family(name, help string, k kind, labels []string, buckets []float64, scale float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.k != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different shape", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		k:       k,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		scale:   scale,
		index:   make(map[string]*series),
	}
	r.fams[name] = f
	return f
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers a counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, labels, nil, 0)}
}

// With resolves the handle for one label combination. Resolve once,
// record forever.
func (v *CounterVec) With(values ...string) *Counter { return v.f.ensure(values).c }

// Func registers a lazy series whose value is computed at scrape time.
// Use it when another subsystem already maintains the total.
func (v *CounterVec) Func(fn func() uint64, values ...string) {
	s := v.f.ensure(values)
	v.f.mu.Lock()
	s.fnU64 = fn
	v.f.mu.Unlock()
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, labels, nil, 0)}
}

// With resolves the handle for one label combination.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.ensure(values).g }

// Func registers a lazy gauge series computed at scrape time.
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	s := v.f.ensure(values)
	v.f.mu.Lock()
	s.fnF64 = fn
	v.f.mu.Unlock()
}

// GaugeFunc registers an unlabeled lazy gauge (process-level values:
// goroutine count, uptime).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	v := &GaugeVec{r.family(name, help, kindGauge, nil, nil, 0)}
	v.Func(fn)
}

// RegisterProcess registers the process-level gauges every serving
// binary exposes. Idempotent: re-registering replaces the closures.
func (r *Registry) RegisterProcess() {
	r.GaugeFunc("pi_goroutines", "Goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("pi_uptime_seconds", "Seconds since the metrics registry was created.",
		func() float64 { return time.Since(r.start).Seconds() })
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a latency histogram family: bucket bounds are
// in seconds, observations are time.Durations (tick = 1ns).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, labels, buckets, 1e9)}
}

// UnitHistogramVec registers a dimensionless histogram family (batch
// sizes, counts): bucket bounds are plain values, observe with
// ObserveN (tick = 1 unit).
func (r *Registry) UnitHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, labels, buckets, 1)}
}

// With resolves the handle for one label combination.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.ensure(values).h }

// snapshotFamilies returns the families sorted by name, for exposition.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
