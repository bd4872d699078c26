// Package trace records spans around the public entry points of the
// program's layers from outside the program: a timing http.Handler, a
// timing api.Servicer, and explicit Begin/End pairs around direct
// library calls. Nothing in the program itself is instrumented
// (choosing-metrics §4: in the change that defines the benchmark,
// spans are recorded from the benchmark's own files).
//
// The benchmark drives one closed-loop client, so at most one op is in
// flight and its hop chain is strictly nested in time. A span's parent
// is therefore simply the innermost span open when it begins, kept on
// one stack under a mutex — handlers run on server goroutines, but
// never concurrently with another span of the same op.
package trace

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of one op. Parent indexes Recorder.Spans
// (-1 for the op's root span).
type Span struct {
	Name       string
	Op         int
	Parent     int
	Start, End time.Time
	Bytes      int64 // handler spans: response bytes written to the wire
}

// Dur is the span's length.
func (s *Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// Recorder keeps spans in memory; they are summarised when the run ends.
// Spans that begin while no op is open (warm-up traffic, readiness
// probes) are dropped.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
	stack []int
	op    int // 0 = no op open
}

// BeginOp opens op id (ids start at 1) with a root span of the given
// name; EndOp closes it.
func (r *Recorder) BeginOp(id int, name string) {
	r.mu.Lock()
	r.op = id
	r.stack = r.stack[:0]
	r.mu.Unlock()
	r.Begin(name)
}

// EndOp closes the op's root span and the op.
func (r *Recorder) EndOp() {
	now := time.Now()
	r.mu.Lock()
	for _, i := range r.stack { // the root, and any span a failed hop left open
		r.spans[i].End = now
	}
	r.stack = r.stack[:0]
	r.op = 0
	r.mu.Unlock()
}

// Begin opens a span under the innermost open span and returns its
// handle for End; -1 when no op is open.
func (r *Recorder) Begin(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.op == 0 {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, Span{Name: name, Op: r.op, Parent: parent, Start: time.Now()})
	i := len(r.spans) - 1
	r.stack = append(r.stack, i)
	return i
}

// End closes the span Begin returned.
func (r *Recorder) End(i int) { r.EndBytes(i, 0) }

// EndBytes closes a handler span, noting the response size.
func (r *Recorder) EndBytes(i int, bytes int64) {
	now := time.Now()
	if i < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// An op that ended meanwhile (EndOp after a failed hop) has already
	// closed the span.
	if n := len(r.stack); n > 0 && r.stack[n-1] == i {
		r.spans[i].End = now
		r.spans[i].Bytes = bytes
		r.stack = r.stack[:n-1]
	}
}

// Inject adds a span that was timed in isolation — work the harness
// cannot intercept from outside, re-run alone on the same input — as
// the child of op's span named parent, so that the parent's self time
// excludes it. It reports whether the parent span exists.
func (r *Recorder) Inject(op int, parent, name string, d time.Duration) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if p := &r.spans[i]; p.Op == op && p.Name == parent {
			r.spans = append(r.spans, Span{Name: name, Op: op, Parent: i, Start: p.Start, End: p.Start.Add(d)})
			return true
		}
	}
	return false
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// OpTimes is one op's summary: per span name, the total duration and
// the self time (duration minus the part covered by child spans).
type OpTimes struct {
	Op   int
	Dur  map[string]time.Duration
	Self map[string]time.Duration
}

// Summarize folds spans into per-op self times, in op order.
func Summarize(spans []Span) []OpTimes {
	child := make([]time.Duration, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			child[p] += spans[i].Dur()
		}
	}
	byOp := map[int]*OpTimes{}
	for i := range spans {
		s := &spans[i]
		ot := byOp[s.Op]
		if ot == nil {
			ot = &OpTimes{Op: s.Op, Dur: map[string]time.Duration{}, Self: map[string]time.Duration{}}
			byOp[s.Op] = ot
		}
		ot.Dur[s.Name] += s.Dur()
		ot.Self[s.Name] += s.Dur() - child[i]
	}
	out := make([]OpTimes, 0, len(byOp))
	for _, ot := range byOp {
		out = append(out, *ot)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out
}
