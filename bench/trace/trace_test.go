package trace

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSelfTimesTelescope(t *testing.T) {
	rec := &Recorder{}
	if rec.Begin("stray") != -1 {
		t.Fatal("a span outside an op was recorded")
	}
	rec.BeginOp(1, "client")
	a := rec.Begin("server")
	b := rec.Begin("servicer")
	time.Sleep(2 * time.Millisecond)
	rec.End(b)
	rec.EndBytes(a, 42)
	rec.EndOp()
	rec.BeginOp(2, "client")
	rec.EndOp()

	spans := rec.Spans()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	if spans[1].Parent != 0 || spans[2].Parent != 1 || spans[3].Parent != -1 {
		t.Fatalf("parents = %d %d %d", spans[1].Parent, spans[2].Parent, spans[3].Parent)
	}
	if spans[1].Bytes != 42 {
		t.Fatalf("bytes = %d", spans[1].Bytes)
	}
	ops := Summarize(spans)
	if len(ops) != 2 || ops[0].Op != 1 || ops[1].Op != 2 {
		t.Fatalf("ops = %+v", ops)
	}
	var sum time.Duration
	for _, d := range ops[0].Self {
		sum += d
	}
	if sum != ops[0].Dur["client"] {
		t.Fatalf("self times sum to %v, the root span is %v", sum, ops[0].Dur["client"])
	}
	if ops[0].Self["servicer"] < 2*time.Millisecond {
		t.Fatalf("servicer self = %v", ops[0].Self["servicer"])
	}

	// An isolated timing becomes a child: the parent's self time shrinks.
	before := ops[0].Self["servicer"]
	if !rec.Inject(1, "servicer", "engine.exec", time.Millisecond) {
		t.Fatal("inject found no parent")
	}
	if rec.Inject(2, "servicer", "engine.exec", time.Millisecond) {
		t.Fatal("inject invented a parent")
	}
	ops = Summarize(rec.Spans())
	if got := ops[0].Self["servicer"]; got != before-time.Millisecond {
		t.Fatalf("servicer self after inject = %v, want %v", got, before-time.Millisecond)
	}
}

func TestHandlerCountsBytes(t *testing.T) {
	rec := &Recorder{}
	h := Handler(rec, "server:a", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("hello"))
	}))
	rec.BeginOp(1, "client")
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	rec.EndOp()
	spans := rec.Spans()
	if len(spans) != 2 || spans[1].Name != "server:a" || spans[1].Bytes != 5 {
		t.Fatalf("spans = %+v", spans)
	}
}
