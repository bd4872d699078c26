package server

import (
	"compress/gzip"
	"encoding/json"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// Middleware wraps an http.Handler with one cross-cutting concern.
// The stack is composable: transports pick the layers they need.
type Middleware func(http.Handler) http.Handler

// Chain applies the middlewares so the first listed becomes the
// innermost layer and the last listed the outermost:
//
//	Chain(h, Gzip, RequestLog(l, "text"), Trace, Recover(l))
//
// serves requests through Recover → Trace → RequestLog → Gzip → h.
func Chain(h http.Handler, mws ...Middleware) http.Handler {
	for _, mw := range mws {
		if mw != nil {
			h = mw(h)
		}
	}
	return h
}

// Recover converts handler panics into a 500 internal envelope instead
// of tearing down the connection, logging the stack when a logger is
// configured. http.ErrAbortHandler passes through (it is the sanctioned
// way to abort a response).
func Recover(logger *log.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				if p == http.ErrAbortHandler {
					panic(p)
				}
				if logger != nil {
					logger.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				}
				api.WriteError(w, r, api.Errf(api.CodeInternal, http.StatusInternalServerError,
					"internal server error"))
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// LogFormat selects the request-log line shape.
const (
	LogText = "text"
	LogJSON = "json"
)

// accessLine is the JSON request-log record. Field order mirrors the
// text format: what happened, how it went, who it was.
type accessLine struct {
	Method  string  `json:"method"`
	Path    string  `json:"path"`
	Route   string  `json:"route,omitempty"`
	Status  int     `json:"status"`
	DurMS   float64 `json:"durMs"`
	TraceID string  `json:"traceId,omitempty"`
	Iface   string  `json:"iface,omitempty"`
}

// RequestLog logs one structured line per request: method, path,
// status, duration, trace id and interface id — as plain text (the
// default) or as one JSON object per line. It must sit inside the
// Trace layer (Trace outermost) so the context already carries the
// trace id. A nil logger disables the layer entirely (Chain skips
// nil); an unknown format falls back to text.
func RequestLog(logger *log.Logger, format string) Middleware {
	if logger == nil {
		return nil
	}
	asJSON := format == LogJSON
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			// Pattern and path values are populated by the mux during
			// ServeHTTP on this same request, so they are readable here.
			trace := obs.TraceID(r.Context())
			iface := r.PathValue("id")
			if asJSON {
				b, err := json.Marshal(accessLine{
					Method:  r.Method,
					Path:    r.URL.Path,
					Route:   r.Pattern,
					Status:  sw.Status(),
					DurMS:   float64(time.Since(start)) / 1e6,
					TraceID: trace,
					Iface:   iface,
				})
				if err == nil {
					logger.Printf("%s", b)
				}
				return
			}
			line := r.Method + " " + r.URL.Path + " "
			logger.Printf("%s%d %s trace=%s iface=%s",
				line, sw.Status(), time.Since(start).Round(time.Microsecond), trace, iface)
		})
	}
}

// Trace ensures every request carries a trace id: a well-formed
// client-supplied Pi-Trace-Id is adopted (that is how an id minted at
// the router edge follows the request onto a shard), anything else is
// replaced with a fresh one. The id is echoed on the response header
// and stored in the request context for the request log, error
// envelopes and the slow-query ring.
func Trace(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.TraceHeader)
		if !obs.ValidTraceID(id) {
			id = obs.NewTraceID()
		}
		w.Header().Set(obs.TraceHeader, id)
		next.ServeHTTP(w, r.WithContext(obs.WithTrace(r.Context(), id)))
	})
}

// routeMetrics is one route's resolved handle set: a latency histogram
// and a counter per status class. Handles resolve once per route (the
// route set is small and fixed), so steady state is one lock-free
// sync.Map load per request.
type routeMetrics struct {
	dur     *obs.Histogram
	byClass [6]*obs.Counter // index status/100; [0] collects the weird
}

// Metrics records HTTP request counts, durations and status classes
// per route into the registry (families pi_http_requests_total and
// pi_http_request_duration_seconds, route label = mux pattern). A nil
// registry disables the layer.
func Metrics(reg *obs.Registry) Middleware {
	if reg == nil {
		return nil
	}
	durVec := reg.HistogramVec("pi_http_request_duration_seconds",
		"HTTP request latency by route (route = mux pattern).",
		obs.LatencyBuckets, "route")
	cntVec := reg.CounterVec("pi_http_requests_total",
		"HTTP requests by route and status class.", "route", "class")
	classes := [6]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx"}
	var routes sync.Map // pattern -> *routeMetrics
	resolve := func(route string) *routeMetrics {
		if rm, ok := routes.Load(route); ok {
			return rm.(*routeMetrics)
		}
		rm := &routeMetrics{dur: durVec.With(route)}
		for i, c := range classes {
			rm.byClass[i] = cntVec.With(route, c)
		}
		got, _ := routes.LoadOrStore(route, rm)
		return got.(*routeMetrics)
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			route := r.Pattern
			if route == "" {
				route = "unmatched"
			}
			rm := resolve(route)
			rm.dur.Observe(time.Since(start))
			if cls := sw.Status() / 100; cls >= 0 && cls < len(rm.byClass) {
				rm.byClass[cls].Inc()
			}
		})
	}
}

// statusWriter records the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// Status returns the recorded status (200 if the handler wrote a body
// without an explicit WriteHeader, 0 if it wrote nothing at all).
func (sw *statusWriter) Status() int {
	if sw.status == 0 {
		return http.StatusOK
	}
	return sw.status
}

// Gzip compresses responses for clients that accept it. Query results
// over a few thousand rows are highly repetitive JSON; compressing on
// the way out is a large bandwidth win for dashboard traffic.
func Gzip(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			next.ServeHTTP(w, r)
			return
		}
		w.Header().Add("Vary", "Accept-Encoding")
		gw := &gzipWriter{ResponseWriter: w}
		defer gw.close()
		next.ServeHTTP(gw, r)
	})
}

// gzipPool recycles gzip writers across responses. A fresh
// gzip.Writer allocates close to a megabyte of flate state, and Go's
// default transport asks for gzip on every request — without the pool
// each proxied hop (router→shard, owner→follower) pays that
// allocation per call, and it dominates the replicated-ack profile.
var gzipPool = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// gzipWriter lazily starts the gzip stream on the first header or body
// write, so a handler that writes nothing produces no broken empty
// gzip frame headers.
type gzipWriter struct {
	http.ResponseWriter
	gz *gzip.Writer
}

func (g *gzipWriter) start() {
	if g.gz == nil {
		g.Header().Del("Content-Length")
		g.Header().Set("Content-Encoding", "gzip")
		g.gz = gzipPool.Get().(*gzip.Writer)
		g.gz.Reset(g.ResponseWriter)
	}
}

func (g *gzipWriter) WriteHeader(code int) {
	g.start()
	g.ResponseWriter.WriteHeader(code)
}

func (g *gzipWriter) Write(b []byte) (int, error) {
	g.start()
	return g.gz.Write(b)
}

func (g *gzipWriter) close() {
	if g.gz != nil {
		_ = g.gz.Close()
		gzipPool.Put(g.gz)
		g.gz = nil
	}
}
