// Package server is the versioned HTTP transport over the
// internal/api service layer. Handlers are deliberately thin: they
// decode the request, call one api.Service operation and encode the
// typed result (or the structured error envelope) — all binding,
// execution and caching logic lives behind the Service seam, which is
// also what pi/client and future transports (gRPC, shard routers)
// consume.
//
// The contract is versioned under /v1:
//
//	GET  /v1/interfaces             — list hosted interfaces
//	GET  /v1/interfaces/{id}        — one interface's widgets and initial query
//	GET  /v1/interfaces/{id}/page   — the compiled HTML page, wired to the API
//	GET  /v1/interfaces/{id}/epoch  — the interface's current epoch (pages poll it)
//	POST /v1/interfaces/{id}/query  — bind widget state, execute, return rows (auth)
//	POST /v1/interfaces/{id}/log    — ingest new query-log entries (auth)
//	POST /v1/interfaces/{id}/rows   — append dataset rows to one table (auth)
//	POST /v1/interfaces/{id}/mutate — run one UPDATE/DELETE as a versioned mutation (auth)
//	DELETE /v1/interfaces/{id}      — unhost an interface (auth)
//	POST /v1/snapshot               — persist every interface to the data dir (auth)
//	GET  /v1/healthz                — build info, uptime, per-interface epoch + cache hit rate
//	GET  /v1/debug                  — cache and traffic counters
//
// Errors are always the JSON envelope {"code": ..., "error":
// ...} with the codes documented in internal/api and API.md. With
// auth configured, the mutating endpoints (query, log) require a
// bearer token; metadata GETs stay open.
package server

import (
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/qlog"
)

// Body-size caps for the two decoding endpoints.
const (
	maxQueryBody = 1 << 20 // widget bindings
	maxLogBody   = 8 << 20 // bulk log uploads
)

// Server is the HTTP front over an api.Servicer — a local *api.Service
// or a shard router; the transport cannot tell the difference.
type Server struct {
	svc       api.Servicer
	mux       *http.ServeMux
	auth      AuthConfig
	logger    *log.Logger
	logFormat string
	metrics   *obs.Registry
	slowRing  *obs.SlowRing
	admin     []adminMount
}

// adminMount is an extra handler subtree (shard-admin or router-admin
// surface) mounted beside the v1 API.
type adminMount struct {
	prefix  string
	handler http.Handler
}

// Option customizes a Server.
type Option func(*Server)

// WithAuth enables bearer-token auth on the query and log endpoints
// (see AuthConfig).
func WithAuth(a AuthConfig) Option { return func(s *Server) { s.auth = a } }

// WithLogger enables request logging (method, path, route, status,
// duration, trace id, interface id) and directs panic reports to the
// logger.
func WithLogger(l *log.Logger) Option { return func(s *Server) { s.logger = l } }

// WithLogFormat selects the request-log line shape: LogText (default)
// or LogJSON (one JSON object per line; pair it with a logger that has
// no prefix flags so the lines stay machine-parseable).
func WithLogFormat(format string) Option { return func(s *Server) { s.logFormat = format } }

// WithMetrics mounts the registry's Prometheus exposition at
// GET /v1/metrics and records per-route HTTP request
// counts, durations and status classes into it.
func WithMetrics(reg *obs.Registry) Option { return func(s *Server) { s.metrics = reg } }

// WithSlowRing mounts the slow-query ring at GET /v1/debug/slow.
// Recording into the ring is the Servicer's job (see
// api.Service.SetSlowRing / shard.Router.SetSlowRing); the server only
// exposes it.
func WithSlowRing(ring *obs.SlowRing) Option { return func(s *Server) { s.slowRing = ring } }

// WithAdmin mounts an extra handler at the given path prefix (e.g.
// "/v1/shard/" for a shard node's admin surface, "/v1/router/" for the
// router's). The handler rides inside the same middleware stack as the
// API and owns its own auth.
func WithAdmin(prefix string, h http.Handler) Option {
	return func(s *Server) { s.admin = append(s.admin, adminMount{prefix: prefix, handler: h}) }
}

// New builds a transport over the service. Interfaces may still be
// added to the service's registry after the server starts.
func New(svc api.Servicer, opts ...Option) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux()}
	for _, o := range opts {
		o(s)
	}
	s.routes()
	return s
}

// routes mounts every operation under /v1.
func (s *Server) routes() {
	ok, accepted := http.StatusOK, http.StatusAccepted
	s.mux.HandleFunc("GET /v1/interfaces", api.Handle(ok, s.handleList))
	s.mux.HandleFunc("GET /v1/interfaces/{id}", api.Handle(ok, s.handleGet))
	s.mux.HandleFunc("GET /v1/interfaces/{id}/page", s.handlePage)
	s.mux.HandleFunc("GET /v1/interfaces/{id}/epoch", api.Handle(ok, s.handleEpoch))
	s.mux.HandleFunc("POST /v1/interfaces/{id}/query", s.auth.Guard(s.handleQuery))
	s.mux.HandleFunc("POST /v1/interfaces/{id}/log", s.auth.Guard(api.Handle(accepted, s.handleLog)))
	s.mux.HandleFunc("POST /v1/interfaces/{id}/rows", s.auth.Guard(api.Handle(accepted, s.handleRows)))
	s.mux.HandleFunc("POST /v1/interfaces/{id}/mutate", s.auth.Guard(api.Handle(accepted, s.handleMutate)))
	s.mux.HandleFunc("DELETE /v1/interfaces/{id}", s.auth.Guard(api.Handle(ok, s.handleDelete)))
	// Snapshot is server-wide: it is guarded by the default token (the
	// empty path id resolves to AuthConfig.Token).
	s.mux.HandleFunc("POST /v1/snapshot", s.auth.Guard(api.Handle(ok, s.handleSnapshot)))
	s.mux.HandleFunc("GET /v1/healthz", api.Handle(ok, s.handleHealthz))
	s.mux.HandleFunc("GET /v1/debug", api.Handle(ok, s.handleDebug))
	if s.metrics != nil {
		s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	}
	if s.slowRing != nil {
		s.mux.HandleFunc("GET /v1/debug/slow", api.Handle(ok, s.handleSlow))
	}
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	for _, m := range s.admin {
		s.mux.Handle(m.prefix, m.handler)
	}
}

// Handler returns the http.Handler serving the API, wrapped in the
// middleware stack (outermost first): panic recovery, trace-id
// adoption, request logging (when a logger is configured), HTTP
// metrics (when a registry is configured), gzip. Trace sits outside
// the log and metrics layers so both see the request's trace context;
// metrics sits inside the log layer so the logged duration includes
// metric recording.
func (s *Server) Handler() http.Handler {
	return Chain(s.mux, Gzip, Metrics(s.metrics), RequestLog(s.logger, s.logFormat), Trace, Recover(s.logger))
}

// HTTPServer returns a production-configured http.Server for the API:
// header/read/write/idle timeouts so a slow or stalled client cannot
// pin a connection forever. Callers own Shutdown.
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

// --- handlers: decode, call the service, encode (api.Handle writes
// the result or the error envelope).

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	http.Redirect(w, r, "/v1/interfaces", http.StatusFound)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) (any, error) {
	return s.svc.ListInterfaces(), nil
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) (any, error) {
	return s.svc.GetInterface(r.PathValue("id"))
}

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) (any, error) {
	return s.svc.Epoch(r.PathValue("id"))
}

func (s *Server) handlePage(w http.ResponseWriter, r *http.Request) {
	page, err := s.svc.Page(r.PathValue("id"))
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(page))
}

// respPool recycles query responses across requests. Entries are
// zeroed before being pooled so a parked response never pins a
// retired epoch's cached rows.
var respPool = sync.Pool{New: func() any { return new(api.QueryResponse) }}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	if err := api.DecodeJSON(w, r, maxQueryBody, &req); err != nil {
		api.WriteError(w, r, err)
		return
	}
	resp := respPool.Get().(*api.QueryResponse)
	if err := s.svc.QueryIntoCtx(r.Context(), r.PathValue("id"), req, resp); err != nil {
		api.WriteError(w, r, err)
	} else {
		api.WriteJSON(w, http.StatusOK, resp)
	}
	*resp = api.QueryResponse{}
	respPool.Put(resp)
}

// handleLog ingests query-log entries; the ack follows the re-mine and
// hot swap. ?flush is accepted and ignored: every write publishes
// before its ack.
func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) (any, error) {
	// Cheap checks first: don't parse up to 8 MiB of log body just to
	// answer 404 or 501.
	if err := s.svc.IngestReady(r.PathValue("id")); err != nil {
		return nil, err
	}
	entries, err := readLogEntries(w, r)
	if err != nil {
		return nil, err
	}
	return s.svc.IngestLog(r.PathValue("id"), entries, r.URL.Query().Get("flush") != "")
}

// handleRows appends dataset rows to one table of the interface's
// store; the ack follows the publish (and hot swap), so its epoch and
// row count reflect the submitted rows. ?flush is ignored, as on the
// log route.
func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) (any, error) {
	var req api.RowsRequest
	if err := api.DecodeJSON(w, r, maxLogBody, &req); err != nil {
		return nil, err
	}
	return s.svc.AppendRows(r.PathValue("id"), req, r.URL.Query().Get("flush") != "")
}

// handleMutate runs one UPDATE or DELETE statement against the
// interface's store as a versioned mutation; the ack carries how many
// rows matched and the epochs after the publish.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) (any, error) {
	var req api.MutateRequest
	if err := api.DecodeJSON(w, r, maxQueryBody, &req); err != nil {
		return nil, err
	}
	return s.svc.MutateRows(r.PathValue("id"), req)
}

// handleDelete unhosts an interface: it stops being served, its live
// feed detaches and its durable snapshot (if any) is removed.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) (any, error) {
	return s.svc.DeleteInterface(r.PathValue("id"))
}

// handleSnapshot persists every hosted interface to the data dir.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) (any, error) {
	return s.svc.Snapshot()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) (any, error) {
	return s.svc.Health(), nil
}

func (s *Server) handleDebug(w http.ResponseWriter, r *http.Request) (any, error) {
	return s.svc.Debug(), nil
}

// handleMetrics serves the registry in Prometheus text exposition
// format. The endpoint is read-only and unauthenticated, like /healthz
// — scrapers should reach it without credentials.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	_ = s.metrics.WritePrometheus(w)
}

// handleSlow serves the slow-query ring, newest entry first.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) (any, error) {
	return s.slowRing.Report(), nil
}

// readLogEntries decodes the /log request body: JSON ({"entries":
// [{"sql": ...}]}) or plain text in the qlog statement format.
func readLogEntries(w http.ResponseWriter, r *http.Request) ([]qlog.Entry, error) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req api.LogRequest
		if err := api.DecodeJSON(w, r, maxLogBody, &req); err != nil {
			return nil, err
		}
		return req.QlogEntries(), nil
	}
	l, err := qlog.Read(http.MaxBytesReader(w, r.Body, maxLogBody))
	if err != nil {
		return nil, api.BodyError(err)
	}
	return l.Entries, nil
}
