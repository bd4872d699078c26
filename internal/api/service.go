package api

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/htmlgen"
	"repro/internal/obs"
	"repro/internal/qlog"
)

// Pagination bounds.
const (
	// DefaultRowLimit is the page size used when a query request does
	// not ask for one.
	DefaultRowLimit = 1000
	// MaxRowLimit is the hard server-side cap: requests asking for more
	// rows per page are clamped to it and the response is marked
	// truncated, so an unbounded result can never be serialized in one
	// response.
	MaxRowLimit = 10000
)

// Service is the transport-agnostic operation surface over a registry
// of hosted interfaces (and, optionally, a live ingester). Every
// operation validates its input, returns typed results and reports
// failures as *Error values, so a transport's only job is decoding
// requests and encoding responses. It is safe for concurrent use.
type Service struct {
	reg   *Registry
	ing   Ingestor
	per   Persister
	start time.Time
	slow  *obs.SlowRing
}

// NewService builds a service over the registry. Interfaces may still
// be added to the registry after the service is built.
func NewService(reg *Registry) *Service {
	return &Service{reg: reg, start: time.Now()}
}

// NewPersistentService is NewService with durable storage wired in:
// it restores hosted interfaces from the persister's data dir before
// returning (so a killed server comes back serving what it was serving)
// and enables the Snapshot operation. A restore failure is returned as
// a CodeRestoreFailed *Error — a data dir that exists but cannot be
// read is a deployment fault, not something to silently serve past.
func NewPersistentService(reg *Registry, p Persister) (*Service, *RestoreResult, error) {
	s := NewService(reg)
	res, err := p.Restore()
	if err != nil {
		return nil, nil, Errf(CodeRestoreFailed, http.StatusInternalServerError, "restore: %v", err)
	}
	s.per = p
	return s, res, nil
}

// SetIngestor wires the live-write seam in: without one IngestLog,
// AppendRows and MutateRows answer ingest_disabled. Call before serving
// begins.
func (s *Service) SetIngestor(ing Ingestor) { s.ing = ing }

// SetSlowRing wires a slow-query ring into the query path: queries
// over the ring's threshold (or hit by its sampler) are recorded with
// a per-stage timing breakdown. Call before serving begins. A nil (or
// absent) ring keeps the query path on its cheapest configuration —
// per-stage clocks are only read while a ring is armed or the 1:32
// latency sampler fires.
func (s *Service) SetSlowRing(r *obs.SlowRing) { s.slow = r }

// Registry returns the underlying registry.
func (s *Service) Registry() *Registry { return s.reg }

// hosted resolves an interface ID or returns a CodeNotFound error.
func (s *Service) hosted(id string) (*Hosted, *Error) {
	h, ok := s.reg.Get(id)
	if !ok {
		return nil, errNotFound(id)
	}
	return h, nil
}

// ListInterfaces returns a summary row per hosted interface, sorted by
// ID.
func (s *Service) ListInterfaces() []InterfaceSummary {
	hosted := s.reg.List()
	out := make([]InterfaceSummary, 0, len(hosted))
	for _, h := range hosted {
		st := h.load()
		out = append(out, InterfaceSummary{
			ID:      h.ID,
			Title:   h.Title,
			Widgets: len(st.iface.Widgets),
			Cost:    st.iface.Cost(),
			Queries: h.Queries(),
			Epoch:   st.epoch,
		})
	}
	return out
}

// GetInterface returns one interface's widgets and initial query.
func (s *Service) GetInterface(id string) (*InterfaceDetail, error) {
	h, apiErr := s.hosted(id)
	if apiErr != nil {
		return nil, apiErr
	}
	st := h.load()
	d := &InterfaceDetail{ID: h.ID, Title: h.Title, Epoch: st.epoch, InitialSQL: ast.SQL(st.iface.Initial)}
	for _, wd := range st.iface.Widgets {
		info := WidgetInfo{
			Path:   wd.Path.String(),
			Kind:   wd.Type.Name,
			Label:  htmlgen.Label(wd),
			Absent: wd.Domain.HasAbsent(),
		}
		for _, v := range wd.Domain.Values() {
			if v == nil {
				info.Options = append(info.Options, "(absent)")
				continue
			}
			info.Options = append(info.Options, ast.SQL(v))
		}
		if wd.Domain.IsNumericRange() {
			info.Numeric = true
			info.Min, info.Max = wd.Domain.Range()
		}
		d.Widgets = append(d.Widgets, info)
	}
	return d, nil
}

// Epoch returns the interface's current epoch (pages poll it to detect
// hot swaps).
func (s *Service) Epoch(id string) (*EpochResponse, error) {
	h, apiErr := s.hosted(id)
	if apiErr != nil {
		return nil, apiErr
	}
	return &EpochResponse{Epoch: h.Epoch()}, nil
}

// Page returns the compiled live HTML page for the interface, wired to
// the /v1/interfaces/{id} query and epoch endpoints. The page is compiled lazily once
// per epoch and cached in the epoch snapshot.
func (s *Service) Page(id string) (string, error) {
	h, apiErr := s.hosted(id)
	if apiErr != nil {
		return "", apiErr
	}
	st := h.load()
	st.pageMu.RLock()
	page := st.page
	st.pageMu.RUnlock()
	if page != "" {
		return page, nil
	}
	st.pageMu.Lock()
	defer st.pageMu.Unlock()
	if st.page == "" {
		base := "/v1/interfaces/" + h.ID
		compiled, err := htmlgen.Compile(st.iface, htmlgen.Page{Title: h.Title,
			QueryEndpoint: base + "/query", EpochEndpoint: base + "/epoch", Epoch: st.epoch})
		if err != nil {
			return "", errInternal(fmt.Errorf("compile page for %q: %w", h.ID, err))
		}
		st.page = compiled
	}
	return st.page, nil
}

// Query binds the requested widget state onto the interface's query
// template, executes it (through the plan and result caches) and
// returns one page of the result. Only accepted queries — requests
// that bind and execute — advance the interface's query counter;
// malformed or rejected requests do not inflate traffic stats.
func (s *Service) Query(id string, req QueryRequest) (*QueryResponse, error) {
	resp := new(QueryResponse)
	if err := s.QueryIntoCtx(context.Background(), id, req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// QueryIntoCtx is Query writing into a caller-provided response, the
// allocation-free fast path: when the plan and result caches both hit,
// the whole bind→execute→serialize round trip is a pooled key render,
// two cache probes and a page subslice — zero heap allocations — so
// transports can pool responses and a warm dashboard's per-interaction
// cost is pure lookup. resp is fully overwritten. The request context
// exists solely so the trace id minted (or accepted) at the HTTP edge
// reaches the slow-query ring.
// It is also the instrumented wrapper around the query proper: latency
// lands in the per-interface histogram (sampled 1:32 when the slow ring
// is not armed, so the untimed path pays one atomic tick and no clock
// reads), and slow or sampled queries are recorded with their
// bind/exec/serialize breakdown. The stage scratch is pooled: the warm
// path stays at zero heap allocations with instrumentation live.
func (s *Service) QueryIntoCtx(ctx context.Context, id string, req QueryRequest, resp *QueryResponse) error {
	h, apiErr := s.hosted(id)
	if apiErr != nil {
		return apiErr
	}
	mx, ring := h.mx, s.slow
	var qs *queryStages
	if ring.Armed() || (mx != nil && mx.sample()) {
		qs = stagesPool.Get().(*queryStages)
		*qs = queryStages{t0: time.Now()}
	}
	err := s.queryInto(h, req, resp, qs)
	if qs == nil {
		if err != nil && mx != nil {
			mx.errs.Inc()
		}
		return err
	}
	total := time.Since(qs.t0)
	if mx != nil {
		if err != nil {
			mx.errs.Inc()
		} else {
			mx.dur[b2i(qs.planHit)][b2i(qs.columnar)].Observe(total)
		}
	}
	if ring.Should(total) {
		e := obs.SlowEntry{
			TraceID:     obs.TraceID(ctx),
			Interface:   h.ID,
			Source:      "serve",
			SQL:         qs.sql,
			Epoch:       qs.epoch,
			Time:        time.Now(),
			TotalMS:     ms(total),
			BindMS:      stageMS(qs.t0, qs.tBind),
			ExecMS:      stageMS(qs.tBind, qs.tExec),
			SerializeMS: stageMS(qs.tExec, qs.t0.Add(total)),
		}
		if err != nil {
			e.Error = err.Error()
		} else {
			e.Plan = hitMiss(qs.planHit)
			e.Cache = hitMiss(qs.cacheHit)
		}
		ring.Record(e)
	}
	stagesPool.Put(qs)
	return err
}

// queryInto is the query proper: plan resolution, cursor validation,
// result-cache probe / execution, page slicing. qs, when non-nil,
// receives stage clock marks and outcome flags for the caller's
// metrics and slow-ring entry.
func (s *Service) queryInto(h *Hosted, req QueryRequest, resp *QueryResponse, qs *queryStages) error {
	st := h.load()

	limit, apiErr := pageLimit(req.Limit)
	if apiErr != nil {
		return apiErr
	}

	// Plan lookup first: a repeated widget-state shape skips binding,
	// rendering and hashing even when its result has been evicted. The
	// key is rendered into a pooled buffer and looked up as bytes, so
	// a hit never materializes a key string.
	sc := planKeyPool.Get().(*planKeyScratch)
	sc.AppendPlanKey(req.Widgets)
	plan, planHit := st.plans.GetBytes(sc.buf)
	if !planHit {
		q, err := Bind(st.iface, req.Widgets)
		if err != nil {
			planKeyPool.Put(sc)
			return bindToError(err)
		}
		plan = &Plan{Query: q, SQL: ast.SQL(q), Hash: ast.HashOf(q)}
		if col, ok := engine.CompileColumnar(q); ok {
			plan.Col = col
		}
		st.plans.Put(string(sc.buf), plan)
	}
	planKeyPool.Put(sc)
	if qs != nil {
		qs.tBind = time.Now()
		qs.planHit = planHit
		qs.columnar = plan.Col != nil
		qs.sql = plan.SQL
		qs.epoch = st.epoch
	}

	// The cursor can only be validated once the plan is known: it is
	// bound to the exact query that produced the first page, not just
	// the epoch.
	offset := 0
	if req.Cursor != "" {
		if offset, apiErr = parseCursor(req.Cursor, st.epoch, plan.Hash); apiErr != nil {
			return apiErr
		}
	}

	cr, hit := st.cache.Get(plan.Hash, plan.SQL)
	if !hit {
		res, err := s.exec(st, plan)
		if err != nil {
			// The closure can contain queries the dataset cannot answer
			// (e.g. a column the sample lacks); that is a client-state
			// problem, not a server fault.
			return Errf(CodeExecFailed, http.StatusUnprocessableEntity, "exec: %v", err)
		}
		cr = st.cache.Put(plan.Hash, plan.SQL, res)
	}
	h.queries.Add(1)
	if qs != nil {
		qs.tExec = time.Now()
		qs.cacheHit = hit
	}

	total := len(cr.Res.Rows)
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	*resp = QueryResponse{
		SQL:        plan.SQL,
		Epoch:      st.epoch,
		Cols:       cr.Res.Cols,
		Rows:       cr.Rows[offset:end],
		RowCount:   total,
		Offset:     offset,
		Truncated:  end < total,
		Cache:      "miss",
		Plan:       "miss",
		CacheStats: st.cache.Stats(),
	}
	if resp.Truncated {
		resp.NextCursor = encodeCursor(st.epoch, plan.Hash, end)
	}
	if hit {
		resp.Cache = "hit"
	}
	if planHit {
		resp.Plan = "hit"
	}
	return nil
}

// exec runs one bound plan against the epoch's catalog: the vectorized
// kernels when the plan compiled to a columnar shape and the catalog
// can serve columns, the row-at-a-time interpreter otherwise. The two
// paths produce byte-identical results (including error text), so the
// choice is invisible above this line.
func (s *Service) exec(st *epochState, plan *Plan) (*engine.Table, error) {
	if plan.Col != nil {
		if res, ran, err := engine.ExecColumnar(st.db, plan.Col); ran {
			return res, err
		}
	}
	return engine.Exec(st.db, plan.Query)
}

// pageLimit resolves the requested page size against the pagination
// bounds.
func pageLimit(limit int) (int, *Error) {
	switch {
	case limit < 0:
		return 0, errBadRequest("limit must be non-negative, got %d", limit)
	case limit == 0:
		return DefaultRowLimit, nil
	case limit > MaxRowLimit:
		return MaxRowLimit, nil
	}
	return limit, nil
}

// bindToError maps binding failures onto the error contract.
func bindToError(err error) *Error {
	if _, ok := err.(*BindError); ok {
		return Errf(CodeBindRejected, http.StatusUnprocessableEntity, "%v", err)
	}
	return errBadRequest("%v", err)
}

// --- pagination cursors.
//
// A cursor is "<epoch>.<planhash>.<offset>": resuming is only sound
// against the same immutable epoch snapshot AND the same bound query
// that produced the first page, so both are part of the token — a hot
// swap invalidates outstanding cursors (CodeCursorExpired), and a
// cursor replayed with different widget bindings is rejected
// (CodeBadRequest) instead of silently splicing pages from two
// different result sets.

func encodeCursor(epoch uint64, hash ast.Hash, offset int) string {
	return strconv.FormatUint(epoch, 10) + "." +
		strconv.FormatUint(uint64(hash), 16) + "." +
		strconv.Itoa(offset)
}

func parseCursor(c string, epoch uint64, hash ast.Hash) (int, *Error) {
	parts := strings.Split(c, ".")
	if len(parts) != 3 {
		return 0, errBadRequest("malformed cursor %q", c)
	}
	ce, err1 := strconv.ParseUint(parts[0], 10, 64)
	ch, err2 := strconv.ParseUint(parts[1], 16, 64)
	off, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || off < 0 {
		return 0, errBadRequest("malformed cursor %q", c)
	}
	if ce != epoch {
		return 0, Errf(CodeCursorExpired, http.StatusGone,
			"cursor from epoch %d, interface is at epoch %d; restart from the first page", ce, epoch)
	}
	if ast.Hash(ch) != hash {
		return 0, errBadRequest("cursor was minted for a different query; restart from the first page")
	}
	return off, nil
}

// IngestReady reports whether IngestLog can accept entries for the
// interface: not_found when it is not hosted, ingest_disabled when no
// ingestor is wired in. Transports call it before paying to decode a
// potentially large log body.
func (s *Service) IngestReady(id string) error {
	if _, apiErr := s.hosted(id); apiErr != nil {
		return apiErr
	}
	if s.ing == nil {
		return Errf(CodeIngestDisabled, http.StatusNotImplemented,
			"live ingestion is not enabled on this server")
	}
	return nil
}

// IngestLog submits query-log entries to the live ingester, which
// re-mines and publishes them before it returns, so the ack's epoch
// reflects the submitted entries. flush is ignored (see Servicer).
func (s *Service) IngestLog(id string, entries []qlog.Entry, _ bool) (*IngestAck, error) {
	if err := s.IngestReady(id); err != nil {
		return nil, err
	}
	h, apiErr := s.hosted(id)
	if apiErr != nil {
		return nil, apiErr
	}
	if len(entries) == 0 {
		return nil, errBadRequest("no log entries in request body")
	}
	ack, err := s.ing.Submit(h.ID, entries)
	if err != nil {
		return nil, errOr(err, CodeIngestFailed, http.StatusUnprocessableEntity)
	}
	ack.Epoch = h.Epoch()
	return &ack, nil
}

// AppendRows submits new dataset rows for one table of the
// interface's store. The ingestion layer publishes them as a new store
// version under a bumped epoch before it returns, so queries accepted
// after the ack can never be answered from a pre-append cache. flush
// is ignored (see Servicer).
func (s *Service) AppendRows(id string, req RowsRequest, _ bool) (*RowsAck, error) {
	h, apiErr := s.hosted(id)
	if apiErr != nil {
		return nil, apiErr
	}
	if s.ing == nil {
		return nil, Errf(CodeIngestDisabled, http.StatusNotImplemented,
			"row ingestion is not enabled on this server")
	}
	if strings.TrimSpace(req.Table) == "" {
		return nil, errBadRequest("rows request needs a table name")
	}
	if len(req.Rows) == 0 {
		return nil, errBadRequest("no rows in request body")
	}
	rows, apiErr := decodeRows(req.Rows)
	if apiErr != nil {
		return nil, apiErr
	}
	ack, err := s.ing.SubmitRows(h.ID, req.Table, rows)
	if err != nil {
		return nil, errOr(err, CodeRowsRejected, http.StatusUnprocessableEntity)
	}
	return &ack, nil
}

// MutateRows evaluates one UPDATE or DELETE statement against the
// interface's store and publishes the result as a versioned mutation
// under a bumped epoch — post-mutation queries can never be answered
// from a pre-mutation cache. The statement's predicate runs against
// the snapshot current at submission,
// and the resulting rowid-keyed mutation set — not the predicate — is
// what journals and replicates, so every copy of the interface lands
// on byte-identical rows.
func (s *Service) MutateRows(id string, req MutateRequest) (*MutateAck, error) {
	h, apiErr := s.hosted(id)
	if apiErr != nil {
		return nil, apiErr
	}
	if s.ing == nil {
		return nil, Errf(CodeIngestDisabled, http.StatusNotImplemented,
			"row mutation is not enabled on this server")
	}
	if strings.TrimSpace(req.SQL) == "" {
		return nil, errBadRequest("mutation request needs a sql statement")
	}
	ack, err := s.ing.SubmitMutation(h.ID, req.SQL, req.IfEpoch)
	if err != nil {
		return nil, errOr(err, CodeRowsRejected, http.StatusUnprocessableEntity)
	}
	return &ack, nil
}

// decodeRows converts JSON row values into engine values. Only scalars
// are representable; a nested array or object is a client error.
// Numbers arrive as float64 — the engine's only numeric representation
// — so integers beyond 2^53 round like they would in any query result.
func decodeRows(in [][]any) ([][]engine.Value, *Error) {
	out := make([][]engine.Value, len(in))
	for i, row := range in {
		vals := make([]engine.Value, len(row))
		for j, v := range row {
			switch x := v.(type) {
			case nil:
				vals[j] = engine.Null()
			case float64:
				vals[j] = engine.Num(x)
			case string:
				vals[j] = engine.Str(x)
			case bool:
				vals[j] = engine.Boolean(x)
			default:
				return nil, Errf(CodeRowsRejected, http.StatusUnprocessableEntity,
					"row %d col %d: value %T is not a SQL scalar", i, j, v)
			}
		}
		out[i] = vals
	}
	return out, nil
}

// DeleteInterface unhosts the interface: its live feed (if any)
// detaches first so no further submissions land, the registry entry is
// removed so new requests see not_found, and its durable snapshot (if
// persistence is wired) is deleted so the interface does not resurrect
// on the next boot. In-flight requests that already resolved the
// interface finish against the epoch snapshot they loaded. This is
// also how a shard drops a copy it no longer owns or follows.
func (s *Service) DeleteInterface(id string) (*DeleteAck, error) {
	if _, apiErr := s.hosted(id); apiErr != nil {
		return nil, apiErr
	}
	if s.ing != nil {
		s.ing.Detach(id)
	}
	s.reg.Remove(id)
	if s.per != nil {
		if err := s.per.RemoveSnapshot(id); err != nil {
			return nil, Errf(CodeSnapshotFailed, http.StatusInternalServerError,
				"interface %q unhosted but its snapshot was not removed: %v", id, err)
		}
	}
	return &DeleteAck{ID: id, Deleted: true}, nil
}

// Snapshot persists every hosted interface's (log, dataset, epoch) to
// the data dir through the wired persister — the durable counterpart
// of the in-memory epoch snapshots every query already runs against.
func (s *Service) Snapshot() (*SnapshotResult, error) {
	if s.per == nil {
		return nil, Errf(CodePersistenceDisabled, http.StatusNotImplemented,
			"persistence is not enabled on this server (start with a data dir)")
	}
	res, err := s.per.SaveAll()
	if err != nil {
		return nil, Errf(CodeSnapshotFailed, http.StatusInternalServerError, "snapshot: %v", err)
	}
	return res, nil
}

// Health reports build info, uptime and a per-interface row with epoch,
// traffic and cache hit rates (plus ingestion counters when wired).
func (s *Service) Health() *Health {
	health := &Health{
		Status:        "ok",
		GoVersion:     runtime.Version(),
		Revision:      buildRevision(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Ingestion:     s.ing != nil,
		Persistence:   s.per != nil,
		Interfaces:    []HealthInterface{},
	}
	for _, h := range s.reg.List() {
		st := h.load()
		row := HealthInterface{
			ID:           h.ID,
			Epoch:        st.epoch,
			Widgets:      len(st.iface.Widgets),
			Queries:      h.Queries(),
			CacheHitRate: hitRate(st.cache.Stats()),
			PlanHitRate:  hitRate(st.plans.Stats()),
		}
		if s.ing != nil {
			if is, ok := s.ing.IngestStatus(h.ID); ok {
				row.Ingest = &is
			}
		}
		if s.per != nil {
			if wi, ok := s.per.WALStatus(h.ID); ok {
				row.WAL = wi
			}
		}
		health.Interfaces = append(health.Interfaces, row)
	}
	return health
}

// Debug returns the cache and traffic counters per interface: the
// current epoch's point-in-time cache stats plus the cumulative
// hit/miss totals across every epoch served. The totals come from
// Hosted.CacheTotals — the same function the pi_query_*_cache_total
// metric series read — so /v1/debug and /v1/metrics cannot disagree.
func (s *Service) Debug() *DebugInfo {
	info := &DebugInfo{Interfaces: []DebugInterface{}}
	for _, h := range s.reg.List() {
		st := h.load()
		res, plans := h.CacheTotals()
		info.Interfaces = append(info.Interfaces, DebugInterface{
			ID:           h.ID,
			Epoch:        st.epoch,
			Queries:      h.Queries(),
			Cache:        st.cache.Stats(),
			Plans:        st.plans.Stats(),
			CacheTotals:  res,
			PlanTotals:   plans,
			CacheHitRate: hitRate(res),
			PlanHitRate:  hitRate(plans),
		})
	}
	return info
}

func hitRate(st CacheStats) float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

func buildRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" {
			return kv.Value
		}
	}
	return ""
}

// rowsJSON converts engine values in [lo, hi) to JSON scalars (numbers,
// strings, booleans, null).
func rowsJSON(t *engine.Table, lo, hi int) [][]any {
	out := make([][]any, 0, hi-lo)
	for _, row := range t.Rows[lo:hi] {
		jr := make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case engine.KindNumber:
				jr[j] = v.Num
			case engine.KindString:
				jr[j] = v.Str
			case engine.KindBool:
				jr[j] = v.Bool
			default:
				jr[j] = nil
			}
		}
		out = append(out, jr)
	}
	return out
}
