// Package client is the Go SDK for the v1 serving API: a typed client
// for every operation the service layer exposes (list, detail, epoch,
// query with pagination, log ingestion, health, debug), speaking the
// same request/response structs as the server (repro/internal/api), so
// the contract is compiled on both sides.
//
// The client attaches a bearer token when configured, retries
// idempotent operations on transient failures (5xx responses and
// transport errors) with capped exponential backoff — ingestion is
// never retried, since a replay would duplicate entries — and
// surfaces structured server errors as *api.Error values:
//
//	c, _ := client.New("http://localhost:8080", client.WithToken(tok))
//	resp, err := c.Query(ctx, "olap", api.QueryRequest{Limit: 100})
//	var apiErr *api.Error
//	if errors.As(err, &apiErr) && apiErr.Code == api.CodeBindRejected { ... }
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// Client speaks the v1 API. It is safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	token   string
	retries int
	backoff time.Duration
	follow  bool
}

// maxMovedHops bounds how many relocations one request follows — a
// placement loop between misconfigured shards must not hang a caller.
const maxMovedHops = 3

// Option customizes a Client.
type Option func(*Client)

// WithToken attaches "Authorization: Bearer <token>" to every request.
func WithToken(token string) Option { return func(c *Client) { c.token = token } }

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times an idempotent request is retried
// after a 5xx response or a transport error (default 2; 0 disables).
// 4xx responses are never retried — they are contract errors, not
// transients — and neither is IngestLog: a lost response after the
// server already buffered the entries would duplicate them on replay.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base backoff between retries (default 100ms,
// doubled per attempt).
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithFollowMoved controls whether the client transparently re-issues
// a request against the address carried by a structured redirecting
// error (default true): "moved" — what a shard returns after
// relinquishing an interface to another shard — and the replication
// codes "not_owner" and "replica_lagging", which a follower replica
// returns pointing at its owner. Following is safe for every
// operation, including non-idempotent ingestion, because all three
// mean the request was not processed. The shard router disables it so
// it can update its own placement map instead.
func WithFollowMoved(follow bool) Option { return func(c *Client) { c.follow = follow } }

// New returns a client for the API at baseURL (e.g.
// "http://localhost:8080"). The client always calls the versioned /v1
// surface.
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs scheme and host", baseURL)
	}
	c := &Client{
		base:    strings.TrimRight(u.String(), "/"),
		hc:      &http.Client{Timeout: 30 * time.Second},
		retries: 2,
		backoff: 100 * time.Millisecond,
		follow:  true,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// ListInterfaces returns a summary row per hosted interface.
func (c *Client) ListInterfaces(ctx context.Context) ([]api.InterfaceSummary, error) {
	var out []api.InterfaceSummary
	return out, c.do(ctx, http.MethodGet, "/v1/interfaces", nil, &out)
}

// GetInterface returns one interface's widgets and initial query.
func (c *Client) GetInterface(ctx context.Context, id string) (*api.InterfaceDetail, error) {
	var out api.InterfaceDetail
	return &out, c.do(ctx, http.MethodGet, "/v1/interfaces/"+url.PathEscape(id), nil, &out)
}

// Epoch returns the interface's current epoch.
func (c *Client) Epoch(ctx context.Context, id string) (uint64, error) {
	var out api.EpochResponse
	err := c.do(ctx, http.MethodGet, "/v1/interfaces/"+url.PathEscape(id)+"/epoch", nil, &out)
	return out.Epoch, err
}

// Query binds widget state, executes and returns one page of rows.
func (c *Client) Query(ctx context.Context, id string, req api.QueryRequest) (*api.QueryResponse, error) {
	var out api.QueryResponse
	err := c.do(ctx, http.MethodPost, "/v1/interfaces/"+url.PathEscape(id)+"/query", req, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// QueryAll follows NextCursor until the result is complete and returns
// the final response with all pages' rows concatenated. The page size
// is req.Limit (or the server default). maxRows is a hard bound on the
// total rows returned (0 = no bound): the final page is requested at
// exactly the remaining budget, so the bound is never overshot and the
// response's Truncated/NextCursor stay accurate.
func (c *Client) QueryAll(ctx context.Context, id string, req api.QueryRequest, maxRows int) (*api.QueryResponse, error) {
	pageLimit := req.Limit
	clamp := func(have int) {
		req.Limit = pageLimit
		if maxRows > 0 {
			if want := maxRows - have; pageLimit <= 0 || pageLimit > want {
				req.Limit = want
			}
		}
	}
	clamp(0)
	first, err := c.Query(ctx, id, req)
	if err != nil {
		return nil, err
	}
	out := *first
	for out.Truncated && out.NextCursor != "" && (maxRows <= 0 || len(out.Rows) < maxRows) {
		clamp(len(out.Rows))
		req.Cursor = out.NextCursor
		page, err := c.Query(ctx, id, req)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, page.Rows...)
		out.Truncated = page.Truncated
		out.NextCursor = page.NextCursor
	}
	out.Offset = 0
	return &out, nil
}

// IngestLog submits query-log entries to a live-hosted interface. The
// server re-mines before acking, so the returned epoch reflects the
// entries. flush is ignored by current servers (every write publishes
// before its ack); it is still sent as ?flush=1 so an older server
// that buffered unflushed writes publishes these before acking.
func (c *Client) IngestLog(ctx context.Context, id string, entries []api.LogEntry, flush bool) (*api.IngestAck, error) {
	p := "/v1/interfaces/" + url.PathEscape(id) + "/log"
	if flush {
		p += "?flush=1"
	}
	var out api.IngestAck
	// Ingestion is not idempotent: a retry after a lost response would
	// submit (and re-mine) the same entries twice.
	err := c.doOnce(ctx, http.MethodPost, p, api.LogRequest{Entries: entries}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// IngestSQL is IngestLog for bare SQL statements.
func (c *Client) IngestSQL(ctx context.Context, id string, flush bool, sqls ...string) (*api.IngestAck, error) {
	entries := make([]api.LogEntry, len(sqls))
	for i, s := range sqls {
		entries[i] = api.LogEntry{SQL: s}
	}
	return c.IngestLog(ctx, id, entries, flush)
}

// AppendRows streams new dataset rows into one table of a hosted
// interface's versioned store. Values must be JSON scalars (number,
// string, bool, null) positionally matching the table's columns. The
// rows are published — and the interface hot-swapped onto the new data
// epoch — before the ack returns; flush is handled as in IngestLog.
// Like IngestLog,
// the call is not idempotent and is never retried: replaying a lost
// response would append the rows twice.
func (c *Client) AppendRows(ctx context.Context, id, table string, rows [][]any, flush bool) (*api.RowsAck, error) {
	p := "/v1/interfaces/" + url.PathEscape(id) + "/rows"
	if flush {
		p += "?flush=1"
	}
	var out api.RowsAck
	err := c.doOnce(ctx, http.MethodPost, p, api.RowsRequest{Table: table, Rows: rows}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// MutateRows submits one UPDATE or DELETE statement against a hosted
// interface's versioned store. The server evaluates the predicate
// against its current snapshot and publishes the matched rows as a
// versioned mutation before the ack returns. ifEpoch, when nonzero,
// makes the call conditional (rejected with mutation_conflict if the
// data epoch moved). Like AppendRows, the call is not idempotent and
// is never retried: replaying a lost response would apply the
// mutation twice.
func (c *Client) MutateRows(ctx context.Context, id, sql string, ifEpoch uint64) (*api.MutateAck, error) {
	p := "/v1/interfaces/" + url.PathEscape(id) + "/mutate"
	var out api.MutateAck
	err := c.doOnce(ctx, http.MethodPost, p, api.MutateRequest{SQL: sql, IfEpoch: ifEpoch}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteInterface unhosts an interface: it stops being served, its
// live feed detaches and its durable snapshot (if any) is removed.
// Transient failures are retried like any idempotent call; note that a
// replay after a lost success response answers not_found — callers
// that treat the delete as best-effort should accept CodeNotFound as
// "already gone".
func (c *Client) DeleteInterface(ctx context.Context, id string) (*api.DeleteAck, error) {
	var out api.DeleteAck
	err := c.do(ctx, http.MethodDelete, "/v1/interfaces/"+url.PathEscape(id), nil, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Page fetches the interface's compiled live HTML page.
func (c *Client) Page(ctx context.Context, id string) (string, error) {
	var out string
	err := c.do(ctx, http.MethodGet, "/v1/interfaces/"+url.PathEscape(id)+"/page", nil, &out)
	return out, err
}

// Snapshot asks the server to persist every hosted interface's (log,
// dataset, epoch) to its data dir. Saving is idempotent — a snapshot
// overwrites the previous one atomically — so transient failures are
// retried like any idempotent call.
func (c *Client) Snapshot(ctx context.Context) (*api.SnapshotResult, error) {
	var out api.SnapshotResult
	err := c.do(ctx, http.MethodPost, "/v1/snapshot", nil, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Health returns the server's health report.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var out api.Health
	err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Debug returns the server's cache and traffic counters.
func (c *Client) Debug(ctx context.Context) (*api.DebugInfo, error) {
	var out api.DebugInfo
	err := c.do(ctx, http.MethodGet, "/v1/debug", nil, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// do runs one idempotent operation: marshal, send (with retries),
// decode the typed response or the structured error envelope.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.run(ctx, method, path, in, out, c.retries)
}

// doOnce is do without retries, for non-idempotent operations.
func (c *Client) doOnce(ctx context.Context, method, path string, in, out any) error {
	return c.run(ctx, method, path, in, out, 0)
}

func (c *Client) run(ctx context.Context, method, path string, in, out any, retries int) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: marshal request: %w", err)
		}
	}
	base := c.base
	attempt, hops := 0, 0
	for {
		retry, err := c.once(ctx, method, base+path, body, out)
		if err == nil {
			return nil
		}
		// A moved, not_owner or replica_lagging error names the shard
		// that can actually serve the request (the new home after a
		// migration, or the replica set's owner) and means this request
		// was NOT processed: follow it immediately (no backoff, no retry
		// budget spent) — safe even for non-idempotent ingestion,
		// bounded by maxMovedHops.
		if c.follow && hops < maxMovedHops {
			var apiErr *api.Error
			if errors.As(err, &apiErr) && apiErr.Addr != "" &&
				(apiErr.Code == api.CodeMoved || apiErr.Code == api.CodeNotOwner || apiErr.Code == api.CodeReplicaLagging) {
				if b, perr := NormalizeBase(apiErr.Addr); perr == nil {
					base = b
					hops++
					continue
				}
			}
		}
		if !retry || attempt >= retries {
			return err
		}
		attempt++
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(c.backoff << (attempt - 1)):
		}
	}
}

// NormalizeBase turns a server address ("host:port" or a full URL)
// into a canonical client base URL. It is the one address
// canonicalizer in the module: the client uses it to follow moved
// errors, and the shard layer uses it so addresses compare equal
// however the operator spelled them.
func NormalizeBase(addr string) (string, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return "", fmt.Errorf("client: bad server address %q (want host:port or a base URL)", addr)
	}
	return strings.TrimRight(u.String(), "/"), nil
}

// once sends the request a single time. The bool reports whether the
// failure is retryable (transport error or 5xx).
func (c *Client) once(ctx context.Context, method, fullURL string, body []byte, out any) (bool, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, fullURL, rd)
	if err != nil {
		return false, fmt.Errorf("client: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	// Cross-hop tracing: a context that carries a trace id (a proxied
	// router hop, a replication push inside a traced request) forwards
	// it, so the downstream server adopts the edge's id instead of
	// minting its own.
	if tid := obs.TraceID(ctx); tid != "" {
		req.Header.Set(obs.TraceHeader, tid)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return ctx.Err() == nil, fmt.Errorf("client: %s %s: %w", method, fullURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		switch dst := out.(type) {
		case nil:
			_, _ = io.Copy(io.Discard, resp.Body)
		case *string:
			// Non-JSON endpoints (the compiled HTML page) land as text.
			raw, rerr := io.ReadAll(resp.Body)
			if rerr != nil {
				return false, fmt.Errorf("client: read %s %s response: %w", method, fullURL, rerr)
			}
			*dst = string(raw)
		default:
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return false, fmt.Errorf("client: decode %s %s response: %w", method, fullURL, err)
			}
		}
		return false, nil
	}
	apiErr := DecodeError(resp)
	return resp.StatusCode >= 500, apiErr
}

// DecodeError turns a non-2xx response into an *api.Error — the
// structured envelope when the server sent one, a synthesized internal
// error otherwise (e.g. a proxy in the path). Exported so every HTTP
// consumer of the v1 contract (the SDK itself, the shard-admin client)
// decodes failures identically.
func DecodeError(resp *http.Response) *api.Error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e api.Error
	if json.Unmarshal(raw, &e) == nil && e.Code != "" {
		e.Status = resp.StatusCode
		return &e
	}
	msg := strings.TrimSpace(string(raw))
	if msg == "" {
		msg = resp.Status
	}
	return &api.Error{Code: api.CodeInternal, Status: resp.StatusCode, Message: msg}
}
