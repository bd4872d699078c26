package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/api"
	"repro/internal/ingest"
	"repro/internal/wal"
	"repro/pi/client"
)

// The replication wire contract, mounted under the shard-admin
// surface (/v1/shard/, same bearer-token guard):
//
//	POST /v1/shard/interfaces/{id}/follow    — base frame (octet-stream + term/owner headers)
//	POST /v1/shard/interfaces/{id}/apply     — one WAL record frame (octet-stream + term/owner headers)
//	POST /v1/shard/interfaces/{id}/promote   — failover CAS: {term, targets}
//	POST /v1/shard/interfaces/{id}/demote    — lost a term race: {to, term}
//	POST /v1/shard/interfaces/{id}/handoff   — ?to=ADDR: planned failover onto a synced follower
//	POST /v1/shard/interfaces/{id}/unfollow  — drop the follower copy
//	POST /v1/shard/interfaces/{id}/targets   — owner's follower set: {targets}
//	GET  /v1/shard/interfaces/{id}/replica   — one interface's status
//	GET  /v1/shard/replication               — every tracked interface's status
//
// Base frames are the checksummed store.Encode format .snap files use;
// a streamed publication is exactly one WAL record frame
// (wal.EncodeRecord: length, CRC, payload — the bytes the owner's log
// holds for it), with the sender's term and owner in headers. Both
// routes answer bad_request for a missing or malformed term and leave
// the follower untouched; apply also refuses a body that is not exactly
// one valid frame.
const (
	// termHeader / ownerHeader ride beside every binary body.
	termHeader  = "Pi-Replica-Term"
	ownerHeader = "Pi-Replica-Owner"
	// maxEventBody caps a streamed publication (one flushed batch).
	maxEventBody = 64 << 20
	// maxSeedBody caps a seed frame (a full interface: log + dataset).
	// 256 MiB is far above any fixture and far below "accidentally
	// stream /dev/zero".
	maxSeedBody = 256 << 20
)

// TargetsRequest is the body of the targets endpoint.
type TargetsRequest struct {
	Targets []string `json:"targets"`
}

// PromoteRequest is the body of the promote endpoint.
type PromoteRequest struct {
	Term    uint64          `json:"term"`
	Targets []PromoteTarget `json:"targets,omitempty"`
}

// maxControlBody caps the JSON control bodies (promote, demote,
// targets): a term and a follower set.
const maxControlBody = 1 << 20

// Register mounts the replication routes on the shard-admin mux.
// guard wraps each handler with the admin bearer-token check.
func (m *Manager) Register(mux *http.ServeMux, guard func(http.HandlerFunc) http.HandlerFunc) {
	route := func(pattern string, op func(w http.ResponseWriter, r *http.Request) (any, error)) {
		mux.HandleFunc(pattern, guard(api.Handle(http.StatusOK, op)))
	}
	route("POST /v1/shard/interfaces/{id}/follow", m.handleFollow)
	route("POST /v1/shard/interfaces/{id}/apply", m.handleApply)
	route("POST /v1/shard/interfaces/{id}/promote", m.handlePromote)
	route("POST /v1/shard/interfaces/{id}/demote", m.handleDemote)
	route("POST /v1/shard/interfaces/{id}/handoff", m.handleHandoff)
	route("POST /v1/shard/interfaces/{id}/unfollow", m.handleUnfollow)
	route("POST /v1/shard/interfaces/{id}/targets", m.handleTargets)
	route("GET /v1/shard/interfaces/{id}/replica", m.handleStatus)
	route("GET /v1/shard/replication", m.handleStatusAll)
}

// readFrame reads a binary replication body of at most maxBytes and
// the sender's term and owner that ride beside it in headers; a
// missing or malformed term is a bad request.
func readFrame(w http.ResponseWriter, r *http.Request, maxBytes int64) (raw []byte, term uint64, owner string, err error) {
	raw, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	if err != nil {
		return nil, 0, "", api.BodyError(err)
	}
	term, err = strconv.ParseUint(r.Header.Get(termHeader), 10, 64)
	if err != nil {
		return nil, 0, "", api.Errf(api.CodeBadRequest, http.StatusBadRequest,
			"%s header: %v", termHeader, err)
	}
	return raw, term, r.Header.Get(ownerHeader), nil
}

func (m *Manager) handleFollow(w http.ResponseWriter, r *http.Request) (any, error) {
	frame, term, owner, err := readFrame(w, r, maxSeedBody)
	if err != nil {
		return nil, err
	}
	return m.Follow(frame, term, owner)
}

func (m *Manager) handleApply(w http.ResponseWriter, r *http.Request) (any, error) {
	raw, term, owner, err := readFrame(w, r, maxEventBody)
	if err != nil {
		return nil, err
	}
	p, n, err := wal.DecodeRecord(raw)
	if err == nil && n != int64(len(raw)) {
		err = fmt.Errorf("%d trailing bytes after the record", int64(len(raw))-n)
	}
	if err != nil {
		return nil, api.Errf(api.CodeBadRequest, http.StatusBadRequest, "apply body: %v", err)
	}
	if err := m.Apply(r.PathValue("id"), term, owner, p); err != nil {
		return nil, err
	}
	return map[string]uint64{"seq": p.Seq}, nil
}

func (m *Manager) handlePromote(w http.ResponseWriter, r *http.Request) (any, error) {
	var req PromoteRequest
	if err := api.DecodeJSON(w, r, maxControlBody, &req); err != nil {
		return nil, err
	}
	return m.Promote(r.PathValue("id"), req.Term, req.Targets)
}

func (m *Manager) handleDemote(w http.ResponseWriter, r *http.Request) (any, error) {
	var req DemoteRequest
	if err := api.DecodeJSON(w, r, maxControlBody, &req); err != nil {
		return nil, err
	}
	if err := m.Demote(r.PathValue("id"), req); err != nil {
		return nil, err
	}
	return map[string]string{"id": r.PathValue("id"), "movedTo": req.To}, nil
}

func (m *Manager) handleHandoff(w http.ResponseWriter, r *http.Request) (any, error) {
	to, err := client.NormalizeBase(r.URL.Query().Get("to"))
	if err != nil {
		return nil, api.Errf(api.CodeBadRequest, http.StatusBadRequest, "handoff: %v", err)
	}
	return m.Handoff(r.PathValue("id"), to)
}

func (m *Manager) handleUnfollow(w http.ResponseWriter, r *http.Request) (any, error) {
	if err := m.Unfollow(r.PathValue("id")); err != nil {
		return nil, err
	}
	return map[string]string{"id": r.PathValue("id")}, nil
}

func (m *Manager) handleTargets(w http.ResponseWriter, r *http.Request) (any, error) {
	var req TargetsRequest
	if err := api.DecodeJSON(w, r, maxControlBody, &req); err != nil {
		return nil, err
	}
	if err := m.SetTargets(r.PathValue("id"), req.Targets); err != nil {
		return nil, err
	}
	return m.Status(r.PathValue("id"))
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) (any, error) {
	return m.Status(r.PathValue("id"))
}

func (m *Manager) handleStatusAll(w http.ResponseWriter, r *http.Request) (any, error) {
	return m.StatusAll(), nil
}

// --- the wire client: owners stream to followers with it, routers
// drive failover with it.

// Client speaks the replication wire contract against one shard.
type Client struct {
	base  string
	token string
	hc    *http.Client
}

// NewClient returns a client for the shard at base.
func NewClient(base, token string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: base, token: token, hc: hc}
}

// jsonBody marks a JSON request body.
var jsonBody = http.Header{"Content-Type": {"application/json"}}

func (c *Client) do(ctx context.Context, method, path string, hdr http.Header, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("replica: build request: %w", err)
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	// Replication answers are small JSON acks inside the owner's write
	// ack: gzip costs more than it saves, so ask for identity.
	req.Header.Set("Accept-Encoding", "identity")
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("replica: %s %s%s: %w", method, c.base, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		// One error-envelope contract fleet-wide: decode exactly like
		// the SDK decodes v1 failures.
		return client.DecodeError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("replica: decode %s%s response: %w", c.base, path, err)
	}
	return nil
}

func ifacePath(id, op string) string {
	return "/v1/shard/interfaces/" + url.PathEscape(id) + "/" + op
}

// post sends a binary replication body beside the sender's term and
// owner.
func (c *Client) post(ctx context.Context, id, op string, body []byte, term uint64, owner string, out any) error {
	hdr := http.Header{
		"Content-Type": {"application/octet-stream"},
		termHeader:     {strconv.FormatUint(term, 10)},
		ownerHeader:    {owner},
	}
	return c.do(ctx, http.MethodPost, ifacePath(id, op), hdr, body, out)
}

// Follow ships a base frame for id.
func (c *Client) Follow(ctx context.Context, id string, frame []byte, term uint64, owner string) error {
	return c.post(ctx, id, "follow", frame, term, owner, nil)
}

// Apply streams one publication as a WAL record frame.
func (c *Client) Apply(ctx context.Context, id string, term uint64, owner string, p ingest.Publication) error {
	frame, err := wal.EncodeRecord(p)
	if err != nil {
		return err
	}
	return c.post(ctx, id, "apply", frame, term, owner, nil)
}

// Promote runs the failover CAS on a follower.
func (c *Client) Promote(ctx context.Context, id string, term uint64, targets []PromoteTarget) (*StatusResponse, error) {
	body, _ := json.Marshal(PromoteRequest{Term: term, Targets: targets})
	var out StatusResponse
	if err := c.do(ctx, http.MethodPost, ifacePath(id, "promote"), jsonBody, body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Demote asks a shard to give up a lost owner claim.
func (c *Client) Demote(ctx context.Context, id, to string, term uint64) error {
	body, _ := json.Marshal(DemoteRequest{To: to, Term: term})
	return c.do(ctx, http.MethodPost, ifacePath(id, "demote"), jsonBody, body, nil)
}

// Handoff asks the owner of id to hand it to its synced follower at
// to; the response is the new owner's status after the fence bump.
func (c *Client) Handoff(ctx context.Context, id, to string) (*StatusResponse, error) {
	var out StatusResponse
	path := ifacePath(id, "handoff") + "?" + url.Values{"to": {to}}.Encode()
	if err := c.do(ctx, http.MethodPost, path, nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Unfollow drops a follower copy.
func (c *Client) Unfollow(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, ifacePath(id, "unfollow"), jsonBody, []byte("{}"), nil)
}

// Targets declares the owner's follower set.
func (c *Client) Targets(ctx context.Context, id string, addrs []string) (*StatusResponse, error) {
	body, _ := json.Marshal(TargetsRequest{Targets: addrs})
	var out StatusResponse
	if err := c.do(ctx, http.MethodPost, ifacePath(id, "targets"), jsonBody, body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Status fetches one interface's replication status.
func (c *Client) Status(ctx context.Context, id string) (*StatusResponse, error) {
	var out StatusResponse
	if err := c.do(ctx, http.MethodGet, ifacePath(id, "replica"), nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
