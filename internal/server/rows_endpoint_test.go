package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/qlog"
)

// liveServer hosts the mined OLAP fixture behind a real store-backed
// ingester, so the rows endpoint exercises the full append + hot-swap
// path over HTTP.
func liveServer(t *testing.T, opts ...Option) (*httptest.Server, *api.Hosted, *api.Service) {
	t.Helper()
	reg := api.NewRegistry()
	ing := ingest.New(reg, ingest.Options{})
	l := &qlog.Log{}
	for _, sql := range []string{
		"SELECT carrier FROM ontime WHERE month = 1",
		"SELECT carrier FROM ontime WHERE month = 2",
		"SELECT carrier FROM ontime WHERE month = 3",
	} {
		l.Append(sql, "")
	}
	h, err := ing.Host("olap", "live rows", l, engine.OnTimeDB(50), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	svc := api.NewService(reg)
	svc.SetIngestor(ing)
	ts := httptest.NewServer(New(svc, opts...).Handler())
	t.Cleanup(ts.Close)
	return ts, h, svc
}

func postRows(t *testing.T, url string, req api.RowsRequest, token string) (int, *api.RowsAck, *api.Error) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if token != "" {
		httpReq.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		var ack api.RowsAck
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, &ack, nil
	}
	var apiErr api.Error
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, nil, &apiErr
}

// ontimeRow is one 16-column ontime row as JSON scalars.
func ontimeRow(carrier string, month float64) []any {
	return []any{carrier, carrier, "CAP", "NYP", "CA", "NY",
		month, 1.0, 1.0, 10.0, 12.0, 8.0, 500.0, 1.0, 0.0, 0.0}
}

func TestRowsEndpointAppendsAndSwaps(t *testing.T) {
	ts, h, _ := liveServer(t)
	url := ts.URL + "/v1/interfaces/olap/rows?flush=1"
	code, ack, apiErr := postRows(t, url, api.RowsRequest{
		Table: "ontime",
		Rows:  [][]any{ontimeRow("AA", 1), ontimeRow("UA", 2)},
	}, "")
	if code != http.StatusAccepted || apiErr != nil {
		t.Fatalf("status %d, err %+v", code, apiErr)
	}
	if ack.Accepted != 2 || !ack.Flushed || ack.RowCount != 52 || ack.Epoch != 2 {
		t.Fatalf("ack = %+v", ack)
	}
	if h.Epoch() != 2 {
		t.Fatalf("interface epoch = %d after flush", h.Epoch())
	}

	// Error contract: unknown table is rows_rejected with 422.
	code, _, apiErr = postRows(t, url, api.RowsRequest{Table: "nope", Rows: [][]any{{1.0}}}, "")
	if code != http.StatusUnprocessableEntity || apiErr == nil || apiErr.Code != api.CodeRowsRejected {
		t.Fatalf("unknown table: status %d, err %+v", code, apiErr)
	}
	// Unknown interface is not_found.
	code, _, apiErr = postRows(t, ts.URL+"/v1/interfaces/ghost/rows", api.RowsRequest{Table: "t", Rows: [][]any{{1.0}}}, "")
	if code != http.StatusNotFound || apiErr == nil || apiErr.Code != api.CodeNotFound {
		t.Fatalf("unknown interface: status %d, err %+v", code, apiErr)
	}
}

func TestRowsEndpointRequiresAuth(t *testing.T) {
	ts, _, _ := liveServer(t, WithAuth(AuthConfig{Token: "tok"}))
	req := api.RowsRequest{Table: "ontime", Rows: [][]any{ontimeRow("AA", 1)}}
	code, _, apiErr := postRows(t, ts.URL+"/v1/interfaces/olap/rows", req, "")
	if code != http.StatusUnauthorized || apiErr.Code != api.CodeUnauthorized {
		t.Fatalf("no token: status %d, err %+v", code, apiErr)
	}
	code, _, apiErr = postRows(t, ts.URL+"/v1/interfaces/olap/rows", req, "wrong")
	if code != http.StatusForbidden || apiErr.Code != api.CodeForbidden {
		t.Fatalf("wrong token: status %d, err %+v", code, apiErr)
	}
	code, ack, _ := postRows(t, ts.URL+"/v1/interfaces/olap/rows?flush=1", req, "tok")
	if code != http.StatusAccepted || ack.Accepted != 1 {
		t.Fatalf("right token: status %d, ack %+v", code, ack)
	}
}

// snapPersister is an in-memory api.Persister for transport tests.
type snapPersister struct{ fail bool }

func (p *snapPersister) SaveAll() (*api.SnapshotResult, error) {
	if p.fail {
		return nil, errors.New("disk full")
	}
	return &api.SnapshotResult{Dir: "mem", Interfaces: []api.SnapshotInterface{{ID: "olap", Epoch: 1}}}, nil
}

func (p *snapPersister) Restore() (*api.RestoreResult, error) {
	return &api.RestoreResult{}, nil
}

func (p *snapPersister) RemoveSnapshot(id string) error { return nil }

func (p *snapPersister) WALStatus(id string) (*api.WALInfo, bool) { return nil, false }

func TestSnapshotEndpoint(t *testing.T) {
	// Without a persister the endpoint reports persistence_disabled.
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var apiErr api.Error
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented || apiErr.Code != api.CodePersistenceDisabled {
		t.Fatalf("no persister: status %d, err %+v", resp.StatusCode, apiErr)
	}

	// With one, the result round-trips; with auth, the default token
	// guards the endpoint.
	svc, _, err := api.NewPersistentService(api.NewRegistry(), &snapPersister{})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(svc, WithAuth(AuthConfig{Token: "tok"})).Handler())
	t.Cleanup(ts2.Close)

	resp, err = http.Post(ts2.URL+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	status := resp.StatusCode
	resp.Body.Close()
	if status != http.StatusUnauthorized {
		t.Fatalf("unauthenticated snapshot: status %d, want 401", status)
	}

	req, _ := http.NewRequest(http.MethodPost, ts2.URL+"/v1/snapshot", nil)
	req.Header.Set("Authorization", "Bearer tok")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res api.SnapshotResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(res.Interfaces) != 1 || res.Interfaces[0].ID != "olap" {
		t.Fatalf("snapshot: status %d, res %+v", resp.StatusCode, res)
	}
}
