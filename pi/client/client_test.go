package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qlog"
	"repro/internal/server"
)

// fixtureService mines a tiny interface ("SELECT a FROM t WHERE x=N")
// over 20 rows, 5 per x, and returns a service over it — cheap enough
// to build per test.
func fixtureService(t *testing.T) *api.Service {
	t.Helper()
	l := &qlog.Log{}
	for i := 1; i <= 4; i++ {
		l.Append(fmt.Sprintf("SELECT a FROM t WHERE x = %d", i), "")
	}
	iface, err := core.Generate(l, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tbl := engine.NewTable("t", "a", "x")
	for i := 1; i <= 20; i++ {
		if err := tbl.AddRow(engine.Num(float64(i*10)), engine.Num(float64((i-1)%4+1))); err != nil {
			t.Fatal(err)
		}
	}
	db := engine.NewDB()
	db.AddTable(tbl)
	reg := api.NewRegistry()
	if _, err := reg.Add("tiny", "tiny fixture", iface, db); err != nil {
		t.Fatal(err)
	}
	return api.NewService(reg)
}

// stubIngestor acks whatever log entries it is given, counting them;
// the embedded nil Ingestor stands in for the row paths these tests
// never reach.
type stubIngestor struct {
	api.Ingestor
	submitted atomic.Int64
}

func (s *stubIngestor) IngestStatus(id string) (api.IngestStatus, bool) {
	return api.IngestStatus{}, false
}

func (s *stubIngestor) Submit(id string, entries []qlog.Entry) (api.IngestAck, error) {
	s.submitted.Add(int64(len(entries)))
	return api.IngestAck{Accepted: len(entries)}, nil
}

// TestClientRoundTrip drives every SDK operation against a real
// transport with auth enabled — the second consumer of the contract
// next to the server's own tests.
func TestClientRoundTrip(t *testing.T) {
	svc := fixtureService(t)
	ing := &stubIngestor{}
	svc.SetIngestor(ing)
	ts := httptest.NewServer(server.New(svc, server.WithAuth(server.AuthConfig{Token: "tok"})).Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()

	c, err := New(ts.URL, WithToken("tok"))
	if err != nil {
		t.Fatal(err)
	}

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" || !h.Ingestion {
		t.Fatalf("health = %+v (%v)", h, err)
	}
	list, err := c.ListInterfaces(ctx)
	if err != nil || len(list) != 1 || list[0].ID != "tiny" {
		t.Fatalf("list = %+v (%v)", list, err)
	}
	d, err := c.GetInterface(ctx, "tiny")
	if err != nil || d.ID != "tiny" || len(d.Widgets) == 0 {
		t.Fatalf("detail = %+v (%v)", d, err)
	}
	epoch, err := c.Epoch(ctx, "tiny")
	if err != nil || epoch != 1 {
		t.Fatalf("epoch = %d (%v)", epoch, err)
	}
	resp, err := c.Query(ctx, "tiny", api.QueryRequest{})
	if err != nil || resp.RowCount == 0 || resp.Epoch != 1 {
		t.Fatalf("query = %+v (%v)", resp, err)
	}
	ack, err := c.IngestSQL(ctx, "tiny", true, "SELECT a FROM t WHERE x = 9")
	if err != nil || ack.Accepted != 1 || ing.submitted.Load() != 1 {
		t.Fatalf("ingest = %+v (%v, submitted %d)", ack, err, ing.submitted.Load())
	}
	dbg, err := c.Debug(ctx)
	if err != nil || len(dbg.Interfaces) != 1 || dbg.Interfaces[0].Queries != 1 {
		t.Fatalf("debug = %+v (%v)", dbg, err)
	}

	// Unknown interface surfaces the typed not_found error.
	_, err = c.GetInterface(ctx, "nope")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown interface error = %v", err)
	}
}

// TestClientAuthFailures: 401 without a token, 403 with the wrong one —
// both as typed *api.Error values.
func TestClientAuthFailures(t *testing.T) {
	svc := fixtureService(t)
	ts := httptest.NewServer(server.New(svc, server.WithAuth(server.AuthConfig{Token: "tok"})).Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()

	anon, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = anon.Query(ctx, "tiny", api.QueryRequest{})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnauthorized || apiErr.Status != http.StatusUnauthorized {
		t.Fatalf("no-token error = %v", err)
	}
	// Metadata stays readable without a token.
	if _, err := anon.ListInterfaces(ctx); err != nil {
		t.Fatalf("unauthenticated list rejected: %v", err)
	}

	wrong, err := New(ts.URL, WithToken("nope"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = wrong.Query(ctx, "tiny", api.QueryRequest{})
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeForbidden || apiErr.Status != http.StatusForbidden {
		t.Fatalf("wrong-token error = %v", err)
	}
}

// TestClientPagination pages through a result with QueryAll and checks
// the cursor chain terminates with the full row set.
func TestClientPagination(t *testing.T) {
	svc := fixtureService(t)
	ts := httptest.NewServer(server.New(svc).Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()

	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Query(ctx, "tiny", api.QueryRequest{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first.RowCount <= 2 {
		t.Fatalf("fixture result has %d rows; need > 2", first.RowCount)
	}
	if !first.Truncated || len(first.Rows) != 2 || first.NextCursor == "" {
		t.Fatalf("first page = %+v", first)
	}
	all, err := c.QueryAll(ctx, "tiny", api.QueryRequest{Limit: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Rows) != all.RowCount || all.Truncated || all.NextCursor != "" {
		t.Fatalf("QueryAll = %d/%d rows truncated=%v", len(all.Rows), all.RowCount, all.Truncated)
	}
}

// TestClientRetriesOn5xx: transient 5xx responses are retried with
// backoff; 4xx responses are not.
func TestClientRetriesOn5xx(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `[]`)
	}))
	t.Cleanup(ts.Close)

	c, err := New(ts.URL, WithRetries(3), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ListInterfaces(context.Background()); err != nil {
		t.Fatalf("retried request failed: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (2 failures + success)", got)
	}

	// Exhausted retries surface the last error.
	hits.Store(-100)
	_, err = c.ListInterfaces(context.Background())
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("exhausted retries error = %v", err)
	}

	// 4xx is not retried.
	var fourHits atomic.Int64
	ts4 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fourHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"code":"not_found","error":"nope"}`)
	}))
	t.Cleanup(ts4.Close)
	c4, err := New(ts4.URL, WithRetries(3), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c4.GetInterface(context.Background(), "x")
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Fatalf("4xx error = %v", err)
	}
	if got := fourHits.Load(); got != 1 {
		t.Fatalf("4xx was retried: %d attempts", got)
	}
}

// TestClientNeverRetriesIngest: replaying a lost ingest response would
// duplicate entries, so IngestLog must not retry even on 5xx.
func TestClientNeverRetriesIngest(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusBadGateway)
	}))
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, WithRetries(3), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestSQL(context.Background(), "tiny", true, "SELECT 1"); err == nil {
		t.Fatal("ingest against a dead server succeeded")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("ingest was retried: %d attempts, want 1", got)
	}
}

func TestClientBadBaseURL(t *testing.T) {
	if _, err := New("not a url"); err == nil {
		t.Fatal("bad base URL accepted")
	}
	if _, err := New("/relative/only"); err == nil {
		t.Fatal("schemeless base URL accepted")
	}
}
