package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mapper"
	"repro/internal/workload"
)

// testFixture mines the OLAP interface once; every test builds its own
// registry over the shared immutable interface and dataset.
var fixture struct {
	once  sync.Once
	iface *core.Interface
	db    *engine.DB
	err   error
}

func minedOLAP(t testing.TB) (*core.Interface, *engine.DB) {
	t.Helper()
	fixture.once.Do(func() {
		log := workload.OLAPLog(150, 7)
		fixture.iface, fixture.err = core.Generate(log, core.DefaultOptions())
		fixture.db = engine.OnTimeDB(300)
	})
	if fixture.err != nil {
		t.Fatalf("mine OLAP fixture: %v", fixture.err)
	}
	return fixture.iface, fixture.db
}

func newTestServer(t *testing.T, opts ...Option) (*httptest.Server, *api.Hosted) {
	t.Helper()
	iface, db := minedOLAP(t)
	reg := api.NewRegistry()
	h, err := reg.Add("olap", "OnTime OLAP dashboard", iface, db)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(api.NewService(reg), opts...).Handler())
	t.Cleanup(ts.Close)
	return ts, h
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// postQuery POSTs a query request; on non-200 it returns the decoded
// error envelope.
func postQuery(t *testing.T, url string, req api.QueryRequest) (int, *api.QueryResponse, *api.Error) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e api.Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("non-200 without a decodable envelope: %v", err)
		}
		return resp.StatusCode, nil, &e
	}
	var out api.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &out, nil
}

// sliderWidget returns a mined numeric-range widget to exercise
// extrapolation.
func sliderWidget(t testing.TB, iface *core.Interface) *mapper.MappedWidget {
	t.Helper()
	for _, w := range iface.Widgets {
		if w.Domain.IsNumericRange() {
			return w
		}
	}
	t.Fatal("fixture mined no numeric-range widget")
	return nil
}

func TestListInterfaces(t *testing.T) {
	ts, _ := newTestServer(t)
	var list []api.InterfaceSummary
	if code := getJSON(t, ts.URL+"/v1/interfaces", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/interfaces status = %d", code)
	}
	if len(list) != 1 || list[0].ID != "olap" || list[0].Widgets == 0 {
		t.Fatalf("GET /v1/interfaces list = %+v", list)
	}
}

func TestGetInterfaceDetail(t *testing.T) {
	ts, h := newTestServer(t)
	var d api.InterfaceDetail
	if code := getJSON(t, ts.URL+"/v1/interfaces/olap", &d); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if d.InitialSQL == "" || len(d.Widgets) != len(h.Iface().Widgets) {
		t.Fatalf("detail = %+v", d)
	}
	for _, w := range d.Widgets {
		if w.Path == "" || w.Kind == "" || len(w.Options) == 0 {
			t.Fatalf("incomplete widget info: %+v", w)
		}
	}
}

// TestErrorEnvelopeContract: every endpoint's failure modes return the
// documented {code, error} envelope with the right code and status.
func TestErrorEnvelopeContract(t *testing.T) {
	ts, h := newTestServer(t)
	w := sliderWidget(t, h.Iface())
	_, hi := w.Domain.Range()
	outside := hi + 1000

	envelope := func(t *testing.T, resp *http.Response) api.Error {
		t.Helper()
		defer resp.Body.Close()
		var e api.Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("response is not the error envelope: %v", err)
		}
		if e.Code == "" || e.Message == "" {
			t.Fatalf("envelope incomplete: %+v", e)
		}
		return e
	}

	t.Run("not found", func(t *testing.T) {
		for _, path := range []string{
			"/v1/interfaces/nope", "/v1/interfaces/nope/epoch", "/v1/interfaces/nope/page",
		} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			e := envelope(t, resp)
			if resp.StatusCode != http.StatusNotFound || e.Code != api.CodeNotFound {
				t.Fatalf("GET %s = %d %q, want 404 not_found", path, resp.StatusCode, e.Code)
			}
		}
		resp, err := http.Post(ts.URL+"/v1/interfaces/nope/query", "application/json",
			strings.NewReader(`{"widgets":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		if e := envelope(t, resp); resp.StatusCode != http.StatusNotFound || e.Code != api.CodeNotFound {
			t.Fatalf("POST query = %d %q, want 404 not_found", resp.StatusCode, e.Code)
		}
	})

	t.Run("bad body", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/interfaces/olap/query", "application/json",
			strings.NewReader(`{"widgets": [`))
		if err != nil {
			t.Fatal(err)
		}
		if e := envelope(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeBadRequest {
			t.Fatalf("= %d %q, want 400 bad_request", resp.StatusCode, e.Code)
		}
	})

	t.Run("bind rejected", func(t *testing.T) {
		code, _, e := postQuery(t, ts.URL+"/v1/interfaces/olap/query", api.QueryRequest{
			Widgets: []api.WidgetBinding{{Path: w.Path.String(), Number: &outside}},
		})
		if code != http.StatusUnprocessableEntity || e.Code != api.CodeBindRejected {
			t.Fatalf("= %d %q, want 422 bind_rejected", code, e.Code)
		}
		if !strings.Contains(e.Message, "domain") {
			t.Fatalf("error %q does not mention the domain", e.Message)
		}
	})

	t.Run("oversized body", func(t *testing.T) {
		big := `{"widgets":[{"path":"` + strings.Repeat("x", maxQueryBody) + `"}]}`
		resp, err := http.Post(ts.URL+"/v1/interfaces/olap/query", "application/json",
			strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		if e := envelope(t, resp); resp.StatusCode != http.StatusRequestEntityTooLarge ||
			e.Code != api.CodePayloadTooLarge {
			t.Fatalf("= %d %q, want 413 payload_too_large", resp.StatusCode, e.Code)
		}
	})

	t.Run("ingest disabled", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/interfaces/olap/log", "text/plain",
			strings.NewReader("SELECT 1\n"))
		if err != nil {
			t.Fatal(err)
		}
		if e := envelope(t, resp); resp.StatusCode != http.StatusNotImplemented ||
			e.Code != api.CodeIngestDisabled {
			t.Fatalf("= %d %q, want 501 ingest_disabled", resp.StatusCode, e.Code)
		}
	})
}

// TestUnversionedRoutesAreGone: the pre-v1 aliases were removed; only
// /v1 answers.
func TestUnversionedRoutesAreGone(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, path := range []string{"/interfaces", "/interfaces/olap", "/healthz", "/debug"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
		resp, err = http.Get(ts.URL + "/v1" + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1%s = %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestServedPage(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/interfaces/olap/page")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET page status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content-type = %q", ct)
	}
	page := string(b)
	if !strings.Contains(page, `"endpoint":"/v1/interfaces/olap/query"`) {
		t.Fatalf("page not wired to the v1 query endpoint:\n%.400s", page)
	}
	if strings.Contains(page, `"token":"`) {
		t.Fatal("open page embeds a token")
	}
}

func TestQueryInitial(t *testing.T) {
	ts, h := newTestServer(t)
	code, resp, _ := postQuery(t, ts.URL+"/v1/interfaces/olap/query", api.QueryRequest{})
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	_, db := minedOLAP(t)
	want, err := engine.Exec(db, h.Iface().Initial)
	if err != nil {
		t.Fatal(err)
	}
	if resp.SQL != ast.SQL(h.Iface().Initial) || resp.RowCount != len(want.Rows) {
		t.Fatalf("sql=%q rows=%d, want sql=%q rows=%d",
			resp.SQL, resp.RowCount, ast.SQL(h.Iface().Initial), len(want.Rows))
	}
}

// TestQueryUnseenSliderValue is the acceptance scenario: a slider value
// the log never contained binds via range extrapolation and returns the
// same rows direct engine execution yields.
func TestQueryUnseenSliderValue(t *testing.T) {
	ts, h := newTestServer(t)
	w := sliderWidget(t, h.Iface())
	lo, hi := w.Domain.Range()
	unseen := float64(int(lo+hi) / 2)
	for _, v := range w.Domain.Values() {
		if s := ast.SQL(v); s == fmt.Sprintf("%g", unseen) {
			unseen += 0.5 // collide with a mined option? shift off-grid
		}
	}
	code, resp, errEnv := postQuery(t, ts.URL+"/v1/interfaces/olap/query", api.QueryRequest{
		Widgets: []api.WidgetBinding{{Path: w.Path.String(), Number: &unseen}},
	})
	if code != http.StatusOK {
		t.Fatalf("status = %d (%v)", code, errEnv)
	}
	bound, err := api.Bind(h.Iface(), []api.WidgetBinding{{Path: w.Path.String(), Number: &unseen}})
	if err != nil {
		t.Fatal(err)
	}
	_, db := minedOLAP(t)
	want, err := engine.Exec(db, bound)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RowCount != len(want.Rows) || len(resp.Cols) != len(want.Cols) {
		t.Fatalf("got %d rows/%d cols, want %d/%d", resp.RowCount, len(resp.Cols), len(want.Rows), len(want.Cols))
	}
	if !strings.Contains(resp.SQL, fmt.Sprintf("%g", unseen)) {
		t.Fatalf("bound SQL %q lacks the unseen value %g", resp.SQL, unseen)
	}
}

func TestQueryAmbiguousBindingIs422(t *testing.T) {
	ts, h := newTestServer(t)
	w := sliderWidget(t, h.Iface())
	v, s := 3.0, "three"
	code, _, e := postQuery(t, ts.URL+"/v1/interfaces/olap/query", api.QueryRequest{
		Widgets: []api.WidgetBinding{{Path: w.Path.String(), Number: &v, Text: &s}},
	})
	if code != http.StatusUnprocessableEntity || e.Code != api.CodeBindRejected {
		t.Fatalf("= %d %v, want 422 bind_rejected", code, e)
	}
	if !strings.Contains(e.Message, "exactly one") {
		t.Fatalf("unexpected error %q", e.Message)
	}
}

// TestQueryPaginationOverHTTP drives Limit/Cursor through the wire
// format.
func TestQueryPaginationOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t)
	code, full, _ := postQuery(t, ts.URL+"/v1/interfaces/olap/query", api.QueryRequest{})
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if full.RowCount < 2 {
		t.Skipf("fixture initial query returns %d rows; need >= 2", full.RowCount)
	}
	code, first, _ := postQuery(t, ts.URL+"/v1/interfaces/olap/query", api.QueryRequest{Limit: 1})
	if code != http.StatusOK || len(first.Rows) != 1 || !first.Truncated || first.NextCursor == "" {
		t.Fatalf("first page = %d %+v", code, first)
	}
	code, second, _ := postQuery(t, ts.URL+"/v1/interfaces/olap/query",
		api.QueryRequest{Limit: 1, Cursor: first.NextCursor})
	if code != http.StatusOK || second.Offset != 1 {
		t.Fatalf("second page = %d %+v", code, second)
	}
}

func TestRepeatedQueryHitsCache(t *testing.T) {
	ts, _ := newTestServer(t)
	iface, _ := minedOLAP(t)
	w := sliderWidget(t, iface)
	lo, _ := w.Domain.Range()
	req := api.QueryRequest{Widgets: []api.WidgetBinding{{Path: w.Path.String(), Number: &lo}}}

	code, first, _ := postQuery(t, ts.URL+"/v1/interfaces/olap/query", req)
	if code != http.StatusOK || first.Cache != "miss" {
		t.Fatalf("first request: status=%d cache=%q", code, first.Cache)
	}
	code, second, _ := postQuery(t, ts.URL+"/v1/interfaces/olap/query", req)
	if code != http.StatusOK || second.Cache != "hit" {
		t.Fatalf("second request: status=%d cache=%q", code, second.Cache)
	}
	if second.RowCount != first.RowCount || second.SQL != first.SQL {
		t.Fatalf("cached result differs: %+v vs %+v", second, first)
	}

	var dbg api.DebugInfo
	if codeDbg := getJSON(t, ts.URL+"/v1/debug", &dbg); codeDbg != http.StatusOK {
		t.Fatalf("debug status = %d", codeDbg)
	}
	if len(dbg.Interfaces) != 1 || dbg.Interfaces[0].Cache.Hits == 0 || dbg.Interfaces[0].Queries < 2 {
		t.Fatalf("debug = %+v", dbg)
	}
}

// --- auth.

func authedServer(t *testing.T) (*httptest.Server, *api.Hosted) {
	return newTestServer(t, WithAuth(AuthConfig{Token: "sesame"}))
}

func doReq(t *testing.T, method, url, token, body string) (*http.Response, api.Error) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e api.Error
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &e)
	return resp, e
}

// TestAuthContract is the acceptance check: with a token configured,
// unauthenticated POSTs to query and log return 401 (missing) / 403
// (wrong), while metadata GETs stay open.
func TestAuthContract(t *testing.T) {
	ts, _ := authedServer(t)

	for _, path := range []string{"/v1/interfaces/olap/query", "/v1/interfaces/olap/log"} {
		resp, e := doReq(t, "POST", ts.URL+path, "", `{"widgets":[]}`)
		if resp.StatusCode != http.StatusUnauthorized || e.Code != api.CodeUnauthorized {
			t.Fatalf("POST %s no-token = %d %q, want 401 unauthorized", path, resp.StatusCode, e.Code)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Fatalf("POST %s 401 without WWW-Authenticate", path)
		}
	}

	resp, e := doReq(t, "POST", ts.URL+"/v1/interfaces/olap/query", "wrong", `{"widgets":[]}`)
	if resp.StatusCode != http.StatusForbidden || e.Code != api.CodeForbidden {
		t.Fatalf("wrong token = %d %q, want 403 forbidden", resp.StatusCode, e.Code)
	}

	resp, _ = doReq(t, "POST", ts.URL+"/v1/interfaces/olap/query", "sesame", `{"widgets":[]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("right token = %d, want 200", resp.StatusCode)
	}

	// Metadata stays open without any token.
	for _, path := range []string{"/v1/interfaces", "/v1/interfaces/olap",
		"/v1/interfaces/olap/epoch", "/v1/interfaces/olap/page", "/v1/healthz", "/v1/debug"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want open 200", path, resp.StatusCode)
		}
	}
}

// TestHealthzQueryCounter: malformed and unauthorized requests must not
// inflate the per-interface query counter.
func TestHealthzQueryCounter(t *testing.T) {
	ts, h := authedServer(t)
	// Unauthorized, then malformed-but-authorized, then accepted.
	doReq(t, "POST", ts.URL+"/v1/interfaces/olap/query", "", `{"widgets":[]}`)
	doReq(t, "POST", ts.URL+"/v1/interfaces/olap/query", "sesame", `{"widgets": [`)
	if got := h.Queries(); got != 0 {
		t.Fatalf("rejected requests advanced the counter to %d", got)
	}
	if resp, _ := doReq(t, "POST", ts.URL+"/v1/interfaces/olap/query", "sesame", `{"widgets":[]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("accepted query = %d", resp.StatusCode)
	}
	var health api.Health
	if code := getJSON(t, ts.URL+"/v1/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if len(health.Interfaces) != 1 || health.Interfaces[0].Queries != 1 {
		t.Fatalf("healthz queries = %+v, want exactly 1", health.Interfaces)
	}
}

// --- middleware.

func TestGzipResponses(t *testing.T) {
	ts, _ := newTestServer(t)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/interfaces", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	tr := &http.Transport{DisableCompression: true} // see the raw encoding
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", enc)
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var list []api.InterfaceSummary
	if err := json.NewDecoder(gz).Decode(&list); err != nil {
		t.Fatalf("gunzip+decode: %v", err)
	}
	if len(list) != 1 || list[0].ID != "olap" {
		t.Fatalf("list = %+v", list)
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	ts := httptest.NewServer(Chain(mux, Recover(log.New(io.Discard, "", 0))))
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || e.Code != api.CodeInternal {
		t.Fatalf("= %d %q, want 500 internal", resp.StatusCode, e.Code)
	}
}

// failingDetail is a Servicer whose GetInterface fails with an error
// that is not an *api.Error, as a Servicer wrapping some other store's
// errors might.
type failingDetail struct{ api.Servicer }

func (failingDetail) GetInterface(string) (*api.InterfaceDetail, error) {
	return nil, errors.New("catalog unreadable")
}

// TestPlainErrorAnswersInternal: an error without a code still reaches
// the client as the JSON envelope, as 500 internal with its text.
func TestPlainErrorAnswersInternal(t *testing.T) {
	ts := httptest.NewServer(New(failingDetail{api.NewService(api.NewRegistry())}).Handler())
	t.Cleanup(ts.Close)
	var e api.Error
	code := getJSON(t, ts.URL+"/v1/interfaces/olap", &e)
	if code != http.StatusInternalServerError || e.Code != api.CodeInternal || e.Message != "catalog unreadable" {
		t.Fatalf("= %d %+v, want 500 internal \"catalog unreadable\"", code, e)
	}
}

func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := log.New(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), "", 0)
	ts, _ := newTestServer(t, WithLogger(logger))
	if _, err := http.Get(ts.URL + "/v1/interfaces"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(buf.String(), "GET /v1/interfaces 200") {
		t.Fatalf("request log missing: %q", buf.String())
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestConcurrentQueries hammers POST /query from many goroutines with a
// mix of widget states; run under -race this is the serving layer's
// thread-safety check (shared immutable dataset, locked cache).
func TestConcurrentQueries(t *testing.T) {
	ts, h := newTestServer(t)
	w := sliderWidget(t, h.Iface())
	lo, hi := w.Domain.Range()

	const goroutines = 8
	const perG = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := lo + float64((g*perG+i)%int(hi-lo+1))
				body, _ := json.Marshal(api.QueryRequest{
					Widgets: []api.WidgetBinding{{Path: w.Path.String(), Number: &v}},
				})
				resp, err := http.Post(ts.URL+"/v1/interfaces/olap/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var out api.QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d: status %d", g, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var dbg api.DebugInfo
	getJSON(t, ts.URL+"/v1/debug", &dbg)
	if len(dbg.Interfaces) != 1 || dbg.Interfaces[0].Cache.Hits+dbg.Interfaces[0].Cache.Misses == 0 {
		t.Fatalf("cache saw no traffic: %+v", dbg)
	}
	if got := h.Queries(); got != goroutines*perG {
		t.Fatalf("query counter = %d, want %d", got, goroutines*perG)
	}
}

func TestRegistryDuplicateAndNil(t *testing.T) {
	iface, db := minedOLAP(t)
	reg := api.NewRegistry()
	if _, err := reg.Add("x", "t", iface, db); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("x", "t", iface, db); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if _, err := reg.Add("", "t", iface, db); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := reg.Add("team/olap", "t", iface, db); err == nil {
		t.Fatal("id with '/' accepted (would be unroutable)")
	}
	if _, err := reg.Add("y", "t", nil, db); err == nil {
		t.Fatal("nil interface accepted")
	}
}
