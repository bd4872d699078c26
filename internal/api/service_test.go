package api

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mapper"
	"repro/internal/qlog"
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

func newTestService(t testing.TB) (*Service, *Hosted) {
	t.Helper()
	iface, db := minedOLAP(t)
	reg := NewRegistry()
	h, err := reg.Add("olap", "OnTime OLAP dashboard", iface, db)
	if err != nil {
		t.Fatal(err)
	}
	return NewService(reg), h
}

// newScanService hosts "rows" over a table of n rows: an interface
// mined from two range scans of t, whose initial query selects every
// row (or all but one).
func newScanService(t testing.TB, n int) (*Service, *Hosted) {
	t.Helper()
	iface, err := core.Generate(qlog.FromSQL("SELECT a FROM t WHERE x > 0", "SELECT a FROM t WHERE x > 1"), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tbl := engine.NewTable("t", "a", "x")
	for i := 1; i <= n; i++ {
		tbl.MustAddRow(engine.Num(float64(i)), engine.Num(float64(i)))
	}
	db := engine.NewDB()
	db.AddTable(tbl)
	reg := NewRegistry()
	h, err := reg.Add("rows", "range scans", iface, db)
	if err != nil {
		t.Fatal(err)
	}
	return NewService(reg), h
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

// errCode extracts the structured code from a service error.
func errCode(t *testing.T, err error) string {
	t.Helper()
	if err == nil {
		t.Fatal("expected an error")
	}
	var e *Error
	if !errors.As(err, &e) {
		t.Fatalf("error %v is not an *api.Error", err)
	}
	return e.Code
}

func TestServiceUnknownInterface(t *testing.T) {
	svc, _ := newTestService(t)
	if _, err := svc.GetInterface("nope"); errCode(t, err) != CodeNotFound {
		t.Fatalf("GetInterface code = %v", err)
	}
	if _, err := svc.Query("nope", QueryRequest{}); errCode(t, err) != CodeNotFound {
		t.Fatalf("Query code = %v", err)
	}
	if _, err := svc.Epoch("nope"); errCode(t, err) != CodeNotFound {
		t.Fatalf("Epoch code = %v", err)
	}
	if _, err := svc.Page("nope"); errCode(t, err) != CodeNotFound {
		t.Fatalf("Page code = %v", err)
	}
}

func TestServiceBindRejectedCode(t *testing.T) {
	svc, h := newTestService(t)
	w := sliderWidget(t, h.Iface())
	_, hi := w.Domain.Range()
	outside := hi + 1000
	_, err := svc.Query("olap", QueryRequest{
		Widgets: []WidgetBinding{{Path: w.Path.String(), Number: &outside}},
	})
	if errCode(t, err) != CodeBindRejected {
		t.Fatalf("out-of-domain code = %v", err)
	}
	v := 1.0
	_, err = svc.Query("olap", QueryRequest{
		Widgets: []WidgetBinding{{Path: "9/9/9", Number: &v}},
	})
	if errCode(t, err) != CodeBindRejected {
		t.Fatalf("unknown-path code = %v", err)
	}
}

// TestServiceHexWithoutPrefixRejected: a NumExpr marked fmt=hex must
// carry the 0x prefix to be a number at all, for the domain check as for
// the executor, so the request is rejected at bind (422 bind_rejected)
// instead of binding as 0x14 = 20 and failing to execute. The same text
// without the mark is the decimal 14 and runs.
func TestServiceHexWithoutPrefixRejected(t *testing.T) {
	svc, _ := newTestService(t)
	query := func(attrs string) error {
		var req QueryRequest
		body := `{"widgets":[{"path":"2/0/0/1","value":{"type":"NumExpr","attrs":` + attrs + `}}]}`
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		_, err := svc.Query("olap", req)
		return err
	}
	err := query(`{"value":"14","fmt":"hex"}`)
	var e *Error
	if !errors.As(err, &e) || e.Code != CodeBindRejected || e.Status != http.StatusUnprocessableEntity {
		t.Fatalf("fmt=hex \"14\" = %v, want 422 bind_rejected", err)
	}
	if err := query(`{"value":"14"}`); err != nil {
		t.Fatalf("decimal 14 = %v, want it to run", err)
	}
}

// TestServiceQueryCounterCountsOnlyAccepted: rejected bindings must not
// inflate the per-interface query counter that /healthz and /debug
// report.
func TestServiceQueryCounterCountsOnlyAccepted(t *testing.T) {
	svc, h := newTestService(t)
	w := sliderWidget(t, h.Iface())
	_, hi := w.Domain.Range()
	outside := hi + 1000
	for i := 0; i < 3; i++ {
		if _, err := svc.Query("olap", QueryRequest{
			Widgets: []WidgetBinding{{Path: w.Path.String(), Number: &outside}},
		}); err == nil {
			t.Fatal("out-of-domain query accepted")
		}
	}
	if got := h.Queries(); got != 0 {
		t.Fatalf("rejected queries advanced the counter to %d", got)
	}
	if _, err := svc.Query("olap", QueryRequest{}); err != nil {
		t.Fatal(err)
	}
	if got := h.Queries(); got != 1 {
		t.Fatalf("accepted query counter = %d, want 1", got)
	}
}

func TestServiceQueryPagination(t *testing.T) {
	svc, _ := newScanService(t, 8)
	full, err := svc.Query("rows", QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if full.RowCount < 3 {
		t.Fatalf("fixture initial query returns %d rows; need >= 3", full.RowCount)
	}
	total := full.RowCount

	// Page through with limit 2 and reassemble the full result.
	var rows [][]any
	cursor := ""
	pages := 0
	for {
		resp, err := svc.Query("rows", QueryRequest{Limit: 2, Cursor: cursor})
		if err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		if resp.RowCount != total {
			t.Fatalf("page %d reports total %d, want %d", pages, resp.RowCount, total)
		}
		if len(resp.Rows) > 2 {
			t.Fatalf("page %d has %d rows, limit was 2", pages, len(resp.Rows))
		}
		rows = append(rows, resp.Rows...)
		pages++
		if !resp.Truncated {
			if resp.NextCursor != "" {
				t.Fatalf("final page still carries a cursor %q", resp.NextCursor)
			}
			break
		}
		if resp.NextCursor == "" {
			t.Fatal("truncated page without a nextCursor")
		}
		cursor = resp.NextCursor
	}
	if len(rows) != total {
		t.Fatalf("reassembled %d rows across %d pages, want %d", len(rows), pages, total)
	}
	if pages != (total+1)/2 {
		t.Fatalf("walked %d pages for %d rows at limit 2", pages, total)
	}
}

func TestServiceQueryPaginationDefaultsAndCaps(t *testing.T) {
	svc, _ := newScanService(t, MaxRowLimit+2)
	resp, err := svc.Query("rows", QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != DefaultRowLimit || !resp.Truncated {
		t.Fatalf("default limit: %d of %d rows, truncated=%v", len(resp.Rows), resp.RowCount, resp.Truncated)
	}
	// An absurd requested limit is clamped to the hard cap.
	resp, err = svc.Query("rows", QueryRequest{Limit: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != MaxRowLimit || !resp.Truncated {
		t.Fatalf("hard cap: %d of %d rows, truncated=%v", len(resp.Rows), resp.RowCount, resp.Truncated)
	}
	// Negative limits are rejected, malformed cursors too.
	if _, err := svc.Query("rows", QueryRequest{Limit: -1}); errCode(t, err) != CodeBadRequest {
		t.Fatalf("negative limit code = %v", err)
	}
	if _, err := svc.Query("rows", QueryRequest{Cursor: "junk"}); errCode(t, err) != CodeBadRequest {
		t.Fatalf("malformed cursor code = %v", err)
	}
}

// TestServiceCursorExpiresAcrossEpochs: a cursor minted before a hot
// swap must not splice rows from two different result sets.
func TestServiceCursorExpiresAcrossEpochs(t *testing.T) {
	svc, h := newScanService(t, 3)
	first, err := svc.Query("rows", QueryRequest{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Truncated {
		t.Fatal("a 1-row page of a 3-row scan is not truncated")
	}
	if _, err := h.Swap(h.Iface(), nil); err != nil {
		t.Fatal(err)
	}
	_, err = svc.Query("rows", QueryRequest{Cursor: first.NextCursor})
	if errCode(t, err) != CodeCursorExpired {
		t.Fatalf("stale cursor code = %v", err)
	}
}

// TestServiceCursorBoundToQuery: a cursor minted for one widget state
// must not page through a different query's result at the same epoch.
func TestServiceCursorBoundToQuery(t *testing.T) {
	svc, h := newScanService(t, 3)
	first, err := svc.Query("rows", QueryRequest{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Truncated {
		t.Fatal("a 1-row page of a 3-row scan is not truncated")
	}
	w := sliderWidget(t, h.Iface())
	lo, hi := w.Domain.Range()
	mid := (lo + hi) / 2 // neither mined query's literal
	state := []WidgetBinding{{Path: w.Path.String(), Number: &mid}}
	if _, err := svc.Query("rows", QueryRequest{Widgets: state}); err != nil {
		t.Fatal(err)
	}
	_, err = svc.Query("rows", QueryRequest{Widgets: state, Cursor: first.NextCursor})
	if errCode(t, err) != CodeBadRequest {
		t.Fatalf("cross-query cursor code = %v", err)
	}
}

func TestServiceIngestDisabled(t *testing.T) {
	svc, _ := newTestService(t)
	_, err := svc.IngestLog("olap", []qlog.Entry{{SQL: "SELECT 1"}}, false)
	if errCode(t, err) != CodeIngestDisabled {
		t.Fatalf("ingest without ingestor code = %v", err)
	}
}

func TestServicePageWiredToV1(t *testing.T) {
	svc, _ := newTestService(t)
	page, err := svc.Page("olap")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, `"endpoint":"/v1/interfaces/olap/query"`) {
		t.Fatalf("page not wired to the v1 query endpoint:\n%.300s", page)
	}
	if !strings.Contains(page, `"epochEndpoint":"/v1/interfaces/olap/epoch"`) {
		t.Fatal("page not wired to the v1 epoch endpoint")
	}
}
