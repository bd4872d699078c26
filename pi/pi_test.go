package pi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func sdssLog() *Log {
	return LogFromSQL(
		"SELECT * FROM SpecLineIndex WHERE specObjId = 0x400",
		"SELECT * FROM SpecLineIndex WHERE specObjId = 0x199",
		"SELECT * FROM SpecLineIndex WHERE specObjId = 0x3",
	)
}

func TestEndToEnd(t *testing.T) {
	iface, err := Generate(sdssLog(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(iface.Widgets) != 1 || iface.Widgets[0].Type.Name != "slider" {
		t.Fatalf("widgets = %v", iface.Widgets)
	}
	page, err := CompileHTML(iface, "SDSS")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, "PI_STATE") {
		t.Fatal("page missing state")
	}
}

func TestParseRenderRoundTrip(t *testing.T) {
	q, err := ParseSQL("SELECT TOP 3 a FROM t WHERE x = 0xff GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseSQL(RenderSQL(q))
	if err != nil {
		t.Fatal(err)
	}
	if RenderSQL(q) != RenderSQL(again) {
		t.Fatalf("round trip changed SQL: %q vs %q", RenderSQL(q), RenderSQL(again))
	}
}

func TestReadLog(t *testing.T) {
	log, err := ReadLog(strings.NewReader("c1\tSELECT a FROM t\nSELECT b FROM t\n"))
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 2 || log.Entries[0].Client != "c1" {
		t.Fatalf("log = %+v", log.Entries)
	}
}

func TestDependenciesAndCompile(t *testing.T) {
	iface, err := Generate(LogFromSQL(
		"SELECT g.objID FROM Galaxy g",
		"SELECT TOP 1 g.objID FROM Galaxy g",
		"SELECT TOP 10 g.objID FROM Galaxy g"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	deps := Dependencies(iface)
	if len(deps) != 1 {
		t.Fatalf("deps = %v", deps)
	}
	page, err := CompileHTMLWithDeps(iface, "deps", deps)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, "\"deps\"") || !strings.Contains(page, "applyDeps") {
		t.Fatal("dependency wiring missing from page")
	}
}

func TestVerifyAndSchema(t *testing.T) {
	log := LogFromSQL(
		"SELECT tempNo FROM SpecLineIndex WHERE specObjId = 0x10",
		"SELECT ew FROM SpecLineIndex WHERE specObjId = 0x10",
		"SELECT tempNo FROM SpecLineIndex WHERE specObjId = 0x10",
		"SELECT tempNo FROM XCRedshift WHERE specObjId = 0x10",
		"SELECT tempNo FROM XCRedshift WHERE specObjId = 0x90")
	iface, err := Generate(log, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	queries, err := log.Parse()
	if err != nil {
		t.Fatal(err)
	}
	rep := Verify(iface, InferSchema(queries), 0)
	if rep.Checked == 0 {
		t.Fatal("verification did not run")
	}
}

func TestClusterFacade(t *testing.T) {
	log := LogFromSQL(
		"SELECT * FROM SpecLineIndex WHERE specObjId = 0x400",
		"SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 GROUP BY DestState",
		"SELECT * FROM SpecLineIndex WHERE specObjId = 0x10",
		"SELECT COUNT(Delay), OriginState FROM ontime WHERE Month = 3 GROUP BY OriginState",
	)
	clusters, err := Cluster(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d, want the two analyses separated", len(clusters))
	}
}

func TestQueryDistance(t *testing.T) {
	a, _ := ParseSQL("SELECT a FROM t WHERE x = 1")
	b, _ := ParseSQL("SELECT a FROM t WHERE x = 2")
	c, _ := ParseSQL("SELECT COUNT(q), z FROM other GROUP BY z ORDER BY z")
	if d := QueryDistance(a, b); d <= 0 || d > 0.2 {
		t.Fatalf("near distance = %v", d)
	}
	if QueryDistance(a, c) <= QueryDistance(a, b) {
		t.Fatal("unrelated queries should be farther apart")
	}
}

func TestEditorFacade(t *testing.T) {
	iface, err := Generate(sdssLog(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ed := NewEditor(iface)
	if err := ed.SetLabel(0, "Object id"); err != nil {
		t.Fatal(err)
	}
	page, err := ed.Compile("Edited")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, "Object id") {
		t.Fatal("edited label missing")
	}
}

func TestExecFacade(t *testing.T) {
	db := NewDB()
	tbl := NewTable("t", "a")
	tbl.MustAddRow(Num(7))
	db.AddTable(tbl)
	q, _ := ParseSQL("SELECT a FROM t WHERE a > 1")
	res, err := Exec(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Num != 7 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestLiveIngestFacade drives the live path end to end through the
// facade: host with a feed, serve, ingest over HTTP, watch the epoch
// bump and the widened domain answer a query the original mine could
// not express.
func TestLiveIngestFacade(t *testing.T) {
	logq := LogFromSQL(
		"SELECT a FROM t WHERE x = 1",
		"SELECT a FROM t WHERE x = 2",
		"SELECT a FROM t WHERE x = 3",
	)
	db := NewDB()
	tbl := NewTable("t", "a", "x")
	for i := 1; i <= 60; i++ {
		tbl.MustAddRow(Num(float64(i)), Num(float64(i)))
	}
	db.AddTable(tbl)

	reg := NewRegistry()
	ing := NewIngester(reg, IngestOptions{BatchSize: 1})
	h, err := HostLive(ing, "live", "Live demo", logq, db)
	if err != nil {
		t.Fatal(err)
	}
	if h.Epoch() != 1 {
		t.Fatalf("epoch = %d", h.Epoch())
	}
	ts := httptest.NewServer(ServeLiveHandler(reg, ing))
	defer ts.Close()

	// 50 is outside the mined [1,3] domain: a query for it must fail.
	body := `{"widgets":[{"path":"` + h.Iface().Widgets[0].Path.String() + `","number":50}]}`
	resp, err := http.Post(ts.URL+"/v1/interfaces/live/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("out-of-domain query status = %d, want 422", resp.StatusCode)
	}

	// Ingest an entry that widens the domain to 50 (BatchSize 1 swaps
	// immediately), then the same query succeeds at epoch 2.
	if ack, err := Ingest(ing, "live", "SELECT a FROM t WHERE x = 50"); err != nil || !ack.Flushed || ack.Epoch != 2 {
		t.Fatalf("ingest ack = %+v, %v", ack, err)
	}
	resp, err = http.Post(ts.URL+"/v1/interfaces/live/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-ingest query status = %d", resp.StatusCode)
	}
	var out struct {
		SQL   string `json:"sql"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Epoch != 2 || !strings.Contains(out.SQL, "50") {
		t.Fatalf("post-ingest answer = %+v", out)
	}
}
