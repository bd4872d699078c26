package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/api"
)

// postWrite POSTs body to one of the write routes and decodes the ack
// as a JSON object, so the test sees exactly which fields the wire
// carries.
func postWrite(t *testing.T, url, contentType, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s: status %d, body %v", url, resp.StatusCode, ack)
	}
	return ack
}

// TestWritesWithoutFlushPublishBeforeAck: the log and rows routes ack
// only after the write is published, with or without ?flush — the ack
// says flushed:true, buffered:0 and the bumped epoch, and a query sent
// right after it sees the write.
func TestWritesWithoutFlushPublishBeforeAck(t *testing.T) {
	ts, h, _ := liveServer(t)
	base := ts.URL + "/v1/interfaces/olap"
	query := func(req api.QueryRequest) *api.QueryResponse {
		t.Helper()
		code, resp, apiErr := postQuery(t, base+"/query", req)
		if code != http.StatusOK {
			t.Fatalf("query status %d: %+v", code, apiErr)
		}
		return resp
	}
	published := func(route string, ack map[string]any, epoch float64) {
		t.Helper()
		if ack["flushed"] != true || ack["buffered"] != 0.0 || ack["epoch"] != epoch {
			t.Fatalf("%s ack = %v, want flushed:true buffered:0 epoch:%v", route, ack, epoch)
		}
	}

	// The log route: month 9 is outside the mined domain until the
	// entry that widens it is published.
	path := h.Iface().Widgets[0].Path.String()
	nine := 9.0
	widen := api.QueryRequest{Widgets: []api.WidgetBinding{{Path: path, Number: &nine}}}
	ack := postWrite(t, base+"/log", "text/plain", "SELECT carrier FROM ontime WHERE month = 9\n")
	published("log", ack, 2)
	if got := query(widen); got.Epoch != 2 || !strings.Contains(got.SQL, "9") {
		t.Fatalf("query after the log ack = epoch %d, sql %q", got.Epoch, got.SQL)
	}

	// The rows route: the appended row matches the initial query.
	before := query(api.QueryRequest{})
	row, err := json.Marshal(api.RowsRequest{Table: "ontime", Rows: [][]any{ontimeRow("AA", 1)}})
	if err != nil {
		t.Fatal(err)
	}
	ack = postWrite(t, base+"/rows", "application/json", string(row))
	published("rows", ack, 3)
	if ack["rowCount"] != 51.0 {
		t.Fatalf("rows ack rowCount = %v, want 51", ack["rowCount"])
	}
	after := query(api.QueryRequest{})
	if after.Epoch != 3 || after.RowCount != before.RowCount+1 {
		t.Fatalf("query after the rows ack = epoch %d, %d rows; want epoch 3, %d rows",
			after.Epoch, after.RowCount, before.RowCount+1)
	}
}
