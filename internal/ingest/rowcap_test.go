package ingest

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/engine"
)

func rowsN(n int) [][]engine.Value {
	out := make([][]engine.Value, n)
	for i := range out {
		out[i] = []engine.Value{engine.Num(float64(1000 + i)), engine.Num(float64(100 + i))}
	}
	return out
}

// TestRowBufferCapRejectsOversizeBatch: one request over
// maxRowsPerRequest rows must be rejected with a structured error, not
// published as one unbounded publication.
func TestRowBufferCapRejectsOversizeBatch(t *testing.T) {
	_, ing, h := newIngester(t, Options{})
	_, err := ing.SubmitRows("live", "t", rowsN(maxRowsPerRequest+1))
	if err == nil {
		t.Fatal("oversize batch accepted")
	}
	if !strings.Contains(err.Error(), "rows per request") {
		t.Fatalf("error does not name the cap: %v", err)
	}
	if h.Epoch() != 1 {
		t.Fatalf("rejected batch bumped the epoch to %d", h.Epoch())
	}
	// The rejection had no side effects: a valid batch still lands.
	ack, err := ing.SubmitRows("live", "t", rowsN(3))
	if err != nil {
		t.Fatal(err)
	}
	if ack.RowCount != 53 { // 50 seed rows + 3
		t.Fatalf("rowCount = %d, want 53", ack.RowCount)
	}
}

// TestServiceMapsRowCapToRowsRejected: the structured contract — an
// oversize rows request surfaces as rows_rejected through the service
// layer.
func TestServiceMapsRowCapToRowsRejected(t *testing.T) {
	reg, ing, _ := newIngester(t, Options{})
	svc := api.NewService(reg)
	svc.SetIngestor(ing)
	rows := make([][]any, maxRowsPerRequest+1)
	for i := range rows {
		rows[i] = []any{float64(2000 + i), float64(200 + i)}
	}
	_, err := svc.AppendRows("live", api.RowsRequest{Table: "t", Rows: rows}, false)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeRowsRejected {
		t.Fatalf("service error = %v, want %s", err, api.CodeRowsRejected)
	}
}
