package ingest

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qlog"
)

func numRow(vals ...float64) []engine.Value {
	out := make([]engine.Value, len(vals))
	for i, v := range vals {
		out[i] = engine.Num(v)
	}
	return out
}

// TestSubmitRowsPublishesBeforeAck: every rows request publishes
// before it returns — store version and interface epoch both advance —
// so pre-append caches are unreachable from the ack on.
func TestSubmitRowsPublishesBeforeAck(t *testing.T) {
	_, ing, h := newIngester(t, Options{})
	svc := api.NewService(ing.reg)
	svc.SetIngestor(ing)

	before, err := svc.Query("live", api.QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	// Prime the result cache, then prove the swap invalidates it.
	if resp, err := svc.Query("live", api.QueryRequest{}); err != nil || resp.Cache != "hit" {
		t.Fatalf("expected cache hit before append, got %+v (%v)", resp, err)
	}

	ack, err := ing.SubmitRows("live", "t", [][]engine.Value{numRow(990, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Flushed || ack.Buffered != 0 || ack.Accepted != 1 || ack.Epoch != 2 || ack.DataEpoch != 2 || ack.RowCount != 51 {
		t.Fatalf("first ack = %+v", ack)
	}
	ack, err = ing.SubmitRows("live", "t", [][]engine.Value{numRow(991, 1), numRow(992, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Flushed || ack.Buffered != 0 || ack.Accepted != 2 || ack.Epoch != 3 || ack.DataEpoch != 3 || ack.RowCount != 53 {
		t.Fatalf("second ack = %+v", ack)
	}
	if h.Epoch() != 3 {
		t.Fatalf("interface epoch = %d, want 3", h.Epoch())
	}

	after, err := svc.Query("live", api.QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Cache != "miss" {
		t.Fatal("post-append query answered from a pre-append cache")
	}
	if after.Epoch != 3 {
		t.Fatalf("post-append query epoch = %d, want 3", after.Epoch)
	}
	// The initial query is "SELECT a FROM t WHERE x = 1" shaped; the
	// three appended rows all have x=1, so the result must have grown.
	if after.RowCount != before.RowCount+3 {
		t.Fatalf("row count %d -> %d, want +3", before.RowCount, after.RowCount)
	}
}

func TestSubmitRowsValidatesBeforeBuffering(t *testing.T) {
	_, ing, h := newIngester(t, Options{})
	if _, err := ing.SubmitRows("live", "missing", [][]engine.Value{numRow(1)}); err == nil {
		t.Fatal("rows for unknown table accepted")
	}
	if _, err := ing.SubmitRows("live", "t", [][]engine.Value{numRow(1, 2, 3)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if h.Epoch() != 1 {
		t.Fatalf("rejected rows bumped epoch to %d", h.Epoch())
	}
	if _, err := ing.SubmitRows("nope", "t", [][]engine.Value{numRow(1, 2)}); err == nil {
		t.Fatal("rows for unknown interface accepted")
	}
}

// TestConcurrentQueriesDuringRowAppends is the serving-layer face of
// the storage contract: queries race row appends (and the hot swaps
// they trigger) without torn results — run under -race.
func TestConcurrentQueriesDuringRowAppends(t *testing.T) {
	_, ing, _ := newIngester(t, Options{})
	svc := api.NewService(ing.reg)
	svc.SetIngestor(ing)

	const appends = 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := svc.Query("live", api.QueryRequest{})
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if len(resp.Cols) == 0 {
					t.Error("query lost its columns mid-swap")
					return
				}
			}
		}()
	}
	for i := 0; i < appends; i++ {
		if _, err := ing.SubmitRows("live", "t", [][]engine.Value{numRow(float64(2000+i), 1)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	sto, err := ing.Store("live")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := sto.RowCount("t"); n != 50+appends {
		t.Fatalf("final rows = %d, want %d", n, 50+appends)
	}
}

// TestServedNaNStringMatchesExec: a served answer equals engine.Exec
// on the same snapshot when the column an `=` filters holds the
// string "NaN", which equals every number. Seven rows hold k = "5";
// the appended "NaN" row makes eight.
func TestServedNaNStringMatchesExec(t *testing.T) {
	tbl := engine.NewTable("t", "k", "x")
	for i := 0; i < 21; i++ {
		tbl.MustAddRow(engine.Str([]string{"5", "6", "7"}[i%3]), engine.Num(float64(i)))
	}
	db := engine.NewDB()
	db.AddTable(tbl)
	log := &qlog.Log{}
	for _, k := range []int{5, 6, 7} {
		log.Append(fmt.Sprintf("SELECT x FROM t WHERE k = %d", k), "")
	}
	reg := api.NewRegistry()
	ing := New(reg, Options{})
	h, err := ing.Host("nan", "nan", log, db, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	svc := api.NewService(reg)
	svc.SetIngestor(ing)
	if _, err := svc.AppendRows("nan", api.RowsRequest{Table: "t", Rows: [][]any{{"NaN", 99.0}}}, false); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Query("nan", api.QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Exec(ing.feeds["nan"].store.Snapshot(), h.Iface().Initial)
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() != 8 || resp.RowCount != want.NumRows() {
		t.Fatalf("%s: served %d rows, engine.Exec %d, want 8", ast.SQL(h.Iface().Initial), resp.RowCount, want.NumRows())
	}
}
