package shard

import (
	"errors"
	"testing"

	"repro/internal/api"
	"repro/internal/qlog"
)

// TestWriteRacingDropAnswersMoved: a write that passed the node's gate
// just before a handoff's drop can find the feed detached while the
// registry still holds the interface (Service.DeleteInterface detaches
// first). The tombstone is already written by then, so the write must
// answer moved → the new owner, exactly like one that arrived after the
// drop — never an ingest failure.
func TestWriteRacingDropAnswersMoved(t *testing.T) {
	sh := startShard(t, "olap")
	n := sh.node
	const to = "http://new-owner:8080"
	n.setTombstone("olap", to)
	sh.ing.Detach("olap")
	if _, ok := n.Registry().Get("olap"); !ok {
		t.Fatal("fixture: the registry must still hold the interface")
	}
	// Each write as it runs past Node.writeErr: the service call, then the
	// node's orMoved.
	writes := map[string]func() error{
		"AppendRows": func() error {
			_, err := n.Service.AppendRows("olap", api.RowsRequest{Table: "ontime", Rows: [][]any{ontimeRow(1)}}, true)
			return n.orMoved("olap", err)
		},
		"IngestLog": func() error {
			_, err := n.Service.IngestLog("olap", []qlog.Entry{{SQL: "SELECT Day FROM ontime"}}, true)
			return n.orMoved("olap", err)
		},
		"MutateRows": func() error {
			_, err := n.Service.MutateRows("olap", api.MutateRequest{SQL: "DELETE FROM ontime WHERE Day = 1"})
			return n.orMoved("olap", err)
		},
	}
	for name, write := range writes {
		var ae *api.Error
		if err := write(); !errors.As(err, &ae) || ae.Code != api.CodeMoved || ae.Addr != to {
			t.Errorf("%s racing a drop = %v, want moved -> %s", name, err, to)
		}
	}
}
