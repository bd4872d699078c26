package replica

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/qlog"
	"repro/internal/store"
)

// TestEventRoundTrip: every kind of publication survives the apply
// endpoint's gob framing unchanged — the event carries the one
// publication type the ingestion layer publishes and the WAL records.
func TestEventRoundTrip(t *testing.T) {
	pubs := map[string]ingest.Publication{
		"log batch": {Seq: 1, Epoch: 2, Entries: []qlog.Entry{{SQL: "SELECT a FROM t WHERE x = 1", Client: "c1"}, {SQL: "SELECT 1"}}},
		"rows across two tables": {Seq: 2, Epoch: 3, Rows: []ingest.TableRows{
			{Table: "t", Rows: [][]engine.Value{{engine.Num(1), engine.Str("x")}, {engine.Null(), engine.Boolean(true)}}},
			{Table: "u", Rows: [][]engine.Value{{engine.Num(7)}}},
		}},
		"update": {Seq: 3, Epoch: 4, Muts: []store.TableMutation{{Table: "t",
			Updates: []store.RowUpdate{{RowID: 9, Vals: []engine.Value{engine.Null(), engine.Num(2)}}}}}},
		"delete":    {Seq: 4, Epoch: 5, Muts: []store.TableMutation{{Table: "t", Deletes: []uint64{3, 5}}}},
		"bare bump": {Seq: 5, Epoch: 6},
	}
	for name, pub := range pubs {
		t.Run(name, func(t *testing.T) {
			ev := Event{ID: "olap", Term: 7, Owner: "http://10.0.0.5:8081", Pub: pub}
			raw, err := EncodeEvent(ev)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeEvent(raw)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ev) {
				t.Fatalf("round trip changed the event:\n got %+v\nwant %+v", got, ev)
			}
		})
	}
	if _, err := DecodeEvent([]byte("not gob")); err == nil {
		t.Fatal("garbage decoded as an event")
	}
}
