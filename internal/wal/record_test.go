package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/qlog"
	"repro/internal/store"
)

// publicationKinds is one record of every kind a feed publishes: a
// re-mined log batch, rows across tables, an update, a delete and a
// bare epoch bump.
var publicationKinds = map[string]Record{
	"log batch": {Seq: 1, Epoch: 2, Entries: []qlog.Entry{{SQL: "SELECT a FROM t WHERE x = 1", Client: "c1"}, {SQL: "SELECT 1"}}},
	"rows across two tables": {Seq: 2, Epoch: 3, Rows: []TableRows{
		{Table: "t", Rows: [][]engine.Value{{engine.Num(1), engine.Str("x")}, {engine.Null(), engine.Boolean(true)}}},
		{Table: "u", Rows: [][]engine.Value{{engine.Num(7)}}},
	}},
	"update": {Seq: 3, Epoch: 4, Muts: []store.TableMutation{{Table: "t",
		Updates: []store.RowUpdate{{RowID: 9, Vals: []engine.Value{engine.Null(), engine.Num(2)}}}}}},
	"delete":    {Seq: 4, Epoch: 5, Muts: []store.TableMutation{{Table: "t", Deletes: []uint64{3, 5}}}},
	"bare bump": {Seq: 5, Epoch: 6},
}

// TestRecordRoundTrip: every kind of publication survives its frame —
// the one encoding the log writes and the replication stream ships —
// unchanged, and the frame is exactly as long as DecodeRecord says.
func TestRecordRoundTrip(t *testing.T) {
	for name, rec := range publicationKinds {
		t.Run(name, func(t *testing.T) {
			frame, err := EncodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			got, n, err := DecodeRecord(frame)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(frame)) {
				t.Fatalf("decoded %d of %d frame bytes", n, len(frame))
			}
			if !reflect.DeepEqual(got, rec) {
				t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", got, rec)
			}
		})
	}
	if _, _, err := DecodeRecord([]byte("not a frame")); err == nil {
		t.Fatal("garbage decoded as a record")
	}
}

// FuzzRecord: DecodeRecord reads bytes off the network (the apply
// endpoint's body), so it must never panic, and whatever it accepts
// must re-encode to a frame that decodes to the same record.
func FuzzRecord(f *testing.F) {
	for _, rec := range publicationKinds {
		if frame, err := EncodeRecord(rec); err == nil {
			f.Add(frame)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		// The bytes as they are, and with the header rewritten to match,
		// so mutations reach the gob payload instead of dying at the CRC.
		for _, frame := range [][]byte{raw, reframe(raw)} {
			rec, _, err := DecodeRecord(frame)
			if err != nil {
				continue
			}
			again, err := EncodeRecord(rec)
			if err != nil {
				t.Fatalf("re-encode %+v: %v", rec, err)
			}
			back, _, err := DecodeRecord(again)
			if err != nil {
				t.Fatalf("decode of a re-encoded frame: %v", err)
			}
			// Compared by frame, so NaN cells (which reflect.DeepEqual never
			// equates) compare bit for bit.
			if twice, _ := EncodeRecord(back); !bytes.Equal(again, twice) {
				t.Fatalf("record changed across a re-encode:\n%+v\n%+v", rec, back)
			}
		}
	})
}

// reframe wraps raw's payload (everything past a record header, or all
// of raw when it is shorter than one) in a valid header.
func reframe(raw []byte) []byte {
	payload := raw
	if len(raw) >= recHeaderLen {
		payload = raw[recHeaderLen:]
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// TestReplayRacesAppend: Replay on a live log — what an owner does to
// catch a follower up — sees a contiguous prefix of the appended
// records and never a half-written frame, even with frames large
// enough that a write is visible on disk before it completes.
func TestReplayRacesAppend(t *testing.T) {
	m := NewManager(t.TempDir(), Options{SegmentBytes: 256 << 10})
	t.Cleanup(func() { m.Close() })
	const n = 60
	if err := m.Append("olap", rowRecord(1, 2000)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(2); seq <= n; seq++ {
			if err := m.Append("olap", rowRecord(seq, 2000)); err != nil {
				t.Errorf("append %d: %v", seq, err)
				return
			}
		}
	}()
	for done := false; !done; {
		st, _ := m.Status("olap")
		done = st.LastSeq == n
		var next uint64 = 1
		if err := m.Replay("olap", 0, func(r Record) error {
			if r.Seq != next {
				t.Fatalf("replay yielded seq %d, want %d", r.Seq, next)
			}
			next++
			return nil
		}); err != nil {
			t.Fatalf("replay on a live log: %v", err)
		}
		if next-1 < st.LastSeq {
			t.Fatalf("replay stopped at seq %d; the log had reached %d before it began", next-1, st.LastSeq)
		}
	}
	wg.Wait()
}
