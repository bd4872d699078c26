package upgrade

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/qlog"
	"repro/internal/store"
)

// testSnap is a snapshot of one table without rowids, the shape the
// differential saver's tests used.
func testSnap(id string, seq uint64, rows int) *store.Snapshot {
	snap := &store.Snapshot{
		ID:        id,
		Title:     "t",
		Epoch:     seq + 1,
		DataEpoch: seq,
		Seq:       seq,
	}
	t := store.TableData{Name: "ontime", Cols: []string{"carrier", "delay"}}
	for i := 0; i < rows; i++ {
		t.Rows = append(t.Rows, []engine.Value{engine.Str("AA"), engine.Num(float64(i))})
	}
	snap.Tables = []store.TableData{t}
	for i := 0; i < int(seq); i++ {
		snap.Log = append(snap.Log, qlog.Entry{SQL: "SELECT 1", Client: "c"})
	}
	return snap
}

// encodeDelta frames a delta the way the differential saver did: the
// delta magic, a CRC-32 of the gob payload, its length, the payload.
func encodeDelta(d *Delta) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(d); err != nil {
		return nil, err
	}
	frame := append([]byte(nil), deltaMagic...)
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload.Bytes()))
	frame = binary.BigEndian.AppendUint64(frame, uint64(payload.Len()))
	return append(frame, payload.Bytes()...), nil
}

// tailDelta is the append-tail delta that takes testSnap(id, from,
// fromRows) to testSnap(id, to, toRows), as the differential saver
// wrote it.
func tailDelta(id string, from uint64, fromRows int, to uint64, toRows int) *Delta {
	grown := testSnap(id, to, toRows)
	return &Delta{
		FormatVersion: DeltaFormatVersion,
		ID:            id,
		FromSeq:       from,
		ToSeq:         to,
		Epoch:         grown.Epoch,
		DataEpoch:     grown.DataEpoch,
		Log:           grown.Log[from:],
		Tables: []TableDelta{{Name: "ontime", Cols: grown.Tables[0].Cols,
			FromRow: fromRows, Rows: grown.Tables[0].Rows[fromRows:]}},
	}
}

// writeDelta stores a delta file the way the differential saver named
// and framed it.
func writeDelta(t *testing.T, dir string, d *Delta) string {
	t.Helper()
	frame, err := encodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("%s.%020d.delta", d.ID, d.ToSeq)
	if err := store.AtomicWrite(dir, name, frame); err != nil {
		t.Fatal(err)
	}
	return name
}

// legacyChain writes a base at seq 3 plus deltas to seq 5 and 9 under a
// format 1 manifest, the shape the differential saver left behind.
func legacyChain(t *testing.T, dir string) *manifest {
	t.Helper()
	if _, err := store.Save(dir, testSnap("iface", 3, 10)); err != nil {
		t.Fatalf("Save base: %v", err)
	}
	m := &manifest{Manifest: store.Manifest{
		FormatVersion: 1,
		ID:            "iface",
		Base:          "iface.snap",
		Replication: &store.ReplState{Role: "owner", Term: 7,
			Followers: map[string]uint64{"http://127.0.0.1:9001": 3}},
	}}
	from, fromRows := uint64(3), 10
	for _, to := range []uint64{5, 9} {
		toRows := 10 + int(to-3)*5
		d := tailDelta("iface", from, fromRows, to, toRows)
		m.Deltas = append(m.Deltas, writeDelta(t, dir, d))
		m.Seq, m.Epoch, m.DataEpoch = d.ToSeq, d.Epoch, d.DataEpoch
		from, fromRows = to, toRows
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AtomicWrite(dir, "iface.manifest.json", raw); err != nil {
		t.Fatal(err)
	}
	return m
}

// dirFiles maps every file under dir to its bytes.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		out[path] = raw
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestApplyRefusesGaps(t *testing.T) {
	d := &Delta{
		FormatVersion: DeltaFormatVersion,
		ID:            "iface",
		FromSeq:       3,
		ToSeq:         5,
		Epoch:         6,
		DataEpoch:     5,
		Tables: []TableDelta{{Name: "ontime", Cols: []string{"carrier", "delay"}, FromRow: 10,
			Rows: [][]engine.Value{{engine.Str("AA"), engine.Num(10)}}}},
	}

	// Seq gap: applying onto a snapshot that does not end at FromSeq.
	wrong := testSnap("iface", 2, 10)
	if err := d.Apply(wrong); err == nil || !strings.Contains(err.Error(), "continues from seq") {
		t.Fatalf("seq-gap apply error = %v, want continues-from-seq error", err)
	}

	// Row gap: snapshot's table is shorter than FromRow.
	short := testSnap("iface", 3, 7)
	if err := d.Apply(short); err == nil || !strings.Contains(err.Error(), "continues table") {
		t.Fatalf("row-gap apply error = %v, want continues-table error", err)
	}

	// A tail for a table the snapshot lacks must start at row 0.
	d.Tables[0].Name = "absent"
	if err := d.Apply(testSnap("iface", 3, 10)); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("unknown-table apply error = %v, want unknown-table error", err)
	}
	d.Tables[0].Name = "ontime"

	// Wrong interface entirely.
	other := testSnap("other", 3, 10)
	if err := d.Apply(other); err == nil {
		t.Fatalf("cross-interface apply succeeded, want error")
	}

	// The gapless case merges.
	ok := testSnap("iface", 3, 10)
	if err := d.Apply(ok); err != nil || ok.Seq != 5 || ok.Epoch != 6 || len(ok.Tables[0].Rows) != 11 {
		t.Fatalf("gapless apply = seq %d epoch %d rows %d, %v", ok.Seq, ok.Epoch, len(ok.Tables[0].Rows), err)
	}
}

func TestDeltaEncodeDecodeDetectsCorruption(t *testing.T) {
	d := tailDelta("iface", 3, 10, 5, 15)
	frame, err := encodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDelta(frame)
	if err != nil {
		t.Fatalf("DecodeDelta: %v", err)
	}
	if back.ToSeq != d.ToSeq || len(back.Tables) != len(d.Tables) {
		t.Fatalf("round trip changed delta: %+v vs %+v", back, d)
	}

	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 0xff
	if _, err := DecodeDelta(flipped); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted delta decode error = %v, want checksum error", err)
	}
	if _, err := DecodeDelta(frame[:10]); err == nil {
		t.Fatalf("truncated delta decoded, want error")
	}
	// A snapshot frame is not a delta, and vice versa.
	snapFrame, err := store.Encode(testSnap("iface", 3, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDelta(snapFrame); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("snapshot decoded as a delta: %v", err)
	}
	if _, err := store.Decode(frame); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("delta decoded as a snapshot: %v", err)
	}
}

// TestManifestChainSaveRestore: a format 1 chain folds into the state
// base+deltas reconstruct, carrying the manifest's replication state;
// upgrading writes that state as a base under a format 2 manifest that
// keeps the replication state, then removes the deltas. A missing delta
// is a lost save, not a shorter history.
func TestManifestChainSaveRestore(t *testing.T) {
	dir := t.TempDir()
	legacyChain(t, dir)

	raw, err := os.ReadFile(store.ManifestFile(dir, "iface"))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := decodeManifest("iface", raw)
	if err != nil {
		t.Fatalf("decodeManifest: %v", err)
	}
	if loaded.FormatVersion != 1 || len(loaded.Deltas) != 2 || loaded.Seq != 9 {
		t.Fatalf("loaded manifest = %+v, want format 1 with 2 deltas at seq 9", loaded)
	}
	if loaded.Replication == nil || loaded.Replication.Term != 7 {
		t.Fatalf("replication state not preserved: %+v", loaded.Replication)
	}

	merged, err := restoreChain(dir, loaded)
	if err != nil {
		t.Fatalf("restoreChain: %v", err)
	}
	want := testSnap("iface", 9, 40)
	if merged.Seq != want.Seq || len(merged.Tables[0].Rows) != len(want.Tables[0].Rows) ||
		len(merged.Log) != len(want.Log) {
		t.Fatalf("merged snapshot seq %d rows %d log %d, want seq %d rows %d log %d",
			merged.Seq, len(merged.Tables[0].Rows), len(merged.Log),
			want.Seq, len(want.Tables[0].Rows), len(want.Log))
	}

	// The serving build refuses the chain until it is upgraded.
	if _, err := store.LoadManifest(dir, "iface"); err == nil || !strings.Contains(err.Error(), "pi upgrade") {
		t.Fatalf("serving LoadManifest of a format 1 manifest = %v, want a refusal naming pi upgrade", err)
	}
	ids, err := Dir(dir)
	if err != nil || !slices.Equal(ids, []string{"iface"}) {
		t.Fatalf("Dir = %v, %v", ids, err)
	}
	m, err := store.LoadManifest(dir, "iface")
	if err != nil || m.Seq != 9 || m.Epoch != want.Epoch || !reflect.DeepEqual(m.Replication, loaded.Replication) {
		t.Fatalf("upgraded manifest = %+v, %v; want seq 9 epoch %d and replication %+v",
			m, err, want.Epoch, loaded.Replication)
	}
	base, err := store.LoadBase(dir, m)
	if err != nil || len(base.Tables[0].Rows) != 40 || len(base.Log) != 9 {
		t.Fatalf("upgraded base = %+v, %v", base, err)
	}
	if _, err := base.Restore(); err != nil {
		t.Fatalf("upgraded base does not restore: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.delta")); len(left) != 0 {
		t.Fatalf("deltas survive the upgrade: %v", left)
	}

	// A missing delta is a lost save, not a shorter history.
	dir = t.TempDir()
	legacyChain(t, dir)
	if err := os.Remove(filepath.Join(dir, loaded.Deltas[1])); err != nil {
		t.Fatal(err)
	}
	if _, err := restoreChain(dir, loaded); err == nil {
		t.Fatal("restore over a missing delta succeeded")
	}
	before := dirFiles(t, dir)
	if _, err := Dir(dir); err == nil {
		t.Fatal("upgrade over a missing delta succeeded")
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatal("a failed upgrade changed the data dir")
	}
}

// TestUpgradeAfterFoldCrash: an upgrade writes the folded base, then
// the manifest that drops the chain. A crash between the two leaves
// the new base under the old manifest; the rerun must skip the deltas
// the base already covers instead of refusing them as a seq gap.
func TestUpgradeAfterFoldCrash(t *testing.T) {
	dir := t.TempDir()
	m := legacyChain(t, dir)
	if _, err := store.Save(dir, testSnap("iface", 9, 40)); err != nil {
		t.Fatal(err)
	}
	got, err := restoreChain(dir, m)
	if err != nil {
		t.Fatalf("restoreChain over a folded base: %v", err)
	}
	if got.Seq != 9 || len(got.Tables[0].Rows) != 40 || len(got.Log) != 9 {
		t.Fatalf("restored seq %d rows %d log %d, want seq 9 rows 40 log 9",
			got.Seq, len(got.Tables[0].Rows), len(got.Log))
	}
	if ids, err := Dir(dir); err != nil || len(ids) != 1 {
		t.Fatalf("Dir over a folded base = %v, %v", ids, err)
	}
	if m, err := store.LoadManifest(dir, "iface"); err != nil || m.Seq != 9 {
		t.Fatalf("manifest after the rerun = %+v, %v", m, err)
	}
}

// TestReplaceDeltaApply: a Replace delta — the full visible table the
// differential saver wrote for a table that absorbed UPDATE/DELETE
// mutations — round-trips through its frame and Apply onto the
// previous base, and the merged snapshot restores to a store whose row
// identities keep accepting mutations.
func TestReplaceDeltaApply(t *testing.T) {
	tbl := engine.NewTable("m", "a", "x")
	for i := 1; i <= 6; i++ {
		tbl.MustAddRow(engine.Num(float64(i*10)), engine.Num(float64(i)))
	}
	db := engine.NewDB()
	db.AddTable(tbl)
	s := store.FromDB(db)
	capture := func(seq uint64) *store.Snapshot {
		return &store.Snapshot{ID: "iface", Epoch: seq, DataEpoch: s.Epoch(), Seq: seq, Tables: s.CaptureTables()}
	}
	base := capture(1)
	ids := base.Tables[0].RowIDs

	if _, err := s.MutateRows("m",
		[]store.RowUpdate{{RowID: ids[0], Vals: []engine.Value{engine.Num(-5), engine.Num(1)}}},
		[]uint64{ids[5]}); err != nil {
		t.Fatal(err)
	}
	live := capture(2)
	td := live.Tables[0]
	frame, err := encodeDelta(&Delta{
		FormatVersion: DeltaFormatVersion, ID: "iface", FromSeq: 1, ToSeq: 2,
		Epoch: live.Epoch, DataEpoch: live.DataEpoch,
		Tables: []TableDelta{{Name: td.Name, Cols: td.Cols, Rows: td.Rows, RowIDs: td.RowIDs,
			NextRowID: td.NextRowID, Replace: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDelta(frame)
	if err != nil {
		t.Fatalf("DecodeDelta: %v", err)
	}
	if err := back.Apply(base); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !reflect.DeepEqual(base.Tables, live.Tables) {
		t.Fatalf("merged tables diverge from the live capture:\nmerged %+v\nlive   %+v", base.Tables, live.Tables)
	}

	restored, err := base.Restore()
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if _, err := restored.MutateRows("m", nil, []uint64{ids[0]}); err != nil {
		t.Fatalf("restored store rejects a mutation by preserved rowid: %v", err)
	}
}
