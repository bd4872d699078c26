package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/qlog"
)

func testSnap(id string, seq uint64, rows int) *Snapshot {
	snap := &Snapshot{
		ID:        id,
		Title:     "t",
		Epoch:     seq + 1,
		DataEpoch: seq,
		Seq:       seq,
	}
	t := TableData{Name: "ontime", Cols: []string{"carrier", "delay"}}
	for i := 0; i < rows; i++ {
		t.Rows = append(t.Rows, []engine.Value{engine.Str("AA"), engine.Num(float64(i))})
	}
	snap.Tables = []TableData{t}
	for i := 0; i < int(seq); i++ {
		snap.Log = append(snap.Log, qlog.Entry{SQL: "SELECT 1", Client: "c"})
	}
	return snap
}

// tailDelta is the legacy append-tail delta that takes testSnap(id,
// from, fromRows) to testSnap(id, to, toRows), as the differential
// saver wrote it.
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

// writeDelta stores a legacy delta file the way the differential saver
// named and framed it.
func writeDelta(t *testing.T, dir string, d *Delta) string {
	t.Helper()
	frame, err := encodeFrame(deltaMagic, d)
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("%s.%020d.delta", d.ID, d.ToSeq)
	if err := AtomicWrite(dir, name, frame); err != nil {
		t.Fatal(err)
	}
	return name
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
	frame, err := encodeFrame(deltaMagic, d)
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
	snapFrame, err := Encode(testSnap("iface", 3, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDelta(snapFrame); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("snapshot decoded as a delta: %v", err)
	}
	if _, err := Decode(frame); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("delta decoded as a snapshot: %v", err)
	}
}

// legacyChain writes a base at seq 3 plus deltas to seq 5 and 9 under a
// format 1 manifest, the shape the differential saver left behind.
func legacyChain(t *testing.T, dir string) *Manifest {
	t.Helper()
	if _, err := Save(dir, testSnap("iface", 3, 10)); err != nil {
		t.Fatalf("Save base: %v", err)
	}
	m := &Manifest{
		FormatVersion: 1,
		ID:            "iface",
		Base:          "iface.snap",
		Replication: &ReplState{Role: "owner", Term: 7,
			Followers: map[string]uint64{"http://127.0.0.1:9001": 3}},
	}
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
	if err := AtomicWrite(dir, "iface"+manifestSuffix, raw); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestChainSaveRestore(t *testing.T) {
	dir := t.TempDir()
	legacyChain(t, dir)

	loaded, err := LoadManifest(dir, "iface")
	if err != nil {
		t.Fatalf("LoadManifest: %v", err)
	}
	if loaded == nil || loaded.FormatVersion != 1 || len(loaded.Deltas) != 2 || loaded.Seq != 9 {
		t.Fatalf("loaded manifest = %+v, want format 1 with 2 deltas at seq 9", loaded)
	}
	if loaded.Replication == nil || loaded.Replication.Term != 7 {
		t.Fatalf("replication state not preserved: %+v", loaded.Replication)
	}

	merged, err := RestoreChain(dir, loaded)
	if err != nil {
		t.Fatalf("RestoreChain: %v", err)
	}
	want := testSnap("iface", 9, 40)
	if merged.Seq != want.Seq || len(merged.Tables[0].Rows) != len(want.Tables[0].Rows) ||
		len(merged.Log) != len(want.Log) {
		t.Fatalf("merged snapshot seq %d rows %d log %d, want seq %d rows %d log %d",
			merged.Seq, len(merged.Tables[0].Rows), len(merged.Log),
			want.Seq, len(want.Tables[0].Rows), len(want.Log))
	}

	// A missing delta is a lost save, not a shorter history.
	if err := os.Remove(filepath.Join(dir, loaded.Deltas[1])); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreChain(dir, loaded); err == nil {
		t.Fatal("restore over a missing delta succeeded")
	}

	// Missing manifest is (nil, nil), not an error.
	if m2, err := LoadManifest(dir, "absent"); err != nil || m2 != nil {
		t.Fatalf("LoadManifest(absent) = %v, %v; want nil, nil", m2, err)
	}

	// RemoveManifest deletes the manifest and the deltas, not the base.
	if err := RemoveManifest(dir, "iface"); err != nil {
		t.Fatalf("RemoveManifest: %v", err)
	}
	if _, err := os.Stat(ManifestFile(dir, "iface")); !os.IsNotExist(err) {
		t.Fatalf("manifest survives removal: %v", err)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.delta"))
	if len(left) != 0 {
		t.Fatalf("deltas survive removal: %v", left)
	}
	if _, err := os.Stat(SnapFile(dir, "iface")); err != nil {
		t.Fatalf("base snapshot removed too: %v", err)
	}
	// Idempotent.
	if err := RemoveManifest(dir, "iface"); err != nil {
		t.Fatalf("second RemoveManifest: %v", err)
	}
}

// TestRestoreChainAfterFoldCrash: the first save after a legacy restore
// writes a folded base, then the manifest that drops the chain. A crash
// between the two leaves the new base under the old manifest; restore
// must skip the deltas the base already covers instead of refusing
// them as a seq gap.
func TestRestoreChainAfterFoldCrash(t *testing.T) {
	dir := t.TempDir()
	m := legacyChain(t, dir)
	folded := testSnap("iface", 9, 40)
	if _, err := Save(dir, folded); err != nil {
		t.Fatal(err)
	}
	got, err := RestoreChain(dir, m)
	if err != nil {
		t.Fatalf("RestoreChain over a folded base: %v", err)
	}
	if got.Seq != 9 || len(got.Tables[0].Rows) != 40 || len(got.Log) != 9 {
		t.Fatalf("restored seq %d rows %d log %d, want seq 9 rows 40 log 9",
			got.Seq, len(got.Tables[0].Rows), len(got.Log))
	}

	// A base written past the manifest's position (a later checkpoint
	// whose manifest never landed) restores from the base.
	if _, err := Save(dir, testSnap("iface", 12, 50)); err != nil {
		t.Fatal(err)
	}
	if got, err := RestoreChain(dir, m); err != nil || got.Seq != 12 {
		t.Fatalf("RestoreChain past the manifest = %+v, %v", got, err)
	}
}

// TestManifestFormats: this build writes format 2 without any chain
// and reads formats 1 and 2; anything else is refused loudly.
func TestManifestFormats(t *testing.T) {
	dir := t.TempDir()
	m := NewManifest(testSnap("iface", 4, 3), nil)
	if err := SaveManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ManifestFile(dir, "iface"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"formatVersion": 2`) || strings.Contains(string(raw), "deltas") {
		t.Fatalf("manifest written as:\n%s", raw)
	}
	if _, err := decodeManifest("iface", []byte(`{"formatVersion": 3, "id": "iface"}`)); err == nil {
		t.Fatal("format 3 manifest decoded")
	}
}
