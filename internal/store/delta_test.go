package store

import (
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

func TestCutDeltaApplyRoundTrip(t *testing.T) {
	base := testSnap("iface", 3, 10)
	logLen, tableRows, tableMuts := CoveredCounts(base)

	// Grow: 5 more rows, 2 more log entries, seq 3 -> 5.
	grown := testSnap("iface", 5, 15)

	d, err := CutDelta(grown, base.Seq, logLen, tableRows, tableMuts)
	if err != nil {
		t.Fatalf("CutDelta: %v", err)
	}
	if d.FromSeq != 3 || d.ToSeq != 5 {
		t.Fatalf("delta range = [%d,%d], want [3,5]", d.FromSeq, d.ToSeq)
	}
	if len(d.Tables) != 1 || len(d.Tables[0].Rows) != 5 || d.Tables[0].FromRow != 10 {
		t.Fatalf("table delta = %+v, want 5 rows from row 10", d.Tables)
	}
	if len(d.Log) != 2 {
		t.Fatalf("log delta has %d entries, want 2", len(d.Log))
	}

	if err := d.Apply(base); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if base.Seq != 5 || base.Epoch != grown.Epoch || base.DataEpoch != grown.DataEpoch {
		t.Fatalf("merged position = seq %d epoch %d, want seq 5 epoch %d", base.Seq, base.Epoch, grown.Epoch)
	}
	if got := len(base.Tables[0].Rows); got != 15 {
		t.Fatalf("merged rows = %d, want 15", got)
	}
	if got := len(base.Log); got != 5 {
		t.Fatalf("merged log = %d entries, want 5", got)
	}
}

func TestCutDeltaSkipsUnchangedTables(t *testing.T) {
	snap := testSnap("iface", 4, 8)
	snap.Tables = append(snap.Tables, TableData{Name: "carriers", Cols: []string{"code"},
		Rows: [][]engine.Value{{engine.Str("AA")}}})
	logLen, tableRows, tableMuts := CoveredCounts(snap)

	grown := testSnap("iface", 6, 12)
	grown.Tables = append(grown.Tables, snap.Tables[1]) // carriers unchanged

	d, err := CutDelta(grown, snap.Seq, logLen, tableRows, tableMuts)
	if err != nil {
		t.Fatalf("CutDelta: %v", err)
	}
	if len(d.Tables) != 1 || d.Tables[0].Name != "ontime" {
		t.Fatalf("delta carries tables %+v, want only grown ontime", d.Tables)
	}
}

func TestApplyRefusesGaps(t *testing.T) {
	base := testSnap("iface", 3, 10)
	grown := testSnap("iface", 5, 15)
	logLen, tableRows, tableMuts := CoveredCounts(base)
	d, err := CutDelta(grown, base.Seq, logLen, tableRows, tableMuts)
	if err != nil {
		t.Fatalf("CutDelta: %v", err)
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

	// Wrong interface entirely.
	other := testSnap("other", 3, 10)
	if err := d.Apply(other); err == nil {
		t.Fatalf("cross-interface apply succeeded, want error")
	}
}

func TestDeltaEncodeDecodeDetectsCorruption(t *testing.T) {
	grown := testSnap("iface", 5, 15)
	d, err := CutDelta(grown, 3, 3, map[string]int{"ontime": 10}, map[string]uint64{"ontime": 0})
	if err != nil {
		t.Fatalf("CutDelta: %v", err)
	}
	frame, err := EncodeDelta(d)
	if err != nil {
		t.Fatalf("EncodeDelta: %v", err)
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
}

func TestManifestChainSaveRestore(t *testing.T) {
	dir := t.TempDir()

	base := testSnap("iface", 3, 10)
	if _, err := Save(dir, base); err != nil {
		t.Fatalf("Save base: %v", err)
	}
	logLen, tableRows, tableMuts := CoveredCounts(base)
	m := &Manifest{
		ID:        "iface",
		Base:      "iface.snap",
		Seq:       base.Seq,
		Epoch:     base.Epoch,
		DataEpoch: base.DataEpoch,
		LogLen:    logLen,
		TableRows: tableRows,
		TableMuts: tableMuts,
		Replication: &ReplState{Role: "owner", Term: 7,
			Followers: map[string]uint64{"http://127.0.0.1:9001": 3}},
	}
	if err := SaveManifest(dir, m); err != nil {
		t.Fatalf("SaveManifest: %v", err)
	}

	// Two differential saves.
	for _, to := range []uint64{5, 9} {
		grown := testSnap("iface", to, 10+int(to-3)*5)
		d, err := CutDelta(grown, m.Seq, m.LogLen, m.TableRows, m.TableMuts)
		if err != nil {
			t.Fatalf("CutDelta to %d: %v", to, err)
		}
		_, name, err := SaveDelta(dir, d)
		if err != nil {
			t.Fatalf("SaveDelta to %d: %v", to, err)
		}
		m.Deltas = append(m.Deltas, name)
		m.Seq, m.Epoch, m.DataEpoch = grown.Seq, grown.Epoch, grown.DataEpoch
		m.LogLen, m.TableRows, m.TableMuts = CoveredCounts(grown)
		if err := SaveManifest(dir, m); err != nil {
			t.Fatalf("SaveManifest after %d: %v", to, err)
		}
	}

	loaded, err := LoadManifest(dir, "iface")
	if err != nil {
		t.Fatalf("LoadManifest: %v", err)
	}
	if loaded == nil || len(loaded.Deltas) != 2 || loaded.Seq != 9 {
		t.Fatalf("loaded manifest = %+v, want 2 deltas at seq 9", loaded)
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
