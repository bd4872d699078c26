package store

import (
	"os"
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
		t.RowIDs = append(t.RowIDs, uint64(i)+1)
	}
	snap.Tables = []TableData{t}
	for i := 0; i < int(seq); i++ {
		snap.Log = append(snap.Log, qlog.Entry{SQL: "SELECT 1", Client: "c"})
	}
	return snap
}

// TestManifestFormats: this build writes and reads format 2 only. A
// format 1 manifest (the delta-chain layout) or any other version is
// refused loudly, naming the converter.
func TestManifestFormats(t *testing.T) {
	dir := t.TempDir()
	m := NewManifest(testSnap("iface", 4, 3), &ReplState{Role: "owner", Term: 7})
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
	loaded, err := LoadManifest(dir, "iface")
	if err != nil || loaded.Seq != 4 || loaded.Replication == nil || loaded.Replication.Term != 7 {
		t.Fatalf("LoadManifest = %+v, %v", loaded, err)
	}
	for _, raw := range []string{
		`{"formatVersion": 1, "id": "iface", "base": "iface.snap", "deltas": ["iface.00000000000000000002.delta"], "seq": 2}`,
		`{"formatVersion": 3, "id": "iface"}`,
	} {
		if _, err := decodeManifest("iface", []byte(raw)); err == nil || !strings.Contains(err.Error(), "pi upgrade") {
			t.Fatalf("decodeManifest(%s) error = %v, want a refusal naming pi upgrade", raw, err)
		}
	}

	// Missing manifest is (nil, nil), not an error.
	if m2, err := LoadManifest(dir, "absent"); err != nil || m2 != nil {
		t.Fatalf("LoadManifest(absent) = %v, %v; want nil, nil", m2, err)
	}

}

// TestLoadBasePastManifest: a checkpoint writes its base, then the
// manifest that names it. A crash between the two leaves a base past
// the manifest's position, which restores from the base; a base short
// of the manifest means a file was lost and is refused.
func TestLoadBasePastManifest(t *testing.T) {
	dir := t.TempDir()
	m := NewManifest(testSnap("iface", 9, 40), nil)
	if _, err := Save(dir, testSnap("iface", 12, 50)); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadBase(dir, m); err != nil || got.Seq != 12 || len(got.Tables[0].Rows) != 50 {
		t.Fatalf("LoadBase past the manifest = %+v, %v", got, err)
	}

	if _, err := Save(dir, testSnap("iface", 5, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBase(dir, m); err == nil {
		t.Fatal("LoadBase accepted a base short of its manifest")
	}
}
