package ingest

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/store"
	"repro/internal/upgrade"
)

// copyDir copies a checked-in data dir into a temp dir, so restores
// and upgrades never touch testdata.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// dirBytes maps every file under dir (relative path) to its bytes.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = raw
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// restoreDir restores dir into a fresh ingester with a default
// persister (which opens the dir's log itself).
func restoreDir(t *testing.T, dir string) (*Ingester, error) {
	t.Helper()
	ing := New(api.NewRegistry(), Options{})
	p := NewPersister(dir, ing, PersistOptions{})
	t.Cleanup(func() { p.Close() })
	_, err := p.Restore()
	return ing, err
}

// upgradeDir runs the upgrade tool on dir and wants exactly want back.
func upgradeDir(t *testing.T, dir string, want ...string) {
	t.Helper()
	ids, err := upgrade.Dir(dir)
	if err != nil || !slices.Equal(ids, want) {
		t.Fatalf("upgrade %s = %v, %v; want %v", dir, ids, err, want)
	}
}

// TestLegacyDataDirRestores: data dirs written by the build that saved
// differentially refuse to boot, naming the converter, and once
// converted with `pi upgrade` restore to exactly the capture that build
// restored. testdata/legacy holds two, generated at that build with
// testdata/legacy/generate_test.go: a base, a tail delta (row append +
// log batch), a Replace delta (UPDATE) and a format 1 manifest, once
// with a WAL tail of three more acks and once without a WAL.
// <variant>.want is that build's store.Encode of the restored capture.
//
// A second upgrade changes no byte, and an upgrade that crashed after
// writing the folded base but before its manifest still upgrades.
func TestLegacyDataDirRestores(t *testing.T) {
	for _, variant := range []string{"wal", "nowal"} {
		t.Run(variant, func(t *testing.T) {
			src := filepath.Join("testdata", "legacy", variant)
			raw, err := os.ReadFile(filepath.Join("testdata", "legacy", variant+".want"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := store.Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			// Re-encode in this process: gob numbers types in the order a
			// process first meets them, so only frames encoded by one
			// process compare byte for byte.
			wantFrame, err := store.Encode(want)
			if err != nil {
				t.Fatal(err)
			}
			check := func(stage, dir string) {
				t.Helper()
				ing, err := restoreDir(t, dir)
				if err != nil {
					t.Fatalf("%s: restore: %v", stage, err)
				}
				got := stateOf(t, ing)
				if got.epoch != want.Epoch || got.seq != want.Seq || !bytes.Equal(got.frame, wantFrame) {
					t.Fatalf("%s: restored (epoch %d, seq %d, %d bytes), legacy build restored (%d, %d, %d bytes)",
						stage, got.epoch, got.seq, len(got.frame), want.Epoch, want.Seq, len(wantFrame))
				}
				st, _ := ing.Store("live")
				for _, td := range want.Tables {
					if n, _ := st.RowCount(td.Name); n != len(td.Rows) {
						t.Fatalf("%s: table %s has %d rows, want %d", stage, td.Name, n, len(td.Rows))
					}
				}
			}

			dir := copyDir(t, src)
			if _, err := restoreDir(t, dir); err == nil || !strings.Contains(err.Error(), "pi upgrade") {
				t.Fatalf("restore of the un-upgraded dir = %v, want a refusal naming pi upgrade", err)
			}
			upgradeDir(t, dir, "live")
			var names []string
			for name := range dirBytes(t, dir) {
				names = append(names, name)
			}
			sort.Strings(names)
			wantNames := []string{"live.manifest.json", "live.snap"}
			if variant == "wal" {
				wantNames = append(wantNames, filepath.Join("live.wal", "00000000000000000004.seg"))
			}
			if !slices.Equal(names, wantNames) {
				t.Fatalf("dir after the upgrade holds %v, want %v", names, wantNames)
			}
			upgraded := dirBytes(t, dir)
			upgradeDir(t, dir)
			if again := dirBytes(t, dir); !reflect.DeepEqual(again, upgraded) {
				t.Fatal("a second upgrade changed the data dir")
			}
			check("upgraded", dir)

			// Crash after writing the folded base, before its manifest: the
			// format 1 manifest still lists deltas the base covers.
			crashed := copyDir(t, src)
			base, err := os.ReadFile(store.SnapFile(dir, "live"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(store.SnapFile(crashed, "live"), base, 0o644); err != nil {
				t.Fatal(err)
			}
			upgradeDir(t, crashed, "live")
			check("upgraded over a folded base", crashed)
		})
	}
}

// TestRowIDLessBaseNeedsUpgrade: a base whose table has rows but no
// rowids (written before rowids existed) fails restore, naming the
// converter; the upgrade numbers its rows 1..n and it restores.
func TestRowIDLessBaseNeedsUpgrade(t *testing.T) {
	dir := t.TempDir()
	_, ing, _ := newIngester(t, Options{})
	snap, err := ing.Capture("live")
	if err != nil {
		t.Fatal(err)
	}
	td := &snap.Tables[0]
	td.Rows, td.RowIDs, td.NextRowID = td.Rows[:3], nil, 0
	if _, err := store.Save(dir, snap); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveManifest(dir, store.NewManifest(snap, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := restoreDir(t, dir); err == nil || !strings.Contains(err.Error(), "pi upgrade") {
		t.Fatalf("restore of a rowid-less base = %v, want a refusal naming pi upgrade", err)
	}
	upgradeDir(t, dir, "live")
	restored, err := restoreDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := restored.Store("live")
	if ids, _ := st.Snapshot().RowIDs("t"); !slices.Equal(ids, []uint64{1, 2, 3}) {
		t.Fatalf("upgraded rowids = %v, want [1 2 3]", ids)
	}
}
