package ingest

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/api"
	"repro/internal/store"
)

// copyDir copies a checked-in data dir into a temp dir, so restores
// and saves never touch testdata.
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

// restoreDir restores dir into a fresh ingester with a default
// persister (which opens the dir's log itself).
func restoreDir(t *testing.T, dir string) (*Ingester, *Persister) {
	t.Helper()
	ing := New(api.NewRegistry(), Options{})
	p := NewPersister(dir, ing, PersistOptions{})
	t.Cleanup(func() { p.Close() })
	if _, err := p.Restore(); err != nil {
		t.Fatalf("restore %s: %v", dir, err)
	}
	return ing, p
}

// TestLegacyDataDirRestores: data dirs written by the build that saved
// differentially restore to exactly the capture that build restored.
// testdata/legacy holds two, generated at that build with
// testdata/legacy/generate_test.go: a base, a tail delta (row append +
// log batch), a Replace delta (UPDATE) and a format 1 manifest, once
// with a WAL tail of three more acks and once without a WAL.
// <variant>.want is that build's store.Encode of the restored capture.
//
// A crash between the first save's folded base and its manifest still
// boots, and the first save folds the chain: the dir then holds only
// the base, a format 2 manifest and the log, and restores the same
// state again.
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
			check := func(stage string, ing *Ingester) {
				t.Helper()
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
			ing, _ := restoreDir(t, dir)
			check("legacy restore", ing)

			// Crash after writing the folded base, before its manifest:
			// the format 1 manifest still lists deltas the base covers.
			snap, err := ing.Capture("live")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.Save(dir, snap); err != nil {
				t.Fatal(err)
			}
			ing, p := restoreDir(t, dir)
			check("restore over a folded base", ing)

			res, err := p.SaveAll()
			if err != nil {
				t.Fatal(err)
			}
			if res.Interfaces[0].Bytes == 0 {
				t.Fatal("the first save after a legacy restore wrote no base")
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			sort.Strings(names)
			if want := []string{"live.manifest.json", "live.snap", "live.wal"}; !slices.Equal(names, want) {
				t.Fatalf("dir after the first save holds %v, want %v", names, want)
			}
			m, err := store.LoadManifest(dir, "live")
			if err != nil || m.FormatVersion != store.ManifestFormatVersion || len(m.Deltas) != 0 || m.Seq != want.Seq {
				t.Fatalf("manifest after the first save = %+v, %v", m, err)
			}

			ing, _ = restoreDir(t, dir)
			check("restore after the fold", ing)
		})
	}
}
