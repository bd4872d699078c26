//go:build ignore

// This file generated the data dirs beside it. It needs a build whose
// persister still cut .delta files — commit 5cbb3e1 or earlier, where
// NewPersister without a WAL wrote no log — so it is not compiled here.
// To regenerate, copy it into internal/ingest of such a checkout, drop
// the build line, and run from that checkout's root:
//
//	PI_LEGACY_OUT=/abs/path/to/internal/ingest/testdata/legacy \
//	    go test -run TestGenerateLegacyFixture ./internal/ingest

package ingest

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/qlog"
	"repro/internal/store"
	"repro/internal/wal"
)

// TestGenerateLegacyFixture writes, per variant, <variant>/ (the data
// dir) and <variant>.want (store.Encode of the capture a restore of
// that dir reproduces, checked against the first life):
//   - wal: base at seq 0, a tail delta (row append + log batch), a
//     Replace delta (UPDATE), a v1 manifest, and a WAL tail of three
//     acked publications (row append, DELETE, log batch) no save covers.
//   - nowal: the same base and two deltas, written without a WAL.
func TestGenerateLegacyFixture(t *testing.T) {
	out := os.Getenv("PI_LEGACY_OUT")
	if out == "" {
		t.Skip("set PI_LEGACY_OUT to regenerate the legacy fixture")
	}
	for _, variant := range []string{"wal", "nowal"} {
		dir := filepath.Join(out, variant)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		_, ing, _ := newIngester(t, Options{BatchSize: 2})
		var opts PersistOptions
		var m *wal.Manager
		if variant == "wal" {
			m = wal.NewManager(dir, wal.Options{})
			opts.WAL = m
		}
		p := NewPersister(dir, ing, opts)
		save := func() {
			t.Helper()
			if _, err := p.SaveAll(); err != nil {
				t.Fatal(err)
			}
		}
		must := func(_ any, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		save() // base
		must(ing.SubmitRows("live", "t", [][]engine.Value{numRow(701, 51), numRow(702, 52)}, true))
		must(ing.Submit("live", []qlog.Entry{entry("SELECT a FROM t WHERE x = 41"), entry("SELECT a FROM t WHERE x = 42")}))
		save() // tail delta
		must(ing.SubmitMutation("live", "UPDATE t SET a = a + 1 WHERE x <= 3", 0))
		save() // Replace delta
		if m != nil {
			must(ing.SubmitRows("live", "t", [][]engine.Value{numRow(703, 53), numRow(704, 54)}, true))
			must(ing.SubmitMutation("live", "DELETE FROM t WHERE x = 10", 0))
			must(ing.Submit("live", []qlog.Entry{entry("SELECT a FROM t WHERE x = 43"), entry("SELECT a FROM t WHERE x = 44")}))
			m.Close()
		}
		want := stateOf(t, ing)

		// A restore of a copy must reproduce the first life exactly.
		cp := t.TempDir()
		if b, err := exec.Command("cp", "-a", dir+"/.", cp).CombinedOutput(); err != nil {
			t.Fatalf("copy: %v %s", err, b)
		}
		ing2 := New(api.NewRegistry(), Options{})
		var opts2 PersistOptions
		if m != nil {
			m2 := wal.NewManager(cp, wal.Options{})
			defer m2.Close()
			opts2.WAL = m2
		}
		if _, err := NewPersister(cp, ing2, opts2).Restore(); err != nil {
			t.Fatal(err)
		}
		got := stateOf(t, ing2)
		if !bytes.Equal(got.frame, want.frame) || got.epoch != want.epoch || got.seq != want.seq {
			t.Fatalf("%s: restore diverges from the first life", variant)
		}
		if err := os.WriteFile(filepath.Join(out, variant+".want"), want.frame, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, _ := store.Decode(want.frame)
		t.Logf("%s: seq %d epoch %d log %d rows %d", variant, snap.Seq, snap.Epoch, len(snap.Log), len(snap.Tables[0].Rows))
	}
}
