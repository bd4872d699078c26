// Package upgrade converts a data dir written in an older on-disk
// format to the one the serving binary reads: per interface a base
// snapshot whose tables carry rowids and a format 2 manifest. The
// older layouts are a bare <id>.snap, a format 1 manifest chaining
// <id>.<seq>.delta files onto the base, and tables without rowids.
// Only `pi upgrade` imports this package, so the restore path carries
// no reader for them. The write-ahead log is never touched: its
// records past the base's seq replay at boot as they always do.
package upgrade

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/store"
)

// manifest is a manifest of either format: format 1 adds the delta
// files chained onto the base, in apply order.
type manifest struct {
	store.Manifest
	Deltas []string `json:"deltas,omitempty"`
}

// Dir upgrades every interface in dir and returns the ids it rewrote.
// An interface already in the current format is left byte for byte as
// it is, so running Dir twice is the same as running it once.
func Dir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("upgrade: %w", err)
	}
	var done []string
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".snap")
		if !ok || e.IsDir() {
			continue
		}
		wrote, err := one(dir, id)
		if err != nil {
			return done, err
		}
		if wrote {
			done = append(done, id)
		}
	}
	return done, nil
}

// one upgrades one interface: the base plus any delta chain folds into
// one snapshot, rowid-less tables get rowids, and the current base is
// written before the manifest that names it, and both before the
// deltas go, so a crash at any point leaves a dir a rerun upgrades.
func one(dir, id string) (bool, error) {
	m := &manifest{}
	var snap *store.Snapshot
	raw, err := os.ReadFile(store.ManifestFile(dir, id))
	switch {
	case os.IsNotExist(err): // a bare .snap: its position is its own
		snap, err = store.Load(store.SnapFile(dir, id))
	case err == nil:
		if m, err = decodeManifest(id, raw); err == nil {
			snap, err = restoreChain(dir, m)
		}
	}
	if err != nil {
		return false, fmt.Errorf("upgrade %q: %w", id, err)
	}
	if !assignRowIDs(snap) && m.FormatVersion == store.ManifestFormatVersion {
		return false, nil
	}
	if _, err := store.Save(dir, snap); err != nil {
		return false, err
	}
	if err := store.SaveManifest(dir, store.NewManifest(snap, m.Replication)); err != nil {
		return false, err
	}
	for _, name := range m.Deltas {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return true, fmt.Errorf("upgrade %q: %w", id, err)
		}
	}
	return true, nil
}

// decodeManifest parses a format 1 or format 2 manifest.
func decodeManifest(id string, raw []byte) (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("decode manifest: %w", err)
	}
	if m.FormatVersion != 1 && m.FormatVersion != store.ManifestFormatVersion {
		return nil, fmt.Errorf("manifest %q has format %d, this tool reads 1 and %d",
			id, m.FormatVersion, store.ManifestFormatVersion)
	}
	return &m, nil
}

// restoreChain loads the base and folds in every delta the manifest
// lists. Deltas the base already covers are skipped, and a base past
// the manifest's seq is fine: both are a crash between a base write
// and its manifest write. A base short of it means a file was lost.
func restoreChain(dir string, m *manifest) (*store.Snapshot, error) {
	snap, err := store.Load(filepath.Join(dir, m.Base))
	if err != nil {
		return nil, err
	}
	for _, name := range m.Deltas {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		d, err := DecodeDelta(raw)
		if err != nil {
			return nil, fmt.Errorf("%w (file %s)", err, name)
		}
		if d.ToSeq <= snap.Seq {
			continue
		}
		if err := d.Apply(snap); err != nil {
			return nil, err
		}
	}
	if snap.Seq < m.Seq || (snap.Seq == m.Seq && snap.Epoch != m.Epoch) {
		return nil, fmt.Errorf("base+deltas reach seq %d epoch %d, manifest says seq %d epoch %d",
			snap.Seq, snap.Epoch, m.Seq, m.Epoch)
	}
	return snap, nil
}

// assignRowIDs numbers 1..n the rows of every table whose RowIDs do not
// line up with its Rows, as builds before this tool did at every
// restore, and reports whether any table changed.
func assignRowIDs(snap *store.Snapshot) bool {
	changed := false
	for i := range snap.Tables {
		t := &snap.Tables[i]
		if len(t.RowIDs) == len(t.Rows) {
			continue
		}
		t.RowIDs = make([]uint64, len(t.Rows))
		for j := range t.RowIDs {
			t.RowIDs[j] = uint64(j) + 1
		}
		changed = true
	}
	return changed
}
