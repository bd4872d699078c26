package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// AtomicWrite durably publishes data as dir/name: the bytes are
// written to a unique temp file in the same directory, fsynced, and
// atomically renamed into place, then the directory is fsynced so the
// rename itself survives a crash. A reader (or a crash at any point)
// can only ever observe the old complete file or the new complete
// file, never a torn write. This is the one write idiom every durable
// artifact in the data dir uses — .snap snapshots, manifests, the
// shard tombstone map — so their crash semantics can
// never drift apart.
func AtomicWrite(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: create dir for %s: %w", name, err)
	}
	// Unique temp name per call: overlapping writers of the same target
	// never interleave bytes into one file; whichever rename lands last
	// wins, and both published files were complete.
	f, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: sync %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: close %s: %w", name, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publish %s: %w", name, err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs dir so the creates, renames and removes inside it
// survive a crash. Until it succeeds a synced file may still vanish
// with its directory entry, so every durable write in the data dir
// (AtomicWrite, the write-ahead log's segment create and truncate)
// fails when it fails.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
