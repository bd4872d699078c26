package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/engine"
	"repro/internal/qlog"
)

// Snapshot is the durable form of one hosted interface: the
// accumulated query log, the dataset (every table's columns and rows)
// and the epochs it was serving at. Table-valued functions are code
// and cannot be serialized; the restore path re-attaches them (see
// Store.AddFunc).
//
// (log, dataset, epoch) is sufficient to come back from a SIGKILL
// without the original log file: the saved log — initial entries plus
// everything ingested since — re-mines to exactly the interface that
// was serving, and the dataset rows load directly instead of being
// regenerated.
type Snapshot struct {
	// FormatVersion guards decoding across format changes.
	FormatVersion int
	// ID and Title identify the hosted interface.
	ID    string
	Title string
	// Epoch is the interface's serving epoch at save time; DataEpoch is
	// the store's data epoch.
	Epoch     uint64
	DataEpoch uint64
	// Seq is the interface's replication sequence number at save time:
	// the count of epoch-bumping publishes streamed (or streamable) to
	// follower replicas.
	Seq uint64
	// Log is the accumulated query log (initial + ingested entries).
	Log []qlog.Entry
	// Tables is the dataset, one entry per catalog table.
	Tables []TableData
}

// TableData is one serialized table: each row's stable rowid (aligned
// with Rows, or Restore refuses it) and the next rowid to assign.
type TableData struct {
	Name string
	Cols []string
	Rows [][]engine.Value

	RowIDs    []uint64
	NextRowID uint64
}

// FormatVersion is the current snapshot file format.
const FormatVersion = 1

// fileMagic leads every snapshot file; a mismatch means the file is
// not a snapshot at all (as opposed to a corrupt one, which the
// checksum catches).
var fileMagic = []byte("PISNAP01")

// SnapFile returns the snapshot path for an interface ID inside dir.
func SnapFile(dir, id string) string { return filepath.Join(dir, id+".snap") }

// ValidID mirrors the registry's interface-ID rule so a hostile ID
// can never escape the data dir as a path. Every layer that derives a
// file or directory name from an interface ID (snapshots, manifests,
// WAL directories) gates on it.
func ValidID(id string) bool {
	if id == "" {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
		default:
			return false
		}
	}
	return !strings.Contains(id, "..")
}

// CaptureTables serializes the store's current version, in sorted name
// order for deterministic files. The version is immutable and shared
// with readers, so the capture takes no lock.
func (s *Store) CaptureTables() []TableData {
	v := s.Snapshot()
	names := v.db.TableNames()
	out := make([]TableData, 0, len(names))
	for _, name := range names {
		t, _ := v.db.Table(name)
		r := v.rows[t]
		out = append(out, TableData{Name: t.Name, Cols: t.Cols, Rows: t.Rows, RowIDs: r.ids, NextRowID: r.nextID})
	}
	return out
}

// Encode serializes the snapshot into the framed format shared by
// .snap files and shard-to-shard transfers: magic, CRC-32 checksum,
// payload length, gob payload. Because the checksum rides inside the
// frame, a seed shipped over HTTP to a follower is verified end-to-end
// by the receiving shard exactly like a file read back from disk.
func Encode(snap *Snapshot) ([]byte, error) {
	snap.FormatVersion = FormatVersion
	frame, err := encodeFrame(fileMagic, snap)
	if err != nil {
		return nil, fmt.Errorf("store: encode snapshot %q: %w", snap.ID, err)
	}
	return frame, nil
}

// encodeFrame gob-encodes v behind magic, a CRC-32 of the payload and
// the payload length.
func encodeFrame(magic []byte, v any) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return nil, err
	}
	frame := make([]byte, 0, len(magic)+12+payload.Len())
	frame = append(frame, magic...)
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload.Bytes()))
	frame = binary.BigEndian.AppendUint64(frame, uint64(payload.Len()))
	return append(frame, payload.Bytes()...), nil
}

// DecodeFrame verifies one frame in the layout Encode writes — magic,
// length, checksum — and gob-decodes its payload into v; what names
// the artifact in errors. Snapshots use it, and so does the upgrade
// tool for the older artifacts framed the same way.
func DecodeFrame(raw, magic []byte, what string, v any) error {
	if len(raw) < len(magic)+12 {
		return fmt.Errorf("store: %s is truncated (%d bytes)", what, len(raw))
	}
	if !bytes.Equal(raw[:len(magic)], magic) {
		return fmt.Errorf("store: not a %s (bad magic)", what)
	}
	hdr := raw[len(magic):]
	sum := binary.BigEndian.Uint32(hdr[0:4])
	size := binary.BigEndian.Uint64(hdr[4:12])
	payload := hdr[12:]
	if uint64(len(payload)) != size {
		return fmt.Errorf("store: %s is truncated (payload %d bytes, header says %d)",
			what, len(payload), size)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return fmt.Errorf("store: %s failed checksum (got %08x, want %08x)", what, got, sum)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("store: decode %s: %w", what, err)
	}
	return nil
}

// Decode verifies and decodes one frame produced by Encode: magic,
// checksum, then gob. A truncated, corrupted or foreign byte stream is
// an error, never a silently wrong snapshot.
func Decode(raw []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := DecodeFrame(raw, fileMagic, "snapshot", &snap); err != nil {
		return nil, err
	}
	if snap.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("store: snapshot has format %d, this build reads %d",
			snap.FormatVersion, FormatVersion)
	}
	return &snap, nil
}

// Save writes the snapshot to dir/<id>.snap durably through
// AtomicWrite — a reader (or a crash) can only ever observe the old
// complete file or the new complete file, never a torn write. Returns
// the byte size of the file.
func Save(dir string, snap *Snapshot) (int64, error) {
	if !ValidID(snap.ID) {
		return 0, fmt.Errorf("store: invalid snapshot id %q", snap.ID)
	}
	frame, err := Encode(snap)
	if err != nil {
		return 0, err
	}
	if err := AtomicWrite(dir, snap.ID+".snap", frame); err != nil {
		return 0, fmt.Errorf("store: save snapshot %q: %w", snap.ID, err)
	}
	return int64(len(frame)), nil
}

// Load reads and verifies one snapshot file (see Decode). A truncated,
// corrupted or foreign file is an error, never a silently wrong
// snapshot.
func Load(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	snap, err := Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return snap, nil
}

// Restore rebuilds a store from the snapshot's tables: each table's
// rows load as-is, keeping their saved rowids, and the store resumes at
// the saved data epoch so restored writers continue the sequence
// rather than restarting at 1. Function values are not part of a
// snapshot; callers re-attach them with AddFunc.
func (snap *Snapshot) Restore() (*Store, error) {
	return seed(engine.NewDB(), snap.Tables, snap.DataEpoch)
}

// RestoredLog rebuilds the qlog from the snapshot's entries.
func (snap *Snapshot) RestoredLog() *qlog.Log {
	l := &qlog.Log{}
	for _, e := range snap.Log {
		l.Append(e.SQL, e.Client)
	}
	return l
}
