package store

import (
	"fmt"
	"os"

	"repro/internal/engine"
	"repro/internal/qlog"
)

// This file is the read-only legacy half of persistence. Data dirs
// written by builds that saved differentially hold a base snapshot plus
// a chain of .delta files (the log entries and table rows added between
// two saves); a v1 manifest lists them. Restore folds the chain into
// the base (RestoreChain), and the first save afterwards writes a full
// base and drops the chain. Nothing writes a delta any more: the
// write-ahead log is the record of what changed since the base.

// Delta is one legacy differential save: the appended tail of the query
// log and of each grown table, plus the position (seq, epochs) the
// interface had when it was cut.
type Delta struct {
	// FormatVersion guards decoding across format changes.
	FormatVersion int
	// ID is the interface the delta belongs to.
	ID string
	// FromSeq/ToSeq bound the replication sequence range: the previous
	// save covered FromSeq, base+deltas through this one cover ToSeq.
	FromSeq uint64
	ToSeq   uint64
	// Epoch/DataEpoch are the serving and store epochs at the cut.
	Epoch     uint64
	DataEpoch uint64
	// Log is the query-log tail appended since the previous save.
	Log []qlog.Entry
	// Tables holds each grown table's appended rows.
	Tables []TableDelta
}

// TableDelta is one table's change since the previous save. Two
// shapes, discriminated by Replace:
//
//   - append tail (Replace false): Rows/RowIDs hold only the rows
//     added past FromRow.
//   - replacement (Replace true): the table absorbed UPDATE/DELETE
//     mutations since the previous save, so Rows/RowIDs carry the full
//     visible table and Apply swaps it wholesale.
type TableDelta struct {
	Name string
	Cols []string
	// FromRow is the row count the previous save covered; Apply refuses
	// a delta whose FromRow does not meet the merged table where it left
	// off (a gap would silently drop acked rows).
	FromRow int
	Rows    [][]engine.Value

	// RowIDs aligns with Rows (appended rows' ids, or the full table's
	// for a replacement). NextRowID/MutGen snapshot the table's rowid
	// allocator and mutation generation at the cut.
	RowIDs    []uint64
	NextRowID uint64
	MutGen    uint64
	// Replace marks a full-table replacement delta.
	Replace bool
}

// DeltaFormatVersion is the delta file format this build reads.
const DeltaFormatVersion = 1

// deltaMagic leads every delta file, distinguishing it from snapshots.
var deltaMagic = []byte("PIDELT01")

// Apply merges the delta into a snapshot being rebuilt, in place. The
// seq chain and per-table row positions are verified — a delta that
// does not continue exactly where the snapshot ends means a save was
// lost, and restoring past it would silently drop acked state.
func (d *Delta) Apply(snap *Snapshot) error {
	if d.ID != snap.ID {
		return fmt.Errorf("store: delta for %q applied to snapshot of %q", d.ID, snap.ID)
	}
	if d.FromSeq != snap.Seq {
		return fmt.Errorf("store: delta of %q continues from seq %d but snapshot covers seq %d",
			d.ID, d.FromSeq, snap.Seq)
	}
	for _, td := range d.Tables {
		idx := -1
		for i := range snap.Tables {
			if snap.Tables[i].Name == td.Name {
				idx = i
				break
			}
		}
		if td.Replace {
			data := TableData{Name: td.Name, Cols: td.Cols, Rows: td.Rows,
				RowIDs: td.RowIDs, NextRowID: td.NextRowID, MutGen: td.MutGen}
			if idx < 0 {
				snap.Tables = append(snap.Tables, data)
			} else {
				snap.Tables[idx] = data
			}
			continue
		}
		if idx < 0 {
			if td.FromRow != 0 {
				return fmt.Errorf("store: delta of %q grows unknown table %q from row %d",
					d.ID, td.Name, td.FromRow)
			}
			snap.Tables = append(snap.Tables, TableData{Name: td.Name, Cols: td.Cols, Rows: td.Rows,
				RowIDs: td.RowIDs, NextRowID: td.NextRowID, MutGen: td.MutGen})
			continue
		}
		have := len(snap.Tables[idx].Rows)
		if td.FromRow != have {
			return fmt.Errorf("store: delta of %q continues table %q at row %d but snapshot holds %d rows",
				d.ID, td.Name, td.FromRow, have)
		}
		t := &snap.Tables[idx]
		if len(td.RowIDs) == len(td.Rows) && len(t.RowIDs) == len(t.Rows) {
			t.RowIDs = append(t.RowIDs, td.RowIDs...)
		} else {
			t.RowIDs = nil // legacy mix: Restore re-assigns sequentially
		}
		t.Rows = append(t.Rows, td.Rows...)
		if td.NextRowID > t.NextRowID {
			t.NextRowID = td.NextRowID
		}
		if td.MutGen > t.MutGen {
			t.MutGen = td.MutGen
		}
	}
	snap.Log = append(snap.Log, d.Log...)
	snap.Seq = d.ToSeq
	snap.Epoch = d.Epoch
	snap.DataEpoch = d.DataEpoch
	return nil
}

// DecodeDelta verifies and decodes one delta frame: the snapshot frame
// layout (see Decode) under the delta magic.
func DecodeDelta(raw []byte) (*Delta, error) {
	var d Delta
	if err := decodeFrame(raw, deltaMagic, "delta", &d); err != nil {
		return nil, err
	}
	if d.FormatVersion != DeltaFormatVersion {
		return nil, fmt.Errorf("store: delta has format %d, this build reads %d",
			d.FormatVersion, DeltaFormatVersion)
	}
	return &d, nil
}

// LoadDelta reads and verifies one delta file.
func LoadDelta(path string) (*Delta, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: read delta: %w", err)
	}
	d, err := DecodeDelta(raw)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return d, nil
}
