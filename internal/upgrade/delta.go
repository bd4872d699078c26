package upgrade

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/qlog"
	"repro/internal/store"
)

// Delta is one differential save of the format 1 layout: the query-log
// entries and table rows added since the previous save (which covered
// FromSeq), and the position (ToSeq, epochs) the interface had at the
// cut. The field names are the gob encoding and must not change.
type Delta struct {
	FormatVersion    int
	ID               string
	FromSeq, ToSeq   uint64
	Epoch, DataEpoch uint64
	Log              []qlog.Entry
	Tables           []TableDelta
}

// TableDelta is one table's change since the previous save: an append
// tail of the rows past FromRow, or, with Replace, the full visible
// table after UPDATE/DELETE mutations. RowIDs align with Rows;
// NextRowID is the table's rowid allocator at the cut. MutGen, the
// old mutation generation, is decoded and dropped: the current
// snapshot format has no such field.
type TableDelta struct {
	Name      string
	Cols      []string
	FromRow   int
	Rows      [][]engine.Value
	RowIDs    []uint64
	NextRowID uint64
	MutGen    uint64
	Replace   bool
}

// DeltaFormatVersion is the delta file format this package reads.
const DeltaFormatVersion = 1

// deltaMagic leads every delta file, distinguishing it from snapshots.
var deltaMagic = []byte("PIDELT01")

// Apply merges the delta into a snapshot being rebuilt, in place. The
// seq chain and per-table row positions are verified — a delta that
// does not continue exactly where the snapshot ends means a save was
// lost, and restoring past it would silently drop acked state.
func (d *Delta) Apply(snap *store.Snapshot) error {
	if d.ID != snap.ID {
		return fmt.Errorf("upgrade: delta for %q applied to snapshot of %q", d.ID, snap.ID)
	}
	if d.FromSeq != snap.Seq {
		return fmt.Errorf("upgrade: delta of %q continues from seq %d but snapshot covers seq %d",
			d.ID, d.FromSeq, snap.Seq)
	}
	for _, td := range d.Tables {
		data := store.TableData{Name: td.Name, Cols: td.Cols, Rows: td.Rows,
			RowIDs: td.RowIDs, NextRowID: td.NextRowID}
		idx := slices.IndexFunc(snap.Tables, func(t store.TableData) bool { return t.Name == td.Name })
		switch {
		case idx >= 0 && td.Replace:
			snap.Tables[idx] = data
		case idx < 0 && (td.Replace || td.FromRow == 0):
			snap.Tables = append(snap.Tables, data)
		case idx < 0:
			return fmt.Errorf("upgrade: delta of %q grows unknown table %q from row %d",
				d.ID, td.Name, td.FromRow)
		case td.FromRow != len(snap.Tables[idx].Rows):
			return fmt.Errorf("upgrade: delta of %q continues table %q at row %d but snapshot holds %d rows",
				d.ID, td.Name, td.FromRow, len(snap.Tables[idx].Rows))
		default:
			t := &snap.Tables[idx]
			if len(td.RowIDs) == len(td.Rows) && len(t.RowIDs) == len(t.Rows) {
				t.RowIDs = append(t.RowIDs, td.RowIDs...)
			} else {
				t.RowIDs = nil // rowid-less rows in the mix: assignRowIDs numbers the table
			}
			t.Rows = append(t.Rows, td.Rows...)
			t.NextRowID = max(t.NextRowID, td.NextRowID)
		}
	}
	snap.Log = append(snap.Log, d.Log...)
	snap.Seq, snap.Epoch, snap.DataEpoch = d.ToSeq, d.Epoch, d.DataEpoch
	return nil
}

// DecodeDelta verifies and decodes one delta frame: the snapshot frame
// layout (see store.DecodeFrame) under the delta magic.
func DecodeDelta(raw []byte) (*Delta, error) {
	var d Delta
	if err := store.DecodeFrame(raw, deltaMagic, "delta", &d); err != nil {
		return nil, err
	}
	if d.FormatVersion != DeltaFormatVersion {
		return nil, fmt.Errorf("upgrade: delta has format %d, this tool reads %d",
			d.FormatVersion, DeltaFormatVersion)
	}
	return &d, nil
}
