package ingest

import (
	"fmt"
	"strings"

	"repro/internal/api"
	"repro/internal/engine"
)

// SubmitRows buffers new dataset rows for one table of the
// interface's store and publishes them when the row batch fills (or
// immediately with flush set). Publishing is copy-on-write in the
// store followed by a hot swap of the hosted interface onto the fresh
// snapshot under a bumped epoch — the same discipline Submit applies
// to interface updates, so a query accepted after the swap can never
// be answered from a cache that predates the appended rows.
//
// Rows are validated against the table's column count before they are
// buffered, so SubmitRows either accepts the whole batch or rejects it
// without side effects. The per-table buffer is capped at
// Options.MaxRowBuffer: a submission that would overflow it drains the
// buffer inline first, and one that cannot fit even then (a single
// batch larger than the cap, or a drain that failed) is rejected with
// an error the service layer surfaces as rows_rejected — bounded
// memory, never silent loss. The caller must not mutate rows
// afterwards. Implements api.Ingestor.
func (ing *Ingester) SubmitRows(id, table string, rows [][]engine.Value, flush bool) (api.RowsAck, error) {
	f, err := ing.feed(id)
	if err != nil {
		return api.RowsAck{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ack := api.RowsAck{Table: table}
	if f.sealed != nil {
		return ack, f.sealed
	}
	if err := f.store.ValidateRows(table, rows); err != nil {
		f.lastError = err.Error()
		return ack, err
	}
	key := strings.ToLower(table)
	if len(f.rowBuf[key])+len(rows) > ing.opts.MaxRowBuffer {
		if ferr := ing.flushRowsLocked(f); ferr != nil {
			err := fmt.Errorf("ingest: row buffer for table %q is full (%d buffered, cap %d) and draining it failed: %w",
				table, len(f.rowBuf[key]), ing.opts.MaxRowBuffer, ferr)
			f.lastError = err.Error()
			return ack, err
		}
		if len(f.rowBuf[key])+len(rows) > ing.opts.MaxRowBuffer {
			err := fmt.Errorf("ingest: %d rows exceed table %q's row-buffer cap of %d; submit smaller batches",
				len(rows), table, ing.opts.MaxRowBuffer)
			f.lastError = err.Error()
			return ack, err
		}
	}
	f.rowBuf[key] = append(f.rowBuf[key], rows...)
	f.rowBuffered += len(rows)
	ack.Accepted = len(rows)

	if flush || f.rowBuffered >= ing.opts.RowBatchSize || f.rowBuffered >= ing.opts.MaxRowBuffer {
		if err := ing.flushRowsLocked(f); err != nil {
			ack.Buffered = f.rowBuffered
			ack.Epoch = f.hosted.Epoch()
			ack.DataEpoch = f.store.Epoch()
			return ack, err
		}
		ack.Flushed = true
	}
	ack.Buffered = f.rowBuffered
	ack.Epoch = f.hosted.Epoch()
	ack.DataEpoch = f.store.Epoch()
	if n, ok := f.store.RowCount(table); ok {
		ack.RowCount = n
	}
	return ack, nil
}

// FlushRows publishes any buffered rows for the interface and returns
// the interface epoch.
func (ing *Ingester) FlushRows(id string) (uint64, error) {
	f, err := ing.feed(id)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := ing.flushRowsLocked(f); err != nil {
		return f.hosted.Epoch(), err
	}
	return f.hosted.Epoch(), nil
}

// flushRowsLocked publishes every buffered row batch as one
// publication: the store appends them and the hosted interface
// hot-swaps onto the resulting snapshot. Caller holds f.mu. One swap
// covers all tables flushed together, so a flush costs a single epoch
// bump regardless of how many tables grew. A publication the feed did
// not take (validation at submit time makes that unreachable short of
// a table being replaced under the buffer) leaves every batch buffered
// for retry.
func (ing *Ingester) flushRowsLocked(f *feed) error {
	if f.rowBuffered == 0 {
		return nil
	}
	rows := make([]TableRows, 0, len(f.rowBuf))
	for table, batch := range f.rowBuf {
		if len(batch) > 0 {
			rows = append(rows, TableRows{Table: table, Rows: batch})
		}
	}
	landed, err := ing.publishLocked(f, Publication{Rows: rows})
	if landed {
		f.rowBuf = map[string][][]engine.Value{}
		f.rowBuffered = 0
	}
	return err
}
