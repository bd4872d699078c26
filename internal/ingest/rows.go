package ingest

import (
	"fmt"
	"strings"

	"repro/internal/api"
	"repro/internal/engine"
)

// SubmitRows appends new dataset rows to one table of the interface's
// store and publishes them before it returns: a new store version
// followed by a hot swap of the hosted interface onto the fresh
// snapshot under a bumped epoch — the same discipline Submit applies
// to interface updates, so a query accepted after the ack can never be
// answered from a cache that predates the appended rows.
//
// Rows are validated against the table's column count before anything
// lands, so SubmitRows either publishes the whole batch or rejects it
// without side effects. A request over maxRowsPerRequest rows is
// rejected with an error the service layer surfaces as rows_rejected.
// The caller must not mutate rows afterwards. Implements api.Ingestor.
func (ing *Ingester) SubmitRows(id, table string, rows [][]engine.Value) (api.RowsAck, error) {
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
	if len(rows) > maxRowsPerRequest {
		err := fmt.Errorf("ingest: %d rows exceed the cap of %d rows per request for table %q; submit smaller batches",
			len(rows), maxRowsPerRequest, table)
		f.lastError = err.Error()
		return ack, err
	}
	landed, err := ing.publishLocked(f, Publication{Rows: []TableRows{{Table: strings.ToLower(table), Rows: rows}}})
	if landed {
		ack.Accepted = len(rows)
		ack.Flushed = true
	}
	ack.Epoch = f.hosted.Epoch()
	ack.DataEpoch = f.store.Epoch()
	if err != nil {
		return ack, err
	}
	if n, ok := f.store.RowCount(table); ok {
		ack.RowCount = n
	}
	return ack, nil
}
