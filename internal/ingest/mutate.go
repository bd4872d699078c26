package ingest

import (
	"fmt"
	"net/http"

	"repro/internal/api"
	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/sqlparser"
	"repro/internal/store"
)

// SubmitMutation evaluates one UPDATE or DELETE statement against the
// interface's current snapshot and publishes the result as a versioned
// mutation: the matched rows' durable rowids, not the predicate, are
// what the store applies, the WAL journals and the replication stream
// carries — so the owner, its WAL replay and every follower land on
// byte-identical rows no matter when they apply.
//
// Ordering under the feed lock: the optional ifEpoch check runs
// against the current snapshot — which holds every acked append, since
// acks follow their publish — then the statement parses, plans and
// evaluates against that same snapshot.
// A mutation that matches zero rows acks without publishing — no
// epoch bump, nothing journaled. One that matches publishes through
// the same publishLocked every write path uses: the store builds the
// table's next version, the hosted interface hot-swaps onto it, and
// the publication journals and replicates before the ack returns.
// Implements api.Ingestor.
func (ing *Ingester) SubmitMutation(id, sql string, ifEpoch uint64) (api.MutateAck, error) {
	f, err := ing.feed(id)
	if err != nil {
		return api.MutateAck{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ack := api.MutateAck{}
	if f.sealed != nil {
		return ack, f.sealed
	}
	snap := f.store.Snapshot()
	ack.Epoch = f.hosted.Epoch()
	ack.DataEpoch = snap.Epoch()
	if ifEpoch != 0 && snap.Epoch() != ifEpoch {
		return ack, api.Errf(api.CodeMutationConflict, http.StatusConflict,
			"store is at data epoch %d, mutation expected %d", snap.Epoch(), ifEpoch)
	}
	stmt, perr := sqlparser.ParseStatement(sql)
	if perr != nil {
		f.lastError = perr.Error()
		return ack, perr
	}
	if stmt.Type != ast.TypeUpdate && stmt.Type != ast.TypeDelete {
		return ack, fmt.Errorf("ingest: mutation must be UPDATE or DELETE, got %s", stmt.Type)
	}
	mut, err := engine.EvalDML(snap, stmt)
	if err != nil {
		f.lastError = err.Error()
		return ack, err
	}
	ack.Table = mut.Table
	ack.Matched = len(mut.Matched)
	if len(mut.Matched) == 0 {
		return ack, nil
	}
	ids, ok := snap.RowIDs(mut.Table)
	if !ok {
		return ack, fmt.Errorf("ingest: table %q has no row identities", mut.Table)
	}
	tm := store.TableMutation{Table: mut.Table}
	if mut.Delete {
		tm.Deletes = make([]uint64, len(mut.Matched))
		for i, ri := range mut.Matched {
			tm.Deletes[i] = ids[ri]
		}
	} else {
		tm.Updates = make([]store.RowUpdate, len(mut.Matched))
		for i, ri := range mut.Matched {
			tm.Updates[i] = store.RowUpdate{RowID: ids[ri], Vals: mut.NewRows[i]}
		}
	}
	landed, err := ing.publishLocked(f, Publication{Muts: []store.TableMutation{tm}})
	if landed {
		ack.Epoch = f.hosted.Epoch()
		ack.DataEpoch = f.store.Epoch()
		ack.Updated = len(tm.Updates)
		ack.Deleted = len(tm.Deletes)
	}
	return ack, err
}
