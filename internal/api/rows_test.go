package api

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/qlog"
)

// fakeRowIngestor implements Ingestor, recording the last rows
// submission; the embedded nil Ingestor stands in for the mutation and
// detach paths these tests never reach.
type fakeRowIngestor struct {
	Ingestor
	lastID    string
	lastTable string
	lastRows  [][]engine.Value
	fail      bool
}

func (f *fakeRowIngestor) Submit(id string, entries []qlog.Entry) (IngestAck, error) {
	return IngestAck{Accepted: len(entries)}, nil
}

func (f *fakeRowIngestor) SubmitRows(id, table string, rows [][]engine.Value) (RowsAck, error) {
	f.lastID, f.lastTable, f.lastRows = id, table, rows
	if f.fail {
		return RowsAck{}, errors.New("store says no")
	}
	return RowsAck{Table: table, Accepted: len(rows), Flushed: true, Epoch: 2, DataEpoch: 2, RowCount: 7}, nil
}

func (f *fakeRowIngestor) IngestStatus(id string) (IngestStatus, bool) {
	return IngestStatus{}, false
}

// fakePersister implements Persister in-memory.
type fakePersister struct {
	saves       int
	restores    int
	saveErr     error
	restoreErr  error
	restoreRows []SnapshotInterface
}

func (p *fakePersister) SaveAll() (*SnapshotResult, error) {
	p.saves++
	if p.saveErr != nil {
		return nil, p.saveErr
	}
	return &SnapshotResult{Dir: "mem", Interfaces: []SnapshotInterface{{ID: "olap", Epoch: 3}}}, nil
}

func (p *fakePersister) Restore() (*RestoreResult, error) {
	p.restores++
	if p.restoreErr != nil {
		return nil, p.restoreErr
	}
	return &RestoreResult{Dir: "mem", Interfaces: p.restoreRows}, nil
}

func (p *fakePersister) RemoveSnapshot(id string) error { return nil }

func (p *fakePersister) WALStatus(id string) (*WALInfo, bool) { return nil, false }

func TestServiceAppendRowsWithoutRowIngestor(t *testing.T) {
	svc, _ := newTestService(t)
	req := RowsRequest{Table: "ontime", Rows: [][]any{{1.0}}}
	// No ingestor: every write path answers ingest_disabled.
	if _, err := svc.AppendRows("olap", req, false); errCode(t, err) != CodeIngestDisabled {
		t.Fatalf("no-ingestor append code = %v", err)
	}
	if _, err := svc.MutateRows("olap", MutateRequest{SQL: "DELETE FROM ontime"}); errCode(t, err) != CodeIngestDisabled {
		t.Fatalf("no-ingestor mutate code = %v", err)
	}
	if _, err := svc.AppendRows("nope", req, false); errCode(t, err) != CodeNotFound {
		t.Fatalf("unknown interface code = %v", err)
	}
}

func TestServiceAppendRowsValidationAndConversion(t *testing.T) {
	svc, _ := newTestService(t)
	ri := &fakeRowIngestor{}
	svc.SetIngestor(ri)

	if _, err := svc.AppendRows("olap", RowsRequest{Rows: [][]any{{1.0}}}, false); errCode(t, err) != CodeBadRequest {
		t.Fatalf("missing table code = %v", err)
	}
	if _, err := svc.AppendRows("olap", RowsRequest{Table: "ontime"}, false); errCode(t, err) != CodeBadRequest {
		t.Fatalf("no rows code = %v", err)
	}
	// Nested values are not SQL scalars.
	_, err := svc.AppendRows("olap", RowsRequest{Table: "ontime", Rows: [][]any{{[]any{1.0}}}}, false)
	if errCode(t, err) != CodeRowsRejected {
		t.Fatalf("nested value code = %v", err)
	}

	ack, err := svc.AppendRows("olap", RowsRequest{
		Table: "ontime",
		Rows:  [][]any{{1.5, "AA", true, nil}},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 1 || !ack.Flushed || ack.RowCount != 7 {
		t.Fatalf("ack = %+v", ack)
	}
	if ri.lastID != "olap" || ri.lastTable != "ontime" {
		t.Fatalf("ingestor saw %q %q", ri.lastID, ri.lastTable)
	}
	want := []engine.Value{engine.Num(1.5), engine.Str("AA"), engine.Boolean(true), engine.Null()}
	if len(ri.lastRows) != 1 || fmt.Sprint(ri.lastRows[0]) != fmt.Sprint(want) {
		t.Fatalf("converted rows = %v, want %v", ri.lastRows, want)
	}

	// A store rejection surfaces as rows_rejected.
	ri.fail = true
	if _, err := svc.AppendRows("olap", RowsRequest{Table: "ontime", Rows: [][]any{{1.0}}}, false); errCode(t, err) != CodeRowsRejected {
		t.Fatalf("store rejection code = %v", err)
	}
}

func TestServiceSnapshotContract(t *testing.T) {
	svc, _ := newTestService(t)
	if _, err := svc.Snapshot(); errCode(t, err) != CodePersistenceDisabled {
		t.Fatalf("no-persister code = %v", err)
	}
	if svc.Health().Persistence {
		t.Fatal("health reports persistence without a persister")
	}

	p := &fakePersister{}
	svc, _, err := NewPersistentService(svc.Registry(), p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if p.saves != 1 || len(res.Interfaces) != 1 || res.Interfaces[0].ID != "olap" {
		t.Fatalf("snapshot = %+v (saves %d)", res, p.saves)
	}
	if !svc.Health().Persistence {
		t.Fatal("health does not report persistence")
	}

	p.saveErr = errors.New("disk full")
	if _, err := svc.Snapshot(); errCode(t, err) != CodeSnapshotFailed {
		t.Fatalf("save failure code = %v", err)
	}
}

func TestNewPersistentServiceRestores(t *testing.T) {
	reg := NewRegistry()
	p := &fakePersister{restoreRows: []SnapshotInterface{{ID: "back", Epoch: 5}}}
	svc, res, err := NewPersistentService(reg, p)
	if err != nil {
		t.Fatal(err)
	}
	if p.restores != 1 || len(res.Interfaces) != 1 || res.Interfaces[0].ID != "back" {
		t.Fatalf("restore result = %+v (restores %d)", res, p.restores)
	}
	if !svc.Health().Persistence {
		t.Fatal("persister not wired after restore")
	}

	p2 := &fakePersister{restoreErr: errors.New("checksum mismatch")}
	_, _, err = NewPersistentService(reg, p2)
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Code != CodeRestoreFailed {
		t.Fatalf("restore failure = %v", err)
	}
}
