package api

import "testing"

// stubDetacher records Detach calls (the live-feed half of deletion).
type stubDetacher struct {
	Ingestor
	detached []string
}

func (d *stubDetacher) Detach(id string) { d.detached = append(d.detached, id) }

// stubRemover implements Persister, recording RemoveSnapshot calls.
type stubRemover struct {
	removed []string
	fail    error
}

func (r *stubRemover) SaveAll() (*SnapshotResult, error) { return &SnapshotResult{}, nil }
func (r *stubRemover) Restore() (*RestoreResult, error)  { return &RestoreResult{}, nil }
func (r *stubRemover) RemoveSnapshot(id string) error {
	r.removed = append(r.removed, id)
	return r.fail
}

func (r *stubRemover) WALStatus(id string) (*WALInfo, bool) { return nil, false }

func TestRegistryRemove(t *testing.T) {
	svc, h := newTestService(t)
	reg := svc.Registry()
	if !reg.Remove("olap") {
		t.Fatal("Remove(olap) = false for a hosted interface")
	}
	if reg.Remove("olap") {
		t.Fatal("Remove(olap) = true twice")
	}
	if _, ok := reg.Get("olap"); ok {
		t.Fatal("removed interface still resolvable")
	}
	// An already-resolved handle keeps working against its snapshot.
	if h.Epoch() == 0 {
		t.Fatal("resolved handle broke after removal")
	}
}

func TestDeleteInterface(t *testing.T) {
	base, _ := newTestService(t)
	det := &stubDetacher{}
	rem := &stubRemover{}
	svc, _, err := NewPersistentService(base.Registry(), rem)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetIngestor(det)

	ack, err := svc.DeleteInterface("olap")
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Deleted || ack.ID != "olap" {
		t.Fatalf("ack = %+v", ack)
	}
	if len(det.detached) != 1 || det.detached[0] != "olap" {
		t.Fatalf("feed not detached: %v", det.detached)
	}
	if len(rem.removed) != 1 || rem.removed[0] != "olap" {
		t.Fatalf("snapshot not removed: %v", rem.removed)
	}
	// Gone for every operation.
	if _, err := svc.GetInterface("olap"); errCode(t, err) != CodeNotFound {
		t.Fatalf("post-delete get = %v", err)
	}
	if _, err := svc.DeleteInterface("olap"); errCode(t, err) != CodeNotFound {
		t.Fatalf("double delete = %v", err)
	}
	if n := len(svc.ListInterfaces()); n != 0 {
		t.Fatalf("list still shows %d interfaces", n)
	}
}

func TestDeleteInterfaceWithoutSeams(t *testing.T) {
	// No ingestor, no persister: deletion is just the registry removal.
	svc, _ := newTestService(t)
	if _, err := svc.DeleteInterface("olap"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Query("olap", QueryRequest{}); errCode(t, err) != CodeNotFound {
		t.Fatalf("post-delete query = %v", err)
	}
}
