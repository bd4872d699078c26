package ingest

import (
	"errors"
	"testing"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/qlog"
)

// TestSealedFeedRejectsInFlightWriters: Handoff runs its commit under
// the feed lock, at the sequence number every acked write reached. A refused commit leaves the feed
// exactly as writable as it was; a successful one seals it, so a writer
// that was parked on the lock while the commit ran — and every writer
// after it — is refused with the moved error, never acknowledged into a
// copy that no longer owns the interface.
func TestSealedFeedRejectsInFlightWriters(t *testing.T) {
	_, ing, h := newIngester(t, Options{})
	moved := api.ErrMoved("live", "http://new-owner")
	row := [][]engine.Value{{engine.Num(1), engine.Num(1)}}

	// Every ack is in the stream before commit sees the sequence number,
	// whatever commit then decides.
	if _, err := ing.Submit("live", []qlog.Entry{entry("SELECT a FROM t WHERE x = 7")}); err != nil {
		t.Fatal(err)
	}
	if _, err := ing.SubmitRows("live", "t", row); err != nil {
		t.Fatal(err)
	}
	refused := errors.New("target is lagging")
	err := ing.Handoff("live", moved, func(seq uint64) error {
		if seq != 2 {
			t.Errorf("commit saw seq %d, want 2 (a log publish and a row publish)", seq)
		}
		return refused
	})
	if !errors.Is(err, refused) {
		t.Fatalf("refused handoff = %v, want the commit's error", err)
	}
	if h.Epoch() != 3 {
		t.Fatalf("epoch %d after two acked writes, want 3", h.Epoch())
	}
	if _, err := ing.Submit("live", []qlog.Entry{entry("SELECT a FROM t WHERE x = 8")}); err != nil {
		t.Fatalf("submit after a refused handoff: %v", err)
	}

	// The in-flight writer: it reaches the feed while commit holds the
	// lock, so it can only run after the seal.
	inCommit, release := make(chan struct{}), make(chan struct{})
	handoff, write := make(chan error, 1), make(chan error, 1)
	go func() {
		handoff <- ing.Handoff("live", moved, func(uint64) error {
			close(inCommit)
			<-release
			return nil
		})
	}()
	<-inCommit
	go func() {
		_, err := ing.SubmitRows("live", "t", row)
		write <- err
	}()
	close(release)
	if err := <-handoff; err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if err := <-write; err != error(moved) {
		t.Fatalf("in-flight write = %v, want the moved error", err)
	}
	if h.Epoch() != 4 {
		t.Fatalf("epoch %d after the handoff, want 4 (only the entry acked before it published)", h.Epoch())
	}

	// Sealed: every path that could change the copy answers moved.
	_, errSubmit := ing.Submit("live", []qlog.Entry{entry("SELECT a FROM t WHERE x = 9")})
	_, errMutate := ing.SubmitMutation("live", "DELETE FROM t WHERE x = 1", 0)
	_, _, errBump := ing.PublishBump("live")
	for op, err := range map[string]error{
		"submit": errSubmit, "mutate": errMutate, "bump": errBump,
		"apply":          ing.Apply("live", Publication{Seq: 4, Epoch: 5}),
		"second handoff": ing.Handoff("live", moved, func(uint64) error { return nil }),
	} {
		if err != error(moved) {
			t.Errorf("%s on a sealed feed = %v, want the moved error", op, err)
		}
	}
	if err := ing.Handoff("gone", moved, func(uint64) error { return nil }); !errors.Is(err, ErrNoFeed) {
		t.Fatalf("handoff of an unknown feed = %v, want ErrNoFeed", err)
	}
}
