package sut

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestChildIsAccountedForAndReaped(t *testing.T) {
	g := NewGroup(t.TempDir())
	// A shell that spawns a grandchild: killing the process group must
	// take both.
	p, err := g.Start("sh", "/bin/sh", "-c", "sleep 60 & echo started >&2; wait")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := Poll(ctx, p, func() bool { return g.Logs(100) != "" }); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CPU(); err != nil {
		t.Errorf("CPU: %v", err)
	}
	if rss, err := p.PeakRSS(); err != nil || rss <= 0 {
		t.Errorf("PeakRSS = %d, %v", rss, err)
	}
	if gone, _ := p.Exited(); gone {
		t.Fatal("child exited early")
	}
	g.KillAll()
	g.KillAll() // idempotent
	if gone, _ := p.Exited(); !gone {
		t.Fatal("child survived KillAll")
	}
	if _, _, err := p.Wait(); err == nil {
		t.Error("Wait reported a killed child as a clean exit")
	}
}

func TestWaitReportsRusage(t *testing.T) {
	g := NewGroup(t.TempDir())
	p, err := g.Start("sleep", "/bin/sh", "-c", "sleep 0.1")
	if err != nil {
		t.Fatal(err)
	}
	if _, rss, err := p.Wait(); err != nil || rss <= 0 {
		t.Fatalf("Wait: rss %d, err %v", rss, err)
	}
}

// A reaped child's pid can be reused: the group must forget it and Kill
// must not signal it, while its stderr stays in the failure report.
func TestEndedChildrenAreForgottenNotSignalled(t *testing.T) {
	g := NewGroup(t.TempDir())
	p, err := g.Start("short", "/bin/sh", "-c", "echo bye >&2")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	p.Kill() // returns at once, sends nothing
	q, err := g.Start("long", "/bin/sh", "-c", "sleep 60")
	if err != nil {
		t.Fatal(err)
	}
	defer g.KillAll()
	if len(g.procs) != 1 || g.procs[0] != q {
		t.Fatalf("group holds %d children, want only the live one", len(g.procs))
	}
	if logs := g.Logs(100); !strings.Contains(logs, "bye") {
		t.Errorf("Logs lost the ended child's stderr: %q", logs)
	}
}

func TestPollStopsWhenTheChildDies(t *testing.T) {
	g := NewGroup(t.TempDir())
	p, err := g.Start("false", "/bin/sh", "-c", "exit 3")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := Poll(ctx, p, func() bool { return false }); err == nil || ctx.Err() != nil {
		t.Fatalf("Poll = %v, want the child's exit reported before the deadline", err)
	}
}

func TestScrape(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "# HELP x y\n# TYPE x counter\npi_wal_syncs_total 42\npi_replica_seq{iface=\"olap\"} 7\npi_h_bucket{le=\"+Inf\"} 3\n")
	}))
	defer ts.Close()
	m, err := Scrape(context.Background(), ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if m["pi_wal_syncs_total"] != 42 || m[`pi_replica_seq{iface="olap"}`] != 7 || m[`pi_h_bucket{le="+Inf"}`] != 3 || len(m) != 3 {
		t.Fatalf("scrape = %v", m)
	}
}

func TestFreeAddr(t *testing.T) {
	a, err := FreeAddr()
	if err != nil || a == "" {
		t.Fatalf("FreeAddr = %q, %v", a, err)
	}
}
