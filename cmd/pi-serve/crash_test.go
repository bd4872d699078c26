package main

import (
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pi/client"
)

// onTimeRow is one syntactically valid row for the olap workload's
// ontime table (16 columns).
var onTimeRow = []any{"AA", "AA", "CAP", "NYP", "CA", "NY", 1, 1, 1, 10, 12, 8, 500, 1, 0, 0}

// buildServer compiles pi-serve once into a temp dir shared by the
// crash tests.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pi-serve")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build pi-serve: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startServer launches pi-serve against dataDir — every ack journaled
// to the write-ahead log — and waits for it to serve health.
func startServer(t *testing.T, bin, addr, dataDir string, extra ...string) (*exec.Cmd, *client.Client) {
	t.Helper()
	args := append([]string{
		"-addr", addr, "-workloads", "olap", "-n", "20", "-rows", "60",
		"-data-dir", dataDir,
	}, extra...)
	cmd := exec.Command(bin, args...)
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	c, err := client.New("http://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := c.Health(ctx)
		cancel()
		if err == nil {
			return cmd, c
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became healthy: %v\n--- server output ---\n%s", err, out.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestCrashRecoveryNoAckedLoss is the tentpole's acceptance test at
// the process level: concurrent writers stream acked appends, the
// server dies with SIGKILL mid-stream (no shutdown snapshot), and the
// restarted process must serve every row that was acknowledged. The
// only tolerated surplus is one in-flight row per writer — journaled
// under the feed lock but killed before its HTTP response left.
func TestCrashRecoveryNoAckedLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}
	bin := buildServer(t)
	dataDir := t.TempDir()
	addr := freeAddr(t)

	cmd, c := startServer(t, bin, addr, dataDir, "-wal-sync", "0")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	probe, err := c.AppendRows(ctx, "olap", "ontime", [][]any{onTimeRow}, true)
	if err != nil {
		t.Fatal(err)
	}
	base := probe.RowCount // 60 generated + the probe

	const writers = 4
	var acked atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc, err := client.New("http://"+addr, client.WithRetries(0))
			if err != nil {
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				actx, acancel := context.WithTimeout(context.Background(), 2*time.Second)
				_, err := wc.AppendRows(actx, "olap", "ontime", [][]any{onTimeRow}, true)
				acancel()
				if err != nil {
					return // the kill landed; unacked by definition
				}
				acked.Add(1)
			}
		}()
	}

	// Let the writers build up a journaled tail, then murder the
	// process mid-append. No snapshot has covered these rows.
	time.Sleep(400 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	close(stop)
	wg.Wait()
	ackedRows := int(acked.Load())
	if ackedRows == 0 {
		t.Fatal("no writer got an ack before the kill; test proves nothing")
	}

	_, c2 := startServer(t, bin, addr, dataDir, "-wal-sync", "0")
	probe2, err := c2.AppendRows(ctx, "olap", "ontime", [][]any{onTimeRow}, true)
	if err != nil {
		t.Fatal(err)
	}
	got := probe2.RowCount - 1 // exclude this probe
	if got < base+ackedRows {
		t.Fatalf("restarted server has %d rows, but %d were acked before the kill (base %d): acked writes lost",
			got, ackedRows, base)
	}
	if got > base+ackedRows+writers {
		t.Fatalf("restarted server has %d rows, more than acked %d + %d in-flight (base %d): phantom rows applied",
			got, ackedRows, writers, base)
	}
	t.Logf("killed with %d acked appends; restart serves %d rows (base %d, tolerated in-flight %d)",
		ackedRows, got, base, got-base-ackedRows)
}

// TestCrashRecoveryTornTail: bytes torn off or garbled at the end of
// the active segment (the shape a mid-append SIGKILL leaves) must be
// truncated on restart, never applied and never fatal.
func TestCrashRecoveryTornTail(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}
	bin := buildServer(t)
	dataDir := t.TempDir()
	addr := freeAddr(t)

	cmd, c := startServer(t, bin, addr, dataDir, "-wal-sync", "0")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	probe, err := c.AppendRows(ctx, "olap", "ontime", [][]any{onTimeRow}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Garble the journaled tail: append torn bytes to the newest
	// segment, as if the crash had interrupted a frame write.
	segs, err := filepath.Glob(filepath.Join(dataDir, "olap.wal", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments written: %v (%v)", segs, err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, c2 := startServer(t, bin, addr, dataDir, "-wal-sync", "0")
	probe2, err := c2.AppendRows(ctx, "olap", "ontime", [][]any{onTimeRow}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := probe2.RowCount - 1; got != probe.RowCount {
		t.Fatalf("restart after torn tail serves %d rows, want %d (acked state exactly, torn bytes dropped)",
			got, probe.RowCount)
	}
}

// TestWALBootRefusesOrphanLog: a data dir whose WAL has no base
// snapshot to replay onto must fail the boot loudly instead of
// serving as if the acked writes never happened.
func TestWALBootRefusesOrphanLog(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}
	bin := buildServer(t)
	dataDir := t.TempDir()
	addr := freeAddr(t)

	cmd, c := startServer(t, bin, addr, dataDir, "-wal-sync", "0")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.AppendRows(ctx, "olap", "ontime", [][]any{onTimeRow}, true); err != nil {
		t.Fatal(err)
	}
	cmd.Process.Kill()
	cmd.Wait()

	// Remove the base + manifest but keep the log: unrecoverable.
	for _, name := range []string{"olap.snap", "olap.manifest.json"} {
		os.Remove(filepath.Join(dataDir, name))
	}

	// -wal is deprecated and ignored; it must still parse.
	reboot := exec.Command(bin, "-addr", addr, "-workloads", "olap", "-n", "20", "-rows", "60",
		"-data-dir", dataDir, "-wal", "-wal-sync", "0")
	out, err := reboot.CombinedOutput()
	if err == nil {
		reboot.Process.Kill()
		t.Fatal("boot over an orphaned WAL succeeded")
	}
	if !strings.Contains(string(out), "no snapshot or manifest") {
		t.Fatalf("boot failed for the wrong reason: %s", out)
	}
}
