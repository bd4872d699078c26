package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestFlagsAcceptCallerArgs parses every argument vector the benchmark
// harness (bench/cmd/pi-bench: boot.go prepends -addr to the vectors
// in fleet.go, ingest.go and serve.go) and scripts/*.sh pass to
// pi-serve, so deleting a flag one of them still uses fails here
// rather than in a benchmark run. Keep the literals in step with those
// callers.
func TestFlagsAcceptCallerArgs(t *testing.T) {
	argvs := [][]string{
		// bench/cmd/pi-bench
		{"-addr", "127.0.0.1:0", "-shard-addr", "http://127.0.0.1:0", "-workloads", "olap", "-n", "500",
			"-rows", "20000", "-seed", "1", "-data-dir", "/tmp/a", "-wal", "-wal-sync", "0", "-token", "t"},
		{"-addr", "127.0.0.1:0", "-shard-addr", "http://127.0.0.1:0", "-workloads", "", "-token", "t"},
		{"-addr", "127.0.0.1:0", "-workloads", "olap", "-n", "2000", "-rows", "2000", "-batch", "8", "-seed", "1"},
		{"-addr", "127.0.0.1:0", "-workloads", "olap,adhoc,sdss", "-n", "1000", "-rows", "20000", "-seed", "7"},
		// scripts/api_smoke.sh, persist_smoke.sh, wal_smoke.sh, shard_smoke.sh
		{"-addr", "127.0.0.1:8080", "-workloads", "olap", "-n", "80", "-rows", "500", "-token", "t"},
		{"-check", "-addr", "127.0.0.1:8080", "-token", "t"},
		{"-addr", "127.0.0.1:8080", "-workloads", "olap", "-n", "80", "-rows", "500", "-token", "t", "-data-dir", "/tmp/d"},
		{"-addr", "127.0.0.1:8080", "-workloads", "", "-data-dir", "/tmp/d"},
		{"-addr", "127.0.0.1:8080", "-workloads", "", "-token", "t", "-data-dir", "/tmp/d"},
		{"-addr", "127.0.0.1:8080", "-workloads", "olap", "-n", "80", "-rows", "500", "-token", "t",
			"-data-dir", "/tmp/d", "-wal", "-wal-sync", "0"},
		{"-addr", "127.0.0.1:8101", "-workloads", "olap", "-n", "80", "-rows", "400", "-token", "t",
			"-shard-addr", "http://127.0.0.1:8101"},
		// scripts/dml_smoke.sh, replica_smoke.sh
		{"-addr", "127.0.0.1:8080", "-workloads", "olap", "-n", "80", "-rows", "500", "-token", "t",
			"-data-dir", "/tmp/d", "-wal-sync", "0"},
		{"-addr", "127.0.0.1:8111", "-workloads", "olap", "-n", "40", "-rows", "200", "-token", "t",
			"-shard-addr", "http://127.0.0.1:8111", "-data-dir", "/tmp/a", "-wal-sync", "0"},
		{"-addr", "127.0.0.1:8112", "-workloads", "", "-token", "t", "-shard-addr", "http://127.0.0.1:8112",
			"-data-dir", "/tmp/b", "-wal-sync", "0"},
		// scripts/ingest_demo.sh
		{"-addr", "127.0.0.1:8080", "-workloads", "olap", "-n", "80", "-rows", "500", "-batch", "2"},
		// scripts/obs_smoke.sh
		{"-addr", "127.0.0.1:8111", "-workloads", "olap", "-n", "80", "-rows", "400", "-token", "t",
			"-shard-addr", "http://127.0.0.1:8111", "-data-dir", "/tmp/a", "-wal-sync", "0",
			"-log-format", "json", "-slow-threshold", "0", "-slow-sample", "1"},
		{"-addr", "127.0.0.1:8112", "-workloads", "", "-n", "80", "-rows", "400", "-token", "t",
			"-shard-addr", "http://127.0.0.1:8112", "-data-dir", "/tmp/b", "-wal-sync", "0",
			"-slow-threshold", "0", "-slow-sample", "1"},
	}
	for _, argv := range argvs {
		fs := flag.NewFlagSet("pi-serve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		newConfig(fs)
		if err := fs.Parse(argv); err != nil || fs.NArg() != 0 {
			t.Errorf("pi-serve %q: %v (%d stray args)", argv, err, fs.NArg())
		}
	}
}

// TestFlagCount pins the flag diet: pi-serve declares 19 flags, seven
// of them shared with pi-router through server.Flags.
func TestFlagCount(t *testing.T) {
	fs := flag.NewFlagSet("pi-serve", flag.ContinueOnError)
	newConfig(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 19 {
		t.Fatalf("pi-serve declares %d flags, want 19", n)
	}
}

// TestValidateRefusesWALSyncWindow: every ack is fsynced before it
// returns, so -wal-sync still parses for old callers but only 0 boots;
// any other value is refused with an error naming the removed mode.
func TestValidateRefusesWALSyncWindow(t *testing.T) {
	for v, boots := range map[string]bool{"0": true, "0s": true, "2ms": false, "1ns": false} {
		fs := flag.NewFlagSet("pi-serve", flag.ContinueOnError)
		c := newConfig(fs)
		if err := fs.Parse([]string{"-data-dir", "/tmp/d", "-wal-sync", v}); err != nil {
			t.Fatal(err)
		}
		err := c.validate()
		if boots && err != nil {
			t.Errorf("-wal-sync %s refused: %v", v, err)
		}
		if !boots && (err == nil || !strings.Contains(err.Error(), "interval fsync mode is removed; every ack is fsynced before it returns")) {
			t.Errorf("-wal-sync %s: validate = %v, want the removed-mode error", v, err)
		}
	}
}
