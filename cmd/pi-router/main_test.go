package main

import (
	"flag"
	"io"
	"testing"
)

// TestFlagsAcceptCallerArgs parses every argument vector the benchmark
// harness (bench/cmd/pi-bench/fleet.go, with the -addr boot.go
// prepends) and scripts/*.sh pass to pi-router, so deleting a flag one
// of them still uses fails here rather than in a benchmark run. Keep
// the literals in step with those callers.
func TestFlagsAcceptCallerArgs(t *testing.T) {
	argvs := [][]string{
		// bench/cmd/pi-bench/fleet.go
		{"-addr", "127.0.0.1:0", "-shards", "http://127.0.0.1:1,http://127.0.0.1:2", "-replicas", "2",
			"-refresh-every", "200ms", "-token", "t"},
		// scripts/shard_smoke.sh
		{"-addr", "127.0.0.1:8100", "-shards", "127.0.0.1:8101,127.0.0.1:8102", "-token", "t", "-refresh-every", "0"},
		// scripts/dml_smoke.sh
		{"-addr", "127.0.0.1:8110", "-shards", "127.0.0.1:8111,127.0.0.1:8112", "-token", "t",
			"-refresh-every", "1s", "-replicas", "2"},
		// scripts/obs_smoke.sh
		{"-addr", "127.0.0.1:8110", "-shards", "127.0.0.1:8111,127.0.0.1:8112", "-token", "t",
			"-refresh-every", "1s", "-replicas", "2", "-slow-threshold", "0", "-slow-sample", "1"},
		// scripts/replica_smoke.sh
		{"-addr", "127.0.0.1:8100", "-shards", "127.0.0.1:8101,127.0.0.1:8102,127.0.0.1:8103", "-token", "t",
			"-refresh-every", "1s", "-replicas", "2", "-read-fanout", "-failover"},
	}
	for _, argv := range argvs {
		fs := flag.NewFlagSet("pi-router", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		newConfig(fs)
		if err := fs.Parse(argv); err != nil || fs.NArg() != 0 {
			t.Errorf("pi-router %q: %v (%d stray args)", argv, err, fs.NArg())
		}
	}
}

// TestFlagCount pins the flag diet: pi-router declares 13 flags, seven
// of them shared with pi-serve through server.Flags.
func TestFlagCount(t *testing.T) {
	fs := flag.NewFlagSet("pi-router", flag.ContinueOnError)
	newConfig(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 13 {
		t.Fatalf("pi-router declares %d flags, want 13", n)
	}
}
