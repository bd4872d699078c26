// Command pi-loggen generates the synthetic query logs used throughout
// the evaluation (SDSS-style client sessions, the OLAP random walk, and
// the ad-hoc student log) in the text format cmd/pi reads.
//
// Usage:
//
//	pi-loggen -kind sdss|olap|adhoc|mixed [-n 200] [-seed 1] [-clients 1] [-arch lookup|radial|filter|slowburn] [-mutate-frac 0.01]
//
// -mutate-frac weaves UPDATE/DELETE statements against the workload's
// ontime table into the stream at the given fraction, for driving the
// DML path (POST /v1/interfaces/{id}/mutate) alongside read mining.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/qlog"
	"repro/internal/workload"
)

func main() {
	kind := flag.String("kind", "sdss", "log kind: sdss, olap, adhoc, mixed")
	n := flag.Int("n", 200, "queries per client")
	seed := flag.Int64("seed", 1, "random seed")
	clients := flag.Int("clients", 1, "number of clients (sdss and mixed)")
	arch := flag.String("arch", "lookup", "sdss archetype: lookup, radial, filter, slowburn")
	mutateFrac := flag.Float64("mutate-frac", 0, "fraction of lines that are UPDATE/DELETE mutations against ontime (0 disables)")
	flag.Parse()

	var log *qlog.Log
	switch *kind {
	case "sdss":
		if *clients > 1 {
			log = qlog.Interleave(workload.SDSSClients(*clients, *n, *seed)...)
		} else {
			log = workload.SDSSClient(parseArch(*arch), *seed, *n)
		}
	case "olap":
		log = workload.OLAPLog(*n, *seed)
	case "adhoc":
		log = workload.AdhocLog(*n, *seed)
	case "mixed":
		log = qlog.Interleave(workload.HeterogeneousClients(*clients, *n, *seed)...)
	default:
		fmt.Fprintf(os.Stderr, "pi-loggen: unknown kind %q\n", *kind)
		os.Exit(1)
	}
	if *mutateFrac > 0 {
		log = interleaveMutations(log, *mutateFrac, *seed)
	}
	if err := log.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pi-loggen:", err)
		os.Exit(1)
	}
}

// interleaveMutations weaves UPDATE/DELETE statements against the
// ontime table into the stream: after each generated query, with
// probability frac, one mutation follows under the same client.
// Deterministic from seed, like the query generators. The mutations
// target the OnTime schema's filter columns so they evaluate against
// the synthetic dataset as written.
func interleaveMutations(log *qlog.Log, frac float64, seed int64) *qlog.Log {
	if frac > 1 {
		frac = 1
	}
	r := rand.New(rand.NewSource(seed ^ 0x6d7574)) // differs from the query generators' stream
	out := &qlog.Log{}
	for _, e := range log.Entries {
		out.Entries = append(out.Entries, e)
		if r.Float64() >= frac {
			continue
		}
		var sql string
		if r.Intn(2) == 0 {
			sql = fmt.Sprintf("UPDATE ontime SET delay = %d WHERE month = %d AND day = %d",
				r.Intn(240)-30, 1+r.Intn(12), 1+r.Intn(28))
		} else {
			sql = fmt.Sprintf("DELETE FROM ontime WHERE canceled = 1 AND month = %d AND dayofweek = %d",
				1+r.Intn(12), 1+r.Intn(7))
		}
		out.Append(sql, e.Client)
	}
	return out
}

func parseArch(s string) workload.Archetype {
	switch s {
	case "lookup":
		return workload.Lookup
	case "radial":
		return workload.Radial
	case "filter":
		return workload.Filter
	case "slowburn":
		return workload.SlowBurn
	}
	fmt.Fprintf(os.Stderr, "pi-loggen: unknown archetype %q\n", s)
	os.Exit(1)
	return 0
}
