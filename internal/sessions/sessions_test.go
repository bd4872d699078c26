package sessions

import (
	"testing"

	"repro/internal/core"
	"repro/internal/interaction"
	"repro/internal/qlog"
	"repro/internal/workload"
)

func mixedLog() *qlog.Log {
	return qlog.Interleave(
		workload.SDSSClientV(workload.Lookup, 1, 10, 40),
		workload.SDSSClientV(workload.Radial, 2, 20, 40),
		workload.OLAPLog(40, 30),
	)
}

// TestClusterLogSeparatesTwoAnalyses: two interleaved analyses, two
// statements each, come back as exactly two clusters.
func TestClusterLogSeparatesTwoAnalyses(t *testing.T) {
	log := qlog.FromSQL(
		"SELECT * FROM SpecLineIndex WHERE specObjId = 0x400",
		"SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 GROUP BY DestState",
		"SELECT * FROM SpecLineIndex WHERE specObjId = 0x10",
		"SELECT COUNT(Delay), OriginState FROM ontime WHERE Month = 3 GROUP BY OriginState",
	)
	clusters, err := ClusterLog(log, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d, want the two analyses separated", len(clusters))
	}
}

func TestClusterSeparatesAnalyses(t *testing.T) {
	log := mixedLog()
	clusters, err := ClusterLog(log, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) < 2 || len(clusters) > 8 {
		t.Fatalf("clusters = %d, want a handful (got %v)", len(clusters), clusters)
	}
	// Purity: every cluster should be dominated by one client.
	for i, c := range clusters {
		counts := map[string]int{}
		for _, m := range c.Members {
			counts[log.Entries[m].Client]++
		}
		max, total := 0, 0
		for _, n := range counts {
			total += n
			if n > max {
				max = n
			}
		}
		if purity := float64(max) / float64(total); purity < 0.9 {
			t.Errorf("cluster %d purity %.2f (%v)", i, purity, counts)
		}
	}
	// Coverage: every query assigned exactly once.
	seen := map[int]bool{}
	for _, c := range clusters {
		for _, m := range c.Members {
			if seen[m] {
				t.Fatalf("query %d assigned twice", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != log.Len() {
		t.Fatalf("assigned %d of %d queries", len(seen), log.Len())
	}
}

func TestClusterDeterministic(t *testing.T) {
	log := mixedLog()
	a, err := ClusterLog(log, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusterLog(log, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic cluster count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Medoid != b[i].Medoid || len(a[i].Members) != len(b[i].Members) {
			t.Fatalf("cluster %d differs between runs", i)
		}
	}
}

func TestMaxClustersCap(t *testing.T) {
	log := mixedLog()
	clusters, err := ClusterLog(log, Options{Threshold: 0.1, MaxClusters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) > 2 {
		t.Fatalf("cap ignored: %d clusters", len(clusters))
	}
}

// TestClusteredInterfacesRecoverRecall is the payoff experiment for the
// §3.3 preprocessing proposal: a single interface over a mixed log
// generalizes poorly, but clustering first and generating one interface
// per cluster recovers per-analysis recall.
func TestClusteredInterfacesRecoverRecall(t *testing.T) {
	full := qlog.Interleave(
		workload.SDSSClientV(workload.Lookup, 1, 10, 160),
		workload.SDSSClientV(workload.Filter, 3, 20, 160),
	)
	train := full.Slice(0, 120)
	holdout := full.Slice(240, 320) // later queries from both clients
	holdQ, err := holdout.Parse()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Miner: interaction.Options{WindowSize: 0, LCAPrune: true}}

	clusters, err := ClusterLog(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) < 2 {
		t.Fatalf("expected the two analyses to separate, got %d cluster(s)", len(clusters))
	}
	var ifaces []*core.Interface
	for _, c := range clusters {
		iface, err := core.Generate(c.Log(train), opts)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, iface)
	}
	// A holdout query counts when ANY per-cluster interface expresses it
	// (the user picks the interface for their analysis).
	covered := 0
	for _, q := range holdQ {
		for _, iface := range ifaces {
			if iface.CanExpress(q) {
				covered++
				break
			}
		}
	}
	recall := float64(covered) / float64(len(holdQ))
	if recall < 0.9 {
		t.Fatalf("clustered recall = %.2f, want >= 0.9", recall)
	}
}

func TestRemoveAnomalies(t *testing.T) {
	log := workload.SDSSClientV(workload.Lookup, 1, 10, 60)
	// Inject two out-of-analysis queries.
	log.Append("SELECT (CASE x WHEN 1 THEN 'a' ELSE 'b' END), FLOOR(y/7) FROM weird GROUP BY z HAVING COUNT(*) > 3", "noise")
	log.Append("SELECT a, b, c, d, e FROM other1, other2, other3 WHERE q LIKE '%odd%'", "noise")
	clusters, err := ClusterLog(log, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	kept, removed, err := RemoveAnomalies(log, clusters, 0.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if kept.Len()+len(removed) != log.Len() {
		t.Fatalf("kept %d + removed %d != %d", kept.Len(), len(removed), log.Len())
	}
	// Both noise queries founded singleton clusters; the min-cluster-
	// size rule must flag them.
	if len(removed) != 2 {
		t.Fatalf("removed %d queries, want the 2 noise queries: %v", len(removed), removed)
	}
	for _, e := range removed {
		if e.Client != "noise" {
			t.Errorf("legitimate query removed: %q", e.SQL)
		}
	}
	for _, e := range kept.Entries {
		if e.Client == "noise" {
			t.Errorf("noise query kept: %q", e.SQL)
		}
	}
}
