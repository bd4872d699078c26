// Package sessions implements the log-preprocessing direction the paper
// proposes in §3.3: heterogeneous logs mix queries from many analyses,
// and "preprocessing the query log by leveraging query meta-data ...,
// modeling semantic distances between queries to cluster similar
// queries, and removing anomalous queries are all promising
// approaches". This package provides the last two:
//
//   - Cluster: distance-based clustering of queries using the
//     Zhang-Shasha tree edit distance (internal/treediff), which
//     separates interleaved analyses even without client metadata;
//   - RemoveAnomalies: drop queries far from every cluster.
//
// Generating one precision interface per cluster recovers the
// single-analysis recall that a mixed-log interface loses (see
// BenchmarkClusteredRecall and the sessions tests).
package sessions

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/qlog"
	"repro/internal/treediff"
)

// Cluster is one group of queries believed to belong to one analysis.
type Cluster struct {
	// Medoid is the index (into the input log) of the central query.
	Medoid int
	// Members are input-log indices in log order.
	Members []int
}

// Log materializes the cluster as a query log (order preserved).
func (c *Cluster) Log(src *qlog.Log) *qlog.Log {
	out := &qlog.Log{}
	for _, i := range c.Members {
		e := src.Entries[i]
		out.Append(e.SQL, e.Client)
	}
	return out
}

// Options tune the clustering.
type Options struct {
	// Threshold is the maximum normalized tree edit distance between a
	// query and its cluster medoid (0 < t <= 1). Smaller values produce
	// more, purer clusters. Default 0.35 — the fixed clause-slot
	// skeleton makes even unrelated SELECTs share ~half their nodes, so
	// the useful range is below ~0.45.
	Threshold float64
	// MaxClusters caps the number of clusters (0 = unlimited). Queries
	// beyond the cap join their nearest cluster regardless of distance.
	MaxClusters int
}

// DefaultOptions returns the clustering defaults.
func DefaultOptions() Options { return Options{Threshold: 0.35} }

// ClusterLog groups the log's queries by normalized tree edit distance
// using a single-pass leader algorithm with medoid refinement: each
// query joins the nearest existing cluster if within the threshold,
// otherwise founds a new one; afterwards each cluster's medoid is
// recomputed and membership is reassigned once. The procedure is
// deterministic and O(n·k) distance computations.
func ClusterLog(log *qlog.Log, opts Options) ([]Cluster, error) {
	if opts.Threshold <= 0 {
		opts.Threshold = DefaultOptions().Threshold
	}
	queries, err := log.Parse()
	if err != nil {
		return nil, err
	}
	leaders := leaderPass(queries, opts)
	// Medoid refinement + one reassignment pass.
	refineMedoids(queries, leaders)
	reassign(queries, leaders, opts)
	refineMedoids(queries, leaders)
	// Drop empties, keep deterministic order by first member.
	var out []Cluster
	for _, c := range leaders {
		if len(c.Members) > 0 {
			out = append(out, *c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Members[0] < out[j].Members[0] })
	return out, nil
}

func leaderPass(queries []*ast.Node, opts Options) []*Cluster {
	var clusters []*Cluster
	for i, q := range queries {
		best, bestDist := -1, opts.Threshold
		for ci, c := range clusters {
			d := treediff.NormalizedDistance(q, queries[c.Medoid])
			if d <= bestDist {
				best, bestDist = ci, d
			}
		}
		if best < 0 {
			if opts.MaxClusters > 0 && len(clusters) >= opts.MaxClusters {
				// Nearest cluster regardless of threshold.
				nearest, nd := 0, 2.0
				for ci, c := range clusters {
					d := treediff.NormalizedDistance(q, queries[c.Medoid])
					if d < nd {
						nearest, nd = ci, d
					}
				}
				clusters[nearest].Members = append(clusters[nearest].Members, i)
				continue
			}
			clusters = append(clusters, &Cluster{Medoid: i, Members: []int{i}})
			continue
		}
		clusters[best].Members = append(clusters[best].Members, i)
	}
	return clusters
}

// refineMedoids sets each cluster's medoid to the member minimizing the
// summed distance to a sample of other members (full medoid computation
// is O(m²); a deterministic sample bounds the work on large clusters).
func refineMedoids(queries []*ast.Node, clusters []*Cluster) {
	const sampleCap = 24
	for _, c := range clusters {
		if len(c.Members) <= 2 {
			continue
		}
		sample := c.Members
		if len(sample) > sampleCap {
			stride := len(sample) / sampleCap
			picked := make([]int, 0, sampleCap)
			for i := 0; i < len(sample) && len(picked) < sampleCap; i += stride {
				picked = append(picked, sample[i])
			}
			sample = picked
		}
		best, bestSum := c.Medoid, -1.0
		for _, cand := range sample {
			sum := 0.0
			for _, other := range sample {
				if other != cand {
					sum += treediff.NormalizedDistance(queries[cand], queries[other])
				}
			}
			if bestSum < 0 || sum < bestSum {
				best, bestSum = cand, sum
			}
		}
		c.Medoid = best
	}
}

func reassign(queries []*ast.Node, clusters []*Cluster, opts Options) {
	for _, c := range clusters {
		c.Members = c.Members[:0]
	}
	for i, q := range queries {
		best, bestDist := 0, 2.0
		for ci, c := range clusters {
			d := treediff.NormalizedDistance(q, queries[c.Medoid])
			if d < bestDist {
				best, bestDist = ci, d
			}
		}
		clusters[best].Members = append(clusters[best].Members, i)
	}
	_ = opts
}

// RemoveAnomalies drops anomalous queries — the "removing anomalous
// queries" step of §3.3, which the paper warns should be applied with
// care. Two kinds of anomalies are removed: queries farther than
// threshold from their cluster medoid, and entire clusters smaller than
// minClusterSize (isolated one-off queries found their own singleton
// clusters, so a per-medoid distance test alone never flags them). It
// returns the kept log and the removed entries.
func RemoveAnomalies(log *qlog.Log, clusters []Cluster, threshold float64, minClusterSize int) (*qlog.Log, []qlog.Entry, error) {
	queries, err := log.Parse()
	if err != nil {
		return nil, nil, err
	}
	keepSet := make(map[int]bool, len(queries))
	for _, c := range clusters {
		if len(c.Members) < minClusterSize {
			continue
		}
		medoid := queries[c.Medoid]
		for _, i := range c.Members {
			if treediff.NormalizedDistance(queries[i], medoid) <= threshold {
				keepSet[i] = true
			}
		}
	}
	kept := &qlog.Log{}
	var removed []qlog.Entry
	for i, e := range log.Entries {
		if keepSet[i] {
			kept.Append(e.SQL, e.Client)
		} else {
			removed = append(removed, e)
		}
	}
	return kept, removed, nil
}
