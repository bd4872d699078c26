package wal

import (
	"repro/internal/obs"
)

// WAL metric families, aggregated across every open log (one log per
// interface shares the handles — the interesting signal is the disk,
// which they all share). Counters are incremented inline next to the
// existing per-log counters; the histograms time the actual syscalls,
// so the ~ns of an atomic add is noise against the fsync they sit
// beside.
var (
	mxAppendDur = obs.Default.HistogramVec("pi_wal_append_seconds",
		"Latency of one WAL append, including the group-commit wait.",
		obs.LatencyBuckets).With()
	mxFsyncDur = obs.Default.HistogramVec("pi_wal_fsync_seconds",
		"Latency of one WAL fsync (group-commit leader, segment seal or truncation).",
		obs.LatencyBuckets).With()
	mxBatch = obs.Default.UnitHistogramVec("pi_wal_commit_batch_size",
		"Records made durable per fsync (group-commit batch size).",
		obs.SizeBuckets).With()
	mxAppends = obs.Default.CounterVec("pi_wal_appends_total",
		"WAL records written across all logs.").With()
	mxSyncs = obs.Default.CounterVec("pi_wal_syncs_total",
		"WAL fsyncs issued across all logs.").With()
)
