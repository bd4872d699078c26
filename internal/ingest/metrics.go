package ingest

import (
	"repro/internal/obs"
)

// Ingest metric families. All lazy: each hosted feed registers
// closures that read its existing counters under the feed mutex at
// scrape time, so Submit/SubmitRows/SubmitMutation carry zero metric
// bookkeeping and the exposed numbers are exactly what /v1/debug
// reports. A re-hosted interface re-registers, replacing the closure;
// a deleted one freezes at its final values.
var (
	mxAccepted = obs.Default.CounterVec("pi_ingest_accepted_total",
		"Query-log entries accepted into the interface's feed.", "iface")
	mxDropped = obs.Default.CounterVec("pi_ingest_dropped_total",
		"Query-log entries dropped because they failed to parse.", "iface")
	mxFlushes = obs.Default.CounterVec("pi_ingest_flushes_total",
		"Log publications that re-mined submitted entries and bumped the epoch.", "iface")
	mxRowsAppended = obs.Default.CounterVec("pi_ingest_rows_appended_total",
		"Dataset rows appended through the ingestion surface.", "iface")
	mxMutations = obs.Default.CounterVec("pi_ingest_mutations_total",
		"UPDATE/DELETE mutations published through the feed.", "iface")
	mxFeedSeq = obs.Default.GaugeVec("pi_ingest_seq",
		"The feed's publish sequence number (what the replication stream rides on).", "iface")
)

// registerFeedMetrics hooks one feed into the registry at host() time.
func registerFeedMetrics(id string, f *feed) {
	counter := func(field *uint64) func() uint64 {
		return func() uint64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return *field
		}
	}
	mxAccepted.Func(counter(&f.accepted), id)
	mxDropped.Func(counter(&f.dropped), id)
	mxFlushes.Func(counter(&f.flushes), id)
	mxRowsAppended.Func(counter(&f.rowsAppended), id)
	mxMutations.Func(counter(&f.mutations), id)
	mxFeedSeq.Func(func() float64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return float64(f.seq)
	}, id)
}
