GO ?= go

.PHONY: check fmt-check vet build test race fuzz cover loc bench microbench bench-json perf-gate ingest-demo api-smoke persist-smoke shard-smoke replica-smoke wal-smoke dml-smoke obs-smoke

check: fmt-check vet build race

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every fuzz target for 10 s on top of its checked-in seed corpus
# (testdata/fuzz); go test takes one -fuzz target per run.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/sqlparser
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s ./internal/qlog
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzStore$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzUpgrade$$' -fuzztime 10s ./internal/upgrade
	$(GO) test -run '^$$' -fuzz '^FuzzRecord$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzCompare$$' -fuzztime 10s ./internal/treediff
	$(GO) test -run '^$$' -fuzz '^FuzzIntern$$' -fuzztime 10s ./internal/ast
	$(GO) test -run '^$$' -fuzz '^FuzzMerge$$' -fuzztime 10s ./internal/mapper
	$(GO) test -run '^$$' -fuzz '^FuzzPlanKey$$' -fuzztime 10s ./internal/api
	$(GO) test -run '^$$' -fuzz '^FuzzColumnarMatchesRow$$' -fuzztime 10s ./internal/engine

# Tier-1 statement coverage: the total, the library functions no test
# runs, and a failure for each one scripts/cover_allow.txt does not name.
cover:
	sh scripts/cover.sh

# Non-test Go line counts: the whole repo, and the serving scoreboard
# (the packages behind pi-serve and pi-router) that ROADMAP tracks.
SERVING = internal/api internal/ingest internal/replica internal/server internal/shard internal/store internal/wal
loc:
	@printf 'repo    %6d\n' "$$(find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"
	@printf 'serving %6d\n' "$$(find $(SERVING) -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"

# The gating benchmark (BENCHMARK.json, bench/README.md): one workload
# against freshly built binaries, e.g. make bench WORKLOAD=ingest_live.
WORKLOAD ?= mine_batch
SEED ?= 1
SECONDS ?= 12
bench:
	bash bench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECONDS)

# The ungated in-process micro-benchmarks (paper figures, serving, storage).
microbench:
	$(GO) test -bench=. -benchmem .

# End-to-end drive of the live-ingestion subsystem: build pi-serve,
# query it, stream new log entries in, watch the epoch bump.
ingest-demo:
	sh scripts/ingest_demo.sh

# End-to-end smoke of the v1 API: start pi-serve with a bearer token,
# exercise it through the pi/client SDK (pi-serve -check) and verify
# the auth + error contracts with raw curl.
api-smoke:
	sh scripts/api_smoke.sh

# End-to-end smoke of the versioned storage layer: pi-serve with
# -data-dir, append rows + ingest log entries, snapshot (a checkpoint
# that writes nothing after a small append), SIGKILL, restart on the
# same dir, verify epoch/rows/queries survived through base + log.
persist-smoke:
	sh scripts/persist_smoke.sh

# End-to-end smoke of the sharding subsystem: two shards + a router,
# byte-identical routed queries, a live migration under load, cursor
# expiry across the move, structured errors after a shard dies.
shard-smoke:
	sh scripts/shard_smoke.sh

# End-to-end smoke of the replication subsystem: one owner + two empty
# standbys behind a router with -replicas 2 -read-fanout -failover,
# SIGKILL the owner under live load, assert promotion, zero lost acked
# writes, zero failed reads, follower re-seed, degraded -> healthy.
replica-smoke:
	sh scripts/replica_smoke.sh

# End-to-end smoke of the write-ahead log: pi-serve -data-dir, acked
# appends that no snapshot ever covers, SIGKILL, restart, verify the
# logged tail replayed them; then a checkpoint that writes no new
# file and a second crash restoring through base + log.
wal-smoke:
	sh scripts/wal_smoke.sh

# End-to-end smoke of the DML/MVCC path: acked UPDATE/DELETE mutations
# that no snapshot covers, SIGKILL, restart, verify the WAL replayed
# them (updated values live, deleted rows gone); then a follower bounce
# that must catch the mutations up through the logged tail, not a
# re-seed.
dml-smoke:
	sh scripts/dml_smoke.sh

# End-to-end smoke of the observability layer: router + two WAL-backed
# shards under -replicas 2, drive routed queries and acked appends,
# scrape GET /v1/metrics on all three processes asserting the query,
# WAL, replication and router-proxy series moved, and verify a
# client-supplied Pi-Trace-Id round-trips router -> shard into the
# request logs and both /v1/debug/slow rings.
obs-smoke:
	sh scripts/obs_smoke.sh

# Benchmark router-proxy overhead vs direct serve (BENCH_shard.json),
# the replication layer's ack coupling + fan-out read
# (BENCH_replica.json), and the WAL's acked-append overhead +
# checkpoint-vs-full snapshot cost (BENCH_wal.json), so the perf
# trajectory is tracked run over run.
bench-json:
	sh scripts/bench_json.sh

# Gate the cached-plan query path against the checked-in
# BENCH_query.json: fresh p50 must stay within 3x (CI noise tolerance)
# and allocs/op must not exceed the baseline.
perf-gate:
	sh scripts/perf_gate.sh
