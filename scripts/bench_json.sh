#!/bin/sh
# Benchmark the router-proxy overhead against direct serve on the
# cached-plan path and record the result as BENCH_shard.json, then the
# replication layer's ack coupling (replicated vs unreplicated append
# ack, fan-out read) as BENCH_replica.json, WAL/checkpoint costs as
# BENCH_wal.json, and cached-plan query latency percentiles + allocs
# as BENCH_query.json, and instrumentation overhead (metrics on vs
# off on the cached-plan path) as BENCH_obs.json, so the perf
# trajectory of the serving layer is tracked in-repo run over run.
# Exits non-zero if any benchmark fails to produce a number.
set -eu

OUT="${OUT:-BENCH_shard.json}"
REPLICA_OUT="${REPLICA_OUT:-BENCH_replica.json}"
BENCHTIME="${BENCHTIME:-500x}"

echo "== go test -bench (Direct|Router)Query -benchtime $BENCHTIME ./internal/shard"
raw=$(go test -run '^$' -bench 'BenchmarkDirectQuery$|BenchmarkRouterQuery$' \
    -benchtime "$BENCHTIME" ./internal/shard)
printf '%s\n' "$raw"

direct=$(printf '%s\n' "$raw" | awk '/^BenchmarkDirectQuery/ { print $3; exit }')
router=$(printf '%s\n' "$raw" | awk '/^BenchmarkRouterQuery/ { print $3; exit }')
if [ -z "$direct" ] || [ -z "$router" ]; then
    echo "FAIL: benchmarks produced no numbers" >&2
    exit 1
fi

awk -v d="$direct" -v r="$router" -v go_ver="$(go env GOVERSION)" 'BEGIN {
    printf "{\n"
    printf "  \"benchmark\": \"router-proxy query overhead vs direct serve (cached-plan path)\",\n"
    printf "  \"go\": \"%s\",\n", go_ver
    printf "  \"direct_ns_op\": %d,\n", d
    printf "  \"router_ns_op\": %d,\n", r
    printf "  \"overhead_x\": %.3f\n", r / d
    printf "}\n"
}' >"$OUT"

echo "== $OUT"
cat "$OUT"

echo "== go test -bench (Unreplicated|Replicated)Ack|FanoutQuery -benchtime $BENCHTIME ./internal/shard"
raw=$(go test -run '^$' \
    -bench 'BenchmarkUnreplicatedAck$|BenchmarkReplicatedAck$|BenchmarkFanoutQuery$' \
    -benchtime "$BENCHTIME" ./internal/shard)
printf '%s\n' "$raw"

unrep=$(printf '%s\n' "$raw" | awk '/^BenchmarkUnreplicatedAck/ { print $3; exit }')
rep=$(printf '%s\n' "$raw" | awk '/^BenchmarkReplicatedAck/ { print $3; exit }')
fanout=$(printf '%s\n' "$raw" | awk '/^BenchmarkFanoutQuery/ { print $3; exit }')
if [ -z "$unrep" ] || [ -z "$rep" ] || [ -z "$fanout" ]; then
    echo "FAIL: replication benchmarks produced no numbers" >&2
    exit 1
fi

awk -v u="$unrep" -v r="$rep" -v f="$fanout" -v q="$router" -v go_ver="$(go env GOVERSION)" 'BEGIN {
    printf "{\n"
    printf "  \"benchmark\": \"replicated-ack overhead vs unreplicated append (cached-plan path), fan-out read\",\n"
    printf "  \"go\": \"%s\",\n", go_ver
    printf "  \"unreplicated_ack_ns_op\": %d,\n", u
    printf "  \"replicated_ack_ns_op\": %d,\n", r
    printf "  \"replicated_ack_overhead_x\": %.3f,\n", r / u
    printf "  \"fanout_query_ns_op\": %d,\n", f
    printf "  \"router_query_ns_op\": %d\n", q
    printf "}\n"
}' >"$REPLICA_OUT"

echo "== $REPLICA_OUT"
cat "$REPLICA_OUT"

WAL_OUT="${WAL_OUT:-BENCH_wal.json}"

echo "== go test -bench AckedAppend|SnapshotFull|Checkpoint -benchtime $BENCHTIME ./internal/ingest"
raw=$(go test -run '^$' \
    -bench 'BenchmarkAckedAppendNoWAL$|BenchmarkAckedAppendWALStrict$|BenchmarkSnapshotFull$|BenchmarkCheckpoint$' \
    -benchtime "$BENCHTIME" ./internal/ingest)
printf '%s\n' "$raw"

nowal=$(printf '%s\n' "$raw" | awk '/^BenchmarkAckedAppendNoWAL/ { print $3; exit }')
strict=$(printf '%s\n' "$raw" | awk '/^BenchmarkAckedAppendWALStrict/ { print $3; exit }')
full=$(printf '%s\n' "$raw" | awk '/^BenchmarkSnapshotFull/ { print $3; exit }')
ckpt=$(printf '%s\n' "$raw" | awk '/^BenchmarkCheckpoint/ { print $3; exit }')
if [ -z "$nowal" ] || [ -z "$strict" ] || [ -z "$full" ] || [ -z "$ckpt" ]; then
    echo "FAIL: WAL benchmarks produced no numbers" >&2
    exit 1
fi

awk -v n="$nowal" -v s="$strict" -v f="$full" -v c="$ckpt" \
    -v go_ver="$(go env GOVERSION)" 'BEGIN {
    printf "{\n"
    printf "  \"benchmark\": \"WAL acked-append overhead (off / fsync before every ack), checkpoint vs full snapshot at 1%% tails\",\n"
    printf "  \"go\": \"%s\",\n", go_ver
    printf "  \"acked_append_no_wal_ns_op\": %d,\n", n
    printf "  \"acked_append_wal_strict_ns_op\": %d,\n", s
    printf "  \"snapshot_full_ns_op\": %d,\n", f
    printf "  \"checkpoint_ns_op\": %d,\n", c
    printf "  \"checkpoint_saving_x\": %.3f\n", f / c
    printf "}\n"
}' >"$WAL_OUT"

echo "== $WAL_OUT"
cat "$WAL_OUT"

QUERY_OUT="${QUERY_OUT:-BENCH_query.json}"

# Carry the previous run's numbers as prev_* fields before the file is
# overwritten, so the committed artifact always shows before/after for
# the change that regenerated it.
prev_mean=""; prev_p50=""; prev_p99=""; prev_bytes=""; prev_allocs=""
if [ -f "$QUERY_OUT" ]; then
    prev_mean=$(awk -F'[:,]' '/"mean_ns_op"/ && !/prev/ { gsub(/ /, "", $2); print $2; exit }' "$QUERY_OUT")
    prev_p50=$(awk -F'[:,]' '/"p50_ns"/ && !/prev/ { gsub(/ /, "", $2); print $2; exit }' "$QUERY_OUT")
    prev_p99=$(awk -F'[:,]' '/"p99_ns"/ && !/prev/ { gsub(/ /, "", $2); print $2; exit }' "$QUERY_OUT")
    prev_bytes=$(awk -F'[:,]' '/"bytes_op"/ && !/prev/ { gsub(/ /, "", $2); print $2; exit }' "$QUERY_OUT")
    prev_allocs=$(awk -F'[:,]' '/"allocs_op"/ && !/prev/ { gsub(/ /, "", $2); print $2; exit }' "$QUERY_OUT")
fi

echo "== go test -bench QueryPlanCached -benchtime $BENCHTIME -benchmem ./internal/api"
raw=$(go test -run '^$' -bench 'BenchmarkQueryPlanCached$' \
    -benchtime "$BENCHTIME" -benchmem ./internal/api)
printf '%s\n' "$raw"

line=$(printf '%s\n' "$raw" | awk '/^BenchmarkQueryPlanCached/ { print; exit }')
mean=$(printf '%s\n' "$line" | awk '{ for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") { print $i; exit } }')
p50=$(printf '%s\n' "$line" | awk '{ for (i = 2; i < NF; i++) if ($(i+1) == "p50_ns") { print $i; exit } }')
p99=$(printf '%s\n' "$line" | awk '{ for (i = 2; i < NF; i++) if ($(i+1) == "p99_ns") { print $i; exit } }')
bytes=$(printf '%s\n' "$line" | awk '{ for (i = 2; i <= NF; i++) if ($i == "B/op") { print $(i-1); exit } }')
allocs=$(printf '%s\n' "$line" | awk '{ for (i = 2; i <= NF; i++) if ($i == "allocs/op") { print $(i-1); exit } }')
if [ -z "$mean" ] || [ -z "$p50" ] || [ -z "$p99" ] || [ -z "$bytes" ] || [ -z "$allocs" ]; then
    echo "FAIL: query benchmark produced no numbers" >&2
    exit 1
fi

awk -v m="$mean" -v p50="$p50" -v p99="$p99" -v by="$bytes" -v al="$allocs" \
    -v pm="$prev_mean" -v pp50="$prev_p50" -v pp99="$prev_p99" \
    -v pby="$prev_bytes" -v pal="$prev_allocs" \
    -v go_ver="$(go env GOVERSION)" 'BEGIN {
    printf "{\n"
    printf "  \"benchmark\": \"cached-plan query latency (plan-cache hit path)\",\n"
    printf "  \"go\": \"%s\",\n", go_ver
    printf "  \"mean_ns_op\": %.1f,\n", m
    printf "  \"p50_ns\": %.1f,\n", p50
    printf "  \"p99_ns\": %.1f,\n", p99
    printf "  \"bytes_op\": %d,\n", by
    if (pm != "") {
        printf "  \"allocs_op\": %d,\n", al
        printf "  \"prev_mean_ns_op\": %.1f,\n", pm
        printf "  \"prev_p50_ns\": %.1f,\n", pp50
        printf "  \"prev_p99_ns\": %.1f,\n", pp99
        printf "  \"prev_bytes_op\": %d,\n", pby
        printf "  \"prev_allocs_op\": %d\n", pal
    } else {
        printf "  \"allocs_op\": %d\n", al
    }
    printf "}\n"
}' >"$QUERY_OUT"

echo "== $QUERY_OUT"
cat "$QUERY_OUT"

OBS_OUT="${OBS_OUT:-BENCH_obs.json}"

echo "== go test -bench QueryPlanCached(NoMetrics)? -benchtime $BENCHTIME -benchmem ./internal/api"
raw=$(go test -run '^$' -bench 'BenchmarkQueryPlanCached$|BenchmarkQueryPlanCachedNoMetrics$' \
    -benchtime "$BENCHTIME" -benchmem ./internal/api)
printf '%s\n' "$raw"

on=$(printf '%s\n' "$raw" | awk '/^BenchmarkQueryPlanCached[^N]/ { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") { print $i; exit } }')
off=$(printf '%s\n' "$raw" | awk '/^BenchmarkQueryPlanCachedNoMetrics/ { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") { print $i; exit } }')
on_allocs=$(printf '%s\n' "$raw" | awk '/^BenchmarkQueryPlanCached[^N]/ { for (i = 2; i <= NF; i++) if ($i == "allocs/op") { print $(i-1); exit } }')
if [ -z "$on" ] || [ -z "$off" ] || [ -z "$on_allocs" ]; then
    echo "FAIL: observability benchmarks produced no numbers" >&2
    exit 1
fi

awk -v on="$on" -v off="$off" -v al="$on_allocs" -v go_ver="$(go env GOVERSION)" 'BEGIN {
    printf "{\n"
    printf "  \"benchmark\": \"instrumentation overhead on the cached-plan query path (metrics live vs disabled)\",\n"
    printf "  \"go\": \"%s\",\n", go_ver
    printf "  \"metrics_on_ns_op\": %.1f,\n", on
    printf "  \"metrics_off_ns_op\": %.1f,\n", off
    printf "  \"overhead_x\": %.3f,\n", on / off
    printf "  \"metrics_on_allocs_op\": %d\n", al
    printf "}\n"
}' >"$OBS_OUT"

echo "== $OBS_OUT"
cat "$OBS_OUT"
