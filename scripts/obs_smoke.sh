#!/bin/sh
# End-to-end smoke of the observability layer: start two WAL-backed
# shards behind a router running -replicas 2, drive routed queries and
# acked row appends, then scrape GET /v1/metrics on all three
# processes and assert the query, WAL, replication and router-proxy
# series exist and moved. Finally pin the cross-hop trace contract: a
# client-supplied Pi-Trace-Id sent to the router must come back on the
# response, show up in the owning shard's request log, and land in
# both the router's and the shard's /v1/debug/slow rings.
# Exits non-zero on any failure.
set -eu
. "$(dirname "$0")/lib.sh"

ROUTER_ADDR="${ROUTER_ADDR:-127.0.0.1:8110}"
A_ADDR="${A_ADDR:-127.0.0.1:8111}"
B_ADDR="${B_ADDR:-127.0.0.1:8112}"
TOKEN="${TOKEN:-obs-secret}"
TRACE_ID="smoketrace123"
BIN_DIR="$(mktemp -d)"
A_DIR="$(mktemp -d)"
B_DIR="$(mktemp -d)"
A_LOG="$(mktemp)"
B_LOG="$(mktemp)"
R_LOG="$(mktemp)"

ROW='["AA","AA","CAP","NYP","CA","NY",1,1,1,10,10,10,500,1,0,0]'

echo "== build"
go build -o "$BIN_DIR/pi-serve" ./cmd/pi-serve
go build -o "$BIN_DIR/pi-router" ./cmd/pi-router

# series_value SCRAPE GREP_PATTERN -> sum of every matching sample
# (handles preallocated zero-valued label combos; empty when no match).
series_value() {
    printf '%s\n' "$1" | grep -- "$2" | grep -v '^#' |
        awk '{s += $NF} END { if (NR) printf "%g\n", s }'
}

# assert_moved SCRAPE PATTERN WHO -> fails unless the series exists
# with a value strictly greater than zero.
assert_moved() {
    v="$(series_value "$1" "$2")"
    [ -n "$v" ] || fail "$3: no series matching $2 in scrape"
    case "$v" in
    0 | 0.0 | -*) fail "$3: series $2 did not move (value $v)" ;;
    esac
}

echo "== start shard A (owner, wal, json request log)"
"$BIN_DIR/pi-serve" -addr "$A_ADDR" -workloads olap -n 80 -rows 400 \
    -token "$TOKEN" -shard-addr "http://$A_ADDR" \
    -data-dir "$A_DIR" -wal-sync 0 \
    -log-format json -slow-threshold 0 -slow-sample 1 >>"$A_LOG" 2>&1 &
A_PID=$!

echo "== start shard B (empty standby, wal)"
"$BIN_DIR/pi-serve" -addr "$B_ADDR" -workloads '' -n 80 -rows 400 \
    -token "$TOKEN" -shard-addr "http://$B_ADDR" \
    -data-dir "$B_DIR" -wal-sync 0 \
    -slow-threshold 0 -slow-sample 1 >>"$B_LOG" 2>&1 &
B_PID=$!

wait_up "$A_ADDR" "shard A"
wait_up "$B_ADDR" "shard B"

echo "== start router (-replicas 2)"
"$BIN_DIR/pi-router" -addr "$ROUTER_ADDR" -shards "$A_ADDR,$B_ADDR" \
    -token "$TOKEN" -refresh-every 1s -replicas 2 \
    -slow-threshold 0 -slow-sample 1 >>"$R_LOG" 2>&1 &
R_PID=$!
wait_up "$ROUTER_ADDR" "router"

echo "== drive routed queries"
i=0
while [ "$i" -lt 40 ]; do
    i=$((i + 1))
    code=$(curl -s -o /dev/null -w '%{http_code}' \
        -X POST "http://$ROUTER_ADDR/v1/interfaces/olap/query" \
        -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
        -d '{"widgets":[],"limit":1}')
    [ "$code" = 200 ] || fail "routed query $i returned $code"
done

echo "== drive acked appends (WAL + replication stream)"
i=0
while [ "$i" -lt 10 ]; do
    i=$((i + 1))
    code=$(curl -s -o /dev/null -w '%{http_code}' \
        -X POST "http://$ROUTER_ADDR/v1/interfaces/olap/rows?flush=1" \
        -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
        -d "{\"table\":\"ontime\",\"rows\":[$ROW]}")
    # acked appends come back 202 Accepted
    case "$code" in 200 | 202) ;; *) fail "routed append $i returned $code" ;; esac
done

echo "== wait for the follower to report stream position"
i=0
while :; do
    B_SCRAPE="$(curl -s "http://$B_ADDR/v1/metrics")"
    v="$(series_value "$B_SCRAPE" 'pi_replica_seq{iface="olap"}')"
    [ -n "$v" ] && [ "$v" != 0 ] && break
    i=$((i + 1))
    [ "$i" -gt 120 ] || { sleep 0.25; continue; }
    fail "follower on B never reported pi_replica_seq > 0"
done

echo "== scrape shard A"
A_SCRAPE="$(curl -s "http://$A_ADDR/v1/metrics")"
printf '%s\n' "$A_SCRAPE" | grep -q '^# TYPE pi_query_duration_seconds histogram' ||
    fail "shard A: query latency histogram family missing"
assert_moved "$A_SCRAPE" 'pi_queries_total{iface="olap"}' "shard A"
assert_moved "$A_SCRAPE" 'pi_http_requests_total{route="POST /v1/interfaces/{id}/query",class="2xx"}' "shard A"
assert_moved "$A_SCRAPE" 'pi_query_duration_seconds_count{iface="olap"' "shard A"
assert_moved "$A_SCRAPE" 'pi_wal_appends_total' "shard A"
assert_moved "$A_SCRAPE" 'pi_wal_syncs_total' "shard A"
assert_moved "$A_SCRAPE" 'pi_wal_fsync_seconds_count' "shard A"
assert_moved "$A_SCRAPE" 'pi_replica_seq{iface="olap"}' "shard A"
assert_moved "$A_SCRAPE" 'pi_replica_seeds_total{iface="olap"}' "shard A"

echo "== scrape shard B (follower)"
assert_moved "$B_SCRAPE" 'class="2xx"' "shard B"
assert_moved "$B_SCRAPE" 'pi_replica_seq{iface="olap"}' "shard B"

echo "== scrape router"
R_SCRAPE="$(curl -s "http://$ROUTER_ADDR/v1/metrics")"
assert_moved "$R_SCRAPE" "pi_router_proxy_total{shard=\"http://$A_ADDR\"}" "router"
assert_moved "$R_SCRAPE" "pi_router_shard_interfaces{shard=\"http://$A_ADDR\"}" "router"
assert_moved "$R_SCRAPE" 'pi_router_proxy_seconds_count' "router"
assert_moved "$R_SCRAPE" 'class="2xx"' "router"

echo "== trace id round trip router -> shard"
hdr=$(curl -s -D - -o /dev/null \
    -X POST "http://$ROUTER_ADDR/v1/interfaces/olap/query" \
    -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
    -H "Pi-Trace-Id: $TRACE_ID" \
    -d '{"widgets":[],"limit":1}')
printf '%s' "$hdr" | grep -qi "^Pi-Trace-Id: $TRACE_ID" ||
    fail "router response did not echo the client trace id"

grep -q "$TRACE_ID" "$A_LOG" ||
    fail "shard A request log never saw the propagated trace id"

curl -s "http://$A_ADDR/v1/debug/slow" | grep -q "\"traceId\":\"$TRACE_ID\"" ||
    fail "shard A slow-query ring has no entry for the trace id"
curl -s "http://$ROUTER_ADDR/v1/debug/slow" | grep -q "\"traceId\":\"$TRACE_ID\"" ||
    fail "router slow-query ring has no entry for the trace id"

echo "PASS: obs smoke (fleet scrape + cross-hop trace) OK"
