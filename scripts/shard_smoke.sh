#!/bin/sh
# End-to-end smoke of the sharding subsystem: start two pi-serve shards
# and a pi-router, host different interfaces on each shard, verify that
# queries through the router are byte-identical to direct shard
# queries, migrate an interface live while queries keep flowing (no
# failure other than structured moved errors the router/SDK follow),
# verify epoch-bound cursors minted before the migration expire with
# cursor_expired, then kill a shard and verify the structured
# shard_unavailable / degraded-health contract.
# Exits non-zero on any failure.
set -eu
. "$(dirname "$0")/lib.sh"

ROUTER_ADDR="${ROUTER_ADDR:-127.0.0.1:8100}"
A_ADDR="${A_ADDR:-127.0.0.1:8101}"
B_ADDR="${B_ADDR:-127.0.0.1:8102}"
TOKEN="${TOKEN:-shard-secret}"
BIN_DIR="$(mktemp -d)"
LOG="$(mktemp)"
LIVE_CODES="$(mktemp)"

echo "== build"
go build -o "$BIN_DIR/pi-serve" ./cmd/pi-serve
go build -o "$BIN_DIR/pi-router" ./cmd/pi-router

# query ADDR ID EXTRA_JSON -> response body
query() {
    curl -s -X POST "http://$1/v1/interfaces/$2/query" \
        -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
        -d "{\"widgets\":[]$3}"
}

# stable_part BODY -> the response minus per-call cache/stat fields
stable_part() {
    printf '%s' "$1" | sed 's/,"cache":.*//'
}

echo "== start shard A (olap) on $A_ADDR and shard B (adhoc) on $B_ADDR"
"$BIN_DIR/pi-serve" -addr "$A_ADDR" -workloads olap -n 80 -rows 400 \
    -token "$TOKEN" -shard-addr "http://$A_ADDR" >>"$LOG" 2>&1 &
A_PID=$!
"$BIN_DIR/pi-serve" -addr "$B_ADDR" -workloads adhoc -n 80 -rows 400 \
    -token "$TOKEN" -shard-addr "http://$B_ADDR" >>"$LOG" 2>&1 &
B_PID=$!
wait_up "$A_ADDR" "shard A"
wait_up "$B_ADDR" "shard B"

echo "== start router on $ROUTER_ADDR over both shards"
"$BIN_DIR/pi-router" -addr "$ROUTER_ADDR" -shards "$A_ADDR,$B_ADDR" \
    -token "$TOKEN" -refresh-every 0 >>"$LOG" 2>&1 &
R_PID=$!
wait_up "$ROUTER_ADDR" "router"

echo "== router merges both shards' interfaces"
list=$(curl -s "http://$ROUTER_ADDR/v1/interfaces")
case "$list" in
*'"id":"adhoc"'*'"id":"olap"'*) ;;
*) fail "router list missing interfaces: $list" ;;
esac

echo "== queries through the router are byte-identical to direct shard queries"
routed=$(query "$ROUTER_ADDR" olap ',"limit":10')
direct=$(query "$A_ADDR" olap ',"limit":10')
[ -n "$(stable_part "$routed")" ] || fail "empty routed response: $routed"
if [ "$(stable_part "$routed")" != "$(stable_part "$direct")" ]; then
    fail "routed response differs from direct:
router: $routed
direct: $direct"
fi

echo "== SDK round-trip through the router (pi-serve -check)"
"$BIN_DIR/pi-serve" -check -addr "$ROUTER_ADDR" -token "$TOKEN" >>"$LOG" 2>&1 \
    || fail "pi-serve -check against the router failed"

echo "== mint an epoch-bound cursor on adhoc (it paginates; olap's initial aggregate does not)"
page1=$(query "$ROUTER_ADDR" adhoc ',"limit":2')
cursor=$(json_str "$page1" nextCursor)
[ -n "$cursor" ] || fail "initial adhoc query minted no cursor: $page1"

echo "== migrate olap A -> B while queries keep flowing"
(
    i=0
    while [ "$i" -lt 50 ]; do
        i=$((i + 1))
        curl -s -o /dev/null -w '%{http_code}\n' \
            -X POST "http://$ROUTER_ADDR/v1/interfaces/olap/query" \
            -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
            -d '{"widgets":[],"limit":5}' >>"$LIVE_CODES"
    done
) &
LIVE_PID=$!
mig=$(curl -s -X POST "http://$ROUTER_ADDR/v1/router/migrate" \
    -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
    -d "{\"id\":\"olap\",\"to\":\"http://$B_ADDR\"}")
case "$mig" in
*'"id":"olap"'*"$B_ADDR"*) ;;
*) fail "migrate failed: $mig" ;;
esac
wait "$LIVE_PID"
bad=$(grep -cv '^200$' "$LIVE_CODES" || true)
[ "$bad" = "0" ] || fail "$bad live queries failed during migration: $(sort "$LIVE_CODES" | uniq -c | tr '\n' ' ')"
echo "   $(wc -l <"$LIVE_CODES" | tr -d ' ') live queries, all 200 during the migration"

echo "== source shard answers with a structured moved error"
moved=$(query "$A_ADDR" olap ',"limit":1')
[ "$(json_str "$moved" code)" = "moved" ] || fail "source shard did not answer moved: $moved"
case "$(json_str "$moved" addr)" in
*"$B_ADDR"*) ;;
*) fail "moved error does not carry the new owner: $moved" ;;
esac

echo "== router serves olap from shard B, identical to direct"
routed=$(query "$ROUTER_ADDR" olap ',"limit":10')
direct=$(query "$B_ADDR" olap ',"limit":10')
[ "$(stable_part "$routed")" = "$(stable_part "$direct")" ] \
    || fail "post-migration routed response differs from shard B"

echo "== migrate adhoc B -> A so each shard owns one interface again"
mig2=$(curl -s -X POST "http://$ROUTER_ADDR/v1/router/migrate" \
    -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
    -d "{\"id\":\"adhoc\",\"to\":\"http://$A_ADDR\"}")
case "$mig2" in
*'"id":"adhoc"'*) ;;
*) fail "migrate adhoc failed: $mig2" ;;
esac

echo "== cursor minted before the migration expires with cursor_expired"
stale=$(query "$ROUTER_ADDR" adhoc ",\"limit\":2,\"cursor\":\"$cursor\"")
[ "$(json_str "$stale" code)" = "cursor_expired" ] \
    || fail "stale cursor not expired: $stale"

echo "== kill shard B: structured shard_unavailable, degraded health"
kill -9 "$B_PID"
wait "$B_PID" 2>/dev/null || true
B_PID=""
down=$(query "$ROUTER_ADDR" olap ',"limit":1')
[ "$(json_str "$down" code)" = "shard_unavailable" ] \
    || fail "dead shard query did not return shard_unavailable: $down"
health=$(curl -s "http://$ROUTER_ADDR/v1/healthz")
# Anchored: the fleet status is the first field; shard rows carry their
# own "status" keys later in the body.
[ "$(printf '%s' "$health" | sed -n 's/^{"status":"\([^"]*\)".*/\1/p')" = "degraded" ] \
    || fail "health not degraded with a dead shard: $health"
case "$health" in
*'"status":"unreachable"'*) ;;
*) fail "health does not mark the dead shard unreachable: $health" ;;
esac

echo "== surviving shard keeps serving through the router"
alive=$(query "$ROUTER_ADDR" adhoc ',"limit":1')
[ -z "$(json_str "$alive" code)" ] || fail "adhoc query failed after B died: $alive"

echo "shard smoke: ok"
