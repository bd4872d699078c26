#!/bin/sh
# End-to-end smoke of the DML path (UPDATE/DELETE published as rowid-keyed
# table versions): start pi-serve with -data-dir,
# append marker rows, run acked UPDATE/DELETE mutations WITHOUT ever
# snapshotting, SIGKILL the process, restart on the same data dir, and
# verify every acked mutation replayed from the WAL tail — updated
# values present, deleted rows still gone, zero acked-then-lost. Then
# prove follower catch-up: owner + standby behind a router with
# -replicas 2, bounce the follower, mutate while it is down, and verify
# it re-syncs through the logged tail (no full re-seed) with its epoch
# in lockstep. Exits non-zero on any failure.
set -eu
. "$(dirname "$0")/lib.sh"

ADDR="${ADDR:-127.0.0.1:8098}"
TOKEN="${TOKEN:-dml-secret}"
BIN_DIR="$(mktemp -d)"
DATA_DIR="$(mktemp -d)"
LOG="$(mktemp)"

echo "== build"
go build -o "$BIN_DIR/pi-serve" ./cmd/pi-serve
go build -o "$BIN_DIR/pi-router" ./cmd/pi-router

# Marker rows: distance values (9999/8888/7777) that OnTimeDB never
# generates (it stays under 3000), so predicates select exactly them.
marker_row() { # DISTANCE
    printf '["AA","AA","CAP","NYP","CA","NY",1,1,1,10,12,8,%s,1,0,0]' "$1"
}

append_rows() { # BASE_URL DISTANCE N -> ack body
    n="$3"
    payload=""
    while [ "$n" -gt 0 ]; do
        payload="$payload${payload:+,}$(marker_row "$2")"
        n=$((n - 1))
    done
    curl -s -X POST "$1/v1/interfaces/olap/rows?flush=1" \
        -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
        -d "{\"table\":\"ontime\",\"rows\":[$payload]}"
}

mutate() { # BASE_URL SQL -> ack body
    curl -s -X POST "$1/v1/interfaces/olap/mutate" \
        -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
        -d "{\"sql\":\"$2\"}"
}

start_server() {
    "$BIN_DIR/pi-serve" -addr "$ADDR" -workloads olap -n 80 -rows 500 \
        -token "$TOKEN" -data-dir "$DATA_DIR" -wal-sync 0 >>"$LOG" 2>&1 &
    PID=$!
    wait_up "$ADDR" "pi-serve"
}

echo "== first life: pi-serve -data-dir on $ADDR"
start_server

echo "== marker rows the mutations will target"
body=$(append_rows "http://$ADDR" 9999 3)
[ "$(json_int "$body" rowCount)" = "503" ] || fail "marker append ack: $body"
body=$(append_rows "http://$ADDR" 8888 2)
[ "$(json_int "$body" rowCount)" = "505" ] || fail "second marker append ack: $body"

echo "== acked UPDATE and DELETE that no snapshot ever covers"
body=$(mutate "http://$ADDR" "UPDATE ontime SET delay = 12345 WHERE distance = 9999")
[ "$(json_int "$body" matched)" = "3" ] && [ "$(json_int "$body" updated)" = "3" ] \
    || fail "update ack = $body, want 3 matched/updated"
body=$(mutate "http://$ADDR" "DELETE FROM ontime WHERE distance = 8888")
[ "$(json_int "$body" matched)" = "2" ] && [ "$(json_int "$body" deleted)" = "2" ] \
    || fail "delete ack = $body, want 2 matched/deleted"

echo "== a stale ifEpoch refuses with 409 mutation_conflict"
code=$(curl -s -o /tmp/dml_conflict.$$ -w '%{http_code}' \
    -X POST "http://$ADDR/v1/interfaces/olap/mutate" \
    -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
    -d '{"sql":"DELETE FROM ontime WHERE distance = 9999","ifEpoch":999999}')
conflict_body=$(cat /tmp/dml_conflict.$$; rm -f /tmp/dml_conflict.$$)
[ "$code" = "409" ] || fail "stale ifEpoch answered $code: $conflict_body"
case "$conflict_body" in
*mutation_conflict*) ;;
*) fail "conflict body missing mutation_conflict: $conflict_body" ;;
esac

echo "== SIGKILL (the mutations live only in the WAL)"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "== second life: replay must restore every acked mutation"
start_server
grep -q "restored olap" "$LOG" || fail "server did not restore olap"
body=$(mutate "http://$ADDR" "DELETE FROM ontime WHERE distance = 8888")
[ "$(json_int "$body" matched)" = "0" ] || fail "deleted rows resurrected: $body"
body=$(mutate "http://$ADDR" "DELETE FROM ontime WHERE delay = 12345")
[ "$(json_int "$body" matched)" = "3" ] \
    || fail "acked-then-lost update: replayed rows with the updated value = $body, want 3"
body=$(append_rows "http://$ADDR" 9999 1)
[ "$(json_int "$body" rowCount)" = "501" ] \
    || fail "post-replay rowCount = $body, want 501 (505 - 2 deleted - 3 deleted + 1)"

kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "== follower bounce: mutations catch up through the logged tail"
ROUTER_ADDR="${ROUTER_ADDR:-127.0.0.1:8110}"
A_ADDR="${A_ADDR:-127.0.0.1:8111}"
B_ADDR="${B_ADDR:-127.0.0.1:8112}"
A_DIR="$(mktemp -d)"
B_DIR="$(mktemp -d)"

"$BIN_DIR/pi-serve" -addr "$A_ADDR" -workloads olap -n 40 -rows 200 \
    -token "$TOKEN" -shard-addr "http://$A_ADDR" \
    -data-dir "$A_DIR" -wal-sync 0 >>"$LOG" 2>&1 &
A_PID=$!
start_standby() {
    "$BIN_DIR/pi-serve" -addr "$B_ADDR" -workloads '' \
        -token "$TOKEN" -shard-addr "http://$B_ADDR" \
        -data-dir "$B_DIR" -wal-sync 0 >>"$LOG" 2>&1 &
    B_PID=$!
}
start_standby
wait_up "$A_ADDR" "owner shard"
wait_up "$B_ADDR" "standby shard"

"$BIN_DIR/pi-router" -addr "$ROUTER_ADDR" -shards "$A_ADDR,$B_ADDR" \
    -token "$TOKEN" -refresh-every 1s -replicas 2 >>"$LOG" 2>&1 &
R_PID=$!
wait_up "$ROUTER_ADDR" "router"

replication() {
    curl -s -H "Authorization: Bearer $TOKEN" "http://$ROUTER_ADDR/v1/router/replication"
}
wait_synced() {
    i=0
    until printf '%s' "$(replication)" | grep -q '"synced":true'; do
        i=$((i + 1))
        [ "$i" -gt 120 ] && fail "$1: $(replication)"
        sleep 0.5
    done
}
wait_synced "follower never seeded"

echo "== routed mutation while both replicas are up"
append_rows "http://$ROUTER_ADDR" 7777 1 >/dev/null
body=$(mutate "http://$ROUTER_ADDR" "UPDATE ontime SET delay = 54321 WHERE distance = 7777")
[ "$(json_int "$body" matched)" = "1" ] || fail "routed mutation ack = $body"

seeds_before=$(json_int "$(curl -s "http://$A_ADDR/v1/healthz")" seeds)
[ -n "$seeds_before" ] || fail "owner health has no seeds counter"

echo "== bounce the follower; mutate while it is down"
kill -9 "$B_PID"
wait "$B_PID" 2>/dev/null || true
B_PID=""
body=$(mutate "http://$ROUTER_ADDR" "UPDATE ontime SET delay = 54322 WHERE distance = 7777")
[ "$(json_int "$body" matched)" = "1" ] || fail "mutation during follower downtime = $body"
body=$(mutate "http://$ROUTER_ADDR" "DELETE FROM ontime WHERE distance = 9999")
[ -n "$(json_int "$body" matched)" ] || fail "delete during follower downtime = $body"

start_standby
wait_up "$B_ADDR" "bounced follower"
curl -s -X POST -H "Authorization: Bearer $TOKEN" \
    "http://$ROUTER_ADDR/v1/router/refresh" >/dev/null
wait_synced "bounced follower never re-synced"

seeds_after=$(json_int "$(curl -s "http://$A_ADDR/v1/healthz")" seeds)
catchups=$(json_int "$(curl -s "http://$A_ADDR/v1/healthz")" catchUps)
[ "$seeds_after" = "$seeds_before" ] \
    || fail "mutation catch-up triggered a full re-seed (seeds $seeds_before -> $seeds_after)"
[ -n "$catchups" ] && [ "$catchups" -ge 1 ] || fail "no catch-up recorded on the owner"

echo "== follower epoch in lockstep after replaying the mutations"
owner_epoch=$(json_int "$(curl -s "http://$A_ADDR/v1/interfaces/olap/epoch")" epoch)
follower_epoch=$(json_int "$(curl -s "http://$B_ADDR/v1/interfaces/olap/epoch")" epoch)
[ -n "$owner_epoch" ] && [ "$owner_epoch" = "$follower_epoch" ] \
    || fail "epochs diverged after catch-up: owner $owner_epoch, follower $follower_epoch"

echo "dml-smoke: ok"
