#!/bin/sh
# End-to-end smoke of the replication subsystem: start one shard
# hosting olap plus two empty standbys behind a router running with
# -replicas 2 -read-fanout -failover, wait for the warm follower to
# sync, then SIGKILL the owner while writes and reads flow through the
# router. Assert that the best follower is promoted, that no read ever
# failed and every acked write survived, that the refresh loop re-seeds
# a replacement follower on the surviving standby, and that health goes
# degraded while the dead shard is down and back to healthy once a
# replacement process rejoins the fleet. Finally bounce the synced
# follower: every shard runs with -data-dir, so the restarted
# follower restores its role and stream position from its manifest and
# re-syncs through the owner's logged tail — the owner's full-seed
# counter must not move.
# Exits non-zero on any failure.
set -eu
. "$(dirname "$0")/lib.sh"

ROUTER_ADDR="${ROUTER_ADDR:-127.0.0.1:8100}"
A_ADDR="${A_ADDR:-127.0.0.1:8101}"
B_ADDR="${B_ADDR:-127.0.0.1:8102}"
C_ADDR="${C_ADDR:-127.0.0.1:8103}"
TOKEN="${TOKEN:-shard-secret}"
BIN_DIR="$(mktemp -d)"
A_DIR="$(mktemp -d)"
B_DIR="$(mktemp -d)"
C_DIR="$(mktemp -d)"
LOG="$(mktemp)"
WRITE_CODES="$(mktemp)"
READ_CODES="$(mktemp)"

ROW='["AA","AA","CAP","NYP","CA","NY",1,1,1,10,10,10,500,1,0,0]'

echo "== build"
go build -o "$BIN_DIR/pi-serve" ./cmd/pi-serve
go build -o "$BIN_DIR/pi-router" ./cmd/pi-router

replication() {
    curl -s -H "Authorization: Bearer $TOKEN" "http://$ROUTER_ADDR/v1/router/replication"
}

append_row() { # -> response body (flushed, so the ack carries rowCount)
    curl -s -X POST "http://$ROUTER_ADDR/v1/interfaces/olap/rows?flush=1" \
        -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
        -d "{\"table\":\"ontime\",\"rows\":[$ROW]}"
}

start_standby() { # ADDR DATA_DIR -> pid on stdout
    "$BIN_DIR/pi-serve" -addr "$1" -workloads '' \
        -token "$TOKEN" -shard-addr "http://$1" \
        -data-dir "$2" -wal-sync 0 >>"$LOG" 2>&1 &
    echo $!
}

echo "== start owner shard A (olap) on $A_ADDR, empty standbys on $B_ADDR and $C_ADDR (all durable: -data-dir)"
"$BIN_DIR/pi-serve" -addr "$A_ADDR" -workloads olap -n 40 -rows 200 \
    -token "$TOKEN" -shard-addr "http://$A_ADDR" \
    -data-dir "$A_DIR" -wal-sync 0 >>"$LOG" 2>&1 &
A_PID=$!
B_PID=$(start_standby "$B_ADDR" "$B_DIR")
C_PID=$(start_standby "$C_ADDR" "$C_DIR")
wait_up "$A_ADDR" "shard A"
wait_up "$B_ADDR" "shard B"
wait_up "$C_ADDR" "shard C"

echo "== start router on $ROUTER_ADDR: -replicas 2 -read-fanout -failover"
"$BIN_DIR/pi-router" -addr "$ROUTER_ADDR" -shards "$A_ADDR,$B_ADDR,$C_ADDR" \
    -token "$TOKEN" -refresh-every 1s -replicas 2 -read-fanout -failover \
    >>"$LOG" 2>&1 &
R_PID=$!
wait_up "$ROUTER_ADDR" "router"

echo "== wait for the warm follower to seed and sync"
i=0
until printf '%s' "$(replication)" | grep -q '"synced":true'; do
    i=$((i + 1))
    [ "$i" -gt 120 ] && fail "follower never synced: $(replication)"
    sleep 0.5
done
owner0=$(json_str "$(replication)" owner)
[ "$owner0" = "http://$A_ADDR" ] || fail "unexpected initial owner $owner0"
echo "   owner $owner0, follower in sync"

echo "== baseline row count via one flushed append"
base=$(append_row)
start_count=$(json_int "$base" rowCount)
[ -n "$start_count" ] || fail "baseline append returned no rowCount: $base"

echo "== hammer: writes and reads through the router while the owner dies"
(
    i=0
    while [ "$i" -lt 60 ]; do
        i=$((i + 1))
        curl -s -o /dev/null -w '%{http_code}\n' \
            -X POST "http://$ROUTER_ADDR/v1/interfaces/olap/rows?flush=1" \
            -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
            -d "{\"table\":\"ontime\",\"rows\":[$ROW]}" >>"$WRITE_CODES"
        sleep 0.05
    done
) &
W_PID=$!
(
    i=0
    while [ "$i" -lt 60 ]; do
        i=$((i + 1))
        curl -s -o /dev/null -w '%{http_code}\n' \
            -X POST "http://$ROUTER_ADDR/v1/interfaces/olap/query" \
            -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
            -d '{"widgets":[],"limit":5}' >>"$READ_CODES"
        sleep 0.05
    done
) &
READ_PID=$!

sleep 1
echo "== SIGKILL the owner mid-stream"
kill -9 "$A_PID"
wait "$A_PID" 2>/dev/null || true
A_PID=""

wait "$W_PID" || true
wait "$READ_PID" || true

echo "== no read ever failed (fan-out + failover cover the owner's death)"
bad_reads=$(grep -cv '^200$' "$READ_CODES" || true)
[ "$bad_reads" = "0" ] || fail "$bad_reads reads failed during failover: $(sort "$READ_CODES" | uniq -c | tr '\n' ' ')"

echo "== the best follower was promoted"
i=0
while :; do
    owner=$(json_str "$(replication)" owner)
    [ -n "$owner" ] && [ "$owner" != "http://$A_ADDR" ] && break
    i=$((i + 1))
    [ "$i" -gt 60 ] && fail "owner never changed after the kill: $(replication)"
    sleep 0.5
done
echo "   promoted owner: $owner"

echo "== every acked write survived the failover"
# Appends ack with 202; anything else is a write the client saw fail
# (legal during the promotion window — failed writes are not counted).
acked=$(grep -c '^202$' "$WRITE_CODES" || true)
final=$(append_row)
final_count=$(json_int "$final" rowCount)
[ -n "$final_count" ] || fail "post-failover append failed: $final"
want=$((start_count + acked + 1))
[ "$final_count" -ge "$want" ] \
    || fail "acked-then-lost writes: $final_count rows visible, want >= $want ($acked acked)"
echo "   $acked acked writes, $final_count rows visible (>= $want)"

echo "== a replacement follower is re-seeded on the surviving standby"
i=0
until printf '%s' "$(replication)" | grep -q '"synced":true'; do
    i=$((i + 1))
    [ "$i" -gt 120 ] && fail "replacement follower never synced: $(replication)"
    sleep 0.5
done
rep=$(replication)
case "$rep" in
*"$A_ADDR"*) fail "dead shard still in the replica set: $rep" ;;
esac
echo "   replica set healed: $rep"

echo "== health is degraded while the dead shard is down"
health=$(curl -s "http://$ROUTER_ADDR/v1/healthz")
[ "$(printf '%s' "$health" | sed -n 's/^{"status":"\([^"]*\)".*/\1/p')" = "degraded" ] \
    || fail "health not degraded with a dead shard: $health"

echo "== restart the dead shard empty (fresh dir); an explicit refresh clears probe backoff"
A_PID=$(start_standby "$A_ADDR" "$(mktemp -d)")
wait_up "$A_ADDR" "restarted shard A"
curl -s -X POST -H "Authorization: Bearer $TOKEN" \
    "http://$ROUTER_ADDR/v1/router/refresh" >/dev/null
i=0
while :; do
    health=$(curl -s "http://$ROUTER_ADDR/v1/healthz")
    [ "$(printf '%s' "$health" | sed -n 's/^{"status":"\([^"]*\)".*/\1/p')" = "ok" ] && break
    i=$((i + 1))
    [ "$i" -gt 60 ] && fail "health never recovered after the restart: $health"
    sleep 0.5
    curl -s -X POST -H "Authorization: Bearer $TOKEN" \
        "http://$ROUTER_ADDR/v1/router/refresh" >/dev/null
done
echo "   fleet healthy again"

echo "== steady state: queries answer 200, not shard_unavailable"
code=$(curl -s -o /dev/null -w '%{http_code}' \
    -X POST "http://$ROUTER_ADDR/v1/interfaces/olap/query" \
    -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
    -d '{"widgets":[],"limit":5}')
[ "$code" = "200" ] || fail "steady-state query answered $code"

echo "== bounce the synced follower: durable state resumes the stream, no full re-seed"
owner=$(json_str "$(replication)" owner)
if [ "$owner" = "http://$B_ADDR" ]; then
    FOL_ADDR="$C_ADDR" FOL_PID="$C_PID" FOL_DIR="$C_DIR" FOL=C
else
    FOL_ADDR="$B_ADDR" FOL_PID="$B_PID" FOL_DIR="$B_DIR" FOL=B
fi
OWNER_HOST="${owner#http://}"
owner_health() { curl -s "http://$OWNER_HOST/v1/healthz"; }

seeds_before=$(json_int "$(owner_health)" seeds)
[ -n "$seeds_before" ] || fail "owner health reports no seeds counter: $(owner_health)"
pre_bounce=$(append_row)
pre_count=$(json_int "$pre_bounce" rowCount)

kill -9 "$FOL_PID"
wait "$FOL_PID" 2>/dev/null || true

echo "   writes land while the follower is down (it must catch up, not re-seed)"
append_row >/dev/null
append_row >/dev/null
down_ack=$(append_row)
down_count=$(json_int "$down_ack" rowCount)
[ -n "$down_count" ] && [ "$down_count" -eq $((pre_count + 3)) ] \
    || fail "writes during follower downtime did not ack: $down_ack"

echo "   restart the follower on its own data dir ($FOL_DIR)"
case "$FOL" in
B) B_PID=$(start_standby "$B_ADDR" "$B_DIR") ;;
C) C_PID=$(start_standby "$C_ADDR" "$C_DIR") ;;
esac
wait_up "$FOL_ADDR" "bounced follower"
curl -s -X POST -H "Authorization: Bearer $TOKEN" \
    "http://$ROUTER_ADDR/v1/router/refresh" >/dev/null

i=0
until printf '%s' "$(replication)" | grep -q '"synced":true'; do
    i=$((i + 1))
    [ "$i" -gt 120 ] && fail "bounced follower never re-synced: $(replication)"
    sleep 0.5
done

seeds_after=$(json_int "$(owner_health)" seeds)
catchups=$(json_int "$(owner_health)" catchUps)
[ "$seeds_after" = "$seeds_before" ] \
    || fail "bounce triggered a full re-seed (seeds $seeds_before -> $seeds_after): $(owner_health)"
[ -n "$catchups" ] && [ "$catchups" -ge 1 ] \
    || fail "no catch-up recorded on the owner: $(owner_health)"
echo "   re-synced via WAL catch-up (seeds stayed $seeds_before, catchUps $catchups)"

echo "replica smoke: ok"
