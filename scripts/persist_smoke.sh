#!/bin/sh
# End-to-end smoke of the versioned storage layer: start pi-serve with
# a data dir, grow the dataset through the rows endpoint and the
# interface through the log endpoint, snapshot, SIGKILL the process,
# restart it on the same data dir, and verify the survivor — same or
# later epoch, identical dataset row counts, a working query through
# the SDK — all without the first process's workload generator state.
# Along the way it pins the on-disk layout (base + manifest + olap.wal/,
# a snapshot after a small append that writes nothing because the log
# already holds it), that a dir holding only a bare .snap (a crash
# between the first checkpoint's base write and its manifest write)
# still boots, and that a dir in an older on-disk format fails the boot
# until `pi upgrade` converts it. Exits non-zero on any failure.
set -eu
. "$(dirname "$0")/lib.sh"

ADDR="${ADDR:-127.0.0.1:8095}"
TOKEN="${TOKEN:-persist-secret}"
BIN="$(mktemp -d)/pi-serve"
PI="$(dirname "$BIN")/pi"
DATA_DIR="$(mktemp -d)"
LOG="$(mktemp)"

echo "== build"
go build -o "$BIN" ./cmd/pi-serve
go build -o "$PI" ./cmd/pi

start_server() {
    "$BIN" -addr "$ADDR" -workloads olap -n 80 -rows 500 \
        -token "$TOKEN" -data-dir "$DATA_DIR" >>"$LOG" 2>&1 &
    PID=$!
    wait_up "$ADDR" "pi-serve"
}

ONTIME_ROW='["AA","AA","CAP","NYP","CA","NY",1,1,1,10,12,8,500,1,0,0]'

echo "== first life: start pi-serve -data-dir on $ADDR"
start_server
# Keep the boot's base as it is now: the shape a crash between the
# first checkpoint's base write and its manifest write leaves, which a
# later step of this script boots from.
BARE_DIR="$(mktemp -d)"
cp "$DATA_DIR/olap.snap" "$BARE_DIR/olap.snap"

echo "== grow the dataset (rows endpoint) and the interface (log endpoint)"
body=$(curl -s -X POST "http://$ADDR/v1/interfaces/olap/rows?flush=1" \
    -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
    -d "{\"table\":\"ontime\",\"rows\":[$ONTIME_ROW,$ONTIME_ROW]}")
rowcount=$(json_int "$body" rowCount)
[ "$rowcount" = "502" ] || { echo "append ack rowCount=$rowcount, want 502: $body" >&2; exit 1; }

curl -s -X POST "http://$ADDR/v1/interfaces/olap/log?flush=1" \
    -H "Authorization: Bearer $TOKEN" -H 'Content-Type: text/plain' \
    --data-binary 'SELECT carrier, avg(delay) FROM ontime WHERE month = 7 GROUP BY carrier;' >/dev/null

epoch_before=$(json_int "$(curl -s "http://$ADDR/v1/interfaces/olap/epoch")" epoch)
[ -n "$epoch_before" ] && [ "$epoch_before" -ge 2 ] || {
    echo "epoch before kill is $epoch_before, expected >= 2" >&2; exit 1; }

echo "== snapshot to $DATA_DIR"
body=$(curl -s -X POST "http://$ADDR/v1/snapshot" -H "Authorization: Bearer $TOKEN")
case "$body" in
*'"id":"olap"'*) ;;
*) echo "snapshot result missing olap: $body" >&2; exit 1 ;;
esac
[ -f "$DATA_DIR/olap.snap" ] || fail "no base snapshot in $DATA_DIR"
[ -f "$DATA_DIR/olap.manifest.json" ] || fail "first snapshot wrote no manifest; dir: $(ls "$DATA_DIR")"
[ -d "$DATA_DIR/olap.wal" ] || fail "no write-ahead log under -data-dir; dir: $(ls "$DATA_DIR")"

echo "== a second snapshot after a small append writes no new file"
files_before=$(ls "$DATA_DIR")
BASE_COPY="$(mktemp)"
cp "$DATA_DIR/olap.snap" "$BASE_COPY"
body=$(curl -s -X POST "http://$ADDR/v1/interfaces/olap/rows?flush=1" \
    -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
    -d "{\"table\":\"ontime\",\"rows\":[$ONTIME_ROW]}")
[ "$(json_int "$body" rowCount)" = "503" ] || fail "second append ack: $body"
body=$(curl -s -X POST "http://$ADDR/v1/snapshot" -H "Authorization: Bearer $TOKEN")
[ "$(json_int "$body" rows)" = "503" ] || fail "second snapshot does not report 503 rows: $body"
[ "$(ls "$DATA_DIR")" = "$files_before" ] || fail "the second snapshot changed the file set: $(ls "$DATA_DIR")"
cmp -s "$DATA_DIR/olap.snap" "$BASE_COPY" || fail "the second snapshot rewrote the base"

echo "== SIGKILL (no snapshot covers the last append; the log does)"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "== second life: restart on the same data dir"
start_server
grep -q "restored olap" "$LOG" || { echo "server did not restore olap; log:" >&2; cat "$LOG" >&2; exit 1; }

echo "== verify: epoch is same-or-later"
epoch_after=$(json_int "$(curl -s "http://$ADDR/v1/interfaces/olap/epoch")" epoch)
[ -n "$epoch_after" ] && [ "$epoch_after" -ge "$epoch_before" ] || {
    echo "epoch went backwards: $epoch_before -> $epoch_after" >&2; exit 1; }

echo "== verify: dataset row counts survived base + log (503 + 1 new = 504)"
body=$(curl -s -X POST "http://$ADDR/v1/interfaces/olap/rows?flush=1" \
    -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
    -d "{\"table\":\"ontime\",\"rows\":[$ONTIME_ROW]}")
rowcount=$(json_int "$body" rowCount)
[ "$rowcount" = "504" ] || {
    echo "post-restore rowCount=$rowcount, want 504 (the 3 pre-kill rows must survive): $body" >&2
    exit 1
}

echo "== verify: queries work (SDK round-trip incl. auth)"
"$BIN" -check -addr "$ADDR" -token "$TOKEN"

body=$(curl -s "http://$ADDR/v1/healthz")
case "$body" in
*'"persistence":true'*) ;;
*) echo "healthz does not report persistence: $body" >&2; exit 1 ;;
esac

echo "== graceful shutdown persists a final snapshot"
kill -TERM "$PID"
wait_exit "$PID" "pi-serve"
PID=""
grep -q "final snapshot" "$LOG" || { echo "no final snapshot on shutdown; log:" >&2; cat "$LOG" >&2; exit 1; }

echo "== a data dir holding only a bare .snap (crash before the first manifest) gains one on boot"
DATA_DIR="$BARE_DIR"
start_server
grep -q "restored olap.*from $BARE_DIR" "$LOG" || fail "server did not restore the bare snapshot"
[ -f "$BARE_DIR/olap.manifest.json" ] || fail "boot did not promote the bare snapshot to a manifest"
body=$(curl -s -X POST "http://$ADDR/v1/interfaces/olap/rows?flush=1" \
    -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
    -d "{\"table\":\"ontime\",\"rows\":[$ONTIME_ROW]}")
[ "$(json_int "$body" rowCount)" = "501" ] || fail "bare-snapshot boot lost rows (500 saved + 1 new): $body"
epoch_bare=$(json_int "$(curl -s "http://$ADDR/v1/interfaces/olap/epoch")" epoch)
[ "$epoch_bare" -ge 2 ] || fail "bare-snapshot boot at epoch $epoch_bare after an append to an epoch-1 base"
"$BIN" -check -addr "$ADDR" -token "$TOKEN"
kill -TERM "$PID"
wait_exit "$PID" "pi-serve"
PID=""

echo "== a data dir in an older on-disk format fails the boot until pi upgrade converts it"
OLD_DIR="$(mktemp -d)"
cp -R internal/ingest/testdata/legacy/wal/. "$OLD_DIR"
rc=0
timeout 60 "$BIN" -addr "$ADDR" -workloads '' -data-dir "$OLD_DIR" >>"$LOG" 2>&1 || rc=$?
[ "$rc" = 1 ] || fail "boot of an un-upgraded data dir exited $rc, want 1"
grep -q 'pi upgrade' "$LOG" || fail "the boot refusal does not name pi upgrade"
"$PI" upgrade "$OLD_DIR" || fail "pi upgrade $OLD_DIR failed"
"$BIN" -addr "$ADDR" -workloads '' -token "$TOKEN" -data-dir "$OLD_DIR" >>"$LOG" 2>&1 &
PID=$!
wait_up "$ADDR" "pi-serve"
body=$(curl -s -X POST "http://$ADDR/v1/snapshot" -H "Authorization: Bearer $TOKEN")
[ "$(json_int "$body" epoch)" = "7" ] && [ "$(json_int "$body" rows)" = "53" ] ||
    fail "the upgraded dir restored $body, want epoch 7 and 53 rows (testdata/legacy/wal.want)"
kill -TERM "$PID"
wait_exit "$PID" "pi-serve"
PID=""

echo "persist-smoke: ok"
