#!/bin/sh
# End-to-end smoke of the write-ahead log: start pi-serve with
# -data-dir, stream acked row appends and log entries WITHOUT ever
# snapshotting, SIGKILL the process, restart it on the same data dir,
# and verify every acked write came back from the logged tail alone.
# Then prove the checkpoint: a snapshot after a few appends writes no
# new file (the log already holds them), and a second SIGKILL restores
# through base + log — on a boot without the deprecated -wal flag,
# which changes nothing. Exits non-zero on any failure.
set -eu
. "$(dirname "$0")/lib.sh"

ADDR="${ADDR:-127.0.0.1:8097}"
TOKEN="${TOKEN:-wal-secret}"
BIN="$(mktemp -d)/pi-serve"
DATA_DIR="$(mktemp -d)"
LOG="$(mktemp)"

echo "== build"
go build -o "$BIN" ./cmd/pi-serve

start_server() {
    "$BIN" -addr "$ADDR" -workloads olap -n 80 -rows 500 \
        -token "$TOKEN" -data-dir "$DATA_DIR" -wal -wal-sync 0 >>"$LOG" 2>&1 &
    PID=$!
    wait_up "$ADDR" "pi-serve"
}

append_rows() { # append_rows N -> ack body
    rows="$1"
    payload=""
    while [ "$rows" -gt 0 ]; do
        payload="$payload${payload:+,}$ONTIME_ROW"
        rows=$((rows - 1))
    done
    curl -s -X POST "http://$ADDR/v1/interfaces/olap/rows?flush=1" \
        -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
        -d "{\"table\":\"ontime\",\"rows\":[$payload]}"
}

ONTIME_ROW='["AA","AA","CAP","NYP","CA","NY",1,1,1,10,12,8,500,1,0,0]'

echo "== first life: pi-serve -data-dir -wal (deprecated, ignored) on $ADDR"
start_server

echo "== boot wrote the WAL anchor (base snapshot + manifest)"
[ -f "$DATA_DIR/olap.snap" ] || { echo "no base snapshot after boot" >&2; exit 1; }
[ -f "$DATA_DIR/olap.manifest.json" ] || { echo "no manifest after boot" >&2; exit 1; }
grep -q "wal: initial snapshot" "$LOG" || { echo "no initial snapshot logged; log:" >&2; cat "$LOG" >&2; exit 1; }

echo "== acked writes that are never snapshotted (they live only in the WAL)"
body=$(append_rows 3)
rowcount=$(json_int "$body" rowCount)
[ "$rowcount" = "503" ] || { echo "append ack rowCount=$rowcount, want 503: $body" >&2; exit 1; }
curl -s -X POST "http://$ADDR/v1/interfaces/olap/log?flush=1" \
    -H "Authorization: Bearer $TOKEN" -H 'Content-Type: text/plain' \
    --data-binary 'SELECT carrier, avg(delay) FROM ontime WHERE month = 7 GROUP BY carrier;' >/dev/null
epoch_before=$(json_int "$(curl -s "http://$ADDR/v1/interfaces/olap/epoch")" epoch)
[ -n "$epoch_before" ] && [ "$epoch_before" -ge 2 ] || {
    echo "epoch before kill is $epoch_before, expected >= 2" >&2; exit 1; }

echo "== healthz reports the WAL running ahead of the last save"
body=$(curl -s "http://$ADDR/v1/healthz")
case "$body" in
*'"wal"'*) ;;
*) echo "healthz has no wal block: $body" >&2; exit 1 ;;
esac
lag=$(json_int "$body" lag)
[ -n "$lag" ] && [ "$lag" -ge 1 ] || { echo "wal lag=$lag, want >= 1 (acked, unsaved writes): $body" >&2; exit 1; }

echo "== SIGKILL (no snapshot covered the appends)"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "== second life: the WAL tail must replay the acked writes"
start_server
grep -q "restored olap" "$LOG" || { echo "server did not restore olap; log:" >&2; cat "$LOG" >&2; exit 1; }
body=$(append_rows 1)
rowcount=$(json_int "$body" rowCount)
[ "$rowcount" = "504" ] || {
    echo "post-crash rowCount=$rowcount, want 504 (3 WAL-only rows must survive): $body" >&2
    exit 1
}
epoch_after=$(json_int "$(curl -s "http://$ADDR/v1/interfaces/olap/epoch")" epoch)
[ -n "$epoch_after" ] && [ "$epoch_after" -ge "$epoch_before" ] || {
    echo "epoch went backwards: $epoch_before -> $epoch_after" >&2; exit 1; }

echo "== a snapshot now writes no new file: the log already holds the appends"
files_before=$(ls "$DATA_DIR")
BASE_COPY="$(mktemp)"
cp "$DATA_DIR/olap.snap" "$BASE_COPY"
body=$(curl -s -X POST "http://$ADDR/v1/snapshot" -H "Authorization: Bearer $TOKEN")
case "$body" in
*'"id":"olap"'*) ;;
*) echo "snapshot result missing olap: $body" >&2; exit 1 ;;
esac
[ "$(json_int "$body" bytes)" = "0" ] || fail "the snapshot wrote a base: $body"
[ "$(ls "$DATA_DIR")" = "$files_before" ] || fail "the snapshot changed the file set: $(ls "$DATA_DIR")"
cmp -s "$DATA_DIR/olap.snap" "$BASE_COPY" || fail "the snapshot rewrote the base"

echo "== third life: base + log, booted without -wal"
body=$(append_rows 2)
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""
"$BIN" -addr "$ADDR" -workloads olap -n 80 -rows 500 \
    -token "$TOKEN" -data-dir "$DATA_DIR" >>"$LOG" 2>&1 &
PID=$!
wait_up "$ADDR" "pi-serve"
body=$(append_rows 1)
rowcount=$(json_int "$body" rowCount)
[ "$rowcount" = "507" ] || {
    echo "base + log restore rowCount=$rowcount, want 507: $body" >&2; exit 1; }

echo "== verify: queries work (SDK round-trip incl. auth)"
"$BIN" -check -addr "$ADDR" -token "$TOKEN"

echo "== graceful shutdown"
kill -TERM "$PID"
wait_exit "$PID" "pi-serve"
PID=""
grep -q "final snapshot" "$LOG" || { echo "no final snapshot on shutdown; log:" >&2; cat "$LOG" >&2; exit 1; }

echo "wal-smoke: ok"
