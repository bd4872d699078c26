#!/bin/sh
# ingest_demo.sh — drive the live-ingestion subsystem end to end:
# build pi-serve, host the OLAP workload, query it, stream new log
# entries in over HTTP, and show the epoch bump + widened interface.
set -eu
. "$(dirname "$0")/lib.sh"

ADDR="${PI_SERVE_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
BIN="$(mktemp -d)/pi-serve"
LOG="$(mktemp)"

say() { printf '\n=== %s\n' "$*"; }

go build -o "$BIN" ./cmd/pi-serve

say "starting pi-serve on $ADDR (olap workload)"
"$BIN" -addr "$ADDR" -workloads olap -n 80 -rows 500 >"$LOG" 2>&1 &
PID=$!
wait_up "$ADDR" "pi-serve"

say "hosted interfaces"
curl -fsS "$BASE/v1/interfaces"; echo

say "initial query (epoch 1, cache miss)"
curl -fsS -X POST "$BASE/v1/interfaces/olap/query" \
	-H 'Content-Type: application/json' -d '{"widgets":[]}' | head -c 400; echo

say "ingesting 3 new log entries (text format; the ack follows the re-mine)"
curl -fsS -X POST "$BASE/v1/interfaces/olap/log?flush=1" --data-binary @- <<'SQL'
SELECT DestState, COUNT(Delay) FROM ontime WHERE Day = 28 GROUP BY DestState
SELECT DestState, COUNT(Delay)
  FROM ontime -- multi-line statement
  WHERE Day = 29
  GROUP BY DestState;
SELECT DestState, COUNT(Delay) FROM ontime WHERE Day = 30 GROUP BY DestState
SQL
echo

say "epoch after ingestion (was 1)"
curl -fsS "$BASE/v1/interfaces/olap/epoch"; echo

say "post-swap query (fresh caches, new epoch)"
curl -fsS -X POST "$BASE/v1/interfaces/olap/query" \
	-H 'Content-Type: application/json' -d '{"widgets":[]}' | head -c 400; echo

say "healthz (per-interface epoch, hit rates, ingest counters)"
curl -fsS "$BASE/v1/healthz"; echo

say "server log tail"
tail -n 5 "$LOG"

say "ingest demo OK"
