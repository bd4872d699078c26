#!/bin/sh
# End-to-end smoke of the v1 API surface: build pi-serve, start it
# with a bearer token, exercise it through the pi/client SDK
# (pi-serve -check), and verify the auth and error contracts with raw
# curl. Exits non-zero on any failure.
set -eu
. "$(dirname "$0")/lib.sh"

ADDR="${ADDR:-127.0.0.1:8094}"
TOKEN="${TOKEN:-smoke-secret}"
BIN="$(mktemp -d)/pi-serve"
LOG="$(mktemp)"

echo "== build"
go build -o "$BIN" ./cmd/pi-serve

echo "== start pi-serve -token ... on $ADDR"
"$BIN" -addr "$ADDR" -workloads olap -n 80 -rows 500 -token "$TOKEN" >"$LOG" 2>&1 &
PID=$!
wait_up "$ADDR" "pi-serve"

echo "== pi-serve -check (SDK round-trip incl. auth rejection)"
"$BIN" -check -addr "$ADDR" -token "$TOKEN"

echo "== raw contract checks"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/interfaces/olap/query" -d '{"widgets":[]}')
[ "$code" = "401" ] || { echo "unauthenticated query: $code, want 401" >&2; exit 1; }

code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/interfaces/olap/query" \
    -H "Authorization: Bearer wrong" -d '{"widgets":[]}')
[ "$code" = "403" ] || { echo "wrong-token query: $code, want 403" >&2; exit 1; }

body=$(curl -s -X POST "http://$ADDR/v1/interfaces/nope/query" \
    -H "Authorization: Bearer $TOKEN" -d '{"widgets":[]}')
case "$body" in
*'"code":"not_found"'*) ;;
*) echo "missing not_found envelope: $body" >&2; exit 1 ;;
esac

body=$(curl -s -X POST "http://$ADDR/v1/interfaces/olap/query" \
    -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
    -d '{"widgets":[],"limit":2}')
case "$body" in
*'"rows":'*) ;;
*) echo "authorized query failed: $body" >&2; exit 1 ;;
esac

echo "== graceful shutdown"
kill -TERM "$PID"
wait_exit "$PID" "pi-serve"
PID=""

echo "api-smoke: ok"
