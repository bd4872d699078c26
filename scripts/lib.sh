# Shell shared by the smoke and demo scripts: source it right after
# `set -eu` with `. "$(dirname "$0")/lib.sh"`. Conventions it relies on:
# a script keeps the pids of the processes it started in PID, A_PID,
# B_PID, C_PID and R_PID, and their output in LOG (or A_LOG, B_LOG,
# R_LOG when it keeps one per process).

# Every started process dies with the script, however it exits.
cleanup() {
    for pid in ${PID:-} ${A_PID:-} ${B_PID:-} ${C_PID:-} ${R_PID:-}; do
        kill -9 "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
}
trap cleanup EXIT INT TERM

# fail MESSAGE -> print it with every process log and exit 1.
fail() {
    echo "FAIL: $1" >&2
    for f in ${LOG:-} ${A_LOG:-} ${B_LOG:-} ${R_LOG:-}; do
        echo "--- process log $f:" >&2
        cat "$f" >&2
    done
    exit 1
}

# wait_up ADDR NAME -> block until ADDR answers /v1/healthz (30s cap).
wait_up() {
    i=0
    until curl -sf "http://$1/v1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -gt 120 ] || { sleep 0.25; continue; }
        fail "$2 never came up on $1"
    done
}

# wait_exit PID NAME -> block until the process is gone (15s cap) —
# the graceful-shutdown check after a SIGTERM.
wait_exit() {
    i=0
    while kill -0 "$1" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 60 ] || { sleep 0.25; continue; }
        fail "$2 did not shut down on SIGTERM"
    done
}

# json_int BODY FIELD -> first integer value of "field":N
json_int() {
    printf '%s' "$1" | sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p" | head -n 1
}

# json_str BODY FIELD -> first string value of "field":"..."
json_str() {
    printf '%s' "$1" | sed -n "s/.*\"$2\":\"\([^\"]*\)\".*/\1/p" | head -n 1
}
