#!/usr/bin/env sh
# smoke_serve.sh — end-to-end serving smoke test (make smoke-serve, CI).
#
# Builds minicostd, boots it with a tiny bootstrap agent, waits for
# /healthz, pushes one observation batch, fetches a plan, and asserts
# /metrics exposes the serving and training metric families in Prometheus
# text format and that the daemon logged the bootstrap bill; then posts a
# few days of synthetic traffic with curl and checks every batch landed.
# Exits non-zero on any failure.
set -eu

ADDR="127.0.0.1:${SMOKE_PORT:-18471}"
BASE="http://$ADDR"
BIN="$(mktemp -d)/minicostd"
LOG="$(mktemp)"

cleanup() {
    status=$?
    [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
    [ -n "${PID:-}" ] && wait "$PID" 2>/dev/null || true
    if [ "$status" -ne 0 ]; then
        echo "smoke-serve: FAILED; daemon log:" >&2
        cat "$LOG" >&2 || true
    fi
    rm -rf "$(dirname "$BIN")" "$LOG"
    exit "$status"
}
trap cleanup EXIT INT TERM

echo "smoke-serve: building minicostd"
go build -o "$BIN" ./cmd/minicostd

echo "smoke-serve: booting with a tiny bootstrap agent on $ADDR"
"$BIN" -addr "$ADDR" -bootstrap-steps 2000 -filters 8 -hidden 16 2>"$LOG" &
PID=$!

# The tiny bootstrap still trains a real agent; allow up to 120 s.
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 120 ]; then
        echo "smoke-serve: daemon did not come up" >&2
        exit 1
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "smoke-serve: daemon exited during bootstrap" >&2
        exit 1
    fi
    sleep 1
done

echo "smoke-serve: /healthz ok; exercising observe -> plan"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"files":[{"id":"a","size_gb":0.5,"reads":100,"writes":2},{"id":"b","size_gb":1.0,"reads":0.01,"writes":0}]}' \
    "$BASE/v1/observe" >/dev/null
curl -fsS "$BASE/v1/plan" >/dev/null

METRICS="$(curl -fsS "$BASE/metrics")"
for family in \
    'minicost_http_requests_total{endpoint="plan",status="ok"} 1' \
    'minicost_serve_plans_total 1' \
    'minicost_serve_tracked_files 2' \
    'minicost_gemm_kernel_info{isa="[a-z0-9]*"} 1' \
    'minicost_train_steps_total'; do
    if ! printf '%s\n' "$METRICS" | grep -q "^$family"; then
        echo "smoke-serve: /metrics missing '$family'" >&2
        printf '%s\n' "$METRICS" | head -40 >&2
        exit 1
    fi
done

if ! grep -q 'minicostd: bootstrap eval: bill \$' "$LOG"; then
    echo "smoke-serve: daemon log lacks the bootstrap eval bill line" >&2
    exit 1
fi

# Traffic against the live daemon: 500 files over 3 days, one POST a day
# (scripts/observe_body.awk), each of which must accept all 500, with a plan
# after days 2 and 3. Load is measured by the end-to-end benchmark
# (make bench-e2e), not here.
echo "smoke-serve: observe traffic (500 files x 3 days)"
for day in 0 1 2; do
    resp="$(awk -v files=500 -v day="$day" -f scripts/observe_body.awk |
        curl -fsS -X POST -H 'Content-Type: application/json' --data-binary @- "$BASE/v1/observe")"
    case "$resp" in
    *'"accepted":500,'*) ;;
    *)
        echo "smoke-serve: day $day observe answered '$resp', want \"accepted\":500" >&2
        exit 1
        ;;
    esac
    if [ "$day" -ge 1 ]; then
        curl -fsS "$BASE/v1/plan" >/dev/null
    fi
done

# Graceful shutdown: SIGTERM must drain and exit cleanly.
kill -TERM "$PID"
wait "$PID"
PID=""
echo "smoke-serve: OK"
