#!/usr/bin/env sh
# smoke_serve.sh — end-to-end serving smoke test (make smoke-serve, CI).
#
# Builds minicostd and boots it with no flags but -addr, so it serves
# policy.Greedy; waits for /healthz, pushes one two-file observation batch
# and asserts the plan serves the tiers Greedy picks for it (taken from
# TestBootWithoutCheckpointServesGreedy in cmd/minicostd, which fails if
# they move), that /metrics exposes the serving and training metric families
# in Prometheus text format with no training step taken, and that the daemon
# logged that it serves Greedy; then posts a few days of synthetic traffic
# with curl and checks every batch landed. Last, it trains a small agent
# with `minicost -save`, boots a second daemon from that checkpoint and
# drives observe -> plan through it. Exits non-zero on any failure.
set -eu

ADDR="127.0.0.1:${SMOKE_PORT:-18471}"
BASE="http://$ADDR"
ADDR2="127.0.0.1:${SMOKE_PORT2:-18472}"
BASE2="http://$ADDR2"
TMP="$(mktemp -d)"
BIN="$TMP/minicostd"
LOG="$TMP/minicostd.log"
LOG2="$TMP/minicostd-checkpoint.log"

cleanup() {
    status=$?
    for p in "${PID:-}" "${PID2:-}"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
        [ -n "$p" ] && wait "$p" 2>/dev/null || true
    done
    if [ "$status" -ne 0 ]; then
        echo "smoke-serve: FAILED; daemon logs:" >&2
        cat "$LOG" "$LOG2" >&2 || true
    fi
    rm -rf "$TMP"
    exit "$status"
}
trap cleanup EXIT INT TERM

wait_up() {
    base=$1
    pid=$2
    i=0
    until curl -fsS "$base/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 60 ]; then
            echo "smoke-serve: daemon did not come up on $base" >&2
            exit 1
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "smoke-serve: daemon exited during startup" >&2
            exit 1
        fi
        sleep 1
    done
}

echo "smoke-serve: building minicostd"
go build -o "$BIN" ./cmd/minicostd

echo "smoke-serve: booting without a checkpoint on $ADDR"
"$BIN" -addr "$ADDR" 2>"$LOG" &
PID=$!
wait_up "$BASE" "$PID"

if ! grep -q '^minicostd: no checkpoint; serving policy.Greedy$' "$LOG"; then
    echo "smoke-serve: daemon log does not say it serves policy.Greedy" >&2
    exit 1
fi

echo "smoke-serve: /healthz ok; exercising observe -> plan"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"files":[{"id":"a","size_gb":0.5,"reads":100,"writes":2},{"id":"b","size_gb":1.0,"reads":0.01,"writes":0}]}' \
    "$BASE/v1/observe" >/dev/null
PLAN="$(curl -fsS "$BASE/v1/plan")"
for entry in '"id":"a","tier":"hot"' '"id":"b","tier":"archive"'; do
    case "$PLAN" in
    *"$entry"*) ;;
    *)
        echo "smoke-serve: plan '$PLAN' lacks Greedy's $entry" >&2
        exit 1
        ;;
    esac
done

METRICS="$(curl -fsS "$BASE/metrics")"
for family in \
    'minicost_http_requests_total{endpoint="plan",status="ok"} 1' \
    'minicost_serve_plans_total 1' \
    'minicost_serve_tracked_files 2' \
    'minicost_serve_agent_serving 0' \
    'minicost_gemm_kernel_info{isa="[a-z0-9]*"} 1' \
    'minicost_train_steps_total 0'; do
    if ! printf '%s\n' "$METRICS" | grep -q "^$family"; then
        echo "smoke-serve: /metrics missing '$family'" >&2
        printf '%s\n' "$METRICS" | head -40 >&2
        exit 1
    fi
done

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

echo "smoke-serve: training a small agent with minicost -save"
go run ./cmd/minicost -files 60 -days 28 -train-steps 3000 -split 1 -save "$TMP/agent.ckpt" >/dev/null
echo "smoke-serve: booting from $TMP/agent.ckpt on $ADDR2"
"$BIN" -addr "$ADDR2" -checkpoint "$TMP/agent.ckpt" 2>"$LOG2" &
PID2=$!
wait_up "$BASE2" "$PID2"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"files":[{"id":"a","size_gb":0.5,"reads":100,"writes":2}]}' \
    "$BASE2/v1/observe" >/dev/null
case "$(curl -fsS "$BASE2/v1/plan")" in
*'"id":"a","tier":'*) ;;
*)
    echo "smoke-serve: the checkpoint-booted daemon's plan lacks file a" >&2
    exit 1
    ;;
esac
if ! curl -fsS "$BASE2/metrics" | grep -q '^minicost_serve_agent_serving 1'; then
    echo "smoke-serve: the checkpoint-booted daemon does not serve its agent" >&2
    exit 1
fi
kill -TERM "$PID2"
wait "$PID2"
PID2=""
echo "smoke-serve: OK"
