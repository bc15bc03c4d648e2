#!/usr/bin/env sh
# smoke_online.sh — end-to-end continuous-learning smoke test
# (make smoke-online, CI).
#
# Boots minicostd with -online and no checkpoint (Greedy serves, a fresh
# trainer fine-tunes), posts drifting synthetic traffic
# (scripts/observe_body.awk) through /v1/observe with curl, and asserts the
# full loop closed: at least one fine-tune epoch ran and trained, the drift
# score is exported on /metrics, and a candidate policy was hot-swapped into
# serving (the gate is disabled so the swap is deterministic; gate rejection,
# against Greedy too, is pinned by the Go tests). The learner checkpoint written by the swap then
# boots a second daemon via -checkpoint ... -online, which must serve an
# observe -> plan round trip.
set -eu

ADDR="127.0.0.1:${SMOKE_ONLINE_PORT:-18473}"
BASE="http://$ADDR"
ADDR2="127.0.0.1:${SMOKE_ONLINE_PORT2:-18474}"
BASE2="http://$ADDR2"
BIN="$(mktemp -d)/minicostd"
LOG="$(mktemp)"
LOG2="$(mktemp)"
CKPTDIR="$(mktemp -d)"

cleanup() {
    status=$?
    for p in "${PID:-}" "${PID2:-}"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
        [ -n "$p" ] && wait "$p" 2>/dev/null || true
    done
    if [ "$status" -ne 0 ]; then
        echo "smoke-online: FAILED; daemon logs:" >&2
        cat "$LOG" "$LOG2" >&2 || true
    fi
    rm -rf "$(dirname "$BIN")" "$LOG" "$LOG2" "$CKPTDIR"
    exit "$status"
}
trap cleanup EXIT INT TERM

wait_up() {
    base=$1
    pid=$2
    i=0
    until curl -fsS "$base/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 120 ]; then
            echo "smoke-online: daemon did not come up on $base" >&2
            exit 1
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "smoke-online: daemon exited during startup" >&2
            exit 1
        fi
        sleep 1
    done
}

# metric_value prints the value of an unlabeled metric family, or 0.
metric_value() {
    printf '%s\n' "$METRICS" | awk -v n="$1" '$1 == n { print $2; found = 1 } END { if (!found) print 0 }'
}

echo "smoke-online: building minicostd"
go build -o "$BIN" ./cmd/minicostd

echo "smoke-online: booting with -online on $ADDR"
"$BIN" -addr "$ADDR" \
    -online -finetune-every 4 -finetune-steps 512 -drift-threshold 0.25 \
    -swap-gate=false -checkpoint-dir "$CKPTDIR" 2>"$LOG" &
PID=$!
wait_up "$BASE" "$PID"

# 18 days of 200 files, one POST a day, each of which must accept all 200,
# and a plan every third day: the learner needs MinTrainDays (= the fresh
# trainer's 14-day history window) of buffered history before an epoch can train, and
# the back half of the run (days 9-17) drifts to trip the PSI detector.
echo "smoke-online: drifting observe traffic (200 files x 18 days)"
day=0
while [ "$day" -lt 18 ]; do
    resp="$(awk -v files=200 -v day="$day" -v drifted="$((day >= 9))" -f scripts/observe_body.awk |
        curl -fsS -X POST -H 'Content-Type: application/json' --data-binary @- "$BASE/v1/observe")"
    case "$resp" in
    *'"accepted":200,'*) ;;
    *)
        echo "smoke-online: day $day observe answered '$resp', want \"accepted\":200" >&2
        exit 1
        ;;
    esac
    day=$((day + 1))
    if [ $((day % 3)) -eq 0 ]; then
        curl -fsS "$BASE/v1/plan" >/dev/null
    fi
done

echo "smoke-online: waiting for a fine-tune epoch and a hot swap"
i=0
while :; do
    METRICS="$(curl -fsS "$BASE/metrics")"
    epochs=$(metric_value minicost_online_finetune_epochs_total)
    swaps=$(metric_value minicost_online_swaps_total)
    if awk -v e="$epochs" -v s="$swaps" 'BEGIN { exit !(e >= 1 && s >= 1) }'; then
        break
    fi
    i=$((i + 1))
    if [ "$i" -ge 60 ]; then
        echo "smoke-online: no epoch/swap after 60s (epochs=$epochs swaps=$swaps)" >&2
        exit 1
    fi
    sleep 1
done
echo "smoke-online: epochs=$epochs swaps=$swaps"

if awk -v s="$(metric_value minicost_train_steps_total)" 'BEGIN { exit !(s <= 0) }'; then
    echo "smoke-online: minicost_train_steps_total is not above 0 after an epoch" >&2
    exit 1
fi

for family in \
    minicost_online_drift_score \
    minicost_online_buffer_files \
    minicost_online_observations_total \
    minicost_online_epoch_seconds_count; do
    if ! printf '%s\n' "$METRICS" | grep -q "^$family"; then
        echo "smoke-online: /metrics missing '$family'" >&2
        printf '%s\n' "$METRICS" | grep '^minicost_online' >&2 || true
        exit 1
    fi
done
if awk -v b="$(metric_value minicost_online_buffer_files)" 'BEGIN { exit !(b < 1) }'; then
    echo "smoke-online: replay buffer is empty" >&2
    exit 1
fi

if ! curl -fsS "$BASE/healthz" | grep -q '^learner:'; then
    echo "smoke-online: /healthz missing the learner status line" >&2
    exit 1
fi
if ! curl -fsS "$BASE/v1/learner" | grep -q '"epochs"'; then
    echo "smoke-online: /v1/learner did not report status" >&2
    exit 1
fi

CKPT="$(ls "$CKPTDIR"/learner-*.ckpt 2>/dev/null | tail -1)"
if [ -z "$CKPT" ]; then
    echo "smoke-online: no learner checkpoint written after the swap" >&2
    exit 1
fi

kill -TERM "$PID"
wait "$PID"
PID=""

echo "smoke-online: rebooting from $CKPT"
"$BIN" -addr "$ADDR2" -checkpoint "$CKPT" -online \
    -finetune-every 0 -drift-threshold 0 2>"$LOG2" &
PID2=$!
wait_up "$BASE2" "$PID2"
if ! grep -q "^minicostd: loaded $CKPT\$" "$LOG2"; then
    echo "smoke-online: second daemon did not boot from $CKPT" >&2
    exit 1
fi
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"files":[{"id":"a","size_gb":0.5,"reads":100,"writes":2}]}' \
    "$BASE2/v1/observe" >/dev/null
curl -fsS "$BASE2/v1/plan" >/dev/null
kill -TERM "$PID2"
wait "$PID2"
PID2=""
echo "smoke-online: OK"
