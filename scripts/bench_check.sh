#!/usr/bin/env bash
# bench_check.sh — the performance gate (make bench-check).
#
# Runs the end-to-end benchmark BENCHMARK.json declares on a base commit
# and on the working tree, in interleaved pairs, and compares them metric by
# metric. The base is built from a `git clone` of the repository checked out
# at the base commit (default HEAD~1) in a temporary directory; the working
# tree is built as it stands, uncommitted changes included. Pair i runs the
# base first when i is odd and the working tree first when it is even, so a
# machine that changes speed halfway through the pairs shifts both sides
# alike.
#
# For each workload and each of BENCHMARK.json's end-to-end metrics it
# prints both sides' median and quartiles (linear interpolation), the
# change of the medians, and in how many pairs the working tree beat the
# base. It exits non-zero when any run is incorrect or reports failed
# operations, or when any end-to-end metric's working-tree median is worse
# than the base median by more than the metric's bound.
#
# Usage:
#   scripts/bench_check.sh [-b base-rev] [-n pairs] [-s seed] [-w "workload ..."]
#
#   -b  base revision (default HEAD~1)
#   -n  interleaved pairs per workload (default 10)
#   -s  input seed (default 11)
#   -w  workloads, space-separated (default: every workload in BENCHMARK.json)
#
# Every run lasts BENCHMARK.json's run_seconds: the harness reads it when
# --seconds is left out, so both sides measure for as long as the benchmark
# defines.
#
# Needs git, jq and the Go toolchain; each run needs the two CPUs the
# benchmark itself needs. Raw results are kept under .bench_build/bench-check/.
set -euo pipefail

root="$(git rev-parse --show-toplevel)"
cd "$root"

base_rev=HEAD~1
pairs=10
seed=11
workloads=""
while getopts "b:n:s:w:" opt; do
    case "$opt" in
    b) base_rev="$OPTARG" ;;
    n) pairs="$OPTARG" ;;
    s) seed="$OPTARG" ;;
    w) workloads="$OPTARG" ;;
    *) sed -n '/^# Usage:/,/^# Needs/p' "$0" >&2; exit 2 ;;
    esac
done
case "$pairs" in '' | *[!0-9]* | 0) echo "bench-check: -n must be a positive integer, got '$pairs'" >&2; exit 2 ;; esac
for tool in git jq go; do
    command -v "$tool" >/dev/null || { echo "bench-check: $tool not found" >&2; exit 2; }
done
[ -n "$workloads" ] || workloads="$(jq -r '.workloads[].name' BENCHMARK.json)"

base_sha="$(git rev-parse --verify "$base_rev^{commit}")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
echo "bench-check: cloning the base $base_rev ($base_sha)"
git clone -q --no-checkout "$root" "$tmp/base"
git -C "$tmp/base" checkout -q "$base_sha"

out="$root/.bench_build/bench-check"
rm -rf "$out"
mkdir -p "$out"

# run_side DIR SIDE WORKLOAD PAIR appends the run's result line to
# $out/WORKLOAD.SIDE.jsonl, or a line marking it failed.
run_side() {
    local dir="$1" side="$2" w="$3" i="$4" line
    if line="$(cd "$dir" && bash benchmark/run.sh --workload "$w" --seed "$seed" --trace 0 2>>"$out/$w.$side.log" | tail -n 1)" &&
        jq -e '.metrics' <<<"$line" >/dev/null 2>&1; then
        echo "$line" >>"$out/$w.$side.jsonl"
    else
        echo "bench-check: $w pair $i: the $side run failed (log: $out/$w.$side.log)" >&2
        echo '{"correct":false,"failed":-1,"metrics":{}}' >>"$out/$w.$side.jsonl"
    fi
}

status=0
for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        echo "bench-check: $w pair $i/$pairs" >&2
        if [ $((i % 2)) -eq 1 ]; then
            run_side "$tmp/base" base "$w" "$i"
            run_side "$root" change "$w" "$i"
        else
            run_side "$root" change "$w" "$i"
            run_side "$tmp/base" base "$w" "$i"
        fi
    done
    # One line per end-to-end metric, then OK or FAIL.
    verdict="$(jq -n -r --slurpfile b "$out/$w.base.jsonl" --slurpfile c "$out/$w.change.jsonl" \
        --slurpfile spec BENCHMARK.json --arg w "$w" '
        def q(p): sort | ((length - 1) * p) as $i | ($i | floor) as $lo | ($i | ceil) as $hi
            | .[$lo] + (.[$hi] - .[$lo]) * ($i - $lo);
        def vals($runs; $m): [$runs[] | .metrics[$m].value | numbers];
        def f: if . == null then "-" elif fabs >= 1000 then "\(round)" elif fabs >= 100 then "\(. * 10 | round / 10)" else "\(. * 1000 | round / 1000)" end;
        ([$b[], $c[]] | map(select(.correct != true or .failed != 0)) | length) as $bad
        | [$spec[0].end_to_end[] as $e
            | vals($b; $e.name) as $bv | vals($c; $e.name) as $cv
            | select(($bv | length) > 0 and ($cv | length) > 0)
            | ($bv | q(0.5)) as $bm | ($cv | q(0.5)) as $cm
            | (if $bm == 0 then 0 else ($cm - $bm) / $bm end) as $chg
            | (if $e.better == "lower" then $chg else -$chg end) as $worse
            | ([range(0; [$b | length, ($c | length)] | min)
                | select(($c[.].metrics[$e.name].value // null) as $x | ($b[.].metrics[$e.name].value // null) as $y
                    | $x != null and $y != null and (if $e.better == "lower" then $x < $y else $x > $y end))] | length) as $wins
            | {line: "\($w)\t\($e.name)\t\($bm | f) [\($bv | q(0.25) | f), \($bv | q(0.75) | f)]\t\($cm | f) [\($cv | q(0.25) | f), \($cv | q(0.75) | f)]\t\($chg * 1000 | round / 10)%\t\($wins)/\([$b | length, ($c | length)] | min)\t\($e.bound * 100)%\t\(if $worse > $e.bound then "WORSE" else "ok" end)",
               bad: ($worse > $e.bound)}]
        | (.[] | .line),
          (if $bad > 0 then "FAIL\t\($bad) run(s) incorrect or with failed operations"
           elif any(.[]; .bad) then "FAIL\tworse than the bound"
           elif length == 0 then "FAIL\tno metrics"
           else "OK" end)')"
    echo "$verdict" | grep -v '^OK$\|^FAIL' >>"$out/table.tsv" || true
    if echo "$verdict" | grep -q '^FAIL'; then
        status=1
        echo "bench-check: $w: $(echo "$verdict" | grep '^FAIL' | cut -f2)" >>"$out/verdicts.txt"
    fi
done

# Aligned columns, widest cell per column.
printf 'workload\tmetric\tbase median [q1, q3]\tchange median [q1, q3]\tchange\twins\tbound\tverdict\n' |
    cat - "$out/table.tsv" | awk -F '\t' '
        { for (i = 1; i <= NF; i++) { cell[NR, i] = $i; if (length($i) > wd[i]) wd[i] = length($i) } n = NR; nf = NF }
        END { for (r = 1; r <= n; r++) { for (i = 1; i <= nf; i++) printf "%-*s  ", wd[i], cell[r, i]; printf "\n" } }'
if [ "$status" -ne 0 ]; then
    cat "$out/verdicts.txt" >&2
    echo "bench-check: FAILED against $base_rev" >&2
else
    echo "bench-check: every end-to-end metric within its bound against $base_rev"
fi
exit "$status"
