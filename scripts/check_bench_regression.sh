#!/usr/bin/env bash
# Compares freshly produced target/BENCH_<name>.json files against the
# committed bench-baselines/ with a two-tier gate:
#
#   * soft tier  (default >25%):  emits a GitHub warning annotation for every
#     regressed median — advisory, never fails the job (the CI runner is a
#     single shared core, so medians are indicative, not authoritative);
#   * hard tier  (default >100%): a median on the guarded benchmark groups
#     (chase/*, storage_ops/* and violations/more_specific/*) that at least
#     doubled fails the job — a 2x regression is beyond scheduler noise even
#     on a shared core. violations/more_specific/* is guarded because the
#     correction query falling back to a relation scan costs 10–100x there.
#
# A baseline file whose corresponding target/BENCH_<name>.json was never
# produced is a HARD ERROR (a bench binary was renamed or dropped), and so is
# a baseline benchmark id missing from a produced file (a group or case was
# renamed or dropped) — either way the perf gate silently stopped guarding
# something it used to.
#
# The reverse direction is NOT silent either: a freshly produced
# target/BENCH_<name>.json with no committed baseline (a newly added bench
# group) emits a warning and seeds bench-baselines/<name> from the fresh
# summary, so the new group is guarded from its first run — commit the seeded
# file in the PR that adds the bench.
#
# Update the baselines intentionally by copying target/BENCH_*.json over
# bench-baselines/ in the PR that changes the perf.
#
# Usage: scripts/check_bench_regression.sh [soft-threshold-%] [hard-threshold-%]
set -u

SOFT=${1:-25}
HARD=${2:-100}
BASELINE_DIR="$(dirname "$0")/../bench-baselines"
TARGET_DIR="$(dirname "$0")/../target"
# Benchmark id prefixes the hard tier guards.
# (BENCH_storage_ops.json's ids use the `storage/` prefix.)
HARD_GROUPS='^(chase/|storage/|violations/more_specific/)'

if ! command -v jq >/dev/null 2>&1; then
    echo "jq not found; skipping bench regression check"
    exit 0
fi

soft_hits=0
hard_hits=0
missing=0
for baseline in "$BASELINE_DIR"/BENCH_*.json; do
    name=$(basename "$baseline")
    current="$TARGET_DIR/$name"
    if [ ! -f "$current" ]; then
        echo "::error file=bench-baselines/$name::baseline $name has no freshly produced $current — a bench binary was renamed or dropped; the perf gate no longer guards it"
        missing=$((missing + 1))
        continue
    fi
    # Baseline ids with no counterpart in the fresh summary: a renamed or
    # dropped benchmark group/case inside a surviving bench binary.
    while IFS= read -r id; do
        [ -n "$id" ] || continue
        echo "::error file=bench-baselines/$name::baseline id $id is missing from the fresh $name — a benchmark was renamed or dropped; the perf gate no longer guards it"
        missing=$((missing + 1))
    done < <(jq -r --slurpfile cur "$current" '
        ($cur[0].results | map(.id)) as $now
        | .results[].id | select(. as $id | $now | index($id) | not)' "$baseline")
    # id -> median pairs from both files, joined on id.
    while IFS=$'\t' read -r id base_ns cur_ns; do
        pct=$(jq -n --argjson b "$base_ns" --argjson c "$cur_ns" \
            '(($c - $b) / $b * 100) | round')
        if [ "$pct" -gt "$HARD" ] && echo "$id" | grep -qE "$HARD_GROUPS"; then
            echo "::error file=bench-baselines/$name::$id regressed ${pct}% (baseline ${base_ns}ns -> ${cur_ns}ns, hard threshold ${HARD}%)"
            hard_hits=$((hard_hits + 1))
        elif [ "$pct" -gt "$SOFT" ]; then
            echo "::warning file=bench-baselines/$name::$id regressed ${pct}% (baseline ${base_ns}ns -> ${cur_ns}ns, soft threshold ${SOFT}%)"
            soft_hits=$((soft_hits + 1))
        fi
    done < <(jq -r --slurpfile cur "$current" '
        (.results | map({(.id): .median_ns}) | add) as $base
        | ($cur[0].results | map({(.id): .median_ns}) | add) as $now
        | $base | to_entries[]
        | select($now[.key] != null)
        | [.key, (.value | tostring), ($now[.key] | tostring)] | @tsv' "$baseline")
done

# The symmetric check: fresh summaries with no committed baseline. Silence
# here would mean a newly added bench group is never guarded; instead warn
# and seed the baseline from the fresh summary so the gate picks it up
# immediately (and the PR author is told to commit it).
seeded=0
for current in "$TARGET_DIR"/BENCH_*.json; do
    [ -e "$current" ] || continue
    name=$(basename "$current")
    baseline="$BASELINE_DIR/$name"
    if [ ! -f "$baseline" ]; then
        echo "::warning file=bench-baselines/$name::fresh $name has no committed baseline — seeding bench-baselines/$name from this run; commit it so the new bench group is guarded"
        cp "$current" "$baseline"
        seeded=$((seeded + 1))
    fi
done

if [ "$missing" -gt 0 ]; then
    echo "FAIL: $missing baseline file(s)/id(s) without a current-side counterpart"
    exit 1
fi
if [ "$hard_hits" -gt 0 ]; then
    echo "FAIL: $hard_hits median(s) regressed beyond the hard ${HARD}% tier on guarded groups"
    exit 1
fi
if [ "$soft_hits" -eq 0 ]; then
    echo "bench medians within ${SOFT}% of baselines"
else
    echo "bench regressions detected ($soft_hits soft warning(s) above; hard tier ${HARD}% clean)"
fi
if [ "$seeded" -gt 0 ]; then
    echo "NOTE: seeded $seeded new baseline file(s) — commit bench-baselines/ additions"
fi
exit 0
