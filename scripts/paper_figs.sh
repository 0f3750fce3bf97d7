#!/usr/bin/env bash
# Pins the count columns of Figures 3 and 4 at the default quick profile,
# all three trackers (NAIVE, COARSE, PRECISE): aborts, cascading abort
# requests, direct conflicts, steps and frontier operations per cell must
# equal bench-baselines/fig{3,4}_quick.csv. The timing columns are left out.
# A change to the scheduler, the logs or the trackers that moves any count
# changes the paper's figures and fails here.
#
# Usage: scripts/paper_figs.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

# The CSV follows the `CSV:` line on stdout; keep
# mappings,tracker,aborts,cascading_abort_requests,direct_conflicts,steps,frontier_ops.
counts() { sed -n '/^CSV:$/,$p' | tail -n +2 | cut -d, -f1-5,10,11; }

# Progress lines go to stderr; it is shown only when a build or run fails.
err=$(mktemp)
trap 'rm -f "$err"' EXIT

status=0
for fig in fig3 fig4; do
    baseline="bench-baselines/${fig}_quick.csv"
    if ! out=$(cargo run -q --release -p youtopia-bench --bin "$fig" -- --csv 2>"$err"); then
        cat "$err" >&2
        echo "==> $fig: build or run failed" >&2
        exit 1
    fi
    got=$(printf '%s\n' "$out" | counts)
    if diff -u "$baseline" <(printf '%s\n' "$got"); then
        echo "==> $fig: counts match $baseline"
    else
        echo "==> $fig: counts differ from $baseline" >&2
        status=1
    fi
done
exit $status
