#!/usr/bin/env bash
# Mirrors the full CI matrix (.github/workflows/ci.yml) for offline pre-push
# runs: lint → test → stress → recovery → bench, same commands, same gates,
# one machine. Stops at the first failing stage, like the `needs:` edges do
# in CI.
#
# Usage: scripts/ci_local.sh [stage...]
#   stages: lint test stress recovery replication bench   (default: all, in order)
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

stage_lint() {
    echo "==> [lint] cargo fmt --all --check"
    cargo fmt --all --check
    echo "==> [lint] cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
    echo "==> [lint] rustdoc -D warnings (workspace crates; vendor stubs excluded)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -p youtopia -p youtopia-storage -p youtopia-mappings -p youtopia-core -p youtopia-concurrency -p youtopia-replication -p youtopia-workload -p youtopia-bench
    echo "==> [lint] engine smoke (examples/live_session.rs)"
    cargo run --example live_session
}

stage_test() {
    echo "==> [test] cargo build --release"
    cargo build --release
    echo "==> [test] cargo test --workspace -q"
    cargo test --workspace -q
    echo "==> [test] example smoke tests"
    cargo run --release --example quickstart
    cargo run --release --example genealogy
    cargo run --release --example concurrent_updates
    cargo run --release --example live_session
    cargo run --release --example experiment
    cargo run --release --example two_node_sync
}

stage_stress() {
    echo "==> [stress] free-running stress lane (ignored tests)"
    cargo test -q --release --test parallel_stress -- --ignored
    echo "==> [stress] callers enter between actions (GC wins every wave; hand-off bound; three caller threads; waiters wake)"
    cargo test -q --release -p youtopia-concurrency --lib callers_
    cargo test -q --release --test parallel_stress
    echo "==> [stress] engine equivalence (batch engine = ConcurrentRun; live session; skipping policy; waiters)"
    cargo test -q --release --test engine_equivalence
    echo "==> [stress] violation-index equivalence (feed-driven engine = FullRecheck reference; drained backlog)"
    cargo test -q --release --test viewmaint_equivalence
    echo "==> [stress] determinism (seeds, sweep threads, engine vs reference)"
    cargo test -q --release --test determinism
    echo "==> [stress] million-user-day survival scenario"
    cargo test -q --release -p youtopia-workload scenario
    echo "==> [stress] fig3 smoke on both schedulers (reference, engine)"
    cargo run -p youtopia-bench --bin fig3 --release -- --runs 1 --updates 20 --no-naive
    cargo run -p youtopia-bench --bin fig3 --release -- --runs 1 --updates 20 --no-naive --engine
}

stage_recovery() {
    echo "==> [recovery] crash-recovery and retention suite"
    cargo test -q --release --test engine_recovery
    echo "==> [recovery] durable compaction stress (ignored tests)"
    cargo test -q --release --test engine_recovery -- --ignored
    echo "==> [recovery] workload crash-recovery scenario"
    cargo test -q --release -p youtopia-workload crash
}

stage_replication() {
    echo "==> [replication] convergence suite (smokes + proptest fault matrix)"
    cargo test -q --release --test replication_convergence
    echo "==> [replication] partition-storm stress (ignored tests)"
    cargo test -q --release --test replication_convergence -- --ignored
}

stage_bench() {
    echo "==> [bench] cargo bench --no-run --workspace"
    cargo bench --no-run --workspace
    echo "==> [bench] bench summaries"
    cargo bench -p youtopia-bench --bench storage_ops
    cargo bench -p youtopia-bench --bench violation_queries
    cargo bench -p youtopia-bench --bench trackers
    cargo bench -p youtopia-bench --bench chase
    echo "==> [bench] two-tier regression gate"
    bash scripts/check_bench_regression.sh 25 100
    echo "==> [bench] fig3 smoke (quick profile)"
    cargo run -p youtopia-bench --bin fig3 --release -- --runs 2 --updates 40 --no-naive
    echo "==> [bench] frozen end-to-end harness builds and runs against the workspace"
    cargo test --release --offline --manifest-path perf/Cargo.toml
    # Every workload, one second each: a schedule change reaches all six.
    for workload in fig_batch deep_cascade day_open workers_2 durable_crash sync_heal; do
        cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- --workload "$workload" --seed 1 --seconds 1 --trace 0
    done
}

stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
    stages=(lint test stress recovery replication bench)
fi
for stage in "${stages[@]}"; do
    case "$stage" in
        lint) stage_lint ;;
        test) stage_test ;;
        stress) stage_stress ;;
        recovery) stage_recovery ;;
        replication) stage_replication ;;
        bench) stage_bench ;;
        *)
            echo "unknown stage '$stage' (expected: lint test stress recovery replication bench)" >&2
            exit 2
            ;;
    esac
done
echo "ci_local: all requested stages green"
