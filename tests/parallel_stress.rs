//! Stress lane for the free-running [`ExchangeEngine`](youtopia::ExchangeEngine).
//! `#[ignore]`d in the default suite — CI runs it explicitly with
//! `cargo test --release -- --ignored` in the stress job, where real OS
//! preemption produces interleavings a 1-shot unit test cannot.
//!
//! Each case runs a sizeable workload free-running: the sequencer thread
//! steps, skips published frontiers and locks abort victims while the
//! [`ResolverPump`] answers from the watchdogged test thread — the two meet on
//! exactly those slot locks, and a deadlock or livelock fails by timeout
//! instead of hanging the suite. Afterwards the system invariants must hold:
//! every update terminated, the final database satisfies every mapping, and
//! the per-update statistics are sane.

use std::sync::mpsc;
use std::time::Duration;

use youtopia::concurrency::{RunMetrics, SchedulingPolicy};
use youtopia::mappings::satisfies_all;
use youtopia::workload::{build_fixture, generate_workload, ExperimentConfig};
use youtopia::{EngineBuilder, RandomResolver, ResolverPump, TrackerKind, UpdateId, WorkloadKind};

/// Runs `f` on its own thread and panics if it does not finish in `timeout`
/// (a hung free-running engine would otherwise block the whole lane).
fn with_deadline<T: Send + 'static>(
    timeout: Duration,
    label: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(timeout) {
        Ok(result) => {
            handle.join().expect("stress worker panicked");
            result
        }
        Err(_) => panic!(
            "{label}: free-running engine did not finish within {timeout:?} — deadlock or livelock"
        ),
    }
}

fn stress_once(
    seed: u64,
    tracker: TrackerKind,
    kind: WorkloadKind,
    policy: SchedulingPolicy,
    updates: usize,
) -> RunMetrics {
    let label = format!("seed {seed}, {tracker}, {kind}, {policy:?}");
    with_deadline(Duration::from_secs(120), &label.clone(), move || {
        let mut config = ExperimentConfig::quick();
        config.seed = seed;
        config.initial_tuples = 300;
        config.workload_updates = updates;
        let fixture = build_fixture(&config).expect("fixture builds");
        let ops = generate_workload(
            &config,
            &fixture.schema,
            &fixture.initial_db,
            &fixture.mappings,
            kind,
            seed,
        );
        assert_eq!(ops.len(), updates);
        let engine = EngineBuilder::new()
            .tracker(tracker)
            .policy(policy)
            .free_running()
            .first_update_number(config.initial_tuples as u64 + 1_000)
            .build(fixture.initial_db.clone(), fixture.mappings.clone())
            .expect("non-durable engines build infallibly");
        engine.submit_batch(ops).expect("uncapped submission");
        ResolverPump::new(&engine, &mut RandomResolver::seeded(seed ^ 0x57E55))
            .run_until_quiescent()
            .unwrap();
        let stats = engine.update_stats();
        let (db, mappings, metrics) = engine.shutdown();

        // System invariants: every update ran and terminated, restarts match
        // the abort count, and the final repository is consistent.
        assert_eq!(metrics.workload_size, updates, "{label}");
        assert!(metrics.steps >= updates, "{label}: every update steps at least once");
        assert_eq!(stats.len(), updates, "{label}");
        assert!(stats.iter().all(|(_, s)| s.steps > 0), "{label}: no update may be skipped");
        let restarts: usize = stats.iter().map(|(_, s)| s.restarts).sum();
        assert_eq!(restarts, metrics.aborts, "{label}: every abort restarts its update");
        assert!(
            satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), &mappings),
            "{label}: final database must satisfy all mappings"
        );
        metrics
    })
}

/// The headline stress case from the CI lane: 200 updates free-running on
/// the contention-heavy skewed workload.
#[test]
#[ignore = "free-running stress lane: run with `cargo test --release -- --ignored`"]
fn free_running_skewed_200_updates() {
    let metrics = stress_once(
        1,
        TrackerKind::Coarse,
        WorkloadKind::Skewed,
        SchedulingPolicy::StepRoundRobin,
        200,
    );
    assert!(metrics.changes > 0);
}

/// Deep cascades keep violation queues long across many steps; PRECISE
/// exercises exact dependency recording under contention.
#[test]
#[ignore = "free-running stress lane: run with `cargo test --release -- --ignored`"]
fn free_running_deep_cascade_precise() {
    stress_once(
        2,
        TrackerKind::Precise,
        WorkloadKind::DeepCascade,
        SchedulingPolicy::StepRoundRobin,
        200,
    );
}

/// The stratum policy under free-running: the chase thread holds an update
/// for whole deterministic strata, so more answers and aborts pile up behind
/// each owned-slot window.
#[test]
#[ignore = "free-running stress lane: run with `cargo test --release -- --ignored`"]
fn free_running_mixed_stratum_policy() {
    stress_once(
        3,
        TrackerKind::Naive,
        WorkloadKind::Mixed,
        SchedulingPolicy::StratumRoundRobin,
        200,
    );
}

/// Several back-to-back seeds at a smaller size: schedule diversity matters
/// more than workload volume for racing the abort machinery.
#[test]
#[ignore = "free-running stress lane: run with `cargo test --release -- --ignored`"]
fn free_running_seed_sweep() {
    for seed in 10..16u64 {
        stress_once(
            seed,
            if seed % 2 == 0 { TrackerKind::Coarse } else { TrackerKind::Precise },
            if seed % 2 == 0 { WorkloadKind::Mixed } else { WorkloadKind::Skewed },
            SchedulingPolicy::StepRoundRobin,
            60,
        );
    }
}
