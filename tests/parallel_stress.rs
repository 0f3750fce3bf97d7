//! Multi-threaded stress lane for the free-running [`ParallelRun`]
//! scheduler. `#[ignore]`d in the default suite — CI runs it explicitly with
//! `cargo test --release -- --ignored` in the stress job, where real OS
//! preemption produces interleavings a 1-shot unit test cannot.
//!
//! Each case runs a sizeable workload free-running (no sequencer), inside a
//! watchdog thread: if the scheduler deadlocks or livelocks, the test fails
//! by timeout instead of hanging the suite. Afterwards the system invariants
//! must hold — every update terminated (workload size accounted), the final
//! database satisfies every mapping, and the per-update statistics are sane.

use std::sync::mpsc;
use std::time::Duration;

use youtopia::concurrency::{RunMetrics, SchedulerConfig, SchedulingPolicy};
use youtopia::mappings::satisfies_all;
use youtopia::workload::{build_fixture, generate_workload, ExperimentConfig};
use youtopia::{ParallelRun, RandomResolver, TrackerKind, UpdateId, WorkloadKind};

/// Runs `f` on its own thread and panics if it does not finish in `timeout`
/// (a hung free-running scheduler would otherwise block the whole lane).
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
        Err(_) => panic!("{label}: free-running scheduler did not finish within {timeout:?} — deadlock or livelock"),
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
        let scheduler = SchedulerConfig::with_tracker(tracker)
            .with_policy(policy)
            .with_workers(4)
            .free_running();
        let first_number = config.initial_tuples as u64 + 1_000;
        let mut run = ParallelRun::new(
            fixture.initial_db.clone(),
            fixture.mappings.clone(),
            ops,
            first_number,
            scheduler,
        );
        let metrics = run.run(&mut RandomResolver::seeded(seed ^ 0x57E55)).unwrap();

        // System invariants: every update ran and terminated, restarts match
        // the abort count, and the final repository is consistent.
        assert_eq!(metrics.workload_size, updates, "{label}");
        assert!(metrics.steps >= updates, "{label}: every update steps at least once");
        let stats = run.update_stats();
        assert_eq!(stats.len(), updates, "{label}");
        assert!(stats.iter().all(|(_, s)| s.steps > 0), "{label}: no update may be skipped");
        let restarts: usize = stats.iter().map(|(_, s)| s.restarts).sum();
        assert_eq!(restarts, metrics.aborts, "{label}: every abort restarts its update");
        let (db, mappings, _) = run.into_parts();
        assert!(
            satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), &mappings),
            "{label}: final database must satisfy all mappings"
        );
        metrics
    })
}

/// The headline stress case from the CI lane: 200 updates, 4 free-running
/// workers, the contention-heavy skewed workload.
#[test]
#[ignore = "multi-thread stress lane: run with `cargo test --release -- --ignored`"]
fn free_running_skewed_200_updates_4_workers() {
    let metrics = stress_once(
        1,
        TrackerKind::Coarse,
        WorkloadKind::Skewed,
        SchedulingPolicy::StepRoundRobin,
        200,
    );
    assert!(metrics.changes > 0);
}

/// Deep cascades keep violation queues long across many overlapping read
/// halves; PRECISE exercises exact dependency recording under contention.
#[test]
#[ignore = "multi-thread stress lane: run with `cargo test --release -- --ignored`"]
fn free_running_deep_cascade_precise() {
    stress_once(
        2,
        TrackerKind::Precise,
        WorkloadKind::DeepCascade,
        SchedulingPolicy::StepRoundRobin,
        200,
    );
}

/// The stratum policy under free-running: workers hold updates for whole
/// deterministic strata, widening the owned-slot windows the abort-flag
/// protocol must survive.
#[test]
#[ignore = "multi-thread stress lane: run with `cargo test --release -- --ignored`"]
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
#[ignore = "multi-thread stress lane: run with `cargo test --release -- --ignored`"]
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
