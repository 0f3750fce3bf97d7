//! Differential tests for the multi-threaded scheduler: a deterministic
//! [`ParallelRun`] must be indistinguishable from the single-threaded
//! [`ConcurrentRun`] reference — the same final database, the same
//! [`RunMetrics`] (modulo wall clock), the same per-update statistics and
//! therefore the same abort *sets* — across trackers, scheduling policies,
//! chase modes, workloads and worker counts. This pins the parallel step
//! pipeline (two-phase steps, striped logs, sequencer) to the reference
//! semantics the same way `tests/queue_equivalence.rs` pins the chase modes.

use std::collections::BTreeSet;

use proptest::prelude::*;
use youtopia::chase::ChaseMode;
use youtopia::concurrency::{RunMetrics, SchedulerConfig, SchedulingPolicy};
use youtopia::mappings::satisfies_all;
use youtopia::workload::{build_fixture, generate_workload, ExperimentConfig, WorkloadKind};
use youtopia::{ConcurrentRun, InitialOp, ParallelRun, RandomResolver, TrackerKind, UpdateId};

/// Strips the wall-clock field so metrics compare byte-exactly.
fn scrub(mut m: RunMetrics) -> RunMetrics {
    m.wall_time = std::time::Duration::ZERO;
    m
}

/// Byte-exact rendering of every relation's visible contents plus the null
/// counter — the "final database state" the equivalence is pinned on.
fn render(db: &youtopia::Database) -> String {
    let mut out = String::new();
    for relation in db.catalog().relation_ids() {
        out.push_str(&format!("{relation:?}: {:?}\n", db.scan(relation, UpdateId::OMNISCIENT)));
    }
    out.push_str(&format!("nulls: {}\n", db.null_counter()));
    out
}

/// Runs one generated workload under both schedulers and asserts equivalence.
fn schedulers_agree(
    seed: u64,
    tracker: TrackerKind,
    kind: WorkloadKind,
    policy: SchedulingPolicy,
    chase_mode: ChaseMode,
) {
    let mut config = ExperimentConfig::tiny();
    config.seed = seed;
    let fixture = build_fixture(&config).expect("fixture builds");
    let ops: Vec<InitialOp> = generate_workload(
        &config,
        &fixture.schema,
        &fixture.initial_db,
        &fixture.mappings,
        kind,
        seed,
    )
    .into_iter()
    .take(16)
    .collect();
    let first_number = config.initial_tuples as u64 + 1_000;
    let scheduler = SchedulerConfig::with_tracker(tracker)
        .with_policy(policy)
        .with_chase_mode(chase_mode)
        .with_frontier_delay_rounds(3);

    let mut reference = ConcurrentRun::new(
        fixture.initial_db.clone(),
        fixture.mappings.clone(),
        ops.clone(),
        first_number,
        scheduler,
    );
    let ref_metrics = reference.run(&mut RandomResolver::seeded(seed ^ 0xFA11)).unwrap();
    let ref_stats = reference.update_stats();
    let (ref_db, ref_mappings, _) = reference.into_parts();
    assert!(satisfies_all(&ref_db.snapshot(UpdateId::OMNISCIENT), &ref_mappings));
    let ref_abort_set: BTreeSet<UpdateId> =
        ref_stats.iter().filter(|(_, s)| s.restarts > 0).map(|(id, _)| *id).collect();

    // A deterministic run commits in one serial order on one sequencer
    // thread, so every `workers` value must be byte-identical to the reference.
    for workers in [2usize, 4] {
        let par_config = scheduler.with_workers(workers);
        let mut run = ParallelRun::new(
            fixture.initial_db.clone(),
            fixture.mappings.clone(),
            ops.clone(),
            first_number,
            par_config,
        );
        let metrics = run.run(&mut RandomResolver::seeded(seed ^ 0xFA11)).unwrap();
        let label = format!(
            "seed {seed}, {tracker}, {kind}, {policy:?}, {chase_mode:?}, {workers} workers"
        );
        assert_eq!(scrub(metrics), scrub(ref_metrics.clone()), "{label}: metrics");
        let stats = run.update_stats();
        assert_eq!(stats, ref_stats, "{label}: per-update stats");
        let abort_set: BTreeSet<UpdateId> =
            stats.iter().filter(|(_, s)| s.restarts > 0).map(|(id, _)| *id).collect();
        assert_eq!(abort_set, ref_abort_set, "{label}: abort set");
        let (db, _, _) = run.into_parts();
        assert_eq!(render(&db), render(&ref_db), "{label}: final database state");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// PRECISE abort sets and final states survive parallel scheduling on the
    /// mixed workload (inserts + deletes, forward and backward repairs).
    #[test]
    fn precise_mixed_workloads_agree(seed in 0u64..10_000) {
        schedulers_agree(
            seed,
            TrackerKind::Precise,
            WorkloadKind::Mixed,
            SchedulingPolicy::StepRoundRobin,
            ChaseMode::Incremental,
        );
    }

    /// COARSE over deep cascades: long-lived violation queues cross many
    /// sequencer hand-offs.
    #[test]
    fn coarse_deep_cascades_agree(seed in 0u64..10_000) {
        schedulers_agree(
            seed,
            TrackerKind::Coarse,
            WorkloadKind::DeepCascade,
            SchedulingPolicy::StepRoundRobin,
            ChaseMode::Incremental,
        );
    }

    /// The stratum policy (an update keeps stepping until it blocks) and the
    /// NAIVE tracker, over the skewed hot-relation workload.
    #[test]
    fn naive_stratum_skewed_agree(seed in 0u64..10_000) {
        schedulers_agree(
            seed,
            TrackerKind::Naive,
            WorkloadKind::Skewed,
            SchedulingPolicy::StratumRoundRobin,
            ChaseMode::Incremental,
        );
    }

    /// The reference chase mode (full queue recheck) is scheduled identically
    /// too — the scheduler must be agnostic of the queue maintenance mode.
    #[test]
    fn full_recheck_mode_agrees(seed in 0u64..10_000) {
        schedulers_agree(
            seed,
            TrackerKind::Precise,
            WorkloadKind::NullReplacementHeavy,
            SchedulingPolicy::StepRoundRobin,
            ChaseMode::FullRecheck,
        );
    }
}
