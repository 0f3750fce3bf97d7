//! Differential and lifecycle tests for the engine-shared violation index
//! ([`youtopia::concurrency::viewmaint`]).
//!
//! * **Oracle equivalence** — the shared violation index only decides *which*
//!   queued violations a step re-validates, never what any update does: for
//!   every generated workload, tracker and scheduling policy, an engine
//!   maintaining its queues from the delta feed ([`ChaseMode::Incremental`])
//!   must be byte-identical to the single-threaded [`ConcurrentRun`]
//!   reference re-validating every queue in full ([`ChaseMode::FullRecheck`],
//!   which never consults the feed) — the same final database (up to the
//!   names of labeled nulls), the same per-update statistics (hence the same
//!   abort sets) and the same [`RunMetrics`] modulo wall clock. Exact null
//!   names and the null counter are pinned where both sides chase in the same
//!   mode: `tests/engine_equivalence.rs` renders them byte-exactly for
//!   Incremental engine ≡ Incremental reference
//!   (`precise_mixed_batches_match_the_reference`,
//!   `coarse_deep_cascade_batches_match_the_reference`) and FullRecheck engine
//!   ≡ FullRecheck reference (`naive_stratum_full_recheck_…`,
//!   `precise_full_recheck_null_replacement_…`).
//! * **Bounded backlog** — a long-lived engine cycling through tens of
//!   thousands of trivial updates must not accumulate delta-log backlog: the
//!   quiescence GC truncates the shared feed whenever no cursor can still
//!   need it — after trivial cycles and after a real chased workload alike.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;
use youtopia::chase::ChaseMode;
use youtopia::concurrency::{RunMetrics, SchedulerConfig, SchedulingPolicy};
use youtopia::mappings::satisfies_all;
use youtopia::storage::DELTA_BACKLOG_CAP;
use youtopia::workload::{build_fixture, generate_workload, ExperimentConfig, WorkloadKind};
use youtopia::{
    ConcurrentRun, Database, EngineBuilder, ExchangeEngine, InitialOp, MappingSet, NullId,
    RandomResolver, ResolverPump, TrackerKind, UpdateId, UpdateStatus, Value,
};

/// Strips the wall-clock field so metrics compare byte-exactly.
fn scrub(mut m: RunMetrics) -> RunMetrics {
    m.wall_time = std::time::Duration::ZERO;
    m
}

/// Rendering of every relation's visible contents (tuple ids included) with
/// labeled nulls renamed in order of first appearance — the "final database
/// state" the equivalence is pinned on. Null *names* are the one thing the
/// two chase modes may not share: the full-recheck reference re-plans every
/// queued violation every step and each re-plan draws fresh nulls, so its
/// counter runs ahead of the memoising incremental chase.
fn render(db: &Database) -> String {
    let mut names: HashMap<NullId, usize> = HashMap::new();
    let mut out = String::new();
    for relation in db.catalog().relation_ids() {
        out.push_str(&format!("{relation:?}:"));
        for (tuple, values) in db.scan(relation, UpdateId::OMNISCIENT) {
            out.push_str(&format!(" {tuple:?}["));
            for value in values.iter() {
                match value {
                    Value::Null(null) => {
                        let next = names.len();
                        out.push_str(&format!("?{} ", names.entry(*null).or_insert(next)));
                    }
                    constant => out.push_str(&format!("{constant:?} ")),
                }
            }
            out.push(']');
        }
        out.push('\n');
    }
    out
}

/// Runs one generated workload through the `FullRecheck` reference scheduler,
/// then through a feed-driven (`Incremental`) engine, asserting byte equality
/// throughout.
fn feed_driven_engine_matches_full_recheck(
    seed: u64,
    tracker: TrackerKind,
    kind: WorkloadKind,
    policy: SchedulingPolicy,
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
    // The reference never looks at the delta feed: every step re-runs
    // `still_violated` over the whole queue.
    let mut reference = ConcurrentRun::new(
        fixture.initial_db.clone(),
        fixture.mappings.clone(),
        ops.clone(),
        first_number,
        SchedulerConfig::with_tracker(tracker)
            .with_policy(policy)
            .with_chase_mode(ChaseMode::FullRecheck)
            .with_frontier_delay_rounds(3),
    );
    let ref_metrics = reference.run(&mut RandomResolver::seeded(seed ^ 0xE61E)).unwrap();
    let ref_stats = reference.update_stats();
    let (ref_db, ref_mappings, _) = reference.into_parts();
    assert!(satisfies_all(&ref_db.snapshot(UpdateId::OMNISCIENT), &ref_mappings));
    let ref_abort_set: BTreeSet<UpdateId> =
        ref_stats.iter().filter(|(_, s)| s.restarts > 0).map(|(id, _)| *id).collect();

    let engine = EngineBuilder::new()
        .tracker(tracker)
        .policy(policy)
        .frontier_delay_rounds(3)
        .first_update_number(first_number)
        .build(fixture.initial_db.clone(), fixture.mappings.clone())
        .expect("non-durable engines build infallibly");
    let handles = engine.submit_batch(ops.clone()).expect("uncapped submission");
    let mut resolver = RandomResolver::seeded(seed ^ 0xE61E);
    ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
    let label = format!("seed {seed}, {tracker}, {kind}, {policy:?}");
    for handle in &handles {
        assert_eq!(handle.status(), UpdateStatus::Terminated, "{label}");
    }
    let stats = engine.update_stats();
    assert_eq!(stats, ref_stats, "{label}: per-update stats");
    let abort_set: BTreeSet<UpdateId> =
        stats.iter().filter(|(_, s)| s.restarts > 0).map(|(id, _)| *id).collect();
    assert_eq!(abort_set, ref_abort_set, "{label}: abort set");
    let index = engine.violation_index();
    assert_eq!(index.backlog_cap, DELTA_BACKLOG_CAP, "{label}: advertised cap");
    assert!(index.backlog_len <= index.backlog_cap, "{label}: backlog within cap");
    let (db, _, metrics) = engine.shutdown();
    assert_eq!(scrub(metrics), scrub(ref_metrics), "{label}: metrics");
    assert_eq!(render(&db), render(&ref_db), "{label}: final database state");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// PRECISE over the mixed workload (inserts + deletes, forward and
    /// backward repairs) — the workhorse combination.
    #[test]
    fn precise_mixed_matches_the_full_recheck_oracle(seed in 0u64..10_000) {
        feed_driven_engine_matches_full_recheck(
            seed,
            TrackerKind::Precise,
            WorkloadKind::Mixed,
            SchedulingPolicy::StepRoundRobin,
        );
    }

    /// COARSE over deep cascades: long violation queues, many epochs per
    /// update — the regime where the shared feed does the most work.
    #[test]
    fn coarse_deep_cascade_matches_the_full_recheck_oracle(seed in 0u64..10_000) {
        feed_driven_engine_matches_full_recheck(
            seed,
            TrackerKind::Coarse,
            WorkloadKind::DeepCascade,
            SchedulingPolicy::StepRoundRobin,
        );
    }

    /// NAIVE + the stratum policy over the skewed hot-relation workload:
    /// an update keeps stepping between visits, so its cursor skips the
    /// largest windows of other updates' deltas.
    #[test]
    fn naive_stratum_skewed_matches_the_full_recheck_oracle(seed in 0u64..10_000) {
        feed_driven_engine_matches_full_recheck(
            seed,
            TrackerKind::Naive,
            WorkloadKind::Skewed,
            SchedulingPolicy::StratumRoundRobin,
        );
    }
}

// ---------------------------------------------------------------------------
// Long-lived engines: the delta backlog stays bounded
// ---------------------------------------------------------------------------

/// A bare single-relation fixture whose updates terminate immediately (no
/// mappings, so no chase beyond the initial operation) — every cycle still
/// appends at least one entry to the shared delta feed.
fn trivial_fixture() -> (Database, MappingSet, youtopia::RelationId) {
    let mut db = Database::new();
    db.add_relation("K", ["key", "value"]).unwrap();
    let k = db.relation_id("K").unwrap();
    (db, MappingSet::new(), k)
}

/// Asserts the quiescence GC has truncated the shared delta backlog. It is
/// the tail of the action that retired the last update, and that action ran
/// on the caller's own thread before it could observe quiescence.
fn assert_drained_backlog(engine: &ExchangeEngine, context: &str) {
    let left = engine.violation_index().backlog_len;
    assert_eq!(left, 0, "{context}: backlog not drained at quiescence");
}

/// ≥16k submit/terminate cycles: each writes at least one delta, so without
/// the quiescence GC the shared backlog would cross the assertion bound
/// within the first ~1.5k cycles (and the `DELTA_BACKLOG_CAP` high-water
/// mark soon after). With it, the feed is truncated every time the engine
/// drains, and a long-lived engine holds O(1) delta memory.
#[test]
fn long_lived_engines_hold_bounded_delta_backlog() {
    let (db, mappings, k) = trivial_fixture();
    let engine = EngineBuilder::new()
        .tracker(TrackerKind::Precise)
        .first_update_number(1_000)
        .retention_horizon(32)
        .build(db, mappings)
        .expect("non-durable engines build infallibly");

    // Far below the cap: backlog may transiently hold the deltas of updates
    // admitted since the last GC, but never thousands of dead entries.
    let bound = 1_024;
    let cycles = 16_384u64;
    for i in 0..cycles {
        let handle = engine
            .submit(InitialOp::Insert {
                relation: k,
                values: vec![Value::constant(&format!("k{i}")), Value::constant("v")],
            })
            .expect("admission");
        assert!(handle.wait().expect("trivial update terminates").terminated);
        if i % 512 == 0 {
            let index = engine.violation_index();
            assert!(
                index.backlog_len <= bound,
                "cycle {i}: {} buffered deltas, bound {bound}",
                index.backlog_len
            );
            assert_eq!(index.backlog_cap, DELTA_BACKLOG_CAP);
        }
    }
    engine.wait_quiescent().expect("engine drains");
    assert_drained_backlog(&engine, "trivial cycles");
    // The sequence number itself never resets — cursors must keep advancing
    // monotonically across truncations.
    assert!(engine.violation_index().delta_seq >= cycles);
    let (final_db, _, metrics) = engine.shutdown();
    assert_eq!(metrics.workload_size, cycles as usize);
    assert_eq!(final_db.visible_count(k, UpdateId::OMNISCIENT), cycles as usize);
}

/// The bounded-backlog test above cycles trivial updates through a mapping-free
/// database; this one drains a real chase — mixed inserts and deletes under
/// PRECISE with delayed answers, so multi-step repairs and rollbacks feed the
/// log — and the committed feed must still be empty once the engine is
/// quiescent.
#[test]
fn chased_workload_drains_the_backlog_at_quiescence() {
    let mut config = ExperimentConfig::tiny();
    config.seed = 2_718;
    let fixture = build_fixture(&config).expect("fixture builds");
    let ops: Vec<InitialOp> = generate_workload(
        &config,
        &fixture.schema,
        &fixture.initial_db,
        &fixture.mappings,
        WorkloadKind::Mixed,
        config.seed,
    )
    .into_iter()
    .take(16)
    .collect();
    let engine = EngineBuilder::new()
        .tracker(TrackerKind::Precise)
        .frontier_delay_rounds(3)
        .first_update_number(config.initial_tuples as u64 + 1_000)
        .build(fixture.initial_db.clone(), fixture.mappings.clone())
        .expect("non-durable engines build infallibly");
    engine.submit_batch(ops).expect("uncapped submission");
    let mut resolver = RandomResolver::seeded(config.seed ^ 0xE61E);
    ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
    assert_drained_backlog(&engine, "chased workload");
    let (db, mappings, _) = engine.shutdown();
    assert!(satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), &mappings));
}
