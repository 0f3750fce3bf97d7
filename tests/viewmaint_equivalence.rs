//! Differential and lifecycle tests for the chase's epoch-watermark dirty
//! check ([`ChaseMode::Incremental`]).
//!
//! * **Oracle equivalence** — the watermarks only decide *which* queued
//!   violations a step re-validates, never what any update does: for every
//!   generated workload and tracker, an engine (which always re-checks only
//!   the violations of relations whose write epoch moved,
//!   [`ChaseMode::Incremental`]) must be byte-identical to the
//!   single-threaded [`ConcurrentRun`] reference re-validating every queue in
//!   full ([`ChaseMode::FullRecheck`], the test oracle) — the same final
//!   database (up to the names of labeled nulls), the same per-update
//!   statistics (hence the same abort sets) and the same [`RunMetrics`]
//!   modulo wall clock. Exact null names and the null counter are pinned
//!   where both sides chase in the same mode: `tests/engine_equivalence.rs`
//!   renders them byte-exactly for the engine ≡ an Incremental reference.
//! * **Long-lived engines** — an engine cycling through sixteen thousand
//!   trivial updates, each one quiescence GC, completes every one of them,
//!   and a real chased workload drains to a database that satisfies every
//!   mapping.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;
use youtopia::chase::ChaseMode;
use youtopia::concurrency::{RunMetrics, SchedulerConfig};
use youtopia::mappings::satisfies_all;
use youtopia::workload::{build_fixture, generate_workload, ExperimentConfig, WorkloadKind};
use youtopia::{
    ConcurrentRun, Database, EngineBuilder, InitialOp, MappingSet, NullId, RandomResolver,
    ResolverPump, TrackerKind, UpdateId, UpdateStatus, Value,
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
/// then through an (`Incremental`) engine, asserting byte equality
/// throughout.
fn engine_matches_full_recheck(seed: u64, tracker: TrackerKind, kind: WorkloadKind) {
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
    // The reference never looks at write epochs: every step re-runs
    // `still_violated` over the whole queue.
    let mut reference = ConcurrentRun::new(
        fixture.initial_db.clone(),
        fixture.mappings.clone(),
        ops.clone(),
        first_number,
        SchedulerConfig::with_tracker(tracker)
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
        .frontier_delay_rounds(3)
        .first_update_number(first_number)
        .build(fixture.initial_db.clone(), fixture.mappings.clone())
        .expect("non-durable engines build infallibly");
    let handles = engine.submit_batch(ops.clone()).expect("uncapped submission");
    let mut resolver = RandomResolver::seeded(seed ^ 0xE61E);
    ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
    let label = format!("seed {seed}, {tracker}, {kind}");
    for handle in &handles {
        assert_eq!(handle.status(), UpdateStatus::Terminated, "{label}");
    }
    let stats = engine.update_stats();
    assert_eq!(stats, ref_stats, "{label}: per-update stats");
    let abort_set: BTreeSet<UpdateId> =
        stats.iter().filter(|(_, s)| s.restarts > 0).map(|(id, _)| *id).collect();
    assert_eq!(abort_set, ref_abort_set, "{label}: abort set");
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
        engine_matches_full_recheck(seed, TrackerKind::Precise, WorkloadKind::Mixed);
    }

    /// COARSE over deep cascades: long violation queues, many epochs per
    /// update — the regime where the watermarks move most often.
    #[test]
    fn coarse_deep_cascade_matches_the_full_recheck_oracle(seed in 0u64..10_000) {
        engine_matches_full_recheck(
            seed,
            TrackerKind::Coarse,
            WorkloadKind::DeepCascade,
        );
    }

    /// NAIVE over the skewed hot-relation workload: most deltas land on one
    /// relation, so nearly every step finds that relation's watermark moved
    /// and re-examines the queued violations that read it.
    #[test]
    fn naive_skewed_matches_the_full_recheck_oracle(seed in 0u64..10_000) {
        engine_matches_full_recheck(seed, TrackerKind::Naive, WorkloadKind::Skewed);
    }
}

// ---------------------------------------------------------------------------
// Long-lived engines
// ---------------------------------------------------------------------------

/// A bare single-relation fixture whose updates terminate immediately (no
/// mappings, so no chase beyond the initial operation).
fn trivial_fixture() -> (Database, MappingSet, youtopia::RelationId) {
    let mut db = Database::new();
    db.add_relation("K", ["key", "value"]).unwrap();
    let k = db.relation_id("K").unwrap();
    (db, MappingSet::new(), k)
}

/// 16,384 submit/terminate cycles at retention 32, each ending in a
/// quiescence GC: every cycle is counted and every insert stays visible.
#[test]
fn long_lived_engines_complete_every_trivial_cycle() {
    let (db, mappings, k) = trivial_fixture();
    let engine = EngineBuilder::new()
        .tracker(TrackerKind::Precise)
        .first_update_number(1_000)
        .retention_horizon(32)
        .build(db, mappings)
        .expect("non-durable engines build infallibly");

    let cycles = 16_384u64;
    for i in 0..cycles {
        let handle = engine
            .submit(InitialOp::Insert {
                relation: k,
                values: vec![Value::constant(&format!("k{i}")), Value::constant("v")],
            })
            .expect("admission");
        assert!(handle.wait().expect("trivial update terminates").terminated);
    }
    engine.wait_quiescent().expect("engine drains");
    let (final_db, _, metrics) = engine.shutdown();
    assert_eq!(metrics.workload_size, cycles as usize);
    assert_eq!(final_db.visible_count(k, UpdateId::OMNISCIENT), cycles as usize);
}

/// The test above cycles trivial updates through a mapping-free database;
/// this one drains a real chase — mixed inserts and deletes under PRECISE
/// with delayed answers, so multi-step repairs and rollbacks move the
/// watermarks — and the quiescent database must satisfy every mapping.
#[test]
fn chased_workload_satisfies_every_mapping_at_quiescence() {
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
    let (db, mappings, _) = engine.shutdown();
    assert!(satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), &mappings));
}
