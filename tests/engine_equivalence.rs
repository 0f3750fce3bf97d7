//! Differential and live-session tests for the [`ExchangeEngine`] redesign.
//!
//! * **Batch equivalence** — a workload submitted as one batch to an idle
//!   deterministic engine must be indistinguishable from the single-threaded
//!   [`ConcurrentRun`] reference: the same final database rendering, the same
//!   [`RunMetrics`] (modulo wall clock), the same per-update statistics and
//!   therefore the same abort *sets* — across trackers, scheduling policies
//!   and chase modes. This pins the submit/poll/answer pipeline (open-world
//!   slots, token-based frontier resolution, the pump, the two-phase step
//!   over the sequencer's logs) to the reference semantics.
//! * **Staggered determinism** — `ArrivalProcess::Staggered` waves through
//!   the live engine are reproducible and independent of `through_engine`.
//! * **Live session** — an update submitted *while* the engine is chasing
//!   earlier ones (one of them blocked on a frontier) commits correctly after
//!   the frontier is answered through [`ExchangeEngine::answer`], and the
//!   admission cap yields [`SubmitError::Saturated`] backpressure.
//! * **Skipping policy** — a free-running engine steps past an unanswered
//!   frontier and honours the frontier delay.
//! * **Waiters** — under either policy, a caller waiting on the engine drives
//!   it until the gate closes, sleeps, and wakes on an answer or a shutdown
//!   from another thread; `wait()` returns once its own update terminates,
//!   even while other updates keep arriving.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use youtopia::chase::ChaseMode;
use youtopia::concurrency::{RunMetrics, SchedulerConfig, SchedulingPolicy};
use youtopia::mappings::satisfies_all;
use youtopia::workload::{
    build_fixture, generate_workload, run_single, ArrivalProcess, ExperimentConfig, WorkloadKind,
};
use youtopia::{
    ChaseError, ClientId, ConcurrentRun, Database, EngineBuilder, EscalationPolicy, ExchangeEngine,
    FrontierDecision, FrontierRequest, FrontierResolver, InitialOp, MappingSet, Priority,
    RandomResolver, ResolverPump, SubmitError, TrackerKind, UpdateId, UpdateStatus, Value,
};

/// Strips the wall-clock field so metrics compare byte-exactly.
fn scrub(mut m: RunMetrics) -> RunMetrics {
    m.wall_time = std::time::Duration::ZERO;
    m
}

/// Byte-exact rendering of every relation's visible contents plus the null
/// counter — the "final database state" the equivalence is pinned on.
fn render(db: &Database) -> String {
    let mut out = String::new();
    for relation in db.catalog().relation_ids() {
        out.push_str(&format!("{relation:?}: {:?}\n", db.scan(relation, UpdateId::OMNISCIENT)));
    }
    out.push_str(&format!("nulls: {}\n", db.null_counter()));
    out
}

/// Runs one generated workload through the reference scheduler and through a
/// batch-submitted engine, asserting byte equality.
fn engine_matches_reference(
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
    let ref_metrics = reference.run(&mut RandomResolver::seeded(seed ^ 0xE61E)).unwrap();
    let ref_stats = reference.update_stats();
    let (ref_db, ref_mappings, _) = reference.into_parts();
    assert!(satisfies_all(&ref_db.snapshot(UpdateId::OMNISCIENT), &ref_mappings));
    let ref_abort_set: BTreeSet<UpdateId> =
        ref_stats.iter().filter(|(_, s)| s.restarts > 0).map(|(id, _)| *id).collect();

    let engine = EngineBuilder::new()
        .tracker(tracker)
        .policy(policy)
        .chase_mode(chase_mode)
        .frontier_delay_rounds(3)
        .first_update_number(first_number)
        .build(fixture.initial_db.clone(), fixture.mappings.clone())
        .unwrap();
    let handles = engine.submit_batch(ops.clone()).expect("uncapped submission");
    let mut resolver = RandomResolver::seeded(seed ^ 0xE61E);
    ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
    let label = format!("seed {seed}, {tracker}, {kind}, {policy:?}, {chase_mode:?}");
    for handle in &handles {
        assert_eq!(handle.status(), UpdateStatus::Terminated, "{label}: {:?}", handle.id());
        assert!(handle.report().expect("terminated").terminated, "{label}");
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
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// PRECISE over the mixed workload (inserts + deletes, forward and
    /// backward repairs) — the workhorse combination.
    #[test]
    fn precise_mixed_batches_match_the_reference(seed in 0u64..10_000) {
        engine_matches_reference(
            seed,
            TrackerKind::Precise,
            WorkloadKind::Mixed,
            SchedulingPolicy::StepRoundRobin,
            ChaseMode::Incremental,
        );
    }

    /// COARSE over deep cascades: long violation queues cross many sequencer
    /// hand-offs and pump round-trips.
    #[test]
    fn coarse_deep_cascade_batches_match_the_reference(seed in 0u64..10_000) {
        engine_matches_reference(
            seed,
            TrackerKind::Coarse,
            WorkloadKind::DeepCascade,
            SchedulingPolicy::StepRoundRobin,
            ChaseMode::Incremental,
        );
    }

    /// NAIVE + the stratum policy + the reference chase mode, over the skewed
    /// hot-relation workload: the engine must be agnostic of all three knobs.
    #[test]
    fn naive_stratum_full_recheck_batches_match_the_reference(seed in 0u64..10_000) {
        engine_matches_reference(
            seed,
            TrackerKind::Naive,
            WorkloadKind::Skewed,
            SchedulingPolicy::StratumRoundRobin,
            ChaseMode::FullRecheck,
        );
    }

    /// PRECISE + the reference chase mode over null-replacement-heavy work:
    /// the engine must be agnostic of the queue maintenance mode where
    /// unifications keep rewriting the violation queue.
    #[test]
    fn precise_full_recheck_null_replacement_batches_match_the_reference(seed in 0u64..10_000) {
        engine_matches_reference(
            seed,
            TrackerKind::Precise,
            WorkloadKind::NullReplacementHeavy,
            SchedulingPolicy::StepRoundRobin,
            ChaseMode::FullRecheck,
        );
    }
}

/// Staggered arrivals (closed-loop waves through the live engine) are
/// reproducible, and always go through the engine — so `through_engine` must
/// not change them.
#[test]
fn staggered_arrivals_are_deterministic() {
    let mut config = ExperimentConfig::tiny();
    config.arrival = ArrivalProcess::Staggered { wave: 3 };
    let fixture = build_fixture(&config).expect("fixture builds");
    let mapping_count = *config.mapping_counts.last().unwrap();

    let run_with = |through_engine: bool| {
        let mut config = config.clone();
        config.through_engine = through_engine;
        // The fixture only depends on generator parameters, but rebuild the
        // run from the shared one to keep this cheap and identical.
        scrub(
            run_single(
                &fixture,
                &config,
                WorkloadKind::Mixed,
                mapping_count,
                TrackerKind::Precise,
                1,
            )
            .unwrap(),
        )
    };
    let reference = run_with(false);
    assert!(reference.steps > 0 && reference.workload_size > 0);
    assert_eq!(run_with(false), reference, "staggered arrival must be reproducible");
    assert_eq!(run_with(true), reference, "staggered arrival always runs through the engine");
}

/// The Figure 2 fragment of Example 3.1 — the live-session fixture.
fn example_db() -> (Database, MappingSet) {
    let mut db = Database::new();
    db.add_relation("A", ["location", "name"]).unwrap();
    db.add_relation("T", ["attraction", "company", "tour_start"]).unwrap();
    db.add_relation("R", ["company", "attraction", "review"]).unwrap();
    db.add_relation("V", ["city", "convention"]).unwrap();
    db.add_relation("E", ["convention", "attraction"]).unwrap();
    let mut mappings = MappingSet::new();
    mappings
        .add_parsed_many(
            db.catalog(),
            "
            sigma3: A(l, n) & T(n, c, cs) -> exists r. R(c, n, r)
            sigma4: V(cv, x) & T(n, c, cv) -> E(x, n)
            ",
        )
        .unwrap();
    let u = UpdateId(0);
    db.insert_by_name("A", &["Geneva", "Geneva Winery"], u);
    db.insert_by_name("T", &["Geneva Winery", "XYZ", "Syracuse"], u);
    db.insert_by_name("R", &["XYZ", "Geneva Winery", "Great!"], u);
    db.insert_by_name("V", &["Syracuse", "Science Conf"], u);
    db.insert_by_name("E", &["Science Conf", "Geneva Winery"], u);
    (db, mappings)
}

/// Drives the engine until its gate closes and returns the first question
/// it lists.
fn drive_to_question(engine: &ExchangeEngine) -> youtopia::PendingFrontier {
    engine.drive().unwrap();
    engine.pending_frontiers().into_iter().next().expect("a frontier is published")
}

/// The acceptance scenario: while u1 is blocked on its negative frontier, u2
/// is submitted to the *running* engine; the frontier is answered through
/// `engine.answer`, and both updates commit into a consistent database.
#[test]
fn updates_submitted_mid_chase_commit_after_answer() {
    let (db, mappings) = example_db();
    let r = db.relation_id("R").unwrap();
    let v = db.relation_id("V").unwrap();
    let review = db.scan(r, UpdateId::OMNISCIENT)[0].0;

    let engine = EngineBuilder::new()
        .tracker(TrackerKind::Precise)
        .free_running()
        .build(db, mappings)
        .unwrap();
    // u1: delete the review; its backward chase blocks on a negative frontier
    // (delete the attraction or the tour?).
    let u1 = engine.submit(InitialOp::Delete { relation: r, tuple: review }).unwrap();
    let pf = drive_to_question(&engine);
    assert_eq!(pf.update, u1.id());
    assert_eq!(u1.status(), UpdateStatus::AwaitingFrontier);

    // u2 arrives while the engine is mid-chase on u1 — the thing the old
    // batch-only API could not express.
    let u2 = engine
        .submit(InitialOp::Insert {
            relation: v,
            values: vec![Value::constant("Syracuse"), Value::constant("Math Conf")],
        })
        .unwrap();

    // The (human) answer: delete the tour, exactly Example 3.1's step 4.
    let FrontierRequest::Negative(nf) = &pf.request else { panic!("expected negative frontier") };
    let tour = nf
        .candidates
        .iter()
        .find(|(_, _, data)| data.len() == 3)
        .map(|(_, id, _)| *id)
        .expect("the tour is a deletion candidate");
    engine.answer(pf.token, FrontierDecision::Negative(vec![tour])).unwrap();

    // Drain whatever else the cascade asks (u2's chase is deterministic, but
    // abort/redo interleavings can republish) and wait for quiescence.
    let mut resolver = RandomResolver::seeded(7);
    ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();

    let r1 = u1.wait().unwrap();
    let r2 = u2.wait().unwrap();
    assert!(r1.terminated && r2.terminated);
    assert!(engine.is_quiescent());
    engine.read(|db| {
        assert!(satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), engine.mappings()));
        let v = db.relation_id("V").unwrap();
        assert!(
            db.scan(v, UpdateId::OMNISCIENT)
                .iter()
                .any(|(_, d)| d[1] == Value::constant("Math Conf")),
            "u2's convention must have committed"
        );
        let t = db.relation_id("T").unwrap();
        assert_eq!(db.visible_count(t, UpdateId::OMNISCIENT), 0, "the tour was deleted");
        // Whatever the interleaving, no excursion may recommend the deleted
        // tour on u2's behalf (Example 3.1's premature-read repair).
        let e = db.relation_id("E").unwrap();
        for (_, excursion) in db.scan(e, UpdateId::OMNISCIENT) {
            assert!(
                excursion[0] != Value::constant("Math Conf"),
                "premature excursion suggestion survived: {excursion:?}"
            );
        }
    });
    let metrics = engine.metrics();
    assert_eq!(metrics.workload_size, 2);
    assert!(metrics.frontier_ops >= 1);
}

/// The admission cap turns overload into `SubmitError::Saturated`, and the
/// engine accepts again once the in-flight update completes.
#[test]
fn saturation_is_backpressure_not_failure() {
    let (db, mappings) = example_db();
    let r = db.relation_id("R").unwrap();
    let v = db.relation_id("V").unwrap();
    let review = db.scan(r, UpdateId::OMNISCIENT)[0].0;

    let engine = EngineBuilder::new().admission_cap(1).free_running().build(db, mappings).unwrap();
    let u1 = engine.submit(InitialOp::Delete { relation: r, tuple: review }).unwrap();
    let pf = drive_to_question(&engine);

    // The engine is full: the second submission is rejected, not queued.
    let op = InitialOp::Insert {
        relation: v,
        values: vec![Value::constant("Syracuse"), Value::constant("Math Conf")],
    };
    match engine.submit(op.clone()) {
        Err(SubmitError::Saturated { active, cap, retry_after }) => {
            assert_eq!((active, cap), (1, 1));
            assert_eq!(retry_after.completions, 1, "one completion frees one slot");
        }
        other => panic!("expected saturation, got {other:?}"),
    }

    // Answer the frontier, let u1 finish, and the engine admits again.
    let FrontierRequest::Negative(nf) = &pf.request else { panic!("expected negative frontier") };
    let first = nf.candidates.first().map(|(_, id, _)| *id).unwrap();
    engine.answer(pf.token, FrontierDecision::Negative(vec![first])).unwrap();
    let mut resolver = RandomResolver::seeded(3);
    ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
    u1.wait().unwrap();

    let u2 = engine.submit(op).expect("capacity freed after termination");
    ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
    assert!(u2.wait().unwrap().terminated);
    let (final_db, mappings, metrics) = engine.shutdown();
    assert!(satisfies_all(&final_db.snapshot(UpdateId::OMNISCIENT), &mappings));
    assert_eq!(metrics.workload_size, 2);
}

/// `EscalationPolicy::Wait` (the default) is exactly the pre-lifecycle
/// engine: sweeping as aggressively as a caller likes only ages the pending
/// entries — the final database, metrics and per-update stats stay
/// byte-identical to the `ConcurrentRun` reference, and no escalation
/// counter ever moves.
#[test]
fn wait_policy_with_sweeps_matches_the_reference() {
    let mut config = ExperimentConfig::tiny();
    config.seed = 4242;
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
    let first_number = config.initial_tuples as u64 + 1_000;
    let scheduler =
        SchedulerConfig::with_tracker(TrackerKind::Precise).with_frontier_delay_rounds(3);

    let mut reference = ConcurrentRun::new(
        fixture.initial_db.clone(),
        fixture.mappings.clone(),
        ops.clone(),
        first_number,
        scheduler,
    );
    let ref_metrics = reference.run(&mut RandomResolver::seeded(99)).unwrap();
    let ref_stats = reference.update_stats();
    let (ref_db, _, _) = reference.into_parts();

    let engine = EngineBuilder::new()
        .tracker(TrackerKind::Precise)
        .frontier_delay_rounds(3)
        .first_update_number(first_number)
        .escalation(EscalationPolicy::Wait)
        .build(fixture.initial_db.clone(), fixture.mappings.clone())
        .unwrap();
    engine.submit_batch(ops).expect("uncapped submission");
    // Sweep obsessively while the run is in flight: under `Wait` this must
    // be pure observability (aging), never escalation.
    let mut resolver = RandomResolver::seeded(99);
    let mut pump = ResolverPump::new(&engine, &mut resolver);
    loop {
        engine.drive().unwrap();
        let report = engine.sweep();
        assert!(report.re_asked.is_empty() && report.auto_resolved.is_empty());
        pump.drain().unwrap();
        if engine.is_quiescent() {
            break;
        }
    }
    assert_eq!(engine.update_stats(), ref_stats, "per-update stats");
    let (db, _, metrics) = engine.shutdown();
    assert_eq!(metrics.re_asks, 0);
    assert_eq!(metrics.auto_resolutions, 0);
    assert_eq!(scrub(metrics), scrub(ref_metrics), "metrics");
    assert_eq!(render(&db), render(&ref_db), "final database state");
}

/// The backoff contract of `SubmitError::Saturated`: a client that waits for
/// the hinted number of completions and retries the same submission is
/// admitted.
#[test]
fn saturated_clients_retrying_after_the_hint_are_admitted() {
    let (db, mappings) = example_db();
    let v = db.relation_id("V").unwrap();
    let engine = EngineBuilder::new().admission_cap(2).build(db, mappings).unwrap();
    let conv = |name: &str| InitialOp::Insert {
        relation: v,
        values: vec![Value::constant("Syracuse"), Value::constant(name)],
    };
    let (alice, bob) = (ClientId(1), ClientId(2));
    let h1 = engine.submit_as(conv("Conf A1"), alice, Priority::Normal).unwrap();
    let h2 = engine.submit_as(conv("Conf A2"), alice, Priority::Normal).unwrap();
    // The engine is full; Bob's rejection carries the typed hint.
    let retry_after = match engine.submit_as(conv("Conf B1"), bob, Priority::Normal) {
        Err(SubmitError::Saturated { retry_after, .. }) => retry_after,
        other => panic!("expected saturation, got {other:?}"),
    };
    assert!(retry_after.completions >= 1);
    // Honour the contract: wait for that many in-flight completions (the V
    // inserts chase deterministically, so `wait` drives them to termination
    // on this thread), then retry verbatim.
    for handle in [&h1, &h2].into_iter().take(retry_after.completions) {
        assert!(handle.wait().unwrap().terminated);
    }
    let hb = engine
        .submit_as(conv("Conf B1"), bob, Priority::Normal)
        .expect("a retry after the hinted completions is admitted");
    assert!(hb.wait().unwrap().terminated);
}

/// Weighted fair share never starves anyone: a `Low`-priority client whose
/// every submission loses the race against a `High`-priority flood
/// accumulates deficit until the engine reserves freed capacity for it.
#[test]
fn starving_low_priority_clients_are_eventually_admitted() {
    let (db, mappings) = example_db();
    let v = db.relation_id("V").unwrap();
    let engine = EngineBuilder::new().admission_cap(1).build(db, mappings).unwrap();
    let conv = |name: &str| InitialOp::Insert {
        relation: v,
        values: vec![Value::constant("Syracuse"), Value::constant(name)],
    };
    let (greedy, meek) = (ClientId(1), ClientId(2));
    let mut admitted_round = None;
    for round in 0..64usize {
        // The greedy client grabs the only slot first every round — until
        // the meek client's deficit crosses the starvation bound, at which
        // point the engine refuses the greedy client to reserve the slot.
        let greedy_handle = engine.submit_as(conv("Greedy Conf"), greedy, Priority::High).ok();
        match engine.submit_as(conv("Meek Conf"), meek, Priority::Low) {
            Ok(handle) => {
                assert!(handle.wait().unwrap().terminated);
                admitted_round = Some(round);
                break;
            }
            Err(SubmitError::Saturated { .. }) => {}
            Err(e) => panic!("unexpected submit error: {e}"),
        }
        if let Some(h) = greedy_handle {
            assert!(h.wait().unwrap().terminated);
        }
        engine.wait_quiescent().unwrap();
    }
    let round = admitted_round.expect("the meek client must eventually be admitted");
    assert!(round > 0, "the first rounds must actually reject the meek client");
}

/// A stale token (the owner aborted or was already answered) is reported as
/// such, never applied to the wrong incarnation.
#[test]
fn answered_tokens_go_stale() {
    let (db, mappings) = example_db();
    let r = db.relation_id("R").unwrap();
    let review = db.scan(r, UpdateId::OMNISCIENT)[0].0;
    let engine = EngineBuilder::new().free_running().build(db, mappings).unwrap();
    let u1 = engine.submit(InitialOp::Delete { relation: r, tuple: review }).unwrap();
    let pf = drive_to_question(&engine);
    let FrontierRequest::Negative(nf) = &pf.request else { panic!("expected negative frontier") };
    let first = nf.candidates.first().map(|(_, id, _)| *id).unwrap();
    let decision = FrontierDecision::Negative(vec![first]);
    assert_eq!(
        engine.answer(pf.token, decision.clone()).unwrap(),
        youtopia::AnswerOutcome::Applied
    );
    // Answering the same token again is stale, not an error.
    assert_eq!(engine.answer(pf.token, decision).unwrap(), youtopia::AnswerOutcome::Stale);
    let mut resolver = RandomResolver::seeded(1);
    ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
    assert!(u1.wait().unwrap().terminated);
}

/// Example 3.1's two updates plus four more convention inserts.
fn example_ops(db: &Database) -> Vec<InitialOp> {
    let (r, v) = (db.relation_id("R").unwrap(), db.relation_id("V").unwrap());
    let review = db.scan(r, UpdateId::OMNISCIENT)[0].0;
    let mut ops = vec![InitialOp::Delete { relation: r, tuple: review }];
    for conf in ["Math Conf", "Conf0", "Conf1", "Conf2", "Conf3"] {
        ops.push(InitialOp::Insert {
            relation: v,
            values: vec![Value::constant("Syracuse"), Value::constant(conf)],
        });
    }
    ops
}

/// Submits `ops` as one batch, pumps to quiescence, checks that every update
/// ran, and returns the final database and metrics.
fn run_batch(
    builder: EngineBuilder,
    (db, mappings): (Database, MappingSet),
    ops: Vec<InitialOp>,
    seed: u64,
) -> Result<(Database, RunMetrics), ChaseError> {
    let engine = builder.build(db, mappings).unwrap();
    engine.submit_batch(ops).unwrap();
    ResolverPump::new(&engine, &mut RandomResolver::seeded(seed)).run_until_quiescent()?;
    assert!(engine.update_stats().iter().all(|(_, s)| s.steps > 0), "every update must have run");
    let (db, _, metrics) = engine.shutdown();
    Ok((db, metrics))
}

#[test]
fn free_running_mode_leaves_a_consistent_database() {
    let mut db = Database::new();
    db.add_relation("C", ["city"]).unwrap();
    db.add_relation("S", ["code", "location", "city_served"]).unwrap();
    let mut mappings = MappingSet::new();
    mappings
        .add_parsed_many(
            db.catalog(),
            "
            sigma1: C(c) -> exists a, l. S(a, l, c)
            sigma2: S(a, c, c2) -> C(c) & C(c2)
            ",
        )
        .unwrap();
    let c = db.relation_id("C").unwrap();
    let ops: Vec<InitialOp> = (0..12)
        .map(|i| InitialOp::Insert {
            relation: c,
            values: vec![Value::constant(&format!("City{i}"))],
        })
        .collect();
    for tracker in TrackerKind::all() {
        let builder = EngineBuilder::new().tracker(tracker).free_running();
        let (final_db, metrics) =
            run_batch(builder, (db.clone(), mappings.clone()), ops.clone(), 17).unwrap();
        assert_eq!(metrics.workload_size, 12);
        assert!(metrics.steps >= 12);
        assert!(
            satisfies_all(&final_db.snapshot(UpdateId::OMNISCIENT), &mappings),
            "{tracker}: final database must satisfy all mappings"
        );
        assert!(final_db.visible_count(c, UpdateId::OMNISCIENT) >= 12);
    }
}

#[test]
fn free_running_with_interference_repairs_premature_reads() {
    // The Example 3.1 scenario under free-running: whenever the answers land
    // relative to the sequencer's steps, every surviving excursion must be
    // backed by a still-existing tour.
    let (db, mappings) = example_db();
    for seed in 0..4u64 {
        let builder = EngineBuilder::new().tracker(TrackerKind::Precise).free_running();
        let (final_db, metrics) =
            run_batch(builder, (db.clone(), mappings.clone()), example_ops(&db), seed).unwrap();
        assert!(metrics.steps > 0);
        assert!(satisfies_all(&final_db.snapshot(UpdateId::OMNISCIENT), &mappings), "seed {seed}");
        let e = final_db.relation_id("E").unwrap();
        let t = final_db.relation_id("T").unwrap();
        let tours = final_db.scan(t, UpdateId::OMNISCIENT);
        // Only the excursions the *workload's* convention inserts caused: the
        // seed excursion may legitimately outlive the tour (σ4 never requires
        // RHS cleanup), exactly as in the reference scheduler's test.
        for (_, excursion) in final_db.scan(e, UpdateId::OMNISCIENT) {
            if excursion[0] == Value::constant("Science Conf") {
                continue;
            }
            assert!(
                tours.iter().any(|(_, tour)| tour[0] == excursion[1]),
                "seed {seed}: excursion {excursion:?} must be backed by an existing tour"
            );
        }
    }
}

#[test]
fn step_limit_guards_both_modes() {
    let (db, mappings) = example_db();
    for builder in [EngineBuilder::new(), EngineBuilder::new().free_running()] {
        let result = run_batch(
            builder.max_total_steps(1),
            (db.clone(), mappings.clone()),
            example_ops(&db),
            2,
        );
        assert!(matches!(result, Err(ChaseError::StepLimitExceeded { .. })));
    }
}

#[test]
fn stratum_policy_terminates_in_both_modes() {
    let (db, mappings) = example_db();
    for builder in [EngineBuilder::new(), EngineBuilder::new().free_running()] {
        let builder = builder.policy(SchedulingPolicy::StratumRoundRobin);
        let (_, metrics) =
            run_batch(builder, (db.clone(), mappings.clone()), example_ops(&db), 2).unwrap();
        assert!(metrics.steps >= 2);
    }
}

// ---------------------------------------------------------------------------
// The skipping frontier policy (`free_running`), and waiters on either policy
// ---------------------------------------------------------------------------

/// `C(c) -> ∃a,l. S(a, l, c)` over a seeded `S(ITH, NY, Ithaca)`: inserting
/// `C(x)` for a labeled null `x` generates `S(a, l, x)`, which the seeded
/// tuple is more specific than — so every such update blocks on a frontier
/// question.
fn blocking_fixture(updates: usize) -> (Database, MappingSet, Vec<InitialOp>) {
    let mut db = Database::new();
    let c = db.add_relation("C", ["city"]).unwrap();
    db.add_relation("S", ["code", "location", "city_served"]).unwrap();
    let mut mappings = MappingSet::new();
    mappings.add_parsed(db.catalog(), "sigma1: C(c) -> exists a, l. S(a, l, c)").unwrap();
    db.insert_by_name("S", &["ITH", "NY", "Ithaca"], UpdateId(0));
    let ops = (0..updates)
        .map(|_| InitialOp::Insert { relation: c, values: vec![Value::Null(db.fresh_null())] })
        .collect();
    (db, mappings, ops)
}

/// The paper's premise (§4): a human sitting on one frontier question holds
/// up nobody else. With u1's question deliberately left open, every other
/// update of the batch runs to termination; answering it afterwards — which
/// retroactively invalidates what the others read — still ends consistent.
/// `drive` runs the engine until only u1 is left.
#[test]
fn an_unanswered_frontier_holds_up_nobody_else() {
    let (db, mappings) = example_db();
    let engine = EngineBuilder::new()
        .tracker(TrackerKind::Precise)
        .free_running()
        .build(db.clone(), mappings)
        .unwrap();
    let handles = engine.submit_batch(example_ops(&db)).unwrap();
    engine.drive().unwrap();
    let (u1, others) = handles.split_first().unwrap();
    assert!(others.iter().all(|h| h.status() == UpdateStatus::Terminated));
    assert_eq!(u1.status(), UpdateStatus::AwaitingFrontier);
    assert!(!engine.is_quiescent());
    let pending = engine.pending_frontiers();
    assert_eq!(pending.len(), 1, "only u1 asks");
    assert_eq!(pending[0].update, u1.id());

    // Delete the tour (Example 3.1's step 4): the conventions' excursions,
    // suggested while the question was open, were premature.
    let FrontierRequest::Negative(nf) = &pending[0].request else { panic!("negative frontier") };
    let tour = nf.candidates.iter().find(|(_, _, d)| d.len() == 3).map(|(_, id, _)| *id).unwrap();
    engine.answer(pending[0].token, FrontierDecision::Negative(vec![tour])).unwrap();
    ResolverPump::new(&engine, &mut RandomResolver::seeded(5)).run_until_quiescent().unwrap();
    for handle in &handles {
        assert!(handle.wait().unwrap().terminated);
    }
    let (final_db, mappings, metrics) = engine.shutdown();
    assert!(satisfies_all(&final_db.snapshot(UpdateId::OMNISCIENT), &mappings));
    assert!(metrics.aborts > 0, "the late answer must have redone the premature readers");
}

/// Waits until a waiter driving `engine` on another thread has parked: the
/// gate is closed — a question listed under blocking, one per live update
/// under skipping — and no step ran for 20 ms. Returns the waiter's result
/// instead if it reports back on `rx` first; fails after 30 s.
fn await_parked<T>(engine: &ExchangeEngine, skipping: bool, rx: &mpsc::Receiver<T>) -> Option<T> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "the waiter neither parked nor returned");
        let steps = engine.metrics().steps;
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(result) => return Some(result),
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the waiter panicked"),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
        let gate = if skipping { engine.active_updates().max(1) } else { 1 };
        if engine.metrics().steps == steps && engine.pending_frontiers().len() >= gate {
            return None;
        }
    }
}

/// Answers, from the test thread, the question a waiter on another thread
/// is parked behind, one at a time, until the waiter reports back on `rx`.
fn answer_until_returned<T>(engine: &ExchangeEngine, skipping: bool, rx: &mpsc::Receiver<T>) -> T {
    let mut resolver = RandomResolver::seeded(2);
    loop {
        if let Some(result) = await_parked(engine, skipping, rx) {
            return result;
        }
        let pf = engine.pending_frontiers().remove(0);
        let decision = engine.read(|db| resolver.resolve(&db.snapshot(pf.update), &pf.request));
        assert_eq!(engine.answer(pf.token, decision).unwrap(), youtopia::AnswerOutcome::Applied);
    }
}

/// The lost-wakeup case, under both frontier policies. A waiter — `wait()`
/// on one update, or `wait_quiescent()` — drives the engine on its own
/// thread until the gate closes, then sleeps: nothing steps any more. An
/// `answer` from the test thread, the only event left that can create work,
/// wakes it to drive on, and it returns once what it waits for holds. A
/// parked `wait()` returns the shutdown error as soon as the engine shuts
/// down. Every waiter is watchdogged.
#[test]
fn a_fully_blocked_sequencer_sleeps_and_wakes_on_answer() {
    for skipping in [false, true] {
        let build = || {
            let (db, mappings, ops) = blocking_fixture(3);
            let builder = EngineBuilder::new();
            let builder = if skipping { builder.free_running() } else { builder };
            let engine = builder.build(db, mappings).unwrap();
            let handles = engine.submit_batch(ops).unwrap();
            (engine, handles)
        };

        let (engine, handles) = build();
        let (tx, rx) = mpsc::channel();
        let last = handles[2].clone();
        std::thread::spawn(move || tx.send(last.wait()));
        assert!(await_parked(&engine, skipping, &rx).is_none(), "nobody answers, so it parks");
        assert_eq!(engine.active_updates(), 3);
        if skipping {
            // Every update sits at its published question. Answer the
            // highest-numbered one: its writes can abort nobody, so the
            // other two questions stay exactly as published.
            assert!(handles.iter().all(|h| h.status() == UpdateStatus::AwaitingFrontier));
            let before = engine.pending_frontiers();
            let steps = engine.metrics().steps;
            let pf = before.iter().find(|pf| pf.update == handles[2].id()).unwrap();
            let decision = engine
                .read(|db| RandomResolver::seeded(1).resolve(&db.snapshot(pf.update), &pf.request));
            let applied = engine.answer(pf.token, decision).unwrap();
            assert_eq!(applied, youtopia::AnswerOutcome::Applied);
            let outcome = rx.recv_timeout(Duration::from_secs(30)).expect("the waiter slept");
            assert!(outcome.unwrap().terminated);
            assert!(engine.metrics().steps > steps, "the waiter resumed driving");
            let still: Vec<_> = engine.pending_frontiers().iter().map(|pf| pf.token).collect();
            assert_eq!(still, vec![before[0].token, before[1].token]);
        } else {
            assert_eq!(engine.pending_frontiers().len(), 1, "the gate closes on one question");
            assert!(answer_until_returned(&engine, skipping, &rx).unwrap().terminated);
        }
        ResolverPump::new(&engine, &mut RandomResolver::seeded(3)).run_until_quiescent().unwrap();
        let (final_db, mappings, _) = engine.shutdown();
        assert!(satisfies_all(&final_db.snapshot(UpdateId::OMNISCIENT), &mappings));

        let (engine, handles) = build();
        let engine = Arc::new(engine);
        let (tx, rx) = mpsc::channel();
        let driver = Arc::clone(&engine);
        std::thread::spawn(move || tx.send(driver.wait_quiescent()));
        answer_until_returned(&engine, skipping, &rx).unwrap();
        assert!(handles.iter().all(|h| h.status() == UpdateStatus::Terminated));

        let (engine, handles) = build();
        let (tx, rx) = mpsc::channel();
        let first = handles[0].clone();
        std::thread::spawn(move || tx.send(first.wait()));
        assert!(await_parked(&engine, skipping, &rx).is_none(), "nobody answers, so it parks");
        let shutting_down = std::thread::spawn(move || engine.shutdown());
        let outcome = rx.recv_timeout(Duration::from_secs(30)).expect("the waiter slept through");
        assert!(outcome.is_err(), "a shut-down engine cannot finish the update");
        shutting_down.join().unwrap();
    }
}

/// A waiter returns once its own update terminates, not once the engine
/// goes idle: a second thread tops the engine up with a wave of updates
/// whenever fewer than 64 are in flight, so it never idles, yet `wait()` on
/// the first update comes back before the stream runs out. Only the waiter
/// drives, so the stream cannot run out while it is descheduled.
/// `C(c) -> D(c)` asks no questions, so nobody needs to answer.
#[test]
fn a_waiter_returns_while_others_keep_submitting() {
    for skipping in [false, true] {
        let mut db = Database::new();
        let c = db.add_relation("C", ["city"]).unwrap();
        db.add_relation("D", ["city"]).unwrap();
        let mut mappings = MappingSet::new();
        mappings.add_parsed(db.catalog(), "copy: C(c) -> D(c)").unwrap();
        let builder = EngineBuilder::new().tracker(TrackerKind::Precise);
        let builder = if skipping { builder.free_running() } else { builder };
        let engine = builder.build(db, mappings).unwrap();
        let insert = |i: usize| InitialOp::Insert {
            relation: c,
            values: vec![Value::constant(&format!("city{i}"))],
        };
        let first = engine.submit(insert(0)).unwrap();
        let returned = AtomicBool::new(false);
        let cut_short = std::thread::scope(|s| {
            let streamer = s.spawn(|| {
                let mut wave = 0;
                while wave < 200 {
                    if returned.load(Ordering::SeqCst) {
                        return true;
                    }
                    if engine.active_updates() >= 64 {
                        std::thread::yield_now();
                        continue;
                    }
                    wave += 1;
                    engine.submit_batch((0..16).map(|i| insert(wave * 16 + i)).collect()).unwrap();
                }
                false
            });
            assert!(first.wait().unwrap().terminated);
            returned.store(true, Ordering::SeqCst);
            streamer.join().unwrap()
        });
        assert!(cut_short, "skipping {skipping}: wait() returned only after the stream ended");
        engine.wait_quiescent().unwrap();
        let (final_db, mappings, _) = engine.shutdown();
        assert!(satisfies_all(&final_db.snapshot(UpdateId::OMNISCIENT), &mappings));
    }
}

/// `frontier_delay_rounds` is a property of the cursor loop, not of the
/// frontier policy: a skipping engine withholds a request for that many
/// rounds too. With a delay nobody lives to see, the update blocks but its
/// question is never listed (a waiter drives it on another thread, round
/// after round, until the engine is dropped); with a short one it is.
#[test]
fn frontier_delay_applies_under_the_skipping_policy() {
    let (db, mappings, ops) = blocking_fixture(1);
    let forever = EngineBuilder::new()
        .free_running()
        .frontier_delay_rounds(usize::MAX)
        .build(db.clone(), mappings.clone())
        .unwrap();
    let handle = forever.submit(ops[0].clone()).unwrap();
    let driver = handle.clone();
    let waiter = std::thread::spawn(move || driver.wait());
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.status() != UpdateStatus::AwaitingFrontier {
        assert!(Instant::now() < deadline, "the update never reached its frontier");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));
    assert!(forever.pending_frontiers().is_empty(), "the delay withholds the request");
    drop(forever);
    assert!(waiter.join().unwrap().is_err(), "dropping the engine stops its driver");

    let short =
        EngineBuilder::new().free_running().frontier_delay_rounds(3).build(db, mappings).unwrap();
    let handle = short.submit(ops[0].clone()).unwrap();
    assert_eq!(drive_to_question(&short).update, handle.id());
}
