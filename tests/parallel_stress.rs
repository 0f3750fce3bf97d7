//! Caller threads driving, answering and entering one engine at once,
//! watchdogged: a deadlock or livelock fails by timeout instead of hanging
//! the suite.
//!
//! **Free-running stress lane** — `#[ignore]`d in the default suite; CI runs
//! it explicitly with `cargo test --release -- --ignored` in the stress job,
//! where real OS preemption produces interleavings a 1-shot unit test cannot.
//! Each case runs a sizeable workload free-running: a second thread drives
//! the sequencer (`wait_quiescent`) — stepping, skipping published frontiers
//! and locking abort victims — while the watchdogged test thread answers
//! every question as it appears ([`ResolverPump::drain`], polled), so
//! answers race a running sequencer.
//! Afterwards the system invariants must hold: every update terminated, the
//! final database satisfies every mapping, and the per-update statistics
//! are sane.
//!
//! **Callers enter between two sequencer actions** (`EngineShared::enter`) —
//! what that costs a caller, and that it cannot deadlock:
//!
//! * *Hand-off bound* — while a driver thread keeps the sequencer busy on a
//!   large batch, a `submit` or an `answer` from another thread is served
//!   before the sequencer's next action, or the one after. Without the
//!   hand-off the driver re-takes the (barging) sequencer lock for many
//!   actions in a row and a caller waits tens of them.
//! * *Three caller threads* — a submitter, a [`ResolverPump`] (which drives)
//!   and a poller (`sweep` with `AutoResolve`, so it answers too, plus the
//!   status, `read` and `metrics` accessors) against one engine: no
//!   deadlock, every update terminates, every mapping holds.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use youtopia::concurrency::{RunMetrics, SchedulingPolicy};
use youtopia::mappings::satisfies_all;
use youtopia::workload::{build_fixture, generate_workload, ExperimentConfig, ExperimentFixture};
use youtopia::{
    AnswerOutcome, AutoDecision, DurabilityConfig, EngineBuilder, EscalationPolicy, ExchangeEngine,
    FrontierResolver, InitialOp, RandomResolver, ResolverPump, TrackerKind, UpdateId, UpdateStatus,
    WorkloadKind,
};

/// Runs `f` on its own thread and panics if it does not finish in `timeout`
/// (a hung engine would otherwise block the whole lane).
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
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: engine did not finish within {timeout:?} — deadlock or livelock")
        }
        // The worker dropped its sender without sending: it panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("worker sent nothing"))
        }
    }
}

/// The 300-tuple quick fixture, `updates` generated operations of `kind`, and
/// a builder whose update numbers start clear of the fixture's.
fn workload(
    seed: u64,
    kind: WorkloadKind,
    updates: usize,
) -> (ExperimentFixture, Vec<InitialOp>, EngineBuilder) {
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
    let builder = EngineBuilder::new().first_update_number(config.initial_tuples as u64 + 1_000);
    (fixture, ops, builder)
}

fn build(builder: EngineBuilder, fixture: &ExperimentFixture) -> ExchangeEngine {
    builder.build(fixture.initial_db.clone(), fixture.mappings.clone()).expect("engine builds")
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
        let (fixture, ops, builder) = workload(seed, kind, updates);
        let engine = build(builder.tracker(tracker).policy(policy).free_running(), &fixture);
        engine.submit_batch(ops).expect("uncapped submission");
        std::thread::scope(|s| {
            let driver = s.spawn(|| engine.wait_quiescent());
            // Answer each question as it appears, without driving: a pump
            // that also drives (`run_until_quiescent`) answers only once its
            // drive returns, i.e. once every live update is blocked, and the
            // batched answers abort what ran meanwhile — on seed 14 that is
            // a ~94,000-abort storm lasting ~740 s on a 2-core machine, far
            // past the watchdog.
            let mut resolver = RandomResolver::seeded(seed ^ 0x57E55);
            let mut pump = ResolverPump::new(&engine, &mut resolver);
            while !engine.is_quiescent() && engine.error().is_none() {
                pump.drain().unwrap();
                std::thread::sleep(Duration::from_micros(50));
            }
            driver.join().expect("driver thread").unwrap();
        });
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

/// The stratum policy under free-running: the sequencer holds an update
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

/// One caller-entry case at a time: the hand-off bound counts sequencer
/// actions around a call, and a test thread that has to share its core with
/// another case's threads is charged for actions it slept through.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The share of `deltas` that is at most 2, in percent (of nothing: all).
fn within_two(deltas: &[usize]) -> usize {
    if deltas.is_empty() {
        return 100;
    }
    100 * deltas.iter().filter(|d| **d <= 2).count() / deltas.len()
}

/// Probes caller latency in sequencer actions: a driver thread waits on each
/// of `BATCH` concurrent inserts in turn, stepping the sequencer, while this
/// thread answers every question the engine asks and submits `PROBES`
/// single updates a millisecond apart,
/// reading `metrics().steps` (one step per action under step-level round
/// robin) around each call. A probe counts an action too many when this
/// thread is preempted between the call's return and the second read, so the
/// bound is asserted for nine probes in ten, not for all. A blocking engine
/// that has asked nothing by the last probe answers nothing; the skipping one
/// is where an answer meets a running sequencer.
fn hand_off_bound(
    label: &'static str,
    shape: impl FnOnce(EngineBuilder) -> EngineBuilder + Send + 'static,
) {
    const BATCH: usize = 500;
    const PROBES: usize = 60;
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    with_deadline(Duration::from_secs(300), label, move || {
        let (fixture, mut ops, builder) = workload(7, WorkloadKind::AllInserts, BATCH + PROBES);
        let probes = ops.split_off(BATCH);
        let engine = build(shape(builder), &fixture);
        let batch = engine.submit_batch(ops).unwrap();
        let driver = std::thread::spawn(move || batch.iter().try_for_each(|h| h.wait().map(drop)));
        let mut resolver = RandomResolver::seeded(5);
        let (mut submits, mut answers) = (Vec::new(), Vec::new());
        for op in probes {
            for asked in engine.pending_frontiers() {
                let decision =
                    engine.read(|db| resolver.resolve(&db.snapshot(asked.update), &asked.request));
                let before = engine.metrics().steps;
                let outcome = engine.answer(asked.token, decision).unwrap();
                let steps = engine.metrics().steps - before;
                if outcome == AnswerOutcome::Applied {
                    answers.push(steps);
                }
            }
            let before = engine.metrics().steps;
            engine.submit(op).unwrap();
            submits.push(engine.metrics().steps - before);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            !driver.is_finished(),
            "{label}: the batch finished early, so the probes met an idle sequencer"
        );
        assert!(
            within_two(&submits) >= 90,
            "{label}: submits waited {submits:?} actions, more than two in over a tenth"
        );
        assert!(
            within_two(&answers) >= 90,
            "{label}: answers waited {answers:?} actions, more than two in over a tenth"
        );
        // The batch is left unfinished: what it would go on to prove, the
        // three-caller case below and the equivalence suites already do.
        // Shutting down stops the driver mid-batch.
        engine.shutdown();
        assert!(driver.join().unwrap().is_err(), "{label}: the driver saw the shutdown");
    });
}

/// Three engine shapes: blocking, skipping and durable.
#[test]
fn callers_are_served_within_two_actions() {
    hand_off_bound("blocking", |b| b);
    hand_off_bound("skipping", |b| b.free_running());
    let dir = std::env::temp_dir().join(format!("yt-caller-entry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityConfig::new(&dir).with_group_commit(8);
    hand_off_bound("durable", |b| b.durable(durability));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Submitter, pump and poller share one engine under each frontier
/// policy. The poller's sweeps auto-resolve what the pump has not answered
/// after two of them, so all three threads enter the sequencer while it runs.
#[test]
fn three_caller_threads_neither_deadlock_nor_lose_updates() {
    const UPDATES: usize = 240;
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for (label, free_running) in [("blocking", false), ("skipping", true)] {
        with_deadline(Duration::from_secs(300), label, move || {
            let (fixture, ops, builder) = workload(7, WorkloadKind::Mixed, UPDATES);
            let builder = builder.escalation(EscalationPolicy::AutoResolve {
                after: 2,
                decision: AutoDecision::ExpandOrDeleteFirst,
            });
            let engine =
                build(if free_running { builder.free_running() } else { builder }, &fixture);
            let submitted = AtomicBool::new(false);
            let handles = std::thread::scope(|s| {
                let submitter = s.spawn(|| {
                    let mut handles = Vec::with_capacity(UPDATES);
                    for wave in ops.chunks(8) {
                        handles.extend(engine.submit_batch(wave.to_vec()).unwrap());
                        handles[handles.len() / 2].status();
                    }
                    submitted.store(true, Ordering::SeqCst);
                    handles
                });
                s.spawn(|| {
                    let mut resolver = RandomResolver::seeded(9);
                    while !(submitted.load(Ordering::SeqCst) && engine.is_quiescent()) {
                        ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
                        std::thread::yield_now();
                    }
                });
                s.spawn(|| {
                    let relation = fixture.initial_db.catalog().relation_ids().next().unwrap();
                    while !(submitted.load(Ordering::SeqCst) && engine.is_quiescent()) {
                        engine.sweep();
                        engine.update_stats();
                        engine.read(|db| db.visible_count(relation, UpdateId::OMNISCIENT));
                        engine.metrics();
                        std::thread::yield_now();
                    }
                });
                submitter.join().expect("submitter")
            });
            assert!(engine.error().is_none(), "{label}: {:?}", engine.error());
            for handle in &handles {
                assert_eq!(handle.status(), UpdateStatus::Terminated, "{label}: {}", handle.id());
            }
            let (db, mappings, metrics) = engine.shutdown();
            assert_eq!(metrics.workload_size, UPDATES);
            assert!(satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), &mappings), "{label}");
        });
    }
}
