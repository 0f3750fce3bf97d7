//! Callers enter the chase between two sequencer actions
//! (`EngineShared::enter`): what that costs a caller, and that it cannot
//! deadlock.
//!
//! * **Hand-off bound** — while a large batch keeps the chase thread busy, a
//!   `submit` or an `answer` from another thread is served before the
//!   sequencer's next action, or the one after. Without the hand-off the
//!   chase thread re-takes the (barging) sequencer lock for many actions in a
//!   row and a caller waits tens of them.
//! * **Three caller threads** — a submitter, a [`ResolverPump`] and a poller
//!   (`sweep` with `AutoResolve`, so it answers too, plus the status, `read`
//!   and `metrics` accessors) against one threaded engine: no deadlock,
//!   every update terminates, every mapping holds.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use youtopia::mappings::satisfies_all;
use youtopia::workload::{build_fixture, generate_workload, ExperimentConfig, ExperimentFixture};
use youtopia::{
    AnswerOutcome, AutoDecision, DurabilityConfig, EngineBuilder, EscalationPolicy, ExchangeEngine,
    FrontierResolver, InitialOp, RandomResolver, ResolverPump, UpdateId, UpdateStatus,
    WorkloadKind,
};

/// One case at a time: the hand-off bound counts sequencer actions around a
/// call, and a test thread that has to share its core with another case's
/// threads is charged for actions it slept through.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs `f` on its own thread and panics if it does not finish in `timeout`.
fn with_deadline(timeout: Duration, label: &str, f: impl FnOnce() + Send + 'static) {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(timeout) {
        panic!("{label}: not finished within {timeout:?} — deadlock or livelock");
    }
    if let Err(panic) = handle.join() {
        std::panic::resume_unwind(panic);
    }
}

fn fixture_and_ops(kind: WorkloadKind, updates: usize) -> (ExperimentFixture, Vec<InitialOp>) {
    let mut config = ExperimentConfig::quick();
    config.initial_tuples = 300;
    config.workload_updates = updates;
    let fixture = build_fixture(&config).expect("fixture builds");
    let ops = generate_workload(
        &config,
        &fixture.schema,
        &fixture.initial_db,
        &fixture.mappings,
        kind,
        config.seed,
    );
    (fixture, ops)
}

fn build(builder: EngineBuilder, fixture: &ExperimentFixture) -> ExchangeEngine {
    builder
        .first_update_number(10_000)
        .build(fixture.initial_db.clone(), fixture.mappings.clone())
        .expect("engine builds")
}

/// The share of `deltas` that is at most 2, in percent (of nothing: all).
fn within_two(deltas: &[usize]) -> usize {
    if deltas.is_empty() {
        return 100;
    }
    100 * deltas.iter().filter(|d| **d <= 2).count() / deltas.len()
}

/// Probes caller latency in sequencer actions: `BATCH` concurrent inserts keep
/// the chase thread stepping while this thread answers every question the
/// engine asks and submits `PROBES` single updates a millisecond apart,
/// reading `metrics().steps` (one step per action under step-level round
/// robin) around each call. A probe counts an action too many when this
/// thread is preempted between the call's return and the second read, so the
/// bound is asserted for nine probes in ten, not for all. A blocking engine
/// that has asked nothing by the last probe answers nothing; the skipping one
/// is where an answer meets a running sequencer.
fn hand_off_bound(label: &'static str, builder: EngineBuilder) {
    const BATCH: usize = 500;
    const PROBES: usize = 60;
    with_deadline(Duration::from_secs(300), label, move || {
        let (fixture, mut ops) = fixture_and_ops(WorkloadKind::AllInserts, BATCH + PROBES);
        let probes = ops.split_off(BATCH);
        let engine = build(builder, &fixture);
        engine.submit_batch(ops).unwrap();
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
            engine.active_updates() > PROBES,
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
        // three-caller cases below and the equivalence suites already do.
        engine.shutdown();
    });
}

#[test]
fn callers_are_served_within_two_actions_blocking() {
    hand_off_bound("blocking", EngineBuilder::new());
}

#[test]
fn callers_are_served_within_two_actions_skipping() {
    hand_off_bound("skipping", EngineBuilder::new().free_running());
}

/// A durable engine is always blocking (a threaded free-running one is
/// refused at build time), so this is the third and last threaded shape.
#[test]
fn callers_are_served_within_two_actions_durable() {
    let dir = std::env::temp_dir().join(format!("yt-caller-entry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    hand_off_bound(
        "durable",
        EngineBuilder::new().durable(DurabilityConfig::new(&dir).with_group_commit(8)),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Submitter, pump and poller share one threaded engine. The poller's sweeps
/// auto-resolve what the pump has not answered after two of them, so all
/// three threads enter the sequencer while it runs.
fn three_callers(label: &'static str, builder: EngineBuilder) {
    const UPDATES: usize = 240;
    with_deadline(Duration::from_secs(300), label, move || {
        let (fixture, ops) = fixture_and_ops(WorkloadKind::Mixed, UPDATES);
        let engine = build(
            builder.escalation(EscalationPolicy::AutoResolve {
                after: 2,
                decision: AutoDecision::ExpandOrDeleteFirst,
            }),
            &fixture,
        );
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

#[test]
fn three_caller_threads_neither_deadlock_nor_lose_updates_blocking() {
    three_callers("blocking", EngineBuilder::new());
}

#[test]
fn three_caller_threads_neither_deadlock_nor_lose_updates_skipping() {
    three_callers("skipping", EngineBuilder::new().free_running());
}
