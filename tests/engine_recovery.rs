//! Crash-recovery and retention tests for the **durable** [`ExchangeEngine`].
//!
//! * **Prefix byte-equality** — for a durable reference run whose write-ahead
//!   log is the full interaction trace, cutting the log at *every* record
//!   boundary, recovering, and re-feeding the remaining records through the
//!   public API must reproduce the reference byte-exactly: the same database
//!   rendering, the same [`RunMetrics`] (modulo wall clock), the same
//!   per-update statistics and abort set — and the same WAL bytes, which pins
//!   the replayed action stamps themselves.
//! * **Torn tails** — truncating the log at every byte offset *inside* its
//!   final record drops exactly that record (never more, never garbage), and
//!   recovery plus a re-feed of the dropped record is again byte-identical.
//! * **Snapshots** — the same equality holds when periodic snapshots have
//!   folded most of the log away, so recovery starts from snapshot state.
//! * **Skipping** — a free-running engine answered from a second thread
//!   recovers from its log alone, the only record of where answers landed.
//! * **Retention** — with a finite [`EngineBuilder::retention_horizon`] the
//!   slot table stays O(horizon) across tens of thousands of
//!   submit/terminate cycles; evicted ids report
//!   [`LookupError::SlotEvicted`] (not a panic or a hang) while live handles
//!   keep answering from their pinned cells.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use proptest::prelude::*;
use youtopia::chase::UpdateStats;
use youtopia::concurrency::{decode_record, WalRecord};
use youtopia::mappings::satisfies_all;
use youtopia::storage::wal::{read_wal, WalWriter};
use youtopia::workload::{build_fixture, generate_workload, ExperimentConfig, WorkloadKind};
use youtopia::{
    AnswerOutcome, AutoDecision, Database, DurabilityConfig, EngineBuilder, EscalationPolicy,
    ExchangeEngine, FrontierResolver, FrontierToken, InitialOp, LookupError, MappingSet,
    RandomResolver, RecoveryError, ResolutionOrigin, ResolverPump, RunMetrics, SubmitError,
    TrackerKind, UpdateId, UpdateStatus, Value,
};

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// A self-deleting scratch directory (no tempfile dependency).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("youtopia-recovery-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Strips the wall-clock field so metrics compare byte-exactly. Re-asks are
/// advisory (never logged) and restart at zero after a crash, so they are
/// scrubbed too; `auto_resolutions` is deliberately **not** scrubbed — system
/// answers are WAL records, so the recovered count must match the original.
fn scrub(mut m: RunMetrics) -> RunMetrics {
    m.wall_time = Duration::ZERO;
    m.re_asks = 0;
    m
}

/// Byte-exact rendering of every relation's visible contents plus the null
/// counter — the "final database state" equality is pinned on.
fn render(db: &Database) -> String {
    let mut out = String::new();
    for relation in db.catalog().relation_ids() {
        out.push_str(&format!("{relation:?}: {:?}\n", db.scan(relation, UpdateId::OMNISCIENT)));
    }
    out.push_str(&format!("nulls: {}\n", db.null_counter()));
    out
}

/// Everything observable about one finished durable run, plus its on-disk
/// durable artifacts.
struct ReferenceRun {
    render: String,
    metrics: RunMetrics,
    stats: Vec<(UpdateId, UpdateStats)>,
    aborts: BTreeSet<UpdateId>,
    /// Decoded payloads of the final `wal.log` (element 0 is the header).
    records: Vec<Vec<u8>>,
    /// Raw bytes of the final `wal.log`.
    wal_bytes: Vec<u8>,
    mappings: MappingSet,
    /// The engine's configuration, without its durability directory.
    builder: EngineBuilder,
    snapshot_every: u64,
    group_commit: usize,
}

fn abort_set(stats: &[(UpdateId, UpdateStats)]) -> BTreeSet<UpdateId> {
    stats.iter().filter(|(_, s)| s.restarts > 0).map(|(id, _)| *id).collect()
}

/// Runs a generated workload through a durable engine in `dir`, submitting in
/// small waves with a resolver pump in between so the log interleaves
/// `Submit` and `Answer` records, and returns the reference observables plus
/// the surviving durable artifacts. A `skipping` engine is answered from a
/// second thread while the test thread drives it past the open questions.
fn reference_run(
    seed: u64,
    dir: &Path,
    snapshot_every: u64,
    group_commit: usize,
    skipping: bool,
) -> ReferenceRun {
    let mut experiment = ExperimentConfig::tiny();
    experiment.seed = seed;
    experiment.workload_updates = if skipping { 40 } else { 10 };
    let fixture = build_fixture(&experiment).expect("fixture builds");
    let ops = generate_workload(
        &experiment,
        &fixture.schema,
        &fixture.initial_db,
        &fixture.mappings,
        WorkloadKind::Mixed,
        seed,
    );
    let first_number = experiment.initial_tuples as u64 + 1_000;
    let builder = EngineBuilder::new()
        .tracker(TrackerKind::Precise)
        .frontier_delay_rounds(3)
        .first_update_number(first_number);
    let builder = if skipping { builder.free_running() } else { builder };
    let durability = DurabilityConfig::new(dir)
        .with_snapshot_every(snapshot_every)
        .with_group_commit(group_commit);
    let engine = builder
        .clone()
        .durable(durability)
        .build(fixture.initial_db.clone(), fixture.mappings.clone())
        .expect("durable engine starts");

    let mut resolver = RandomResolver::seeded(seed ^ 0xE61E);
    let submitted = AtomicBool::new(false);
    std::thread::scope(|s| {
        if skipping {
            s.spawn(|| {
                let mut resolver = RandomResolver::seeded(seed ^ 0xE61E);
                while !submitted.load(Ordering::SeqCst) {
                    ResolverPump::new(&engine, &mut resolver).drain().unwrap();
                    std::thread::sleep(Duration::from_micros(50));
                }
            });
        }
        for wave in ops.chunks(3) {
            engine.submit_batch(wave.to_vec()).expect("uncapped submission");
            if skipping {
                engine.wait_quiescent().expect("skipping reference settles");
            } else {
                ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
            }
        }
        submitted.store(true, Ordering::SeqCst);
    });
    assert!(engine.is_quiescent(), "reference run must end quiescent");
    let stats = engine.update_stats();
    let aborts = abort_set(&stats);
    let (db, mappings, metrics) = engine.shutdown();
    assert!(satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), &mappings));

    let wal_bytes = std::fs::read(dir.join("wal.log")).expect("wal survives shutdown");
    let records = read_wal(&dir.join("wal.log")).expect("wal parses").records;
    assert!(!records.is_empty(), "log always holds at least its header");
    ReferenceRun {
        render: render(&db),
        metrics: scrub(metrics),
        stats,
        aborts,
        records,
        wal_bytes,
        mappings,
        builder,
        snapshot_every,
        group_commit,
    }
}

/// Asserts the re-fed log in `dir` carries the same records as the reference
/// byte for byte — same headers, same submissions (ids and operations), same
/// answers (tokens and decisions), in the same order, at the same action
/// stamps. One caller thread drives both runs under the blocking policy, so
/// where each record lands is a function of the call sequence.
fn assert_log_matches_reference(dir: &Path, reference: &ReferenceRun, label: &str) {
    let refed = read_wal(&dir.join("wal.log")).expect("re-fed wal parses").records;
    assert_eq!(refed, reference.records, "{label}: re-fed log records");
}

/// Byte offsets of each record-frame boundary in a log holding `records`:
/// `boundaries[k]` is the file length after the first `k + 1` records. Built
/// by re-framing the payloads through a scratch [`WalWriter`], which writes
/// the identical bytes (asserted by the callers against the real file).
fn frame_boundaries(records: &[Vec<u8>], scratch: &Path) -> Vec<u64> {
    let mut writer = WalWriter::create(scratch).expect("scratch wal");
    records
        .iter()
        .map(|payload| {
            writer.append(payload).expect("scratch append");
            writer.position()
        })
        .collect()
}

/// Drives the engine and asserts it settled quiescent: nothing it needs
/// from the caller is left unanswered.
fn await_quiescence(engine: &ExchangeEngine, label: &str) {
    if let Err(e) = engine.drive() {
        panic!("{label}: engine failed while settling: {e}");
    }
    assert!(engine.is_quiescent(), "{label}: engine is blocked on an unanswered frontier");
}

/// Re-feeds decoded WAL tail records through the **public** API: submissions
/// via [`ExchangeEngine::submit_batch`] (asserting the engine re-assigns the
/// logged ids) and answers via [`ExchangeEngine::answer_with_origin`] once
/// the same token is republished by the recovered chase. System-origin
/// answers are replayed verbatim with their logged origin — the harness
/// never calls [`ExchangeEngine::sweep`], so a decision the sweeper made
/// before the crash can only re-enter the run as a replayed log record,
/// never as a fresh decision.
fn refeed(engine: &ExchangeEngine, tail: &[WalRecord], label: &str) {
    for record in tail {
        match record {
            WalRecord::Header { .. } => panic!("{label}: tail contains a header record"),
            WalRecord::Submit { first, ops, .. } => {
                // The reference submits each wave to a quiescent engine, so
                // re-feed under the same arrival discipline: without this,
                // the resubmission would join the live set while recovered
                // mid-flight work is still settling — a different run.
                await_quiescence(engine, label);
                let handles = engine.submit_batch(ops.clone()).expect("re-submission admitted");
                assert_eq!(
                    handles.first().map(|h| h.id()),
                    Some(UpdateId(*first)),
                    "{label}: recovered engine must re-assign the logged update ids"
                );
            }
            WalRecord::Answer { token, decision, origin, .. } => {
                if let Err(e) = engine.drive() {
                    panic!("{label}: engine failed before republishing token {token}: {e}");
                }
                assert!(
                    engine.pending_frontiers().iter().any(|pf| pf.token.0 == *token),
                    "{label}: token {token} was not republished after recovery"
                );
                let outcome = engine
                    .answer_with_origin(FrontierToken(*token), decision.clone(), *origin)
                    .expect("logged decision re-applies");
                assert_eq!(outcome, AnswerOutcome::Applied, "{label}: token {token}");
            }
        }
    }
    await_quiescence(engine, label);
}

/// Recovers from `dir`, re-feeds `tail`, and asserts every observable is
/// byte-identical to the reference.
fn recover_refeed_and_compare(
    reference: &ReferenceRun,
    dir: &Path,
    tail: &[WalRecord],
    label: &str,
) {
    let durability = DurabilityConfig::new(dir)
        .with_snapshot_every(reference.snapshot_every)
        .with_group_commit(reference.group_commit);
    let engine = reference
        .builder
        .clone()
        .durable(durability)
        .recover(reference.mappings.clone())
        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    refeed(&engine, tail, label);

    let stats = engine.update_stats();
    assert_eq!(stats, reference.stats, "{label}: per-update stats");
    assert_eq!(abort_set(&stats), reference.aborts, "{label}: abort set");
    let (db, _, metrics) = engine.shutdown();
    assert_eq!(scrub(metrics), reference.metrics, "{label}: metrics");
    assert_eq!(render(&db), reference.render, "{label}: final database state");
}

// ---------------------------------------------------------------------------
// Prefix byte-equality
// ---------------------------------------------------------------------------

/// Cuts the reference log after each record, recovers from the prefix, and
/// re-feeds the suffix. With `snapshot_every` large enough that only
/// snapshot 0 exists, this covers **every** prefix of the logged run.
fn sweep_every_boundary(reference: &ReferenceRun, ref_dir: &Path, tag: &str) {
    let n = reference.records.len();

    let scratch = TempDir::new("scratch");
    let boundaries = frame_boundaries(&reference.records, &scratch.path().join("reframe.log"));
    assert_eq!(
        std::fs::read(scratch.path().join("reframe.log")).unwrap(),
        reference.wal_bytes,
        "re-framed payloads must reproduce the log bytes exactly"
    );

    let tail: Vec<WalRecord> = reference.records[1..]
        .iter()
        .map(|payload| decode_record(payload).expect("logged record decodes"))
        .collect();

    for keep in 1..=n {
        let cut_dir = TempDir::new("cut");
        std::fs::copy(ref_dir.join("snapshot.bin"), cut_dir.path().join("snapshot.bin")).unwrap();
        let prefix = &reference.wal_bytes[..boundaries[keep - 1] as usize];
        std::fs::write(cut_dir.path().join("wal.log"), prefix).unwrap();
        let label = format!("{tag}, {keep}/{n} records");
        recover_refeed_and_compare(reference, cut_dir.path(), &tail[keep - 1..], &label);

        // After the re-feed the recovered log must carry the same record
        // sequence as the reference — so a second recovery would replay the
        // same history. (Only comparable while no snapshot fired during the
        // re-feed and truncated the log.)
        if reference.snapshot_every as usize > n {
            assert_log_matches_reference(cut_dir.path(), reference, &label);
        }
    }
}

fn recovery_matches_reference_at_every_boundary(
    seed: u64,
    snapshot_every: u64,
    group_commit: usize,
) {
    let ref_dir = TempDir::new("ref");
    let reference = reference_run(seed, ref_dir.path(), snapshot_every, group_commit, false);
    sweep_every_boundary(
        &reference,
        ref_dir.path(),
        &format!("seed {seed}, snapshot_every {snapshot_every}"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Crash at any acknowledged record: recover + re-feed ≡ never crashed.
    #[test]
    fn recovery_is_byte_identical_at_every_record_boundary(seed in 0u64..10_000) {
        recovery_matches_reference_at_every_boundary(seed, 1_000_000, 1);
    }

    /// The same prefix sweep with a group-commit window: batched fsyncs must
    /// not change a single byte of what gets logged or recovered — the window
    /// only moves *when* records become durable, never what they say. The
    /// reference's clean shutdown flushes its open window, so the final log
    /// is complete and every boundary is still reachable.
    #[test]
    fn recovery_is_byte_identical_with_group_commit(seed in 0u64..10_000) {
        recovery_matches_reference_at_every_boundary(seed, 1_000_000, 8);
    }

    /// The same equality when snapshots have folded most of the log away:
    /// recovery starts from mid-run snapshot state, not the initial database.
    #[test]
    fn recovery_is_byte_identical_across_snapshots(seed in 0u64..10_000) {
        recovery_matches_reference_at_every_boundary(seed, 3, 1);
    }

    /// Snapshots and group commit together: the snapshot path force-flushes
    /// the open window before folding the log away, so a snapshot can never
    /// claim to cover records that were not yet on disk.
    #[test]
    fn recovery_across_snapshots_with_group_commit(seed in 0u64..10_000) {
        recovery_matches_reference_at_every_boundary(seed, 3, 8);
    }

    /// Torn tail: truncating the log at **every byte offset** inside its
    /// final record drops exactly that record, and recovery plus a re-feed
    /// of the dropped record is byte-identical to the reference.
    #[test]
    fn torn_final_record_is_dropped_exactly_and_replayable(seed in 0u64..10_000) {
        let ref_dir = TempDir::new("torn-ref");
        let reference = reference_run(seed, ref_dir.path(), 1_000_000, 1, false);
        let n = reference.records.len();
        assert!(n >= 2, "a non-empty workload always logs past the header");

        let scratch = TempDir::new("torn-scratch");
        let boundaries =
            frame_boundaries(&reference.records, &scratch.path().join("reframe.log"));
        prop_assert_eq!(
            std::fs::read(scratch.path().join("reframe.log")).unwrap(),
            reference.wal_bytes.clone()
        );
        let last_start = boundaries[n - 2] as usize;
        let file_len = reference.wal_bytes.len();
        assert_eq!(boundaries[n - 1] as usize, file_len);
        let dropped =
            vec![decode_record(&reference.records[n - 1]).expect("final record decodes")];

        for cut in last_start..file_len {
            let cut_dir = TempDir::new("torn-cut");
            std::fs::copy(
                ref_dir.path().join("snapshot.bin"),
                cut_dir.path().join("snapshot.bin"),
            )
            .unwrap();
            std::fs::write(cut_dir.path().join("wal.log"), &reference.wal_bytes[..cut]).unwrap();

            // The torn bytes must cost exactly the final record, no more.
            let torn = read_wal(&cut_dir.path().join("wal.log")).unwrap();
            assert_eq!(torn.records.len(), n - 1, "cut at byte {cut}");
            assert_eq!(torn.valid_len as usize, last_start, "cut at byte {cut}");

            let label = format!("seed {seed}, torn at byte {cut}/{file_len}");
            recover_refeed_and_compare(&reference, cut_dir.path(), &dropped, &label);
            assert_log_matches_reference(cut_dir.path(), &reference, &label);
        }
    }
}

// ---------------------------------------------------------------------------
// Escalated runs: system answers are replayed, never re-decided
// ---------------------------------------------------------------------------

/// Settles the engine to quiescence while deliberately starving some frontier
/// requests so the lifecycle sweeper must escalate them. Under `AutoResolve`
/// the harness answers only even-numbered tokens by hand, leaving the odd
/// ones to expire into system answers; under `ReAsk` it answers a request
/// only once the sweeper has escalated it at least once (re-asks are
/// advisory, so a human must still decide). Under `Wait` everything is
/// answered on first sight — the sweep is pure aging.
fn settle_with_escalations(
    engine: &ExchangeEngine,
    resolver: &mut RandomResolver,
    policy: EscalationPolicy,
) {
    for pass in 0.. {
        if let Err(e) = engine.drive() {
            panic!("escalated reference: engine failed while settling: {e}");
        }
        if engine.is_quiescent() {
            return;
        }
        assert!(pass < 100_000, "escalated reference never became quiescent");
        for pf in engine.pending_frontiers() {
            let by_hand = match policy {
                EscalationPolicy::Wait => true,
                EscalationPolicy::ReAsk { .. } => pf.escalations >= 1,
                EscalationPolicy::AutoResolve { .. } => pf.token.0 % 2 == 0,
            };
            if !by_hand {
                continue;
            }
            let decision = engine.read(|db| resolver.resolve(&db.snapshot(pf.update), &pf.request));
            engine.answer(pf.token, decision).expect("hand answer applies");
        }
        engine.sweep();
    }
}

/// [`reference_run`] under an escalation policy: the same workload, but the
/// settling loop starves requests (see [`settle_with_escalations`]) so the
/// final log interleaves Human- and System-origin answer records. Returns
/// the reference plus the **unscrubbed** live metrics, so callers can pin
/// escalation counts that `scrub` erases.
fn escalated_reference_run(
    seed: u64,
    dir: &Path,
    policy: EscalationPolicy,
) -> (ReferenceRun, RunMetrics) {
    let mut experiment = ExperimentConfig::tiny();
    experiment.seed = seed;
    let fixture = build_fixture(&experiment).expect("fixture builds");
    let ops: Vec<InitialOp> = generate_workload(
        &experiment,
        &fixture.schema,
        &fixture.initial_db,
        &fixture.mappings,
        WorkloadKind::Mixed,
        seed,
    )
    .into_iter()
    .take(10)
    .collect();
    let first_number = experiment.initial_tuples as u64 + 1_000;
    let builder = EngineBuilder::new()
        .tracker(TrackerKind::Precise)
        .frontier_delay_rounds(3)
        .first_update_number(first_number)
        .escalation(policy);
    let durability = DurabilityConfig::new(dir).with_snapshot_every(1_000_000).with_group_commit(1);
    let engine = builder
        .clone()
        .durable(durability)
        .build(fixture.initial_db.clone(), fixture.mappings.clone())
        .expect("durable engine starts");

    let mut resolver = RandomResolver::seeded(seed ^ 0xE61E);
    for wave in ops.chunks(3) {
        engine.submit_batch(wave.to_vec()).expect("uncapped submission");
        settle_with_escalations(&engine, &mut resolver, policy);
    }
    assert!(engine.is_quiescent(), "escalated reference run must end quiescent");
    let stats = engine.update_stats();
    let aborts = abort_set(&stats);
    let (db, mappings, metrics) = engine.shutdown();
    assert!(satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), &mappings));

    let wal_bytes = std::fs::read(dir.join("wal.log")).expect("wal survives shutdown");
    let records = read_wal(&dir.join("wal.log")).expect("wal parses").records;
    let reference = ReferenceRun {
        render: render(&db),
        metrics: scrub(metrics.clone()),
        stats,
        aborts,
        records,
        wal_bytes,
        mappings,
        builder,
        snapshot_every: 1_000_000,
        group_commit: 1,
    };
    (reference, metrics)
}

/// Counts (human, system) answer records in a decoded log.
fn count_answer_origins(records: &[Vec<u8>]) -> (usize, usize) {
    records[1..].iter().fold((0, 0), |(h, s), payload| {
        match decode_record(payload).expect("logged record decodes") {
            WalRecord::Answer { origin: ResolutionOrigin::Human, .. } => (h + 1, s),
            WalRecord::Answer { origin: ResolutionOrigin::System, .. } => (h, s + 1),
            _ => (h, s),
        }
    })
}

/// A pinned auto-resolving run: seed 4242 is known to block on frontiers, so
/// the log *must* carry System-origin answer records, the live
/// `auto_resolutions` metric must count exactly those records — and the full
/// boundary sweep must hold with system answers in the replayed tail. The
/// metrics equality inside the sweep is what pins "replayed, never
/// re-decided": `scrub` keeps `auto_resolutions`, so a recovery that dropped
/// or re-made even one system decision would miscount.
#[test]
fn auto_resolved_runs_recover_byte_identically() {
    let policy =
        EscalationPolicy::AutoResolve { after: 2, decision: AutoDecision::ExpandOrDeleteFirst };
    let dir = TempDir::new("auto-ref");
    let (reference, live) = escalated_reference_run(4242, dir.path(), policy);
    let (human, system) = count_answer_origins(&reference.records);
    assert!(system > 0, "the starved odd-token requests must have auto-resolved");
    assert!(human > 0, "the even-token requests must still be human answers");
    assert_eq!(live.auto_resolutions, system, "live metric counts the logged system answers");
    assert_eq!(
        reference.metrics.auto_resolutions, system,
        "auto_resolutions survives the scrub — recovery must reproduce it"
    );
    sweep_every_boundary(&reference, dir.path(), "auto-resolve seed 4242");
}

/// The same pinned run under `ReAsk`: escalations happen (the harness only
/// answers re-asked requests) but are advisory — the log carries Human
/// answers only, and a recovered run restarts the re-ask counter at zero.
#[test]
fn re_asked_runs_recover_byte_identically() {
    let dir = TempDir::new("reask-ref");
    let (reference, live) =
        escalated_reference_run(4242, dir.path(), EscalationPolicy::ReAsk { after: 2 });
    let (human, system) = count_answer_origins(&reference.records);
    assert!(live.re_asks > 0, "every answered request was re-asked first");
    assert_eq!(system, 0, "re-asks are advisory: no system answers in the log");
    assert!(human > 0, "the re-asked requests were answered by hand");
    assert_eq!(reference.metrics.re_asks, 0, "scrubbed: re-asks reset across recovery");
    sweep_every_boundary(&reference, dir.path(), "re-ask seed 4242");
}

proptest! {
    // The boundary sweep recovers O(records) engines per case, so keep the
    // case count low — the pinned tests above already guarantee escalations
    // occur.
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Crash anywhere in an auto-resolving run: recover + re-feed ≡ never
    /// crashed, with the replayed tail carrying the sweeper's own answers.
    #[test]
    fn escalated_recovery_is_byte_identical_at_every_boundary(seed in 0u64..10_000) {
        let policy = EscalationPolicy::AutoResolve {
            after: 2,
            decision: AutoDecision::ExpandOrDeleteFirst,
        };
        let dir = TempDir::new("auto-prop");
        let (reference, _) = escalated_reference_run(seed, dir.path(), policy);
        sweep_every_boundary(&reference, dir.path(), &format!("auto-resolve seed {seed}"));
    }
}

// ---------------------------------------------------------------------------
// Recovery rejects what it cannot replay
// ---------------------------------------------------------------------------

/// A config whose fingerprint differs from the logging engine's is rejected
/// up front — replaying under different semantics would diverge silently.
#[test]
fn recovery_rejects_a_mismatched_config() {
    let dir = TempDir::new("mismatch");
    let reference = reference_run(7, dir.path(), 1_000_000, 1, false);

    let altered = reference.builder.clone().tracker(TrackerKind::Naive);
    let durability = DurabilityConfig::new(dir.path()).with_snapshot_every(1_000_000);
    match altered.durable(durability).recover(reference.mappings.clone()) {
        Err(RecoveryError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

/// Skipping engines are durable. In a skipping run answered from a second
/// thread, where each answer lands between sequencer actions is up to the OS,
/// so only the log can reproduce it: every record-boundary prefix must
/// replay, and the full log alone must give back the shut-down engine.
#[test]
fn skipping_durable_runs_recover_from_their_log() {
    for (snapshot_every, group_commit) in [(1_000_000, 1), (1_000_000, 8), (3, 1), (3, 8)] {
        let label = format!("skipping, snapshot_every {snapshot_every}, group {group_commit}");
        let ref_dir = TempDir::new("skip-ref");
        let reference = reference_run(4242, ref_dir.path(), snapshot_every, group_commit, true);
        let scratch = TempDir::new("skip-scratch");
        for end in frame_boundaries(&reference.records, &scratch.path().join("reframe.log")) {
            let cut = TempDir::new("skip-cut");
            std::fs::copy(ref_dir.path().join("snapshot.bin"), cut.path().join("snapshot.bin"))
                .unwrap();
            std::fs::write(cut.path().join("wal.log"), &reference.wal_bytes[..end as usize])
                .unwrap();
            let durability = DurabilityConfig::new(cut.path()).with_snapshot_every(snapshot_every);
            let recovered = reference.builder.clone().durable(durability);
            recovered.recover(reference.mappings.clone()).expect(&label).shutdown();
        }
        recover_refeed_and_compare(&reference, ref_dir.path(), &[], &label);
    }
}

/// An empty or headerless log is corruption, not a crash to replay through.
#[test]
fn recovery_rejects_a_headerless_log() {
    let dir = TempDir::new("headerless");
    let reference = reference_run(11, dir.path(), 1_000_000, 1, false);
    std::fs::write(dir.path().join("wal.log"), b"").unwrap();
    let durability = DurabilityConfig::new(dir.path()).with_snapshot_every(1_000_000);
    match reference.builder.clone().durable(durability).recover(reference.mappings.clone()) {
        Err(RecoveryError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Malformed submissions are refused, not fatal
// ---------------------------------------------------------------------------

/// A batch holding an insert of the wrong arity or a delete from an unknown
/// relation is refused whole with `SubmitError::Invalid` before anything is
/// logged or admitted. A plain engine keeps serving, and a durable engine's
/// directory recovers and takes the next valid submission.
#[test]
fn malformed_submissions_are_refused_and_the_engine_keeps_serving() {
    let dir = TempDir::new("malformed");
    let (db, mappings, k) = trivial_fixture();
    let valid = |i: u64| InitialOp::Insert {
        relation: k,
        values: vec![Value::constant(&format!("k{i}")), Value::constant("v")],
    };
    let malformed = [
        InitialOp::Insert { relation: k, values: vec![Value::constant("short")] },
        InitialOp::Delete { relation: youtopia::RelationId(9), tuple: youtopia::TupleId(0) },
    ];
    for durable in [false, true] {
        let builder = EngineBuilder::new().first_update_number(1_000);
        let builder = match durable {
            true => builder.durable(DurabilityConfig::new(dir.path())),
            false => builder,
        };
        let engine = builder.clone().build(db.clone(), mappings.clone()).expect("engine starts");
        assert!(engine.submit(valid(0)).expect("admission").wait().expect("ends").terminated);
        for op in &malformed {
            match engine.submit_batch(vec![valid(1), op.clone()]) {
                Err(SubmitError::Invalid(_)) => {}
                other => panic!("durable {durable}: expected Invalid, got {other:?}"),
            }
        }
        engine.drive().expect("the engine keeps serving");
        assert!(engine.submit(valid(1)).expect("admission").wait().expect("ends").terminated);
        let (final_db, _, metrics) = engine.shutdown();
        assert_eq!(metrics.workload_size, 2, "durable {durable}: refused batches not admitted");
        assert_eq!(final_db.visible_count(k, UpdateId::OMNISCIENT), 2);
        if durable {
            let recovered = builder.recover(mappings.clone()).expect("recovery succeeds");
            assert!(
                recovered.submit(valid(2)).expect("admission").wait().expect("ends").terminated
            );
            let (recovered_db, _, _) = recovered.shutdown();
            assert_eq!(recovered_db.visible_count(k, UpdateId::OMNISCIENT), 3);
        }
    }
}

// ---------------------------------------------------------------------------
// Retention: bounded slot-table memory
// ---------------------------------------------------------------------------

/// A bare single-relation fixture whose updates terminate immediately (no
/// mappings, so no chase beyond the initial operation).
fn trivial_fixture() -> (Database, MappingSet, youtopia::RelationId) {
    let mut db = Database::new();
    db.add_relation("K", ["key", "value"]).unwrap();
    let k = db.relation_id("K").unwrap();
    (db, MappingSet::new(), k)
}

fn run_retention_cycles(cycles: u64, horizon: usize, durable_dir: Option<&Path>) {
    let (db, mappings, k) = trivial_fixture();
    let builder = EngineBuilder::new()
        .tracker(TrackerKind::Precise)
        .first_update_number(1_000)
        .retention_horizon(horizon);
    let builder = match durable_dir {
        Some(dir) => builder.durable(DurabilityConfig::new(dir).with_snapshot_every(64)),
        None => builder,
    };
    let engine = builder.build(db, mappings).expect("engine starts");

    // The horizon bounds *retained terminal* slots; in-flight work and the
    // current quiescence lag add at most a small constant on top.
    let bound = 2 * horizon + 8;
    let mut first_handle = None;
    for i in 0..cycles {
        let handle = engine
            .submit(InitialOp::Insert {
                relation: k,
                values: vec![Value::constant(&format!("k{i}")), Value::constant("v")],
            })
            .expect("admission");
        if i == 0 {
            first_handle = Some(handle.clone());
        }
        let report = handle.wait().expect("trivial update terminates");
        assert!(report.terminated);
        if i % 512 == 0 {
            assert!(
                engine.retained_slots() <= bound,
                "cycle {i}: {} slots retained, bound {bound}",
                engine.retained_slots()
            );
        }
    }
    await_quiescence(&engine, "retention cycles");
    assert!(
        engine.retained_slots() <= bound,
        "final: {} slots retained, bound {bound}",
        engine.retained_slots()
    );

    // Evicted ids answer with the typed error — not a panic, not a hang.
    match engine.update_stats_of(UpdateId(1_000)) {
        Err(LookupError::SlotEvicted(u)) => assert_eq!(u, UpdateId(1_000)),
        other => panic!("expected SlotEvicted for the first update, got {other:?}"),
    }
    match engine.update_report_of(UpdateId(1_000)) {
        Err(LookupError::SlotEvicted(_)) => {}
        other => panic!("expected SlotEvicted report, got {other:?}"),
    }
    // Ids never admitted stay distinguishable from evicted ones.
    match engine.update_stats_of(UpdateId(1_000 + cycles + 5)) {
        Err(LookupError::UnknownUpdate(_)) => {}
        other => panic!("expected UnknownUpdate, got {other:?}"),
    }
    match engine.update_stats_of(UpdateId(3)) {
        Err(LookupError::UnknownUpdate(_)) => {}
        other => panic!("expected UnknownUpdate below the first number, got {other:?}"),
    }
    // A live handle pins its own cell: it still answers after eviction.
    let first = first_handle.expect("first handle kept");
    assert_eq!(first.status(), UpdateStatus::Terminated);
    assert!(first.report().expect("report pinned").terminated);

    // The most recent updates are still retained and keyed-addressable.
    let last = UpdateId(1_000 + cycles - 1);
    assert_eq!(engine.update_stats_of(last).expect("last update retained").restarts, 0);

    let (final_db, _, metrics) = engine.shutdown();
    assert_eq!(metrics.workload_size, cycles as usize);
    assert_eq!(final_db.visible_count(k, UpdateId::OMNISCIENT), cycles as usize);
}

/// ≥10k submit/terminate cycles against a small horizon: the slot table
/// stays O(horizon) instead of growing without bound, and every lookup mode
/// (evicted / unknown / pinned handle / retained) behaves as documented.
#[test]
fn ten_thousand_cycles_hold_bounded_slot_memory() {
    run_retention_cycles(10_000, 32, None);
}

/// Compaction composes with durability: the same bounded-memory run through
/// a durable engine, then a recovery whose replayed state matches the final
/// database (the log tail past the last snapshot replays deterministically).
#[test]
fn durable_compaction_recovers_cleanly() {
    let dir = TempDir::new("durable-retention");
    let (db, mappings, k) = trivial_fixture();
    let builder = EngineBuilder::new()
        .tracker(TrackerKind::Precise)
        .first_update_number(1_000)
        .retention_horizon(16)
        .durable(DurabilityConfig::new(dir.path()).with_snapshot_every(32));
    let engine = builder.clone().build(db, mappings.clone()).expect("durable engine starts");
    for i in 0..500u64 {
        let handle = engine
            .submit(InitialOp::Insert {
                relation: k,
                values: vec![Value::constant(&format!("k{i}")), Value::constant("v")],
            })
            .expect("admission");
        handle.wait().expect("terminates");
    }
    await_quiescence(&engine, "durable retention");
    let retained = engine.retained_slots();
    assert!(retained <= 40, "{retained} slots retained under horizon 16");
    let stats = engine.update_stats();
    let (final_db, _, metrics) = engine.shutdown();

    let recovered = builder.recover(mappings).expect("recovery succeeds");
    await_quiescence(&recovered, "recovered durable retention");
    // How *deep* the retained window is at any instant depends on when
    // compaction last ran (it trails the horizon by a bounded lag), so the
    // two engines may not retain the same number of trailing slots — but
    // every slot they both retain must carry identical statistics, and both
    // windows must end at the newest update.
    let recovered_stats = recovered.update_stats();
    let recovered_count = recovered_stats.len();
    assert!(recovered_count <= 40, "{recovered_count} slots retained after recovery");
    assert_eq!(recovered_stats.last(), stats.last(), "newest retained update");
    let reference: std::collections::BTreeMap<_, _> = stats.iter().cloned().collect();
    for (id, s) in &recovered_stats {
        if let Some(original) = reference.get(id) {
            assert_eq!(s, original, "stats of {id:?} survive recovery");
        }
    }
    match recovered.update_stats_of(UpdateId(1_000)) {
        Err(LookupError::SlotEvicted(_)) => {}
        other => panic!("eviction must survive recovery, got {other:?}"),
    }
    let (recovered_db, _, recovered_metrics) = recovered.shutdown();
    assert_eq!(render(&recovered_db), render(&final_db), "recovered database");
    assert_eq!(scrub(recovered_metrics), scrub(metrics), "recovered metrics");
}

/// The long-haul spelling of the bounded-memory property, kept out of the
/// default run: `cargo test --test engine_recovery -- --ignored`.
#[test]
#[ignore = "long-running stress: ~40k cycles through a durable compacting engine"]
fn stress_durable_compaction_over_many_cycles() {
    let dir = TempDir::new("stress");
    run_retention_cycles(40_000, 16, Some(dir.path()));
}
