//! The long-lived update-exchange service: [`ExchangeEngine`].
//!
//! The batch scheduler ([`ConcurrentRun`](crate::ConcurrentRun)) takes every
//! update up front and runs to completion with a synchronous resolver
//! callback. The paper's chase is not shaped like that: updates arrive
//! continuously and block on frontier questions that humans answer
//! asynchronously (Youtopia §3–5). The engine is the service form of the same
//! machinery:
//!
//! * **Open-world submission** — [`ExchangeEngine::submit`] accepts an update
//!   at any time, including while earlier updates are mid-chase or blocked on
//!   frontiers, and returns an [`UpdateHandle`] exposing
//!   [`status`](UpdateHandle::status) / [`wait`](UpdateHandle::wait) /
//!   [`report`](UpdateHandle::report). An admission cap turns overload into
//!   [`SubmitError::Saturated`] backpressure instead of unbounded queues.
//! * **Pull-based frontier resolution** — a chase that blocks publishes its
//!   request; [`ExchangeEngine::pending_frontiers`] lists the outstanding
//!   [`PendingFrontier`]s and [`ExchangeEngine::answer`] resumes the owning
//!   update. Tokens go stale when the owner aborts (its restart publishes a
//!   new one), so a late answer is reported as [`AnswerOutcome::Stale`]
//!   rather than resuming the wrong incarnation. [`ResolverPump`] drains the
//!   queue through any existing [`FrontierResolver`] for compatibility with
//!   the batch world.
//! * **Snapshot reads** — [`ExchangeEngine::read`] runs a closure over the
//!   last-committed database state, between two sequencer actions, the way a
//!   serving tier would answer queries while chases run.
//!
//! An engine owns **no thread**. The paper's concurrency is logical —
//! updates interleave at chase-step granularity because humans are slow at
//! frontiers, and Algorithm 4 validates every step's writes against the
//! stored reads — so the sequencer runs on whichever caller thread drives
//! it: [`ExchangeEngine::drive`], [`UpdateHandle::wait`],
//! [`ExchangeEngine::wait_quiescent`] and [`ResolverPump`] all run actions
//! until nothing can act (`wait` stops earlier, once its own update has
//! terminated), and the waiters then sleep on the engine's signal until an
//! answer, a submission or a shutdown moves it.
//!
//! There is **one lock**. All mutable engine state — the database, the slot
//! table, the sequencer's logs and cursor, pending frontiers, admission,
//! metrics, the fatal error, a durable engine's WAL writer and a replica's
//! event logs and fold bookkeeping — is one `Core` behind one mutex, and a
//! sequencer action is one acquisition of it.
//! Every caller — `submit`, `answer`, `sweep`, `read`, `metrics`, the status
//! accessors and every handle method, on every engine (plain, durable or
//! replicated) — takes the same lock through `EngineShared::enter` and so
//! lands **between** two actions. A driver stands back for an announced
//! caller, so a caller waits for at most the action in flight and the next.
//! Outside the lock are only what never changes (mappings, configuration)
//! and the stop flag and wake-up signal. A replica's canonical fold is a
//! rule the driver tries before each action (see [`crate::replicate`]).
//!
//! There is **one scheduler**: the round-robin cursor of `ConcurrentRun`
//! (Algorithm 3) over the live updates, one action (at most one chase step)
//! per visit, with the same rules — a terminated update an abort revives
//! sits out the rest of the round. The chase is fixed too: every execution
//! re-checks only the queued violations of relations whose write epoch moved
//! ([`ChaseMode::Incremental`](youtopia_core::ChaseMode)); the full-recheck
//! chase survives only in `ConcurrentRun`, as the test oracle the
//! equivalence suites compare the engine against. One choice sits on top of
//! the scheduler: what the loop does while a published frontier is
//! unanswered — *block* (the default: nothing acts until the answer lands,
//! the pull-based analogue of the reference's synchronous resolver call, so
//! a batch submitted before anything steps is byte-identical to the
//! reference — pinned by `tests/engine_equivalence.rs`),
//! or *skip* ([`EngineBuilder::free_running`](crate::EngineBuilder::free_running):
//! the cursor steps past published slots and parks only when every live
//! update is blocked, so the schedule depends on where answers land —
//! recorded by the WAL stamp on a durable engine; since nobody waits on a
//! published request, an undelayed one goes out with the step that raised
//! it). Either policy runs on every engine, durable or replicated.
//!
//! Unlike the inline resolvers of the batch world, an answer can arrive long
//! after the snapshot the user looked at: writes may commit in between. That
//! is exactly the cooperative setting — the machinery that keeps it sound is
//! unchanged: the request's plan-time reads are stored for validation, the
//! decision's correction queries are recorded under the same lock hold that
//! applies them, and any conflicting later write aborts the update.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, Weak};

use youtopia_core::{
    ChaseError, EscalationPolicy, FrontierDecision, FrontierResolver, FrontierToken, InitialOp,
    LookupError, PendingFrontier, ResolutionOrigin, UpdateExecution, UpdateReport, UpdateState,
    UpdateStats,
};
use youtopia_mappings::MappingSet;
use youtopia_storage::wal::{read_wal, serialize_database, write_file_atomic, WalWriter};
use youtopia_storage::{Database, StorageError, UpdateId};

use crate::durable::{
    config_fingerprint, decode_record, decode_snapshot, encode_answer, encode_header,
    encode_snapshot, encode_submit, DurabilityConfig, DurableEngineState, RecoveryError,
    SlotSummary, SnapshotMeta, WalRecord,
};
use crate::metrics::RunMetrics;
use crate::sequencer::{Core, DetProgress};
use crate::validation::TrackerKind;

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The assembled configuration of an [`ExchangeEngine`]: the state
/// [`EngineBuilder`](crate::EngineBuilder) accumulates and the engine reads.
/// Each field is documented on the builder setter of the same name.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EngineConfig {
    pub(crate) tracker: TrackerKind,
    pub(crate) frontier_delay_rounds: usize,
    pub(crate) max_total_steps: usize,
    /// Skip — rather than block at — published frontiers
    /// ([`EngineBuilder::free_running`](crate::EngineBuilder::free_running)).
    pub(crate) free_running: bool,
    pub(crate) first_update_number: u64,
    pub(crate) max_steps_per_update: usize,
    pub(crate) admission_cap: usize,
    pub(crate) retention_horizon: usize,
    /// Part of the durable config fingerprint — a WAL written under one
    /// escalation policy is not replayed under another.
    pub(crate) escalation: EscalationPolicy,
    pub(crate) replica: Option<youtopia_core::replication::NodeId>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            tracker: TrackerKind::Coarse,
            frontier_delay_rounds: 0,
            // `SchedulerConfig`'s cumulative step valve is a batch-run safety
            // net; on a long-lived service it would become a lifetime time
            // bomb (the engine dies for good once total steps ever executed
            // reach it). Default engines are therefore unbounded globally —
            // bound individual updates with `max_steps_per_update` instead.
            max_total_steps: usize::MAX,
            free_running: false,
            first_update_number: 1,
            max_steps_per_update: usize::MAX,
            admission_cap: usize::MAX,
            retention_horizon: usize::MAX,
            escalation: EscalationPolicy::Wait,
            replica: None,
        }
    }
}

/// An admission-control identity: who is submitting. Clients are opaque to
/// the chase (update numbering and scheduling ignore them entirely); they
/// exist so fair-share admission can tell one submitter's load from
/// another's.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u64);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client#{}", self.0)
    }
}

/// A client's admission priority. Priority weights admission capacity and the
/// starvation deficit — it never reorders the chase itself (update numbers
/// remain arrival order, the paper's timestamp prioritisation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work: smallest fair share, slowest-growing deficit.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Latency-sensitive work: largest fair share, fastest-growing deficit.
    High,
}

impl Priority {
    /// The weight used for fair-share splits and deficit growth.
    pub fn weight(&self) -> u64 {
        match self {
            Priority::Low => 1,
            Priority::Normal => 2,
            Priority::High => 4,
        }
    }
}

/// The backoff hint carried by [`SubmitError::Saturated`]: how many currently
/// in-flight updates must terminate before a retry of the same batch can be
/// admitted (assuming no competing submissions land first). Callers should
/// wait for that many completions — e.g. `wait()` on handles they hold, or
/// poll [`ExchangeEngine::active_updates`] — rather than hot-retrying.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RetryAfter {
    /// In-flight update completions to wait for before retrying.
    pub completions: usize,
}

impl std::fmt::Display for RetryAfter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "retry after {} completion(s)", self.completions)
    }
}

/// Why a submission was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission denied — the global cap is reached, or the submitting
    /// client is over its fair share while others contend. Retry after
    /// `retry_after` in-flight updates terminate (the backoff contract on
    /// [`ExchangeEngine::submit`] / [`ExchangeEngine::submit_batch`]).
    Saturated {
        /// In-flight updates at rejection time.
        active: usize,
        /// The configured cap.
        cap: usize,
        /// Typed backoff hint: completions to wait for before retrying.
        retry_after: RetryAfter,
    },
    /// The engine has been shut down or has failed fatally (see
    /// [`ExchangeEngine::error`]).
    ShutDown,
    /// The engine is durable and appending the submission record to the
    /// write-ahead log failed; nothing was admitted and the engine has
    /// fail-stopped (see [`ExchangeEngine::error`]).
    Durability(String),
    /// The engine is a replica: plain submissions would bypass the replicated
    /// event log and silently diverge the node from its peers. Use
    /// [`ExchangeEngine::submit_replicated`].
    Replicated,
    /// An operation of the submission does not fit the catalog (unknown
    /// relation, wrong arity); the whole batch was refused, nothing was
    /// logged, and the engine keeps serving.
    Invalid(StorageError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Saturated { active, cap, retry_after } => {
                write!(
                    f,
                    "engine saturated: {active} in-flight updates at cap {cap}; {retry_after}"
                )
            }
            SubmitError::ShutDown => write!(f, "engine is shut down"),
            SubmitError::Durability(msg) => write!(f, "write-ahead log append failed: {msg}"),
            SubmitError::Replicated => {
                write!(f, "engine is a replica: submit through submit_replicated")
            }
            SubmitError::Invalid(e) => write!(f, "invalid submission: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What happened to an [`ExchangeEngine::answer`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerOutcome {
    /// The decision was applied and the owning update resumed.
    Applied,
    /// The token no longer names an outstanding request (the owner aborted
    /// and restarted, or the request was already answered). Harmless: the
    /// restarted chase publishes a fresh token for whatever it blocks on next.
    Stale,
}

/// Where an update submitted to the engine currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateStatus {
    /// Queued or mid-chase.
    Running,
    /// Blocked on a frontier request (listed by
    /// [`ExchangeEngine::pending_frontiers`] once published).
    AwaitingFrontier,
    /// Ran to completion; [`UpdateHandle::report`] is available.
    Terminated,
    /// Failed terminally (per-update step budget); its writes were rolled
    /// back and [`UpdateHandle::error`] holds the cause.
    Failed,
}

/// Generation-counting wakeup channel: every observable state change bumps the
/// generation and notifies, waiters re-check their predicate. Coarse but
/// lost-wakeup-free.
pub(crate) struct Signal {
    gen: Mutex<u64>,
    cond: Condvar,
}

impl Signal {
    fn new() -> Signal {
        Signal { gen: Mutex::new(0), cond: Condvar::new() }
    }

    pub(crate) fn current(&self) -> u64 {
        *lock(&self.gen)
    }

    pub(crate) fn bump(&self) {
        *lock(&self.gen) += 1;
        self.cond.notify_all();
    }

    /// Blocks until the generation moves past `seen` (returns immediately if
    /// it already has).
    pub(crate) fn wait_past(&self, seen: u64) {
        let mut gen = lock(&self.gen);
        while *gen == seen {
            gen = self.cond.wait(gen).unwrap_or_else(|e| e.into_inner());
        }
    }
}

pub(crate) struct Slot {
    pub(crate) exec: UpdateExecution,
    /// Cursor visits the slot still sits out: a fresh frontier request waits
    /// `frontier_delay_rounds` visits before it is published, and a
    /// terminated update revived by an abort one visit before it restarts.
    pub(crate) sit_out: usize,
    /// Token of the published-but-unanswered frontier request, if any.
    pub(crate) published: Option<FrontierToken>,
    /// Terminal per-update failure (step budget); never cleared.
    pub(crate) failed: Option<ChaseError>,
    /// Shared with the update's handles, if it has any: filled with the
    /// slot's last view when the slot leaves the engine (evicted by
    /// compaction, or dropped with the engine), so a handle keeps answering
    /// after that.
    detached: Option<Arc<OnceLock<SlotView>>>,
}

impl Slot {
    /// Boxed: a retained slot costs one allocation of its own size, not a
    /// share of a doubling buffer of them.
    fn new(exec: UpdateExecution, failed: Option<ChaseError>) -> Box<Slot> {
        Box::new(Slot { exec, sit_out: 0, published: None, failed, detached: None })
    }

    fn view(&self) -> SlotView {
        let status = match (&self.failed, self.exec.state()) {
            (Some(_), _) => UpdateStatus::Failed,
            (None, UpdateState::Ready) => UpdateStatus::Running,
            (None, UpdateState::AwaitingFrontier) => UpdateStatus::AwaitingFrontier,
            (None, UpdateState::Terminated) => UpdateStatus::Terminated,
        };
        SlotView {
            report: UpdateReport::for_execution(&self.exec),
            status,
            failed: self.failed.clone(),
        }
    }

    /// Hands the slot's last view to the handles still holding it.
    pub(crate) fn detach(&self) {
        if let Some(cell) = self.detached.as_ref().filter(|cell| Arc::strong_count(cell) > 1) {
            let _ = cell.set(self.view());
        }
    }
}

/// What a handle reports about its update.
#[derive(Clone, Debug)]
struct SlotView {
    report: UpdateReport,
    status: UpdateStatus,
    failed: Option<ChaseError>,
}

impl SlotView {
    /// The update's final outcome, once it has one.
    fn outcome(self) -> Option<Result<UpdateReport, ChaseError>> {
        match (self.failed, self.status) {
            (Some(e), _) => Some(Err(e)),
            (None, UpdateStatus::Terminated) => Some(Ok(self.report)),
            (None, _) => None,
        }
    }
}

pub(crate) struct PendingEntry {
    pub(crate) update: UpdateId,
    pub(crate) slot: usize,
    request: youtopia_core::FrontierRequest,
    /// Action stamp at publish time (0 on a plain engine, where the action
    /// counter does not run).
    published_at: u64,
    /// Sweeps survived unanswered since publish (or since the last
    /// escalation reset it). The deadline unit of [`EscalationPolicy`].
    age: u64,
    /// `ReAsk` re-publications (plus failed auto-resolutions) so far.
    /// Observability only — rebuilt entries start at zero after recovery.
    escalations: u32,
}

/// What one [`ExchangeEngine::sweep`] pass did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Pending requests aged by this pass (all of them).
    pub aged: usize,
    /// Tokens re-published at higher priority (`EscalationPolicy::ReAsk`).
    pub re_asked: Vec<FrontierToken>,
    /// Tokens the system answered (`EscalationPolicy::AutoResolve`), WAL-
    /// logged with [`ResolutionOrigin::System`] on a durable engine.
    pub auto_resolved: Vec<FrontierToken>,
}

/// Per-client admission bookkeeping (see [`ExchangeEngine::submit_batch_as`]).
#[derive(Default)]
pub(crate) struct ClientAdmission {
    /// Slot indices this client was admitted for; pruned lazily (terminal or
    /// evicted slots drop out at the next admission check).
    admitted: Vec<usize>,
    /// Weighted starvation deficit: grows by the client's priority weight on
    /// every rejection, resets to zero on admission. A client whose deficit
    /// reaches [`EngineShared::STARVATION_DEFICIT`] is *starving*: freed
    /// capacity is reserved for it (other clients are refused) until it gets
    /// in — the eventual-admission guarantee.
    deficit: u64,
    /// Priority weight of the client's most recent submission attempt.
    weight: u64,
}

pub(crate) struct EngineShared {
    /// Shared with [`ExchangeEngine::shutdown`], which hands the set back.
    pub(crate) mappings: Arc<MappingSet>,
    pub(crate) config: EngineConfig,
    /// Every piece of mutable engine state; see [`enter`](Self::enter) for
    /// how callers take it.
    pub(crate) core: Mutex<Core>,
    /// Callers waiting in [`enter`](Self::enter) for the core lock.
    pub(crate) entering: AtomicUsize,
    pub(crate) stop: AtomicBool,
    pub(crate) signal: Signal,
}

impl EngineShared {
    /// Deficit at which a repeatedly rejected client becomes *starving* and
    /// freed capacity is reserved for it. Deficit grows by the priority
    /// weight per rejection, so a `High` client starves (and is rescued)
    /// after 4 rejections, a `Low` client after 16 — weighted, but always
    /// eventual.
    const STARVATION_DEFICIT: u64 = 16;

    /// Fair-share admission check for a batch of `n` updates.
    ///
    /// Anonymous submissions (`client == None`) see only the global cap —
    /// the pre-QoS behavior. Identified submissions additionally get:
    ///
    /// 1. a **weighted fair share** of the cap while other clients contend
    ///    (`cap · w_c / Σw` over clients with live work or unpaid deficit,
    ///    never below 1);
    /// 2. a **starvation reservation**: every rejection grows the client's
    ///    deficit by its priority weight, and once some client's deficit
    ///    reaches [`Self::STARVATION_DEFICIT`], freed capacity is refused to
    ///    everyone else until the starving client is admitted.
    ///
    /// Together these guarantee a persistent low-priority client eventual
    /// admission: its deficit only grows while it is refused, starvation
    /// reserves it the next freed slot, and admission resets the deficit.
    fn check_admission(
        &self,
        core: &mut Core,
        client: Option<(ClientId, Priority)>,
        n: usize,
    ) -> Result<(), SubmitError> {
        let cap = self.config.admission_cap;
        let active = core.active;
        let Some((client_id, priority)) = client else {
            if active.saturating_add(n) > cap {
                let retry_after = RetryAfter { completions: active.saturating_add(n) - cap };
                return Err(SubmitError::Saturated { active, cap, retry_after });
            }
            return Ok(());
        };
        // Lazily prune: a client's in-flight count is its admitted slots that
        // are still live. Terminal and evicted slots drop out here (eviction
        // is restricted to terminal slots).
        let Core { admission, slots, base, .. } = core;
        let live = |idx: usize| {
            idx.checked_sub(*base)
                .and_then(|i| slots.get(i))
                .is_some_and(|slot| slot.failed.is_none() && !slot.exec.is_terminated())
        };
        for state in admission.values_mut() {
            state.admitted.retain(|&idx| live(idx));
        }
        admission.retain(|_, s| !s.admitted.is_empty() || s.deficit > 0);
        let entry = admission.entry(client_id).or_default();
        entry.weight = priority.weight();
        let deficit = entry.deficit;
        let reject = |admission: &mut BTreeMap<ClientId, ClientAdmission>,
                      completions: usize|
         -> SubmitError {
            let e = admission.entry(client_id).or_default();
            e.deficit += priority.weight();
            SubmitError::Saturated {
                active,
                cap,
                retry_after: RetryAfter { completions: completions.max(1) },
            }
        };
        // Rule 0: the global cap binds everyone.
        if active.saturating_add(n) > cap {
            let over = active.saturating_add(n) - cap;
            return Err(reject(admission, over));
        }
        let starving = deficit >= Self::STARVATION_DEFICIT;
        // Rule 1: weighted fair share, while other clients contend. A
        // starving client bypasses its share — the reservation below has
        // already throttled everyone else on its behalf.
        if !starving && admission.len() > 1 {
            let entry = admission.get(&client_id).expect("just inserted");
            let total_weight: u64 = admission.values().map(|s| s.weight.max(1)).sum();
            let share =
                ((cap as u128 * priority.weight() as u128) / total_weight.max(1) as u128) as usize;
            let share = share.max(1);
            let in_flight = entry.admitted.len();
            if in_flight.saturating_add(n) > share {
                let over = in_flight.saturating_add(n) - share;
                return Err(reject(admission, over));
            }
        }
        // Rule 2: starvation reservation. Admitting would leave fewer free
        // slots than there are *other* starving clients → this submission is
        // eating capacity reserved for them.
        if !starving {
            let others_starving = admission
                .iter()
                .filter(|(id, s)| **id != client_id && s.deficit >= Self::STARVATION_DEFICIT)
                .count();
            let free_after = cap.saturating_sub(active.saturating_add(n));
            if others_starving > free_after {
                return Err(reject(admission, 1));
            }
        }
        Ok(())
    }

    /// Records a successful identified admission: the client's deficit is
    /// paid off and its in-flight slots are tracked for fair-share checks.
    fn record_admission(
        core: &mut Core,
        client: Option<(ClientId, Priority)>,
        slots: std::ops::Range<usize>,
    ) {
        let Some((client_id, priority)) = client else { return };
        let entry = core.admission.entry(client_id).or_default();
        entry.deficit = 0;
        entry.weight = priority.weight();
        entry.admitted.extend(slots);
    }

    /// The slot index of `update`, if it could ever have been admitted.
    pub(crate) fn index_of(&self, update: UpdateId) -> Option<usize> {
        update.0.checked_sub(self.config.first_update_number).map(|i| i as usize)
    }

    /// Keyed lookup distinguishing "evicted" from "never admitted".
    pub(crate) fn lookup<'c>(
        &self,
        core: &'c Core,
        update: UpdateId,
    ) -> Result<&'c Slot, LookupError> {
        match self.index_of(update) {
            Some(idx) if idx < core.total() => {
                core.slot(idx).ok_or(LookupError::SlotEvicted(update))
            }
            _ => Err(LookupError::UnknownUpdate(update)),
        }
    }

    /// The one way into the engine for a caller: takes the core lock, so
    /// whatever the caller does with the guard lands between two sequencer
    /// actions. `std` mutexes barge — a thread in
    /// [`drive_until`](Self::drive_until) re-locks in a loop and would win
    /// against a parked caller for many actions in a row — so the caller
    /// announces itself first and the driver stands back until every
    /// announced caller holds (or has held) the lock: a caller is served
    /// before the sequencer's next action, or the one after if it announces
    /// itself just as a driver locks.
    pub(crate) fn enter(&self) -> MutexGuard<'_, Core> {
        self.entering.fetch_add(1, Ordering::SeqCst);
        let core = lock(&self.core);
        self.entering.fetch_sub(1, Ordering::SeqCst);
        core
    }

    /// Admits `ops` with consecutive priority numbers into the slot table
    /// and the live set, returning their ids. Shared by the public submit
    /// path, recovery replay and the replicated fold (which is why it does
    /// not build handles or touch the WAL).
    pub(crate) fn admit(&self, core: &mut Core, ops: Vec<InitialOp>) -> Vec<UpdateId> {
        let base = core.total();
        let mut out = Vec::with_capacity(ops.len());
        for (i, op) in ops.into_iter().enumerate() {
            let id = UpdateId(self.config.first_update_number + (base + i) as u64);
            let exec = UpdateExecution::new(id, op);
            core.slots.push_back(Slot::new(exec, None));
            core.live.insert(base + i);
            out.push(id);
        }
        core.active += out.len();
        core.metrics.workload_size += out.len();
        out
    }

    /// Replays a WAL tail after a crash: each record is driven to its action
    /// stamp (re-executing the intervening chase work through the
    /// deterministic sequencer) and then injected exactly where the original
    /// call landed — directly, bypassing the public API, so nothing is
    /// re-appended to the log.
    fn replay(&self, tail: impl Iterator<Item = WalRecord>) -> Result<(), RecoveryError> {
        let mut core = lock(&self.core);
        for record in tail {
            match record {
                WalRecord::Header { .. } => {
                    return Err(RecoveryError::Corrupt("header record mid-log".into()));
                }
                WalRecord::Submit { first, stamp, ops } => {
                    self.drive_to_stamp(&mut core, stamp)?;
                    let expected = self.config.first_update_number + core.total() as u64;
                    if first != expected {
                        return Err(RecoveryError::Replay(format!(
                            "submission logged as u{first} would be admitted as u{expected}"
                        )));
                    }
                    self.admit(&mut core, ops);
                }
                WalRecord::Answer { token, stamp, decision, origin } => {
                    self.drive_to_stamp(&mut core, stamp)?;
                    let Some(entry) = core.pending.remove(&token) else {
                        return Err(RecoveryError::Replay(format!(
                            "answer for token {token} found nothing pending"
                        )));
                    };
                    // A decision the original run rejected as invalid is
                    // rejected here too (deterministically), restoring the
                    // pending entry — its retry records follow in the log.
                    // System answers replay from the log exactly like human
                    // ones: nothing sweeps during replay, so an escalation is
                    // never re-decided.
                    let _ =
                        self.apply_answer(&mut core, FrontierToken(token), entry, decision, origin);
                }
            }
            if let Some(e) = &core.error {
                return Err(RecoveryError::Replay(format!("engine failed during replay: {e}")));
            }
        }
        Ok(())
    }

    /// Runs the sequencer until the durable action counter reaches `stamp`.
    /// Falling idle, the gate closing (which takes no action) or moving past
    /// the stamp all mean the log does not describe this engine's history.
    fn drive_to_stamp(&self, core: &mut Core, stamp: u64) -> Result<(), RecoveryError> {
        loop {
            let now = core.durable.as_ref().expect("replay requires a durable engine").actions;
            if now == stamp {
                return Ok(());
            }
            if now > stamp {
                return Err(RecoveryError::Replay(format!(
                    "overshot action stamp {stamp} (counter is at {now})"
                )));
            }
            let stuck = match self.det_action(core) {
                Ok(DetProgress::Acted) => continue,
                Ok(DetProgress::AwaitingAnswer) => "blocked on an unanswered frontier",
                Ok(DetProgress::Idle) => "sequencer idle",
                Err(e) => {
                    return Err(RecoveryError::Replay(format!("chase error during replay: {e}")));
                }
            };
            return Err(RecoveryError::Replay(format!(
                "{stuck} {} action(s) before stamp {stamp}",
                stamp - now
            )));
        }
    }

    /// Fail-stops the engine: records the first fatal error and wakes every
    /// waiter. The caller holds the core lock, so a caller entering after it
    /// sees the error.
    pub(crate) fn fail(&self, core: &mut Core, e: ChaseError) {
        core.error.get_or_insert(e);
        self.stop.store(true, Ordering::SeqCst);
        self.signal.bump();
    }

    /// Writes a snapshot (and restarts the log) if the engine is durable, not
    /// replaying, and enough records accumulated since the last one. Called
    /// at quiescence — every retained slot is terminal and the database is
    /// stable.
    pub(crate) fn maybe_snapshot(&self, core: &mut Core) {
        let Some(d) = &core.durable else { return };
        if d.replaying || d.records - d.last_snapshot < d.config.snapshot_every {
            return;
        }
        if let Err(e) = Self::write_snapshot(core) {
            self.fail(core, ChaseError::InvalidDecision(format!("snapshot write failed: {e}")));
        }
    }

    fn write_snapshot(core: &mut Core) -> Result<(), youtopia_storage::WalError> {
        let Core { db, slots, base, metrics, next_token, durable, .. } = core;
        let d = durable.as_mut().expect("snapshot on a durable engine");
        // The log being superseded must be fully on disk before the snapshot
        // that claims to cover it: a crash between the two may fall back to
        // replaying the old log, whose tail would otherwise be missing.
        d.wal.flush()?;
        let records = d.records;
        let summaries = slots
            .iter()
            .map(|slot| SlotSummary {
                id: slot.exec.id().0,
                initial: slot.exec.initial().clone(),
                stats: slot.exec.stats(),
                terminated: slot.exec.is_terminated(),
                failed: slot.failed.clone(),
            })
            .collect();
        let meta = SnapshotMeta {
            fingerprint: d.fingerprint,
            records,
            actions: d.actions,
            next_token: *next_token,
            slot_base: *base as u64,
            slots: summaries,
            metrics: metrics.clone(),
        };
        write_file_atomic(&d.config.snapshot_path(), &encode_snapshot(&meta, db))?;
        // Restart the log under a fresh header whose base records how much
        // the snapshot now covers. Written to a sibling and renamed, so a
        // crash leaves either the old full log (its surplus head is skipped
        // at recovery) or the new empty one — never a torn file.
        let wal_path = d.config.wal_path();
        let tmp = wal_path.with_extension("log.tmp");
        let mut fresh = WalWriter::create(&tmp)?;
        fresh.append(&encode_header(d.fingerprint, records))?;
        let len = fresh.position();
        drop(fresh);
        std::fs::rename(&tmp, &wal_path)?;
        let mut writer = WalWriter::open_append(&wal_path, len)?;
        writer.set_group_commit(d.config.group_commit);
        d.wal = writer;
        d.last_snapshot = records;
        Ok(())
    }

    /// Appends one record to the write-ahead log (no-op on a plain engine),
    /// stamped with the action count it is logged at. The caller holds the
    /// core lock, so the stamp is the point between two actions where replay
    /// must inject the record.
    fn log_record(
        core: &mut Core,
        encode: impl FnOnce(u64) -> Vec<u8>,
    ) -> Result<(), youtopia_storage::WalError> {
        let Some(d) = &mut core.durable else { return Ok(()) };
        d.wal.append(&encode(d.actions))?;
        d.records += 1;
        Ok(())
    }

    /// Publishes the slot's pending frontier request under a fresh token,
    /// inside the sequencer action that counted it. Idempotent while a token
    /// is outstanding.
    pub(crate) fn publish_frontier(&self, core: &mut Core, idx: usize) {
        let token = FrontierToken(core.next_token);
        let published_at = core.durable.as_ref().map_or(0, |d| d.actions);
        let slot = core.slot_mut(idx).expect("publishing a retained slot");
        if slot.published.is_some() {
            return;
        }
        let request = slot.exec.pending_frontier().expect("state is AwaitingFrontier").clone();
        slot.published = Some(token);
        let update = slot.exec.id();
        core.next_token += 1;
        core.unanswered += 1;
        core.pending.insert(
            token.0,
            PendingEntry { update, slot: idx, request, published_at, age: 0, escalations: 0 },
        );
        self.signal.bump();
    }

    /// Applies an answered decision to the owning slot, between two sequencer
    /// actions (the caller [`enter`](Self::enter)ed). The pending entry has
    /// already been removed by the caller; on a rejected (invalid) decision it
    /// is restored under the same token so the user can retry.
    pub(crate) fn apply_answer(
        &self,
        core: &mut Core,
        token: FrontierToken,
        entry: PendingEntry,
        decision: FrontierDecision,
        origin: ResolutionOrigin,
    ) -> Result<AnswerOutcome, ChaseError> {
        let idx = entry.slot;
        let Some(slot) = core.slot_mut(idx) else { return Ok(AnswerOutcome::Stale) };
        if slot.published != Some(token) || slot.exec.state() != UpdateState::AwaitingFrontier {
            return Ok(AnswerOutcome::Stale);
        }
        let id = slot.exec.id();
        match slot.exec.resolve_frontier(&self.mappings, decision) {
            Ok(reads) => {
                core.metrics.frontier_ops += 1;
                if origin == ResolutionOrigin::System {
                    // Replay-stable (recounted from the WAL's origin bytes),
                    // so it survives snapshot folding — see the snapshot
                    // codec.
                    core.metrics.auto_resolutions += 1;
                }
                // Recorded under the same lock hold as the resolution: a
                // write committing later is validated against these reads.
                if !core.solo() {
                    core.validation.record_reads(&core.db, &self.mappings, id, &reads);
                }
            }
            Err(e) => {
                // The execution restored its request; re-list it under the
                // same token so the user can retry.
                core.pending.insert(token.0, entry);
                return Err(e);
            }
        }
        core.slot_mut(idx).expect("answered slot is retained").published = None;
        core.unanswered -= 1;
        self.signal.bump();
        Ok(AnswerOutcome::Applied)
    }
}

/// A long-lived cooperative update-exchange service. See the module docs for
/// the execution model; construct with [`EngineBuilder`](crate::EngineBuilder),
/// feed it with [`submit`](Self::submit), answer its
/// [`pending_frontiers`](Self::pending_frontiers) via [`answer`](Self::answer)
/// (or a [`ResolverPump`]), and read committed state with [`read`](Self::read).
pub struct ExchangeEngine {
    pub(crate) shared: Arc<EngineShared>,
}

impl ExchangeEngine {
    /// Creates an engine over `db` and `mappings`. It runs nothing on its
    /// own: callers drive it (see the module docs).
    pub(crate) fn new(db: Database, mappings: MappingSet, config: EngineConfig) -> ExchangeEngine {
        let mut core = Core::new(db, &config, None);
        // A replica refolds from the database it was built on.
        core.replica = config.replica.map(|node| {
            crate::replicate::ReplicationState::new(node, serialize_database(&core.db))
        });
        ExchangeEngine { shared: Self::make_shared(mappings, config, core) }
    }

    /// Starts a **durable** engine under `durability.dir`: every submission
    /// and answer is appended (checksummed and fsynced) to a write-ahead log
    /// *before* its effects become visible, and quiescence points
    /// periodically fold the log into a snapshot. A crashed durable engine is
    /// brought back byte-identically with [`recover`](Self::recover).
    ///
    /// Either frontier policy is durable: recovery re-executes the unlogged
    /// chase work between logged events, and under both the schedule is a
    /// function of the event log — callers enter between two actions, so an
    /// answer's stamp names the point where the skipping policy let it in.
    pub(crate) fn new_durable(
        db: Database,
        mappings: MappingSet,
        config: EngineConfig,
        durability: DurabilityConfig,
    ) -> Result<ExchangeEngine, RecoveryError> {
        if config.replica.is_some() {
            return Err(RecoveryError::ReplicatedUnsupported);
        }
        std::fs::create_dir_all(&durability.dir)?;
        let fingerprint = config_fingerprint(&config, &mappings);
        // Snapshot 0 goes down before the engine exists: recovery never needs
        // the pre-engine database, only "newest snapshot + log tail".
        let meta = SnapshotMeta {
            fingerprint,
            records: 0,
            actions: 0,
            next_token: 0,
            slot_base: 0,
            slots: Vec::new(),
            metrics: RunMetrics::default(),
        };
        write_file_atomic(&durability.snapshot_path(), &encode_snapshot(&meta, &db))?;
        let mut wal = WalWriter::create(&durability.wal_path())?;
        // The header is appended (and synced) before the window opens: a log
        // file without a durable header is indistinguishable from corruption.
        wal.append(&encode_header(fingerprint, 0))?;
        wal.set_group_commit(durability.group_commit);
        let durable = DurableEngineState {
            config: durability,
            fingerprint,
            wal,
            records: 0,
            last_snapshot: 0,
            actions: 0,
            replaying: false,
        };
        let core = Core::new(db, &config, Some(durable));
        Ok(ExchangeEngine { shared: Self::make_shared(mappings, config, core) })
    }

    /// Recovers a durable engine from `durability.dir`: loads the newest
    /// snapshot, then deterministically replays the write-ahead log tail —
    /// re-admitting logged submissions under their original ids and
    /// re-applying logged answers at their original interleaving points. The
    /// recovered engine's database, metrics and per-update statistics are
    /// byte-identical to the crashed engine's at its last acknowledged
    /// record; work that was mid-chase at the crash resumes where replay
    /// leaves it. `config` and `mappings` must match the original engine's
    /// (checked via fingerprint).
    pub(crate) fn recover(
        mappings: MappingSet,
        config: EngineConfig,
        durability: DurabilityConfig,
    ) -> Result<ExchangeEngine, RecoveryError> {
        if config.replica.is_some() {
            return Err(RecoveryError::ReplicatedUnsupported);
        }
        let fingerprint = config_fingerprint(&config, &mappings);
        let bytes = std::fs::read(durability.snapshot_path())?;
        let (meta, db) = decode_snapshot(&bytes)?;
        if meta.fingerprint != fingerprint {
            return Err(RecoveryError::ConfigMismatch {
                expected: fingerprint,
                found: meta.fingerprint,
            });
        }
        let wal = read_wal(&durability.wal_path())?;
        let mut records = wal.records.iter();
        let Some(first) = records.next() else {
            return Err(RecoveryError::Corrupt("log has no header record".into()));
        };
        let base_records = match decode_record(first)? {
            WalRecord::Header { fingerprint: found, base_records } => {
                if found != fingerprint {
                    return Err(RecoveryError::ConfigMismatch { expected: fingerprint, found });
                }
                base_records
            }
            _ => return Err(RecoveryError::Corrupt("log does not start with a header".into())),
        };
        if base_records > meta.records {
            return Err(RecoveryError::Corrupt(format!(
                "snapshot covers {} records but the log starts at {base_records}",
                meta.records
            )));
        }
        let tail: Vec<WalRecord> =
            records.map(|r| decode_record(r)).collect::<Result<Vec<_>, _>>()?;
        // A crash between snapshot rename and log restart leaves records the
        // snapshot already covers at the head of the log; skip them.
        let skip = (meta.records - base_records) as usize;
        if skip > tail.len() {
            return Err(RecoveryError::Corrupt(format!(
                "snapshot claims {skip} log record(s) past the header but only {} exist",
                tail.len()
            )));
        }
        let total_records = base_records + tail.len() as u64;

        // Rebuild the slot table. Snapshots are taken at quiescence, so every
        // summarised slot is terminal — inactive, nothing to put in the live set.
        let mut slots = VecDeque::with_capacity(meta.slots.len());
        for summary in &meta.slots {
            if !summary.terminated && summary.failed.is_none() {
                return Err(RecoveryError::Corrupt(format!(
                    "snapshot slot u{} is not terminal",
                    summary.id
                )));
            }
            let id = UpdateId(summary.id);
            let exec = UpdateExecution::restored(
                id,
                summary.initial.clone(),
                summary.stats,
                summary.terminated,
            );
            slots.push_back(Slot::new(exec, summary.failed.clone()));
        }
        // Reopen the log for appends at its validated length (discarding any
        // torn tail record) *before* replay: replay injects records directly
        // and never re-appends, so the write position is already final.
        let mut writer = WalWriter::open_append(&durability.wal_path(), wal.valid_len)?;
        writer.set_group_commit(durability.group_commit);
        let durable = DurableEngineState {
            config: durability,
            fingerprint,
            wal: writer,
            records: total_records,
            last_snapshot: meta.records,
            actions: meta.actions,
            replaying: true,
        };
        let mut core = Core::new(db, &config, Some(durable));
        core.slots = slots;
        core.base = meta.slot_base as usize;
        core.next_token = meta.next_token;
        core.metrics = meta.metrics;
        let shared = Self::make_shared(mappings, config, core);
        shared.replay(tail.into_iter().skip(skip))?;
        lock(&shared.core).durable.as_mut().expect("recovered engine is durable").replaying = false;
        Ok(ExchangeEngine { shared })
    }

    fn make_shared(mappings: MappingSet, config: EngineConfig, core: Core) -> Arc<EngineShared> {
        Arc::new(EngineShared {
            mappings: Arc::new(mappings),
            core: Mutex::new(core),
            entering: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            signal: Signal::new(),
            config,
        })
    }

    /// Submits one update. See [`submit_batch`](Self::submit_batch).
    pub fn submit(&self, op: InitialOp) -> Result<UpdateHandle, SubmitError> {
        self.submit_batch(vec![op]).map(|mut handles| handles.pop().expect("one handle"))
    }

    /// Submits one update on behalf of an identified client at a priority —
    /// see [`submit_batch_as`](Self::submit_batch_as).
    pub fn submit_as(
        &self,
        op: InitialOp,
        client: ClientId,
        priority: Priority,
    ) -> Result<UpdateHandle, SubmitError> {
        self.submit_batch_as(vec![op], Some((client, priority)))
            .map(|mut handles| handles.pop().expect("one handle"))
    }

    /// Submits a batch of updates atomically: all of them receive consecutive
    /// priority numbers and become visible to the scheduler together, so a
    /// batch submitted to an idle deterministic engine chases exactly like the
    /// same batch under [`ConcurrentRun`](crate::ConcurrentRun). Fails with
    /// [`SubmitError::Saturated`] when the admission cap would be exceeded
    /// (nothing is admitted), [`SubmitError::Invalid`] when an operation
    /// does not fit the catalog (nothing is logged or admitted) and
    /// [`SubmitError::ShutDown`] after shutdown or a fatal error.
    ///
    /// **Backoff contract:** a `Saturated` rejection carries a typed
    /// [`RetryAfter`] hint — the number of in-flight completions the caller
    /// should wait for before retrying. A retry after that many terminations
    /// is admitted unless competing submissions claimed the capacity first,
    /// in which case the fair-share machinery of
    /// [`submit_batch_as`](Self::submit_batch_as) guarantees identified
    /// clients eventual admission. Anonymous batches (this method) see only
    /// the global
    /// [`EngineBuilder::admission_cap`](crate::EngineBuilder::admission_cap).
    pub fn submit_batch(&self, ops: Vec<InitialOp>) -> Result<Vec<UpdateHandle>, SubmitError> {
        self.submit_batch_as(ops, None)
    }

    /// [`submit_batch`](Self::submit_batch) on behalf of an identified
    /// client. Identified submissions get per-client fair-share admission on
    /// top of the global cap:
    ///
    /// * while several clients contend, each is limited to a **weighted
    ///   share** of the cap (`cap · weight / Σweights`, never below one
    ///   slot), so one greedy client cannot occupy the whole engine;
    /// * every rejection grows the client's **deficit** by its
    ///   [`Priority::weight`]; once the deficit reaches the starvation bound,
    ///   freed capacity is reserved for that client (others are refused with
    ///   a `retry_after` of one completion) until it is admitted — so a
    ///   persistent low-priority client is guaranteed eventual admission,
    ///   just later than a high-priority one.
    ///
    /// Client identity is admission-only: update numbers, scheduling and
    /// chase semantics are identical for every client, and `None` reproduces
    /// the anonymous [`submit_batch`](Self::submit_batch) path exactly.
    pub fn submit_batch_as(
        &self,
        ops: Vec<InitialOp>,
        client: Option<(ClientId, Priority)>,
    ) -> Result<Vec<UpdateHandle>, SubmitError> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        let shared = &self.shared;
        // Admission happens between two sequencer actions: the batch becomes
        // live at one point of the schedule, and on a durable engine the WAL
        // record's action stamp names that point for replay. The stop flag is
        // read under the lock: an engine that fail-stopped while this caller
        // waited to enter admits nothing.
        let mut core = shared.enter();
        if shared.stop.load(Ordering::SeqCst) {
            return Err(SubmitError::ShutDown);
        }
        if shared.config.replica.is_some() {
            return Err(SubmitError::Replicated);
        }
        for op in &ops {
            core.db.check_write(&op.to_write()).map_err(SubmitError::Invalid)?;
        }
        shared.check_admission(&mut core, client, ops.len())?;
        let base = core.total();
        // Logged before any effect is visible: a submission the caller saw
        // admitted is in the log, and one that failed to log was never
        // admitted.
        let first = shared.config.first_update_number + base as u64;
        if let Err(e) =
            EngineShared::log_record(&mut core, |stamp| encode_submit(first, stamp, &ops))
        {
            // Nothing was admitted, but the log is now in an unknown state
            // (under group commit, earlier acknowledged records of this
            // window were never synced): fail-stop, as `answer` does.
            shared.fail(&mut core, ChaseError::InvalidDecision(format!("durability failure: {e}")));
            return Err(SubmitError::Durability(e.to_string()));
        }
        let count = ops.len();
        let ids = shared.admit(&mut core, ops);
        EngineShared::record_admission(&mut core, client, base..base + count);
        let first_new = core.slots.len() - count;
        let handles = ids
            .into_iter()
            .zip(core.slots.range_mut(first_new..))
            .map(|(id, slot)| UpdateHandle {
                id,
                detached: Arc::clone(slot.detached.insert(Arc::default())),
                shared: Arc::downgrade(shared),
            })
            .collect();
        drop(core);
        shared.signal.bump();
        Ok(handles)
    }

    /// The outstanding frontier requests. Each entry can be resumed with
    /// [`answer`](Self::answer); entries disappear when answered or when the
    /// owning update aborts (the restart publishes a new token). Entries
    /// carry their lifecycle state — publish stamp, sweep age, escalation
    /// count — and are listed most-escalated first (re-asked requests jump
    /// the queue; ties keep publish order), which is how
    /// [`EscalationPolicy::ReAsk`] raises a request's priority in a
    /// pull-based world.
    pub fn pending_frontiers(&self) -> Vec<PendingFrontier> {
        let mut out: Vec<PendingFrontier> = self
            .shared
            .enter()
            .pending
            .iter()
            .map(|(token, entry)| PendingFrontier {
                token: FrontierToken(*token),
                update: entry.update,
                request: entry.request.clone(),
                published_at: entry.published_at,
                age: entry.age,
                escalations: entry.escalations,
            })
            .collect();
        out.sort_by(|a, b| b.escalations.cmp(&a.escalations).then(a.token.cmp(&b.token)));
        out
    }

    /// Answers one outstanding frontier request, resuming the owning update.
    /// A token that no longer names a live request yields
    /// [`AnswerOutcome::Stale`] (harmless); an invalid decision is an error
    /// and the request stays pending under the same token for a retry.
    pub fn answer(
        &self,
        token: FrontierToken,
        decision: FrontierDecision,
    ) -> Result<AnswerOutcome, ChaseError> {
        self.answer_with_origin(token, decision, ResolutionOrigin::Human)
    }

    /// [`answer`](Self::answer) with an explicit [`ResolutionOrigin`]. The
    /// engine's own sweeper stamps its auto-resolutions
    /// [`ResolutionOrigin::System`] through this path; it is public so
    /// log-replay tooling (e.g. a harness re-feeding a WAL tail) can
    /// reproduce a system answer byte-identically instead of re-deciding it.
    pub fn answer_with_origin(
        &self,
        token: FrontierToken,
        decision: FrontierDecision,
        origin: ResolutionOrigin,
    ) -> Result<AnswerOutcome, ChaseError> {
        let shared = &self.shared;
        // A replica records the decision as a replicated event (so peers
        // replay it instead of re-asking) and continues the canonical fold.
        if shared.config.replica.is_some() {
            return crate::replicate::answer_replicated(self, token, decision, origin);
        }
        // The core is held across check → remove → append → apply: the
        // decision lands between two actions, and on a durable engine the
        // log order is the order decisions' effects landed, the stamp pinning
        // the interleaving point.
        let mut core = shared.enter();
        // Fail-stop: a failed engine (a WAL append or sync error above all)
        // takes no further answers — its log no longer matches its history.
        if let Some(e) = &core.error {
            return Err(e.clone());
        }
        let Some(entry) = core.pending.remove(&token.0) else { return Ok(AnswerOutcome::Stale) };
        if let Err(e) = EngineShared::log_record(&mut core, |stamp| {
            encode_answer(token.0, stamp, &decision, origin)
        }) {
            // Restore the entry so the request is not silently lost, then
            // fail the engine: its log no longer matches its history.
            core.pending.insert(token.0, entry);
            let err = ChaseError::InvalidDecision(format!("durability failure: {e}"));
            shared.fail(&mut core, err.clone());
            return Err(err);
        }
        shared.apply_answer(&mut core, token, entry, decision, origin)
    }

    /// One pass of the frontier lifecycle sweeper: every pending request ages
    /// by one tick, and requests whose age reached the
    /// [`EngineBuilder::escalation`](crate::EngineBuilder::escalation)
    /// deadline are escalated — re-published at higher priority (`ReAsk`) or
    /// answered by the system (`AutoResolve`,
    /// WAL-logged with [`ResolutionOrigin::System`] exactly like a human
    /// answer, so recovery replays the outcome instead of re-deciding it).
    ///
    /// The sweep schedule is caller-owned, like answering itself: a
    /// [`ResolverPump`] sweeps once per drain pass, and open-loop harnesses
    /// sweep once per virtual tick. Recovery replay never sweeps
    /// (escalations come from the log there), and sweeping is a no-op under
    /// [`EscalationPolicy::Wait`] beyond the aging.
    pub fn sweep(&self) -> SweepReport {
        let shared = &self.shared;
        let mut report = SweepReport::default();
        let policy = shared.config.escalation;
        // Age every entry and collect the expired ones; the auto-resolutions
        // enter again, one answer at a time.
        let mut auto: Vec<(u64, FrontierDecision)> = Vec::new();
        {
            let mut core = shared.enter();
            for (token, entry) in core.pending.iter_mut() {
                entry.age += 1;
                report.aged += 1;
                match policy {
                    EscalationPolicy::Wait => {}
                    EscalationPolicy::ReAsk { after } => {
                        if entry.age >= after.max(1) {
                            entry.age = 0;
                            entry.escalations += 1;
                            report.re_asked.push(FrontierToken(*token));
                        }
                    }
                    EscalationPolicy::AutoResolve { after, decision } => {
                        if entry.age >= after.max(1) {
                            // Reset before removal: if the system decision is
                            // rejected as invalid, the entry is restored
                            // as-is and gets a full deadline before the next
                            // attempt instead of re-escalating every sweep.
                            entry.age = 0;
                            entry.escalations += 1;
                            auto.push((*token, decision.decide(&entry.request)));
                        }
                    }
                }
            }
            core.metrics.re_asks += report.re_asked.len();
        }
        if !report.re_asked.is_empty() {
            // Re-publication is a notification event: waiters and pumps see
            // the escalated entries at the head of pending_frontiers().
            shared.signal.bump();
        }
        for (token, decision) in auto {
            match self.answer_with_origin(FrontierToken(token), decision, ResolutionOrigin::System)
            {
                Ok(AnswerOutcome::Applied) => report.auto_resolved.push(FrontierToken(token)),
                // Stale (answered by a human in between, or the owner
                // aborted) — nothing to do.
                Ok(AnswerOutcome::Stale) => {}
                // An invalid system decision: the entry was restored under
                // the same token with a fresh deadline. The next expiry
                // retries (requests evolve as neighbours commit, so a later
                // attempt can succeed where this one could not).
                Err(_) => {}
            }
        }
        report
    }

    /// Runs the sequencer on the calling thread until it goes idle or its
    /// gate closes on an unanswered frontier, then returns — unlike
    /// [`wait_quiescent`](Self::wait_quiescent), it never sleeps, so
    /// open-loop harnesses can interleave driving, selective answering
    /// ([`pending_frontiers`](Self::pending_frontiers) /
    /// [`answer`](Self::answer)) and [`sweep`](Self::sweep) on one thread.
    /// A fatal engine error is reported.
    pub fn drive(&self) -> Result<(), ChaseError> {
        self.shared.drive_until(|_| false)?;
        match self.error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Runs a closure over the last-committed database state, between two
    /// sequencer actions: it waits for the action in flight, and no action
    /// runs until it returns, so keep it short. The closure must not call
    /// any method of this engine or of its handles — each of them waits for
    /// the lock the closure is holding, and deadlocks.
    pub fn read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.shared.enter().db)
    }

    /// The mapping set the engine chases against (fixed at construction).
    pub fn mappings(&self) -> &MappingSet {
        &self.shared.mappings
    }

    /// The metrics accumulated since the engine started (never reset;
    /// `wall_time` is not tracked by the engine — it belongs to whoever owns
    /// the session).
    pub fn metrics(&self) -> RunMetrics {
        self.shared.enter().metrics.clone()
    }

    /// Per-update execution statistics of every **retained** update, in
    /// submission order. With a finite
    /// [`EngineBuilder::retention_horizon`](crate::EngineBuilder::retention_horizon),
    /// records evicted by compaction are absent — use
    /// [`update_stats_of`](Self::update_stats_of) to distinguish evicted from
    /// unknown ids.
    pub fn update_stats(&self) -> Vec<(UpdateId, UpdateStats)> {
        let core = self.shared.enter();
        core.slots.iter().map(|slot| (slot.exec.id(), slot.exec.stats())).collect()
    }

    /// The execution statistics of one update (index lookup — prefer this
    /// over scanning [`Self::update_stats`] on a long-lived engine). Fails
    /// with [`LookupError::SlotEvicted`] once compaction has dropped the
    /// record, [`LookupError::UnknownUpdate`] for an id never admitted.
    pub fn update_stats_of(&self, update: UpdateId) -> Result<UpdateStats, LookupError> {
        Ok(self.shared.lookup(&self.shared.enter(), update)?.exec.stats())
    }

    /// The completion report of one update: `Ok(Some(..))` once it has
    /// terminated, `Ok(None)` while it is still in flight (or failed), and a
    /// [`LookupError`] when the id is unknown or its record was evicted. An
    /// [`UpdateHandle`] keeps answering after eviction; this keyed lookup is
    /// for callers holding only the id.
    pub fn update_report_of(&self, update: UpdateId) -> Result<Option<UpdateReport>, LookupError> {
        let core = self.shared.enter();
        let slot = self.shared.lookup(&core, update)?;
        Ok(slot.exec.is_terminated().then(|| UpdateReport::for_execution(&slot.exec)))
    }

    /// The priority number the next submission will receive.
    pub fn next_update_id(&self) -> UpdateId {
        UpdateId(self.shared.config.first_update_number + self.shared.enter().total() as u64)
    }

    /// Number of update records currently retained in the slot table (grows
    /// with submissions, shrinks when compaction evicts terminal records past
    /// the retention horizon).
    pub fn retained_slots(&self) -> usize {
        self.shared.enter().slots.len()
    }

    /// Number of in-flight (non-terminated, non-failed) updates.
    pub fn active_updates(&self) -> usize {
        self.shared.enter().active
    }

    /// Whether nothing is running, queued or awaiting an answer. Quiescence
    /// is stable: with no in-flight work and no pending frontiers, only a new
    /// submission can create activity (an update leaves the active count only
    /// after everything its last action revived has entered it).
    pub fn is_quiescent(&self) -> bool {
        self.shared.enter().is_quiescent()
    }

    /// The fatal error that stopped the engine, if any (the global
    /// [`EngineBuilder::max_total_steps`](crate::EngineBuilder::max_total_steps)
    /// valve, or a poisoned decision).
    pub fn error(&self) -> Option<ChaseError> {
        self.shared.enter().error.clone()
    }

    /// Drives the engine until it is quiescent, returning the fatal error if
    /// it failed instead. While the gate is closed on an unanswered frontier
    /// it sleeps until something moves, so someone must be answering
    /// meanwhile — another thread, or a [`ResolverPump`] instead of this
    /// call: an unanswered frontier never becomes quiescent.
    pub fn wait_quiescent(&self) -> Result<(), ChaseError> {
        loop {
            // Generation first: an answer landing after this capture moves
            // the generation past it, and one landing before it is seen by
            // the drive.
            let gen = self.shared.signal.current();
            self.drive()?;
            if self.is_quiescent() {
                return Ok(());
            }
            self.shared.signal.wait_past(gen);
        }
    }

    /// Stops the engine (idempotent): a caller driving it returns at its
    /// next action boundary, and every waiter wakes.
    fn halt(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.signal.bump();
    }

    /// Shuts the engine down and returns the database, mappings and
    /// accumulated metrics. In-flight updates are left wherever their last
    /// committed step put them (partial chases are *not* rolled back — check
    /// [`is_quiescent`](Self::is_quiescent) first if that matters).
    pub fn shutdown(self) -> (Database, MappingSet, RunMetrics) {
        self.halt();
        // Taken out between two actions: a handle's `wait()` still driving
        // on another thread returns at its next lock, on the stop flag.
        let mut core = self.shared.enter();
        // A clean shutdown is a durability point: close any open group-commit
        // window so the log on disk covers everything that was logged.
        if let Some(d) = &mut core.durable {
            let _ = d.wal.flush();
        }
        let db = std::mem::take(&mut core.db);
        let metrics = std::mem::take(&mut core.metrics);
        drop(core);
        let mut mappings = Arc::clone(&self.shared.mappings);
        drop(self);
        let mappings = match Arc::get_mut(&mut mappings) {
            Some(only) => std::mem::take(only),
            // That waiter still holds the engine: copy the set rather than
            // wait for it to let go.
            None => MappingSet::clone(&mappings),
        };
        (db, mappings, metrics)
    }
}

impl Drop for ExchangeEngine {
    fn drop(&mut self) {
        self.halt();
    }
}

impl std::fmt::Debug for ExchangeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExchangeEngine")
            .field("active", &self.active_updates())
            .field("pending_frontiers", &self.shared.enter().pending.len())
            .finish_non_exhaustive()
    }
}

/// A ticket for one submitted update. Clonable; outlives the engine safely
/// (methods needing the engine report shutdown instead of blocking forever).
///
/// With a finite
/// [`EngineBuilder::retention_horizon`](crate::EngineBuilder::retention_horizon),
/// the engine's keyed lookups ([`ExchangeEngine::update_stats_of`],
/// [`ExchangeEngine::update_report_of`]) report
/// [`LookupError::SlotEvicted`] once compaction drops a terminated record,
/// but a live handle keeps answering [`status`](Self::status) /
/// [`stats`](Self::stats) / [`report`](Self::report) — compaction, and the
/// engine's end, leave the record's last view with the handles still
/// holding it. Retention bounds the *engine's* memory, not a handle the
/// caller chose to keep.
#[derive(Clone)]
pub struct UpdateHandle {
    id: UpdateId,
    shared: Weak<EngineShared>,
    detached: Arc<OnceLock<SlotView>>,
}

impl UpdateHandle {
    /// The update's priority number.
    pub fn id(&self) -> UpdateId {
        self.id
    }

    /// Where the update currently stands. A `Terminated` status is
    /// definitive only once the engine is quiescent: under either frontier
    /// policy, a still-running lower-numbered update can conflict with and
    /// revive it.
    pub fn status(&self) -> UpdateStatus {
        self.view().status
    }

    /// Execution counters so far.
    pub fn stats(&self) -> UpdateStats {
        self.view().report.stats
    }

    /// The completion report, once the update has terminated — assembled
    /// through the same [`UpdateReport::for_execution`] path every runner
    /// uses.
    pub fn report(&self) -> Option<UpdateReport> {
        let view = self.view();
        (view.status == UpdateStatus::Terminated).then_some(view.report)
    }

    /// The update's terminal failure, if it exceeded its step budget.
    pub fn error(&self) -> Option<ChaseError> {
        self.view().failed
    }

    /// Drives the engine until the update terminates (returning its report)
    /// or fails (returning the error — the update's own budget error, or the
    /// engine's fatal error), and reports a shutdown instead of blocking
    /// forever. While the gate is closed on an unanswered frontier it sleeps
    /// until something moves, so someone must be answering meanwhile (another
    /// thread, or a [`ResolverPump`] instead of this call).
    pub fn wait(&self) -> Result<UpdateReport, ChaseError> {
        let shut_down = || {
            ChaseError::InvalidDecision(format!(
                "engine shut down while update {} was in flight",
                self.id
            ))
        };
        loop {
            let Some(shared) = self.shared.upgrade() else {
                return self.view().outcome().unwrap_or_else(|| Err(shut_down()));
            };
            // Generation first, then the checks and the drive: an event that
            // would end the wait (the update retiring on another driver, an
            // answer, a shutdown) moves the generation past this capture or
            // is visible below. No lost wake-ups.
            let gen = shared.signal.current();
            {
                let core = shared.enter();
                if let Some(outcome) = self.view_in(&shared, &core).outcome() {
                    return outcome;
                }
                if let Some(e) = &core.error {
                    return Err(e.clone());
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return Err(shut_down());
                }
            }
            // Between actions, not only once the engine goes idle: with
            // other updates streaming in it may never do so.
            shared.drive_until(|core| self.view_in(&shared, core).outcome().is_some())?;
            shared.signal.wait_past(gen);
        }
    }

    /// The update as it stands now, read between two actions.
    fn view(&self) -> SlotView {
        match self.shared.upgrade() {
            Some(shared) => self.view_in(&shared, &shared.enter()),
            // The engine is gone or going: its core hands every held slot's
            // view over as it drops, which may still be under way.
            None => loop {
                if let Some(view) = self.detached.get() {
                    break view.clone();
                }
                std::thread::yield_now();
            },
        }
    }

    /// The update as `core` holds it, or as it was when it left the core.
    fn view_in(&self, shared: &EngineShared, core: &Core) -> SlotView {
        match shared.index_of(self.id).and_then(|idx| core.slot(idx)) {
            Some(slot) => slot.view(),
            None => self.detached.get().expect("an evicted slot leaves its view").clone(),
        }
    }
}

impl std::fmt::Debug for UpdateHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdateHandle")
            .field("id", &self.id)
            .field("status", &self.status())
            .finish()
    }
}

/// Compatibility adapter between the pull-based engine and the callback world:
/// drains [`ExchangeEngine::pending_frontiers`] through any existing
/// [`FrontierResolver`], consulting it with the blocked update's snapshot
/// exactly like the batch schedulers did.
pub struct ResolverPump<'e, 'r> {
    engine: &'e ExchangeEngine,
    resolver: &'r mut dyn FrontierResolver,
}

impl<'e, 'r> ResolverPump<'e, 'r> {
    /// Creates a pump over `engine` feeding decisions from `resolver`.
    pub fn new(engine: &'e ExchangeEngine, resolver: &'r mut dyn FrontierResolver) -> Self {
        ResolverPump { engine, resolver }
    }

    /// Answers every currently outstanding frontier request (in publish
    /// order), returning how many were applied. Stale tokens are skipped; an
    /// invalid decision from the resolver is an error.
    pub fn drain(&mut self) -> Result<usize, ChaseError> {
        let engine = self.engine;
        let mut answered = 0usize;
        loop {
            let pending = engine.pending_frontiers();
            if pending.is_empty() {
                return Ok(answered);
            }
            for pf in pending {
                let resolver = &mut *self.resolver;
                let decision =
                    engine.read(|db| resolver.resolve(&db.snapshot(pf.update), &pf.request));
                match engine.answer(pf.token, decision)? {
                    AnswerOutcome::Applied => answered += 1,
                    AnswerOutcome::Stale => {}
                }
            }
        }
    }

    /// Pumps until the engine is quiescent (every submitted update terminated
    /// or failed, no outstanding frontiers), propagating the engine's fatal
    /// error if it stops instead. Each pass runs one lifecycle sweep after
    /// draining (a no-op under [`EscalationPolicy::Wait`]), so an engine
    /// driven purely by a pump still ages and escalates any request the
    /// drain left behind.
    pub fn run_until_quiescent(&mut self) -> Result<(), ChaseError> {
        loop {
            // Chase until idle or blocked, then answer. Alone on the engine
            // every pass either makes chase progress, answers a frontier or
            // observes quiescence; the sleep is for a pass that did none of
            // that because another thread holds the work (mid-answer, say),
            // and anything it does after this capture wakes it.
            let gen = self.engine.shared.signal.current();
            self.engine.drive()?;
            self.drain()?;
            self.engine.sweep();
            if let Some(e) = self.engine.error() {
                return Err(e);
            }
            if self.engine.is_quiescent() {
                return Ok(());
            }
            self.engine.shared.signal.wait_past(gen);
        }
    }
}

impl std::fmt::Debug for ResolverPump<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolverPump").field("engine", &self.engine).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use youtopia_core::RandomResolver;
    use youtopia_storage::Value;

    use super::*;
    use crate::builder::EngineBuilder;

    /// `C(c) -> ∃a,l. S(a, l, c)` over a seeded `S(ITH, NY, Ithaca)`: inserting
    /// `C(x)` for a labeled null `x` generates `S(a, l, x)`, which the seeded
    /// tuple is more specific than — so every such update blocks on a
    /// frontier question.
    fn frontier_fixture(updates: usize) -> (Database, MappingSet, Vec<InitialOp>) {
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

    /// The skipping policy's gate, driven action by action on the test
    /// thread: the sequencer asks to sleep — `AwaitingAnswer` is what ends a
    /// `drive` and sends a waiter to the signal — exactly when every live
    /// update sits on a published,
    /// unanswered frontier, keeps asking while that holds, and acts again as
    /// soon as one answer lands. A gate that never closes (a busy-spinning
    /// thread) trips the action bound; one that closes early leaves requests
    /// unpublished — with a frontier delay each request is published at a
    /// later visit of its own, and only the gate may park. That answer is
    /// issued while the test still holds the sequencer: it must wait in
    /// `enter` with none of its effects visible, and apply once the guard is
    /// released. The engine is durable, and every action past the gate —
    /// stepping past a published slot included — advances the counter that
    /// stamps WAL records by exactly one; replay of a skipping log counts
    /// on it.
    #[test]
    fn skipping_sequencer_parks_only_when_every_live_update_is_blocked() {
        for frontier_delay_rounds in [0, 1] {
            let dir = std::env::temp_dir()
                .join(format!("yt-engine-park-{}-{frontier_delay_rounds}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let (db, mappings, ops) = frontier_fixture(3);
            let engine = EngineBuilder::new()
                .free_running()
                .frontier_delay_rounds(frontier_delay_rounds)
                .durable(DurabilityConfig::new(&dir))
                .build(db, mappings)
                .unwrap();
            engine.submit_batch(ops).unwrap();
            let shared = &engine.shared;
            let counted = |core: &Core| core.durable.as_ref().expect("built durable").actions;
            let mut cur = lock(&shared.core);
            let act_until_parked = |cur: &mut Core| {
                let before = counted(cur);
                for actions in 0.. {
                    assert!(actions < 1_000, "the sequencer never asks to sleep");
                    match shared.det_action(cur).unwrap() {
                        DetProgress::Acted => {}
                        DetProgress::AwaitingAnswer => {
                            let stamped = counted(cur) - before;
                            assert_eq!(stamped, actions, "one stamp per action, none at the gate");
                            return actions;
                        }
                        DetProgress::Idle => panic!("three updates are live"),
                    }
                }
                unreachable!()
            };
            assert!(act_until_parked(&mut cur) >= 3, "each update stepped to its frontier first");
            assert_eq!(cur.live.len(), 3);
            assert_eq!(cur.unanswered, 3, "every question is out");
            let steps = cur.metrics.steps;
            assert_eq!(act_until_parked(&mut cur), 0, "still nothing to do");

            // One answer: two of three are still blocked, so the gate is open
            // and the answered update runs on to termination.
            let (&token, asked) = cur.pending.iter().next_back().unwrap();
            let asked = (FrontierToken(token), asked.update, asked.request.clone());
            let decision = RandomResolver::seeded(1).resolve(&cur.db.snapshot(asked.1), &asked.2);
            let outcome = std::thread::scope(|s| {
                let answering = s.spawn(|| engine.answer(asked.0, decision));
                await_entering(shared, 1);
                assert!(!answering.is_finished(), "answered inside a sequencer action");
                assert_eq!(cur.pending.len(), 3, "the entry is still listed");
                assert_eq!(cur.unanswered, 3);
                drop(cur);
                answering.join().expect("answering thread")
            });
            assert_eq!(outcome.unwrap(), AnswerOutcome::Applied);
            let mut cur = lock(&shared.core);
            assert!(act_until_parked(&mut cur) > 0, "the answered update acts");
            assert!(cur.metrics.steps > steps);
            assert_eq!(cur.active, 2);
            assert_eq!(cur.live.len(), 2, "parked again behind the two open questions");
            drop(cur);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Spins until `n` callers wait in `enter` for the lock the test holds.
    fn await_entering(shared: &EngineShared, n: usize) {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while shared.entering.load(Ordering::SeqCst) < n {
            assert!(std::time::Instant::now() < deadline, "callers never reached enter()");
            std::thread::yield_now();
        }
    }

    /// A failed WAL append on the submit path must fail-stop the engine like
    /// the answer path does — the log is in an unknown state (`/dev/full`
    /// accepts the open and refuses every write with ENOSPC).
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_wal_append_on_submit_fail_stops_the_engine() {
        let dir = std::env::temp_dir().join(format!("yt-engine-full-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (db, mappings, mut ops) = frontier_fixture(2);
        let engine =
            EngineBuilder::new().durable(DurabilityConfig::new(&dir)).build(db, mappings).unwrap();
        engine.shared.enter().durable.as_mut().expect("built durable").wal =
            WalWriter::create(std::path::Path::new("/dev/full")).unwrap();

        let err = engine.submit(ops.pop().unwrap()).unwrap_err();
        assert!(matches!(err, SubmitError::Durability(_)), "typed error, got {err:?}");
        assert!(engine.error().is_some(), "the engine must fail-stop");
        assert_eq!(engine.active_updates(), 0, "nothing was admitted");
        assert!(matches!(engine.submit(ops.pop().unwrap()), Err(SubmitError::ShutDown)));
        assert!(engine.drive().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fail-stop is decided under the lock: an `answer` and a `submit` that
    /// wait in `enter` while the engine fails must see the failure once they
    /// hold the core — the answer returns the engine error, the submission
    /// is refused, nothing is admitted and, on a durable engine, nothing
    /// reaches the log.
    #[test]
    fn callers_waiting_to_enter_see_a_fail_stop() {
        let dir = std::env::temp_dir().join(format!("yt-engine-failstop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = EngineBuilder::new().durable(DurabilityConfig::new(&dir));
        for builder in [EngineBuilder::new(), durable] {
            let (db, mappings, mut ops) = frontier_fixture(2);
            let engine = builder.build(db, mappings).unwrap();
            engine.submit(ops.pop().unwrap()).unwrap();
            engine.drive().unwrap();
            let asked = engine.pending_frontiers().pop().expect("the update asks");
            let decision = engine.read(|db| {
                RandomResolver::seeded(1).resolve(&db.snapshot(asked.update), &asked.request)
            });
            let records = |core: &Core| core.durable.as_ref().map(|d| d.records);
            let mut cur = engine.shared.enter();
            let (active, logged) = (cur.active, records(&cur));
            let (answered, submitted) = std::thread::scope(|s| {
                let answering = s.spawn(|| engine.answer(asked.token, decision));
                let submitting = s.spawn(|| engine.submit(ops.pop().unwrap()).map(|h| h.id()));
                await_entering(&engine.shared, 2);
                engine.shared.fail(&mut cur, ChaseError::InvalidDecision("injected".into()));
                drop(cur);
                (answering.join().unwrap(), submitting.join().unwrap())
            });
            let failure = Err(ChaseError::InvalidDecision("injected".into()));
            assert_eq!(answered, failure, "the answer sees the engine error");
            assert_eq!(submitted, Err(SubmitError::ShutDown));
            let cur = engine.shared.enter();
            assert_eq!(cur.active, active, "nothing was admitted");
            assert_eq!(records(&cur), logged, "nothing was logged after the failure");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A wave submitted the moment the one before it is seen quiescent is
    /// admitted into collected logs: the submit enters after the action that
    /// retired the last update, and that action ends with the quiescence GC.
    /// Checked right after each admission: nothing is left of the wave
    /// before it in the logged writes, the stored reads or the dependencies.
    /// One-update waves through a durable engine add a WAL record and a
    /// snapshot check to every retirement.
    #[test]
    fn callers_admit_each_wave_into_collected_logs() {
        const WAVES: u64 = 200;
        let dir = std::env::temp_dir().join(format!("yt-engine-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = EngineBuilder::new().durable(DurabilityConfig::new(&dir));
        for (builder, wave_size) in [(EngineBuilder::new(), 16u64), (durable, 1)] {
            let (db, mappings, ops) = frontier_fixture((WAVES * wave_size) as usize);
            let relations: Vec<_> = db.catalog().relation_ids().collect();
            let engine = builder.build(db, mappings).unwrap();
            let mut resolver = RandomResolver::seeded(3);
            let mut ops = ops.into_iter();
            for wave in 0..WAVES {
                let batch = ops.by_ref().take(wave_size as usize).collect();
                let first = engine.submit_batch(batch).unwrap()[0].id();
                {
                    let seq = engine.shared.enter();
                    assert!(
                        seq.validation.writers().all(|w| w >= first),
                        "wave {wave}: writes of earlier waves survived into this one"
                    );
                    for old in (first.0.saturating_sub(wave_size)..first.0).map(UpdateId) {
                        let reads = relations
                            .iter()
                            .flat_map(|r| seq.validation.reads_touching(old, *r))
                            .count();
                        assert_eq!(reads, 0, "wave {wave}: {old} still has stored reads");
                    }
                    for new in (first.0..first.0 + wave_size).map(UpdateId) {
                        assert!(
                            seq.validation.dependencies_of(new).iter().all(|d| *d >= first),
                            "wave {wave}: {new} depends on an earlier wave"
                        );
                    }
                }
                ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
            }
            assert!(engine.is_quiescent());
            // Every update asks once; an aborted one asks again.
            assert!(engine.shutdown().2.frontier_ops >= (WAVES * wave_size) as usize);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
