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
//!   last-committed database state (a read-lock session), the way a serving
//!   tier would answer queries while chases run.
//!
//! An engine owns **at most one chase thread**. The paper's concurrency is
//! logical — updates interleave at chase-step granularity because humans are
//! slow at frontiers, and Algorithm 4 validates every step's writes against
//! the stored reads — so nothing needs chase steps on several OS threads, and
//! a measured second thread only queued on the `RwLock<Database>`. Sequencer
//! actions are atomic with respect to each other *and to the callers*:
//! `submit`, `answer` and `sweep`'s auto-resolutions take the sequencer lock
//! (`EngineShared::enter`) and so land **between** two actions, on every
//! engine — inline or threaded, plain, durable or replicated. What does run
//! concurrently with an action is `read`, the status accessors and
//! `metrics()` only, which is why steps stay two-phase over an
//! `RwLock<Database>` and slots and metrics keep their own locks: none of
//! them may wait for an action.
//!
//! There is **one scheduler**: the round-robin cursor of `ConcurrentRun`
//! (Algorithm 3) over the live updates, one action per visit, with the same
//! rules — a terminated update an abort revives sits out the rest of the
//! round. Two choices sit on top of it:
//!
//! * **who runs the loop** — one sequencer thread (the default), or no thread
//!   at all ([`EngineBuilder::inline`](crate::EngineBuilder::inline): the loop
//!   runs on whichever caller thread pumps or waits);
//! * **what the loop does while a published frontier is unanswered** — *block*
//!   (the default: nothing acts until the answer lands, the pull-based
//!   analogue of the reference's synchronous resolver call, so a batch
//!   submitted before anything steps is byte-identical to the reference —
//!   pinned by `tests/engine_equivalence.rs`), or *skip*
//!   ([`EngineBuilder::free_running`](crate::EngineBuilder::free_running): the
//!   cursor steps past published slots and parks only when every live update
//!   is blocked, so the schedule depends on where answers land — recorded by
//!   the WAL stamp on a durable engine; since nobody waits on a published
//!   request, an undelayed one goes out with the step that raised it). Either
//!   policy runs on every engine, inline, durable or replicated.
//!
//! Unlike the inline resolvers of the batch world, an answer can arrive long
//! after the snapshot the user looked at: writes may commit in between. That
//! is exactly the cooperative setting — the machinery that keeps it sound is
//! unchanged: the request's plan-time reads are in the read log, the
//! decision's correction queries are recorded in the same read-lock session
//! that applies them, and any conflicting later write aborts the update.
//!
//! Lock order (outermost first): sequencer → slots table → admission → slot →
//! pending → database → metrics → WAL writer. The sequencer lock is held by
//! whoever runs an action (the chase thread, or the caller driving an inline
//! engine) or enters between two (`enter`); its holder is the only stepper,
//! aborter, log writer and WAL appender, takes one slot lock at a time, and
//! shares slot locks only with status accessors, which never wait on a second
//! one. A [`ResolverPump`] consults its resolver under the database read lock
//! alone; a replica's replication state sits outside the sequencer.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, Weak};
use std::thread::JoinHandle;

use youtopia_core::{
    ChaseError, EscalationPolicy, FrontierDecision, FrontierResolver, FrontierToken, InitialOp,
    LookupError, PendingFrontier, ResolutionOrigin, UpdateExecution, UpdateReport, UpdateState,
    UpdateStats,
};
use youtopia_mappings::MappingSet;
use youtopia_storage::wal::{read_wal, write_file_atomic, WalWriter};
use youtopia_storage::{Database, UpdateId};

use crate::durable::{
    config_fingerprint, decode_record, decode_snapshot, encode_answer, encode_header,
    encode_snapshot, encode_submit, DurabilityConfig, DurableEngineState, RecoveryError,
    SlotSummary, SnapshotMeta, WalRecord,
};
use crate::log::{ReadLog, WriteLog};
use crate::metrics::RunMetrics;
use crate::scheduler::SchedulerConfig;
use crate::sequencer::{DetProgress, Sequencer};

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The assembled configuration of an [`ExchangeEngine`]: the state
/// [`EngineBuilder`](crate::EngineBuilder) accumulates and the engine reads.
/// Each field is documented on the builder setter of the same name.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EngineConfig {
    /// The knobs shared with the batch world (tracker, policy, chase mode,
    /// frontier delay, global step valve).
    pub(crate) scheduler: SchedulerConfig,
    /// Skip — rather than block at — published frontiers
    /// ([`EngineBuilder::free_running`](crate::EngineBuilder::free_running)).
    pub(crate) free_running: bool,
    pub(crate) first_update_number: u64,
    pub(crate) max_steps_per_update: usize,
    pub(crate) admission_cap: usize,
    pub(crate) retention_horizon: usize,
    pub(crate) inline: bool,
    /// Part of the durable config fingerprint — a WAL written under one
    /// escalation policy is not replayed under another.
    pub(crate) escalation: EscalationPolicy,
    pub(crate) replica: Option<youtopia_core::replication::NodeId>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            // `SchedulerConfig`'s cumulative step valve is a batch-run safety
            // net; on a long-lived service it would become a lifetime time
            // bomb (the engine dies for good once total steps ever executed
            // reach it). Default engines are therefore unbounded globally —
            // bound individual updates with `max_steps_per_update` instead.
            scheduler: SchedulerConfig::default().with_max_total_steps(usize::MAX),
            free_running: false,
            first_update_number: 1,
            max_steps_per_update: usize::MAX,
            admission_cap: usize::MAX,
            retention_horizon: usize::MAX,
            inline: false,
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
}

pub(crate) type SlotCell = Mutex<Slot>;

/// The slot table: a sliding window of update records. `base` counts slots
/// evicted by compaction; slot index `i` (= update number −
/// `first_update_number`) lives at `cells[i − base]`.
/// Eviction is front-only and restricted to terminal slots, so every index
/// below `base` names an update that is terminal forever.
pub(crate) struct SlotTable {
    pub(crate) base: usize,
    pub(crate) cells: VecDeque<Arc<SlotCell>>,
}

impl SlotTable {
    /// Number of slots ever admitted (retained + evicted).
    pub(crate) fn total(&self) -> usize {
        self.base + self.cells.len()
    }

    fn get(&self, idx: usize) -> Option<&Arc<SlotCell>> {
        idx.checked_sub(self.base).and_then(|i| self.cells.get(i))
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
struct ClientAdmission {
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
    pub(crate) mappings: MappingSet,
    pub(crate) db: RwLock<Database>,
    pub(crate) config: EngineConfig,
    /// Growable (and front-compacted) slot table; index = update number −
    /// `first_update_number`.
    pub(crate) slots: RwLock<SlotTable>,
    pub(crate) metrics: Mutex<RunMetrics>,
    /// Sequencer state; see [`enter`](Self::enter) for how callers take it.
    pub(crate) sequencer: Mutex<Sequencer>,
    /// Callers waiting in [`enter`](Self::enter) for the sequencer lock.
    pub(crate) entering: AtomicUsize,
    /// Outstanding frontier requests, keyed by token (= publish order).
    pub(crate) pending: Mutex<BTreeMap<u64, PendingEntry>>,
    /// Per-client fair-share admission state, keyed by [`ClientId`].
    /// Anonymous submissions (no client) bypass it entirely and see only the
    /// global cap — the pre-QoS admission path, byte-identical.
    admission: Mutex<BTreeMap<ClientId, ClientAdmission>>,
    /// Number of slots with a published-but-unanswered frontier: what the
    /// sequencer gates on. Drops once an answer has been *applied* (or the
    /// token invalidated by an abort).
    pub(crate) unanswered: AtomicUsize,
    next_token: AtomicU64,
    /// Non-terminated, non-failed updates (admission + quiescence).
    pub(crate) active: AtomicUsize,
    pub(crate) stop: AtomicBool,
    error: Mutex<Option<ChaseError>>,
    pub(crate) signal: Signal,
    /// Durable state (WAL writer, counters); `None` on a plain engine.
    pub(crate) durable: Option<DurableEngineState>,
    /// Replication mechanism state (event logs, canonical fold bookkeeping);
    /// `None` unless the engine is a replica. See `crate::replicate`.
    pub(crate) replication: Option<Mutex<crate::replicate::ReplicationState>>,
}

impl EngineShared {
    /// Deficit at which a repeatedly rejected client becomes *starving* and
    /// freed capacity is reserved for it. Deficit grows by the priority
    /// weight per rejection, so a `High` client starves (and is rescued)
    /// after 4 rejections, a `Low` client after 16 — weighted, but always
    /// eventual.
    const STARVATION_DEFICIT: u64 = 16;

    /// Whether the slot at `idx` can never run again (terminated, failed, or
    /// evicted by compaction — eviction is restricted to terminal slots).
    fn slot_terminal_locked(slots: &SlotTable, idx: usize) -> bool {
        match slots.get(idx) {
            None => true,
            Some(cell) => {
                let slot = lock(cell);
                slot.failed.is_some() || slot.exec.is_terminated()
            }
        }
    }

    /// Fair-share admission check for a batch of `n` updates, called with the
    /// slot table locked (so in-flight counts cannot move underneath it).
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
        slots: &SlotTable,
        client: Option<(ClientId, Priority)>,
        n: usize,
    ) -> Result<(), SubmitError> {
        let cap = self.config.admission_cap;
        let active = self.active.load(Ordering::SeqCst);
        let Some((client_id, priority)) = client else {
            if active.saturating_add(n) > cap {
                let retry_after = RetryAfter { completions: active.saturating_add(n) - cap };
                return Err(SubmitError::Saturated { active, cap, retry_after });
            }
            return Ok(());
        };
        let mut admission = lock(&self.admission);
        // Lazily prune: a client's in-flight count is its admitted slots that
        // are still live. Terminal and evicted slots drop out here.
        for state in admission.values_mut() {
            state.admitted.retain(|&idx| !Self::slot_terminal_locked(slots, idx));
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
            return Err(reject(&mut admission, over));
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
                return Err(reject(&mut admission, over));
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
                return Err(reject(&mut admission, 1));
            }
        }
        Ok(())
    }

    /// Records a successful identified admission: the client's deficit is
    /// paid off and its in-flight slots are tracked for fair-share checks.
    fn record_admission(
        &self,
        client: Option<(ClientId, Priority)>,
        slots: std::ops::Range<usize>,
    ) {
        let Some((client_id, priority)) = client else { return };
        let mut admission = lock(&self.admission);
        let entry = admission.entry(client_id).or_default();
        entry.deficit = 0;
        entry.weight = priority.weight();
        entry.admitted.extend(slots);
    }

    /// The cell at `idx`, or `None` when compaction evicted it. Callers on
    /// abort paths treat `None` as "terminal, nothing to do" — eviction is
    /// restricted to updates that can never be revived.
    pub(crate) fn slot_cell(&self, idx: usize) -> Option<Arc<SlotCell>> {
        self.slots.read().unwrap_or_else(|e| e.into_inner()).get(idx).cloned()
    }

    /// Single-acquisition keyed lookup: the index *and* the cell under one
    /// read lock, so a concurrent compaction cannot evict the slot between
    /// the bounds check and the fetch. `None` when the update was never
    /// admitted or its record was evicted.
    pub(crate) fn lookup_cell(&self, update: UpdateId) -> Option<(usize, Arc<SlotCell>)> {
        let idx = update.0.checked_sub(self.config.first_update_number)? as usize;
        let slots = self.slots.read().unwrap_or_else(|e| e.into_inner());
        Some((idx, slots.get(idx)?.clone()))
    }

    /// Keyed lookup distinguishing "evicted" from "never admitted".
    pub(crate) fn lookup(&self, update: UpdateId) -> Result<Arc<SlotCell>, LookupError> {
        let Some(idx) = update.0.checked_sub(self.config.first_update_number).map(|i| i as usize)
        else {
            return Err(LookupError::UnknownUpdate(update));
        };
        let slots = self.slots.read().unwrap_or_else(|e| e.into_inner());
        if idx >= slots.total() {
            return Err(LookupError::UnknownUpdate(update));
        }
        match slots.get(idx) {
            Some(cell) => Ok(cell.clone()),
            None => Err(LookupError::SlotEvicted(update)),
        }
    }

    /// The one way into the chase for a caller: takes the sequencer lock, so
    /// whatever the caller does with the guard lands between two sequencer
    /// actions. `std` mutexes barge — a chase thread that re-locks in a loop
    /// would win against a parked caller for many actions in a row — so the
    /// caller announces itself first and [`sequencer_thread`] stands back
    /// until every announced caller holds (or has held) the lock: a caller
    /// is served before the sequencer's next action, or the one after if it
    /// announces itself just as the sequencer locks.
    ///
    /// [`sequencer_thread`]: Self::sequencer_thread
    pub(crate) fn enter(&self) -> MutexGuard<'_, Sequencer> {
        self.entering.fetch_add(1, Ordering::SeqCst);
        let seq = lock(&self.sequencer);
        self.entering.fetch_sub(1, Ordering::SeqCst);
        seq
    }

    /// Admits `ops` into the locked slot table with consecutive priority
    /// numbers and into the live set, returning the new cells. Shared by the
    /// public submit path, recovery replay and the replicated fold (which is
    /// why it does not build handles or touch the WAL).
    pub(crate) fn admit(
        &self,
        seq: &mut Sequencer,
        slots: &mut SlotTable,
        ops: Vec<InitialOp>,
    ) -> Vec<(UpdateId, Arc<SlotCell>)> {
        let base = slots.total();
        let mut out = Vec::with_capacity(ops.len());
        for (i, op) in ops.into_iter().enumerate() {
            let id = UpdateId(self.config.first_update_number + (base + i) as u64);
            let cell = Arc::new(Mutex::new(Slot {
                exec: UpdateExecution::with_mode(id, op, self.config.scheduler.chase_mode),
                sit_out: 0,
                published: None,
                failed: None,
            }));
            slots.cells.push_back(Arc::clone(&cell));
            seq.all_ids.push(id);
            seq.live.insert(base + i);
            out.push((id, cell));
        }
        self.active.fetch_add(out.len(), Ordering::SeqCst);
        lock(&self.metrics).workload_size += out.len();
        out
    }

    /// Replays a WAL tail after a crash: each record is driven to its action
    /// stamp (re-executing the intervening chase work through the
    /// deterministic sequencer) and then injected exactly where the original
    /// call landed — directly, bypassing the public API, so nothing is
    /// re-appended to the log.
    fn replay(&self, tail: impl Iterator<Item = WalRecord>) -> Result<(), RecoveryError> {
        let mut seq = lock(&self.sequencer);
        for record in tail {
            match record {
                WalRecord::Header { .. } => {
                    return Err(RecoveryError::Corrupt("header record mid-log".into()));
                }
                WalRecord::Submit { first, stamp, ops } => {
                    self.drive_to_stamp(&mut seq, stamp)?;
                    let mut slots = self.slots.write().unwrap_or_else(|e| e.into_inner());
                    let expected = self.config.first_update_number + slots.total() as u64;
                    if first != expected {
                        return Err(RecoveryError::Replay(format!(
                            "submission logged as u{first} would be admitted as u{expected}"
                        )));
                    }
                    self.admit(&mut seq, &mut slots, ops);
                }
                WalRecord::Answer { token, stamp, decision, origin } => {
                    self.drive_to_stamp(&mut seq, stamp)?;
                    let entry = lock(&self.pending).remove(&token);
                    let Some(entry) = entry else {
                        return Err(RecoveryError::Replay(format!(
                            "answer for token {token} found nothing pending"
                        )));
                    };
                    // A decision the original run rejected as invalid is
                    // rejected here too (deterministically), restoring the
                    // pending entry — its retry records follow in the log.
                    // System answers replay from the log exactly like human
                    // ones: the live sweeper is suppressed while `replaying`,
                    // so an escalation is never re-decided.
                    let _ =
                        self.apply_answer(&mut seq, FrontierToken(token), entry, decision, origin);
                }
            }
            if let Some(e) = lock(&self.error).clone() {
                return Err(RecoveryError::Replay(format!("engine failed during replay: {e}")));
            }
        }
        Ok(())
    }

    /// Runs the sequencer until the durable action counter reaches `stamp`.
    /// Falling idle, the gate closing (which takes no action) or moving past
    /// the stamp all mean the log does not describe this engine's history.
    fn drive_to_stamp(&self, seq: &mut Sequencer, stamp: u64) -> Result<(), RecoveryError> {
        let d = self.durable.as_ref().expect("replay requires a durable engine");
        loop {
            let now = d.actions.load(Ordering::SeqCst);
            if now == stamp {
                return Ok(());
            }
            if now > stamp {
                return Err(RecoveryError::Replay(format!(
                    "overshot action stamp {stamp} (counter is at {now})"
                )));
            }
            let stuck = match self.det_action(seq) {
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

    pub(crate) fn fail(&self, e: ChaseError) {
        let mut slot = lock(&self.error);
        if slot.is_none() {
            *slot = Some(e);
        }
        self.stop.store(true, Ordering::SeqCst);
        self.signal.bump();
    }

    /// Writes a snapshot (and restarts the log) if the engine is durable, not
    /// replaying, and enough records accumulated since the last one. The
    /// caller holds the slots write lock at quiescence — every retained slot
    /// is terminal and the database is stable.
    pub(crate) fn maybe_snapshot_locked(&self, slots: &SlotTable) {
        let Some(d) = &self.durable else { return };
        if d.replaying.load(Ordering::SeqCst) {
            return;
        }
        let records = d.records.load(Ordering::SeqCst);
        if records - d.last_snapshot.load(Ordering::SeqCst) < d.config.snapshot_every {
            return;
        }
        if let Err(e) = self.write_snapshot_locked(slots, records) {
            self.fail(ChaseError::InvalidDecision(format!("snapshot write failed: {e}")));
        }
    }

    fn write_snapshot_locked(
        &self,
        slots: &SlotTable,
        records: u64,
    ) -> Result<(), youtopia_storage::WalError> {
        let d = self.durable.as_ref().expect("snapshot on a durable engine");
        // The log being superseded must be fully on disk before the snapshot
        // that claims to cover it: a crash between the two may fall back to
        // replaying the old log, whose tail would otherwise be missing.
        lock(&d.wal).flush()?;
        let mut summaries = Vec::with_capacity(slots.cells.len());
        for cell in &slots.cells {
            let slot = lock(cell);
            summaries.push(SlotSummary {
                id: slot.exec.id().0,
                initial: slot.exec.initial().clone(),
                stats: slot.exec.stats(),
                terminated: slot.exec.is_terminated(),
                failed: slot.failed.clone(),
            });
        }
        let meta = SnapshotMeta {
            fingerprint: d.fingerprint,
            records,
            actions: d.actions.load(Ordering::SeqCst),
            next_token: self.next_token.load(Ordering::SeqCst),
            slot_base: slots.base as u64,
            slots: summaries,
            metrics: lock(&self.metrics).clone(),
        };
        let bytes = {
            let db = self.db.read().unwrap_or_else(|e| e.into_inner());
            encode_snapshot(&meta, &db)
        };
        write_file_atomic(&d.config.snapshot_path(), &bytes)?;
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
        *lock(&d.wal) = writer;
        d.last_snapshot.store(records, Ordering::SeqCst);
        Ok(())
    }

    /// Appends one record to the write-ahead log (no-op on a plain engine),
    /// stamped with the action count it is logged at. The caller holds the
    /// sequencer lock, so the stamp is the point between two actions where
    /// replay must inject the record.
    fn log_record(
        &self,
        encode: impl FnOnce(u64) -> Vec<u8>,
    ) -> Result<(), youtopia_storage::WalError> {
        let Some(d) = &self.durable else { return Ok(()) };
        lock(&d.wal).append(&encode(d.actions.load(Ordering::SeqCst)))?;
        d.records.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Publishes the locked slot's pending frontier request under a fresh
    /// token, inside the sequencer action that counted it. Idempotent while
    /// a token is outstanding.
    pub(crate) fn publish_frontier(&self, slot: &mut Slot, idx: usize) {
        if slot.published.is_some() {
            return;
        }
        let token = FrontierToken(self.next_token.fetch_add(1, Ordering::SeqCst));
        let request = slot.exec.pending_frontier().expect("state is AwaitingFrontier").clone();
        slot.published = Some(token);
        self.unanswered.fetch_add(1, Ordering::SeqCst);
        let published_at =
            self.durable.as_ref().map(|d| d.actions.load(Ordering::SeqCst)).unwrap_or(0);
        lock(&self.pending).insert(
            token.0,
            PendingEntry {
                update: slot.exec.id(),
                slot: idx,
                request,
                published_at,
                age: 0,
                escalations: 0,
            },
        );
        self.signal.bump();
    }

    /// Applies an answered decision to the owning slot, between two sequencer
    /// actions (the caller [`enter`](Self::enter)ed). The pending entry has
    /// already been removed by the caller; on a rejected (invalid) decision it
    /// is restored under the same token so the user can retry.
    pub(crate) fn apply_answer(
        &self,
        seq: &mut Sequencer,
        token: FrontierToken,
        entry: PendingEntry,
        decision: FrontierDecision,
        origin: ResolutionOrigin,
    ) -> Result<AnswerOutcome, ChaseError> {
        let Some(cell) = self.slot_cell(entry.slot) else { return Ok(AnswerOutcome::Stale) };
        let mut slot = lock(&cell);
        if slot.published != Some(token) || slot.exec.state() != UpdateState::AwaitingFrontier {
            return Ok(AnswerOutcome::Stale);
        }
        let id = slot.exec.id();
        {
            // One read-lock session covers the frontier resolution and the
            // recording of its correction queries: a write committing after
            // this session needs the write lock, i.e. happens after the reads
            // it must be validated against are in the log.
            let db = self.db.read().unwrap_or_else(|e| e.into_inner());
            match slot.exec.resolve_frontier(&self.mappings, decision) {
                Ok(reads) => {
                    {
                        let mut metrics = lock(&self.metrics);
                        metrics.frontier_ops += 1;
                        if origin == ResolutionOrigin::System {
                            // Replay-stable (recounted from the WAL's origin
                            // bytes), so it survives snapshot folding — see
                            // the snapshot codec.
                            metrics.auto_resolutions += 1;
                        }
                    }
                    self.record_reads_locked(seq, &db, id, reads);
                }
                Err(e) => {
                    // The execution restored its request; re-list it under
                    // the same token so the user can retry.
                    lock(&self.pending).insert(token.0, entry);
                    return Err(e);
                }
            }
        }
        slot.published = None;
        self.unanswered.fetch_sub(1, Ordering::SeqCst);
        drop(slot);
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
    /// The one chase thread; `None` for an inline engine (and after `halt`).
    thread: Option<JoinHandle<()>>,
}

impl ExchangeEngine {
    /// Starts an engine over `db` and `mappings`: its chase thread (none for
    /// an inline engine) is spawned immediately and stays alive — parked when
    /// idle — until [`shutdown`](Self::shutdown) or drop.
    pub(crate) fn new(db: Database, mappings: MappingSet, config: EngineConfig) -> ExchangeEngine {
        let shared = Self::make_shared(
            db,
            mappings,
            config,
            None,
            SlotTable { base: 0, cells: VecDeque::new() },
            Vec::new(),
            0,
            RunMetrics::default(),
        );
        let thread = Self::spawn_chase_thread(&shared);
        ExchangeEngine { shared, thread }
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
            wal: Mutex::new(wal),
            records: AtomicU64::new(0),
            last_snapshot: AtomicU64::new(0),
            actions: AtomicU64::new(0),
            replaying: AtomicBool::new(false),
        };
        let shared = Self::make_shared(
            db,
            mappings,
            config,
            Some(durable),
            SlotTable { base: 0, cells: VecDeque::new() },
            Vec::new(),
            0,
            RunMetrics::default(),
        );
        let thread = Self::spawn_chase_thread(&shared);
        Ok(ExchangeEngine { shared, thread })
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
        let mut cells = VecDeque::with_capacity(meta.slots.len());
        let mut all_ids = Vec::with_capacity(meta.slots.len());
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
                config.scheduler.chase_mode,
                summary.stats,
                summary.terminated,
            );
            cells.push_back(Arc::new(Mutex::new(Slot {
                exec,
                sit_out: 0,
                published: None,
                failed: summary.failed.clone(),
            })));
            all_ids.push(id);
        }
        let slots = SlotTable { base: meta.slot_base as usize, cells };
        // Reopen the log for appends at its validated length (discarding any
        // torn tail record) *before* replay: replay injects records directly
        // and never re-appends, so the write position is already final.
        let mut writer = WalWriter::open_append(&durability.wal_path(), wal.valid_len)?;
        writer.set_group_commit(durability.group_commit);
        let durable = DurableEngineState {
            config: durability,
            fingerprint,
            wal: Mutex::new(writer),
            records: AtomicU64::new(total_records),
            last_snapshot: AtomicU64::new(meta.records),
            actions: AtomicU64::new(meta.actions),
            replaying: AtomicBool::new(true),
        };
        let shared = Self::make_shared(
            db,
            mappings,
            config,
            Some(durable),
            slots,
            all_ids,
            meta.next_token,
            meta.metrics.clone(),
        );
        let replayed = shared.replay(tail.into_iter().skip(skip));
        shared
            .durable
            .as_ref()
            .expect("recovered engine is durable")
            .replaying
            .store(false, Ordering::SeqCst);
        replayed?;
        let thread = Self::spawn_chase_thread(&shared);
        Ok(ExchangeEngine { shared, thread })
    }

    #[allow(clippy::too_many_arguments)]
    fn make_shared(
        db: Database,
        mappings: MappingSet,
        config: EngineConfig,
        durable: Option<DurableEngineState>,
        slots: SlotTable,
        all_ids: Vec<UpdateId>,
        next_token: u64,
        metrics: RunMetrics,
    ) -> Arc<EngineShared> {
        Arc::new(EngineShared {
            mappings,
            db: RwLock::new(db),
            slots: RwLock::new(slots),
            metrics: Mutex::new(metrics),
            sequencer: Mutex::new(Sequencer {
                next: 0,
                live: BTreeSet::new(),
                all_ids,
                read_log: ReadLog::default(),
                write_log: WriteLog::default(),
                tracker: config.scheduler.tracker.build(),
            }),
            entering: AtomicUsize::new(0),
            pending: Mutex::new(BTreeMap::new()),
            admission: Mutex::new(BTreeMap::new()),
            unanswered: AtomicUsize::new(0),
            next_token: AtomicU64::new(next_token),
            active: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            error: Mutex::new(None),
            signal: Signal::new(),
            durable,
            replication: config
                .replica
                .map(|node| Mutex::new(crate::replicate::ReplicationState::new(node))),
            config,
        })
    }

    /// Starts the engine's chase thread: none for an inline engine, otherwise
    /// exactly one, running the sequencer.
    fn spawn_chase_thread(shared: &Arc<EngineShared>) -> Option<JoinHandle<()>> {
        if shared.config.inline {
            return None;
        }
        let shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("youtopia-engine-0".into())
            .spawn(move || shared.sequencer_thread());
        Some(spawned.expect("spawn engine chase thread"))
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
    /// (nothing is admitted) and [`SubmitError::ShutDown`] after shutdown or a
    /// fatal error.
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
        if shared.stop.load(Ordering::SeqCst) {
            return Err(SubmitError::ShutDown);
        }
        if shared.replication.is_some() {
            return Err(SubmitError::Replicated);
        }
        // Admission happens between two sequencer actions: the batch becomes
        // live at one point of the schedule, and on a durable engine the WAL
        // record's action stamp names that point for replay.
        let mut seq = shared.enter();
        let mut slots = shared.slots.write().unwrap_or_else(|e| e.into_inner());
        shared.check_admission(&slots, client, ops.len())?;
        let base = slots.total();
        // Logged before any effect is visible: a submission the caller saw
        // admitted is in the log, and one that failed to log was never
        // admitted.
        let first = shared.config.first_update_number + base as u64;
        if let Err(e) = shared.log_record(|stamp| encode_submit(first, stamp, &ops)) {
            // Nothing was admitted, but the log is now in an unknown state
            // (under group commit, earlier acknowledged records of this
            // window were never synced): fail-stop, as `answer` does.
            shared.fail(ChaseError::InvalidDecision(format!("durability failure: {e}")));
            return Err(SubmitError::Durability(e.to_string()));
        }
        let count = ops.len();
        let handles: Vec<UpdateHandle> = shared
            .admit(&mut seq, &mut slots, ops)
            .into_iter()
            .map(|(id, cell)| UpdateHandle { id, cell, shared: Arc::downgrade(shared) })
            .collect();
        shared.record_admission(client, base..base + count);
        drop(slots);
        drop(seq);
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
        let mut out: Vec<PendingFrontier> = lock(&self.shared.pending)
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
        // Fail-stop: a failed engine (a WAL append or sync error above all)
        // takes no further answers — its log no longer matches its history.
        if let Some(e) = self.error() {
            return Err(e);
        }
        // A replica records the decision as a replicated event (so peers
        // replay it instead of re-asking) and continues the canonical fold.
        if shared.replication.is_some() {
            return crate::replicate::answer_replicated(self, token, decision, origin);
        }
        // The sequencer is held across remove → append → apply: the decision
        // lands between two actions, and on a durable engine the log order is
        // the order decisions' effects landed, the stamp pinning the
        // interleaving point.
        let mut seq = shared.enter();
        let entry = lock(&shared.pending).remove(&token.0);
        let Some(entry) = entry else { return Ok(AnswerOutcome::Stale) };
        if let Err(e) = shared.log_record(|stamp| encode_answer(token.0, stamp, &decision, origin))
        {
            // Restore the entry so the request is not silently lost, then
            // fail the engine: its log no longer matches its history.
            lock(&shared.pending).insert(token.0, entry);
            let err = ChaseError::InvalidDecision(format!("durability failure: {e}"));
            shared.fail(err.clone());
            return Err(err);
        }
        shared.apply_answer(&mut seq, token, entry, decision, origin)
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
    /// sweep once per virtual tick. Sweeping is suppressed during recovery
    /// replay (escalations come from the log there) and is a no-op under
    /// [`EscalationPolicy::Wait`] beyond the aging.
    pub fn sweep(&self) -> SweepReport {
        let shared = &self.shared;
        let mut report = SweepReport::default();
        if let Some(d) = &shared.durable {
            if d.replaying.load(Ordering::SeqCst) {
                return report;
            }
        }
        let policy = shared.config.escalation;
        // Age every entry and collect the expired ones. The pending lock is
        // dropped before any escalation is applied (apply_answer locks slot
        // then pending — the documented order).
        let mut re_ask: Vec<u64> = Vec::new();
        let mut auto: Vec<(u64, FrontierDecision)> = Vec::new();
        {
            let mut pending = lock(&shared.pending);
            for (token, entry) in pending.iter_mut() {
                entry.age += 1;
                report.aged += 1;
                match policy {
                    EscalationPolicy::Wait => {}
                    EscalationPolicy::ReAsk { after } => {
                        if entry.age >= after.max(1) {
                            entry.age = 0;
                            entry.escalations += 1;
                            re_ask.push(*token);
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
        }
        if !re_ask.is_empty() {
            lock(&shared.metrics).re_asks += re_ask.len();
            report.re_asked = re_ask.into_iter().map(FrontierToken).collect();
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

    /// Advances an inline engine until its sequencer goes idle or blocks on
    /// an unanswered frontier, then returns — unlike
    /// [`wait_quiescent`](Self::wait_quiescent), blocking on a frontier is
    /// not an error, so open-loop harnesses can interleave driving,
    /// selective answering ([`pending_frontiers`](Self::pending_frontiers) /
    /// [`answer`](Self::answer)) and [`sweep`](Self::sweep) on one thread.
    /// On a threaded engine this is a no-op (the chase thread makes progress
    /// on its own); either way a fatal engine error is reported.
    pub fn drive(&self) -> Result<(), ChaseError> {
        if self.shared.config.inline {
            self.shared.drive()?;
        }
        match self.error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Runs a closure over the last-committed database state (a read-lock
    /// snapshot session). Do not hold long-running work inside the closure —
    /// writers (chase steps) queue behind it — and do not `submit` or `answer`
    /// from inside it: those wait for the running action, which may be
    /// waiting to write.
    pub fn read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.shared.db.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The mapping set the engine chases against (fixed at construction).
    pub fn mappings(&self) -> &MappingSet {
        &self.shared.mappings
    }

    /// The metrics accumulated since the engine started (never reset;
    /// `wall_time` is not tracked by the engine — it belongs to whoever owns
    /// the session).
    pub fn metrics(&self) -> RunMetrics {
        lock(&self.shared.metrics).clone()
    }

    /// Per-update execution statistics of every **retained** update, in
    /// submission order. With a finite
    /// [`EngineBuilder::retention_horizon`](crate::EngineBuilder::retention_horizon),
    /// records evicted by compaction are absent — use
    /// [`update_stats_of`](Self::update_stats_of) to distinguish evicted from
    /// unknown ids.
    pub fn update_stats(&self) -> Vec<(UpdateId, UpdateStats)> {
        let slots = self.shared.slots.read().unwrap_or_else(|e| e.into_inner());
        slots
            .cells
            .iter()
            .map(|cell| {
                let slot = lock(cell);
                (slot.exec.id(), slot.exec.stats())
            })
            .collect()
    }

    /// The execution statistics of one update (index lookup — prefer this
    /// over scanning [`Self::update_stats`] on a long-lived engine). Fails
    /// with [`LookupError::SlotEvicted`] once compaction has dropped the
    /// record, [`LookupError::UnknownUpdate`] for an id never admitted.
    pub fn update_stats_of(&self, update: UpdateId) -> Result<UpdateStats, LookupError> {
        let cell = self.shared.lookup(update)?;
        let slot = lock(&cell);
        Ok(slot.exec.stats())
    }

    /// The completion report of one update: `Ok(Some(..))` once it has
    /// terminated, `Ok(None)` while it is still in flight (or failed), and a
    /// [`LookupError`] when the id is unknown or its record was evicted. An
    /// [`UpdateHandle`] pins its own record and keeps answering after
    /// eviction; this keyed lookup is for callers holding only the id.
    pub fn update_report_of(&self, update: UpdateId) -> Result<Option<UpdateReport>, LookupError> {
        let cell = self.shared.lookup(update)?;
        let slot = lock(&cell);
        Ok(slot.exec.is_terminated().then(|| UpdateReport::for_execution(&slot.exec)))
    }

    /// Observes the shared violation index: the delta feed's sequence number
    /// and its retained backlog (see [`crate::viewmaint`] for the maintenance
    /// model). The backlog is bounded by the cap and cleared whenever
    /// quiescence GC runs.
    pub fn violation_index(&self) -> crate::viewmaint::ViolationIndexStats {
        self.read(crate::viewmaint::stats)
    }

    /// The priority number the next submission will receive.
    pub fn next_update_id(&self) -> UpdateId {
        let slots = self.shared.slots.read().unwrap_or_else(|e| e.into_inner());
        UpdateId(self.shared.config.first_update_number + slots.total() as u64)
    }

    /// Number of update records currently retained in the slot table (grows
    /// with submissions, shrinks when compaction evicts terminal records past
    /// the retention horizon).
    pub fn retained_slots(&self) -> usize {
        self.shared.slots.read().unwrap_or_else(|e| e.into_inner()).cells.len()
    }

    /// Number of in-flight (non-terminated, non-failed) updates.
    pub fn active_updates(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Whether nothing is running, queued or awaiting an answer. Quiescence
    /// is stable: with no in-flight work and no pending frontiers, only a new
    /// submission can create activity (an update leaves the active count only
    /// after everything its last action revived has entered it).
    pub fn is_quiescent(&self) -> bool {
        self.shared.active.load(Ordering::SeqCst) == 0 && lock(&self.shared.pending).is_empty()
    }

    /// The fatal error that stopped the engine, if any (the global
    /// [`EngineBuilder::max_total_steps`](crate::EngineBuilder::max_total_steps)
    /// valve, or a poisoned decision).
    pub fn error(&self) -> Option<ChaseError> {
        lock(&self.shared.error).clone()
    }

    /// Blocks until the engine is quiescent, returning the fatal error if it
    /// failed instead. The caller is responsible for answering frontiers
    /// while waiting (or doing so from another thread / a [`ResolverPump`]) —
    /// an unanswered frontier never becomes quiescent, and on an inline
    /// engine (which has no threads to wait on) it is reported as an error
    /// rather than a hang.
    pub fn wait_quiescent(&self) -> Result<(), ChaseError> {
        loop {
            if let Some(e) = self.error() {
                return Err(e);
            }
            let gen = self.shared.signal.current();
            if self.is_quiescent() {
                return Ok(());
            }
            if self.shared.config.inline {
                self.shared.drive()?;
                if self.is_quiescent() {
                    return Ok(());
                }
                if !lock(&self.shared.pending).is_empty() {
                    return Err(ChaseError::InvalidDecision(
                        "inline engine blocked on an unanswered frontier; \
                         answer it via pending_frontiers()/answer() or a ResolverPump"
                            .into(),
                    ));
                }
                continue;
            }
            self.shared.signal.wait_past(gen);
        }
    }

    /// Stops the chase thread and joins it (idempotent).
    fn halt(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.signal.bump();
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }

    /// Shuts the engine down and returns the database, mappings and
    /// accumulated metrics. In-flight updates are left wherever their last
    /// committed step put them (partial chases are *not* rolled back — check
    /// [`is_quiescent`](Self::is_quiescent) first if that matters).
    pub fn shutdown(mut self) -> (Database, MappingSet, RunMetrics) {
        self.halt();
        // A clean shutdown is a durability point: close any open group-commit
        // window so the log on disk covers everything that was logged.
        if let Some(d) = &self.shared.durable {
            let _ = lock(&d.wal).flush();
        }
        let mut shared = Arc::clone(&self.shared);
        drop(self);
        // The chase thread is joined, but a cloned `UpdateHandle` may be
        // mid-`wait()` on another thread, holding a transient upgrade of its
        // weak reference. The stop flag (set by `halt`) makes every such call
        // return on its next check; keep nudging the signal until the last
        // transient strong reference drops. An `Arc` drop cannot notify a
        // condvar, so this is necessarily a poll — but with bounded
        // exponential backoff (capped at ~1 ms) instead of a hot yield loop
        // that would burn a core for as long as a handle-holder stays
        // descheduled.
        let mut spins = 0u32;
        let shared = loop {
            match Arc::try_unwrap(shared) {
                Ok(inner) => break inner,
                Err(still_shared) => {
                    still_shared.signal.bump();
                    if spins < 10 {
                        std::thread::yield_now();
                    } else {
                        let exp = (spins - 10).min(10);
                        std::thread::sleep(std::time::Duration::from_micros(1 << exp));
                    }
                    spins += 1;
                    shared = still_shared;
                }
            }
        };
        let db = shared.db.into_inner().unwrap_or_else(|e| e.into_inner());
        let metrics = shared.metrics.into_inner().unwrap_or_else(|e| e.into_inner());
        (db, shared.mappings, metrics)
    }

    pub(crate) fn db_read(&self) -> std::sync::RwLockReadGuard<'_, Database> {
        self.shared.db.read().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn db_write(&self) -> std::sync::RwLockWriteGuard<'_, Database> {
        self.shared.db.write().unwrap_or_else(|e| e.into_inner())
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
            .field("pending_frontiers", &lock(&self.shared.pending).len())
            .finish_non_exhaustive()
    }
}

/// A ticket for one submitted update. Clonable; outlives the engine safely
/// (methods needing the engine report shutdown instead of blocking forever).
///
/// The handle pins its own slot record: with a finite
/// [`EngineBuilder::retention_horizon`](crate::EngineBuilder::retention_horizon),
/// the engine's keyed lookups ([`ExchangeEngine::update_stats_of`],
/// [`ExchangeEngine::update_report_of`]) report
/// [`LookupError::SlotEvicted`] once compaction drops a terminated record,
/// but a live handle keeps answering [`status`](Self::status) /
/// [`stats`](Self::stats) / [`report`](Self::report) from the pinned cell —
/// retention bounds the *engine's* memory, not a handle the caller chose to
/// keep.
#[derive(Clone)]
pub struct UpdateHandle {
    id: UpdateId,
    cell: Arc<SlotCell>,
    shared: Weak<EngineShared>,
}

impl UpdateHandle {
    /// The update's priority number.
    pub fn id(&self) -> UpdateId {
        self.id
    }

    /// Where the update currently stands. In free-running mode a
    /// `Terminated` status is definitive only once the engine is quiescent:
    /// a still-running lower-priority update can conflict with and revive it.
    pub fn status(&self) -> UpdateStatus {
        let slot = lock(&self.cell);
        if slot.failed.is_some() {
            return UpdateStatus::Failed;
        }
        match slot.exec.state() {
            UpdateState::Ready => UpdateStatus::Running,
            UpdateState::AwaitingFrontier => UpdateStatus::AwaitingFrontier,
            UpdateState::Terminated => UpdateStatus::Terminated,
        }
    }

    /// Execution counters so far.
    pub fn stats(&self) -> UpdateStats {
        lock(&self.cell).exec.stats()
    }

    /// The completion report, once the update has terminated — assembled
    /// through the same [`UpdateReport::for_execution`] path every runner
    /// uses.
    pub fn report(&self) -> Option<UpdateReport> {
        let slot = lock(&self.cell);
        slot.exec.is_terminated().then(|| UpdateReport::for_execution(&slot.exec))
    }

    /// The update's terminal failure, if it exceeded its step budget.
    pub fn error(&self) -> Option<ChaseError> {
        lock(&self.cell).failed.clone()
    }

    /// Blocks until the update terminates (returning its report) or fails
    /// (returning the error — the update's own budget error, or the engine's
    /// fatal error). Someone must be answering frontiers meanwhile; on an
    /// inline engine (which has no one else), a frontier reached while
    /// waiting is reported as an error rather than a hang.
    pub fn wait(&self) -> Result<UpdateReport, ChaseError> {
        loop {
            {
                let slot = lock(&self.cell);
                if let Some(e) = &slot.failed {
                    return Err(e.clone());
                }
                if slot.exec.is_terminated() {
                    return Ok(UpdateReport::for_execution(&slot.exec));
                }
            }
            let Some(shared) = self.shared.upgrade() else {
                return Err(ChaseError::InvalidDecision(format!(
                    "engine shut down while update {} was in flight",
                    self.id
                )));
            };
            if let Some(e) = lock(&shared.error).clone() {
                return Err(e);
            }
            if shared.stop.load(Ordering::SeqCst) {
                return Err(ChaseError::InvalidDecision(format!(
                    "engine shut down while update {} was in flight",
                    self.id
                )));
            }
            if shared.config.inline {
                shared.drive()?;
                let blocked = {
                    let slot = lock(&self.cell);
                    slot.failed.is_none() && !slot.exec.is_terminated()
                };
                if blocked && !lock(&shared.pending).is_empty() {
                    return Err(ChaseError::InvalidDecision(format!(
                        "update {} is blocked on a frontier on an inline engine; \
                         answer it via pending_frontiers()/answer() or a ResolverPump",
                        self.id
                    )));
                }
                continue;
            }
            let gen = shared.signal.current();
            {
                let slot = lock(&self.cell);
                if slot.failed.is_some() || slot.exec.is_terminated() {
                    continue;
                }
            }
            shared.signal.wait_past(gen);
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
            if self.engine.shared.config.inline {
                // Caller-driven engine: chase until idle or blocked, then
                // answer. Every loop iteration either makes chase progress,
                // answers a frontier, or observes quiescence — no waiting.
                self.engine.shared.drive()?;
            }
            self.drain()?;
            self.engine.sweep();
            if let Some(e) = self.engine.error() {
                return Err(e);
            }
            let gen = self.engine.shared.signal.current();
            if self.engine.is_quiescent() {
                return Ok(());
            }
            if self.engine.shared.config.inline {
                continue;
            }
            // A frontier published between drain() returning empty and the
            // generation capture has already bumped the generation we are
            // about to sleep on — with the chase thread parked behind it, nobody
            // would ever bump again. Re-checking the queue *after* the
            // capture closes the lost-wakeup window: either we see the entry
            // here and drain it, or its publish bumps past `gen` and the
            // wait returns immediately.
            if !lock(&self.engine.shared.pending).is_empty() {
                continue;
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
    use std::sync::mpsc;
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

    /// The hidden `workers` knob is a no-op: whatever it says, a threaded
    /// engine owns one chase thread and an inline engine none.
    #[test]
    fn no_engine_configuration_owns_more_than_one_chase_thread() {
        for workers in [1usize, 2, 4, 8] {
            let build = |builder: EngineBuilder| {
                let (db, mappings, _) = frontier_fixture(0);
                builder.workers(workers).build(db, mappings).unwrap()
            };
            assert!(build(EngineBuilder::new()).thread.is_some(), "deterministic");
            assert!(build(EngineBuilder::new().free_running()).thread.is_some(), "free-running");
            assert!(build(EngineBuilder::new().inline()).thread.is_none(), "caller-driven");
        }
    }

    /// The skipping policy's gate, driven by hand on an inline engine (no
    /// chase thread, so nothing races the assertions): the sequencer
    /// asks to sleep — `AwaitingAnswer` is what sends `sequencer_thread` to
    /// the signal — exactly when every live update sits on a published,
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
                .inline()
                .free_running()
                .frontier_delay_rounds(frontier_delay_rounds)
                .durable(DurabilityConfig::new(&dir))
                .build(db, mappings)
                .unwrap();
            engine.submit_batch(ops).unwrap();
            let shared = &engine.shared;
            let counted = &shared.durable.as_ref().expect("built durable").actions;
            let mut cur = lock(&shared.sequencer);
            let act_until_parked = |cur: &mut Sequencer| {
                let before = counted.load(Ordering::SeqCst);
                for actions in 0.. {
                    assert!(actions < 1_000, "the sequencer never asks to sleep");
                    match shared.det_action(cur).unwrap() {
                        DetProgress::Acted => {}
                        DetProgress::AwaitingAnswer => {
                            let stamped = counted.load(Ordering::SeqCst) - before;
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
            assert_eq!(shared.unanswered.load(Ordering::SeqCst), 3, "every question is out");
            let steps = engine.metrics().steps;
            assert_eq!(act_until_parked(&mut cur), 0, "still nothing to do");

            // One answer: two of three are still blocked, so the gate is open
            // and the answered update runs on to termination.
            let asked = engine.pending_frontiers().pop().unwrap();
            let decision = engine.read(|db| {
                RandomResolver::seeded(1).resolve(&db.snapshot(asked.update), &asked.request)
            });
            let outcome = std::thread::scope(|s| {
                let answering = s.spawn(|| engine.answer(asked.token, decision));
                let deadline = std::time::Instant::now() + Duration::from_secs(60);
                while shared.entering.load(Ordering::SeqCst) == 0 {
                    assert!(std::time::Instant::now() < deadline, "answer never reached enter()");
                    std::thread::yield_now();
                }
                assert!(!answering.is_finished(), "answered inside a sequencer action");
                assert_eq!(engine.pending_frontiers().len(), 3, "the entry is still listed");
                assert_eq!(shared.unanswered.load(Ordering::SeqCst), 3);
                drop(cur);
                answering.join().expect("answering thread")
            });
            assert_eq!(outcome.unwrap(), AnswerOutcome::Applied);
            let mut cur = lock(&shared.sequencer);
            assert!(act_until_parked(&mut cur) > 0, "the answered update acts");
            assert!(engine.metrics().steps > steps);
            assert_eq!(engine.active_updates(), 2);
            assert_eq!(cur.live.len(), 2, "parked again behind the two open questions");
            let _ = std::fs::remove_dir_all(&dir);
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
        let engine = EngineBuilder::new()
            .inline()
            .durable(DurabilityConfig::new(&dir))
            .build(db, mappings)
            .unwrap();
        let durable = engine.shared.durable.as_ref().expect("built durable");
        *lock(&durable.wal) = WalWriter::create(std::path::Path::new("/dev/full")).unwrap();

        let err = engine.submit(ops.pop().unwrap()).unwrap_err();
        assert!(matches!(err, SubmitError::Durability(_)), "typed error, got {err:?}");
        assert!(engine.error().is_some(), "the engine must fail-stop");
        assert_eq!(engine.active_updates(), 0, "nothing was admitted");
        assert!(matches!(engine.submit(ops.pop().unwrap()), Err(SubmitError::ShutDown)));
        assert!(engine.drive().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A wave submitted the moment the one before it is seen quiescent is
    /// admitted into collected logs: the submit enters after the action that
    /// retired the last update, and that action ends with the quiescence GC.
    /// Checked right after each admission — the sequencer may already be
    /// stepping the new wave, so "collected" means nothing is left of the
    /// wave before it in the write log, the read log or the tracker.
    ///
    /// The same 200 waves are the liveness check for the hand-off the other
    /// way: `submit`/`answer` hold the sequencer lock on the *caller's*
    /// thread and need not bump the signal after releasing it, so the chase
    /// thread must pick the lock up by mutex handoff, not wait for a wake-up
    /// that never comes. One-update waves through a durable engine (an fsync
    /// inside every hold) give that window every chance to open; a watchdog
    /// turns a hang into a failure.
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
            let (tx, rx) = mpsc::channel();
            let driver = std::thread::spawn(move || {
                let mut resolver = RandomResolver::seeded(3);
                let mut ops = ops.into_iter();
                for wave in 0..WAVES {
                    let batch = ops.by_ref().take(wave_size as usize).collect();
                    let first = engine.submit_batch(batch).unwrap()[0].id();
                    {
                        let seq = engine.shared.enter();
                        assert!(
                            seq.write_log.entries().iter().all(|w| w.update >= first),
                            "wave {wave}: writes of earlier waves survived into this one"
                        );
                        for old in (first.0.saturating_sub(wave_size)..first.0).map(UpdateId) {
                            let reads = relations
                                .iter()
                                .flat_map(|r| seq.read_log.reads_touching(old, *r))
                                .count();
                            assert_eq!(reads, 0, "wave {wave}: {old} still has stored reads");
                        }
                        for new in (first.0..first.0 + wave_size).map(UpdateId) {
                            assert!(
                                seq.tracker.dependencies_of(new).iter().all(|d| *d >= first),
                                "wave {wave}: {new} depends on an earlier wave"
                            );
                        }
                    }
                    ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
                }
                let quiescent = engine.is_quiescent();
                let _ = tx.send((quiescent, engine.shutdown().2.frontier_ops));
            });
            match rx.recv_timeout(Duration::from_secs(120)) {
                // Every update asks once; an aborted one asks again.
                Ok((quiescent, answered)) => {
                    assert!(quiescent && answered >= (WAVES * wave_size) as usize)
                }
                Err(mpsc::RecvTimeoutError::Timeout) => panic!("engine hung"),
                // The driver dropped its sender without sending: an assertion
                // above failed; surface it.
                Err(mpsc::RecvTimeoutError::Disconnected) => {}
            }
            if let Err(panic) = driver.join() {
                std::panic::resume_unwind(panic);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
