//! The sequencer: the engine's [`Core`] — every piece of mutable engine state,
//! behind the one lock — and the loop that drives it, the reference
//! round-robin scheduler (Algorithms 3 and 4) in open-world form. `engine.rs`
//! is the service shell around it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::Ordering;

use youtopia_core::{ChaseError, StepOutcome, UpdateState};
use youtopia_storage::{Database, UpdateId};

use crate::durable::DurableEngineState;
use crate::engine::{
    lock, ClientAdmission, ClientId, EngineConfig, EngineShared, PendingEntry, Slot,
};
use crate::metrics::RunMetrics;
use crate::replicate::ReplicationState;
use crate::validation::Validation;

/// The engine's state, all of it behind the one lock (`EngineShared::core`):
/// whoever holds it runs an action (`drive_until`) or enters between two
/// (`EngineShared::enter`), so every field is a plain value.
///
/// The round-robin cursor is `next` plus the set of live (non-terminated,
/// non-failed) slot indices, so a long-lived engine does not re-scan
/// thousands of terminated slots per round — iterating the live set in
/// ascending order per round visits exactly the slots the reference loop
/// would act on, in the same order.
pub(crate) struct Core {
    pub(crate) db: Database,
    /// The retained update records: slot index `i` (= update number −
    /// `first_update_number`) lives at `slots[i − base]`, where `base` counts
    /// the slots compaction evicted. Eviction is front-only and restricted
    /// to terminal slots, so every index below `base` names an update that
    /// is terminal forever.
    pub(crate) slots: VecDeque<Box<Slot>>,
    pub(crate) base: usize,
    pub(crate) next: usize,
    pub(crate) live: BTreeSet<usize>,
    /// The reads, writes and dependencies Algorithm 4 validates against.
    pub(crate) validation: Validation,
    /// Outstanding frontier requests, keyed by token (= publish order).
    pub(crate) pending: BTreeMap<u64, PendingEntry>,
    /// Per-client fair-share admission state. Anonymous submissions (no
    /// client) bypass it entirely and see only the global cap.
    pub(crate) admission: BTreeMap<ClientId, ClientAdmission>,
    pub(crate) metrics: RunMetrics,
    /// The fatal error that stopped the engine; set once, never cleared.
    pub(crate) error: Option<ChaseError>,
    /// Non-terminated, non-failed updates (admission + quiescence).
    pub(crate) active: usize,
    /// Slots with a published-but-unanswered frontier: what the gate tests.
    /// Drops once an answer has been *applied* (or the token invalidated by
    /// an abort).
    pub(crate) unanswered: usize,
    pub(crate) next_token: u64,
    /// WAL writer, counters and replay flag; `None` on a plain engine.
    pub(crate) durable: Option<DurableEngineState>,
    /// Event logs and canonical fold bookkeeping; `None` unless the engine
    /// is a replica. See `crate::replicate`.
    pub(crate) replica: Option<ReplicationState>,
}

impl Core {
    /// An empty core over `db`.
    pub(crate) fn new(
        db: Database,
        config: &EngineConfig,
        durable: Option<DurableEngineState>,
    ) -> Core {
        Core {
            db,
            slots: VecDeque::new(),
            base: 0,
            next: 0,
            live: BTreeSet::new(),
            validation: Validation::new(config.tracker),
            pending: BTreeMap::new(),
            admission: BTreeMap::new(),
            metrics: RunMetrics::default(),
            error: None,
            active: 0,
            unanswered: 0,
            next_token: 0,
            durable,
            replica: None,
        }
    }

    /// Number of slots ever admitted (retained + evicted).
    pub(crate) fn total(&self) -> usize {
        self.base + self.slots.len()
    }

    /// The slot at `idx`, or `None` when it was never admitted or compaction
    /// evicted it — on abort paths, "terminal, nothing to do".
    pub(crate) fn slot(&self, idx: usize) -> Option<&Slot> {
        idx.checked_sub(self.base).and_then(|i| self.slots.get(i)).map(Box::as_ref)
    }

    pub(crate) fn slot_mut(&mut self, idx: usize) -> Option<&mut Slot> {
        idx.checked_sub(self.base).and_then(|i| self.slots.get_mut(i)).map(Box::as_mut)
    }

    /// The retained slot at `idx`; callers reach it through the live set or
    /// a pending entry, which name no evicted slot.
    fn live_slot(&mut self, idx: usize) -> &mut Slot {
        self.slot_mut(idx).expect("live slots are retained")
    }

    /// Whether at most one update is in flight. That one is the
    /// lowest-numbered, and stays so forever (priority numbers are monotone
    /// and terminated updates below it can never run again), so its stored
    /// reads could only be consulted when a *lower*-numbered writer
    /// validates — there will be none — and recording them (the dependency
    /// walk is the expensive half of a step) is pure overhead. Updates
    /// submitted later are numbered above it and record normally. This is
    /// what keeps the one-at-a-time `UpdateExchange` façade at near
    /// single-threaded cost.
    pub(crate) fn solo(&self) -> bool {
        self.active <= 1
    }

    /// Whether nothing is running, queued or awaiting an answer.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.active == 0 && self.pending.is_empty()
    }
}

impl Drop for Core {
    /// Handles outlive the engine: each one still held keeps the view of its
    /// update as the engine leaves it.
    fn drop(&mut self) {
        self.slots.iter().for_each(|slot| slot.detach());
    }
}

/// What one sequencer action accomplished.
pub(crate) enum DetProgress {
    /// An action was taken (or a round boundary crossed); keep going.
    Acted,
    /// Nothing is live; sleep until a submission arrives.
    Idle,
    /// The gate is closed: published frontiers await their answers and the
    /// frontier policy lets nothing act until one lands.
    AwaitingAnswer,
}

/// Lives for the whole of a [`drive_until`](EngineShared::drive_until). A caller that
/// unwinds from a panic mid-action would otherwise leave the engine
/// half-stepped and every other waiter asleep on a signal nobody will bump —
/// this guard's drop turns that into a visible engine failure instead.
struct WorkerGuard<'a> {
    shared: &'a EngineShared,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.fail(
                &mut lock(&self.shared.core),
                ChaseError::InvalidDecision(
                    "a caller panicked while driving the engine (panic in a chase step?)".into(),
                ),
            );
        }
    }
}

impl EngineShared {
    // ------------------------------------------------------------------
    // Step machinery
    // ------------------------------------------------------------------

    /// Executes one chase step for the slot at `idx`, then logs it and
    /// collects the conflicts it caused. Returns the step outcome and the
    /// consolidated abort set — the caller executes the aborts in the same
    /// action.
    fn step_and_validate(
        &self,
        core: &mut Core,
        idx: usize,
    ) -> Result<(StepOutcome, BTreeSet<UpdateId>), ChaseError> {
        let slot = &mut core.slots[idx - core.base];
        // Safety valve, checked per step so the error names the update that
        // was actually stepping when the limit tripped.
        if core.metrics.steps >= self.config.max_total_steps {
            return Err(ChaseError::StepLimitExceeded {
                update: slot.exec.id(),
                limit: self.config.max_total_steps,
            });
        }
        let outcome = slot.exec.step(&mut core.db, &self.mappings)?;
        core.metrics.steps += 1;
        core.metrics.changes += outcome.writes.iter().map(|w| w.changes.len()).sum::<usize>();
        let id = outcome.update;

        // Algorithm 4: log the step, then check every change against the
        // stored reads of higher-numbered updates and cascade.
        core.validation.log_writes(&outcome.writes);
        if !core.solo() {
            core.validation.record_reads(&core.db, &self.mappings, id, &outcome.reads);
        }
        let end = UpdateId(self.config.first_update_number + core.total() as u64);
        let to_abort = core.validation.collect_aborts(
            &core.db,
            &self.mappings,
            id,
            &outcome.writes,
            end,
            &mut core.metrics,
        );
        Ok((outcome, to_abort))
    }

    /// Rolls the slot at `idx` back: undoes its writes, withdraws its
    /// published frontier token and forgets its reads, writes and
    /// dependencies. When `validate`, the rollback is checked like a write:
    /// returns the updates whose stored reads it retroactively changed, for
    /// the caller to feed back into the abort worklist.
    fn roll_back(&self, core: &mut Core, idx: usize, validate: bool) -> Vec<UpdateId> {
        let victim = core.live_slot(idx).exec.id();
        core.db.rollback_update(victim);
        if let Some(token) = core.live_slot(idx).published.take() {
            core.pending.remove(&token.0);
            core.unanswered -= 1;
        }
        let writes = core.validation.forget(victim);
        if !validate {
            return Vec::new();
        }
        core.validation.rollback_conflicts(
            &core.db,
            &self.mappings,
            victim,
            &writes,
            &mut core.metrics,
        )
    }

    /// Performs the consolidated abort of the slot at `idx`: roll back its
    /// writes, invalidate its published frontier token, clear its logs and
    /// dependency bookkeeping, reset it to redo its initial operation.
    /// `revive` is true when the slot had already terminated — the abort
    /// brings it back into the active count and the caller must put it back
    /// into the live set.
    fn execute_abort(
        &self,
        core: &mut Core,
        idx: usize,
        revive: bool,
        validate: bool,
    ) -> Vec<UpdateId> {
        // Conflict-decided aborts pass `validate = false`: they happen inside
        // the action whose validation decided them, exactly like the
        // single-threaded reference, so no reader can slip in between and
        // validating would only skew reference metrics. The dependents of a
        // budget failure, which fires outside any validation, pass `true`.
        let undone_readers = self.roll_back(core, idx, validate);
        let slot = core.live_slot(idx);
        slot.exec.reset_for_restart();
        // A revived victim sits out its next visit, which is the rest of this
        // round (victims are numbered above the writer): restarted at once it
        // re-reads what the victims aborted with it are rewriting and
        // cascades with them again. `ConcurrentRun` applies the same rule.
        slot.sit_out = usize::from(revive);
        core.metrics.aborts += 1;
        if revive {
            core.active += 1;
        }
        self.signal.bump();
        undone_readers
    }

    /// Fails the slot at `idx` terminally (per-update step budget): its
    /// writes are rolled back, its logs and bookkeeping cleared, and the
    /// error left on the slot for its handle. Unlike an abort it does not
    /// restart. The slot stays in the `active` count until the caller has
    /// aborted the returned dependents.
    fn fail_slot(&self, core: &mut Core, idx: usize, error: ChaseError) -> Vec<UpdateId> {
        // Unlike a conflict-decided abort, a budget failure fires at an
        // arbitrary point in the schedule — its rollback can retroactively
        // invalidate reads other updates already performed, so it is always
        // validated like a write and the caller must abort the returned
        // dependents.
        let dependents = self.roll_back(core, idx, true);
        core.live_slot(idx).failed = Some(error);
        dependents
    }

    /// Quiescence garbage collection: once nothing is active or awaiting an
    /// answer, every retained read, logged write and tracker
    /// dependency is provably dead — only a still-running lower-numbered
    /// update could ever consult them again, and there is none. Dropping
    /// them keeps a long-lived engine's per-update cost flat instead of
    /// taxing update N with the whole history of updates 1..N (the wildcard
    /// reader walk alone would otherwise scan every past null-occurrence
    /// query on every change).
    ///
    /// Runs at the end of the action that retired the last active update:
    /// the next submission enters after it and finds freshly cleared logs
    /// its updates have not touched yet.
    fn maybe_gc(&self, core: &mut Core) {
        if core.active != 0 {
            return;
        }
        core.validation = Validation::new(self.config.tracker);
        self.compact(core);
        // Quiescence is a durability point: any group-commit window still
        // open is flushed so an idle engine never sits on unsynced records.
        if let Some(d) = &mut core.durable {
            if let Err(e) = d.wal.flush() {
                self.fail(core, ChaseError::InvalidDecision(format!("wal flush failed: {e}")));
                return;
            }
        }
        self.maybe_snapshot(core);
    }

    /// Evicts terminal slots past the retention horizon from the front of the
    /// table, together with their per-update log and tracker state.
    /// Front-only eviction is what keeps it sound: abort victims are always
    /// numbered strictly above the conflicting writer, so once every slot
    /// below an update is evicted (hence terminal, by induction from slot 0,
    /// which has no lower neighbours at all), no writer that could revive it
    /// or consult its reads can ever run again.
    fn compact(&self, core: &mut Core) {
        while core.slots.len() > self.config.retention_horizon {
            let Some(front) = core.slots.front() else { break };
            let terminal = front.failed.is_some() || front.exec.is_terminated();
            if !terminal || front.published.is_some() {
                break;
            }
            let slot = core.slots.pop_front().expect("front exists");
            core.base += 1;
            slot.detach();
            core.validation.forget(slot.exec.id());
        }
    }

    // ------------------------------------------------------------------
    // The sequencer: the reference round-robin loop, open world
    // ------------------------------------------------------------------

    /// Drives the sequencer on the calling thread until it goes idle, blocks
    /// on an unanswered frontier or `done` holds (tested under the lock,
    /// between actions), one action per lock acquisition so other callers
    /// can enter between two. Several threads may drive at once; each action
    /// still runs alone. A step error, or a panic mid-action, fails the
    /// engine.
    pub(crate) fn drive_until(&self, done: impl Fn(&Core) -> bool) -> Result<(), ChaseError> {
        let _guard = WorkerGuard { shared: self };
        loop {
            // Callers first (see `enter`). Each one is about to take the
            // lock, so this spins for a wake-up latency, not for a caller's
            // critical section — that is waited out inside `lock` below.
            while self.entering.load(Ordering::SeqCst) != 0 {
                std::thread::yield_now();
            }
            let mut core = lock(&self.core);
            if self.stop.load(Ordering::SeqCst) || done(&core) {
                return Ok(());
            }
            // A replica's fold acts first; it leaves every other engine, and
            // any update it neither feeds nor admits, to the sequencer.
            let progress = match self.fold_action(&mut core) {
                Some(progress) => Ok(progress),
                None => self.det_action(&mut core),
            };
            match progress {
                Ok(DetProgress::Acted) => {}
                Ok(DetProgress::Idle | DetProgress::AwaitingAnswer) => return Ok(()),
                Err(e) => {
                    self.fail(&mut core, e.clone());
                    return Err(e);
                }
            }
        }
    }

    /// One sequencer action: the body of the reference loop for the next live
    /// slot at or after the cursor. Skipping terminated slots via the live
    /// set visits exactly the indices the reference loop would act on, in the
    /// same ascending-per-round order.
    ///
    /// The frontier policy is the gate at the top. *Blocking*: while a
    /// published frontier awaits its answer the sequencer refuses to act at
    /// all — the pull-based analogue of the reference blocking in its
    /// synchronous resolver call at exactly that point in the round.
    /// *Skipping*: published slots are stepped past, and the sequencer only
    /// stops once every live slot is one (published slots stay live, so that
    /// is `unanswered >= live.len()`); an answer bumps the signal and the
    /// loop resumes. The gate is the only place that parks: a publish is an
    /// action like any other, so a driving caller never gets control back
    /// while some update is still Ready.
    pub(crate) fn det_action(&self, core: &mut Core) -> Result<DetProgress, ChaseError> {
        let stop_at = if self.config.free_running { core.live.len().max(1) } else { 1 };
        if core.unanswered >= stop_at {
            return Ok(DetProgress::AwaitingAnswer);
        }
        if core.live.is_empty() {
            return Ok(DetProgress::Idle);
        }
        // Past the gate every call is one action, counted before any of its
        // effects (a snapshot taken by the quiescence GC at its end records
        // the post-action count). WAL records carry the durable counter as
        // their stamp, which is how replay knows how many actions to
        // re-execute before injecting each one — so stepping past a
        // published slot, which moves the cursor, counts like any other.
        if let Some(d) = &mut core.durable {
            d.actions += 1;
        }
        let idx = match core.live.range(core.next..).next() {
            Some(&idx) => idx,
            None => {
                // Round boundary.
                core.next = 0;
                return Ok(DetProgress::Acted);
            }
        };
        core.next = idx + 1;
        let Some(slot) = core.slot_mut(idx) else {
            // Compaction evicted a slot a stale live entry still names;
            // evicted slots are terminal, so this is the Terminated branch in
            // disguise.
            core.live.remove(&idx);
            return Ok(DetProgress::Acted);
        };
        match slot.exec.state() {
            UpdateState::Terminated => {
                core.live.remove(&idx);
            }
            // Only the skipping policy gets past the gate with a published
            // slot live: step past it.
            UpdateState::AwaitingFrontier if slot.published.is_some() => {}
            _ if slot.sit_out > 0 => slot.sit_out -= 1,
            UpdateState::AwaitingFrontier => self.publish_frontier(core, idx),
            UpdateState::Ready => {
                if self.det_run_ready_slot(core, idx)? {
                    // It may have been the last active update. Waiters hear
                    // of the retirement here; one that saw it earlier (a
                    // status accessor needs no wake-up) and submits its next
                    // wave still enters after the collection.
                    self.maybe_gc(core);
                    self.signal.bump();
                }
                self.compact(core);
            }
        }
        Ok(DetProgress::Acted)
    }

    /// The reference `run_ready_slot`: one step, validated, with its aborts
    /// executed synchronously. Returns whether the slot left the live set and
    /// the active count for good (terminated or failed).
    fn det_run_ready_slot(&self, core: &mut Core, idx: usize) -> Result<bool, ChaseError> {
        let slot = core.live_slot(idx);
        if slot.exec.stats().steps >= self.config.max_steps_per_update {
            let err = ChaseError::StepLimitExceeded {
                update: slot.exec.id(),
                limit: self.config.max_steps_per_update,
            };
            let dependents = self.fail_slot(core, idx, err);
            // Quiescence ordering: the failed slot leaves `active` only after
            // every dependent its rollback revived has re-entered the count,
            // so `active == 0` never holds with a revived update still to run.
            self.det_abort_worklist(core, dependents, true);
            core.live.remove(&idx);
            core.active -= 1;
            return Ok(true);
        }
        let (outcome, to_abort) = self.step_and_validate(core, idx)?;
        self.det_abort_worklist(core, to_abort, false);
        if outcome.frontier_request.is_some() {
            let delay = self.config.frontier_delay_rounds;
            core.live_slot(idx).sit_out = delay;
            // Nobody waits on a published request under the skipping policy,
            // so one that need not be delayed goes out with the step that
            // raised it instead of costing its owner a round. Under blocking
            // the publish closes the gate, so doing it here would park the
            // rest of the round behind the question.
            if self.config.free_running && delay == 0 {
                self.publish_frontier(core, idx);
            }
        }
        if core.live_slot(idx).exec.state() != UpdateState::Terminated {
            return Ok(false);
        }
        core.live.remove(&idx);
        core.active -= 1;
        Ok(true)
    }

    /// Executes an abort set in ascending order; revived (previously
    /// terminated) victims rejoin the live set. `validate` (see
    /// [`Self::execute_abort`]) checks each rollback like a write and feeds
    /// the victims whose reads it retroactively invalidated back into the
    /// worklist.
    fn det_abort_worklist(
        &self,
        core: &mut Core,
        victims: impl IntoIterator<Item = UpdateId>,
        validate: bool,
    ) {
        let mut work: VecDeque<UpdateId> = victims.into_iter().collect();
        while let Some(victim) = work.pop_front() {
            let Some(vidx) = self.index_of(victim) else { continue };
            let Some(slot) = core.slot(vidx) else { continue };
            if slot.failed.is_some() {
                continue;
            }
            let was_terminated = slot.exec.is_terminated();
            work.extend(self.execute_abort(core, vidx, was_terminated, validate));
            if was_terminated {
                core.live.insert(vidx);
            }
        }
    }
}
