//! The sequencer: the state behind the engine's one sequencer lock and the
//! loop that drives it — the reference round-robin scheduler (Algorithms 3
//! and 4) in open-world form. `engine.rs` is the service shell around it.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use youtopia_core::{ChaseError, ReadQuery, StepOutcome, UpdateState};
use youtopia_storage::{Database, TupleChange, UpdateId};

use crate::conflict::direct_conflicts;
use crate::deps::DependencyTracker;
use crate::engine::{lock, EngineShared, Slot, SlotCell, SlotTable};
use crate::log::{ReadLog, WriteLog};
use crate::scheduler::SchedulingPolicy;

/// The change a rollback performs when it undoes `change`: rolling back an
/// insert deletes the tuple, rolling back a delete revives it, rolling back a
/// modification swaps the images.
fn invert_change(change: &TupleChange) -> TupleChange {
    match change {
        TupleChange::Inserted { relation, tuple, values } => {
            TupleChange::Deleted { relation: *relation, tuple: *tuple, old: values.clone() }
        }
        TupleChange::Deleted { relation, tuple, old } => {
            TupleChange::Inserted { relation: *relation, tuple: *tuple, values: old.clone() }
        }
        TupleChange::Modified { relation, tuple, old, new } => TupleChange::Modified {
            relation: *relation,
            tuple: *tuple,
            old: new.clone(),
            new: old.clone(),
        },
    }
}

/// The sequencer's state (`det_*` names the loop that drives it), all of it
/// behind the one sequencer lock: the next index of the round-robin cursor
/// plus the set of live (non-terminated, non-failed) slot indices, so a
/// long-lived engine does not re-scan thousands of terminated slots per round
/// — iterating the live set in ascending order per round visits exactly the
/// slots the reference loop would act on, in the same order — and the
/// reference scheduler's logs, dependency tracker and retained update ids.
pub(crate) struct Sequencer {
    pub(crate) next: usize,
    pub(crate) live: BTreeSet<usize>,
    pub(crate) all_ids: Vec<UpdateId>,
    pub(crate) read_log: ReadLog,
    pub(crate) write_log: WriteLog,
    pub(crate) tracker: Box<dyn DependencyTracker>,
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

/// Lives for the whole body of the chase thread. A thread that exits its loop
/// normally does so only on `stop` (or after `fail` set it); one that
/// unwinds from a panic would otherwise leave pumps and `wait()`ers blocked
/// forever on a signal nobody will bump — this guard's drop turns that into a
/// visible engine failure instead.
struct WorkerGuard<'a> {
    shared: &'a EngineShared,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        if !self.shared.stop.load(Ordering::SeqCst) {
            self.shared.fail(ChaseError::InvalidDecision(
                "engine chase thread exited unexpectedly (panic in a chase step?)".into(),
            ));
        }
    }
}

impl EngineShared {
    // ------------------------------------------------------------------
    // Step machinery
    // ------------------------------------------------------------------

    /// Records the read queries a step (or frontier resolution) performed:
    /// dependencies first, then the retained read log. The caller holds the
    /// database read lock — recording before that lock is released is what
    /// guarantees any later-committing write sees these reads when it
    /// validates.
    pub(crate) fn record_reads_locked(
        &self,
        seq: &mut Sequencer,
        db: &Database,
        reader: UpdateId,
        reads: Vec<ReadQuery>,
    ) {
        if reads.is_empty() {
            return;
        }
        // Solo fast path: if `reader` is the only in-flight update it is the
        // lowest-numbered one, and stays so forever (priority numbers are
        // monotone and terminated updates below it can never run again). Its
        // stored reads could only ever be consulted when a *lower*-numbered
        // writer validates — no such writer will ever exist — so recording
        // them (and the tracker's dependency walk, the expensive half of a
        // step) is pure overhead. Updates submitted later get numbered above
        // `reader` and record normally. This is what keeps the one-at-a-time
        // `UpdateExchange` façade at near single-threaded cost.
        if self.active.load(Ordering::SeqCst) <= 1 {
            return;
        }
        let snap = db.snapshot(reader);
        seq.tracker.record_reads(reader, &reads, &seq.write_log, &snap, &self.mappings);
        seq.read_log.record(reader, reads, &self.mappings);
    }

    /// Executes one chase step for the locked slot: write half under the
    /// database write lock, read half (analysis, logging, read recording and
    /// conflict collection) under a read lock. Returns the step outcome and
    /// the consolidated abort set — the caller executes the aborts
    /// synchronously, under the sequencer.
    fn step_and_validate(
        &self,
        seq: &mut Sequencer,
        slot: &mut Slot,
    ) -> Result<(StepOutcome, BTreeSet<UpdateId>), ChaseError> {
        // Safety valve, checked per step so the error names the update that
        // was actually stepping when the limit tripped.
        if lock(&self.metrics).steps >= self.config.scheduler.max_total_steps {
            return Err(ChaseError::StepLimitExceeded {
                update: slot.exec.id(),
                limit: self.config.scheduler.max_total_steps,
            });
        }
        let applied = {
            let mut db = self.db.write().unwrap_or_else(|e| e.into_inner());
            slot.exec.begin_step(&mut db)?
        };
        let db = self.db.read().unwrap_or_else(|e| e.into_inner());
        let outcome = slot.exec.finish_step(&db, &self.mappings, applied)?;
        {
            let mut metrics = lock(&self.metrics);
            metrics.steps += 1;
            metrics.changes += outcome.writes.iter().map(|w| w.changes.len()).sum::<usize>();
        }
        let id = outcome.update;

        // Log writes (for dependency tracking) and reads (for conflicts).
        seq.write_log.push_all(&outcome.writes);
        seq.tracker.record_writes(id, &outcome.writes);
        self.record_reads_locked(seq, &db, id, outcome.reads.clone());

        // Algorithm 4: check every change against the stored reads of
        // higher-numbered updates; cascade through the tracker.
        let changes: Vec<TupleChange> =
            outcome.writes.iter().flat_map(|w| w.changes.iter().cloned()).collect();
        let to_abort = self.collect_aborts_locked(seq, &db, id, &changes);
        Ok((outcome, to_abort))
    }

    /// Computes the consolidated abort set caused by a step's changes —
    /// direct conflicts plus the transitive read-dependents of each directly
    /// conflicting update — with the same candidate walk and request
    /// accounting as the single-threaded scheduler. The caller holds the
    /// database read lock.
    fn collect_aborts_locked(
        &self,
        seq: &Sequencer,
        db: &Database,
        writer: UpdateId,
        changes: &[TupleChange],
    ) -> BTreeSet<UpdateId> {
        let mut pending: BTreeSet<UpdateId> = BTreeSet::new();
        let conflicts = direct_conflicts(db, &self.mappings, writer, changes, &seq.read_log);
        if conflicts.is_empty() {
            return pending;
        }
        // Request counters accumulate locally so the global metrics mutex is
        // taken once, at the end — a caller's `metrics()` must not queue
        // behind the cascade walk.
        let direct_requests = conflicts.len();
        let mut cascading_requests = 0usize;
        for reader in conflicts.into_iter().map(|c| c.reader) {
            pending.insert(reader);
            // Cascade: everyone who (transitively) read from the aborted
            // reader must abort too; every request is counted, even when
            // the target is already marked (see ConcurrentRun).
            let mut stack = vec![reader];
            let mut visited: BTreeSet<UpdateId> = BTreeSet::new();
            visited.insert(reader);
            while let Some(a) = stack.pop() {
                for dependent in seq.tracker.dependents_of(a, &seq.all_ids) {
                    if dependent <= writer {
                        continue;
                    }
                    cascading_requests += 1;
                    pending.insert(dependent);
                    if visited.insert(dependent) {
                        stack.push(dependent);
                    }
                }
            }
        }
        let mut metrics = lock(&self.metrics);
        metrics.direct_conflict_requests += direct_requests;
        metrics.cascading_abort_requests += cascading_requests;
        pending
    }

    /// A rollback is a write like any other: returns the updates whose
    /// recorded reads it retroactively invalidated (checked exactly, per read
    /// query — never via the tracker, whose conservative answers would make
    /// abort waves feed on themselves under `NAIVE`). The caller feeds them
    /// back into the abort worklist.
    fn validate_rollback(
        &self,
        seq: &Sequencer,
        victim: UpdateId,
        rolled_back: &[TupleChange],
    ) -> Vec<UpdateId> {
        let mut undone_readers: Vec<UpdateId> = Vec::new();
        if rolled_back.is_empty() {
            return undone_readers;
        }
        let db = self.db.read().unwrap_or_else(|e| e.into_inner());
        for conflict in direct_conflicts(&db, &self.mappings, victim, rolled_back, &seq.read_log) {
            if !undone_readers.contains(&conflict.reader) {
                undone_readers.push(conflict.reader);
            }
        }
        drop(db);
        if !undone_readers.is_empty() {
            // One metrics acquisition after the walk — query re-evaluation
            // must not hold the global counter mutex.
            lock(&self.metrics).direct_conflict_requests += undone_readers.len();
        }
        undone_readers
    }

    /// Performs the consolidated abort of a slot whose lock the caller holds:
    /// roll back its writes, invalidate its published frontier token, clear
    /// its logs and dependency bookkeeping, reset it to redo its initial
    /// operation. `revive` is true when the slot had already terminated — the
    /// abort brings it back into the active count and the caller must put it
    /// back into the live set.
    fn execute_abort(
        &self,
        seq: &mut Sequencer,
        slot: &mut Slot,
        revive: bool,
        validate: bool,
    ) -> Vec<UpdateId> {
        let victim = slot.exec.id();
        // `validate` captures the victim's logged changes before they go
        // away; their inverses are validated like writes. Conflict-decided
        // aborts pass `false`: they happen inside the action whose
        // validation decided them, exactly like the single-threaded
        // reference, so no reader can slip in between and validating would
        // only skew reference metrics. The dependents of a budget failure,
        // which fires outside any validation, pass `true`.
        let rolled_back: Vec<TupleChange> = if validate {
            seq.write_log.changes_of(victim).map(invert_change).collect()
        } else {
            Vec::new()
        };
        {
            let mut db = self.db.write().unwrap_or_else(|e| e.into_inner());
            db.rollback_update(victim);
        }
        if let Some(token) = slot.published.take() {
            lock(&self.pending).remove(&token.0);
            self.unanswered.fetch_sub(1, Ordering::SeqCst);
        }
        slot.exec.reset_for_restart();
        // A revived victim sits out its next visit, which is the rest of this
        // round (victims are numbered above the writer): restarted at once it
        // re-reads what the victims aborted with it are rewriting and
        // cascades with them again. `ConcurrentRun` applies the same rule.
        slot.sit_out = usize::from(revive);
        seq.read_log.clear(victim);
        seq.write_log.remove_update(victim);
        seq.tracker.note_abort(victim);
        seq.tracker.clear_update(victim);
        lock(&self.metrics).aborts += 1;
        let undone_readers = self.validate_rollback(seq, victim, &rolled_back);
        if revive {
            self.active.fetch_add(1, Ordering::SeqCst);
        }
        self.signal.bump();
        undone_readers
    }

    /// Fails the locked slot terminally (per-update step budget): its writes
    /// are rolled back, its logs and bookkeeping cleared, and the error left
    /// on the slot for its handle. Unlike an abort it does not restart. The
    /// slot stays in the `active` count until the caller has aborted the
    /// returned dependents.
    fn fail_slot(&self, seq: &mut Sequencer, slot: &mut Slot, error: ChaseError) -> Vec<UpdateId> {
        let victim = slot.exec.id();
        // Unlike a conflict-decided abort, a budget failure fires at an
        // arbitrary point in the schedule — its rollback can retroactively
        // invalidate reads other updates already performed, so it is always
        // validated like a write and the caller must abort the returned
        // dependents.
        let rolled_back: Vec<TupleChange> =
            seq.write_log.changes_of(victim).map(invert_change).collect();
        {
            let mut db = self.db.write().unwrap_or_else(|e| e.into_inner());
            db.rollback_update(victim);
        }
        if let Some(token) = slot.published.take() {
            lock(&self.pending).remove(&token.0);
            self.unanswered.fetch_sub(1, Ordering::SeqCst);
        }
        seq.read_log.clear(victim);
        seq.write_log.remove_update(victim);
        seq.tracker.clear_update(victim);
        slot.failed = Some(error);
        self.validate_rollback(seq, victim, &rolled_back)
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
    /// Runs at the end of the action that retired the last active update,
    /// under the sequencer lock: the next submission enters after it and
    /// finds freshly cleared logs its updates have not touched yet.
    fn maybe_gc(&self, seq: &mut Sequencer) {
        if self.active.load(Ordering::SeqCst) != 0 {
            return;
        }
        seq.read_log = ReadLog::default();
        seq.write_log = WriteLog::default();
        seq.tracker = self.config.scheduler.tracker.build();
        // The shared violation index's delta backlog is dead for the same
        // reason: only live executions hold cursors into it, and there are
        // none. Dropping it (rather than letting the cap drain it lazily)
        // means a huge quiescent workload cannot leave buffered deltas pinned
        // across idle periods; any later-admitted update starts at the
        // post-truncation sequence, and a stale cursor would surface as a gap
        // (all-dirty fallback), not a missed delta.
        crate::viewmaint::clear(&mut self.db.write().unwrap_or_else(|e| e.into_inner()));
        let mut slots = self.slots.write().unwrap_or_else(|e| e.into_inner());
        self.compact_locked(seq, &mut slots);
        // Quiescence is a durability point: any group-commit window still
        // open is flushed so an idle engine never sits on unsynced records.
        if let Some(d) = &self.durable {
            if let Err(e) = lock(&d.wal).flush() {
                self.fail(ChaseError::InvalidDecision(format!("wal flush failed: {e}")));
                return;
            }
        }
        self.maybe_snapshot_locked(&slots);
    }

    /// Evicts terminal slots past the retention horizon from the front of the
    /// locked table, together with their per-update log and tracker state.
    /// Front-only eviction is what keeps it sound: abort victims are always
    /// numbered strictly above the conflicting writer, so once every slot
    /// below an update is evicted (hence terminal, by induction from slot 0,
    /// which has no lower neighbours at all), no writer that could revive it
    /// or consult its reads can ever run again.
    fn compact_locked(&self, seq: &mut Sequencer, slots: &mut SlotTable) {
        let horizon = self.config.retention_horizon;
        while slots.cells.len() > horizon {
            let Some(front) = slots.cells.front() else { break };
            let Ok(slot) = front.try_lock() else { break };
            let terminal = slot.failed.is_some() || slot.exec.is_terminated();
            if !terminal || slot.published.is_some() {
                break;
            }
            let id = slot.exec.id();
            drop(slot);
            slots.cells.pop_front();
            slots.base += 1;
            seq.read_log.clear(id);
            seq.write_log.remove_update(id);
            seq.tracker.clear_update(id);
            if let Ok(pos) = seq.all_ids.binary_search(&id) {
                seq.all_ids.remove(pos);
            }
        }
    }

    /// Opportunistic compaction: a cheap read-locked length check, then the
    /// write-locked eviction walk only when the horizon is actually exceeded.
    fn maybe_compact(&self, seq: &mut Sequencer) {
        if self.config.retention_horizon == usize::MAX {
            return;
        }
        {
            let slots = self.slots.read().unwrap_or_else(|e| e.into_inner());
            if slots.cells.len() <= self.config.retention_horizon {
                return;
            }
        }
        let mut slots = self.slots.write().unwrap_or_else(|e| e.into_inner());
        self.compact_locked(seq, &mut slots);
    }

    // ------------------------------------------------------------------
    // The sequencer: the reference round-robin loop, open world
    // ------------------------------------------------------------------

    /// Body of the chase thread: drives the sequencer, asleep on the signal
    /// while there is nothing to act on.
    pub(crate) fn sequencer_thread(&self) {
        let _guard = WorkerGuard { shared: self };
        loop {
            // Generation first, then the stop flag and the actions: any event
            // that would unblock the sequencer (submission, answer, `halt`)
            // after this capture moves the generation and makes the wait
            // below return immediately; any event before it is visible to the
            // check or the last `det_action`. No lost wakeups.
            let gen = self.signal.current();
            if self.stop.load(Ordering::SeqCst) || self.drive().is_err() {
                break;
            }
            self.signal.wait_past(gen);
        }
    }

    /// Drives the sequencer — on the chase thread, or on the calling thread
    /// of an inline engine — until it goes idle or blocks on an unanswered
    /// frontier, one action per lock acquisition so callers can enter between
    /// two. A step error fails the engine.
    pub(crate) fn drive(&self) -> Result<(), ChaseError> {
        loop {
            // Callers first (see `enter`). Each one is about to take the
            // lock, so this spins for a wake-up latency, not for a caller's
            // critical section — that is waited out inside `lock` below.
            while self.entering.load(Ordering::SeqCst) != 0 {
                std::thread::yield_now();
            }
            // A *blocking* lock, never `try_lock` + sleep: the mutex handoff
            // is what keeps the sequencer live across a caller's release,
            // which need not be followed by a signal bump.
            let mut seq = lock(&self.sequencer);
            if self.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            match self.det_action(&mut seq) {
                Ok(DetProgress::Acted) => {}
                Ok(DetProgress::Idle | DetProgress::AwaitingAnswer) => return Ok(()),
                Err(e) => {
                    drop(seq);
                    self.fail(e.clone());
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
    /// action like any other, so an inline caller never gets control back
    /// while some update is still Ready.
    pub(crate) fn det_action(&self, seq: &mut Sequencer) -> Result<DetProgress, ChaseError> {
        let unanswered = self.unanswered.load(Ordering::SeqCst);
        let stop_at = if self.config.free_running { seq.live.len().max(1) } else { 1 };
        if unanswered >= stop_at {
            return Ok(DetProgress::AwaitingAnswer);
        }
        if seq.live.is_empty() {
            return Ok(DetProgress::Idle);
        }
        // Past the gate every call is one action, counted before any of its
        // effects (a snapshot taken by the quiescence GC at its end records
        // the post-action count). WAL records carry the durable counter as
        // their stamp, which is how replay knows how many actions to
        // re-execute before injecting each one — so stepping past a
        // published slot, which moves the cursor, counts like any other.
        if let Some(d) = &self.durable {
            d.actions.fetch_add(1, Ordering::SeqCst);
        }
        let idx = match seq.live.range(seq.next..).next() {
            Some(&idx) => idx,
            None => {
                // Round boundary.
                seq.next = 0;
                return Ok(DetProgress::Acted);
            }
        };
        seq.next = idx + 1;
        let Some(cell) = self.slot_cell(idx) else {
            // Compaction (which runs under this same lock) evicted a slot a
            // stale live entry still names; evicted slots are terminal, so
            // this is the Terminated branch in disguise.
            seq.live.remove(&idx);
            return Ok(DetProgress::Acted);
        };
        let mut slot = lock(&cell);
        match slot.exec.state() {
            UpdateState::Terminated => {
                seq.live.remove(&idx);
            }
            // Only the skipping policy gets past the gate with a published
            // slot live: step past it.
            UpdateState::AwaitingFrontier if slot.published.is_some() => {}
            _ if slot.sit_out > 0 => slot.sit_out -= 1,
            UpdateState::AwaitingFrontier => self.publish_frontier(&mut slot, idx),
            UpdateState::Ready => {
                drop(slot);
                if self.det_run_ready_slot(seq, idx, &cell)? {
                    // It may have been the last active update; all slot locks
                    // are released again at this point. Waiters hear of the
                    // retirement here; one that saw it earlier (a status
                    // accessor needs no wake-up) and submits its next wave
                    // still enters after the collection.
                    self.maybe_gc(seq);
                    self.signal.bump();
                }
                self.maybe_compact(seq);
            }
        }
        Ok(DetProgress::Acted)
    }

    /// The reference `run_ready_slot`: step, validate, abort synchronously,
    /// honour the scheduling policy. The whole routine runs under the
    /// sequencer, which is the only stepper and aborter; a victim's lock is
    /// held at most briefly by a caller thread (a status read). Returns
    /// whether the slot left the live set and the active count for good
    /// (terminated or failed).
    fn det_run_ready_slot(
        &self,
        seq: &mut Sequencer,
        idx: usize,
        cell: &Arc<SlotCell>,
    ) -> Result<bool, ChaseError> {
        loop {
            let mut slot = lock(cell);
            if slot.exec.stats().steps >= self.config.max_steps_per_update {
                let err = ChaseError::StepLimitExceeded {
                    update: slot.exec.id(),
                    limit: self.config.max_steps_per_update,
                };
                let dependents = self.fail_slot(seq, &mut slot, err);
                drop(slot);
                // Quiescence ordering: the failed slot leaves `active` only
                // after every dependent its rollback revived has re-entered
                // the count. The other way round, a concurrent
                // `wait_quiescent` could observe `active == 0` between the
                // two with a revived update still to run.
                self.det_abort_worklist(seq, dependents, true);
                seq.live.remove(&idx);
                self.active.fetch_sub(1, Ordering::SeqCst);
                return Ok(true);
            }
            let (outcome, to_abort) = self.step_and_validate(seq, &mut slot)?;
            drop(slot);
            self.det_abort_worklist(seq, to_abort, false);
            let mut slot = lock(cell);
            if outcome.frontier_request.is_some() {
                slot.sit_out = self.config.scheduler.frontier_delay_rounds;
                // Nobody waits on a published request under the skipping
                // policy, so one that need not be delayed goes out with the
                // step that raised it instead of costing its owner a round.
                // Under blocking the publish closes the gate, so doing it
                // here would park the rest of the round behind the question.
                if self.config.free_running && slot.sit_out == 0 {
                    self.publish_frontier(&mut slot, idx);
                }
            }
            if slot.exec.is_terminated() {
                seq.live.remove(&idx);
                self.active.fetch_sub(1, Ordering::SeqCst);
                return Ok(true);
            }
            // Step-level round robin hands control back after one step; the
            // stratum policy keeps going while the update remains ready.
            if self.config.scheduler.policy == SchedulingPolicy::StepRoundRobin
                || slot.exec.state() != UpdateState::Ready
            {
                return Ok(false);
            }
        }
    }

    /// Executes an abort set under the sequencer, in ascending order; revived
    /// (previously terminated) victims rejoin the live set. `validate` (see
    /// [`Self::execute_abort`]) checks each rollback like a write and feeds
    /// the victims whose reads it retroactively invalidated back into the
    /// worklist.
    fn det_abort_worklist(
        &self,
        seq: &mut Sequencer,
        victims: impl IntoIterator<Item = UpdateId>,
        validate: bool,
    ) {
        let mut work: VecDeque<UpdateId> = victims.into_iter().collect();
        while let Some(victim) = work.pop_front() {
            let Some((vidx, cell)) = self.lookup_cell(victim) else { continue };
            let mut slot = lock(&cell);
            if slot.failed.is_some() {
                continue;
            }
            let was_terminated = slot.exec.is_terminated();
            work.extend(self.execute_abort(seq, &mut slot, was_terminated, validate));
            if was_terminated {
                seq.live.insert(vidx);
            }
        }
    }
}
