//! Youtopia updates and their chase-step execution model (Definition 2.6,
//! Algorithms 1 and 2).
//!
//! An [`UpdateExecution`] is the state machine of one update: the initial user
//! operation plus every database modification the chase performs on its
//! behalf, including the frontier operations supplied by users. The reference
//! scheduler and the long-lived `ExchangeEngine` (in `youtopia-concurrency`)
//! interleave many executions at chase-step granularity, on one thread; the single-update
//! facade `UpdateExchange` there drives one at a time.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use youtopia_mappings::{violations_from_change, MappingSet, Violation, ViolationKind};
use youtopia_storage::{
    specialization, substitute_nulls, AppliedWrite, DataView, Database, NullId, RelationId,
    TupleData, TupleId, UpdateId, Value, Write,
};

use crate::error::ChaseError;
use crate::frontier::{
    FrontierDecision, FrontierRequest, FrontierTuple, NegativeFrontier, PositiveAction,
    PositiveFrontier,
};
use crate::read_query::{more_specific_tuples, ReadQuery};

/// The initial user operation that starts an update (Section 2): a tuple
/// insertion, a tuple deletion, or a null-replacement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InitialOp {
    /// Insert a tuple.
    Insert {
        /// Target relation.
        relation: RelationId,
        /// Values (constants or labeled nulls).
        values: Vec<Value>,
    },
    /// Delete a tuple.
    Delete {
        /// The tuple's relation.
        relation: RelationId,
        /// The tuple to delete.
        tuple: TupleId,
    },
    /// Replace all occurrences of a labeled null with a constant.
    NullReplace {
        /// The null to replace.
        null: NullId,
        /// The replacement value.
        replacement: Value,
    },
}

impl InitialOp {
    /// The corresponding write operation.
    pub fn to_write(&self) -> Write {
        match self {
            InitialOp::Insert { relation, values } => {
                Write::Insert { relation: *relation, values: values.clone() }
            }
            InitialOp::Delete { relation, tuple } => {
                Write::Delete { relation: *relation, tuple: *tuple }
            }
            InitialOp::NullReplace { null, replacement } => {
                Write::NullReplace { null: *null, replacement: *replacement }
            }
        }
    }

    /// An update is *positive* if its initial operation was an insertion or a
    /// null-completion, and *negative* if it was a deletion (Definition 2.6).
    pub fn is_positive(&self) -> bool {
        !matches!(self, InitialOp::Delete { .. })
    }
}

/// Where an update currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateState {
    /// The update has pending writes (or queued violations) and can take a
    /// chase step.
    Ready,
    /// The update is blocked waiting for a frontier operation.
    AwaitingFrontier,
    /// The update has terminated: no pending writes and no live violations.
    Terminated,
}

/// Counters describing one update's execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Chase steps executed.
    pub steps: usize,
    /// Frontier operations received.
    pub frontier_ops: usize,
    /// Tuple-level changes written.
    pub changes: usize,
    /// Violations enqueued over the update's lifetime.
    pub violations_seen: usize,
    /// Times this execution was reset for a restart after an abort.
    pub restarts: usize,
}

/// Summary of one completed update.
///
/// There is exactly one way a report comes into existence —
/// [`UpdateReport::for_execution`] over the update's [`UpdateExecution`] — so
/// the single-update facade, the batch schedulers and the long-lived engine
/// all assemble their per-update metrics through the same path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateReport {
    /// The update's priority number.
    pub update: UpdateId,
    /// Execution counters.
    pub stats: UpdateStats,
    /// Whether the update terminated (it always does unless a step limit
    /// was hit).
    pub terminated: bool,
}

impl UpdateReport {
    /// The report describing `exec` as it currently stands.
    pub fn for_execution(exec: &UpdateExecution) -> UpdateReport {
        UpdateReport { update: exec.id(), stats: exec.stats(), terminated: exec.is_terminated() }
    }
}

/// The outcome of one chase step (Algorithm 2), as observed by the scheduler.
#[derive(Clone, Debug)]
pub struct StepOutcome {
    /// The update that took the step.
    pub update: UpdateId,
    /// Writes performed at the start of the step, with their effects.
    pub writes: Vec<AppliedWrite>,
    /// Read queries performed by the step (violation + correction queries).
    pub reads: Vec<ReadQuery>,
    /// Number of new violations discovered.
    pub new_violations: usize,
    /// Frontier request, if the step ended blocked on user input.
    pub frontier_request: Option<FrontierRequest>,
    /// The update's state after the step.
    pub state: UpdateState,
}

/// How a chase execution maintains its violation queue and repair plans
/// across steps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChaseMode {
    /// Delta-driven maintenance (the default): the queue is indexed by the
    /// relations each violation reads, `still_violated` only re-runs on
    /// violations whose read relations' write epochs moved since their last
    /// check, and each queued violation keeps a memoised repair plan that is
    /// invalidated by the same epoch test. Step cost is proportional to what
    /// changed, not to what is queued.
    #[default]
    Incremental,
    /// The pre-optimisation reference path: every step re-runs
    /// `still_violated` over the whole queue and re-plans every violation
    /// until a deterministic one is found. Kept for differential testing
    /// (`tests/queue_equivalence.rs`) and the `chase/end_to_end` benchmark
    /// baseline, mirroring how `replan_violation_queries_for_change` backs
    /// the compiled-plan cache.
    FullRecheck,
}

/// One queued violation together with the bookkeeping the delta-driven queue
/// needs: the relations it reads, the epochs those relations had when the
/// violation was last known to be live, and the memoised repair plan.
#[derive(Clone, Debug)]
struct QueuedViolation {
    violation: Violation,
    /// Relations whose writes can change this violation's status or repair
    /// ([`Violation::read_relations`]).
    read_relations: Vec<RelationId>,
    /// `read_relations`' write epochs at the last `still_violated` check (or
    /// at discovery). While they all still match the store, the violation is
    /// live without re-evaluating anything.
    checked_epochs: Vec<u64>,
    /// Memoised repair plan, reusable while its epochs match the store.
    plan: Option<MemoisedPlan>,
}

/// A repair plan computed in an earlier step, valid while the epochs of the
/// violation's read relations are unchanged. The plan's read queries were
/// logged when it was computed and stay live in the concurrency layer's read
/// log until the owning update terminates or aborts, so reusing the plan
/// never loses a conflict.
#[derive(Clone, Debug)]
struct MemoisedPlan {
    plan: RepairPlan,
    /// Write epochs of the violation's read relations at plan time.
    epochs: Vec<u64>,
}

/// The execution state machine of a single Youtopia update.
#[derive(Clone, Debug)]
pub struct UpdateExecution {
    id: UpdateId,
    initial: InitialOp,
    mode: ChaseMode,
    state: UpdateState,
    pending_writes: Vec<Write>,
    /// The violation queue, keyed by a monotonically increasing enqueue
    /// sequence number so iteration preserves discovery order (the order the
    /// old `VecDeque` queue repaired in).
    viol_queue: BTreeMap<u64, QueuedViolation>,
    next_viol_seq: u64,
    /// Hash membership of the queue (dedup of re-discovered violations).
    queued_set: HashSet<Violation>,
    /// relation → (the relation's write epoch when this execution last
    /// looked, enqueue numbers of the queued violations reading it). A step
    /// re-examines the violations of exactly the relations whose epoch moved
    /// past that watermark.
    queue_index: HashMap<RelationId, (u64, BTreeSet<u64>)>,
    pending_frontier: Option<FrontierRequest>,
    stats: UpdateStats,
}

#[derive(Clone, Debug)]
enum RepairPlan {
    Deterministic(Vec<Write>),
    Frontier(FrontierRequest),
}

impl UpdateExecution {
    /// Creates the execution for an update with priority number `id`, using
    /// the default delta-driven queue maintenance.
    pub fn new(id: UpdateId, initial: InitialOp) -> UpdateExecution {
        UpdateExecution::with_mode(id, initial, ChaseMode::default())
    }

    /// Creates the execution with an explicit [`ChaseMode`] (tests and
    /// benchmarks use [`ChaseMode::FullRecheck`] as the reference path).
    pub fn with_mode(id: UpdateId, initial: InitialOp, mode: ChaseMode) -> UpdateExecution {
        let first_write = initial.to_write();
        UpdateExecution {
            id,
            initial,
            mode,
            state: UpdateState::Ready,
            pending_writes: vec![first_write],
            viol_queue: BTreeMap::new(),
            next_viol_seq: 0,
            queued_set: HashSet::new(),
            queue_index: HashMap::new(),
            pending_frontier: None,
            stats: UpdateStats::default(),
        }
    }

    /// Rebuilds an execution from a durable snapshot: the id, initial
    /// operation and counters survive; the violation queue does not need to
    /// (snapshots are only taken at engine quiescence, where every retained
    /// execution is either terminated or failed — nothing mid-chase). A
    /// restored terminated execution reports exactly what the original did
    /// through [`UpdateReport::for_execution`].
    pub fn restored(
        id: UpdateId,
        initial: InitialOp,
        stats: UpdateStats,
        terminated: bool,
    ) -> UpdateExecution {
        let mut exec = UpdateExecution::new(id, initial);
        exec.stats = stats;
        if terminated {
            exec.state = UpdateState::Terminated;
            exec.pending_writes.clear();
        }
        exec
    }

    /// The queue-maintenance mode this execution runs with.
    pub fn mode(&self) -> ChaseMode {
        self.mode
    }

    /// The update's priority number.
    pub fn id(&self) -> UpdateId {
        self.id
    }

    /// The initial user operation.
    pub fn initial(&self) -> &InitialOp {
        &self.initial
    }

    /// Current state.
    pub fn state(&self) -> UpdateState {
        self.state
    }

    /// Whether the update has terminated.
    pub fn is_terminated(&self) -> bool {
        self.state == UpdateState::Terminated
    }

    /// The pending frontier request, if the update is blocked.
    pub fn pending_frontier(&self) -> Option<&FrontierRequest> {
        self.pending_frontier.as_ref()
    }

    /// Number of violations currently queued.
    pub fn queued_violations(&self) -> usize {
        self.viol_queue.len()
    }

    /// The queued violations in queue (discovery) order. Exposed for the
    /// queue-equivalence differential tests.
    pub fn queued_violation_list(&self) -> Vec<Violation> {
        self.viol_queue.values().map(|e| e.violation.clone()).collect()
    }

    /// The reference implementation of queue maintenance, kept for
    /// differential testing (mirroring the compiled-plan cache's
    /// `replan_violation_queries_for_change` reference): re-runs
    /// `still_violated` over the *whole* queue on this update's current
    /// snapshot and returns the violations that survive, in queue order.
    /// After every step of a [`ChaseMode::Incremental`] execution the queue
    /// must equal exactly this set (pinned by `tests/queue_equivalence.rs`);
    /// a [`ChaseMode::FullRecheck`] execution retains exactly this set as its
    /// in-step maintenance.
    pub fn recheck_all_violations(&self, db: &Database, mappings: &MappingSet) -> Vec<Violation> {
        let snap = db.snapshot(self.id);
        self.viol_queue
            .values()
            .filter(|e| e.violation.still_violated(&snap, mappings.get(e.violation.mapping)))
            .map(|e| e.violation.clone())
            .collect()
    }

    /// Execution counters.
    pub fn stats(&self) -> UpdateStats {
        self.stats
    }

    /// Resets the execution to redo the update from its initial operation
    /// (used after an abort; the writes themselves are rolled back by the
    /// database).
    pub fn reset_for_restart(&mut self) {
        self.state = UpdateState::Ready;
        self.pending_writes = vec![self.initial.to_write()];
        self.viol_queue.clear();
        self.queued_set.clear();
        self.queue_index.clear();
        self.pending_frontier = None;
        self.stats.restarts += 1;
    }

    /// Enqueues a newly discovered violation (the caller has already checked
    /// `queued_set` for membership), indexing it under the relations it reads
    /// and stamping the current write epochs.
    fn enqueue(&mut self, db: &Database, mappings: &MappingSet, violation: Violation) {
        let tgd = mappings.get(violation.mapping);
        let read_relations = violation.read_relations(tgd);
        let checked_epochs: Vec<u64> =
            read_relations.iter().map(|r| db.relation_epoch(*r)).collect();
        let seq = self.next_viol_seq;
        self.next_viol_seq += 1;
        for (&relation, &epoch) in read_relations.iter().zip(&checked_epochs) {
            self.queue_index
                .entry(relation)
                .or_insert_with(|| (epoch, BTreeSet::new()))
                .1
                .insert(seq);
        }
        self.queued_set.insert(violation.clone());
        self.viol_queue
            .insert(seq, QueuedViolation { violation, read_relations, checked_epochs, plan: None });
    }

    /// Removes a queue entry, unregistering it from the membership set and
    /// the relation index.
    fn remove_entry(&mut self, seq: u64) {
        let Some(entry) = self.viol_queue.remove(&seq) else { return };
        self.queued_set.remove(&entry.violation);
        for relation in entry.read_relations {
            if let Some((_, seqs)) = self.queue_index.get_mut(&relation) {
                seqs.remove(&seq);
                if seqs.is_empty() {
                    self.queue_index.remove(&relation);
                }
            }
        }
    }

    /// Delta-driven queue maintenance: re-runs `still_violated` only on the
    /// violations indexed under a relation that changed since this update
    /// last looked — everything else is provably unchanged. Dirty relations
    /// cover this step's own writes as well as writes and rollbacks other
    /// updates performed since our previous step.
    ///
    /// The change signal is each watched relation's write epoch against the
    /// watermark stored beside its enqueue numbers (cost: one integer compare
    /// per watched relation). A moved relation over-approximates "some queued
    /// violation's checked epoch moved"; the per-entry epoch compare below
    /// filters exactly.
    fn recheck_touched(&mut self, db: &Database, view: &dyn DataView, mappings: &MappingSet) {
        let mut candidates: BTreeSet<u64> = BTreeSet::new();
        for (relation, (seen, seqs)) in &mut self.queue_index {
            let now = db.relation_epoch(*relation);
            if now != *seen {
                *seen = now;
                candidates.extend(seqs.iter().copied());
            }
        }
        for seq in candidates {
            let alive = {
                let Some(entry) = self.viol_queue.get_mut(&seq) else { continue };
                let unchanged = entry
                    .read_relations
                    .iter()
                    .zip(entry.checked_epochs.iter())
                    .all(|(r, e)| db.relation_epoch(*r) == *e);
                if unchanged {
                    // Every epoch this violation reads matches its stamp:
                    // nothing it depends on changed.
                    continue;
                }
                if entry.violation.still_violated(view, mappings.get(entry.violation.mapping)) {
                    entry.checked_epochs =
                        entry.read_relations.iter().map(|r| db.relation_epoch(*r)).collect();
                    true
                } else {
                    false
                }
            };
            if !alive {
                self.remove_entry(seq);
            }
        }
    }

    /// Reference queue maintenance ([`ChaseMode::FullRecheck`]): the old
    /// whole-queue `retain` over `still_violated`.
    fn recheck_everything(&mut self, view: &dyn DataView, mappings: &MappingSet) {
        let stale: Vec<u64> = self
            .viol_queue
            .iter()
            .filter(|(_, e)| !e.violation.still_violated(view, mappings.get(e.violation.mapping)))
            .map(|(seq, _)| *seq)
            .collect();
        for seq in stale {
            self.remove_entry(seq);
        }
    }

    /// Executes one chase step (Algorithm 2): performs the pending writes,
    /// detects the new violations they cause, re-checks queued violations, and
    /// either schedules corrective writes for the next step or emits a
    /// frontier request.
    pub fn step(
        &mut self,
        db: &mut Database,
        mappings: &MappingSet,
    ) -> Result<StepOutcome, ChaseError> {
        let applied = self.begin_step(db)?;
        self.finish_step(db, mappings, applied)
    }

    /// The write half of a chase step: performs the writes scheduled by the
    /// previous step (or the initial user operation) and returns their
    /// effects.
    fn begin_step(&mut self, db: &mut Database) -> Result<Vec<AppliedWrite>, ChaseError> {
        if self.state != UpdateState::Ready {
            return Err(ChaseError::NotReady(self.id));
        }
        self.stats.steps += 1;

        // Perform the writes scheduled by the previous step (or the initial
        // user operation). The write set is handed over wholesale so the
        // batch fast path can move the writes into the log records instead
        // of cloning them.
        let writes = std::mem::take(&mut self.pending_writes);
        let applied = db.apply_all_owned(writes, self.id)?;
        self.stats.changes += applied.iter().map(|w| w.changes.len()).sum::<usize>();
        Ok(applied)
    }

    /// The read half of a chase step: violation detection, queue maintenance
    /// and repair planning over the writes `applied` by [`Self::begin_step`].
    /// Only needs a shared database borrow (fresh nulls come from an atomic
    /// counter). Every read it performs is returned in the [`StepOutcome`]
    /// for logging, so a later conflict check can abort this update if one
    /// of those reads was premature.
    fn finish_step(
        &mut self,
        db: &Database,
        mappings: &MappingSet,
        applied: Vec<AppliedWrite>,
    ) -> Result<StepOutcome, ChaseError> {
        let mut reads: Vec<ReadQuery> = Vec::new();
        let mut new_violations = 0usize;

        // 2. Queue maintenance + violation queries. The incremental mode
        //    re-checks only violations indexed under a relation whose write
        //    epoch moved (its own writes this step, or anything other updates
        //    did since its previous step); the reference mode re-checks the
        //    whole queue after detection, like the pre-optimisation chase.
        {
            let snap = db.snapshot(self.id);
            if self.mode == ChaseMode::Incremental {
                self.recheck_touched(db, &snap, mappings);
            }
            for aw in &applied {
                for change in &aw.changes {
                    let (queries, violations) = violations_from_change(&snap, mappings, change);
                    reads.extend(queries.into_iter().map(ReadQuery::Violation));
                    for v in violations {
                        if self.queued_set.contains(&v) {
                            continue;
                        }
                        new_violations += 1;
                        self.stats.violations_seen += 1;
                        self.enqueue(db, mappings, v);
                    }
                }
            }
            if self.mode == ChaseMode::FullRecheck {
                // Remove violations the writes have (directly or indirectly)
                // repaired, and violations whose witnesses vanished.
                self.recheck_everything(&snap, mappings);
            }
        }

        // 3. Pick the next violation, preferring deterministically repairable
        //    ones; generate its corrective writes or a frontier request. The
        //    incremental mode reuses each violation's memoised plan while the
        //    write epochs of its read relations are unchanged — the plan (and
        //    its logged reads) can only be stale if one of those relations
        //    was written.
        let mut chosen: Option<(u64, RepairPlan)> = None;
        let seqs: Vec<u64> = self.viol_queue.keys().copied().collect();
        for seq in seqs {
            let plan = match self.mode {
                ChaseMode::FullRecheck => {
                    let violation =
                        self.viol_queue.get(&seq).expect("seq collected above").violation.clone();
                    let (plan, plan_reads) = self.plan_repair(db, mappings, &violation);
                    reads.extend(plan_reads);
                    plan
                }
                ChaseMode::Incremental => {
                    // Epoch validation compares in place; the epoch vector is
                    // only materialised when a fresh memo is stored.
                    let entry = self.viol_queue.get(&seq).expect("seq collected above");
                    let memo = entry.plan.as_ref().filter(|m| {
                        entry
                            .read_relations
                            .iter()
                            .zip(m.epochs.iter())
                            .all(|(r, e)| db.relation_epoch(*r) == *e)
                    });
                    match memo {
                        Some(memo) => memo.plan.clone(),
                        None => {
                            let violation = entry.violation.clone();
                            let current: Vec<u64> = entry
                                .read_relations
                                .iter()
                                .map(|r| db.relation_epoch(*r))
                                .collect();
                            let (plan, plan_reads) = self.plan_repair(db, mappings, &violation);
                            reads.extend(plan_reads);
                            let entry = self.viol_queue.get_mut(&seq).expect("seq collected above");
                            entry.plan = Some(MemoisedPlan { plan: plan.clone(), epochs: current });
                            plan
                        }
                    }
                }
            };
            let deterministic = matches!(plan, RepairPlan::Deterministic(_));
            if chosen.is_none() || deterministic {
                chosen = Some((seq, plan));
            }
            if deterministic {
                break;
            }
        }

        let mut frontier_request = None;
        match chosen {
            Some((seq, RepairPlan::Deterministic(corrective))) => {
                self.remove_entry(seq);
                self.pending_writes = corrective;
                self.state = UpdateState::Ready;
            }
            Some((seq, RepairPlan::Frontier(request))) => {
                self.remove_entry(seq);
                frontier_request = Some(request.clone());
                self.pending_frontier = Some(request);
                self.state = UpdateState::AwaitingFrontier;
            }
            None => {
                // No live violations remain.
                self.state = if self.pending_writes.is_empty() {
                    UpdateState::Terminated
                } else {
                    UpdateState::Ready
                };
            }
        }

        Ok(StepOutcome {
            update: self.id,
            writes: applied,
            reads,
            new_violations,
            frontier_request,
            state: self.state,
        })
    }

    /// Supplies the user's decision for the pending frontier request. The
    /// resulting corrective writes become the next step's write set; the
    /// returned correction queries ([`ReadQuery::NullOccurrences`]) must be
    /// logged by the concurrency layer (Section 5 explains they are checked
    /// against writes that occur logically after them).
    pub fn resolve_frontier(
        &mut self,
        mappings: &MappingSet,
        decision: FrontierDecision,
    ) -> Result<Vec<ReadQuery>, ChaseError> {
        let Some(request) = self.pending_frontier.take() else {
            return Err(ChaseError::NoPendingFrontier(self.id));
        };
        let result = match (&request, decision) {
            (FrontierRequest::Positive(pf), FrontierDecision::Positive(actions)) => {
                self.apply_positive(pf, &actions)
            }
            (FrontierRequest::Negative(nf), FrontierDecision::Negative(delete)) => {
                self.apply_negative(mappings, nf, &delete)
            }
            _ => Err(ChaseError::InvalidDecision(
                "decision kind does not match the pending frontier request".into(),
            )),
        };
        match result {
            Ok(reads) => {
                self.stats.frontier_ops += 1;
                self.state = UpdateState::Ready;
                Ok(reads)
            }
            Err(e) => {
                // Restore the request so the user can retry.
                self.pending_frontier = Some(request);
                Err(e)
            }
        }
    }

    fn apply_positive(
        &mut self,
        pf: &PositiveFrontier,
        actions: &[PositiveAction],
    ) -> Result<Vec<ReadQuery>, ChaseError> {
        if actions.len() != pf.tuples.len() {
            return Err(ChaseError::InvalidDecision(format!(
                "expected {} actions, got {}",
                pf.tuples.len(),
                actions.len()
            )));
        }
        // Phase 1: collect the unification substitution. Unifications are
        // processed in tuple order; frontier tuples in the same group share
        // freshly generated nulls, so a later unification can contradict an
        // earlier one. Such a contradictory unification degrades to an
        // expansion (the generated tuple is inserted, with the substitution
        // collected so far applied), which still repairs the violation.
        let mut subst: BTreeMap<NullId, Value> = BTreeMap::new();
        let mut effective: Vec<PositiveAction> = Vec::with_capacity(actions.len());
        for (tuple, action) in pf.tuples.iter().zip(actions.iter()) {
            if let PositiveAction::Unify { with } = action {
                let Some((_, target)) = tuple.candidates.iter().find(|(id, _)| id == with) else {
                    return Err(ChaseError::InvalidDecision(format!(
                        "tuple {with} is not a unification candidate"
                    )));
                };
                let Some(map) = specialization(&tuple.values, target) else {
                    return Err(ChaseError::InvalidDecision(format!(
                        "tuple {with} is not more specific than the frontier tuple"
                    )));
                };
                let conflicts = map
                    .iter()
                    .any(|(null, value)| subst.get(null).is_some_and(|existing| existing != value));
                if conflicts {
                    effective.push(PositiveAction::Expand);
                    continue;
                }
                for (null, value) in map {
                    subst.insert(null, value);
                }
            }
            effective.push(action.clone());
        }
        let actions = &effective;
        // Phase 2: correction queries and writes.
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let subst_map: HashMap<NullId, Value> = subst.iter().map(|(k, v)| (*k, *v)).collect();
        for (null, value) in &subst {
            let fresh = pf.tuples.iter().any(|t| t.fresh_nulls.contains(null));
            if !fresh {
                // The null occurs elsewhere in the database: the chase must
                // find and rewrite every occurrence.
                reads.push(ReadQuery::NullOccurrences { null: *null });
            }
            if *value != Value::Null(*null) {
                writes.push(Write::NullReplace { null: *null, replacement: *value });
            }
        }
        for (tuple, action) in pf.tuples.iter().zip(actions.iter()) {
            if matches!(action, PositiveAction::Expand) {
                let (values, _) = substitute_nulls(&tuple.values, &subst_map);
                writes.push(Write::Insert { relation: tuple.relation, values });
            }
        }
        self.pending_writes = writes;
        Ok(reads)
    }

    fn apply_negative(
        &mut self,
        mappings: &MappingSet,
        nf: &NegativeFrontier,
        delete: &[TupleId],
    ) -> Result<Vec<ReadQuery>, ChaseError> {
        if delete.is_empty() {
            return Err(ChaseError::InvalidDecision(
                "at least one negative frontier tuple must be deleted".into(),
            ));
        }
        let tgd = mappings.get(nf.mapping);
        let mut writes = Vec::new();
        let mut seen = Vec::new();
        for id in delete {
            if seen.contains(id) {
                continue;
            }
            seen.push(*id);
            let Some((atom_index, _, _)) = nf.candidates.iter().find(|(_, tid, _)| tid == id)
            else {
                return Err(ChaseError::InvalidDecision(format!(
                    "tuple {id} is not a deletion candidate"
                )));
            };
            let relation = tgd.lhs[*atom_index].relation;
            writes.push(Write::Delete { relation, tuple: *id });
        }
        self.pending_writes = writes;
        Ok(Vec::new())
    }

    /// Computes the repair plan for one violation: either a deterministic set
    /// of corrective writes or a frontier request, together with the
    /// correction queries that were needed to decide.
    fn plan_repair(
        &self,
        db: &Database,
        mappings: &MappingSet,
        violation: &Violation,
    ) -> (RepairPlan, Vec<ReadQuery>) {
        match violation.kind {
            ViolationKind::Lhs => self.plan_forward(db, mappings, violation),
            ViolationKind::Rhs => (self.plan_backward(db, mappings, violation), Vec::new()),
        }
    }

    /// Forward repair (Section 2.2): generate the missing RHS tuples; tuples
    /// with an existing, more specific counterpart become positive frontier
    /// tuples.
    fn plan_forward(
        &self,
        db: &Database,
        mappings: &MappingSet,
        violation: &Violation,
    ) -> (RepairPlan, Vec<ReadQuery>) {
        let tgd = mappings.get(violation.mapping);
        let frontier_bindings = violation.frontier_bindings(tgd);

        // Generate the RHS tuples, memoising fresh nulls across atoms so that
        // shared existential variables receive the same labeled null.
        let mut fresh_for_var: BTreeMap<youtopia_storage::Symbol, Value> = BTreeMap::new();
        let mut fresh_nulls: Vec<NullId> = Vec::new();
        let mut generated: Vec<(RelationId, Vec<Value>)> = Vec::new();
        for atom in &tgd.rhs {
            let values = atom.instantiate(&frontier_bindings, |var| {
                *fresh_for_var.entry(var).or_insert_with(|| {
                    let null = db.fresh_null();
                    fresh_nulls.push(null);
                    Value::Null(null)
                })
            });
            generated.push((atom.relation, values));
        }

        // Examine each generated tuple against the database.
        let snap = db.snapshot(self.id);
        let mut reads = Vec::new();
        let mut tuples = Vec::new();
        let mut writes = Vec::new();
        let mut deterministic = true;
        for (relation, values) in generated {
            let data: TupleData = values.clone().into();
            reads.push(ReadQuery::MoreSpecific { relation, pattern: data.clone() });
            let candidates = more_specific_tuples(&snap, relation, &data);
            // A ground tuple that already exists needs no action at all.
            let is_ground = data.iter().all(Value::is_const);
            if is_ground && candidates.iter().any(|(_, d)| d == &data) {
                continue;
            }
            if candidates.is_empty() {
                writes.push(Write::Insert { relation, values: values.clone() });
            } else {
                deterministic = false;
            }
            let own_fresh = youtopia_storage::nulls_of(&data)
                .into_iter()
                .filter(|n| fresh_nulls.contains(n))
                .collect();
            tuples.push(FrontierTuple {
                relation,
                values: data,
                fresh_nulls: own_fresh,
                candidates,
            });
        }

        if deterministic {
            (RepairPlan::Deterministic(writes), reads)
        } else {
            (
                RepairPlan::Frontier(FrontierRequest::Positive(PositiveFrontier {
                    mapping: violation.mapping,
                    violation: violation.clone(),
                    tuples,
                })),
                reads,
            )
        }
    }

    /// Backward repair (Section 2.3): delete witness tuples. Deterministic
    /// only when there is a single candidate.
    fn plan_backward(
        &self,
        db: &Database,
        mappings: &MappingSet,
        violation: &Violation,
    ) -> RepairPlan {
        let tgd = mappings.get(violation.mapping);
        let mut candidates: Vec<(usize, TupleId, TupleData)> = Vec::new();
        for (idx, (atom, tid)) in tgd.lhs.iter().zip(violation.witness.iter()).enumerate() {
            if candidates.iter().any(|(_, existing, _)| existing == tid) {
                continue; // self-joins repeat the same tuple
            }
            if let Some(data) = db.visible(atom.relation, *tid, self.id) {
                candidates.push((idx, *tid, data));
            }
        }
        if candidates.len() == 1 {
            let (idx, tid, _) = &candidates[0];
            RepairPlan::Deterministic(vec![Write::Delete {
                relation: tgd.lhs[*idx].relation,
                tuple: *tid,
            }])
        } else {
            RepairPlan::Frontier(FrontierRequest::Negative(NegativeFrontier {
                mapping: violation.mapping,
                violation: violation.clone(),
                candidates,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_mappings::MappingSet;
    use youtopia_storage::Database;

    fn travel() -> (Database, MappingSet) {
        let mut db = Database::new();
        db.add_relation("A", ["location", "name"]).unwrap();
        db.add_relation("T", ["attraction", "company", "tour_start"]).unwrap();
        db.add_relation("R", ["company", "attraction", "review"]).unwrap();
        let mut set = MappingSet::new();
        set.add_parsed(db.catalog(), "sigma3: A(l, n) & T(n, c, cs) -> exists r. R(c, n, r)")
            .unwrap();
        db.insert_by_name("A", &["Niagara Falls", "Niagara Falls"], UpdateId(0));
        (db, set)
    }

    #[test]
    fn example_1_1_forward_chase_inserts_a_review_placeholder() {
        // Inserting T(Niagara Falls, ABC Tours, …) causes σ3 to fire and the
        // chase to insert R(ABC Tours, Niagara Falls, x) with a fresh null.
        let (mut db, set) = travel();
        let t = db.relation_id("T").unwrap();
        let r = db.relation_id("R").unwrap();
        let mut exec = UpdateExecution::new(
            UpdateId(1),
            InitialOp::Insert {
                relation: t,
                values: vec![
                    Value::constant("Niagara Falls"),
                    Value::constant("ABC Tours"),
                    Value::constant("Toronto"),
                ],
            },
        );
        assert!(exec.initial().is_positive());

        // Step 1: performs the insert, discovers the violation, schedules the
        // corrective insert (R is empty so there is no more specific tuple).
        let out = exec.step(&mut db, &set).unwrap();
        assert_eq!(out.state, UpdateState::Ready);
        assert_eq!(out.new_violations, 1);
        assert!(out.frontier_request.is_none());
        assert!(out.reads.iter().any(|q| q.is_violation_query()));
        assert!(out.reads.iter().any(|q| matches!(q, ReadQuery::MoreSpecific { .. })));

        // Step 2: performs the corrective insert; no further violations remain
        // and the update terminates.
        let out = exec.step(&mut db, &set).unwrap();
        assert_eq!(out.writes.len(), 1);
        assert_eq!(out.state, UpdateState::Terminated);
        assert!(exec.is_terminated());

        let reviews = db.scan(r, UpdateId::OMNISCIENT);
        assert_eq!(reviews.len(), 1);
        let review = &reviews[0].1;
        assert_eq!(review[0], Value::constant("ABC Tours"));
        assert_eq!(review[1], Value::constant("Niagara Falls"));
        assert!(review[2].is_null(), "the review is an unknown labeled null");
        assert_eq!(exec.stats().steps, 2);
    }

    #[test]
    fn forward_chase_blocks_on_more_specific_tuples_and_unifies() {
        // A second tour of the same attraction by the same company: the
        // generated review tuple has a more specific counterpart, so the chase
        // stops and asks for a frontier operation.
        let (mut db, set) = travel();
        let t = db.relation_id("T").unwrap();
        let r = db.relation_id("R").unwrap();
        db.insert_by_name("T", &["Niagara Falls", "ABC Tours", "Toronto"], UpdateId(0));
        db.insert_by_name("R", &["ABC Tours", "Niagara Falls", "Great!"], UpdateId(0));

        // A new tour row for the same (attraction, company) pair but a
        // different starting city — σ3's RHS is already satisfied, so no
        // violation occurs. Use a *different* company to create a violation
        // whose generated tuple has a more-specific counterpart only after we
        // insert such a row. Instead, replicate the paper's S/C scenario:
        // delete nothing, and make the generated tuple non-ground by using a
        // null company.
        let x = db.fresh_null();
        let mut exec = UpdateExecution::new(
            UpdateId(1),
            InitialOp::Insert {
                relation: t,
                values: vec![
                    Value::constant("Niagara Falls"),
                    Value::Null(x),
                    Value::constant("Albany"),
                ],
            },
        );
        let out = exec.step(&mut db, &set).unwrap();
        // Generated tuple R(x, Niagara Falls, fresh) has the existing review
        // R(ABC Tours, Niagara Falls, Great!) as a more specific candidate.
        assert_eq!(out.state, UpdateState::AwaitingFrontier);
        let request = out.frontier_request.clone().unwrap();
        let FrontierRequest::Positive(pf) = &request else { panic!("expected positive frontier") };
        assert_eq!(pf.tuples.len(), 1);
        assert_eq!(pf.tuples[0].candidates.len(), 1);
        assert!(exec.pending_frontier().is_some());

        // Stepping while blocked is an error.
        assert!(matches!(exec.step(&mut db, &set), Err(ChaseError::NotReady(_))));

        // Unify with the existing review: x is replaced by "ABC Tours".
        let target = pf.tuples[0].candidates[0].0;
        let reads = exec
            .resolve_frontier(
                &set,
                FrontierDecision::Positive(vec![PositiveAction::Unify { with: target }]),
            )
            .unwrap();
        // x came from the witness (it is not fresh), so a null-occurrence
        // correction query is posed.
        assert!(reads.iter().any(|q| matches!(q, ReadQuery::NullOccurrences { .. })));

        // The unification write rewrites the tour; chase terminates.
        let out = exec.step(&mut db, &set).unwrap();
        assert!(out.writes.iter().any(|w| matches!(w.write, Write::NullReplace { .. })));
        while !exec.is_terminated() {
            exec.step(&mut db, &set).unwrap();
        }
        // No new review row was created; the tour now names ABC Tours.
        assert_eq!(db.scan(r, UpdateId::OMNISCIENT).len(), 1);
        let tours = db.scan(t, UpdateId::OMNISCIENT);
        assert!(tours.iter().all(|(_, d)| d[1] == Value::constant("ABC Tours") || d[1].is_const()));
        assert_eq!(exec.stats().frontier_ops, 1);
    }

    #[test]
    fn expand_inserts_the_generated_tuple() {
        let (mut db, set) = travel();
        let t = db.relation_id("T").unwrap();
        let r = db.relation_id("R").unwrap();
        db.insert_by_name("R", &["Old Co", "Niagara Falls", "fine"], UpdateId(0));
        // Tour by an unknown company: generated review R(x, Niagara Falls, fresh)
        // has the existing review as a more-specific candidate.
        let x = db.fresh_null();
        let mut exec = UpdateExecution::new(
            UpdateId(1),
            InitialOp::Insert {
                relation: t,
                values: vec![
                    Value::constant("Niagara Falls"),
                    Value::Null(x),
                    Value::constant("Albany"),
                ],
            },
        );
        let out = exec.step(&mut db, &set).unwrap();
        let FrontierRequest::Positive(pf) = out.frontier_request.unwrap() else { panic!() };
        exec.resolve_frontier(&set, FrontierDecision::expand_all(&pf)).unwrap();
        while !exec.is_terminated() {
            exec.step(&mut db, &set).unwrap();
        }
        // Expansion inserted a brand-new review row.
        assert_eq!(db.scan(r, UpdateId::OMNISCIENT).len(), 2);
    }

    #[test]
    fn example_2_3_backward_chase_requests_a_negative_frontier_operation() {
        let (mut db, set) = travel();
        let r = db.relation_id("R").unwrap();
        let a = db.relation_id("A").unwrap();
        let t = db.relation_id("T").unwrap();
        db.insert_by_name("A", &["Geneva", "Geneva Winery"], UpdateId(0));
        db.insert_by_name("T", &["Geneva Winery", "XYZ", "Syracuse"], UpdateId(0));
        let review = db.insert_by_name("R", &["XYZ", "Geneva Winery", "Great!"], UpdateId(0));

        let mut exec =
            UpdateExecution::new(UpdateId(1), InitialOp::Delete { relation: r, tuple: review });
        assert!(!exec.initial().is_positive());
        let out = exec.step(&mut db, &set).unwrap();
        assert_eq!(out.state, UpdateState::AwaitingFrontier);
        let FrontierRequest::Negative(nf) = out.frontier_request.unwrap() else {
            panic!("expected negative frontier")
        };
        assert_eq!(nf.candidates.len(), 2, "either A or T may be deleted");

        // Delete the tour (as in step 4 of Example 3.1).
        let tour = nf
            .candidates
            .iter()
            .find(|(_, _, data)| data[0] == Value::constant("Geneva Winery") && data.len() == 3)
            .map(|(_, id, _)| *id)
            .unwrap();
        exec.resolve_frontier(&set, FrontierDecision::Negative(vec![tour])).unwrap();
        while !exec.is_terminated() {
            exec.step(&mut db, &set).unwrap();
        }
        assert_eq!(db.scan(t, UpdateId::OMNISCIENT).len(), 0);
        assert_eq!(db.scan(a, UpdateId::OMNISCIENT).len(), 2, "attractions survive");
        assert_eq!(exec.queued_violations(), 0);
    }

    #[test]
    fn backward_chase_with_single_witness_tuple_is_deterministic() {
        // Mapping with a single LHS atom: deleting the RHS match deletes the
        // witness without asking the user.
        let mut db = Database::new();
        db.add_relation("P", ["a"]).unwrap();
        db.add_relation("Q", ["a"]).unwrap();
        let mut set = MappingSet::new();
        set.add_parsed(db.catalog(), "copy: P(x) -> Q(x)").unwrap();
        let p = db.relation_id("P").unwrap();
        let q = db.relation_id("Q").unwrap();
        db.insert_by_name("P", &["v"], UpdateId(0));
        let qt = db.insert_by_name("Q", &["v"], UpdateId(0));

        let mut exec =
            UpdateExecution::new(UpdateId(1), InitialOp::Delete { relation: q, tuple: qt });
        let mut saw_frontier = false;
        while !exec.is_terminated() {
            let out = exec.step(&mut db, &set).unwrap();
            saw_frontier |= out.frontier_request.is_some();
        }
        assert!(!saw_frontier, "single-witness deletions cascade deterministically");
        assert_eq!(db.scan(p, UpdateId::OMNISCIENT).len(), 0);
    }

    #[test]
    fn invalid_decisions_are_rejected_and_request_is_preserved() {
        let (mut db, set) = travel();
        let t = db.relation_id("T").unwrap();
        db.insert_by_name("R", &["Old Co", "Niagara Falls", "fine"], UpdateId(0));
        let x = db.fresh_null();
        let mut exec = UpdateExecution::new(
            UpdateId(1),
            InitialOp::Insert {
                relation: t,
                values: vec![
                    Value::constant("Niagara Falls"),
                    Value::Null(x),
                    Value::constant("Albany"),
                ],
            },
        );
        let out = exec.step(&mut db, &set).unwrap();
        assert!(out.frontier_request.is_some());

        // Wrong decision kind.
        let err = exec.resolve_frontier(&set, FrontierDecision::Negative(vec![TupleId(0)]));
        assert!(matches!(err, Err(ChaseError::InvalidDecision(_))));
        // Wrong number of actions.
        let err = exec.resolve_frontier(&set, FrontierDecision::Positive(vec![]));
        assert!(matches!(err, Err(ChaseError::InvalidDecision(_))));
        // Unify with a non-candidate.
        let err = exec.resolve_frontier(
            &set,
            FrontierDecision::Positive(vec![PositiveAction::Unify { with: TupleId(9999) }]),
        );
        assert!(matches!(err, Err(ChaseError::InvalidDecision(_))));
        // The request survives invalid decisions and a valid one still works.
        assert!(exec.pending_frontier().is_some());
        let FrontierRequest::Positive(pf) = exec.pending_frontier().unwrap().clone() else {
            panic!()
        };
        exec.resolve_frontier(&set, FrontierDecision::expand_all(&pf)).unwrap();
        assert!(exec.pending_frontier().is_none());
    }

    #[test]
    fn resolve_without_pending_request_fails() {
        let (mut db, set) = travel();
        let t = db.relation_id("T").unwrap();
        let mut exec = UpdateExecution::new(
            UpdateId(1),
            InitialOp::Insert {
                relation: t,
                values: vec![
                    Value::constant("Niagara Falls"),
                    Value::constant("ABC"),
                    Value::constant("Toronto"),
                ],
            },
        );
        let _ = exec.step(&mut db, &set).unwrap();
        let err = exec.resolve_frontier(&set, FrontierDecision::Positive(vec![]));
        assert!(matches!(err, Err(ChaseError::NoPendingFrontier(_))));
    }

    #[test]
    fn reset_for_restart_reruns_the_initial_operation() {
        let (mut db, set) = travel();
        let t = db.relation_id("T").unwrap();
        let mut exec = UpdateExecution::new(
            UpdateId(2),
            InitialOp::Insert {
                relation: t,
                values: vec![
                    Value::constant("Niagara Falls"),
                    Value::constant("ABC"),
                    Value::constant("Toronto"),
                ],
            },
        );
        while !exec.is_terminated() {
            exec.step(&mut db, &set).unwrap();
        }
        // Abort: roll back the writes and reset the execution.
        db.rollback_update(UpdateId(2));
        exec.reset_for_restart();
        assert_eq!(exec.state(), UpdateState::Ready);
        assert_eq!(exec.stats().restarts, 1);
        while !exec.is_terminated() {
            exec.step(&mut db, &set).unwrap();
        }
        let r = db.relation_id("R").unwrap();
        assert_eq!(db.scan(r, UpdateId::OMNISCIENT).len(), 1);
        assert_eq!(db.scan(t, UpdateId::OMNISCIENT).len(), 1);
    }

    /// Hub(x) → Spokeᵢ(x) fan-out: one insert discovers `spokes` violations
    /// at once and each subsequent step deterministically repairs one, so the
    /// queue stays long across many steps.
    fn hub_spokes(spokes: usize) -> (Database, MappingSet) {
        let mut db = Database::new();
        db.add_relation("Hub", ["k"]).unwrap();
        let mut rules = String::new();
        for i in 0..spokes {
            db.add_relation(format!("Spoke{i}"), ["k"]).unwrap();
            rules.push_str(&format!("m{i}: Hub(x) -> Spoke{i}(x)\n"));
        }
        let mut set = MappingSet::new();
        set.add_parsed_many(db.catalog(), &rules).unwrap();
        (db, set)
    }

    #[test]
    fn incremental_queue_matches_the_full_recheck_reference() {
        // The copy mappings have no existential variables, so both modes are
        // byte-identical step for step — compare queues directly.
        let (db, set) = hub_spokes(6);
        let hub = db.relation_id("Hub").unwrap();
        let op = InitialOp::Insert { relation: hub, values: vec![Value::constant("a")] };
        let mut db_inc = db.clone();
        let mut db_full = db;
        let mut inc = UpdateExecution::new(UpdateId(1), op.clone());
        let mut full = UpdateExecution::with_mode(UpdateId(1), op, ChaseMode::FullRecheck);
        assert_eq!(inc.mode(), ChaseMode::Incremental);
        assert_eq!(full.mode(), ChaseMode::FullRecheck);

        let mut steps = 0usize;
        while !inc.is_terminated() {
            inc.step(&mut db_inc, &set).unwrap();
            full.step(&mut db_full, &set).unwrap();
            steps += 1;
            assert_eq!(
                inc.queued_violation_list(),
                full.queued_violation_list(),
                "after step {steps} both modes must queue the same violations"
            );
            // Invariant of the delta-driven queue: everything queued is still
            // violated (exactly what the reference full recheck retains).
            assert_eq!(
                inc.queued_violation_list(),
                inc.recheck_all_violations(&db_inc, &set),
                "after step {steps} no stale violation may linger"
            );
        }
        assert!(full.is_terminated());
        assert!(steps > 6, "each spoke repair is its own step");
        for i in 0..6 {
            let spoke = db_inc.relation_id(&format!("Spoke{i}")).unwrap();
            assert_eq!(db_inc.visible_count(spoke, UpdateId::OMNISCIENT), 1);
        }
    }

    #[test]
    fn rediscovered_violations_are_not_double_counted() {
        // σa: A(x) → B(x) ∧ C(x); σb: B(x) ∧ C(y) → D(x). Repairing σa writes
        // B(a) and C(a) in one step; both changes re-discover the *same* σb
        // violation, which must be enqueued (and counted) once.
        let mut db = Database::new();
        db.add_relation("A", ["k"]).unwrap();
        db.add_relation("B", ["k"]).unwrap();
        db.add_relation("C", ["k"]).unwrap();
        db.add_relation("D", ["k"]).unwrap();
        let mut set = MappingSet::new();
        set.add_parsed_many(
            db.catalog(),
            "
            sa: A(x) -> B(x) & C(x)
            sb: B(x) & C(y) -> D(x)
            ",
        )
        .unwrap();
        let a = db.relation_id("A").unwrap();
        let mut exec = UpdateExecution::new(
            UpdateId(1),
            InitialOp::Insert { relation: a, values: vec![Value::constant("a")] },
        );
        let out = exec.step(&mut db, &set).unwrap();
        assert_eq!(out.new_violations, 1, "σa fires");
        // Step 2 inserts B(a) and C(a); the σb violation is seeded by both
        // changes but counted once.
        let out = exec.step(&mut db, &set).unwrap();
        assert_eq!(out.writes.len(), 2);
        assert_eq!(out.new_violations, 1, "one σb violation despite two seeding changes");
        assert_eq!(exec.queued_violations(), 0, "σb was chosen for repair immediately");
        while !exec.is_terminated() {
            exec.step(&mut db, &set).unwrap();
        }
        let d = db.relation_id("D").unwrap();
        assert_eq!(db.visible_count(d, UpdateId::OMNISCIENT), 1);
        assert_eq!(exec.stats().violations_seen, 2);
    }

    #[test]
    fn deleting_a_tuple_nobody_depends_on_terminates_immediately() {
        let (mut db, set) = travel();
        let a = db.relation_id("A").unwrap();
        let lonely = db.insert_by_name("A", &["Rome", "Colosseum"], UpdateId(0));
        let mut exec =
            UpdateExecution::new(UpdateId(1), InitialOp::Delete { relation: a, tuple: lonely });
        let out = exec.step(&mut db, &set).unwrap();
        assert_eq!(out.new_violations, 0);
        assert_eq!(out.state, UpdateState::Terminated);
    }
}
