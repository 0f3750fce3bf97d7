//! Engine-side replication mechanism: per-origin event logs, the canonical
//! replicated fold, and the state-vector delta protocol.
//!
//! A **replicated** engine
//! ([`EngineBuilder::replicated`](crate::EngineBuilder::replicated)) is a node of a multi-engine deployment. Its
//! observable history is an append-only **event log per origin node**
//! (`youtopia_core::replication`): a [`ReplicationEvent::Submit`] for every
//! update entering the exchange anywhere, and a [`ReplicationEvent::Answer`]
//! for every frontier decision. Peers exchange logs y-crdt style — "here is
//! my [`StateVector`], send what I'm missing" — via
//! [`ExchangeEngine::state_vector`] /
//! [`ExchangeEngine::encode_deltas_since`] /
//! [`ExchangeEngine::apply_remote_deltas`].
//!
//! # The canonical fold
//!
//! Convergence is defined, not hoped for: a replica's database **is** the
//! deterministic serial fold of its event set in canonical
//! `(lamport, origin)` order ([`EventStamp`]). Concretely:
//!
//! * submits are admitted one at a time, in canonical order, each driven to
//!   termination before the next is admitted (so the chase of update *k* is a
//!   pure function of the canonically earlier events);
//! * a blocked update consumes the recorded answer for its next question
//!   *position*; conflicting answers for the same `(update, position)` are
//!   resolved canonically (minimal event stamp wins, everywhere);
//! * remote events enter through the existing admission/answer paths — the
//!   deterministic sequencer, the chase and metrics all apply
//!   unchanged — so equal event sets render byte-identical databases,
//!   tuple ids, null ids and update numbers included.
//!
//! The replication state lives in the engine's one `Core`, and the fold is a
//! rule of the sequencer's action: before each action, a blocked current
//! update is fed its recorded answer, and a finished one makes way for the
//! canonical next submit. A replication call enters once, changes the logs
//! and drives.
//!
//! Events that arrive *behind* the fold (a partition heals and a concurrent
//! submit sorts before one already applied; a canonically smaller answer
//! displaces an applied one) cannot be folded incrementally. The engine then
//! **refolds in place**, under the same lock: the old core is dropped, a
//! fresh one starts over the genesis database the engine was built on, every
//! logged submit is queued again, and the fold reruns — same fold, same
//! bytes, by construction ([`SyncReport::rebuilt`]). Incremental application
//! is thus an optimisation of replay, never a second semantics.
//!
//! A fold can **stall**: the canonical next question has no recorded answer
//! yet (it is waiting for a human somewhere). The stalled frontier is exactly
//! what [`ExchangeEngine::pending_frontiers`] lists, and answering it locally
//! appends the answer event — which is how decisions replicate, tagged with
//! their [`ResolutionOrigin`], so a question answered on one node is never
//! re-asked on another.

use std::collections::BTreeMap;
use std::sync::MutexGuard;

use youtopia_core::replication::{
    DeltaBatch, DeltaEntry, EventStamp, NodeId, ReplicationEvent, StateVector,
};
use youtopia_core::{ChaseError, FrontierDecision, FrontierToken, ResolutionOrigin, UpdateState};
use youtopia_storage::wal::deserialize_database;
use youtopia_storage::{Database, StorageError, UpdateId};

use crate::engine::{AnswerOutcome, EngineShared, ExchangeEngine};
use crate::sequencer::{Core, DetProgress};

/// Why a replication API call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncError {
    /// The engine was not built with a replica identity
    /// ([`crate::EngineBuilder::replicated`]).
    NotReplicated,
    /// The underlying engine failed fatally while folding.
    Engine(ChaseError),
    /// A submitted operation does not fit the catalog (unknown relation,
    /// wrong arity); nothing was logged and the replica keeps serving.
    Invalid(StorageError),
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::NotReplicated => write!(f, "engine has no replica identity"),
            SyncError::Engine(e) => write!(f, "engine failed during replicated fold: {e}"),
            SyncError::Invalid(e) => write!(f, "invalid submission: {e}"),
        }
    }
}

impl std::error::Error for SyncError {}

/// What one delta application accomplished.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Events newly appended to local logs.
    pub appended: usize,
    /// Events skipped because the local log already held them.
    pub duplicates: usize,
    /// Entries that could not be appended because they start past the local
    /// log end: `(origin, local_len)` — ask the peer again from `local_len`.
    /// The batch's other entries were still applied.
    pub gaps: Vec<(NodeId, u64)>,
    /// Events landed behind the fold, so the engine refolded its whole event
    /// set from the genesis database (see the module docs).
    pub rebuilt: bool,
    /// After folding, the node is blocked on a question with no recorded
    /// answer: `(target update, position)` of the canonical next decision.
    pub stalled: Option<(EventStamp, u32)>,
}

/// One admitted replicated update.
struct AdmittedUpdate {
    update: UpdateId,
    /// Recorded answers applied so far — the *position* of the update's next
    /// unanswered question.
    answers_applied: u32,
}

/// A recorded answer (the canonical winner so far) for one
/// `(target, position)` key.
struct AnswerRecord {
    stamp: EventStamp,
    decision: FrontierDecision,
    origin: ResolutionOrigin,
}

/// A replica's bookkeeping: `Core::replica`, behind the engine's one lock.
pub(crate) struct ReplicationState {
    node: NodeId,
    /// The database the engine was built on, serialized: what a refold
    /// starts over.
    genesis: Vec<u8>,
    /// Lamport clock: max of every lamport seen, floor for own events.
    clock: u64,
    /// Per-origin append-only event logs (everything known, fold input).
    logs: BTreeMap<NodeId, Vec<ReplicationEvent>>,
    /// Submits not yet admitted, keyed by canonical stamp.
    pending_submits: BTreeMap<EventStamp, youtopia_core::InitialOp>,
    /// Admitted submits, keyed by stamp (admission order = canonical order).
    /// The fold is serial, so the last entry is both its high-water mark and
    /// the only update that can still run or ask.
    admitted: BTreeMap<EventStamp, AdmittedUpdate>,
    /// Canonical winner per `(target, position)`.
    answers: BTreeMap<(EventStamp, u32), AnswerRecord>,
}

impl ReplicationState {
    pub(crate) fn new(node: NodeId, genesis: Vec<u8>) -> ReplicationState {
        ReplicationState {
            node,
            genesis,
            clock: 0,
            logs: BTreeMap::new(),
            pending_submits: BTreeMap::new(),
            admitted: BTreeMap::new(),
            answers: BTreeMap::new(),
        }
    }

    fn state_vector(&self) -> StateVector {
        let mut sv = StateVector::new();
        for (&origin, log) in &self.logs {
            sv.set(origin, log.len() as u64);
        }
        sv
    }

    /// Ingests one event at the tail of `origin`'s log, updating the clock
    /// and the pending/answer indexes. Returns whether the event lands
    /// behind the fold.
    fn ingest(&mut self, origin: NodeId, event: ReplicationEvent) -> bool {
        self.clock = self.clock.max(event.lamport());
        let stamp = event.stamp(origin);
        let behind = match &event {
            ReplicationEvent::Submit { op, .. } => {
                self.pending_submits.insert(stamp, op.clone());
                self.admitted.last_key_value().is_some_and(|(&last, _)| stamp < last)
            }
            ReplicationEvent::Answer { target, position, decision, origin: res_origin, .. } => {
                let key = (*target, *position);
                match self.answers.get(&key) {
                    // Canonical loser (or duplicate): a no-op everywhere.
                    Some(existing) if existing.stamp <= stamp => false,
                    displaced => {
                        // A canonically smaller answer displacing one the
                        // fold already applied makes the fold prefix wrong.
                        let behind = displaced.is_some()
                            && self
                                .admitted
                                .get(target)
                                .is_some_and(|au| *position < au.answers_applied);
                        let record =
                            AnswerRecord { stamp, decision: decision.clone(), origin: *res_origin };
                        self.answers.insert(key, record);
                        behind
                    }
                }
            }
        };
        self.logs.entry(origin).or_default().push(event);
        behind
    }

    /// Appends a locally produced event to the own log (stamping it with the
    /// next Lamport tick) and returns its stamp. Its tick is past every
    /// lamport seen, so it never lands behind the fold.
    fn append_own(&mut self, make: impl FnOnce(u64) -> ReplicationEvent) -> EventStamp {
        self.clock += 1;
        let event = make(self.clock);
        debug_assert_eq!(event.lamport(), self.clock);
        let stamp = event.stamp(self.node);
        let behind = self.ingest(self.node, event);
        debug_assert!(!behind, "own events extend the fold");
        stamp
    }

    /// Forgets the fold and queues every logged submit again; the logs and
    /// the recorded answers stay.
    fn unfold(&mut self) {
        self.admitted.clear();
        for (&origin, log) in &self.logs {
            for event in log {
                if let ReplicationEvent::Submit { op, .. } = event {
                    self.pending_submits.insert(event.stamp(origin), op.clone());
                }
            }
        }
    }
}

/// Where the fold's current update stands.
enum CurrentState {
    /// Still chasing.
    Running,
    /// Blocked on the question published under this token.
    Blocked(FrontierToken),
    /// Terminated, failed or evicted: the next submit may be admitted.
    Done,
}

fn replica(core: &Core) -> &ReplicationState {
    core.replica.as_ref().expect("replication call on a replica")
}

fn replica_mut(core: &mut Core) -> &mut ReplicationState {
    core.replica.as_mut().expect("replication call on a replica")
}

impl EngineShared {
    fn current_state(&self, core: &Core, update: UpdateId) -> CurrentState {
        let Ok(slot) = self.lookup(core, update) else { return CurrentState::Done };
        if slot.failed.is_some() || slot.exec.is_terminated() {
            return CurrentState::Done;
        }
        match slot.published {
            Some(token) if slot.exec.state() == UpdateState::AwaitingFrontier => {
                CurrentState::Blocked(token)
            }
            _ => CurrentState::Running,
        }
    }

    /// The fold's rule, tried before every sequencer action: feed a blocked
    /// current update its recorded answer, or, once it is done, admit the
    /// canonical next submit (no handle and no admission cap — backpressure
    /// belongs at the edge that accepted the original submit). `None` leaves
    /// the action to the sequencer: the engine is no replica, the current
    /// update is running, nothing is queued, or the fold stalls on a
    /// question with no recorded answer (and the gate parks the driver).
    pub(crate) fn fold_action(&self, core: &mut Core) -> Option<DetProgress> {
        let st = core.replica.as_ref()?;
        if let Some((&stamp, au)) = st.admitted.last_key_value() {
            match self.current_state(core, au.update) {
                CurrentState::Running => return None,
                CurrentState::Blocked(token) => {
                    let record = st.answers.get(&(stamp, au.answers_applied))?;
                    let (decision, origin) = (record.decision.clone(), record.origin);
                    replica_mut(core).admitted.last_entry()?.get_mut().answers_applied += 1;
                    // An invalid decision is consumed deterministically: the
                    // question stays pending and the fold waits for the next
                    // position's answer — every replica rejects the same
                    // decision at the same position, so this too converges.
                    if let Some(entry) = core.pending.remove(&token.0) {
                        let _ = self.apply_answer(core, token, entry, decision, origin);
                    }
                    return Some(DetProgress::Acted);
                }
                CurrentState::Done => {}
            }
        }
        let (stamp, op) = replica_mut(core).pending_submits.pop_first()?;
        let update = self.admit(core, vec![op])[0];
        replica_mut(core).admitted.insert(stamp, AdmittedUpdate { update, answers_applied: 0 });
        Some(DetProgress::Acted)
    }

    /// The canonical next question the fold waits on with no recorded
    /// answer, if it is stalled.
    fn stall_point(&self, core: &Core) -> Option<(EventStamp, u32)> {
        let st = replica(core);
        let (&stamp, au) = st.admitted.last_key_value()?;
        let blocked = matches!(self.current_state(core, au.update), CurrentState::Blocked(_));
        let key = (stamp, au.answers_applied);
        (blocked && !st.answers.contains_key(&key)).then_some(key)
    }

    /// Refolds in place: the old core goes first (a refold never holds two
    /// databases), a fresh one — fresh metrics included, as on a newly built
    /// engine — starts over the decoded genesis, and the fold forgets what it
    /// admitted. The caller drives the refold.
    fn refold(&self, core: &mut Core) {
        let mut st = core.replica.take().expect("refolding a replica");
        *core = Core::new(Database::default(), &self.config, None);
        core.db =
            deserialize_database(&st.genesis).expect("genesis bytes came from serialize_database");
        st.unfold();
        core.replica = Some(st);
    }
}

/// The replicated path of [`ExchangeEngine::answer_with_origin`]: apply the
/// decision, and on success append it to the own event log (so peers replay
/// it) and continue the fold.
pub(crate) fn answer_replicated(
    engine: &ExchangeEngine,
    token: FrontierToken,
    decision: FrontierDecision,
    origin: ResolutionOrigin,
) -> Result<AnswerOutcome, ChaseError> {
    let shared = &engine.shared;
    let mut core = shared.enter();
    // Fail-stop, checked on the core this caller holds.
    if let Some(e) = &core.error {
        return Err(e.clone());
    }
    let Some(entry) = core.pending.remove(&token.0) else { return Ok(AnswerOutcome::Stale) };
    let current = replica(&core)
        .admitted
        .last_key_value()
        .filter(|(_, au)| au.update == entry.update)
        .map(|(&stamp, au)| (stamp, au.answers_applied));
    let Some((target, position)) = current else {
        // Only the fold's current update can ask (plain submits are refused).
        core.pending.insert(token.0, entry);
        return Err(ChaseError::InvalidDecision("frontier belongs to no replicated update".into()));
    };
    if replica(&core).answers.contains_key(&(target, position)) {
        // A peer's answer arrived first; the fold feeds it at its next action.
        core.pending.insert(token.0, entry);
        return Ok(AnswerOutcome::Stale);
    }
    let outcome = shared.apply_answer(&mut core, token, entry, decision.clone(), origin)?;
    if outcome == AnswerOutcome::Applied {
        let st = replica_mut(&mut core);
        st.append_own(|lamport| ReplicationEvent::Answer {
            lamport,
            target,
            position,
            decision,
            origin,
        });
        st.admitted.last_entry().expect("answered update is admitted").get_mut().answers_applied =
            position + 1;
        drop(core);
        // The answer itself landed; a fold failure surfaces on the engine
        // error (and every later call).
        shared.drive_until(|_| false)?;
    }
    Ok(outcome)
}

impl ExchangeEngine {
    /// Enters a replica between two actions.
    fn enter_replica(&self) -> Result<MutexGuard<'_, Core>, SyncError> {
        self.node_id().ok_or(SyncError::NotReplicated)?;
        Ok(self.shared.enter())
    }

    /// [`enter_replica`](Self::enter_replica) for a call that adds work: a
    /// fail-stopped engine stays stopped and refuses it.
    fn enter_live_replica(&self) -> Result<MutexGuard<'_, Core>, SyncError> {
        let core = self.enter_replica()?;
        match &core.error {
            Some(e) => Err(SyncError::Engine(e.clone())),
            None => Ok(core),
        }
    }

    /// This engine's replica identity, if it has one.
    pub fn node_id(&self) -> Option<NodeId> {
        self.shared.config.replica
    }

    /// The node's [`StateVector`]: how much of each origin's event log it
    /// holds. The handshake currency of the delta protocol.
    pub fn state_vector(&self) -> Result<StateVector, SyncError> {
        Ok(replica(&*self.enter_replica()?).state_vector())
    }

    /// Encodes everything `since` is missing as per-origin log suffixes —
    /// y-crdt's `encode_state_as_update(state_vector)`.
    pub fn encode_deltas_since(&self, since: &StateVector) -> Result<DeltaBatch, SyncError> {
        let core = self.enter_replica()?;
        let mut entries = Vec::new();
        for (&origin, log) in &replica(&core).logs {
            let have = since.get(origin) as usize;
            if have < log.len() {
                entries.push(DeltaEntry {
                    origin,
                    first_seq: have as u64,
                    events: log[have..].to_vec(),
                });
            }
        }
        Ok(DeltaBatch { entries })
    }

    /// Applies a peer's delta batch: appends the unseen events to the local
    /// logs and drives the canonical fold as far as they allow. Duplicates
    /// are skipped, out-of-reach suffixes are reported as
    /// [`SyncReport::gaps`] (re-request from the returned position), and
    /// events landing behind the fold refold the engine in place
    /// ([`SyncReport::rebuilt`]). A batch carrying a submit that does not fit
    /// the catalog fails with [`SyncError::Invalid`] before any of it is
    /// logged: folded in, it would fail-stop the replica for good.
    pub fn apply_remote_deltas(&self, batch: &DeltaBatch) -> Result<SyncReport, SyncError> {
        let mut core = self.enter_live_replica()?;
        for event in batch.entries.iter().flat_map(|entry| &entry.events) {
            if let ReplicationEvent::Submit { op, .. } = event {
                core.db.check_write(&op.to_write()).map_err(SyncError::Invalid)?;
            }
        }
        let st = replica_mut(&mut core);
        let mut report = SyncReport::default();
        for entry in &batch.entries {
            let have = st.logs.get(&entry.origin).map(|l| l.len() as u64).unwrap_or(0);
            if entry.first_seq > have {
                report.gaps.push((entry.origin, have));
                continue;
            }
            let skip = (have - entry.first_seq) as usize;
            report.duplicates += skip.min(entry.events.len());
            for event in entry.events.iter().skip(skip) {
                report.rebuilt |= st.ingest(entry.origin, event.clone());
                report.appended += 1;
            }
        }
        if report.rebuilt {
            self.shared.refold(&mut core);
        }
        drop(core);
        report.stalled = self.pump_replication()?;
        Ok(report)
    }

    /// Submits one update *as this replica*: appends a submit event to the
    /// own log (peers will pull it) and folds it in locally. Returns the
    /// event stamp — the update's identity across the whole replica set
    /// (resolve it to this engine's update id with
    /// [`replicated_update_id`](Self::replicated_update_id)). An operation
    /// that does not fit the catalog fails with [`SyncError::Invalid`]
    /// before anything is logged.
    pub fn submit_replicated(&self, op: youtopia_core::InitialOp) -> Result<EventStamp, SyncError> {
        let mut core = self.enter_live_replica()?;
        core.db.check_write(&op.to_write()).map_err(SyncError::Invalid)?;
        let stamp =
            replica_mut(&mut core).append_own(|lamport| ReplicationEvent::Submit { lamport, op });
        drop(core);
        self.shared.drive_until(|_| false).map_err(SyncError::Engine)?;
        Ok(stamp)
    }

    /// Resolves a replicated submit's event stamp to the update id this
    /// engine folded it in under (`None` while it is still pending). Update
    /// ids agree across replicas holding the same event set — they are
    /// assigned in canonical order — but differ after divergent prefixes, so
    /// the *stamp* is the portable name.
    pub fn replicated_update_id(&self, stamp: EventStamp) -> Result<Option<UpdateId>, SyncError> {
        Ok(replica(&*self.enter_replica()?).admitted.get(&stamp).map(|au| au.update))
    }

    /// Drives the fold without new input (useful after answering through
    /// [`ExchangeEngine::answer`], which already folds, or to observe the
    /// stall point). Returns the canonical next unanswered question, if the
    /// fold is stalled on one.
    pub fn pump_replication(&self) -> Result<Option<(EventStamp, u32)>, SyncError> {
        self.node_id().ok_or(SyncError::NotReplicated)?;
        self.shared.drive_until(|_| false).map_err(SyncError::Engine)?;
        let core = self.shared.enter();
        match &core.error {
            Some(e) => Err(SyncError::Engine(e.clone())),
            None => Ok(self.shared.stall_point(&core)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use youtopia_core::{FrontierResolver, InitialOp, RandomResolver};
    use youtopia_mappings::MappingSet;
    use youtopia_storage::{Database, RelationId, Value};

    /// The Example 3.1 fragment: deleting the review blocks the backward
    /// chase on a negative frontier (delete the attraction or the tour?).
    fn travel() -> (Database, MappingSet) {
        let mut db = Database::new();
        db.add_relation("A", ["location", "name"]).unwrap();
        db.add_relation("T", ["attraction", "company", "tour_start"]).unwrap();
        db.add_relation("R", ["company", "attraction", "review"]).unwrap();
        let mut mappings = MappingSet::new();
        mappings
            .add_parsed(db.catalog(), "sigma3: A(l, n) & T(n, c, cs) -> exists r. R(c, n, r)")
            .unwrap();
        let u = youtopia_storage::UpdateId(0);
        db.insert_by_name("A", &["Geneva", "Geneva Winery"], u);
        db.insert_by_name("T", &["Geneva Winery", "XYZ", "Syracuse"], u);
        db.insert_by_name("R", &["XYZ", "Geneva Winery", "Great!"], u);
        (db, mappings)
    }

    fn replica(node: u32) -> ExchangeEngine {
        let (db, mappings) = travel();
        EngineBuilder::new().replicated(NodeId(node)).build(db, mappings).unwrap()
    }

    /// Deletes the genesis review tuple — every replica shares the genesis,
    /// so the tuple id is the same on all of them.
    fn delete_review() -> InitialOp {
        let (db, _) = travel();
        let r = db.relation_id("R").unwrap();
        let review = db.scan(r, youtopia_storage::UpdateId::OMNISCIENT)[0].0;
        InitialOp::Delete { relation: r, tuple: review }
    }

    fn insert_city(name: &str) -> InitialOp {
        // A is the first relation added by `travel`.
        InitialOp::Insert {
            relation: RelationId(0),
            values: vec![Value::constant("Geneva"), Value::constant(name)],
        }
    }

    /// Answers every question the engine asks, with replicated answers.
    fn answer_all(engine: &ExchangeEngine, seed: u64) {
        let mut resolver = RandomResolver::seeded(seed);
        while let Some(p) = engine.pending_frontiers().first().cloned() {
            let decision = engine.read(|db| resolver.resolve(&db.snapshot(p.update), &p.request));
            engine.answer(p.token, decision).unwrap();
        }
    }

    #[test]
    fn plain_submit_is_refused_on_a_replica() {
        let engine = replica(0);
        let err = engine.submit(delete_review()).unwrap_err();
        assert!(matches!(err, crate::engine::SubmitError::Replicated));
        engine.shutdown();
    }

    /// A malformed submit is refused before it reaches the replica's own log,
    /// so peers never pull it and the replica keeps serving.
    #[test]
    fn malformed_replicated_submits_are_refused_and_not_logged() {
        let engine = replica(0);
        let short = InitialOp::Insert { relation: RelationId(0), values: vec![] };
        assert!(matches!(engine.submit_replicated(short), Err(SyncError::Invalid(_))));
        assert_eq!(engine.state_vector().unwrap(), StateVector::new());
        let stamp = engine.submit_replicated(insert_city("Bern")).unwrap();
        assert_eq!(stamp, EventStamp { lamport: 1, origin: NodeId(0) });
        engine.shutdown();
    }

    /// A peer's malformed submit is refused with the whole batch: nothing is
    /// logged, and the replica keeps accepting its own and its peers' valid
    /// events.
    #[test]
    fn malformed_remote_submits_are_refused_and_not_logged() {
        let engine = replica(0);
        let peer = replica(1);
        let short = InitialOp::Insert { relation: RelationId(0), values: vec![] };
        let bad = DeltaBatch {
            entries: vec![DeltaEntry {
                origin: NodeId(1),
                first_seq: 0,
                events: vec![
                    ReplicationEvent::Submit { lamport: 1, op: insert_city("Bern") },
                    ReplicationEvent::Submit { lamport: 2, op: short },
                ],
            }],
        };
        assert!(matches!(engine.apply_remote_deltas(&bad), Err(SyncError::Invalid(_))));
        assert_eq!(engine.state_vector().unwrap(), StateVector::new());

        engine.submit_replicated(insert_city("Basel")).unwrap();
        peer.submit_replicated(insert_city("Bern")).unwrap();
        let batch = peer.encode_deltas_since(&engine.state_vector().unwrap()).unwrap();
        let report = engine.apply_remote_deltas(&batch).unwrap();
        assert_eq!(report.appended, 1);
        assert_eq!(engine.state_vector().unwrap().get(NodeId(1)), 1);
        assert!(engine.error().is_none());
        engine.shutdown();
        peer.shutdown();
    }

    #[test]
    fn replication_api_requires_a_replica() {
        let (db, mappings) = travel();
        let engine = EngineBuilder::new().build(db, mappings).unwrap();
        assert_eq!(engine.state_vector().unwrap_err(), SyncError::NotReplicated);
        assert!(engine.node_id().is_none());
        engine.shutdown();
    }

    /// The peer folds under either frontier policy: a replica has at most one
    /// live update, so skipping renders the same bytes as blocking.
    #[test]
    fn local_submits_replicate_to_a_peer_and_render_identically() {
        let (db, mappings) = travel();
        let skipping = EngineBuilder::new().free_running().replicated(NodeId(1));
        for b in [replica(1), skipping.build(db, mappings).unwrap()] {
            let a = replica(0);
            let stamp = a.submit_replicated(delete_review()).unwrap();
            assert_eq!(stamp, EventStamp { lamport: 1, origin: NodeId(0) });
            // The backward chase of the delete stalls on the negative frontier.
            let stalled = a.pump_replication().unwrap();
            assert_eq!(stalled, Some((stamp, 0)));
            answer_all(&a, 4);
            assert!(a.pump_replication().unwrap().is_none());

            // Ship everything to B: it folds the submit AND the recorded answers —
            // no question is ever asked on B.
            let delta = a.encode_deltas_since(&b.state_vector().unwrap()).unwrap();
            let report = b.apply_remote_deltas(&delta).unwrap();
            assert!(report.appended >= 2, "a submit and at least one answer");
            assert_eq!(report.stalled, None);
            assert!(b.pending_frontiers().is_empty(), "answered on A, never re-asked on B");
            assert_eq!(a.state_vector().unwrap(), b.state_vector().unwrap());

            let a_bytes = a.read(youtopia_storage::wal::serialize_database);
            let b_bytes = b.read(youtopia_storage::wal::serialize_database);
            assert_eq!(a_bytes, b_bytes, "same delivered set => byte-identical databases");
            // The same update id was assigned on both sides (canonical order).
            assert_eq!(
                b.replicated_update_id(stamp).unwrap(),
                a.replicated_update_id(stamp).unwrap()
            );
            a.shutdown();
            b.shutdown();
        }
    }

    #[test]
    fn duplicates_and_gaps_are_reported_not_misapplied() {
        let a = replica(0);
        let b = replica(1);
        let _ = a.submit_replicated(delete_review()).unwrap();
        answer_all(&a, 4);
        let full = a.encode_deltas_since(&StateVector::new()).unwrap();
        let r1 = b.apply_remote_deltas(&full).unwrap();
        assert!(r1.appended >= 2 && r1.duplicates == 0 && r1.gaps.is_empty());
        // Re-applying the same batch is pure duplicates.
        let r2 = b.apply_remote_deltas(&full).unwrap();
        assert_eq!(r2.appended, 0);
        assert_eq!(r2.duplicates, r1.appended);
        // A suffix starting past the log end is a gap, and harmless.
        let mut future = full.clone();
        for entry in &mut future.entries {
            entry.first_seq += 100;
        }
        let r3 = b.apply_remote_deltas(&future).unwrap();
        assert_eq!(r3.appended, 0);
        assert_eq!(r3.gaps.len(), future.entries.len());
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn concurrent_submits_behind_the_fold_refold_in_place() {
        let a = replica(0);
        let b = replica(1);
        // Both nodes submit concurrently (no sync in between): both events
        // carry lamport 1, so B's own (1, n1) folds first there while A's
        // (1, n0) is canonically smaller.
        let sa = a.submit_replicated(insert_city("Winery Tours HQ")).unwrap();
        let sb = b.submit_replicated(insert_city("Maid of the Mist HQ")).unwrap();
        assert!(sa < sb, "origin breaks the lamport tie");
        let first = b.replicated_update_id(sb).unwrap().expect("B folded its own submit");
        let delta = a.encode_deltas_since(&StateVector::new()).unwrap();
        let report = b.apply_remote_deltas(&delta).unwrap();
        assert!(report.rebuilt, "A's submit sorts before B's applied one");
        // The refold admitted both in canonical order, from the same first
        // update number, with the metrics of a fresh engine.
        assert_eq!(b.replicated_update_id(sa).unwrap(), Some(first));
        assert_eq!(b.replicated_update_id(sb).unwrap(), Some(UpdateId(first.0 + 1)));
        assert_eq!(b.metrics().workload_size, 2);
        // A, by contrast, folds B's later event incrementally.
        let delta = b.encode_deltas_since(&a.state_vector().unwrap()).unwrap();
        let report = a.apply_remote_deltas(&delta).unwrap();
        assert!(!report.rebuilt);
        let a_bytes = a.read(youtopia_storage::wal::serialize_database);
        assert_eq!(a_bytes, b.read(youtopia_storage::wal::serialize_database));
        // B takes new work at once.
        let sc = b.submit_replicated(insert_city("Rome Office")).unwrap();
        assert_eq!(b.replicated_update_id(sc).unwrap(), Some(UpdateId(first.0 + 2)));
        assert!(b.is_quiescent());
        a.shutdown();
        b.shutdown();
    }

    /// A fail-stopped replica stays stopped: a batch landing behind its fold
    /// is refused with the engine's error instead of refolding the failure
    /// away.
    #[test]
    fn a_fail_stopped_replica_refuses_replicated_work() {
        let a = replica(0);
        let (db, mappings) = travel();
        let b = EngineBuilder::new()
            .replicated(NodeId(1))
            .max_total_steps(0)
            .build(db, mappings)
            .unwrap();
        a.submit_replicated(insert_city("Winery Tours HQ")).unwrap();
        let err = b.submit_replicated(insert_city("Maid of the Mist HQ"));
        assert!(matches!(err, Err(SyncError::Engine(_))), "{err:?}");
        // A's submit sorts before B's failed one.
        let delta = a.encode_deltas_since(&StateVector::new()).unwrap();
        let applied = b.apply_remote_deltas(&delta);
        assert!(matches!(applied, Err(SyncError::Engine(_))), "{applied:?}");
        let err = b.submit_replicated(insert_city("Rome Office"));
        assert!(matches!(err, Err(SyncError::Engine(_))), "{err:?}");
        assert!(b.error().is_some());
        a.shutdown();
        b.shutdown();
    }
}
