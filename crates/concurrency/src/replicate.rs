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
//!   deterministic sequencer, violation index and metrics all apply
//!   unchanged — so equal event sets render byte-identical databases,
//!   tuple ids, null ids and update numbers included.
//!
//! Events that arrive *behind* the fold (a partition heals and a concurrent
//! submit sorts before one already applied; a canonically smaller answer
//! displaces an applied one) cannot be folded incrementally. The engine then
//! reports [`SyncReport::rebuild_required`] and refuses further replicated
//! work: the policy layer (`youtopia-replication`'s `ReplicaNode`) rebuilds a
//! fresh engine from the genesis database and replays the merged logs — same
//! fold, same bytes, by construction. Incremental application is thus an
//! optimisation of replay, never a second semantics.
//!
//! A fold can **stall**: the canonical next question has no recorded answer
//! yet (it is waiting for a human somewhere). The stalled frontier is exactly
//! what [`ExchangeEngine::pending_frontiers`] lists, and answering it locally
//! appends the answer event — which is how decisions replicate, tagged with
//! their [`ResolutionOrigin`], so a question answered on one node is never
//! re-asked on another.

use std::collections::BTreeMap;
use std::sync::Mutex;

use youtopia_core::replication::{
    DeltaBatch, DeltaEntry, EventStamp, NodeId, ReplicationEvent, StateVector,
};
use youtopia_core::{ChaseError, FrontierDecision, FrontierToken, ResolutionOrigin, UpdateState};
use youtopia_storage::UpdateId;

use crate::engine::{lock, AnswerOutcome, EngineShared, ExchangeEngine};

/// Why a replication API call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncError {
    /// The engine was not built with a replica identity
    /// ([`crate::EngineBuilder::replicated`]).
    NotReplicated,
    /// Events arrived behind the canonical fold; the node must be rebuilt
    /// from its logs (see the module docs) before it can accept more work.
    RebuildRequired,
    /// The underlying engine failed fatally while folding.
    Engine(ChaseError),
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::NotReplicated => write!(f, "engine has no replica identity"),
            SyncError::RebuildRequired => {
                write!(f, "events arrived behind the canonical fold: rebuild from logs required")
            }
            SyncError::Engine(e) => write!(f, "engine failed during replicated fold: {e}"),
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
    /// The fold can no longer proceed incrementally; rebuild from logs
    /// (events were still appended, so `export_replication_log` is complete).
    pub rebuild_required: bool,
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

/// The replication bookkeeping hanging off `EngineShared` (one mutex,
/// outermost in the lock order: replication → sequencer → slots → slot →
/// pending).
pub(crate) struct ReplicationState {
    node: NodeId,
    /// Lamport clock: max of every lamport seen, floor for own events.
    clock: u64,
    /// Per-origin append-only event logs (everything known, fold input).
    logs: BTreeMap<NodeId, Vec<ReplicationEvent>>,
    /// Submits not yet admitted, keyed by canonical stamp.
    pending_submits: BTreeMap<EventStamp, youtopia_core::InitialOp>,
    /// Admitted submits, keyed by stamp (admission order = canonical order).
    admitted: BTreeMap<EventStamp, AdmittedUpdate>,
    /// Reverse index: engine update id → submit stamp.
    by_update: BTreeMap<UpdateId, EventStamp>,
    /// Canonical winner per `(target, position)`.
    answers: BTreeMap<(EventStamp, u32), AnswerRecord>,
    /// Stamp of the most recently admitted submit (the fold's high-water
    /// mark); a submit arriving below it means rebuild.
    last_admitted: Option<EventStamp>,
    /// The admitted-but-not-terminated submit (serial fold: at most one).
    current: Option<EventStamp>,
    /// Set when an event arrived behind the fold; cleared only by rebuild
    /// (i.e. never on this engine — the rebuilt engine starts clean).
    needs_rebuild: bool,
}

impl ReplicationState {
    pub(crate) fn new(node: NodeId) -> ReplicationState {
        ReplicationState {
            node,
            clock: 0,
            logs: BTreeMap::new(),
            pending_submits: BTreeMap::new(),
            admitted: BTreeMap::new(),
            by_update: BTreeMap::new(),
            answers: BTreeMap::new(),
            last_admitted: None,
            current: None,
            needs_rebuild: false,
        }
    }

    fn state_vector(&self) -> StateVector {
        let mut sv = StateVector::new();
        for (&origin, log) in &self.logs {
            sv.set(origin, log.len() as u64);
        }
        sv
    }

    /// Ingests one event at the tail of `origin`'s log, updating the clock,
    /// the pending/answer indexes and the rebuild flag.
    fn ingest(&mut self, origin: NodeId, event: ReplicationEvent) {
        self.clock = self.clock.max(event.lamport());
        let stamp = event.stamp(origin);
        match &event {
            ReplicationEvent::Submit { op, .. } => {
                if self.last_admitted.is_some_and(|last| stamp < last) {
                    self.needs_rebuild = true;
                }
                self.pending_submits.insert(stamp, op.clone());
            }
            ReplicationEvent::Answer { target, position, decision, origin: res_origin, .. } => {
                let key = (*target, *position);
                let record =
                    AnswerRecord { stamp, decision: decision.clone(), origin: *res_origin };
                match self.answers.get(&key) {
                    Some(existing) if existing.stamp <= stamp => {
                        // Canonical loser (or duplicate): a no-op everywhere.
                    }
                    Some(_) => {
                        // A canonically smaller answer displaces the winner.
                        // If the old winner was already folded in, the fold
                        // prefix is wrong — rebuild.
                        if self
                            .admitted
                            .get(target)
                            .is_some_and(|au| *position < au.answers_applied)
                        {
                            self.needs_rebuild = true;
                        }
                        self.answers.insert(key, record);
                    }
                    None => {
                        self.answers.insert(key, record);
                    }
                }
            }
        }
        self.logs.entry(origin).or_default().push(event);
    }

    /// Appends a locally produced event to the own log (stamping it with the
    /// next Lamport tick) and returns its stamp.
    fn append_own(&mut self, make: impl FnOnce(u64) -> ReplicationEvent) -> EventStamp {
        self.clock += 1;
        let event = make(self.clock);
        debug_assert_eq!(event.lamport(), self.clock);
        let stamp = event.stamp(self.node);
        self.ingest(self.node, event);
        stamp
    }
}

/// Admits one replicated update through the internal submission path (no
/// handle, no admission cap — fold admissions are never refused; backpressure
/// belongs at the edge that accepted the original submit).
fn admit_internal(shared: &EngineShared, op: youtopia_core::InitialOp) -> UpdateId {
    let mut seq = shared.enter();
    let mut slots = shared.slots.write().unwrap_or_else(|e| e.into_inner());
    let id = shared.admit(&mut seq, &mut slots, vec![op])[0].0;
    drop(slots);
    drop(seq);
    shared.signal.bump();
    id
}

/// Applies a recorded answer to the (unique, serial-fold) pending frontier of
/// `update`. An invalid decision is *consumed deterministically*: the
/// question stays pending and the fold waits for the next position's answer —
/// every replica rejects the same decision at the same position, so this too
/// converges.
fn apply_recorded_answer(
    shared: &EngineShared,
    update: UpdateId,
    decision: FrontierDecision,
    origin: ResolutionOrigin,
) {
    let mut seq = shared.enter();
    let removed = {
        let mut pending = lock(&shared.pending);
        let token = pending.iter().find(|(_, e)| e.update == update).map(|(&t, _)| t);
        token.and_then(|t| pending.remove(&t).map(|e| (t, e)))
    };
    let Some((token, entry)) = removed else { return };
    // Applied advances the fold; Err re-listed the entry (consumed no-op);
    // Stale cannot happen (the slot was observed blocked under this entry).
    let _ = shared.apply_answer(&mut seq, FrontierToken(token), entry, decision, origin);
}

/// The state of the fold's current update after settling.
enum CurrentState {
    Running, // still chasing (only when the engine is stopping)
    Blocked,
    Done,
}

fn current_state(shared: &EngineShared, update: UpdateId) -> CurrentState {
    let Ok(cell) = shared.lookup(update) else { return CurrentState::Done };
    let slot = lock(&cell);
    if slot.failed.is_some() || slot.exec.is_terminated() {
        return CurrentState::Done;
    }
    if slot.published.is_some() && slot.exec.state() == UpdateState::AwaitingFrontier {
        return CurrentState::Blocked;
    }
    CurrentState::Running
}

/// Drives the canonical fold as far as the recorded events allow: settle,
/// feed recorded answers, admit the canonical next submit, repeat. Returns
/// the stall point, if any. Must be called with the replication mutex held.
fn pump(
    engine: &ExchangeEngine,
    st: &mut ReplicationState,
) -> Result<Option<(EventStamp, u32)>, SyncError> {
    let shared: &EngineShared = &engine.shared;
    if st.needs_rebuild {
        return Err(SyncError::RebuildRequired);
    }
    loop {
        // Settle: idle, blocked on a published frontier, or failed.
        engine.drive().map_err(SyncError::Engine)?;
        if let Some(stamp) = st.current {
            let au = st.admitted.get_mut(&stamp).expect("current is admitted");
            match current_state(shared, au.update) {
                CurrentState::Done => {
                    st.current = None;
                    continue;
                }
                CurrentState::Running => {
                    // Settle returned while the update still runs: only
                    // possible when the engine is stopping.
                    return Ok(None);
                }
                CurrentState::Blocked => {
                    let position = au.answers_applied;
                    match st.answers.get(&(stamp, position)) {
                        Some(record) => {
                            let (decision, origin) = (record.decision.clone(), record.origin);
                            au.answers_applied += 1;
                            apply_recorded_answer(shared, au.update, decision, origin);
                            continue;
                        }
                        None => return Ok(Some((stamp, position))),
                    }
                }
            }
        }
        match st.pending_submits.pop_first() {
            Some((stamp, op)) => {
                let update = admit_internal(shared, op);
                st.admitted.insert(stamp, AdmittedUpdate { update, answers_applied: 0 });
                st.by_update.insert(update, stamp);
                st.last_admitted = Some(stamp);
                st.current = Some(stamp);
            }
            None => return Ok(None),
        }
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
    let repl = shared.replication.as_ref().expect("caller checked");
    let mut st = lock(repl);
    if st.needs_rebuild {
        return Err(ChaseError::InvalidDecision(
            "replica is behind the canonical fold: rebuild before answering".into(),
        ));
    }
    let mut seq = shared.enter();
    let entry = lock(&shared.pending).remove(&token.0);
    let Some(entry) = entry else { return Ok(AnswerOutcome::Stale) };
    let Some(&target) = st.by_update.get(&entry.update) else {
        // Not a replicated update (cannot happen: plain submits are refused).
        lock(&shared.pending).insert(token.0, entry);
        return Err(ChaseError::InvalidDecision("frontier belongs to no replicated update".into()));
    };
    let position = st.admitted.get(&target).expect("admitted").answers_applied;
    let outcome = shared.apply_answer(&mut seq, token, entry, decision.clone(), origin)?;
    // The fold below drives the sequencer itself.
    drop(seq);
    match outcome {
        AnswerOutcome::Stale => Ok(AnswerOutcome::Stale),
        AnswerOutcome::Applied => {
            st.append_own(|lamport| ReplicationEvent::Answer {
                lamport,
                target,
                position,
                decision,
                origin,
            });
            st.admitted.get_mut(&target).expect("admitted").answers_applied = position + 1;
            match pump(engine, &mut st) {
                Ok(_) => Ok(AnswerOutcome::Applied),
                // The answer itself landed; a fold failure surfaces on the
                // engine error (and every later call).
                Err(SyncError::Engine(e)) => Err(e),
                Err(_) => Ok(AnswerOutcome::Applied),
            }
        }
    }
}

impl ExchangeEngine {
    fn replication(&self) -> Result<&Mutex<ReplicationState>, SyncError> {
        self.shared.replication.as_ref().ok_or(SyncError::NotReplicated)
    }

    /// This engine's replica identity, if it has one.
    pub fn node_id(&self) -> Option<NodeId> {
        self.shared.config.replica
    }

    /// The node's [`StateVector`]: how much of each origin's event log it
    /// holds. The handshake currency of the delta protocol.
    pub fn state_vector(&self) -> Result<StateVector, SyncError> {
        Ok(lock(self.replication()?).state_vector())
    }

    /// Encodes everything `since` is missing as per-origin log suffixes —
    /// y-crdt's `encode_state_as_update(state_vector)`.
    pub fn encode_deltas_since(&self, since: &StateVector) -> Result<DeltaBatch, SyncError> {
        let st = lock(self.replication()?);
        let mut entries = Vec::new();
        for (&origin, log) in &st.logs {
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

    /// The node's complete event history as one batch (every origin from
    /// sequence 0) — the rebuild input.
    pub fn export_replication_log(&self) -> Result<DeltaBatch, SyncError> {
        self.encode_deltas_since(&StateVector::new())
    }

    /// Applies a peer's delta batch: appends the unseen events to the local
    /// logs and drives the canonical fold as far as they allow. Duplicates
    /// are skipped, out-of-reach suffixes are reported as
    /// [`SyncReport::gaps`] (re-request from the returned position), and
    /// events landing behind the fold set [`SyncReport::rebuild_required`].
    pub fn apply_remote_deltas(&self, batch: &DeltaBatch) -> Result<SyncReport, SyncError> {
        let repl = self.replication()?;
        let mut st = lock(repl);
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
                st.ingest(entry.origin, event.clone());
                report.appended += 1;
            }
        }
        match pump(self, &mut st) {
            Ok(stalled) => {
                report.stalled = stalled;
                Ok(report)
            }
            Err(SyncError::RebuildRequired) => {
                report.rebuild_required = true;
                Ok(report)
            }
            Err(e) => Err(e),
        }
    }

    /// Submits one update *as this replica*: appends a submit event to the
    /// own log (peers will pull it) and folds it in locally. Returns the
    /// event stamp — the update's identity across the whole replica set
    /// (resolve it to this engine's update id with
    /// [`replicated_update_id`](Self::replicated_update_id)).
    pub fn submit_replicated(&self, op: youtopia_core::InitialOp) -> Result<EventStamp, SyncError> {
        let repl = self.replication()?;
        let mut st = lock(repl);
        if st.needs_rebuild {
            return Err(SyncError::RebuildRequired);
        }
        let stamp = st.append_own(|lamport| ReplicationEvent::Submit { lamport, op });
        pump(self, &mut st)?;
        Ok(stamp)
    }

    /// Resolves a replicated submit's event stamp to the update id this
    /// engine folded it in under (`None` while it is still pending). Update
    /// ids agree across replicas holding the same event set — they are
    /// assigned in canonical order — but differ after divergent prefixes, so
    /// the *stamp* is the portable name.
    pub fn replicated_update_id(&self, stamp: EventStamp) -> Result<Option<UpdateId>, SyncError> {
        Ok(lock(self.replication()?).admitted.get(&stamp).map(|au| au.update))
    }

    /// Whether events have arrived behind the canonical fold, requiring a
    /// rebuild from logs (see the module docs).
    pub fn replication_needs_rebuild(&self) -> Result<bool, SyncError> {
        Ok(lock(self.replication()?).needs_rebuild)
    }

    /// Drives the fold without new input (useful after answering through
    /// [`ExchangeEngine::answer`], which already pumps, or to observe the
    /// stall point). Returns the canonical next unanswered question, if the
    /// fold is stalled on one.
    pub fn pump_replication(&self) -> Result<Option<(EventStamp, u32)>, SyncError> {
        let repl = self.replication()?;
        let mut st = lock(repl);
        pump(self, &mut st)
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
        let full = a.export_replication_log().unwrap();
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
    fn concurrent_submits_behind_the_fold_require_rebuild() {
        let a = replica(0);
        let b = replica(1);
        // Both nodes submit concurrently (no sync in between): both events
        // carry lamport 1, so B's own (1, n1) folds first there while A's
        // (1, n0) is canonically smaller.
        let sa = a.submit_replicated(insert_city("Winery Tours HQ")).unwrap();
        let sb = b.submit_replicated(insert_city("Maid of the Mist HQ")).unwrap();
        assert!(sa < sb, "origin breaks the lamport tie");
        let delta = a.encode_deltas_since(&StateVector::new()).unwrap();
        let report = b.apply_remote_deltas(&delta).unwrap();
        assert!(report.rebuild_required, "A's submit sorts before B's applied one");
        assert!(b.replication_needs_rebuild().unwrap());
        // A, by contrast, can fold B's later event incrementally.
        let delta = b.encode_deltas_since(&a.state_vector().unwrap()).unwrap();
        let report = a.apply_remote_deltas(&delta).unwrap();
        assert!(!report.rebuild_required);
        // B refuses new work until rebuilt.
        assert_eq!(
            b.submit_replicated(insert_city("Rome Office")).unwrap_err(),
            SyncError::RebuildRequired
        );
        a.shutdown();
        b.shutdown();
    }
}
