//! [`ReplicaNode`]: one replicated engine and its refold count.

use youtopia_concurrency::replicate::{SyncError, SyncReport};
use youtopia_concurrency::{EngineBuilder, ExchangeEngine};
use youtopia_core::replication::{DeltaBatch, EventStamp, NodeId, StateVector};
use youtopia_core::{ChaseError, FrontierResolver, InitialOp};
use youtopia_mappings::MappingSet;
use youtopia_storage::wal::serialize_database;
use youtopia_storage::Database;

/// One node of a replica set: a replicated [`ExchangeEngine`] over the
/// genesis database every peer started from.
///
/// The engine folds events incrementally whenever they extend the canonical
/// order; when a sync delivers events *behind* the fold (concurrent activity
/// from across a partition), the engine refolds in place, replaying the
/// merged logs against the genesis — the fold is a pure function of the
/// event set, so the replay lands on exactly the state every other holder of
/// that set renders. [`rebuilds`](Self::rebuilds) counts how often that
/// happened.
pub struct ReplicaNode {
    id: NodeId,
    engine: ExchangeEngine,
    rebuilds: usize,
}

/// The first update number a replica may assign: one past the highest update
/// id any version in `db` was written by (and no lower than the builder
/// default of 1).
fn first_update_number(db: &Database) -> u64 {
    let store = db.version_store();
    let mut max = 0u64;
    for schema in db.catalog().iter() {
        let relation = store.relation(schema.id).expect("catalog relation has storage");
        for tuple in relation.tuple_ids() {
            let chain = relation.chain(tuple).expect("listed tuple has a chain");
            for version in chain.versions() {
                max = max.max(version.update.0);
            }
        }
    }
    max + 1
}

impl ReplicaNode {
    /// Starts a node over its own copy of the genesis database. Every node of
    /// a set must be given an identical genesis (same bytes) — convergence is
    /// defined relative to it.
    ///
    /// Replicated updates are numbered from just above the highest update id
    /// already written in the genesis, so a genesis built by earlier chases
    /// (e.g. a generated workload fixture) never collides with fold-admitted
    /// updates. The number is derived from the bytes, so every holder of the
    /// same genesis derives the same numbering — a convergence precondition.
    pub fn new(id: NodeId, db: Database, mappings: MappingSet) -> ReplicaNode {
        let engine = EngineBuilder::new()
            .replicated(id)
            .first_update_number(first_update_number(&db))
            .build(db, mappings)
            .expect("non-durable replicated build is infallible");
        ReplicaNode { id, engine, rebuilds: 0 }
    }

    /// This node's replica identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's engine.
    pub fn engine(&self) -> &ExchangeEngine {
        &self.engine
    }

    /// How many times this node refolded from its logs (see the type docs).
    /// A refold restarts the engine's metrics, as a freshly built engine's.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// The node's [`StateVector`]: per-origin event counts it holds.
    pub fn state_vector(&self) -> Result<StateVector, SyncError> {
        self.engine.state_vector()
    }

    /// The events a peer summarised by `since` is missing.
    pub fn deltas_since(&self, since: &StateVector) -> Result<DeltaBatch, SyncError> {
        self.engine.encode_deltas_since(since)
    }

    /// Submits an update at this node, appending it to the node's own event
    /// log (peers pull it on their next sync). Returns the submit's
    /// [`EventStamp`] — its identity across the whole set.
    pub fn submit(&mut self, op: InitialOp) -> Result<EventStamp, SyncError> {
        self.engine.submit_replicated(op)
    }

    /// Applies a peer's delta batch. If the new events land behind the
    /// canonical fold, the engine refolds from its (now complete) logs
    /// before returning and the report says [`SyncReport::rebuilt`], so
    /// callers can observe how often healing cost a replay.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<SyncReport, SyncError> {
        let report = self.engine.apply_remote_deltas(batch)?;
        self.rebuilds += usize::from(report.rebuilt);
        Ok(report)
    }

    /// Answers every frontier question currently pending at this node with
    /// `resolver`'s decisions (each answer is recorded as a replicated event,
    /// so peers fold the decision instead of re-asking). Returns how many
    /// were answered.
    pub fn answer_pending(
        &mut self,
        resolver: &mut dyn FrontierResolver,
    ) -> Result<usize, ChaseError> {
        let engine = &self.engine;
        let mut answered = 0;
        while let Some(pf) = engine.pending_frontiers().into_iter().next() {
            let decision = engine.read(|db| resolver.resolve(&db.snapshot(pf.update), &pf.request));
            engine.answer(pf.token, decision)?;
            answered += 1;
        }
        Ok(answered)
    }

    /// Whether the node's fold is complete: nothing pending, nothing stalled,
    /// nothing queued. Two settled nodes with equal state vectors render
    /// byte-identical databases.
    pub fn settled(&self) -> Result<bool, SyncError> {
        Ok(self.engine.pending_frontiers().is_empty() && self.engine.pump_replication()?.is_none())
    }

    /// The node's rendered database, serialized — the convergence comparator.
    pub fn rendered(&self) -> Vec<u8> {
        self.engine.read(serialize_database)
    }

    /// Shuts the node down, returning its engine's parts.
    pub fn shutdown(self) -> youtopia_storage::Database {
        let (db, _, _) = self.engine.shutdown();
        db
    }
}
