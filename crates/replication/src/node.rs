//! [`ReplicaNode`]: one replicated engine plus its rebuild policy.

use youtopia_concurrency::replicate::{SyncError, SyncReport};
use youtopia_concurrency::{EngineBuilder, ExchangeEngine};
use youtopia_core::replication::{DeltaBatch, EventStamp, NodeId, StateVector};
use youtopia_core::{ChaseError, FrontierResolver, InitialOp};
use youtopia_mappings::MappingSet;
use youtopia_storage::wal::{deserialize_database, serialize_database};
use youtopia_storage::Database;

/// One node of a replica set: a replicated [`ExchangeEngine`], the genesis
/// database it (and every peer) started from, and the rebuild policy the
/// engine's mechanism delegates to.
///
/// The engine folds events incrementally whenever they extend the canonical
/// order; when a sync delivers events *behind* the fold (concurrent activity
/// from across a partition), the node discards the engine and replays the
/// merged logs against the genesis — the fold is a pure function of the event
/// set, so the replay lands on exactly the state every other holder of that
/// set renders. [`rebuilds`](Self::rebuilds) counts how often that happened.
pub struct ReplicaNode {
    id: NodeId,
    genesis: Vec<u8>,
    mappings: MappingSet,
    first_update: u64,
    engine: Option<ExchangeEngine>,
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

fn build_engine(
    id: NodeId,
    db: Database,
    mappings: MappingSet,
    first_update: u64,
) -> ExchangeEngine {
    EngineBuilder::new()
        .replicated(id)
        .first_update_number(first_update)
        .build(db, mappings)
        .expect("non-durable replicated build is infallible")
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
        let genesis = serialize_database(&db);
        let first_update = first_update_number(&db);
        let engine = build_engine(id, db, mappings.clone(), first_update);
        ReplicaNode { id, genesis, mappings, first_update, engine: Some(engine), rebuilds: 0 }
    }

    /// This node's replica identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's engine (always present between public calls).
    pub fn engine(&self) -> &ExchangeEngine {
        self.engine.as_ref().expect("engine is only absent mid-rebuild")
    }

    /// How many times this node rebuilt from logs (see the type docs).
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// The node's [`StateVector`]: per-origin event counts it holds.
    pub fn state_vector(&self) -> Result<StateVector, SyncError> {
        self.engine().state_vector()
    }

    /// The events a peer summarised by `since` is missing.
    pub fn deltas_since(&self, since: &StateVector) -> Result<DeltaBatch, SyncError> {
        self.engine().encode_deltas_since(since)
    }

    /// Submits an update at this node, appending it to the node's own event
    /// log (peers pull it on their next sync). Returns the submit's
    /// [`EventStamp`] — its identity across the whole set.
    pub fn submit(&mut self, op: InitialOp) -> Result<EventStamp, SyncError> {
        match self.engine().submit_replicated(op.clone()) {
            Err(SyncError::RebuildRequired) => {
                self.rebuild()?;
                self.engine().submit_replicated(op)
            }
            other => other,
        }
    }

    /// Applies a peer's delta batch. If the new events land behind the
    /// canonical fold, the node rebuilds from its (now complete) logs before
    /// returning — the report still says `rebuild_required`, so callers can
    /// observe how often healing cost a replay.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<SyncReport, SyncError> {
        let mut report = self.engine().apply_remote_deltas(batch)?;
        if report.rebuild_required {
            self.rebuild()?;
            report.stalled = self.engine().pump_replication()?;
        }
        Ok(report)
    }

    /// Replays the merged logs against a fresh engine over the genesis
    /// database. The replay ingests every event before folding any, so it can
    /// never itself require a rebuild.
    fn rebuild(&mut self) -> Result<(), SyncError> {
        let engine = self.engine.take().expect("engine is only absent mid-rebuild");
        let log = engine.export_replication_log()?;
        engine.shutdown();
        let db = deserialize_database(&self.genesis)
            .expect("genesis bytes came from serialize_database");
        let fresh = build_engine(self.id, db, self.mappings.clone(), self.first_update);
        let report = fresh.apply_remote_deltas(&log)?;
        debug_assert!(!report.rebuild_required, "a full replay cannot be behind itself");
        self.engine = Some(fresh);
        self.rebuilds += 1;
        Ok(())
    }

    /// Answers every frontier question currently pending at this node with
    /// `resolver`'s decisions (each answer is recorded as a replicated event,
    /// so peers fold the decision instead of re-asking). Returns how many
    /// were answered.
    pub fn answer_pending(
        &mut self,
        resolver: &mut dyn FrontierResolver,
    ) -> Result<usize, ChaseError> {
        let mut answered = 0;
        loop {
            let engine = self.engine();
            let Some(pf) = engine.pending_frontiers().into_iter().next() else {
                return Ok(answered);
            };
            let decision = engine.read(|db| resolver.resolve(&db.snapshot(pf.update), &pf.request));
            engine.answer(pf.token, decision)?;
            answered += 1;
        }
    }

    /// Whether the node's fold is complete: nothing pending, nothing stalled,
    /// nothing queued. Two settled nodes with equal state vectors render
    /// byte-identical databases.
    pub fn settled(&self) -> Result<bool, SyncError> {
        let engine = self.engine();
        Ok(engine.pending_frontiers().is_empty() && engine.pump_replication()?.is_none())
    }

    /// The node's rendered database, serialized — the convergence comparator.
    pub fn rendered(&self) -> Vec<u8> {
        self.engine().read(serialize_database)
    }

    /// Shuts the node down, returning its engine's parts.
    pub fn shutdown(mut self) -> youtopia_storage::Database {
        let (db, _, _) = self.engine.take().expect("engine present").shutdown();
        db
    }
}
