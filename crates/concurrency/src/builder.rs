//! [`EngineBuilder`]: the one configuration surface for long-lived engines.
//!
//! Every engine knob is a setter here, and the terminals
//! ([`build`](EngineBuilder::build), [`recover`](EngineBuilder::recover)) are
//! the only way to construct an [`ExchangeEngine`] — plain, durable or
//! replicated. The single-update facade takes a builder too
//! ([`UpdateExchange::with_builder`](crate::UpdateExchange::with_builder)).
//! Durable state written by a built engine can only be recovered under a
//! builder with the same chase, scheduling, numbering and escalation settings
//! (they are fingerprinted into the snapshot and the log header).
//!
//! ```
//! use youtopia_concurrency::{EngineBuilder, TrackerKind};
//! use youtopia_mappings::MappingSet;
//! use youtopia_storage::Database;
//!
//! let mut db = Database::new();
//! db.add_relation("C", ["city"]).unwrap();
//! let engine = EngineBuilder::new()
//!     .tracker(TrackerKind::Precise)
//!     .admission_cap(64)
//!     .build(db, MappingSet::new())
//!     .unwrap();
//! engine.shutdown();
//! ```

use youtopia_core::{ChaseMode, EscalationPolicy};
use youtopia_mappings::MappingSet;
use youtopia_storage::Database;

use crate::deps::TrackerKind;
use crate::durable::{DurabilityConfig, RecoveryError};
use crate::engine::{EngineConfig, ExchangeEngine};
use crate::scheduler::SchedulingPolicy;

/// Fluent construction of an [`ExchangeEngine`] (durable or not). See the
/// [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct EngineBuilder {
    config: EngineConfig,
    durability: Option<DurabilityConfig>,
}

impl EngineBuilder {
    /// A builder with the engine defaults: a sequencer that blocks at
    /// published frontiers, no durability, unbounded admission/retention.
    pub fn new() -> EngineBuilder {
        EngineBuilder::default()
    }

    // ---- chase / scheduling ----

    /// No-op: an engine owns no thread — its callers drive it — so there is
    /// no worker count to set. Kept (storing nothing) only because the
    /// frozen `perf/` harness calls it; to be retired with the next
    /// benchmark change.
    #[doc(hidden)]
    pub fn workers(self, _workers: usize) -> EngineBuilder {
        self
    }

    /// No-op: every engine runs its sequencer on the caller threads that
    /// drive it, so there is no threadless mode to choose. Kept (storing
    /// nothing) only because the frozen `perf/` harness calls it.
    #[doc(hidden)]
    pub fn inline(self) -> EngineBuilder {
        self
    }

    /// Dependency tracker for cascading aborts (default `COARSE`).
    pub fn tracker(mut self, tracker: TrackerKind) -> EngineBuilder {
        self.config.scheduler.tracker = tracker;
        self
    }

    /// How the sequencer interleaves ready updates (default: one step per
    /// visit).
    pub fn policy(mut self, policy: SchedulingPolicy) -> EngineBuilder {
        self.config.scheduler.policy = policy;
        self
    }

    /// Violation-queue maintenance mode (default delta-driven;
    /// [`ChaseMode::FullRecheck`] is the differential reference).
    pub fn chase_mode(mut self, mode: ChaseMode) -> EngineBuilder {
        self.config.scheduler.chase_mode = mode;
        self
    }

    /// Free-running scheduling: the sequencer steps past updates blocked on a
    /// published frontier instead of waiting for the answer, and parks only
    /// when every live update is blocked (a request without a
    /// [`frontier_delay_rounds`](Self::frontier_delay_rounds) delay is
    /// published with the step that raised it). The schedule then depends on
    /// where answers land between sequencer actions — always consistent, and
    /// replayed from the log by a [`durable`](Self::durable) engine.
    pub fn free_running(mut self) -> EngineBuilder {
        self.config.free_running = true;
        self
    }

    /// Simulated-user frontier delay: the number of sequencer rounds an
    /// update stays blocked after reaching a frontier before its request is
    /// published (default 0).
    pub fn frontier_delay_rounds(mut self, rounds: usize) -> EngineBuilder {
        self.config.scheduler.frontier_delay_rounds = rounds;
        self
    }

    /// Engine-wide cumulative step valve: once this many steps have ever
    /// executed the engine fails for good. A batch-run safety net — unbounded
    /// by default on a long-lived engine; bound individual updates with
    /// [`max_steps_per_update`](Self::max_steps_per_update) instead.
    pub fn max_total_steps(mut self, steps: usize) -> EngineBuilder {
        self.config.scheduler.max_total_steps = steps;
        self
    }

    // ---- service lifecycle ----

    /// Priority number of the first submitted update; later submissions count
    /// up from here in arrival order (the paper's timestamp prioritisation).
    pub fn first_update_number(mut self, first: u64) -> EngineBuilder {
        self.config.first_update_number = first;
        self
    }

    /// Per-update step budget: an update that exceeds it fails alone (its
    /// writes are rolled back, its handle reports the error) instead of
    /// tearing the engine down the way
    /// [`max_total_steps`](Self::max_total_steps) does.
    pub fn max_steps_per_update(mut self, limit: usize) -> EngineBuilder {
        self.config.max_steps_per_update = limit;
        self
    }

    /// Admission cap: the maximum number of in-flight (non-terminated)
    /// updates. Submissions beyond it fail with
    /// [`SubmitError::Saturated`](crate::SubmitError::Saturated) —
    /// backpressure, not queueing.
    pub fn admission_cap(mut self, cap: usize) -> EngineBuilder {
        self.config.admission_cap = cap;
        self
    }

    /// Retention horizon for finished update records: once more than this
    /// many slots are retained, permanently-terminal slots are evicted oldest
    /// first and keyed lookups for them report
    /// [`LookupError::SlotEvicted`](youtopia_core::LookupError::SlotEvicted).
    /// `usize::MAX` (the default) never evicts.
    pub fn retention_horizon(mut self, horizon: usize) -> EngineBuilder {
        self.config.retention_horizon = horizon;
        self
    }

    /// What the lifecycle sweeper ([`ExchangeEngine::sweep`]) does with a
    /// frontier request nobody answers: wait forever (the default), re-ask at
    /// higher priority, or auto-resolve with a system decision.
    pub fn escalation(mut self, policy: EscalationPolicy) -> EngineBuilder {
        self.config.escalation = policy;
        self
    }

    /// Gives the engine a replica identity: it becomes a node of a
    /// replicated deployment (see [`crate::replicate`]). Work enters through
    /// `submit_replicated` / `apply_remote_deltas` instead of
    /// [`ExchangeEngine::submit`]; mutually exclusive with
    /// [`durable`](Self::durable).
    pub fn replicated(mut self, node: youtopia_core::replication::NodeId) -> EngineBuilder {
        self.config.replica = Some(node);
        self
    }

    // ---- durability ----

    /// Makes the engine durable under `durability.dir`:
    /// [`build`](Self::build) write-ahead-logs every submission and answer,
    /// and [`recover`](Self::recover) replays a crashed engine from the same
    /// directory.
    pub fn durable(mut self, durability: DurabilityConfig) -> EngineBuilder {
        self.durability = Some(durability);
        self
    }

    // ---- terminals ----

    /// Starts the engine. Infallible without [`durable`](Self::durable);
    /// with it, creating the WAL/snapshot files can fail.
    pub fn build(
        self,
        db: Database,
        mappings: MappingSet,
    ) -> Result<ExchangeEngine, RecoveryError> {
        match self.durability {
            None => Ok(ExchangeEngine::new(db, mappings, self.config)),
            Some(durability) => ExchangeEngine::new_durable(db, mappings, self.config, durability),
        }
    }

    /// Recovers a crashed durable engine from the configured directory (the
    /// database comes from its snapshot, not from the caller): loads the
    /// newest snapshot and deterministically replays the log tail. The
    /// builder and `mappings` must match the original engine's (checked via
    /// fingerprint).
    ///
    /// # Panics
    ///
    /// If [`durable`](Self::durable) was not configured — there is nothing
    /// to recover from.
    pub fn recover(self, mappings: MappingSet) -> Result<ExchangeEngine, RecoveryError> {
        let durability =
            self.durability.expect("EngineBuilder::recover requires EngineBuilder::durable(..)");
        ExchangeEngine::recover(mappings, self.config, durability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_core::{InitialOp, RandomResolver};
    use youtopia_storage::{UpdateId, Value};

    use crate::engine::ResolverPump;

    fn travel() -> (Database, MappingSet) {
        let mut db = Database::new();
        db.add_relation("C", ["city"]).unwrap();
        db.add_relation("S", ["code", "location", "city_served"]).unwrap();
        let mut mappings = MappingSet::new();
        mappings.add_parsed(db.catalog(), "sigma1: C(c) -> exists a, l. S(a, l, c)").unwrap();
        (db, mappings)
    }

    #[test]
    fn builder_knobs_land_in_the_assembled_config() {
        // The retained `workers` and `inline` no-ops store nothing.
        let default = format!("{:?}", EngineConfig::default());
        assert_eq!(format!("{:?}", EngineBuilder::new().workers(8).config), default);
        assert_eq!(format!("{:?}", EngineBuilder::new().inline().config), default);
        let b = EngineBuilder::new()
            .free_running()
            .tracker(TrackerKind::Precise)
            .policy(SchedulingPolicy::StratumRoundRobin)
            .chase_mode(ChaseMode::FullRecheck)
            .frontier_delay_rounds(2)
            .max_total_steps(99)
            .first_update_number(10)
            .max_steps_per_update(500)
            .admission_cap(8)
            .retention_horizon(16)
            .replicated(youtopia_core::replication::NodeId(4))
            .escalation(EscalationPolicy::Wait);
        let c = b.config;
        assert!(c.free_running);
        assert_eq!(c.scheduler.tracker, TrackerKind::Precise);
        assert_eq!(c.scheduler.policy, SchedulingPolicy::StratumRoundRobin);
        assert_eq!(c.scheduler.chase_mode, ChaseMode::FullRecheck);
        assert_eq!(c.scheduler.frontier_delay_rounds, 2);
        assert_eq!(c.scheduler.max_total_steps, 99);
        assert_eq!(c.first_update_number, 10);
        assert_eq!(c.max_steps_per_update, 500);
        assert_eq!(c.admission_cap, 8);
        assert_eq!(c.retention_horizon, 16);
        assert_eq!(c.replica, Some(youtopia_core::replication::NodeId(4)));
    }

    #[test]
    fn replicated_engines_refuse_plain_submission() {
        let (db, mappings) = travel();
        let c = db.relation_id("C").unwrap();
        let engine = EngineBuilder::new()
            .replicated(youtopia_core::replication::NodeId(1))
            .build(db, mappings)
            .unwrap();
        let err = engine
            .submit(InitialOp::Insert { relation: c, values: vec![Value::constant("X")] })
            .unwrap_err();
        assert!(matches!(err, crate::engine::SubmitError::Replicated));
        engine.shutdown();
    }

    #[test]
    fn durable_replicated_build_is_rejected() {
        let dir = std::env::temp_dir().join(format!("yt-builder-repl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (db, mappings) = travel();
        let err = EngineBuilder::new()
            .replicated(youtopia_core::replication::NodeId(0))
            .durable(DurabilityConfig::new(&dir))
            .build(db, mappings);
        assert!(matches!(err, Err(RecoveryError::ReplicatedUnsupported)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn built_engines_run_updates_end_to_end() {
        let (db, mappings) = travel();
        let c = db.relation_id("C").unwrap();
        let engine = EngineBuilder::new().build(db, mappings).unwrap();
        let handle = engine
            .submit(InitialOp::Insert { relation: c, values: vec![Value::constant("Ithaca")] })
            .unwrap();
        let mut resolver = RandomResolver::seeded(4);
        ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
        assert!(handle.report().unwrap().terminated);
        let (db, _, _) = engine.shutdown();
        let s = db.relation_id("S").unwrap();
        assert_eq!(db.visible_count(s, UpdateId::OMNISCIENT), 1);
    }

    #[test]
    fn durable_build_then_recover_round_trips() {
        let dir = std::env::temp_dir().join(format!("yt-builder-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (db, mappings) = travel();
        let c = db.relation_id("C").unwrap();
        let builder = EngineBuilder::new().durable(DurabilityConfig::new(&dir));
        {
            let engine = builder.clone().build(db, mappings.clone()).unwrap();
            let mut resolver = RandomResolver::seeded(4);
            engine
                .submit(InitialOp::Insert { relation: c, values: vec![Value::constant("X")] })
                .unwrap();
            ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
            engine.shutdown();
        }
        let engine = builder.recover(mappings).unwrap();
        assert_eq!(engine.next_update_id(), UpdateId(2));
        // Replay stops at the last logged record; the chase work past it
        // (unlogged, deterministic) resumes under the recovered engine's pump.
        let mut resolver = RandomResolver::seeded(4);
        ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
        let (db, _, _) = engine.shutdown();
        let s = db.relation_id("S").unwrap();
        assert_eq!(db.visible_count(s, UpdateId::OMNISCIENT), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
