//! [`EngineBuilder`]: the one configuration surface for long-lived engines.
//!
//! Engine knobs used to be spread across field structs — [`SchedulerConfig`]
//! (chase/scheduling) and [`EngineConfig`] (service lifecycle) — and wiring a
//! durable engine meant assembling both plus a [`DurabilityConfig`] by hand.
//! The builder subsumes them (the single-update facade takes one too:
//! [`UpdateExchange::with_builder`](crate::UpdateExchange::with_builder)):
//! every knob appears exactly once, the assembled [`EngineConfig`] remains the
//! single input to the durable config fingerprint (via
//! [`EngineBuilder::config`]), and the terminals pick the right engine
//! constructor for you.
//!
//! ```
//! use youtopia_concurrency::{EngineBuilder, TrackerKind};
//! use youtopia_core::ViolationStateMode;
//! use youtopia_mappings::MappingSet;
//! use youtopia_storage::Database;
//!
//! let mut db = Database::new();
//! db.add_relation("C", ["city"]).unwrap();
//! let engine = EngineBuilder::new()
//!     .tracker(TrackerKind::Precise)
//!     .violation_state(ViolationStateMode::Shared)
//!     .admission_cap(64)
//!     .build(db, MappingSet::new())
//!     .unwrap();
//! engine.shutdown();
//! ```

use youtopia_core::{ChaseMode, EscalationPolicy, ViolationStateMode};
use youtopia_mappings::MappingSet;
use youtopia_storage::Database;

use crate::deps::TrackerKind;
use crate::durable::{DurabilityConfig, RecoveryError};
use crate::engine::{EngineConfig, ExchangeEngine};
use crate::scheduler::{SchedulerConfig, SchedulingPolicy};

/// Fluent construction of an [`ExchangeEngine`] (durable or not). See the
/// [module docs](self); every setter documents which historical field it
/// replaces.
#[derive(Clone, Debug, Default)]
pub struct EngineBuilder {
    config: EngineConfig,
    durability: Option<DurabilityConfig>,
}

impl EngineBuilder {
    /// A builder with the engine defaults: one deterministic sequencer
    /// thread, shared violation index, no durability, unbounded
    /// admission/retention.
    pub fn new() -> EngineBuilder {
        EngineBuilder::default()
    }

    // ---- chase / scheduling (historically `SchedulerConfig`) ----

    /// No-op: an engine owns at most one chase thread, so there is no worker
    /// count to set. Kept (storing nothing) only because the frozen `perf/`
    /// harness calls it; to be retired with the next benchmark change.
    #[doc(hidden)]
    pub fn workers(self, _workers: usize) -> EngineBuilder {
        self
    }

    /// Dependency tracker. Replaces [`SchedulerConfig::tracker`].
    pub fn tracker(mut self, tracker: TrackerKind) -> EngineBuilder {
        self.config.scheduler.tracker = tracker;
        self
    }

    /// Scheduling policy. Replaces [`SchedulerConfig::policy`].
    pub fn policy(mut self, policy: SchedulingPolicy) -> EngineBuilder {
        self.config.scheduler.policy = policy;
        self
    }

    /// Violation-queue maintenance mode. Replaces
    /// [`SchedulerConfig::chase_mode`].
    pub fn chase_mode(mut self, mode: ChaseMode) -> EngineBuilder {
        self.config.scheduler.chase_mode = mode;
        self
    }

    /// Violation-state mode: the engine-shared violation index (default) or
    /// the per-update differential baseline. Replaces
    /// [`SchedulerConfig::violation_state`]; see [`crate::viewmaint`].
    pub fn violation_state(mut self, mode: ViolationStateMode) -> EngineBuilder {
        self.config.scheduler.violation_state = mode;
        self
    }

    /// Free-running scheduling: one chase thread fed from a run queue, so an
    /// update blocked on a frontier parks while the others keep stepping
    /// (schedule-dependent but consistent) — incompatible with durability and
    /// replication. Replaces clearing [`SchedulerConfig::deterministic`].
    pub fn free_running(mut self) -> EngineBuilder {
        self.config.scheduler.deterministic = false;
        self
    }

    /// Simulated-user frontier delay in scheduler rounds. Replaces
    /// [`SchedulerConfig::frontier_delay_rounds`].
    pub fn frontier_delay_rounds(mut self, rounds: usize) -> EngineBuilder {
        self.config.scheduler.frontier_delay_rounds = rounds;
        self
    }

    /// Engine-wide cumulative step valve (a batch-run safety net; defaults to
    /// unbounded on a long-lived engine). Replaces
    /// [`SchedulerConfig::max_total_steps`].
    pub fn max_total_steps(mut self, steps: usize) -> EngineBuilder {
        self.config.scheduler.max_total_steps = steps;
        self
    }

    // ---- service lifecycle (historically `EngineConfig`) ----

    /// Priority number of the first submitted update. Replaces
    /// [`EngineConfig::first_update_number`].
    pub fn first_update_number(mut self, first: u64) -> EngineBuilder {
        self.config.first_update_number = first;
        self
    }

    /// Per-update step budget (the runaway update fails alone). Replaces
    /// [`EngineConfig::max_steps_per_update`]; the single-update facade takes
    /// it through [`UpdateExchange::with_builder`](crate::UpdateExchange::with_builder).
    pub fn max_steps_per_update(mut self, limit: usize) -> EngineBuilder {
        self.config.max_steps_per_update = limit;
        self
    }

    /// Admission cap (backpressure, not queueing). Replaces
    /// [`EngineConfig::admission_cap`].
    pub fn admission_cap(mut self, cap: usize) -> EngineBuilder {
        self.config.admission_cap = cap;
        self
    }

    /// Retention horizon for finished update records. Replaces
    /// [`EngineConfig::retention_horizon`].
    pub fn retention_horizon(mut self, horizon: usize) -> EngineBuilder {
        self.config.retention_horizon = horizon;
        self
    }

    /// Inline (threadless, caller-driven) mode. Replaces
    /// [`EngineConfig::inline`].
    pub fn inline(mut self) -> EngineBuilder {
        self.config.inline = true;
        self
    }

    /// Frontier escalation policy for the lifecycle sweeper. Replaces
    /// [`EngineConfig::escalation`].
    pub fn escalation(mut self, policy: EscalationPolicy) -> EngineBuilder {
        self.config.escalation = policy;
        self
    }

    /// Retention bound for the shared violation index's delta backlog
    /// (defaults to [`youtopia_storage::DELTA_BACKLOG_CAP`]; clamped to at
    /// least 1). Smaller caps trade detection time (gap fallbacks) for
    /// memory; not part of the durable config fingerprint. Replaces reaching
    /// into the store by hand.
    pub fn delta_backlog_cap(mut self, cap: usize) -> EngineBuilder {
        self.config.delta_backlog_cap = cap;
        self
    }

    /// Gives the engine a replica identity: it becomes a node of a
    /// replicated deployment (see [`crate::replicate`]). Work enters through
    /// `submit_replicated` / `apply_remote_deltas` instead of
    /// [`ExchangeEngine::submit`]; implies deterministic scheduling and is
    /// mutually exclusive with [`durable`](Self::durable).
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

    // ---- escape hatch / introspection ----

    /// Replaces the whole scheduler block at once — for callers migrating
    /// from a hand-assembled [`SchedulerConfig`].
    pub fn scheduler(mut self, scheduler: SchedulerConfig) -> EngineBuilder {
        self.config.scheduler = scheduler;
        self
    }

    /// The assembled [`EngineConfig`] — exactly what the terminals hand the
    /// engine, and the **single** input (with the mapping set) to the durable
    /// config fingerprint. Durable state written by a built engine can only
    /// be recovered under a builder whose `config()` matches.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    // ---- terminals ----

    /// Starts the engine. Infallible without [`durable`](Self::durable);
    /// with it, creating the WAL/snapshot files can fail, and free-running
    /// scheduling is rejected (durability needs the deterministic sequencer).
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
    /// database comes from its snapshot, not from the caller).
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
        let b = EngineBuilder::new()
            .free_running()
            .tracker(TrackerKind::Precise)
            .policy(SchedulingPolicy::StratumRoundRobin)
            .chase_mode(ChaseMode::FullRecheck)
            .violation_state(ViolationStateMode::PerUpdate)
            .frontier_delay_rounds(2)
            .max_total_steps(99)
            .first_update_number(10)
            .max_steps_per_update(500)
            .admission_cap(8)
            .retention_horizon(16)
            .delta_backlog_cap(7)
            .replicated(youtopia_core::replication::NodeId(4))
            .inline()
            .escalation(EscalationPolicy::Wait);
        let c = b.config();
        assert!(!c.scheduler.deterministic);
        assert_eq!(c.scheduler.tracker, TrackerKind::Precise);
        assert_eq!(c.scheduler.policy, SchedulingPolicy::StratumRoundRobin);
        assert_eq!(c.scheduler.chase_mode, ChaseMode::FullRecheck);
        assert_eq!(c.scheduler.violation_state, ViolationStateMode::PerUpdate);
        assert_eq!(c.scheduler.frontier_delay_rounds, 2);
        assert_eq!(c.scheduler.max_total_steps, 99);
        assert_eq!(c.first_update_number, 10);
        assert_eq!(c.max_steps_per_update, 500);
        assert_eq!(c.admission_cap, 8);
        assert_eq!(c.retention_horizon, 16);
        assert_eq!(c.delta_backlog_cap, 7);
        assert_eq!(c.replica, Some(youtopia_core::replication::NodeId(4)));
        assert!(c.inline);
    }

    #[test]
    fn delta_backlog_cap_reaches_the_violation_index() {
        let (db, mappings) = travel();
        let engine =
            EngineBuilder::new().inline().delta_backlog_cap(3).build(db, mappings).unwrap();
        assert_eq!(engine.violation_index().backlog_cap, 3);
        engine.shutdown();
    }

    #[test]
    fn replicated_engines_refuse_plain_submission() {
        let (db, mappings) = travel();
        let c = db.relation_id("C").unwrap();
        let engine = EngineBuilder::new()
            .inline()
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
            .inline()
            .replicated(youtopia_core::replication::NodeId(0))
            .durable(DurabilityConfig::new(&dir))
            .build(db, mappings);
        assert!(matches!(err, Err(RecoveryError::ReplicatedUnsupported)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_builder_matches_the_default_engine_config() {
        // The builder must not silently fork the defaults: a durable engine
        // built either way fingerprints identically.
        let built = EngineBuilder::new().config();
        let legacy = EngineConfig::default();
        assert_eq!(format!("{built:?}"), format!("{legacy:?}"));
        // The retained `workers` no-op stores nothing.
        let eight = EngineBuilder::new().workers(8).config();
        assert_eq!(format!("{eight:?}"), format!("{legacy:?}"));
    }

    #[test]
    fn built_engines_run_updates_end_to_end() {
        let (db, mappings) = travel();
        let c = db.relation_id("C").unwrap();
        let engine = EngineBuilder::new().inline().build(db, mappings).unwrap();
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
        let builder = EngineBuilder::new().inline().durable(DurabilityConfig::new(&dir));
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

    #[test]
    fn free_running_durable_build_is_rejected() {
        let dir = std::env::temp_dir().join(format!("yt-builder-fr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (db, mappings) = travel();
        let err = EngineBuilder::new()
            .free_running()
            .durable(DurabilityConfig::new(&dir))
            .build(db, mappings);
        assert!(matches!(err, Err(RecoveryError::FreeRunningUnsupported)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
