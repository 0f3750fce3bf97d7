//! The single-update exchange facade, now a client of the engine.
//!
//! [`UpdateExchange`] owns a long-lived, deterministic [`ExchangeEngine`]
//! and runs one update at a time to completion, consulting a
//! [`FrontierResolver`] whenever a chase blocks. This is the API the examples
//! use, the workload generator uses to build the initial database of
//! Section 6, and the simplest way to try the system (see
//! `examples/quickstart.rs`).
//!
//! Historically this facade lived in `youtopia-core` with its own chase loop
//! and its own report assembly. It now delegates to the engine:
//! [`UpdateExchange::run_update`] is submit → pump → [`UpdateHandle::report`],
//! so the [`UpdateReport`] comes through the exact same
//! [`UpdateReport::for_execution`] path batch runs use — one report type, no
//! duplicated metrics assembly.

use std::ops::{Deref, DerefMut};
use std::sync::MutexGuard;

use youtopia_core::{ChaseError, FrontierResolver, InitialOp, UpdateReport, UpdateStats};
use youtopia_mappings::{satisfies_all, MappingSet};
use youtopia_storage::{Database, NullId, RelationId, TupleId, UpdateId, Value};

use crate::builder::EngineBuilder;
use crate::engine::{ExchangeEngine, ResolverPump, UpdateHandle, UpdateStatus};
use crate::sequencer::Core;

/// Read access to the exchange's database: a guard that dereferences to
/// [`Database`]. It holds the engine's one lock, so every other engine call
/// waits for it — drop it before the next call on the exchange or its
/// engine (two guards alive in one expression deadlock too).
pub struct DbRef<'a>(MutexGuard<'a, Core>);

impl Deref for DbRef<'_> {
    type Target = Database;
    fn deref(&self) -> &Database {
        &self.0.db
    }
}

impl std::fmt::Debug for DbRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.db.fmt(f)
    }
}

/// Mutable access to the exchange's database (e.g. to register relations or
/// seed tuples outside of update exchange). Holds the engine's one lock, like
/// [`DbRef`] — drop it before running updates.
pub struct DbRefMut<'a>(MutexGuard<'a, Core>);

impl Deref for DbRefMut<'_> {
    type Target = Database;
    fn deref(&self) -> &Database {
        &self.0.db
    }
}

impl DerefMut for DbRefMut<'_> {
    fn deref_mut(&mut self) -> &mut Database {
        &mut self.0.db
    }
}

impl std::fmt::Debug for DbRefMut<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.db.fmt(f)
    }
}

/// Owns a database plus mappings (inside an engine) and runs
/// updates one at a time.
pub struct UpdateExchange {
    engine: ExchangeEngine,
}

impl UpdateExchange {
    /// Creates an exchange over an existing database and mapping set.
    pub fn new(db: Database, mappings: MappingSet) -> UpdateExchange {
        UpdateExchange::with_builder(db, mappings, EngineBuilder::new())
    }

    /// Creates an exchange whose engine is configured by `builder` — set any
    /// knob ([`EngineBuilder::max_steps_per_update`],
    /// [`EngineBuilder::tracker`], ...) before passing it in. The engine
    /// runs each update on the calling thread of
    /// [`run_update`](Self::run_update), so micro-chases stay at
    /// single-threaded cost. The step valve is per-update, not global (the
    /// builder's default): a runaway chase fails its own update and leaves
    /// the exchange usable.
    pub fn with_builder(
        db: Database,
        mappings: MappingSet,
        builder: EngineBuilder,
    ) -> UpdateExchange {
        let engine = builder
            .build(db, mappings)
            .expect("engine construction only fails for durable builders");
        UpdateExchange { engine }
    }

    /// The underlying engine — for callers that want to graduate from
    /// one-at-a-time runs to submitting concurrent updates directly.
    pub fn engine(&self) -> &ExchangeEngine {
        &self.engine
    }

    /// The database (a [`DbRef`] guard that dereferences to [`Database`]).
    pub fn db(&self) -> DbRef<'_> {
        DbRef(self.engine.shared.enter())
    }

    /// Mutable access to the database (e.g. to register relations or seed
    /// tuples outside of update exchange).
    pub fn db_mut(&mut self) -> DbRefMut<'_> {
        DbRefMut(self.engine.shared.enter())
    }

    /// The mapping set (fixed at construction, like every engine's).
    pub fn mappings(&self) -> &MappingSet {
        self.engine.mappings()
    }

    /// Consumes the exchange, returning its parts.
    pub fn into_parts(self) -> (Database, MappingSet) {
        let (db, mappings, _) = self.engine.shutdown();
        (db, mappings)
    }

    /// The priority number the next update will receive.
    pub fn next_update_id(&self) -> UpdateId {
        self.engine.next_update_id()
    }

    /// Whether the database currently satisfies every mapping.
    pub fn is_consistent(&self) -> bool {
        self.engine.read(|db| satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), self.mappings()))
    }

    /// Runs a complete update — the initial operation plus the entire chase —
    /// consulting `resolver` whenever the chase blocks on a frontier.
    pub fn run_update(
        &mut self,
        op: InitialOp,
        resolver: &mut dyn FrontierResolver,
    ) -> Result<UpdateReport, ChaseError> {
        let handle =
            self.engine.submit(op).map_err(|e| ChaseError::InvalidDecision(e.to_string()))?;
        ResolverPump::new(&self.engine, resolver).run_until_quiescent()?;
        self.finish(&handle)
    }

    fn finish(&self, handle: &UpdateHandle) -> Result<UpdateReport, ChaseError> {
        match handle.status() {
            UpdateStatus::Terminated => {
                Ok(handle.report().expect("terminated updates have a report"))
            }
            UpdateStatus::Failed => Err(handle.error().expect("failed updates have an error")),
            status => Err(ChaseError::InvalidDecision(format!(
                "update {} left {status:?} by a quiescent engine",
                handle.id()
            ))),
        }
    }

    /// Convenience: run an insertion given a relation name and values.
    pub fn insert(
        &mut self,
        relation: &str,
        values: Vec<Value>,
        resolver: &mut dyn FrontierResolver,
    ) -> Result<UpdateReport, ChaseError> {
        let relation = self.relation(relation)?;
        self.run_update(InitialOp::Insert { relation, values }, resolver)
    }

    /// Convenience: run an insertion of string constants.
    pub fn insert_constants(
        &mut self,
        relation: &str,
        values: &[&str],
        resolver: &mut dyn FrontierResolver,
    ) -> Result<UpdateReport, ChaseError> {
        let values = values.iter().map(|v| Value::constant(v)).collect();
        self.insert(relation, values, resolver)
    }

    /// Convenience: run a deletion.
    pub fn delete(
        &mut self,
        relation: &str,
        tuple: TupleId,
        resolver: &mut dyn FrontierResolver,
    ) -> Result<UpdateReport, ChaseError> {
        let relation = self.relation(relation)?;
        self.run_update(InitialOp::Delete { relation, tuple }, resolver)
    }

    /// Convenience: run a null-replacement.
    pub fn replace_null(
        &mut self,
        null: NullId,
        replacement: Value,
        resolver: &mut dyn FrontierResolver,
    ) -> Result<UpdateReport, ChaseError> {
        self.run_update(InitialOp::NullReplace { null, replacement }, resolver)
    }

    /// Aggregate statistics of the most recent update (diagnostics).
    pub fn last_update_stats(&self) -> Option<(UpdateId, UpdateStats)> {
        let last = UpdateId(self.engine.next_update_id().0.checked_sub(1)?);
        Some((last, self.engine.update_stats_of(last).ok()?))
    }

    fn relation(&self, name: &str) -> Result<RelationId, ChaseError> {
        self.db()
            .relation_id(name)
            .ok_or_else(|| ChaseError::InvalidDecision(format!("unknown relation `{name}`")))
    }
}

impl std::fmt::Debug for UpdateExchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdateExchange").field("engine", &self.engine).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_core::{ExpandResolver, RandomResolver, UnifyResolver};
    use youtopia_mappings::find_violations;

    fn travel_exchange() -> UpdateExchange {
        let mut db = Database::new();
        db.add_relation("C", ["city"]).unwrap();
        db.add_relation("S", ["code", "location", "city_served"]).unwrap();
        db.add_relation("A", ["location", "name"]).unwrap();
        db.add_relation("T", ["attraction", "company", "tour_start"]).unwrap();
        db.add_relation("R", ["company", "attraction", "review"]).unwrap();
        let mut mappings = MappingSet::new();
        mappings
            .add_parsed_many(
                db.catalog(),
                "
                sigma1: C(c) -> exists a, l. S(a, l, c)
                sigma2: S(a, c, c2) -> C(c) & C(c2)
                sigma3: A(l, n) & T(n, c, cs) -> exists r. R(c, n, r)
                ",
            )
            .unwrap();
        UpdateExchange::new(db, mappings)
    }

    #[test]
    fn consistency_is_restored_after_every_update() {
        let mut ex = travel_exchange();
        let mut resolver = RandomResolver::seeded(11);
        assert!(ex.is_consistent());
        ex.insert_constants("A", &["Geneva", "Geneva Winery"], &mut resolver).unwrap();
        ex.insert_constants("T", &["Geneva Winery", "XYZ", "Syracuse"], &mut resolver).unwrap();
        ex.insert_constants("C", &["Ithaca"], &mut resolver).unwrap();
        assert!(ex.is_consistent());
        assert!(find_violations(&ex.db().snapshot(UpdateId::OMNISCIENT), ex.mappings()).is_empty());
        assert_eq!(ex.next_update_id(), UpdateId(4));
    }

    #[test]
    fn cyclic_mappings_terminate_with_the_random_resolver() {
        // σ1/σ2 form the C ↔ S cycle of Figure 2; the classical chase would
        // not terminate, but the cooperative chase with a (simulated) user
        // does.
        let mut ex = travel_exchange();
        let mut resolver = RandomResolver::seeded(3);
        for i in 0..10 {
            ex.insert_constants("C", &[&format!("City{i}")], &mut resolver).unwrap();
        }
        assert!(ex.is_consistent());
    }

    #[test]
    fn unify_resolver_keeps_the_database_small() {
        let mut ex = travel_exchange();
        let mut unify = UnifyResolver;
        ex.insert_constants("C", &["Ithaca"], &mut unify).unwrap();
        ex.insert_constants("C", &["Syracuse"], &mut unify).unwrap();
        let s = ex.db().relation_id("S").unwrap();
        let c = ex.db().relation_id("C").unwrap();
        // Each city gets one suggested-airport row (from σ1); σ2 then reuses
        // existing cities through unification.
        assert!(ex.db().visible_count(s, UpdateId::OMNISCIENT) <= 2);
        assert!(ex.db().visible_count(c, UpdateId::OMNISCIENT) <= 3);
        assert!(ex.is_consistent());
    }

    #[test]
    fn expand_resolver_hits_the_step_limit_on_cyclic_mappings() {
        // Always expanding reproduces the classical chase's divergence on the
        // C ↔ S cycle; the exchange's step limit turns that into an error
        // instead of a hang — and, since the redesign, the failure is scoped
        // to the update: its writes are rolled back and the exchange stays
        // usable.
        let mut db = Database::new();
        db.add_relation("C", ["city"]).unwrap();
        db.add_relation("S", ["code", "location", "city_served"]).unwrap();
        let mut mappings = MappingSet::new();
        mappings
            .add_parsed_many(
                db.catalog(),
                "
                sigma1: C(c) -> exists a, l. S(a, l, c)
                sigma2: S(a, c, c2) -> C(c) & C(c2)
                ",
            )
            .unwrap();
        let mut ex = UpdateExchange::with_builder(
            db,
            mappings,
            EngineBuilder::new().max_steps_per_update(200),
        );
        let mut expand = ExpandResolver;
        let err = ex.insert_constants("C", &["Ithaca"], &mut expand);
        assert!(matches!(err, Err(ChaseError::StepLimitExceeded { .. })));
        // The failed update was rolled back; a cooperative user still works.
        let mut resolver = RandomResolver::seeded(5);
        ex.insert_constants("C", &["Dryden"], &mut resolver).unwrap();
        assert!(ex.is_consistent());
    }

    #[test]
    fn deletions_cascade_through_the_backward_chase() {
        let mut ex = travel_exchange();
        let mut resolver = RandomResolver::seeded(5);
        ex.insert_constants("A", &["Geneva", "Geneva Winery"], &mut resolver).unwrap();
        ex.insert_constants("T", &["Geneva Winery", "XYZ", "Syracuse"], &mut resolver).unwrap();
        assert!(ex.is_consistent());

        let r = ex.db().relation_id("R").unwrap();
        let review = ex.db().scan(r, UpdateId::OMNISCIENT)[0].0;
        let report = ex.delete("R", review, &mut resolver).unwrap();
        assert!(report.terminated);
        assert!(ex.is_consistent());
        // Something on the LHS had to go.
        let a = ex.db().relation_id("A").unwrap();
        let t = ex.db().relation_id("T").unwrap();
        let db = ex.db();
        let total =
            db.visible_count(a, UpdateId::OMNISCIENT) + db.visible_count(t, UpdateId::OMNISCIENT);
        assert!(total < 2);
    }

    #[test]
    fn null_replacement_updates_run_to_completion() {
        let mut ex = travel_exchange();
        let mut resolver = RandomResolver::seeded(9);
        ex.insert_constants("A", &["Niagara Falls", "Niagara Falls"], &mut resolver).unwrap();
        // Insert a tour with an unknown company.
        let x = ex.db_mut().fresh_null();
        let t_values =
            vec![Value::constant("Niagara Falls"), Value::Null(x), Value::constant("Toronto")];
        ex.insert("T", t_values, &mut resolver).unwrap();
        assert!(ex.is_consistent());
        // Completing the null keeps the database consistent.
        let report = ex.replace_null(x, Value::constant("ABC Tours"), &mut resolver).unwrap();
        assert!(report.terminated);
        assert!(ex.is_consistent());
    }

    #[test]
    fn unknown_relation_names_are_rejected() {
        let mut ex = travel_exchange();
        let mut resolver = RandomResolver::seeded(1);
        assert!(ex.insert_constants("Nope", &["x"], &mut resolver).is_err());
        let (db, mappings) = ex.into_parts();
        assert_eq!(db.catalog().len(), 5);
        assert_eq!(mappings.len(), 3);
    }

    #[test]
    fn reports_come_through_the_engine_path() {
        let mut ex = travel_exchange();
        let mut resolver = RandomResolver::seeded(2);
        let report = ex.insert_constants("C", &["Ithaca"], &mut resolver).unwrap();
        assert_eq!(report.update, UpdateId(1));
        assert!(report.terminated);
        assert!(report.stats.steps > 0);
        // The engine's handle-side view agrees with the returned report.
        assert_eq!(ex.last_update_stats(), Some((report.update, report.stats)));
    }
}
