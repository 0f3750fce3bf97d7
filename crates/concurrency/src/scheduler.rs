//! The optimistic chase scheduler (Algorithms 3 and 4).
//!
//! A [`ConcurrentRun`] executes a batch of updates concurrently, interleaving
//! them at chase-step granularity. Each update sees the database through
//! multiversion visibility (lower-numbered updates' versions plus its own);
//! every step's writes are checked against the stored read queries of
//! higher-numbered updates, and conflicting readers — together with their
//! read-dependents, as determined by the configured tracker — are aborted,
//! rolled back and restarted.

use std::collections::BTreeSet;
use std::time::Instant;

use youtopia_core::{
    ChaseError, ChaseMode, FrontierResolver, InitialOp, UpdateExecution, UpdateState,
};
use youtopia_mappings::MappingSet;
use youtopia_storage::{Database, UpdateId};

use crate::metrics::RunMetrics;
use crate::validation::{TrackerKind, Validation};

/// Configuration of a batch run ([`ConcurrentRun`]), which interleaves ready
/// updates one chase step per visit — the round robin of every Section 6
/// experiment. Long-lived engines are configured through
/// [`EngineBuilder`](crate::EngineBuilder), which sets the tracker, the
/// frontier delay and the step valve the same way; the chase mode is the
/// reference's alone (an engine always chases [`ChaseMode::Incremental`]).
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Which cascading-abort tracker to use.
    pub tracker: TrackerKind,
    /// Safety valve: maximum total chase steps across the whole run.
    pub max_total_steps: usize,
    /// Number of scheduler rounds an update stays blocked after reaching a
    /// frontier before the (simulated) user answers. `0` answers within the
    /// same round; larger values widen the window in which other updates can
    /// interleave, mimicking slow humans.
    pub frontier_delay_rounds: usize,
    /// How the executions maintain their violation queues (delta-driven by
    /// default; [`ChaseMode::FullRecheck`] is the reference path the
    /// conflict-semantics differential tests compare against).
    pub chase_mode: ChaseMode,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            tracker: TrackerKind::Coarse,
            max_total_steps: 5_000_000,
            frontier_delay_rounds: 0,
            chase_mode: ChaseMode::default(),
        }
    }
}

impl SchedulerConfig {
    /// A configuration using the given tracker and defaults otherwise.
    pub fn with_tracker(tracker: TrackerKind) -> SchedulerConfig {
        SchedulerConfig { tracker, ..SchedulerConfig::default() }
    }

    // Builder-style setters. Prefer these over field-struct-update
    // construction (`SchedulerConfig { tracker, ..Default::default() }`) in
    // new code: they read as a sentence and keep call sites compiling when
    // the struct grows a knob.

    /// Replaces the violation-queue maintenance mode.
    pub fn with_chase_mode(mut self, chase_mode: ChaseMode) -> SchedulerConfig {
        self.chase_mode = chase_mode;
        self
    }

    /// Replaces the simulated-user frontier delay (in scheduler rounds).
    pub fn with_frontier_delay_rounds(mut self, rounds: usize) -> SchedulerConfig {
        self.frontier_delay_rounds = rounds;
        self
    }
}

struct Slot {
    exec: UpdateExecution,
    /// Visits the slot still sits out: a fresh frontier request waits
    /// `frontier_delay_rounds` of them before it is answered, and a
    /// terminated update revived by an abort one before it restarts.
    sit_out: usize,
}

/// A concurrent execution of a batch of updates over one database.
pub struct ConcurrentRun {
    db: Database,
    mappings: MappingSet,
    slots: Vec<Slot>,
    validation: Validation,
    config: SchedulerConfig,
    metrics: RunMetrics,
}

impl ConcurrentRun {
    /// Creates a run over `db` for the given initial operations. Update
    /// priority numbers are assigned in submission order starting at
    /// `first_update_number` (the natural "timestamp" prioritisation the
    /// paper mentions).
    pub fn new(
        db: Database,
        mappings: MappingSet,
        ops: Vec<InitialOp>,
        first_update_number: u64,
        config: SchedulerConfig,
    ) -> ConcurrentRun {
        let slots: Vec<Slot> = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| Slot {
                exec: UpdateExecution::with_mode(
                    UpdateId(first_update_number + i as u64),
                    op,
                    config.chase_mode,
                ),
                sit_out: 0,
            })
            .collect();
        let metrics = RunMetrics { workload_size: slots.len(), ..RunMetrics::default() };
        ConcurrentRun {
            db,
            mappings,
            slots,
            validation: Validation::new(config.tracker),
            config,
            metrics,
        }
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The database (e.g. to inspect the final state after [`Self::run`]).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Consumes the run, returning the database, mappings and metrics.
    pub fn into_parts(self) -> (Database, MappingSet, RunMetrics) {
        (self.db, self.mappings, self.metrics)
    }

    /// Runs every update to termination, consulting `resolver` for frontier
    /// operations, and returns the collected metrics.
    pub fn run(&mut self, resolver: &mut dyn FrontierResolver) -> Result<RunMetrics, ChaseError> {
        let start = Instant::now();
        loop {
            if self.slots.iter().all(|s| s.exec.is_terminated()) {
                break;
            }
            let mut progressed = false;
            for idx in 0..self.slots.len() {
                match self.slots[idx].exec.state() {
                    UpdateState::Terminated => continue,
                    _ if self.slots[idx].sit_out > 0 => {
                        self.slots[idx].sit_out -= 1;
                        progressed = true;
                    }
                    UpdateState::AwaitingFrontier => {
                        self.answer_frontier(idx, resolver)?;
                        progressed = true;
                    }
                    UpdateState::Ready => {
                        self.run_ready_slot(idx)?;
                        progressed = true;
                    }
                }
            }
            if !progressed {
                // Every non-terminated update is blocked with no way to make
                // progress; this cannot happen with a responsive resolver.
                return Err(ChaseError::InvalidDecision(
                    "scheduler stalled: no update can make progress".into(),
                ));
            }
        }
        self.metrics.wall_time = start.elapsed();
        Ok(self.metrics.clone())
    }

    fn answer_frontier(
        &mut self,
        idx: usize,
        resolver: &mut dyn FrontierResolver,
    ) -> Result<(), ChaseError> {
        let id = self.slots[idx].exec.id();
        let request =
            self.slots[idx].exec.pending_frontier().expect("state is AwaitingFrontier").clone();
        let decision = {
            let snap = self.db.snapshot(id);
            resolver.resolve(&snap, &request)
        };
        let reads = self.slots[idx].exec.resolve_frontier(&self.mappings, decision)?;
        self.metrics.frontier_ops += 1;
        if !self.solo() {
            self.validation.record_reads(&self.db, &self.mappings, id, &reads);
        }
        Ok(())
    }

    fn run_ready_slot(&mut self, idx: usize) -> Result<(), ChaseError> {
        // Safety valve: checked per step so the error names the update that
        // was actually stepping when the limit tripped.
        if self.metrics.steps >= self.config.max_total_steps {
            return Err(ChaseError::StepLimitExceeded {
                update: self.slots[idx].exec.id(),
                limit: self.config.max_total_steps,
            });
        }
        let outcome = {
            let slot = &mut self.slots[idx];
            slot.exec.step(&mut self.db, &self.mappings)?
        };
        self.metrics.steps += 1;
        self.metrics.changes += outcome.writes.iter().map(|w| w.changes.len()).sum::<usize>();

        // Algorithm 4: log the step, then check every change against the
        // stored reads of higher-numbered updates and cascade.
        self.validation.log_writes(&outcome.writes);
        if !self.solo() {
            self.validation.record_reads(&self.db, &self.mappings, outcome.update, &outcome.reads);
        }
        let to_abort = self.validation.collect_aborts(
            &self.db,
            &self.mappings,
            outcome.update,
            &outcome.writes,
            self.end(),
            &mut self.metrics,
        );
        self.perform_aborts(&to_abort);

        if outcome.frontier_request.is_some() {
            self.slots[idx].sit_out = self.config.frontier_delay_rounds;
        }
        Ok(())
    }

    /// A lone update's reads are never consulted: no other update writes
    /// against them or reads from it. Skipping them (as the engine does for
    /// its only in-flight update) keeps a one-op run at the cost of its
    /// chase.
    fn solo(&self) -> bool {
        self.slots.len() == 1
    }

    /// One past the highest update number in the run.
    fn end(&self) -> UpdateId {
        UpdateId(self.slots[0].exec.id().0 + self.slots.len() as u64)
    }

    /// Performs the consolidated aborts: roll back each update's writes, clear
    /// its logs and dependency bookkeeping, and reset it to redo its initial
    /// operation. A victim that had terminated sits out its next visit, the
    /// rest of this round (victims are numbered above the writer): restarted
    /// at once it would re-read what its fellow victims are rewriting.
    fn perform_aborts(&mut self, to_abort: &BTreeSet<UpdateId>) {
        for &victim in to_abort {
            let Some(slot) = self.slots.iter_mut().find(|s| s.exec.id() == victim) else {
                continue;
            };
            self.db.rollback_update(victim);
            slot.sit_out = usize::from(slot.exec.is_terminated());
            slot.exec.reset_for_restart();
            self.validation.forget(victim);
            self.metrics.aborts += 1;
        }
    }

    /// Per-update execution statistics (after or during a run).
    pub fn update_stats(&self) -> Vec<(UpdateId, youtopia_core::UpdateStats)> {
        self.slots.iter().map(|s| (s.exec.id(), s.exec.stats())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_core::RandomResolver;
    use youtopia_mappings::satisfies_all;
    use youtopia_storage::{UpdateId, Value};

    /// The Figure 2 repository restricted to the relations Example 3.1 needs.
    fn example_3_1_db() -> (Database, MappingSet) {
        let mut db = Database::new();
        db.add_relation("A", ["location", "name"]).unwrap();
        db.add_relation("T", ["attraction", "company", "tour_start"]).unwrap();
        db.add_relation("R", ["company", "attraction", "review"]).unwrap();
        db.add_relation("V", ["city", "convention"]).unwrap();
        db.add_relation("E", ["convention", "attraction"]).unwrap();
        let mut mappings = MappingSet::new();
        mappings
            .add_parsed_many(
                db.catalog(),
                "
                sigma3: A(l, n) & T(n, c, cs) -> exists r. R(c, n, r)
                sigma4: V(cv, x) & T(n, c, cv) -> E(x, n)
                ",
            )
            .unwrap();
        let u = UpdateId(0);
        db.insert_by_name("A", &["Geneva", "Geneva Winery"], u);
        db.insert_by_name("T", &["Geneva Winery", "XYZ", "Syracuse"], u);
        db.insert_by_name("R", &["XYZ", "Geneva Winery", "Great!"], u);
        db.insert_by_name("V", &["Syracuse", "Science Conf"], u);
        db.insert_by_name("E", &["Science Conf", "Geneva Winery"], u);
        (db, mappings)
    }

    fn example_3_1_ops(db: &Database) -> Vec<InitialOp> {
        let r = db.relation_id("R").unwrap();
        let v = db.relation_id("V").unwrap();
        let review = db
            .scan(r, UpdateId::OMNISCIENT)
            .into_iter()
            .find(|(_, d)| d[0] == Value::constant("XYZ"))
            .map(|(id, _)| id)
            .unwrap();
        vec![
            // u1: company XYZ discontinues its Geneva Winery tours.
            InitialOp::Delete { relation: r, tuple: review },
            // u2: Math Conf is scheduled in Syracuse.
            InitialOp::Insert {
                relation: v,
                values: vec![Value::constant("Syracuse"), Value::constant("Math Conf")],
            },
        ]
    }

    #[test]
    fn example_3_1_interference_is_detected_and_repaired_by_aborting_u2() {
        let (db, mappings) = example_3_1_db();
        let ops = example_3_1_ops(&db);

        // Delay frontier answers so that u2 runs ahead while u1 waits for the
        // negative frontier operation — exactly the interleaving of the
        // example.
        let config = SchedulerConfig {
            tracker: TrackerKind::Precise,
            frontier_delay_rounds: 3,
            ..SchedulerConfig::default()
        };
        let mut run = ConcurrentRun::new(db, mappings, ops, 1, config);
        // A scripted "user" that always deletes the Tour tuple would require
        // knowing ids up front; the seeded random resolver picks one of the
        // two candidates. Either choice must leave the database consistent.
        let mut resolver = RandomResolver::seeded(1);
        let metrics = run.run(&mut resolver).unwrap();

        let (final_db, mappings, _) = run.into_parts();
        let snap = final_db.snapshot(UpdateId::OMNISCIENT);
        assert!(satisfies_all(&snap, &mappings), "final database must satisfy all mappings");

        // u2 read σ4's violation query before u1's cascading deletion reached
        // T; whenever the user deletes the Tours tuple the premature
        // E(Math Conf, Geneva Winery) insert must have been aborted and
        // re-done. In all cases the E table only contains entries whose tour
        // still exists.
        let e = final_db.relation_id("E").unwrap();
        let t = final_db.relation_id("T").unwrap();
        let tours = final_db.scan(t, UpdateId::OMNISCIENT);
        for (_, excursion) in final_db.scan(e, UpdateId::OMNISCIENT) {
            if excursion[0] == Value::constant("Math Conf") {
                assert!(
                    tours.iter().any(|(_, tour)| tour[0] == excursion[1]),
                    "excursion suggestion must be backed by an existing tour"
                );
            }
        }
        assert!(metrics.steps > 0);
        assert_eq!(metrics.workload_size, 2);
    }

    #[test]
    fn concurrent_inserts_leave_a_consistent_database() {
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
        let c = db.relation_id("C").unwrap();
        let ops: Vec<InitialOp> = (0..8)
            .map(|i| InitialOp::Insert {
                relation: c,
                values: vec![Value::constant(&format!("City{i}"))],
            })
            .collect();
        for tracker in TrackerKind::all() {
            let mut run = ConcurrentRun::new(
                db.clone(),
                mappings.clone(),
                ops.clone(),
                1,
                SchedulerConfig::with_tracker(tracker),
            );
            let mut resolver = RandomResolver::seeded(17);
            let metrics = run.run(&mut resolver).unwrap();
            assert_eq!(metrics.workload_size, 8);
            let (final_db, mappings, _) = run.into_parts();
            assert!(satisfies_all(&final_db.snapshot(UpdateId::OMNISCIENT), &mappings));
            assert!(final_db.visible_count(c, UpdateId::OMNISCIENT) >= 8);
        }
    }

    #[test]
    fn naive_tracker_requests_at_least_as_many_cascading_aborts_as_precise() {
        let (db, mappings) = example_3_1_db();

        let run_with = |tracker: TrackerKind, seed: u64| {
            let ops = example_3_1_ops(&db);
            let mut extra_ops = ops;
            // A few more convention insertions to give the cascade something
            // to chew on.
            let v = db.relation_id("V").unwrap();
            for i in 0..4 {
                extra_ops.push(InitialOp::Insert {
                    relation: v,
                    values: vec![Value::constant("Syracuse"), Value::constant(&format!("Conf{i}"))],
                });
            }
            let config =
                SchedulerConfig { tracker, frontier_delay_rounds: 4, ..SchedulerConfig::default() };
            let mut run = ConcurrentRun::new(db.clone(), mappings.clone(), extra_ops, 1, config);
            let mut resolver = RandomResolver::seeded(seed);
            run.run(&mut resolver).unwrap()
        };

        let naive = run_with(TrackerKind::Naive, 5);
        let precise = run_with(TrackerKind::Precise, 5);
        assert!(
            naive.cascading_abort_requests >= precise.cascading_abort_requests,
            "NAIVE ({}) should request at least as many cascading aborts as PRECISE ({})",
            naive.cascading_abort_requests,
            precise.cascading_abort_requests
        );
        assert!(naive.aborts >= precise.aborts);
    }

    #[test]
    fn step_limit_guards_against_runaway_runs() {
        let (db, mappings) = example_3_1_db();
        let ops = example_3_1_ops(&db);
        let config = SchedulerConfig { max_total_steps: 1, ..SchedulerConfig::default() };
        let mut run = ConcurrentRun::new(db, mappings, ops, 1, config);
        let mut resolver = RandomResolver::seeded(2);
        assert!(matches!(run.run(&mut resolver), Err(ChaseError::StepLimitExceeded { .. })));
    }
}
