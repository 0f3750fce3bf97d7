//! The batch façade of the multi-threaded chase scheduler: [`ParallelRun`].
//!
//! Since the [`ExchangeEngine`] redesign, `ParallelRun`
//! is a thin adapter: it takes a batch of updates up front — the shape the
//! Section 6 experiments and the differential suites want — and internally
//! boots an engine, submits the whole batch atomically, drains the engine's
//! pull-based frontier queue through the caller's [`FrontierResolver`] via a
//! [`ResolverPump`], and tears the engine down when the
//! batch is done. All scheduling semantics (sharded run queues, two-phase
//! steps, striped logs, owner-performed aborts, deterministic sequencer vs
//! free running) live in the engine; see its module docs.
//!
//! Two properties worth naming:
//!
//! * **Deterministic mode is still byte-identical to
//!   [`ConcurrentRun`](crate::ConcurrentRun)** at any worker count: a batch
//!   submitted to an idle deterministic engine chases in the reference
//!   round-robin order, and the pump answers each published frontier at
//!   exactly the point in the round where the reference consulted its
//!   resolver (`tests/scheduler_equivalence.rs`, `tests/determinism.rs`).
//! * **Repeated [`run`](ParallelRun::run) calls are safe.** The resolver used
//!   to be re-passed per call while frontier state lived inside the run; the
//!   engine (and its frontier queue) now lives and dies *within* one `run`
//!   call, so a second call can never observe a stale frontier queue — it
//!   just reports the finished batch's metrics again.

use std::time::Instant;

use youtopia_core::{ChaseError, FrontierResolver, InitialOp, UpdateStats};
use youtopia_mappings::MappingSet;
use youtopia_storage::{Database, UpdateId};

use crate::engine::{EngineConfig, ExchangeEngine, ResolverPump};
use crate::metrics::RunMetrics;
use crate::scheduler::SchedulerConfig;

/// A worker-pool execution of a batch of updates over one shared database.
///
/// Mirrors the [`ConcurrentRun`](crate::ConcurrentRun) API; the execution
/// model is the [`ExchangeEngine`]'s, configured by
/// [`SchedulerConfig::workers`] / [`SchedulerConfig::deterministic`].
pub struct ParallelRun {
    db: Option<Database>,
    mappings: Option<MappingSet>,
    ops: Vec<InitialOp>,
    first_number: u64,
    config: SchedulerConfig,
    metrics: RunMetrics,
    stats: Vec<(UpdateId, UpdateStats)>,
    ran: bool,
    /// Terminal error of a failed run; replayed by later `run()` calls so a
    /// retry can never turn a failed batch into an `Ok` with partial metrics.
    failed: Option<ChaseError>,
}

impl ParallelRun {
    /// Creates a run over `db` for the given initial operations, with update
    /// numbers assigned in submission order from `first_update_number` — the
    /// same contract as [`ConcurrentRun::new`](crate::ConcurrentRun::new).
    pub fn new(
        db: Database,
        mappings: MappingSet,
        ops: Vec<InitialOp>,
        first_update_number: u64,
        config: SchedulerConfig,
    ) -> ParallelRun {
        let stats = ops
            .iter()
            .enumerate()
            .map(|(i, _)| (UpdateId(first_update_number + i as u64), UpdateStats::default()))
            .collect();
        let metrics = RunMetrics { workload_size: ops.len(), ..RunMetrics::default() };
        ParallelRun {
            db: Some(db),
            mappings: Some(mappings),
            ops,
            first_number: first_update_number,
            config,
            metrics,
            stats,
            ran: false,
            failed: None,
        }
    }

    /// The metrics collected so far (final metrics once [`Self::run`] has
    /// returned).
    pub fn metrics(&self) -> RunMetrics {
        self.metrics.clone()
    }

    /// Runs a closure over the database (e.g. to inspect the final state
    /// after [`Self::run`]).
    pub fn with_database<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(self.db.as_ref().expect("database is owned between runs"))
    }

    /// Consumes the run, returning the database, mappings and metrics.
    pub fn into_parts(self) -> (Database, MappingSet, RunMetrics) {
        (
            self.db.expect("database is owned between runs"),
            self.mappings.expect("mappings are owned between runs"),
            self.metrics,
        )
    }

    /// Per-update execution statistics (zeroed before the run, final after).
    pub fn update_stats(&self) -> Vec<(UpdateId, UpdateStats)> {
        self.stats.clone()
    }

    /// Runs the batch to termination on an engine worker pool, consulting
    /// `resolver` for frontier operations (on the calling thread — the
    /// resolver no longer needs to be `Send`), and returns the collected
    /// metrics. A second call is a no-op that reports the same metrics: the
    /// engine and its frontier queue live only inside one `run` call, so no
    /// stale frontier state can carry over.
    pub fn run(&mut self, resolver: &mut dyn FrontierResolver) -> Result<RunMetrics, ChaseError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if self.ran {
            return Ok(self.metrics.clone());
        }
        let start = Instant::now();
        let engine = ExchangeEngine::new(
            self.db.take().expect("database is owned between runs"),
            self.mappings.take().expect("mappings are owned between runs"),
            EngineConfig::default()
                .with_scheduler(self.config)
                .with_first_update_number(self.first_number),
        );
        let ops = std::mem::take(&mut self.ops);
        let result = match engine.submit_batch(ops) {
            // Admission is uncapped here, so submission only fails after a
            // fatal engine error — surfaced below like any other.
            Err(e) => Err(ChaseError::InvalidDecision(e.to_string())),
            Ok(_handles) => ResolverPump::new(&engine, resolver).run_until_quiescent(),
        };
        self.stats = engine.update_stats();
        let (db, mappings, mut metrics) = engine.shutdown();
        self.db = Some(db);
        self.mappings = Some(mappings);
        metrics.wall_time = start.elapsed();
        self.metrics = metrics;
        self.ran = true;
        if let Err(e) = &result {
            self.failed = Some(e.clone());
        }
        result.map(|()| self.metrics.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::TrackerKind;
    use crate::scheduler::{ConcurrentRun, SchedulingPolicy};
    use youtopia_core::{InitialOp, RandomResolver};
    use youtopia_mappings::satisfies_all;
    use youtopia_storage::Value;
    fn example_db() -> (Database, MappingSet) {
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

    fn example_ops(db: &Database) -> Vec<InitialOp> {
        let r = db.relation_id("R").unwrap();
        let v = db.relation_id("V").unwrap();
        let review = db
            .scan(r, UpdateId::OMNISCIENT)
            .into_iter()
            .find(|(_, d)| d[0] == Value::constant("XYZ"))
            .map(|(id, _)| id)
            .unwrap();
        let mut ops = vec![
            InitialOp::Delete { relation: r, tuple: review },
            InitialOp::Insert {
                relation: v,
                values: vec![Value::constant("Syracuse"), Value::constant("Math Conf")],
            },
        ];
        for i in 0..4 {
            ops.push(InitialOp::Insert {
                relation: v,
                values: vec![Value::constant("Syracuse"), Value::constant(&format!("Conf{i}"))],
            });
        }
        ops
    }

    /// Byte-exact rendering of the database contents for equality checks.
    fn render(db: &Database) -> String {
        let mut out = String::new();
        for name in ["A", "T", "R", "V", "E"] {
            let rel = db.relation_id(name).unwrap();
            out.push_str(&format!("{name}: {:?}\n", db.scan(rel, UpdateId::OMNISCIENT)));
        }
        out.push_str(&format!("nulls: {}\n", db.null_counter()));
        out
    }

    fn scrub(mut m: RunMetrics) -> RunMetrics {
        m.wall_time = std::time::Duration::ZERO;
        m
    }

    #[test]
    fn deterministic_mode_is_byte_identical_to_concurrent_run_at_any_worker_count() {
        let (db, mappings) = example_db();
        for tracker in TrackerKind::all() {
            let config =
                SchedulerConfig { tracker, frontier_delay_rounds: 3, ..SchedulerConfig::default() };
            let mut reference =
                ConcurrentRun::new(db.clone(), mappings.clone(), example_ops(&db), 1, config);
            let ref_metrics = reference.run(&mut RandomResolver::seeded(5)).unwrap();
            let ref_stats = reference.update_stats();
            let (ref_db, _, _) = reference.into_parts();

            for workers in [1usize, 2, 4] {
                let par_config = SchedulerConfig { workers, deterministic: true, ..config };
                let mut run =
                    ParallelRun::new(db.clone(), mappings.clone(), example_ops(&db), 1, par_config);
                let metrics = run.run(&mut RandomResolver::seeded(5)).unwrap();
                assert_eq!(
                    scrub(metrics),
                    scrub(ref_metrics.clone()),
                    "{tracker}, {workers} workers: metrics must match the reference"
                );
                assert_eq!(run.update_stats(), ref_stats, "{tracker}, {workers} workers");
                let (par_db, _, _) = run.into_parts();
                assert_eq!(render(&par_db), render(&ref_db), "{tracker}, {workers} workers");
            }
        }
    }

    #[test]
    fn free_running_mode_leaves_a_consistent_database() {
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
        let ops: Vec<InitialOp> = (0..12)
            .map(|i| InitialOp::Insert {
                relation: c,
                values: vec![Value::constant(&format!("City{i}"))],
            })
            .collect();
        for tracker in TrackerKind::all() {
            let config = SchedulerConfig {
                tracker,
                workers: 3,
                deterministic: false,
                ..SchedulerConfig::default()
            };
            let mut run = ParallelRun::new(db.clone(), mappings.clone(), ops.clone(), 1, config);
            let metrics = run.run(&mut RandomResolver::seeded(17)).unwrap();
            assert_eq!(metrics.workload_size, 12);
            assert!(metrics.steps >= 12);
            let stats = run.update_stats();
            assert!(stats.iter().all(|(_, s)| s.steps > 0), "every update must have run");
            let (final_db, mappings, _) = run.into_parts();
            assert!(
                satisfies_all(&final_db.snapshot(UpdateId::OMNISCIENT), &mappings),
                "{tracker}: final database must satisfy all mappings"
            );
            assert!(final_db.visible_count(c, UpdateId::OMNISCIENT) >= 12);
        }
    }

    #[test]
    fn free_running_with_interference_repairs_premature_reads() {
        // The Example 3.1 scenario under free-running: whatever interleaving
        // the OS produces, every surviving excursion must be backed by a
        // still-existing tour.
        let (db, mappings) = example_db();
        for seed in 0..4u64 {
            let config = SchedulerConfig {
                tracker: TrackerKind::Precise,
                workers: 4,
                deterministic: false,
                ..SchedulerConfig::default()
            };
            let mut run =
                ParallelRun::new(db.clone(), mappings.clone(), example_ops(&db), 1, config);
            let metrics = run.run(&mut RandomResolver::seeded(seed)).unwrap();
            assert!(metrics.steps > 0);
            let (final_db, mappings, _) = run.into_parts();
            let snap = final_db.snapshot(UpdateId::OMNISCIENT);
            assert!(satisfies_all(&snap, &mappings), "seed {seed}");
            let e = final_db.relation_id("E").unwrap();
            let t = final_db.relation_id("T").unwrap();
            let tours = final_db.scan(t, UpdateId::OMNISCIENT);
            // Only the excursions the *workload's* convention inserts caused:
            // the seed excursion may legitimately outlive the tour (σ4 never
            // requires RHS cleanup), exactly as in the reference test.
            for (_, excursion) in final_db.scan(e, UpdateId::OMNISCIENT) {
                if excursion[0] == Value::constant("Science Conf") {
                    continue;
                }
                assert!(
                    tours.iter().any(|(_, tour)| tour[0] == excursion[1]),
                    "seed {seed}: excursion {excursion:?} must be backed by an existing tour"
                );
            }
        }
    }

    #[test]
    fn step_limit_guards_both_modes() {
        let (db, mappings) = example_db();
        for deterministic in [true, false] {
            let config = SchedulerConfig {
                max_total_steps: 1,
                workers: 2,
                deterministic,
                ..SchedulerConfig::default()
            };
            let mut run =
                ParallelRun::new(db.clone(), mappings.clone(), example_ops(&db), 1, config);
            let result = run.run(&mut RandomResolver::seeded(2));
            assert!(
                matches!(result, Err(ChaseError::StepLimitExceeded { .. })),
                "deterministic={deterministic}"
            );
        }
    }

    #[test]
    fn stratum_policy_terminates_in_both_modes() {
        let (db, mappings) = example_db();
        for deterministic in [true, false] {
            let config = SchedulerConfig {
                policy: SchedulingPolicy::StratumRoundRobin,
                workers: 2,
                deterministic,
                ..SchedulerConfig::default()
            };
            let mut run =
                ParallelRun::new(db.clone(), mappings.clone(), example_ops(&db), 1, config);
            let metrics = run.run(&mut RandomResolver::seeded(2)).unwrap();
            assert!(metrics.steps >= 2, "deterministic={deterministic}");
            assert!(run.update_stats().iter().all(|(_, s)| s.steps > 0));
        }
    }
}
