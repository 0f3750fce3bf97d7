//! The Section 6 experiment driver: sweep mapping density, run each workload
//! under each tracker, average over repeated runs.
//!
//! The (density, tracker, run) grid is embarrassingly parallel: every cell
//! clones the shared fixture database and derives its own random seed from
//! `(config.seed, run index)`, so no cell observes another. [`run_experiment`]
//! therefore fans the cells out over scoped worker threads (no external
//! dependencies — just `std::thread::scope`) and reassembles the results in
//! grid order, which makes the output byte-identical at any thread count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use youtopia_concurrency::{
    AveragedMetrics, EngineBuilder, ResolverPump, RunMetrics, SchedulerConfig, TrackerKind,
};
use youtopia_core::{ChaseError, InitialOp, RandomResolver};
use youtopia_mappings::{satisfies_all, MappingSet};
use youtopia_storage::{Database, UpdateId};

use crate::config::{poisson_arrival_ticks, ArrivalProcess, ExperimentConfig, WorkloadKind};
use crate::data_gen::{generate_initial_database, InitialDataStats};
use crate::mapping_gen::generate_mappings;
use crate::report::LatencySummary;
use crate::schema_gen::{generate_schema, GeneratedSchema};
use crate::update_gen::generate_workload;

/// One data point of a figure: a (mapping count, tracker) pair with averaged
/// metrics over `runs` repetitions.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentPoint {
    /// Number of mappings active in this setting (the x axis).
    pub mappings: usize,
    /// The cascading-abort tracker used.
    pub tracker: TrackerKind,
    /// Number of runs averaged.
    pub runs: usize,
    /// Averaged metrics.
    pub avg: AveragedMetrics,
    /// Nearest-rank percentiles of the per-update execution time across the
    /// point's repeated runs (one sample per run) — the tail behind
    /// `avg.per_update_time_secs`.
    pub latency: LatencySummary,
}

/// The complete result of one figure's experiment (one workload, all trackers,
/// all mapping densities).
#[derive(Clone, Debug)]
pub struct ExperimentResults {
    /// Which workload was used.
    pub workload: WorkloadKind,
    /// The configuration the experiment ran with.
    pub config: ExperimentConfig,
    /// Statistics about the shared initial database.
    pub initial_data: InitialDataStats,
    /// All data points, ordered by (mapping count, tracker).
    pub points: Vec<ExperimentPoint>,
    /// Total wall-clock seconds spent running the experiment.
    pub total_seconds: f64,
}

impl ExperimentResults {
    /// The data point for a given mapping count and tracker.
    pub fn point(&self, mappings: usize, tracker: TrackerKind) -> Option<&ExperimentPoint> {
        self.points.iter().find(|p| p.mappings == mappings && p.tracker == tracker)
    }

    /// The slowdown of `PRECISE` relative to `COARSE` at a given mapping
    /// count: the ratio of per-update execution times (third panel of
    /// Figures 3 and 4).
    pub fn precise_slowdown(&self, mappings: usize) -> Option<f64> {
        let precise = self.point(mappings, TrackerKind::Precise)?;
        let coarse = self.point(mappings, TrackerKind::Coarse)?;
        if coarse.avg.per_update_time_secs == 0.0 {
            return None;
        }
        Some(precise.avg.per_update_time_secs / coarse.avg.per_update_time_secs)
    }

    /// The series of (mapping count, average aborts) for one tracker (first
    /// panel of Figures 3 and 4).
    pub fn abort_series(&self, tracker: TrackerKind) -> Vec<(usize, f64)> {
        self.points
            .iter()
            .filter(|p| p.tracker == tracker)
            .map(|p| (p.mappings, p.avg.aborts))
            .collect()
    }

    /// The series of (mapping count, average cascading abort requests) for one
    /// tracker (second panel of Figures 3 and 4).
    pub fn cascading_series(&self, tracker: TrackerKind) -> Vec<(usize, f64)> {
        self.points
            .iter()
            .filter(|p| p.tracker == tracker)
            .map(|p| (p.mappings, p.avg.cascading_abort_requests))
            .collect()
    }
}

/// The shared experiment fixture: schema, full mapping set and the initial
/// database (which satisfies *all* mappings, as in the paper).
pub struct ExperimentFixture {
    /// The generated schema and constant pool.
    pub schema: GeneratedSchema,
    /// The full mapping set (experiments use prefixes of it).
    pub mappings: MappingSet,
    /// The populated initial database.
    pub initial_db: Database,
    /// Statistics of the population phase.
    pub initial_data: InitialDataStats,
}

/// Builds the experiment fixture for a configuration.
pub fn build_fixture(config: &ExperimentConfig) -> Result<ExperimentFixture, ChaseError> {
    config.validate().map_err(ChaseError::InvalidDecision)?;
    let schema = generate_schema(config);
    let mappings = generate_mappings(config, &schema);
    let (initial_db, initial_data) = generate_initial_database(config, &schema, &mappings)?;
    Ok(ExperimentFixture { schema, mappings, initial_db, initial_data })
}

/// Runs one concurrent execution of one workload variant under one tracker and
/// mapping prefix, returning its metrics. Exposed for benchmarks.
///
/// The updates go through a deterministic [`ExchangeEngine`](youtopia_concurrency::ExchangeEngine)
/// as [`ExperimentConfig::arrival`] prescribes, with frontier questions
/// answered by a resolver seeded from `config.seed` and `variant`.
///
/// The workload is generated against the *active* mapping prefix. For the
/// paper's kinds this changes nothing across a density sweep (they ignore the
/// mappings), but [`WorkloadKind::DeepCascade`] aims its inserts at the
/// prefix's longest chains, so its op stream varies with `mapping_count` —
/// deep-cascade points measure "the hardest workload for this density", not
/// one fixed workload under varying density. Keep that in mind before putting
/// it on a Figure 3-style x-axis.
pub fn run_single(
    fixture: &ExperimentFixture,
    config: &ExperimentConfig,
    kind: WorkloadKind,
    mapping_count: usize,
    tracker: TrackerKind,
    variant: u64,
) -> Result<RunMetrics, ChaseError> {
    let mappings = fixture.mappings.prefix(mapping_count);
    let ops =
        generate_workload(config, &fixture.schema, &fixture.initial_db, &mappings, kind, variant);
    let mut resolver = RandomResolver::seeded(config.seed ^ (variant.wrapping_mul(0x9E37_79B9)));
    let db = fixture.initial_db.clone();
    let start = Instant::now();
    // The engine's sequencer commits steps in the `ConcurrentRun` reference's
    // serialisation order, so a batch run is byte-identical to the reference
    // (pinned cell by cell by `tests/determinism.rs`). Workload updates get
    // priority numbers above every update that built the initial database,
    // and the run keeps the reference's global step valve.
    let engine = EngineBuilder::new()
        .tracker(tracker)
        .frontier_delay_rounds(config.frontier_delay_rounds)
        .max_total_steps(SchedulerConfig::default().max_total_steps)
        .first_update_number(config.initial_tuples as u64 + 1_000)
        .build(db, mappings)
        .expect("non-durable engines build infallibly");
    let submit = |batch: Vec<InitialOp>| {
        engine.submit_batch(batch).map_err(|e| ChaseError::InvalidDecision(e.to_string()))
    };
    match config.arrival {
        ArrivalProcess::Batch => {
            submit(ops)?;
            ResolverPump::new(&engine, &mut resolver).run_until_quiescent()?;
        }
        ArrivalProcess::Staggered { wave } => {
            for chunk in ops.chunks(wave.max(1)) {
                submit(chunk.to_vec())?;
                ResolverPump::new(&engine, &mut resolver).run_until_quiescent()?;
            }
        }
        ArrivalProcess::Poisson { rate } => {
            // Sample the whole arrival schedule up front (seeded, so the run
            // stays reproducible), then treat each tick's arrivals as one
            // wave under the same closed-loop pump as `Staggered` — wave
            // sizes are Poisson-distributed, determinism is untouched.
            let ticks = poisson_arrival_ticks(ops.len(), rate, config.seed ^ 0x7019);
            let mut wave: Vec<InitialOp> = Vec::new();
            let mut current = ticks.first().copied().unwrap_or(0);
            for (op, tick) in ops.into_iter().zip(ticks) {
                if tick != current {
                    submit(std::mem::take(&mut wave))?;
                    ResolverPump::new(&engine, &mut resolver).run_until_quiescent()?;
                    current = tick;
                }
                wave.push(op);
            }
            submit(wave)?;
            ResolverPump::new(&engine, &mut resolver).run_until_quiescent()?;
        }
    }
    debug_assert!(
        engine.read(|db| satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), engine.mappings())),
        "engine run must leave a consistent database"
    );
    let (_db, _mappings, mut metrics) = engine.shutdown();
    metrics.wall_time = start.elapsed();
    Ok(metrics)
}

/// One (density, tracker, run) cell of the experiment grid.
#[derive(Clone, Copy, Debug)]
struct GridCell {
    mappings: usize,
    tracker: TrackerKind,
    run_index: u64,
}

/// Resolves the number of worker threads for a grid of `cells` cells:
/// `config.worker_threads`, or one per available core when it is `0`, never
/// more than there are cells.
fn effective_worker_threads(config: &ExperimentConfig, cells: usize) -> usize {
    let requested = if config.worker_threads > 0 {
        config.worker_threads
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    };
    requested.clamp(1, cells.max(1))
}

/// Walks the grid in deterministic (density, tracker, run) order, pulling
/// each cell's outcome from `next_outcome` (by cell index), accumulating the
/// per-point averages and firing `progress` as soon as each (density,
/// tracker) point completes. The first error in grid order wins, matching
/// what a serial sweep would have reported.
fn assemble_points(
    config: &ExperimentConfig,
    trackers: &[TrackerKind],
    mut next_outcome: impl FnMut(usize) -> Result<RunMetrics, ChaseError>,
    progress: &mut Option<&mut dyn FnMut(&ExperimentPoint)>,
) -> Result<Vec<ExperimentPoint>, ChaseError> {
    let mut points = Vec::new();
    let mut cell = 0usize;
    for &mapping_count in &config.mapping_counts {
        for &tracker in trackers {
            let mut total = RunMetrics::default();
            let mut samples = Vec::with_capacity(config.runs);
            for _ in 0..config.runs {
                let metrics = next_outcome(cell)?;
                samples.push(metrics.per_update_time().as_secs_f64());
                total.accumulate(&metrics);
                cell += 1;
            }
            let point = ExperimentPoint {
                mappings: mapping_count,
                tracker,
                runs: config.runs,
                avg: total.averaged(config.runs),
                latency: LatencySummary::from_samples(&samples),
            };
            if let Some(cb) = progress.as_deref_mut() {
                cb(&point);
            }
            points.push(point);
        }
    }
    Ok(points)
}

/// Runs the grid on `workers` scoped threads, streaming the points out in
/// grid order as their cells complete — live progress is preserved even
/// though cells finish out of order. Each cell's outcome is independent of
/// scheduling, so any worker count yields identical results.
fn run_grid_parallel(
    fixture: &ExperimentFixture,
    config: &ExperimentConfig,
    kind: WorkloadKind,
    trackers: &[TrackerKind],
    cells: &[GridCell],
    workers: usize,
    progress: &mut Option<&mut dyn FnMut(&ExperimentPoint)>,
) -> Result<Vec<ExperimentPoint>, ChaseError> {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Mutex<Vec<Option<Result<RunMetrics, ChaseError>>>> =
        Mutex::new(cells.iter().map(|_| None).collect());
    let ready = Condvar::new();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let outcome =
                    run_single(fixture, config, kind, cell.mappings, cell.tracker, cell.run_index);
                slots.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(outcome);
                ready.notify_all();
            });
        }
        // The main thread assembles (and reports progress) while the workers
        // crunch, blocking only on the next cell it needs in grid order.
        let result = assemble_points(
            config,
            trackers,
            |i| {
                let mut guard = slots.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(outcome) = guard[i].take() {
                        return outcome;
                    }
                    guard = ready.wait(guard).unwrap_or_else(|e| e.into_inner());
                }
            },
            progress,
        );
        if result.is_err() {
            // Let idle workers wind down instead of finishing the grid.
            stop.store(true, Ordering::Relaxed);
        }
        result
    })
}

/// Runs the full experiment for one workload: every mapping density, every
/// requested tracker, `config.runs` repetitions each, fanned out over
/// `config.worker_threads` workers (all cores when `0`). `progress` (if given)
/// is called for every (density, tracker) cell, in grid order, as soon as the
/// cell completes.
pub fn run_experiment(
    config: &ExperimentConfig,
    kind: WorkloadKind,
    trackers: &[TrackerKind],
    mut progress: Option<&mut dyn FnMut(&ExperimentPoint)>,
) -> Result<ExperimentResults, ChaseError> {
    let started = Instant::now();
    let fixture = build_fixture(config)?;

    // Lay the grid out in deterministic order: density, then tracker, then
    // run. Each cell keeps its existing seed derivation (the run index), so
    // parallel execution cannot change any cell's outcome.
    let mut cells = Vec::with_capacity(config.mapping_counts.len() * trackers.len() * config.runs);
    for &mapping_count in &config.mapping_counts {
        for &tracker in trackers {
            for run_index in 0..config.runs {
                cells.push(GridCell {
                    mappings: mapping_count,
                    tracker,
                    run_index: run_index as u64,
                });
            }
        }
    }
    let workers = effective_worker_threads(config, cells.len());
    let points = if workers <= 1 {
        assemble_points(
            config,
            trackers,
            |i| {
                let cell = &cells[i];
                run_single(&fixture, config, kind, cell.mappings, cell.tracker, cell.run_index)
            },
            &mut progress,
        )?
    } else {
        run_grid_parallel(&fixture, config, kind, trackers, &cells, workers, &mut progress)?
    };
    Ok(ExperimentResults {
        workload: kind,
        config: config.clone(),
        initial_data: fixture.initial_data,
        points,
        total_seconds: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_experiment_produces_a_full_grid_of_points() {
        let config = ExperimentConfig::tiny();
        let trackers = [TrackerKind::Coarse, TrackerKind::Precise];
        let mut seen = 0usize;
        let mut progress = |_: &ExperimentPoint| seen += 1;
        let results =
            run_experiment(&config, WorkloadKind::AllInserts, &trackers, Some(&mut progress))
                .unwrap();
        assert_eq!(results.points.len(), config.mapping_counts.len() * trackers.len());
        assert_eq!(seen, results.points.len());
        for &m in &config.mapping_counts {
            for &t in &trackers {
                let p = results.point(m, t).unwrap();
                assert_eq!(p.runs, config.runs);
                assert!(p.avg.steps > 0.0);
            }
            assert!(results.precise_slowdown(m).is_some());
        }
        assert_eq!(results.abort_series(TrackerKind::Coarse).len(), config.mapping_counts.len());
        assert_eq!(
            results.cascading_series(TrackerKind::Precise).len(),
            config.mapping_counts.len()
        );
        assert!(results.total_seconds > 0.0);
        assert_eq!(results.workload, WorkloadKind::AllInserts);
    }

    #[test]
    fn mixed_workload_runs_and_leaves_consistent_databases() {
        let mut config = ExperimentConfig::tiny();
        config.runs = 1;
        config.mapping_counts = vec![config.total_mappings];
        let results =
            run_experiment(&config, WorkloadKind::Mixed, &[TrackerKind::Coarse], None).unwrap();
        assert_eq!(results.points.len(), 1);
        let p = &results.points[0];
        assert!(p.avg.frontier_ops >= 0.0);
        assert!(p.avg.changes > 0.0);
    }

    #[test]
    fn new_workload_kinds_run_end_to_end() {
        let mut config = ExperimentConfig::tiny();
        config.runs = 1;
        config.mapping_counts = vec![config.total_mappings];
        for kind in
            [WorkloadKind::NullReplacementHeavy, WorkloadKind::Skewed, WorkloadKind::DeepCascade]
        {
            let results = run_experiment(&config, kind, &[TrackerKind::Coarse], None).unwrap();
            assert_eq!(results.points.len(), 1, "{kind} must produce its point");
            assert!(results.points[0].avg.steps > 0.0);
            assert_eq!(results.workload, kind);
        }
    }

    #[test]
    fn poisson_arrivals_run_deterministically_through_the_engine() {
        let mut config = ExperimentConfig::tiny();
        config.runs = 1;
        config.mapping_counts = vec![config.total_mappings];
        config.arrival = ArrivalProcess::Poisson { rate: 1.5 };
        let fixture = build_fixture(&config).unwrap();
        let a =
            run_single(&fixture, &config, WorkloadKind::Mixed, 8, TrackerKind::Precise, 0).unwrap();
        assert_eq!(a.workload_size, config.workload_updates);
        assert!(a.steps > 0);
        // Same seed, same arrival schedule, same outcome.
        let b =
            run_single(&fixture, &config, WorkloadKind::Mixed, 8, TrackerKind::Precise, 0).unwrap();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.aborts, b.aborts);
        assert_eq!(a.changes, b.changes);
    }

    #[test]
    fn points_carry_latency_percentiles() {
        let mut config = ExperimentConfig::tiny();
        config.mapping_counts = vec![4];
        let results =
            run_experiment(&config, WorkloadKind::AllInserts, &[TrackerKind::Coarse], None)
                .unwrap();
        let p = &results.points[0];
        assert!(p.latency.p50 > 0.0, "non-trivial runs take non-zero time");
        assert!(p.latency.p50 <= p.latency.p95 && p.latency.p95 <= p.latency.p99);
    }

    #[test]
    fn single_runs_are_reproducible() {
        let config = ExperimentConfig::tiny();
        let fixture = build_fixture(&config).unwrap();
        let a = run_single(&fixture, &config, WorkloadKind::AllInserts, 4, TrackerKind::Precise, 0)
            .unwrap();
        let b = run_single(&fixture, &config, WorkloadKind::AllInserts, 4, TrackerKind::Precise, 0)
            .unwrap();
        assert_eq!(a.aborts, b.aborts);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.cascading_abort_requests, b.cascading_abort_requests);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let mut config = ExperimentConfig::tiny();
        config.runs = 0;
        assert!(run_experiment(&config, WorkloadKind::AllInserts, &[TrackerKind::Coarse], None)
            .is_err());
    }
}
