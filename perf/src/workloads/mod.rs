//! The six workloads. Each owns its driver loop and reaches the system only
//! through the member crates' public functions (the README lists them).
//!
//! A workload's *shape* (kind of operations, wave size, caps, fault rates) is
//! a constant of its file; only its length scales, with `--seconds`, in whole
//! corpus blocks sized so that the timed phase lasts about that many seconds
//! at the commit that added the benchmark.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use youtopia_concurrency::{EngineBuilder, RunMetrics};
use youtopia_core::InitialOp;
use youtopia_mappings::satisfies_all;
use youtopia_storage::{deserialize_database, serialize_database, Database, UpdateId};
use youtopia_workload::{ExperimentConfig, ExperimentFixture, WorkloadKind};

use crate::inputs::{corpus_block, fingerprint_db, first_update_number};
use crate::pump::{PumpCounts, Watched};
use crate::sys::Speedometer;
use crate::trace::Tracer;
use crate::Res;

pub mod day_open;
pub mod deep_cascade;
pub mod durable_crash;
pub mod fig_batch;
pub mod sync_heal;
pub mod workers_2;

/// How often the snapshot-restore epilogue of an in-memory workload repeats
/// (its median is the workload's `restore_s`).
const RESTORE_REPEATS: usize = 9;

/// Everything a workload run reads.
pub struct Ctx<'a> {
    pub tr: &'a Tracer,
    pub speed: &'a Speedometer,
    pub seed: u64,
    pub config: &'a ExperimentConfig,
    pub fixture: &'a ExperimentFixture,
    /// The work scale: seconds the timed phase should last at the baseline.
    pub seconds: f64,
    pub scratch: &'a Path,
    /// Size of the fixture's own snapshot: what an in-memory workload's final
    /// snapshot is compared with.
    pub fixture_snapshot_bytes: u64,
}

impl Ctx<'_> {
    /// Corpus blocks for a workload that gets through `per_second` of them.
    pub fn blocks(&self, per_second: f64) -> u64 {
        ((per_second * self.seconds).round() as u64).max(1)
    }

    /// Takes a speedometer reading if one is due. Called between a run's
    /// repetitions, outside every timed phase.
    pub fn tick(&self) {
        if self.speed.due() {
            self.tr.call("probe", 0, || self.speed.probe());
        }
    }

    pub fn first_update(&self) -> u64 {
        first_update_number(self.config)
    }

    /// Blocks `from..from + count` of the workload's corpus, concatenated.
    pub fn corpus(&self, w: &Workload, from: u64, count: u64) -> Vec<InitialOp> {
        (from..from + count)
            .flat_map(|b| corpus_block(self.config, self.fixture, w.kind, w.block, b))
            .collect()
    }
}

/// Engine counters summed over every engine a run used.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounts {
    pub workload_size: u64,
    pub aborts: u64,
    pub direct_conflict_requests: u64,
    pub cascading_abort_requests: u64,
    pub steps: u64,
    pub frontier_ops: u64,
    pub auto_resolutions: u64,
}

impl EngineCounts {
    pub fn add(&mut self, m: &RunMetrics) {
        self.workload_size += m.workload_size as u64;
        self.aborts += m.aborts as u64;
        self.direct_conflict_requests += m.direct_conflict_requests as u64;
        self.cascading_abort_requests += m.cascading_abort_requests as u64;
        self.steps += m.steps as u64;
        self.frontier_ops += m.frontier_ops as u64;
        self.auto_resolutions += m.auto_resolutions as u64;
    }

    /// Update executions started: one per admitted update plus one per abort.
    pub fn executions(&self) -> u64 {
        self.workload_size + self.aborts
    }
}

/// What one run of a workload observed.
#[derive(Default)]
pub struct Outcome {
    /// Updates the run tried to get through the system.
    pub attempted: u64,
    /// Updates observed terminated.
    pub terminated: u64,
    /// Updates that failed, were never admitted, got stuck or were lost.
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Wall time of the timed phase(s), in seconds.
    pub run_s: f64,
    pub latency_ms: Vec<f64>,
    /// The counters behind `executions_per_update`, and how many replicas
    /// each update must execute on at least once.
    pub engine: EngineCounts,
    pub replicas: u64,
    /// How many updates the per-update ratios relate to, where that is not
    /// every attempted one (the open loop reports them at one of its rates).
    pub per_update_base: Option<u64>,
    /// Bytes persisted or shipped on the updates' behalf.
    pub persist_bytes: u64,
    /// The workload's restore time in seconds, and the samples behind it: the
    /// median of identical repeats, or the mean where the samples are not
    /// alike (recoveries of a growing database, convergence of different
    /// blocks) and a median would rest on whichever one or two fall in the
    /// middle.
    pub restore_s: f64,
    pub restore_samples: Vec<f64>,
    pub pump: PumpCounts,
    /// Further counts that must repeat exactly between two runs on the same
    /// inputs, by per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Further per-layer values that are measured, not counted.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Fingerprint of the final state(s).
    pub state_fp: u64,
    /// Input of the layer ladder: the operations to replay, the seed of their
    /// resolver, the final state and (durable only) the log.
    pub ladder_ops: Vec<InitialOp>,
    pub ladder_seed: u64,
    pub final_db: Option<Database>,
    pub wal: Option<(PathBuf, usize)>,
    /// Scratch directories to remove once the ladder has read them.
    pub cleanup: Vec<PathBuf>,
}

impl Outcome {
    fn per_update(&self, total: u64) -> f64 {
        total as f64 / self.per_update_base.unwrap_or(self.attempted).max(1) as f64
    }

    /// Update executions started per update and replica: 1 when nothing was
    /// aborted, restarted or replayed.
    pub fn executions_per_update(&self) -> f64 {
        self.per_update(self.engine.executions()) / self.replicas.max(1) as f64
    }

    pub fn persist_bytes_per_update(&self) -> f64 {
        self.per_update(self.persist_bytes)
    }

    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.problems.push(what());
        }
    }

    /// Counts a quiescent batch or wave: every watched update is terminated
    /// (with a latency sample — `charge_ms` if given, else its own) or failed.
    pub fn record(&mut self, watched: &[Watched], charge_ms: Option<f64>) {
        for w in watched {
            match w.latency_ms() {
                Some(own_ms) if !w.failed => {
                    self.terminated += 1;
                    self.latency_ms.push(charge_ms.unwrap_or(own_ms));
                }
                _ => self.failed += 1,
            }
        }
    }

    /// The epilogue of an in-memory workload: its restore time, what it had
    /// to persist (`engines` engines each grew their snapshot like this one)
    /// and the final state for the output check and the ladder.
    pub fn close_in_memory(&mut self, ctx: &Ctx<'_>, db: Database, engines: u64) -> Res<()> {
        let (restore, snapshot_bytes) = restore_from_snapshot(ctx, &db)?;
        self.restore_s = crate::stats::median(&restore);
        self.restore_samples = restore;
        self.persist_bytes = snapshot_bytes.saturating_sub(ctx.fixture_snapshot_bytes) * engines;
        self.state_fp = fingerprint_db(&db);
        self.final_db = Some(db);
        Ok(())
    }
}

/// One workload: its fixed shape and its entry points.
pub struct Workload {
    pub name: &'static str,
    /// Which operations the corpus holds, and how many per block.
    pub kind: WorkloadKind,
    pub block: usize,
    /// Builds (and tears down) what the workload starts from — the second
    /// half of `setup_s`, after fixture generation.
    pub setup: fn(&Ctx<'_>) -> Res<()>,
    pub run: fn(&Ctx<'_>) -> Res<Outcome>,
    /// Wall seconds of the single-threaded baseline on the same work, where
    /// the workload has one (`workers_2`).
    pub baseline: Option<fn(&Ctx<'_>) -> Res<f64>>,
    /// Whether two runs on the same inputs must agree count for count (false
    /// where a wall-clock schedule decides the interleaving).
    pub deterministic: bool,
}

pub const ALL: [&Workload; 6] = [
    &fig_batch::WORKLOAD,
    &deep_cascade::WORKLOAD,
    &day_open::WORKLOAD,
    &workers_2::WORKLOAD,
    &durable_crash::WORKLOAD,
    &sync_heal::WORKLOAD,
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

/// An inline engine over a copy of the fixture, the way the in-memory
/// workloads start.
pub fn inline_builder(ctx: &Ctx<'_>) -> EngineBuilder {
    EngineBuilder::new().inline().first_update_number(ctx.first_update())
}

/// The engine half of `setup_s` for a workload that starts from one plain
/// inline engine.
pub fn setup_inline(ctx: &Ctx<'_>) -> Res<()> {
    inline_builder(ctx)
        .build(ctx.fixture.initial_db.clone(), ctx.fixture.mappings.clone())?
        .shutdown();
    Ok(())
}

/// The output check every engine state must pass.
pub fn consistent(db: &Database, ctx: &Ctx<'_>) -> bool {
    ctx.tr.call("satisfies_all", 0, || {
        satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), &ctx.fixture.mappings)
    })
}

/// The restore epilogue of an in-memory workload: a cold start from the
/// final state's snapshot — decode it, build an engine on it, wait until it
/// serves. Returns the samples and the snapshot's size in bytes.
fn restore_from_snapshot(ctx: &Ctx<'_>, db: &Database) -> Res<(Vec<f64>, u64)> {
    let tr = ctx.tr;
    let bytes = serialize_database(db);
    let mut samples = Vec::with_capacity(RESTORE_REPEATS);
    for rep in 0..RESTORE_REPEATS as u64 {
        ctx.tick();
        let (result, secs) = tr.phase("restore", || -> Res<()> {
            let db = tr.call("deserialize_database", rep, || deserialize_database(&bytes))?;
            let engine = tr.call("build", rep, || {
                inline_builder(ctx).build(db, ctx.fixture.mappings.clone())
            })?;
            tr.call("wait_quiescent", rep, || engine.wait_quiescent())?;
            tr.call("shutdown", rep, || engine.shutdown());
            Ok(())
        });
        result?;
        samples.push(secs);
    }
    Ok((samples, bytes.len() as u64))
}
