//! `workers_2` — all-insert waves of 64 via `submit_batch` on a **threaded**
//! engine with two workers, the harness thread asleep on the engine's signal
//! between frontier answers. The only workload where worker hand-off, the
//! database lock and the sequencer can help or hurt; the identical job at one
//! worker is its baseline (`concurrency.speedup_2w`).

use std::time::Instant;

use youtopia_concurrency::{EngineBuilder, ResolverPump, RunMetrics, UpdateStatus};
use youtopia_core::RandomResolver;
use youtopia_core::{FrontierDecision, FrontierRequest, FrontierResolver, InitialOp};
use youtopia_storage::{DataView, Database};
use youtopia_workload::WorkloadKind;

use super::{consistent, Ctx, Outcome, Workload};
use crate::inputs::derive;
use crate::Res;

const WAVE: usize = 64;
const BLOCK: usize = 16 * WAVE;
const BLOCKS_PER_SECOND: f64 = 1.4;
const WORKERS: usize = 2;

pub const WORKLOAD: Workload = Workload {
    name: "workers_2",
    kind: WorkloadKind::AllInserts,
    block: BLOCK,
    setup,
    run,
    baseline: Some(baseline),
    deterministic: true,
};

fn builder(ctx: &Ctx<'_>, workers: usize) -> EngineBuilder {
    EngineBuilder::new().workers(workers).first_update_number(ctx.first_update())
}

fn setup(ctx: &Ctx<'_>) -> Res<()> {
    builder(ctx, WORKERS)
        .build(ctx.fixture.initial_db.clone(), ctx.fixture.mappings.clone())?
        .shutdown();
    Ok(())
}

/// The simulated user, counting its answers and the time spent deciding —
/// the engine's pump calls it on the harness thread.
struct CountingResolver {
    inner: RandomResolver,
    answers: u64,
    deciding_ns: u64,
}

impl FrontierResolver for CountingResolver {
    fn resolve(&mut self, view: &dyn DataView, request: &FrontierRequest) -> FrontierDecision {
        let start = Instant::now();
        let decision = self.inner.resolve(view, request);
        self.deciding_ns += start.elapsed().as_nanos() as u64;
        self.answers += 1;
        decision
    }
}

struct Waves {
    wall_s: f64,
    terminated: u64,
    wave_ms: Vec<f64>,
    metrics: RunMetrics,
    retained: usize,
    answers: u64,
    deciding_ms: f64,
    db: Database,
}

fn run_waves(ctx: &Ctx<'_>, workers: usize, ops: &[InitialOp]) -> Res<Waves> {
    let tr = ctx.tr;
    let mut resolver = CountingResolver {
        inner: RandomResolver::seeded(derive(ctx.seed, 0)),
        answers: 0,
        deciding_ns: 0,
    };
    let mut wave_ms = Vec::with_capacity(ops.len() / WAVE + 1);
    let mut terminated = 0u64;
    let mut wall_s = 0.0;
    let (built, secs) = tr.phase("run", || -> Res<_> {
        let db = tr.call("clone_db", 0, || ctx.fixture.initial_db.clone());
        Ok(tr.call("build", 0, || builder(ctx, workers).build(db, ctx.fixture.mappings.clone()))?)
    });
    let engine = built?;
    wall_s += secs;
    // One timed phase per corpus block, so the speedometer can read between.
    for (block, ops) in ops.chunks(BLOCK).enumerate() {
        ctx.tick();
        let (result, secs) = tr.phase("run", || -> Res<()> {
            for (w, wave) in ops.chunks(WAVE).enumerate() {
                let w = (block * BLOCK / WAVE + w) as u64;
                let batch = wave.to_vec();
                let submitted = tr.now_ns();
                let handles = tr.call("submit_batch", w, || engine.submit_batch(batch))?;
                tr.call("pump", w, || {
                    ResolverPump::new(&engine, &mut resolver).run_until_quiescent()
                })?;
                wave_ms.push((tr.now_ns() - submitted) as f64 / 1e6);
                terminated += tr.call("status", w, || {
                    handles.iter().filter(|h| h.status() == UpdateStatus::Terminated).count() as u64
                });
            }
            Ok(())
        });
        result?;
        wall_s += secs;
    }
    let metrics = tr.call("metrics", 0, || engine.metrics());
    let retained = engine.retained_slots();
    let ((db, _, _), secs) = tr.phase("run", || tr.call("shutdown", 0, || engine.shutdown()));
    wall_s += secs;
    Ok(Waves {
        wall_s,
        terminated,
        wave_ms,
        metrics,
        retained,
        answers: resolver.answers,
        deciding_ms: resolver.deciding_ns as f64 / 1e6,
        db,
    })
}

fn corpus(ctx: &Ctx<'_>) -> Vec<InitialOp> {
    ctx.corpus(&WORKLOAD, 0, ctx.blocks(BLOCKS_PER_SECOND))
}

fn baseline(ctx: &Ctx<'_>) -> Res<f64> {
    Ok(run_waves(ctx, 1, &corpus(ctx))?.wall_s)
}

fn run(ctx: &Ctx<'_>) -> Res<Outcome> {
    let tr = ctx.tr;
    let (ops, _) = tr.phase("gen", || corpus(ctx));
    let waves = run_waves(ctx, WORKERS, &ops)?;
    let mut out = Outcome { replicas: 1, attempted: ops.len() as u64, ..Outcome::default() };
    out.run_s = waves.wall_s;
    out.engine.add(&waves.metrics);
    // The harness sleeps through a wave, so every update of a wave is
    // observed terminal when its wave is.
    for (wave, ms) in ops.chunks(WAVE).zip(&waves.wave_ms) {
        out.latency_ms.extend(std::iter::repeat_n(*ms, wave.len()));
    }
    out.terminated = waves.terminated;
    out.failed = out.attempted - out.terminated;
    out.pump.answers = waves.answers;
    out.counts.insert("concurrency.retained_slots", waves.retained as f64);
    // What the harness thread spent blocked on the workers: the pump calls
    // minus the time it spent deciding answers itself.
    out.gauges.insert("concurrency.wait_ms", (tr.total_ms("pump") - waves.deciding_ms).max(0.0));
    let db = waves.db;
    let (ok, _) = tr.phase("check", || consistent(&db, ctx));
    out.check(ok, || "final state violates a mapping".into());
    out.close_in_memory(ctx, db, 1)?;
    out.ladder_ops = ops;
    out.ladder_seed = derive(ctx.seed, 0);
    Ok(out)
}
