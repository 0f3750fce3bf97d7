//! `deep_cascade` — closed-loop waves of four inserts aimed at the longest
//! mapping chains, zero think time, tens of thousands of updates into one
//! growing database. Almost nothing interferes, so the time is storage,
//! mappings and the chase itself; the concurrency machinery idles — the
//! bypass for `fig_batch`, as `fig_batch` is for this.

use youtopia_core::RandomResolver;
use youtopia_workload::WorkloadKind;

use super::{consistent, inline_builder, setup_inline, Ctx, Outcome, Workload};
use crate::inputs::derive;
use crate::pump::{pump_until_quiescent, Watched};
use crate::Res;

const BLOCK: usize = 1_000;
const BLOCKS_PER_SECOND: f64 = 3.6;
const WAVE: usize = 4;

pub const WORKLOAD: Workload = Workload {
    name: "deep_cascade",
    kind: WorkloadKind::DeepCascade,
    block: BLOCK,
    setup: setup_inline,
    run,
    baseline: None,
    deterministic: true,
};

fn run(ctx: &Ctx<'_>) -> Res<Outcome> {
    let tr = ctx.tr;
    let (ops, _) = tr.phase("gen", || ctx.corpus(&WORKLOAD, 0, ctx.blocks(BLOCKS_PER_SECOND)));
    let mut resolver = RandomResolver::seeded(derive(ctx.seed, 0));
    let mut out = Outcome { replicas: 1, attempted: ops.len() as u64, ..Outcome::default() };
    let (built, secs) = tr.phase("run", || -> Res<_> {
        let db = tr.call("clone_db", 0, || ctx.fixture.initial_db.clone());
        Ok(tr.call("build", 0, || inline_builder(ctx).build(db, ctx.fixture.mappings.clone()))?)
    });
    let engine = built?;
    out.run_s += secs;
    // One timed phase per corpus block, so the speedometer can read between.
    for (block, ops) in ops.chunks(BLOCK).enumerate() {
        ctx.tick();
        let (result, secs) = tr.phase("run", || -> Res<()> {
            for (w, wave) in ops.chunks(WAVE).enumerate() {
                let w = (block * BLOCK / WAVE + w) as u64;
                let batch = wave.to_vec();
                let submitted = tr.now_ns();
                let handles = tr.call("submit_batch", w, || engine.submit_batch(batch))?;
                let mut watched: Vec<Watched> =
                    handles.into_iter().map(|h| Watched::new(h, submitted)).collect();
                let pump =
                    pump_until_quiescent(tr, &engine, &mut resolver, 0, &mut watched, &mut || {})?;
                out.pump.absorb(pump);
                out.record(&watched, None);
            }
            Ok(())
        });
        result?;
        out.run_s += secs;
    }
    let metrics = tr.call("metrics", 0, || engine.metrics());
    let retained = engine.retained_slots();
    let ((db, _, _), secs) = tr.phase("run", || tr.call("shutdown", 0, || engine.shutdown()));
    out.run_s += secs;
    out.engine.add(&metrics);
    out.counts.insert("concurrency.retained_slots", retained as f64);
    let (ok, _) = tr.phase("check", || consistent(&db, ctx));
    out.check(ok, || "final state violates a mapping".into());
    let (admitted, attempted) = (out.engine.workload_size, out.attempted);
    out.check(admitted == attempted, || {
        format!("engine admitted {admitted} of {attempted} updates")
    });
    out.close_in_memory(ctx, db, 1)?;
    out.ladder_ops = ops;
    out.ladder_seed = derive(ctx.seed, 0);
    Ok(out)
}
