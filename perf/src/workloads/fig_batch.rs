//! `fig_batch` — the paper's Figure 4 setting: a whole batch of mixed
//! inserts and deletes submitted as **one** `submit_batch`, so every update
//! is concurrent with every other and conflict checks, the striped logs, the
//! dependency tracker and abort/restart dominate. Repeated over corpus
//! blocks, each on a fresh engine. Closed loop, one client.

use youtopia_core::RandomResolver;
use youtopia_workload::WorkloadKind;

use super::{consistent, inline_builder, setup_inline, Ctx, Outcome, Workload};
use crate::inputs::derive;
use crate::pump::{pump_until_quiescent, Watched};
use crate::Res;

/// The paper's batches are 500 updates; a batch's cost is heavy-tailed in its
/// size (500 updates: 0.8–4 s), and a run has to average over enough batches
/// for its median to mean something. At 100 a run gets through two hundred of
/// them and still restarts every other update.
const BATCH: usize = 100;
const BATCHES_PER_SECOND: f64 = 20.0;
/// The ladder replays this many batches, one after the other.
const LADDER_BLOCKS: usize = 5;
/// Every how many batches the final state gets the full mapping check.
const CHECK_EVERY: u64 = 10;
/// A question is answered once it has survived this many sweeps.
const ANSWER_AFTER_SWEEPS: u64 = 2;

pub const WORKLOAD: Workload = Workload {
    name: "fig_batch",
    kind: WorkloadKind::Mixed,
    block: BATCH,
    setup: setup_inline,
    run,
    baseline: None,
    deterministic: true,
};

fn run(ctx: &Ctx<'_>) -> Res<Outcome> {
    let tr = ctx.tr;
    let batches = ctx.blocks(BATCHES_PER_SECOND);
    let (corpus, _) =
        tr.phase("gen", || (0..batches).map(|b| ctx.corpus(&WORKLOAD, b, 1)).collect::<Vec<_>>());
    let mut out = Outcome { replicas: 1, ..Outcome::default() };
    let mut last_db = None;
    for (b, ops) in corpus.iter().enumerate() {
        let b = b as u64;
        let mut resolver = RandomResolver::seeded(derive(ctx.seed, b));
        ctx.tick();
        let (result, secs) = tr.phase("run", || -> Res<_> {
            let db = tr.call("clone_db", b, || ctx.fixture.initial_db.clone());
            let engine = tr
                .call("build", b, || inline_builder(ctx).build(db, ctx.fixture.mappings.clone()))?;
            let batch = ops.clone();
            let submitted = tr.now_ns();
            let handles = tr.call("submit_batch", b, || engine.submit_batch(batch))?;
            let mut watched: Vec<Watched> =
                handles.into_iter().map(|h| Watched::new(h, submitted)).collect();
            let pump = pump_until_quiescent(
                tr,
                &engine,
                &mut resolver,
                ANSWER_AFTER_SWEEPS,
                &mut watched,
                &mut || {},
            )?;
            let batch_ms = (tr.now_ns() - submitted) as f64 / 1e6;
            let metrics = tr.call("metrics", b, || engine.metrics());
            let retained = engine.retained_slots();
            let (db, _, _) = tr.call("shutdown", b, || engine.shutdown());
            Ok((watched, batch_ms, pump, metrics, retained, db))
        });
        let (watched, batch_ms, pump, metrics, retained, db) = result?;
        out.run_s += secs;
        out.attempted += ops.len() as u64;
        // One client submitted the batch and has its answer when the batch
        // is quiescent: every update of the batch is charged that time. (The
        // pooled per-update completion times are bimodal across batches, and
        // their median sits where almost no update finishes.)
        out.record(&watched, Some(batch_ms));
        out.pump.absorb(pump);
        out.check(metrics.workload_size == ops.len(), || {
            format!("batch {b}: engine admitted {} of {} updates", metrics.workload_size, ops.len())
        });
        out.engine.add(&metrics);
        out.counts.insert("concurrency.retained_slots", retained as f64);
        // Every batch is checked for admission and termination above; the
        // full mapping check costs a tenth of a batch, so it samples.
        if b.is_multiple_of(CHECK_EVERY) || b + 1 == batches {
            let (ok, _) = tr.phase("check", || consistent(&db, ctx));
            out.check(ok, || format!("batch {b}: final state violates a mapping"));
        }
        last_db = Some(db);
    }
    // Every batch starts from the same fixture; the last batch's snapshot
    // growth stands for all of them.
    out.close_in_memory(ctx, last_db.expect("at least one batch ran"), batches)?;
    out.ladder_ops = corpus.iter().take(LADDER_BLOCKS).flatten().cloned().collect();
    out.ladder_seed = derive(ctx.seed, 0);
    Ok(out)
}
