//! `day_open` — the open loop: identified clients in three priority tiers
//! submit a skewed workload (80 % of operations on the hot relation, 20 %
//! deletes) at Poisson arrival times on a **wall-clock** schedule, through
//! one inline engine with a small admission cap. Humans answer at the next
//! poll, some never come back, and the engine's sweeper resolves what they
//! abandoned. It is the only workload where queueing, admission,
//! rejection/retry and the frontier lifecycle decide what the user sees.
//!
//! The schedule runs at three fixed rates, each on a fresh engine. Latency is
//! reported at the middle rate, throughput at the highest (which saturates).

use youtopia_concurrency::{
    AnswerOutcome, ClientId, ExchangeEngine, Priority, SubmitError, UpdateHandle, UpdateStatus,
};
use youtopia_core::{AutoDecision, EscalationPolicy, FrontierResolver, InitialOp, RandomResolver};
use youtopia_workload::WorkloadKind;

use super::{consistent, inline_builder, Ctx, Outcome, Workload};
use crate::inputs::derive;
use crate::openloop::{poisson_schedule_ns, run_open_loop, OpenService};
use crate::pins::{DAY_OPEN_P99_LIMIT_MS, DAY_OPEN_RATES, DAY_OPEN_SCHEDULE_SHARE};
use crate::pump::PumpCounts;
use crate::stats::Summary;
use crate::Res;

const BLOCK: usize = 1_000;
const CLIENTS: u64 = 2_500;
const ADMISSION_CAP: usize = 32;
const RETENTION_HORIZON: usize = 256;
/// Every token divisible by this is abandoned by its human, and the engine
/// stalls — the sequencer does not act while a published question is open —
/// until the sweeper resolves it. One in five is far more than a real day
/// would see; it is what makes p99 a number. At one in fifty about 0.4 % of
/// the arrivals queue behind a stall, p99 sits on the knee between them and
/// the ordinary tail, and moves by 25 % from seed to seed with the handful of
/// stalls a run happens to contain (the ordinary tail alone: 30 %). At one in
/// five the stalled arrivals are 4 % and p99 lies well inside them: it reads
/// how long an abandoned question holds everyone else up, within 3 %.
const ABANDON_EVERY: u64 = 5;
/// The sweeper runs at most this often, and resolves after this many sweeps.
const SWEEP_EVERY_NS: u64 = 1_000_000;
const ESCALATE_AFTER: u64 = 4;
/// The rate whose latency and abort counts the workload reports (index into
/// the rate table).
const REPORTED_RATE: usize = 1;
/// The shortest idle gap in which the speedometer may take a reading.
const QUIET_GAP_NS: u64 = 2_500_000;

pub const WORKLOAD: Workload = Workload {
    name: "day_open",
    kind: WorkloadKind::Skewed,
    block: BLOCK,
    setup,
    run,
    baseline: None,
    deterministic: false,
};

fn build(ctx: &Ctx<'_>, db: youtopia_storage::Database) -> Res<ExchangeEngine> {
    Ok(inline_builder(ctx)
        .admission_cap(ADMISSION_CAP)
        .retention_horizon(RETENTION_HORIZON)
        .escalation(EscalationPolicy::AutoResolve {
            after: ESCALATE_AFTER,
            decision: AutoDecision::ExpandOrDeleteFirst,
        })
        .build(db, ctx.fixture.mappings.clone())?)
}

fn setup(ctx: &Ctx<'_>) -> Res<()> {
    build(ctx, ctx.fixture.initial_db.clone())?.shutdown();
    Ok(())
}

/// The engine as the open-loop generator sees it.
struct DayService<'a> {
    ctx: &'a Ctx<'a>,
    engine: &'a ExchangeEngine,
    ops: &'a [InitialOp],
    resolver: RandomResolver,
    inflight: Vec<(UpdateHandle, usize)>,
    next_sweep_ns: u64,
    counts: PumpCounts,
    failed: u64,
    error: Option<String>,
}

impl DayService<'_> {
    fn drive(&mut self) {
        if let Err(e) = self.ctx.tr.call("drive", 0, || self.engine.drive()) {
            self.error.get_or_insert(e.to_string());
        }
    }
}

impl OpenService for DayService<'_> {
    fn try_submit(&mut self, idx: usize) -> Result<(), usize> {
        // A client's tier is a fixed function of its identity: every fourth
        // is latency sensitive, every fourth is background.
        let client = ClientId(idx as u64 % CLIENTS);
        let priority = match client.0 % 4 {
            0 => Priority::High,
            3 => Priority::Low,
            _ => Priority::Normal,
        };
        let op = self.ops[idx].clone();
        let submitted = self
            .ctx
            .tr
            .call("submit_as", idx as u64, || self.engine.submit_as(op, client, priority));
        match submitted {
            Ok(handle) => {
                self.inflight.push((handle, idx));
                Ok(())
            }
            Err(SubmitError::Saturated { retry_after, .. }) => Err(retry_after.completions),
            Err(e) => {
                // Never admitted: the arrival stays unfinished and is counted
                // as failed.
                self.error.get_or_insert(e.to_string());
                Ok(())
            }
        }
    }

    fn work(&mut self, done: &mut dyn FnMut(usize)) {
        let tr = self.ctx.tr;
        self.drive();
        let mut answered = false;
        for pf in tr.call("pending_frontiers", 0, || self.engine.pending_frontiers()) {
            if pf.token.0 % ABANDON_EVERY == 0 {
                continue;
            }
            let resolver = &mut self.resolver;
            let decision = tr.call("read", pf.update.0, || {
                self.engine.read(|db| resolver.resolve(&db.snapshot(pf.update), &pf.request))
            });
            match tr.call("answer", pf.update.0, || self.engine.answer(pf.token, decision)) {
                Ok(AnswerOutcome::Applied) => self.counts.answers += 1,
                Ok(AnswerOutcome::Stale) => self.counts.stale_answers += 1,
                Err(e) => {
                    self.error.get_or_insert(e.to_string());
                }
            }
            answered = true;
        }
        if answered {
            self.drive();
        }
        if tr.now_ns() >= self.next_sweep_ns {
            let report = tr.call("sweep", 0, || self.engine.sweep());
            self.next_sweep_ns = tr.now_ns() + SWEEP_EVERY_NS;
            if !report.auto_resolved.is_empty() {
                self.drive();
            }
        }
        self.counts.max_active = self.counts.max_active.max(self.engine.active_updates() as u64);
        let failed = &mut self.failed;
        tr.call("status", 0, || {
            self.inflight.retain(|(handle, idx)| match handle.status() {
                UpdateStatus::Terminated => {
                    done(*idx);
                    false
                }
                UpdateStatus::Failed => {
                    *failed += 1;
                    done(*idx);
                    false
                }
                UpdateStatus::Running | UpdateStatus::AwaitingFrontier => true,
            });
        });
    }

    fn idle(&self) -> bool {
        self.inflight.is_empty()
    }

    fn wake_at_ns(&self) -> u64 {
        self.next_sweep_ns
    }

    fn quiet(&mut self, gap_ns: u64) {
        // A speedometer reading takes a little over a millisecond: only a
        // gap that long can hide it.
        if gap_ns >= QUIET_GAP_NS && self.inflight.is_empty() {
            self.ctx.tick();
        }
    }
}

fn run(ctx: &Ctx<'_>) -> Res<Outcome> {
    let tr = ctx.tr;
    let span_s = DAY_OPEN_SCHEDULE_SHARE.map(|share| share * ctx.seconds);
    // Each rate gets its own, disjoint slice of the corpus.
    let per_rate: Vec<usize> =
        DAY_OPEN_RATES.iter().zip(span_s).map(|(r, s)| (r * s).ceil() as usize).collect();
    let (slices, _) = tr.phase("gen", || {
        let mut from = 0u64;
        per_rate
            .iter()
            .map(|&n| {
                let blocks = n.div_ceil(BLOCK) as u64;
                let mut ops = ctx.corpus(&WORKLOAD, from, blocks);
                ops.truncate(n);
                from += blocks;
                ops
            })
            .collect::<Vec<_>>()
    });
    let mut out = Outcome { replicas: 1, ..Outcome::default() };
    let mut max_rate_ok = 0.0f64;
    let mut reported_db = None;
    for (r, (&rate, ops)) in DAY_OPEN_RATES.iter().zip(&slices).enumerate() {
        let due = poisson_schedule_ns(ops.len(), rate, derive(ctx.seed, 0xA7 + r as u64));
        ctx.tick();
        let (result, _) = tr.phase("run", || -> Res<_> {
            let db = tr.call("clone_db", r as u64, || ctx.fixture.initial_db.clone());
            let engine = tr.call("build", r as u64, || build(ctx, db))?;
            let mut service = DayService {
                ctx,
                engine: &engine,
                ops,
                resolver: RandomResolver::seeded(derive(ctx.seed, r as u64)),
                inflight: Vec::new(),
                next_sweep_ns: 0,
                counts: PumpCounts::default(),
                failed: 0,
                error: None,
            };
            // A saturated rate gets the whole run's length to drain.
            let deadline_ns = ((span_s[r] + ctx.seconds + 2.0) * 1e9) as u64;
            let report = run_open_loop(&due, &mut service, &|| tr.now_ns(), deadline_ns);
            let DayService { counts, failed, error, .. } = service;
            let quiescent = engine.is_quiescent();
            let metrics = tr.call("metrics", r as u64, || engine.metrics());
            let retained = engine.retained_slots();
            let (db, _, _) = tr.call("shutdown", r as u64, || engine.shutdown());
            Ok((report, counts, failed, error, quiescent, metrics, retained, db))
        });
        let (report, counts, failed, error, quiescent, metrics, retained, db) = result?;
        out.run_s += report.wall_s;
        out.attempted += ops.len() as u64;
        out.terminated += report.completed - failed;
        out.failed += report.unfinished + failed;
        out.check(error.is_none(), || format!("rate {rate}/s: {}", error.unwrap_or_default()));
        out.check(report.unfinished == 0 && quiescent, || {
            format!("rate {rate}/s: {} update(s) stuck at the deadline", report.unfinished)
        });
        let (ok, _) = tr.phase("check", || consistent(&db, ctx));
        out.check(ok, || format!("rate {rate}/s: final state violates a mapping"));

        let latency = Summary::of(&report.latency_ms);
        let late = Summary::of(&report.late_ms);
        eprintln!(
            "  day_open @ {rate}/s: {} arrivals, p50 {:.3} ms, p{} {:.3} ms, p99 {:.3} ms, \
             {} rejections, backlog at schedule end {}, generator late p99 {:.3} ms, {:.0} updates/s",
            ops.len(),
            latency.p50,
            latency.tail_p,
            latency.tail,
            latency.p99,
            report.rejections,
            report.backlog_at_schedule_end,
            late.p99,
            report.completed as f64 / report.wall_s,
        );
        if latency.p99 <= DAY_OPEN_P99_LIMIT_MS
            && report.backlog_at_schedule_end <= ADMISSION_CAP as u64
            && report.unfinished == 0
        {
            max_rate_ok = max_rate_ok.max(rate);
        }
        const P99_NAMES: [&str; 3] =
            ["harness.r1_p99_ms", "harness.r2_p99_ms", "harness.r3_p99_ms"];
        out.gauges.insert(P99_NAMES[r], latency.p99);
        *out.counts.entry("concurrency.rejections").or_default() += report.rejections as f64;
        out.pump.absorb(counts);
        if r == REPORTED_RATE {
            out.latency_ms = report.latency_ms.clone();
            out.engine.add(&metrics);
            out.counts.insert("concurrency.retained_slots", retained as f64);
            out.gauges.insert("harness.gen_late_p99_ms", late.p99);
            out.gauges.insert("harness.backlog_end", report.backlog_at_schedule_end as f64);
            out.ladder_ops = ops.clone();
            out.ladder_seed = derive(ctx.seed, r as u64);
            reported_db = Some(db);
        }
    }
    out.gauges.insert("harness.max_rate_ok", max_rate_ok);
    // The per-update ratios are taken where the latency is: relative to the
    // reported rate's own arrivals.
    out.per_update_base = Some(slices[REPORTED_RATE].len() as u64);
    out.close_in_memory(ctx, reported_db.expect("the reported rate ran"), 1)?;
    Ok(out)
}
