//! The "million-user day" survival scenario: an open-loop, fault-injected
//! stress run of the admission-QoS and frontier-lifecycle machinery.
//!
//! Thousands of identified clients submit a skewed workload through a
//! saturation-capped [`ExchangeEngine`] at Poisson arrival times,
//! while the simulated human answerers misbehave: a [`SlowResolver`] answers
//! only requests that have already waited, and an [`AbandoningResolver`]
//! never answers some of them at all. The engine survives on its own
//! robustness features — fair-share admission turns overload into typed
//! `retry_after` backpressure, and the [`EscalationPolicy::AutoResolve`]
//! sweeper answers whatever the humans abandoned — so the day ends with
//! bounded queues, zero permanently-stuck updates and a measurable latency
//! tail ([`ScenarioReport::latency`], in virtual ticks).

use std::collections::VecDeque;

use youtopia_concurrency::{
    AnswerOutcome, ClientId, EngineBuilder, ExchangeEngine, Priority, RunMetrics, SubmitError,
    UpdateHandle, UpdateStatus,
};
use youtopia_core::{
    AutoDecision, ChaseError, EscalationPolicy, FrontierDecision, FrontierResolver, InitialOp,
    PendingFrontier, RandomResolver,
};
use youtopia_mappings::satisfies_all;
use youtopia_storage::{DataView, UpdateId};

use crate::config::{poisson_arrival_ticks, ExperimentConfig, WorkloadKind};
use crate::experiment::build_fixture;
use crate::report::LatencySummary;
use crate::update_gen::generate_workload;

/// A pull-based answering strategy that, unlike [`FrontierResolver`], may
/// *defer* or *abandon* a request instead of deciding it — the shape fault
/// injection needs. Implementations see the whole [`PendingFrontier`]
/// (including its sweep age and escalation count), not just the question.
pub trait FaultInjectingResolver {
    /// Produces a decision for `pf`, or `None` to leave it pending.
    fn consider(&mut self, view: &dyn DataView, pf: &PendingFrontier) -> Option<FrontierDecision>;

    /// One answering pass: offers every currently pending frontier to
    /// [`consider`](Self::consider) and applies the decisions it returns.
    /// Returns how many were applied (stale tokens are skipped). A single
    /// pass, not a drain — deferred requests stay pending until a later
    /// tick's poll or the engine's own escalation sweeper gets them.
    fn poll(&mut self, engine: &ExchangeEngine) -> Result<usize, ChaseError> {
        let mut answered = 0usize;
        for pf in engine.pending_frontiers() {
            let decision = engine.read(|db| self.consider(&db.snapshot(pf.update), &pf));
            if let Some(decision) = decision {
                if engine.answer(pf.token, decision)? == AnswerOutcome::Applied {
                    answered += 1;
                }
            }
        }
        Ok(answered)
    }
}

/// Fault injection: a human who answers **late**. Requests younger than
/// `delay` sweeps are deferred; once a request has aged past the threshold,
/// the inner resolver decides it. With `delay` below the engine's escalation
/// deadline, slow humans still beat the auto-resolver — only truly abandoned
/// requests fall through to the system.
pub struct SlowResolver<R> {
    delay: u64,
    inner: R,
}

impl<R: FrontierResolver> SlowResolver<R> {
    /// Answers with `inner` once a request's sweep age reaches `delay`.
    pub fn new(delay: u64, inner: R) -> SlowResolver<R> {
        SlowResolver { delay, inner }
    }
}

impl<R: FrontierResolver> FaultInjectingResolver for SlowResolver<R> {
    fn consider(&mut self, view: &dyn DataView, pf: &PendingFrontier) -> Option<FrontierDecision> {
        if pf.age < self.delay {
            return None;
        }
        Some(self.inner.resolve(view, &pf.request))
    }
}

/// Fault injection: a human who **never comes back** for some requests.
/// Every token congruent to `0` modulo `every` is abandoned outright
/// (deterministic, so runs are reproducible); the rest pass through to the
/// wrapped strategy. Abandoned requests are exactly what
/// [`EscalationPolicy::AutoResolve`] exists for — without it they would
/// block their updates forever.
pub struct AbandoningResolver<F> {
    every: u64,
    inner: F,
}

impl<F: FaultInjectingResolver> AbandoningResolver<F> {
    /// Abandons every `every`-th token (`0` disables abandonment).
    pub fn new(every: u64, inner: F) -> AbandoningResolver<F> {
        AbandoningResolver { every, inner }
    }
}

impl<F: FaultInjectingResolver> FaultInjectingResolver for AbandoningResolver<F> {
    fn consider(&mut self, view: &dyn DataView, pf: &PendingFrontier) -> Option<FrontierDecision> {
        if self.every != 0 && pf.token.0 % self.every == 0 {
            return None;
        }
        self.inner.consider(view, pf)
    }
}

/// Parameters of the survival scenario.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Fixture and workload parameters (`workload_updates` is the day's total
    /// submission count; the workload itself is [`WorkloadKind::Skewed`]).
    pub experiment: ExperimentConfig,
    /// Number of distinct identified clients the updates are spread over.
    pub clients: usize,
    /// Expected arrivals per virtual tick (the open-loop Poisson rate).
    pub rate: f64,
    /// Global admission cap — chosen low enough that the arrival rate
    /// saturates it, so fair-share backpressure actually engages.
    pub admission_cap: usize,
    /// Sweeps before an unanswered request is auto-resolved by the system.
    pub escalate_after: u64,
    /// Sweeps before the slow human answers ([`SlowResolver`]); keep below
    /// `escalate_after` so humans win on requests they do answer.
    pub answer_delay: u64,
    /// Every `abandon_every`-th token is never humanly answered
    /// ([`AbandoningResolver`]).
    pub abandon_every: u64,
    /// Safety valve on the tick loop; reaching it means something is stuck.
    pub max_ticks: usize,
}

impl ScenarioConfig {
    /// The CI-sized scenario: the same dynamics at one-core scale (a couple
    /// of seconds), used by the stress lane.
    pub fn scaled() -> ScenarioConfig {
        let mut experiment = ExperimentConfig::tiny();
        experiment.workload_updates = 120;
        ScenarioConfig {
            experiment,
            clients: 48,
            rate: 8.0,
            admission_cap: 6,
            escalate_after: 4,
            answer_delay: 2,
            abandon_every: 4,
            max_ticks: 10_000,
        }
    }

    /// The full-scale day: thousands of clients over a larger fixture. Run
    /// via the `#[ignore]`d test (`cargo test -- --ignored million`) — it
    /// takes minutes, not seconds.
    pub fn full() -> ScenarioConfig {
        let mut experiment = ExperimentConfig::quick();
        experiment.workload_updates = 2_000;
        ScenarioConfig {
            experiment,
            clients: 2_500,
            rate: 6.0,
            admission_cap: 32,
            escalate_after: 6,
            answer_delay: 3,
            abandon_every: 7,
            max_ticks: 200_000,
        }
    }
}

/// What a scenario run observed.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Updates submitted (and eventually admitted) over the day.
    pub submitted: usize,
    /// Saturation rejections along the way; every rejected submission was
    /// retried after its `retry_after` hint and eventually admitted.
    pub rejections: usize,
    /// Updates observed terminal (terminated or failed) by the end.
    pub completed: usize,
    /// Updates that failed terminally (step budget); zero in a healthy run.
    pub failed: usize,
    /// Updates still in flight when the loop ended — **must** be zero, or
    /// the scenario found a permanently-stuck update.
    pub stuck: usize,
    /// Frontier requests still pending at the end (must be zero).
    pub pending_at_end: usize,
    /// High-water mark of the pending-frontier queue (bounded by the
    /// admission cap: each in-flight update blocks on at most one request).
    pub max_pending_frontiers: usize,
    /// High-water mark of *admitted* in-flight updates — submissions the
    /// admission controller let through that had not yet terminated. Bounded
    /// by the admission cap (Rule 0 admits only while `active + n <= cap`).
    pub max_admitted: usize,
    /// High-water mark of the engine's live update count: admitted updates
    /// plus cascading-abort revivals. A delete cascade may revive already-
    /// terminated updates for repair — those bypass admission (refusing a
    /// repair would sacrifice consistency), so this can transiently exceed
    /// the cap while the revived tail re-runs.
    pub max_active: usize,
    /// Virtual ticks the day took.
    pub ticks: usize,
    /// Submission-to-completion latency percentiles, in ticks.
    pub latency: LatencySummary,
    /// The engine's final metrics (auto-resolutions, frontier ops, …).
    pub metrics: RunMetrics,
    /// Whether the final database satisfied every mapping.
    pub consistent: bool,
}

/// Runs the survival scenario: per virtual tick, submit the tick's Poisson
/// arrivals (and any matured retries) as identified clients, drive the
/// engine until it blocks, let the faulty humans answer what they
/// deign to, and run one lifecycle sweep. The loop ends when every update
/// ever submitted is terminal and nothing is pending — or at
/// [`ScenarioConfig::max_ticks`], which the caller should treat as failure
/// (see [`ScenarioReport::stuck`]).
pub fn run_million_user_day(sc: &ScenarioConfig) -> Result<ScenarioReport, ChaseError> {
    sc.experiment.validate().map_err(ChaseError::InvalidDecision)?;
    let fixture = build_fixture(&sc.experiment)?;
    let ops = generate_workload(
        &sc.experiment,
        &fixture.schema,
        &fixture.initial_db,
        &fixture.mappings,
        WorkloadKind::Skewed,
        sc.experiment.seed ^ 0xDA4,
    );
    let submitted_total = ops.len();
    let arrivals = poisson_arrival_ticks(ops.len(), sc.rate, sc.experiment.seed ^ 0x0DAE);

    let engine = EngineBuilder::new()
        .admission_cap(sc.admission_cap)
        .first_update_number(sc.experiment.initial_tuples as u64 + 1_000)
        .escalation(EscalationPolicy::AutoResolve {
            after: sc.escalate_after,
            decision: AutoDecision::ExpandOrDeleteFirst,
        })
        .build(fixture.initial_db.clone(), fixture.mappings.clone())
        .expect("non-durable engines build infallibly");
    let mut resolver = AbandoningResolver::new(
        sc.abandon_every,
        SlowResolver::new(sc.answer_delay, RandomResolver::seeded(sc.experiment.seed ^ 0x51)),
    );

    // Each update belongs to a client (round-robin) whose priority tier is a
    // fixed function of its identity: every fourth client is latency
    // sensitive, every fourth is background, the rest are normal.
    let clients = sc.clients.max(1) as u64;
    let mut incoming: VecDeque<(u64, InitialOp, ClientId, Priority)> = ops
        .into_iter()
        .enumerate()
        .map(|(i, op)| {
            let client = ClientId(i as u64 % clients);
            let priority = match client.0 % 4 {
                0 => Priority::High,
                3 => Priority::Low,
                _ => Priority::Normal,
            };
            (arrivals[i], op, client, priority)
        })
        .collect();

    // Rejected submissions honour the backoff contract: a retry waits until
    // `retry_after.completions` more updates have been observed terminal.
    let mut retries: VecDeque<(usize, InitialOp, ClientId, Priority)> = VecDeque::new();
    let mut inflight: Vec<(UpdateHandle, usize)> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut rejections = 0usize;
    let mut max_pending = 0usize;
    let mut max_admitted = 0usize;
    let mut max_active = 0usize;
    let mut tick = 0usize;

    while tick < sc.max_ticks {
        // 1. Submissions: matured retries first (they have waited), then the
        // tick's fresh arrivals. A retry matures when the promised number of
        // completions has been observed — or when the engine has gone idle,
        // the other half of the documented backoff contract (a "wait one
        // completion" hint can never be satisfied while nothing is in
        // flight, e.g. a starvation reservation held against an empty
        // engine; real clients poll `active_updates` for exactly this).
        let idle = engine.active_updates() == 0;
        let mut to_submit: Vec<(InitialOp, ClientId, Priority)> = Vec::new();
        retries = retries
            .into_iter()
            .filter_map(|(due, op, client, priority)| {
                if due <= completed || idle {
                    to_submit.push((op, client, priority));
                    None
                } else {
                    Some((due, op, client, priority))
                }
            })
            .collect();
        while incoming.front().is_some_and(|&(at, ..)| at as usize <= tick) {
            let (_, op, client, priority) = incoming.pop_front().expect("checked front");
            to_submit.push((op, client, priority));
        }
        for (op, client, priority) in to_submit {
            match engine.submit_as(op.clone(), client, priority) {
                Ok(handle) => inflight.push((handle, tick)),
                Err(SubmitError::Saturated { retry_after, .. }) => {
                    rejections += 1;
                    retries.push_back((completed + retry_after.completions, op, client, priority));
                }
                Err(e) => return Err(ChaseError::InvalidDecision(e.to_string())),
            }
        }

        // 2. Chase until idle or blocked; 3. faulty humans answer; 4. sweep.
        engine.drive()?;
        resolver.poll(&engine)?;
        engine.drive()?;
        let swept = engine.sweep();
        if !swept.auto_resolved.is_empty() {
            engine.drive()?;
        }

        // 5. Bookkeeping: queue high-water marks and completion latencies.
        max_pending = max_pending.max(engine.pending_frontiers().len());
        max_admitted = max_admitted.max(inflight.len());
        max_active = max_active.max(engine.active_updates());
        inflight.retain(|(handle, submitted)| match handle.status() {
            UpdateStatus::Terminated | UpdateStatus::Failed => {
                completed += 1;
                if handle.status() == UpdateStatus::Failed {
                    failed += 1;
                }
                latencies.push((tick - submitted) as f64);
                false
            }
            UpdateStatus::Running | UpdateStatus::AwaitingFrontier => true,
        });

        tick += 1;
        if incoming.is_empty() && retries.is_empty() && inflight.is_empty() && engine.is_quiescent()
        {
            break;
        }
    }

    let stuck = inflight.len() + retries.len() + incoming.len();
    let pending_at_end = engine.pending_frontiers().len();
    let consistent =
        engine.read(|db| satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), engine.mappings()));
    let (_db, _mappings, metrics) = engine.shutdown();
    Ok(ScenarioReport {
        submitted: submitted_total,
        rejections,
        completed,
        failed,
        stuck,
        pending_at_end,
        max_pending_frontiers: max_pending,
        max_admitted,
        max_active,
        ticks: tick,
        latency: LatencySummary::from_samples(&latencies),
        metrics,
        consistent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_survived(sc: &ScenarioConfig, report: &ScenarioReport) {
        assert_eq!(report.stuck, 0, "no update may be permanently stuck: {report:?}");
        assert_eq!(report.pending_at_end, 0, "no frontier may outlive the day");
        assert_eq!(report.completed, report.submitted, "every admitted update must finish");
        assert_eq!(report.failed, 0, "no step-budget casualties expected");
        assert!(report.consistent, "the surviving database must satisfy the mappings");
        assert!(report.ticks < sc.max_ticks, "the day must actually end");
        assert!(
            report.max_admitted <= sc.admission_cap,
            "admission must bound admitted in-flight updates: {} > {}",
            report.max_admitted,
            sc.admission_cap
        );
        // `max_active` may exceed the cap (cascading aborts revive terminated
        // updates for repair, outside admission) but never the day's total.
        assert!(report.max_active >= report.max_admitted);
        assert!(report.max_active <= report.submitted);
        assert!(
            report.max_pending_frontiers <= sc.admission_cap,
            "each in-flight update blocks on at most one request"
        );
        assert!(report.latency.p50 <= report.latency.p95);
        assert!(report.latency.p95 <= report.latency.p99);
    }

    #[test]
    fn scaled_million_user_day_survives() {
        let sc = ScenarioConfig::scaled();
        let report = run_million_user_day(&sc).unwrap();
        assert_survived(&sc, &report);
        // The scenario must actually exercise its subject matter: overload
        // (typed rejections, retried to admission) and abandonment (system
        // auto-resolutions on the sweeper's deadline).
        assert!(report.rejections > 0, "the cap must saturate: {report:?}");
        assert!(report.metrics.frontier_ops > 0, "the workload must block on frontiers");
        assert!(report.metrics.auto_resolutions > 0, "abandoned requests must escalate");
    }

    #[test]
    fn scenario_runs_are_reproducible() {
        let sc = ScenarioConfig::scaled();
        let a = run_million_user_day(&sc).unwrap();
        let b = run_million_user_day(&sc).unwrap();
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.rejections, b.rejections);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.metrics.auto_resolutions, b.metrics.auto_resolutions);
        assert_eq!(a.metrics.steps, b.metrics.steps);
    }

    #[test]
    #[ignore = "full-scale million-user day (minutes); cargo test -- --ignored"]
    fn full_million_user_day_survives() {
        let sc = ScenarioConfig::full();
        let report = run_million_user_day(&sc).unwrap();
        assert_survived(&sc, &report);
        assert!(report.rejections > 0);
        assert!(report.metrics.auto_resolutions > 0);
    }
}
