//! The crash-recovery scenario: a generated workload driven through a
//! **durable** [`ExchangeEngine`](youtopia_concurrency::ExchangeEngine) in staggered waves, "crashed" partway (the
//! engine is dropped without a clean shutdown, abandoning whatever was
//! mid-chase), recovered from its durability directory, and driven to the
//! end. The scenario exercises the whole durability surface — WAL appends,
//! periodic snapshots, deterministic replay, and the resumption of
//! interrupted chases — under the same generators the Section 6 experiments
//! use, rather than hand-built fixtures.

use std::path::Path;

use youtopia_concurrency::{
    DurabilityConfig, EngineBuilder, ResolverPump, RunMetrics, TrackerKind,
};
use youtopia_core::{ChaseError, InitialOp, RandomResolver};
use youtopia_mappings::satisfies_all;
use youtopia_storage::UpdateId;

use crate::config::{ArrivalProcess, ExperimentConfig, WorkloadKind};
use crate::experiment::ExperimentFixture;
use crate::update_gen::generate_workload;

/// What one crash-recovery scenario run observed.
#[derive(Clone, Debug)]
pub struct CrashRecoveryReport {
    /// Updates whose submission was logged before the simulated crash
    /// (including the final, deliberately unpumped wave that the crash
    /// interrupts mid-chase).
    pub submitted_before_crash: usize,
    /// Updates submitted by the *recovered* engine after the crash.
    pub submitted_after_crash: usize,
    /// Slot records the recovered engine still held at the end (bounded by
    /// the configured retention horizon plus a small lag).
    pub retained_slots: usize,
    /// The recovered engine's final metrics. `workload_size` counts every
    /// update ever admitted — replayed and fresh alike — so it equals the
    /// full workload when recovery lost nothing.
    pub metrics: RunMetrics,
    /// Whether the final database satisfied every active mapping.
    pub consistent: bool,
}

/// Runs the crash-recovery scenario for one workload under one tracker.
///
/// Phase 1 submits `crash_after_waves` waves to a durable engine (pumping
/// frontier answers to quiescence after each), then submits one more wave
/// and **drops the engine without shutting it down** — the crash. Phase 2
/// calls [`EngineBuilder::recover`] on the same directory, pumps the
/// replayed mid-flight work to quiescence, and submits the rest of the
/// workload. Recovery replays the log tail deterministically, so nothing
/// that was acknowledged before the crash is lost; the interrupted wave's
/// chases resume where replay leaves them and their remaining frontier
/// questions are answered by the phase 2 resolver.
///
/// `dir` must be empty or nonexistent; the WAL, snapshots and retention
/// behaviour all live under it.
pub fn run_crash_recovery(
    fixture: &ExperimentFixture,
    config: &ExperimentConfig,
    kind: WorkloadKind,
    tracker: TrackerKind,
    dir: &Path,
    crash_after_waves: usize,
) -> Result<CrashRecoveryReport, ChaseError> {
    let mappings = fixture.mappings.clone();
    let ops = generate_workload(
        config,
        &fixture.schema,
        &fixture.initial_db,
        &mappings,
        kind,
        config.seed,
    );
    let wave = match config.arrival {
        ArrivalProcess::Staggered { wave } => wave.max(1),
        // The crash scenario needs *counted* waves to place the crash, so
        // open-loop Poisson arrivals fall back to the same fixed wave as
        // `Batch`.
        ArrivalProcess::Batch | ArrivalProcess::Poisson { .. } => 4,
    };
    let first_number = config.initial_tuples as u64 + 1_000;
    // One builder describes both lives of the engine: the run that crashes
    // and the recovery must agree on every fingerprinted knob.
    let builder = || {
        EngineBuilder::new()
            .tracker(tracker)
            .frontier_delay_rounds(config.frontier_delay_rounds)
            .first_update_number(first_number)
            .durable(DurabilityConfig::new(dir).with_snapshot_every(16))
    };
    let durable_err = |e: youtopia_concurrency::RecoveryError| {
        ChaseError::InvalidDecision(format!("durability failure: {e}"))
    };

    let waves: Vec<Vec<InitialOp>> = ops.chunks(wave).map(|c| c.to_vec()).collect();
    let crash_at = crash_after_waves.min(waves.len());
    let mut resolver = RandomResolver::seeded(config.seed ^ 0xC4A5);

    // Phase 1: the run that will crash.
    let mut submitted_before_crash = 0usize;
    {
        let engine =
            builder().build(fixture.initial_db.clone(), mappings.clone()).map_err(durable_err)?;
        for batch in &waves[..crash_at] {
            submitted_before_crash += batch.len();
            engine
                .submit_batch(batch.clone())
                .map_err(|e| ChaseError::InvalidDecision(e.to_string()))?;
            ResolverPump::new(&engine, &mut resolver).run_until_quiescent()?;
        }
        // One more wave goes in *without* pumping its frontiers, so the
        // crash lands mid-chase: its submission is durable, its chase work
        // is not — exactly what replay must regenerate.
        if let Some(batch) = waves.get(crash_at) {
            submitted_before_crash += batch.len();
            engine
                .submit_batch(batch.clone())
                .map_err(|e| ChaseError::InvalidDecision(e.to_string()))?;
        }
        // The crash: drop without `shutdown()`. Nothing has driven the last
        // wave's chase, and nothing further reaches the log.
        drop(engine);
    }

    // Phase 2: recover and finish.
    let engine = builder().recover(mappings).map_err(durable_err)?;
    // Replay has re-admitted the interrupted wave and re-run its chase up to
    // the last logged event; pump the remaining frontier questions.
    ResolverPump::new(&engine, &mut resolver).run_until_quiescent()?;
    let mut submitted_after_crash = 0usize;
    for batch in waves.iter().skip(crash_at + 1) {
        submitted_after_crash += batch.len();
        engine
            .submit_batch(batch.clone())
            .map_err(|e| ChaseError::InvalidDecision(e.to_string()))?;
        ResolverPump::new(&engine, &mut resolver).run_until_quiescent()?;
    }
    let consistent =
        engine.read(|db| satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), engine.mappings()));
    let retained_slots = engine.retained_slots();
    let (_db, _mappings, metrics) = engine.shutdown();
    Ok(CrashRecoveryReport {
        submitted_before_crash,
        submitted_after_crash,
        retained_slots,
        metrics,
        consistent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::build_fixture;
    use std::path::PathBuf;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("youtopia-crash-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn crashed_runs_recover_and_finish_the_workload() {
        let mut config = ExperimentConfig::tiny();
        config.arrival = ArrivalProcess::Staggered { wave: 3 };
        let fixture = build_fixture(&config).unwrap();
        let dir = TempDir::new("mixed");
        let report = run_crash_recovery(
            &fixture,
            &config,
            WorkloadKind::Mixed,
            TrackerKind::Precise,
            &dir.0,
            2,
        )
        .unwrap();
        assert!(report.consistent, "recovered database must satisfy the mappings");
        let total = report.submitted_before_crash + report.submitted_after_crash;
        assert!(total > 0);
        assert_eq!(
            report.metrics.workload_size, total,
            "no acknowledged submission may be lost to the crash"
        );
        assert!(report.retained_slots <= total);
    }

    #[test]
    fn crashing_after_every_wave_still_recovers() {
        let mut config = ExperimentConfig::tiny();
        config.arrival = ArrivalProcess::Staggered { wave: 4 };
        let fixture = build_fixture(&config).unwrap();
        let dir = TempDir::new("late");
        let report = run_crash_recovery(
            &fixture,
            &config,
            WorkloadKind::AllInserts,
            TrackerKind::Coarse,
            &dir.0,
            usize::MAX,
        )
        .unwrap();
        assert!(report.consistent);
        assert_eq!(report.submitted_after_crash, 0, "nothing left to submit after the crash");
        assert_eq!(report.metrics.workload_size, report.submitted_before_crash);
    }
}
