//! Metrics collected by a concurrent run — the quantities plotted in
//! Figures 3 and 4 of the paper.

use std::time::Duration;

/// Counters and timings for one concurrent execution of a workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Number of updates in the original workload.
    pub workload_size: usize,
    /// Total number of aborts **performed** during the run (first graph of
    /// Figures 3 and 4). Every abort causes the update to restart, so the
    /// total number of update executions is `workload_size + aborts`.
    pub aborts: usize,
    /// Abort requests raised because a write retroactively changed the answer
    /// of a stored read query (a *genuine* conflict).
    pub direct_conflict_requests: usize,
    /// Abort requests raised purely through the read-dependency cascade, i.e.
    /// for updates "not in direct conflict with a just-performed write"
    /// (second graph of Figures 3 and 4).
    pub cascading_abort_requests: usize,
    /// Chase steps executed across all updates (including restarted ones).
    pub steps: usize,
    /// Frontier operations performed by the (simulated) users.
    pub frontier_ops: usize,
    /// Tuple-level changes written.
    pub changes: usize,
    /// Frontier requests the lifecycle sweeper re-published at higher
    /// priority (`EscalationPolicy::ReAsk`). Live observability only: re-asks
    /// are not WAL-logged, so the counter restarts at zero after recovery.
    pub re_asks: usize,
    /// Frontier requests the system answered on deadline expiry
    /// (`EscalationPolicy::AutoResolve`). Counted from the answer's logged
    /// `ResolutionOrigin`, so recovery replay reproduces it exactly; included
    /// in `frontier_ops` as well (an auto-resolution *is* a frontier op).
    pub auto_resolutions: usize,
    /// Wall-clock time of the whole run.
    pub wall_time: Duration,
}

impl RunMetrics {
    /// Total number of update executions: the original workload plus one
    /// execution per abort (the paper divides run time by this quantity).
    pub fn updates_run(&self) -> usize {
        self.workload_size + self.aborts
    }

    /// Per-update execution time — the quantity whose ratio between `PRECISE`
    /// and `COARSE` is reported as the *slowdown* in the third graph of
    /// Figures 3 and 4.
    pub fn per_update_time(&self) -> Duration {
        if self.updates_run() == 0 {
            Duration::ZERO
        } else {
            self.wall_time / self.updates_run() as u32
        }
    }

    /// Merges another run's metrics into this one (used when averaging over
    /// repeated runs).
    pub fn accumulate(&mut self, other: &RunMetrics) {
        self.workload_size += other.workload_size;
        self.aborts += other.aborts;
        self.direct_conflict_requests += other.direct_conflict_requests;
        self.cascading_abort_requests += other.cascading_abort_requests;
        self.steps += other.steps;
        self.frontier_ops += other.frontier_ops;
        self.changes += other.changes;
        self.re_asks += other.re_asks;
        self.auto_resolutions += other.auto_resolutions;
        self.wall_time += other.wall_time;
    }

    /// Divides every counter by `n`, producing per-run averages.
    pub fn averaged(&self, n: usize) -> AveragedMetrics {
        let n = n.max(1) as f64;
        AveragedMetrics {
            aborts: self.aborts as f64 / n,
            direct_conflict_requests: self.direct_conflict_requests as f64 / n,
            cascading_abort_requests: self.cascading_abort_requests as f64 / n,
            steps: self.steps as f64 / n,
            frontier_ops: self.frontier_ops as f64 / n,
            changes: self.changes as f64 / n,
            wall_time_secs: self.wall_time.as_secs_f64() / n,
            per_update_time_secs: {
                let runs = self.updates_run() as f64;
                if runs == 0.0 {
                    0.0
                } else {
                    self.wall_time.as_secs_f64() / runs
                }
            },
        }
    }
}

/// Per-run averages over a series of repeated runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AveragedMetrics {
    /// Average number of aborts per run.
    pub aborts: f64,
    /// Average number of direct-conflict abort requests per run.
    pub direct_conflict_requests: f64,
    /// Average number of cascading abort requests per run.
    pub cascading_abort_requests: f64,
    /// Average number of chase steps per run.
    pub steps: f64,
    /// Average number of frontier operations per run.
    pub frontier_ops: f64,
    /// Average number of tuple changes per run.
    pub changes: f64,
    /// Average wall-clock seconds per run.
    pub wall_time_secs: f64,
    /// Average per-update execution time in seconds (total time over total
    /// update executions, as in Section 6).
    pub per_update_time_secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_run_counts_restarts() {
        let m = RunMetrics { workload_size: 500, aborts: 70, ..RunMetrics::default() };
        assert_eq!(m.updates_run(), 570);
    }

    #[test]
    fn per_update_time_divides_by_executions() {
        let m = RunMetrics {
            workload_size: 10,
            aborts: 10,
            wall_time: Duration::from_secs(20),
            ..RunMetrics::default()
        };
        assert_eq!(m.per_update_time(), Duration::from_secs(1));
        let empty = RunMetrics::default();
        assert_eq!(empty.per_update_time(), Duration::ZERO);
    }

    #[test]
    fn accumulate_and_average() {
        let mut total = RunMetrics::default();
        for _ in 0..4 {
            total.accumulate(&RunMetrics {
                workload_size: 100,
                aborts: 8,
                direct_conflict_requests: 6,
                cascading_abort_requests: 2,
                steps: 1000,
                frontier_ops: 50,
                changes: 400,
                re_asks: 2,
                auto_resolutions: 1,
                wall_time: Duration::from_millis(500),
            });
        }
        assert_eq!(total.aborts, 32);
        assert_eq!(total.re_asks, 8);
        assert_eq!(total.auto_resolutions, 4);
        let avg = total.averaged(4);
        assert!((avg.aborts - 8.0).abs() < 1e-9);
        assert!((avg.cascading_abort_requests - 2.0).abs() < 1e-9);
        assert!((avg.wall_time_secs - 0.5).abs() < 1e-9);
        assert!(avg.per_update_time_secs > 0.0);
    }
}
