//! An open-loop generator: arrivals are sent on a wall-clock schedule whether
//! or not the service keeps up, and every latency is timed from the instant
//! the arrival was *due* — so a stall is charged to every arrival it delayed,
//! not only to the one in service. How late the generator itself ran is
//! reported beside the latencies.

use std::collections::VecDeque;

use crate::inputs::unit_f64;

/// What the generator drives. Arrivals are named by their schedule index.
pub trait OpenService {
    /// Offers arrival `idx`. `Err(n)` = refused; offer it again once `n` more
    /// completions have been observed (or the service has gone idle).
    fn try_submit(&mut self, idx: usize) -> Result<(), usize>;
    /// Does service work until the service is idle or blocked, reporting
    /// every arrival newly observed terminal through `done`.
    fn work(&mut self, done: &mut dyn FnMut(usize));
    /// Whether nothing is in flight.
    fn idle(&self) -> bool;
    /// When a service that is blocked (not idle, nothing to report) next
    /// wants `work` called, on the generator's clock. The generator waits
    /// until then, or the next arrival, instead of polling hot.
    fn wake_at_ns(&self) -> u64;
    /// Told that nothing is due for `gap_ns`: the one place an open loop can
    /// do housekeeping without delaying an arrival.
    fn quiet(&mut self, gap_ns: u64);
}

/// Due times (ns from schedule start) of `n` Poisson arrivals at `rate` per
/// second: cumulative exponential gaps by inverse-transform sampling.
pub fn poisson_schedule_ns(n: usize, rate: f64, seed: u64) -> Vec<u64> {
    assert!(rate.is_finite() && rate > 0.0, "arrival rate must be finite and positive");
    let mut state = seed;
    let mut now = 0.0f64;
    (0..n)
        .map(|_| {
            now += -(1.0 - unit_f64(&mut state)).ln() / rate;
            (now * 1e9) as u64
        })
        .collect()
}

#[derive(Clone, Debug, Default)]
pub struct OpenLoopReport {
    /// Due → observed terminal, per completed arrival, in ms.
    pub latency_ms: Vec<f64>,
    /// Due → noticed by the generator, per arrival, in ms: how late the
    /// generator itself ran (it is busy while the service works).
    pub late_ms: Vec<f64>,
    pub rejections: u64,
    pub completed: u64,
    /// Arrivals due but not yet terminal when the last arrival fell due.
    pub backlog_at_schedule_end: u64,
    /// Schedule start → last completion (or the deadline), in seconds.
    pub wall_s: f64,
    /// Arrivals still not terminal at the deadline.
    pub unfinished: u64,
}

/// Runs the schedule `due_ns` against `service`, reading time from `clock`
/// (ns since an arbitrary origin), until every arrival is terminal or
/// `deadline_ns` after the start has passed.
///
/// Arrivals the service has not admitted yet queue at its door in due order.
/// Only the head of that queue is offered: once it is refused, everything
/// behind it waits for the completions the refusal asked for (or for the
/// service to go idle) — one retry per freed slot, not a thundering herd.
pub fn run_open_loop(
    due_ns: &[u64],
    service: &mut dyn OpenService,
    clock: &dyn Fn() -> u64,
    deadline_ns: u64,
) -> OpenLoopReport {
    let start = clock();
    let now = || clock() - start;
    let mut report = OpenLoopReport {
        late_ms: Vec::with_capacity(due_ns.len()),
        latency_ms: Vec::with_capacity(due_ns.len()),
        ..OpenLoopReport::default()
    };
    let mut next = 0usize;
    let mut door: VecDeque<usize> = VecDeque::new();
    // Completions the refused head of the queue is waiting for.
    let mut retry_at = 0u64;
    let mut schedule_ended = false;
    loop {
        let t = now();
        while next < due_ns.len() && due_ns[next] <= t {
            report.late_ms.push((t - due_ns[next]) as f64 / 1e6);
            door.push_back(next);
            next += 1;
        }
        let mut progressed = false;
        while let Some(&idx) = door.front() {
            if report.completed < retry_at && !service.idle() {
                break;
            }
            match service.try_submit(idx) {
                Ok(()) => {
                    door.pop_front();
                    progressed = true;
                }
                Err(after) => {
                    report.rejections += 1;
                    retry_at = report.completed + after.max(1) as u64;
                    break;
                }
            }
        }
        let mut finished: Vec<usize> = Vec::new();
        service.work(&mut |idx| finished.push(idx));
        let t = now();
        progressed |= !finished.is_empty();
        for idx in finished {
            report.completed += 1;
            report.latency_ms.push(t.saturating_sub(due_ns[idx]) as f64 / 1e6);
        }
        if next == due_ns.len() && !schedule_ended {
            schedule_ended = true;
            report.backlog_at_schedule_end = due_ns.len() as u64 - report.completed;
        }
        if report.completed == due_ns.len() as u64 || t >= deadline_ns {
            report.wall_s = t as f64 / 1e9;
            report.unfinished = due_ns.len() as u64 - report.completed;
            return report;
        }
        // Nothing moved: wait for the next arrival, or for the moment a
        // blocked service wants to be polled again. Spinning keeps the
        // generator's own lateness in microseconds; a sleep would add the
        // scheduler's wake-up latency to every quiet gap.
        let head_can_retry = !door.is_empty() && service.idle();
        if !progressed && !head_can_retry {
            let mut until = due_ns.get(next).copied().unwrap_or(deadline_ns);
            if !service.idle() {
                until = until.min(service.wake_at_ns().saturating_sub(start));
            }
            let until = until.min(deadline_ns);
            service.quiet(until.saturating_sub(now()));
            while now() < until {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Serves every arrival instantly, except that the first `work` call at
    /// or after `stall_at_ns` blocks for `stall`.
    struct StallingService {
        clock_origin: Instant,
        stall_at_ns: u64,
        stall: Duration,
        stalled_from_to: Option<(u64, u64)>,
        queue: Vec<usize>,
        cap: usize,
    }

    impl OpenService for StallingService {
        fn try_submit(&mut self, idx: usize) -> Result<(), usize> {
            if self.queue.len() >= self.cap {
                return Err(1);
            }
            self.queue.push(idx);
            Ok(())
        }

        fn work(&mut self, done: &mut dyn FnMut(usize)) {
            let now = self.clock_origin.elapsed().as_nanos() as u64;
            if self.stalled_from_to.is_none() && now >= self.stall_at_ns {
                std::thread::sleep(self.stall);
                self.stalled_from_to = Some((now, self.clock_origin.elapsed().as_nanos() as u64));
            }
            for idx in self.queue.drain(..) {
                done(idx);
            }
        }

        fn idle(&self) -> bool {
            self.queue.is_empty()
        }

        fn wake_at_ns(&self) -> u64 {
            0
        }

        fn quiet(&mut self, _gap_ns: u64) {}
    }

    #[test]
    fn a_stall_is_charged_to_every_arrival_due_during_it() {
        // One arrival per millisecond for 150 ms; the service freezes for
        // 50 ms somewhere after the 40 ms mark.
        let due: Vec<u64> = (0..150).map(|i| i * 1_000_000).collect();
        let origin = Instant::now();
        let mut service = StallingService {
            clock_origin: origin,
            stall_at_ns: 40_000_000,
            stall: Duration::from_millis(50),
            stalled_from_to: None,
            queue: Vec::new(),
            cap: usize::MAX,
        };
        let clock = move || origin.elapsed().as_nanos() as u64;
        let report = run_open_loop(&due, &mut service, &clock, 5_000_000_000);
        assert_eq!(report.completed, 150);
        assert_eq!(report.unfinished, 0);
        let (from, to) = service.stalled_from_to.expect("the stall happened");
        assert!(to - from >= 50_000_000);
        // Completion order is schedule order here, so latency_ms[i] belongs
        // to arrival i.
        let mut during = 0;
        for (i, due_ns) in due.iter().enumerate() {
            if *due_ns > from && *due_ns < to {
                during += 1;
                let owed = (to - due_ns) as f64 / 1e6;
                assert!(
                    report.latency_ms[i] >= owed,
                    "arrival {i} due mid-stall waited {} ms, owed {owed} ms",
                    report.latency_ms[i]
                );
                assert!(report.late_ms[i] >= owed, "generator lateness must show the stall");
            }
        }
        assert!(during >= 45, "about fifty arrivals fell due during the stall ({during})");
        let mut late = report.late_ms.clone();
        late.sort_by(f64::total_cmp);
        assert!(crate::stats::percentile(&late, 99.0) >= 45.0, "gen_late_p99 shows the stall");
        // Arrivals well clear of the stall were served promptly.
        assert!(report.latency_ms[5] < 20.0 && report.latency_ms[149] < 20.0);
    }

    #[test]
    fn refusals_are_retried_until_admitted() {
        let due: Vec<u64> = vec![0; 40];
        let origin = Instant::now();
        let mut service = StallingService {
            clock_origin: origin,
            stall_at_ns: u64::MAX,
            stall: Duration::ZERO,
            stalled_from_to: None,
            queue: Vec::new(),
            cap: 8,
        };
        let clock = move || origin.elapsed().as_nanos() as u64;
        let report = run_open_loop(&due, &mut service, &clock, 5_000_000_000);
        assert_eq!(report.completed, 40);
        // Eight fit per pass; the ninth is refused and everything behind it
        // waits: four refusals in all, not one per queued arrival.
        assert_eq!(report.rejections, 4);
        assert_eq!(report.backlog_at_schedule_end, 32);
    }

    #[test]
    fn poisson_schedule_matches_its_rate() {
        let a = poisson_schedule_ns(20_000, 4_000.0, 9);
        assert_eq!(a, poisson_schedule_ns(20_000, 4_000.0, 9));
        assert_ne!(a, poisson_schedule_ns(20_000, 4_000.0, 10));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let span_s = *a.last().unwrap() as f64 / 1e9;
        assert!((4.8..5.2).contains(&span_s), "20 000 arrivals at 4 000/s take ≈5 s ({span_s})");
    }
}
