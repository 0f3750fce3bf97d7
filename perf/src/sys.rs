//! What the harness asks of the machine: a calibration loop, a speedometer
//! built on the same loop, the process's peak memory, and a scratch directory
//! inside the checkout.

use std::cell::RefCell;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use crate::inputs::{splitmix64, Fnv};
use crate::pins::PROBE_REF_MS;

/// A fixed CPU loop — fill, sort and hash `buf`, `rounds` times — timed in
/// milliseconds. The work never changes, so its duration is a reading of how
/// fast this box is running right now.
fn fixed_loop(buf: &mut [u64], rounds: u64) -> f64 {
    let start = Instant::now();
    let mut acc = Fnv::new();
    for round in 0..rounds {
        let mut state = round;
        for slot in buf.iter_mut() {
            *slot = splitmix64(&mut state);
        }
        buf.sort_unstable();
        for word in buf.iter() {
            acc.write(&word.to_le_bytes());
        }
    }
    black_box(acc.finish());
    start.elapsed().as_secs_f64() * 1e3
}

/// The calibration reading (about 200 ms of the fixed loop), taken at both
/// ends of a run: it scales later trajectories across boxes and shows whether
/// the box was steady while the run measured.
pub fn calibrate() -> f64 {
    let mut buf = vec![0u64; 1 << 17];
    // A fresh process runs its first few hundred milliseconds slower than it
    // will from then on; a discarded warm-up keeps that out of the reading.
    fixed_loop(&mut buf, 12);
    fixed_loop(&mut buf, 48)
}

/// Short readings of the fixed loop (about a millisecond each), taken between
/// a run's repetitions, never inside a timed one.
///
/// The sandbox runs on a shared host whose speed drifts by tens of percent
/// for seconds at a time; the same deterministic job timed forty times in a
/// row varied by 8 % raw and by 3 % once each timing was divided by the probe
/// readings taken around it. Every *time* the benchmark reports is therefore
/// scaled by [`Speedometer::factor`] — reference reading ÷ mean reading
/// during the measurement — and reads as time on the reference box (the box
/// the benchmark was frozen on, in a quiet moment). Counts and memory are not
/// scaled; the raw times and the factor go to stderr.
pub struct Speedometer {
    origin: Instant,
    state: RefCell<SpeedState>,
}

struct SpeedState {
    buf: Vec<u64>,
    last_ns: Option<u64>,
    /// `(when, reading in ms)`.
    readings: Vec<(u64, f64)>,
}

impl Speedometer {
    /// Readings closer together than this add nothing.
    const MIN_GAP_NS: u64 = 40_000_000;

    pub fn new() -> Speedometer {
        let state = SpeedState { buf: vec![0u64; 1 << 16], last_ns: None, readings: Vec::new() };
        Speedometer { origin: Instant::now(), state: RefCell::new(state) }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Whether enough time has passed for another reading to be worth taking.
    pub fn due(&self) -> bool {
        let last = self.state.borrow().last_ns;
        last.is_none_or(|last| self.now_ns() - last >= Self::MIN_GAP_NS)
    }

    /// Takes one reading.
    pub fn probe(&self) {
        let mut state = self.state.borrow_mut();
        let ms = fixed_loop(&mut state.buf, 1);
        let now = self.now_ns();
        state.last_ns = Some(now);
        state.readings.push((now, ms));
    }

    /// The scale for times measured between `from_ns` and now: reference
    /// reading ÷ mean reading in that window (1 when there is none).
    pub fn factor(&self, from_ns: u64) -> f64 {
        let state = self.state.borrow();
        let window: Vec<f64> =
            state.readings.iter().filter(|(at, _)| *at >= from_ns).map(|(_, ms)| *ms).collect();
        if window.is_empty() {
            return 1.0;
        }
        PROBE_REF_MS / (window.iter().sum::<f64>() / window.len() as f64)
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` does not say).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where runs put their WAL directories and trace files: `target/perf/`
/// under the current directory (the checkout root), created on demand.
pub fn scratch_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target").join("perf");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_reported_on_linux() {
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn calibration_takes_measurable_time() {
        assert!(calibrate() > 1.0);
    }

    #[test]
    fn speedometer_scales_by_the_readings_in_its_window() {
        let speed = Speedometer::new();
        assert_eq!(speed.factor(0), 1.0, "no reading, no scaling");
        assert!(speed.due());
        speed.probe();
        assert!(!speed.due(), "a second reading right away adds nothing");
        let later = speed.now_ns();
        speed.probe();
        let readings: Vec<f64> = speed.state.borrow().readings.iter().map(|r| r.1).collect();
        assert_eq!(speed.factor(0), PROBE_REF_MS / ((readings[0] + readings[1]) / 2.0));
        assert_eq!(speed.factor(later), PROBE_REF_MS / readings[1]);
    }
}
