//! `perf` — the end-to-end benchmark of the Youtopia exchange engine, with
//! outside-in per-layer attribution. See `README.md` beside `Cargo.toml` for
//! every workload, metric and bound; `BENCHMARK.json` at the repository root
//! is the frozen contract.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one result line
//! perf --all   [--seed <n>]    every workload, untraced then traced, in child processes
//! perf --check [--seed <n>]    the untraced set twice; fails unless the two agree
//! ```

#![forbid(unsafe_code)]

mod inputs;
mod json;
mod ladder;
mod openloop;
mod pins;
mod pump;
mod report;
mod stats;
mod suite;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use youtopia_storage::serialize_database;
use youtopia_workload::{ExperimentConfig, ExperimentFixture};

use crate::inputs::{corpus_block, fingerprint_fixture, fingerprint_ops, paper_fixture};
use crate::ladder::{run_ladder, LadderInput};
use crate::report::{per_layer_metrics, result_line, END_TO_END};
use crate::stats::Summary;
use crate::sys::Speedometer;
use crate::trace::Tracer;
use crate::workloads::{Ctx, Outcome, Workload};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Set-up (fixture generation + engine build) is repeated this often per
/// run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// Two calibration readings further apart than this mark the run as noisy.
const CALIB_TOLERANCE: f64 = 0.05;
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
       perf --all   [--seed <n>]
       perf --check [--seed <n>]
workloads: fig_batch deep_cascade day_open workers_2 durable_crash sync_heal";

enum Mode {
    One(&'static Workload),
    All,
    Check,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut mode = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, None, false);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--all" => mode = Some(Mode::All),
            "--check" => mode = Some(Mode::Check),
            "--workload" => {
                let name = value()?;
                let w = workloads::by_name(&name).ok_or(format!("unknown workload `{name}`"))?;
                mode = Some(Mode::One(w));
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed value")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds value")?;
                if !(s.is_finite() && (1.0..=60.0).contains(&s)) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let mode = mode.ok_or("one of --workload, --all, --check is required")?;
    let seconds = match (&mode, seconds) {
        (Mode::One(_), None) => return Err("--workload needs --seconds".into()),
        (_, s) => s.unwrap_or(0.0),
    };
    Ok(Args { mode, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.mode {
        Mode::One(w) => run_one(w, args.seed, args.seconds, args.trace),
        Mode::All => suite::run_all(args.seed),
        Mode::Check => suite::run_check(args.seed),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Fails unless the fixture and the workload's first corpus block are the
/// ones the benchmark was frozen with.
fn check_pins(w: &Workload, ctx: &Ctx<'_>) -> Res<()> {
    let fixture_fp = fingerprint_fixture(ctx.fixture);
    let block0 = corpus_block(ctx.config, ctx.fixture, w.kind, w.block, 0);
    let block0_fp = fingerprint_ops(ctx.fixture.initial_db.catalog(), &block0);
    let pinned = pins::BLOCK0_FP.iter().find(|(name, _)| *name == w.name).map(|(_, fp)| *fp);
    if fixture_fp != pins::FIXTURE_FP || Some(block0_fp) != pinned {
        return Err(format!(
            "inputs changed — re-baseline in a benchmark PR \
             (fixture {fixture_fp:#018x}, pinned {:#018x}; {} block 0 {block0_fp:#018x}, pinned {:#018x})",
            pins::FIXTURE_FP,
            w.name,
            pinned.unwrap_or(0),
        )
        .into());
    }
    Ok(())
}

/// Whether two runs on the same inputs behaved identically: every count and
/// the final state. Tracing may cost time, never change behaviour.
fn behaviour_differences(a: &Outcome, b: &Outcome) -> Vec<String> {
    let mut diffs = Vec::new();
    let mut same = |what: &str, x: String, y: String| {
        if x != y {
            diffs.push(format!("{what}: untraced {x}, traced {y}"));
        }
    };
    same("attempted", a.attempted.to_string(), b.attempted.to_string());
    same("terminated", a.terminated.to_string(), b.terminated.to_string());
    same("failed", a.failed.to_string(), b.failed.to_string());
    same("engine counters", format!("{:?}", a.engine), format!("{:?}", b.engine));
    same("pump counters", format!("{:?}", a.pump), format!("{:?}", b.pump));
    same("persisted bytes", a.persist_bytes.to_string(), b.persist_bytes.to_string());
    same("counts", format!("{:?}", a.counts), format!("{:?}", b.counts));
    same("latency samples", a.latency_ms.len().to_string(), b.latency_ms.len().to_string());
    same("final state", format!("{:#018x}", a.state_fp), format!("{:#018x}", b.state_fp));
    diffs
}

/// The end-to-end metrics of one untraced run. Times are scaled to the
/// reference box by the speedometer's factors for set-up and for the run (see
/// [`Speedometer`]); counts and memory are as counted.
fn end_to_end(
    o: &Outcome,
    setup_s: &[f64],
    setup_factor: f64,
    run_factor: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let latency = Summary::of(&o.latency_ms);
    let values = [
        stats::median(setup_s) * setup_factor,
        o.terminated as f64 / (o.run_s * run_factor),
        latency.p50 * run_factor,
        latency.p99 * run_factor,
        o.executions_per_update(),
        o.restore_s * run_factor,
        o.persist_bytes_per_update(),
        sys::peak_rss_mb(),
    ];
    END_TO_END.iter().zip(values).map(|(&(name, unit, ..), v)| (name, unit, v)).collect()
}

fn describe(w: &Workload, o: &Outcome, setup_s: &[f64]) {
    let (lat, setup, restore) =
        (Summary::of(&o.latency_ms), Summary::of(setup_s), Summary::of(&o.restore_samples));
    eprintln!(
        "  {}: {} updates attempted, {} terminated, {} failed, timed phase {:.3} s",
        w.name, o.attempted, o.terminated, o.failed, o.run_s
    );
    eprintln!(
        "  latency over {} samples: median {:.4} ms (quartiles {:.4}..{:.4}), p{} {:.4} ms",
        lat.n, lat.p50, lat.q1, lat.q3, lat.tail_p, lat.tail
    );
    eprintln!(
        "  setup over {} repeats: median {:.4} s ({:.4}..{:.4}); restore over {}: {:.5} s (quartiles {:.5}..{:.5})",
        setup.n, setup.p50, setup.q1, setup.q3, restore.n, o.restore_s, restore.q1, restore.q3
    );
    eprintln!(
        "  engine: {} executions for {} admitted updates ({} aborts, {} steps, {} frontier ops)",
        o.engine.executions(),
        o.engine.workload_size,
        o.engine.aborts,
        o.engine.steps,
        o.engine.frontier_ops
    );
    for problem in &o.problems {
        eprintln!("  OUTPUT CHECK FAILED: {problem}");
    }
}

/// The per-layer values of one traced pass: API span totals, the counters the
/// pass kept, and the ladder's rungs.
fn per_layer(
    tr: &Tracer,
    untraced: &Outcome,
    traced: &Outcome,
    ladder: BTreeMap<&'static str, f64>,
    speedup_2w: Option<f64>,
) -> BTreeMap<&'static str, f64> {
    let mut m = ladder;
    let ms = |name| tr.total_ms(name);
    let run_ms = traced.run_s * 1e3;
    let e = &traced.engine;

    m.insert("concurrency.build_ms", ms("build"));
    let submit_calls = tr.calls("submit_batch") + tr.calls("submit_as");
    let rejections = traced.counts.get("concurrency.rejections").copied().unwrap_or(0.0);
    m.insert("concurrency.submit_ms", ms("submit_batch") + ms("submit_as"));
    m.insert("concurrency.submit_calls", submit_calls);
    if submit_calls > 0.0 {
        m.insert("concurrency.admit_ratio", (submit_calls - rejections) / submit_calls);
    }
    m.insert("concurrency.drive_ms", ms("drive"));
    m.insert("concurrency.pending_ms", ms("pending_frontiers"));
    m.insert("concurrency.read_ms", ms("read"));
    m.insert("concurrency.answer_ms", ms("answer"));
    m.insert("concurrency.answer_calls", (traced.pump.answers + traced.pump.stale_answers) as f64);
    m.insert("concurrency.stale_answers", traced.pump.stale_answers as f64);
    m.insert("concurrency.sweep_ms", ms("sweep"));
    m.insert("concurrency.sweep_calls", tr.calls("sweep"));
    m.insert("concurrency.status_ms", ms("status"));
    m.insert("concurrency.recover_ms", ms("recover"));
    m.insert("concurrency.shutdown_ms", ms("shutdown"));
    m.insert("concurrency.steps", e.steps as f64);
    m.insert("concurrency.aborts", e.aborts as f64);
    m.insert("concurrency.direct_conflict_requests", e.direct_conflict_requests as f64);
    m.insert("concurrency.cascading_abort_requests", e.cascading_abort_requests as f64);
    m.insert("concurrency.frontier_ops", e.frontier_ops as f64);
    m.insert("concurrency.auto_resolutions", e.auto_resolutions as f64);
    m.insert("concurrency.max_active", traced.pump.max_active as f64);
    if e.executions() > 0 {
        m.insert("concurrency.exec_useful_ratio", e.workload_size as f64 / e.executions() as f64);
    }
    // An estimate: the run's wall time that chase steps, priced at the core
    // rung's cost per step, do not explain — conflict checks, logs, tracker,
    // scheduling, admission.
    let per_step_ms = m["core.chase_ms"] / m["core.steps"].max(1.0);
    let overhead_ms = run_ms - e.steps as f64 * per_step_ms;
    m.insert("concurrency.overhead_est_ms", overhead_ms);
    m.insert("concurrency.overhead_share", overhead_ms / run_ms);
    if let Some(speedup) = speedup_2w {
        m.insert("concurrency.speedup_2w", speedup);
    }

    m.insert("replication.submit_ms", ms("submit"));
    m.insert("replication.deltas_since_ms", ms("deltas_since"));
    m.insert("replication.encode_ms", ms("encode"));
    m.insert("replication.decode_ms", ms("decode"));
    m.insert("replication.apply_ms", ms("apply"));
    m.insert("replication.answer_ms", ms("answer_pending"));
    m.insert("replication.settled_ms", ms("settled"));
    let count = |name| traced.counts.get(name).copied().unwrap_or(0.0);
    let (appended, duplicate) =
        (count("replication.events_appended"), count("replication.events_duplicate"));
    if appended + duplicate > 0.0 {
        m.insert("replication.useful_ratio", appended / (appended + duplicate));
    }

    m.insert("workload.fixture_ms", ms("build_fixture") / tr.calls("build_fixture").max(1.0));
    m.insert("workload.ops_gen_ms", ms("gen"));
    m.insert("workload.updates", traced.attempted as f64);
    m.insert("harness.self_ms", tr.root_self_ms());
    m.insert("harness.clone_db_ms", ms("clone_db"));
    m.insert("harness.run_ms", run_ms);
    m.insert("harness.untraced_run_ms", untraced.run_s * 1e3);
    m.insert("harness.spans", tr.span_count() as f64);
    m.insert("harness.ladder_updates", traced.ladder_ops.len() as f64);
    m.extend(traced.counts.iter().map(|(k, v)| (*k, *v)));
    m.extend(traced.gauges.iter().map(|(k, v)| (*k, *v)));
    m
}

/// What one invocation has after set-up: the fixture, where its scratch files
/// go, and the machine-speed readings so far.
struct Session<'a> {
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    scratch: &'a Path,
    speed: &'a Speedometer,
    config: ExperimentConfig,
    fixture: ExperimentFixture,
    fixture_snapshot_bytes: u64,
    setup_s: Vec<f64>,
    setup_factor: f64,
    calib_start: f64,
}

impl Session<'_> {
    fn ctx<'a>(&'a self, tr: &'a Tracer, seconds: f64) -> Ctx<'a> {
        Ctx {
            tr,
            speed: self.speed,
            seed: self.seed,
            config: &self.config,
            fixture: &self.fixture,
            seconds,
            scratch: self.scratch,
            fixture_snapshot_bytes: self.fixture_snapshot_bytes,
        }
    }

    /// `--trace 0`: the job at full length, untraced; the end-to-end metrics.
    fn end_to_end_run(&self) -> Res<(String, Vec<PathBuf>)> {
        let quiet = Tracer::new(false);
        let from = self.speed.now_ns();
        let mut o = (self.w.run)(&self.ctx(&quiet, self.seconds))?;
        let run_factor = self.speed.factor(from);
        let calib_end = sys::calibrate();
        let metrics = end_to_end(&o, &self.setup_s, self.setup_factor, run_factor);
        for (name, _, v) in &metrics {
            o.check(v.is_finite() && *v > 0.0, || format!("{name} = {v} is not a positive number"));
        }
        eprintln!(
            "  machine speed: set-up × {:.4}, run × {run_factor:.4} of the reference \
             (probe reads {:.3} ms); the times below are raw",
            self.setup_factor,
            pins::PROBE_REF_MS / run_factor
        );
        describe(self.w, &o, &self.setup_s);
        report_calibration(self.calib_start, calib_end);
        let correct = o.problems.is_empty() && o.failed == 0;
        Ok((result_line(correct, o.attempted, o.failed, &metrics), o.cleanup))
    }

    /// `--trace 1`: the same half-length job twice, untraced then traced —
    /// their difference is the tracing overhead, their counts must not
    /// differ — then the layer ladder; the per-layer metrics.
    fn per_layer_run(&self, traced: &Tracer) -> Res<(String, Vec<PathBuf>)> {
        let (w, speed, half) = (self.w, self.speed, self.seconds / 2.0);
        let quiet = Tracer::new(false);
        let a_from = speed.now_ns();
        let a = (w.run)(&self.ctx(&quiet, half))?;
        let a_factor = speed.factor(a_from);
        let b_from = speed.now_ns();
        let mut b = (w.run)(&self.ctx(traced, half))?;
        if w.deterministic {
            b.problems.extend(behaviour_differences(&a, &b));
        }
        b.problems.extend(a.problems.iter().map(|p| format!("untraced pass: {p}")));
        // The one-worker baseline against the untraced two-worker pass, each
        // wall scaled by its own machine-speed factor.
        let speedup = match w.baseline {
            Some(baseline) => {
                let from = speed.now_ns();
                let one_worker_s = baseline(&self.ctx(&quiet, half))?;
                Some(one_worker_s * speed.factor(from) / (a.run_s * a_factor))
            }
            None => None,
        };
        let final_db = b.final_db.take().ok_or("the workload kept no final state")?;
        let ladder_ctx = self.ctx(traced, half);
        let input = LadderInput {
            initial: &self.fixture.initial_db,
            mappings: &self.fixture.mappings,
            first_update: ladder_ctx.first_update(),
            ops: &b.ladder_ops,
            resolver_seed: b.ladder_seed,
            final_db: &final_db,
            wal: b.wal.clone(),
            scratch: self.scratch,
            tick: &|| ladder_ctx.tick(),
        };
        let (ladder, _) = traced.phase("ladder", || run_ladder(traced, &input));
        let b_factor = speed.factor(b_from);
        let calib_end = sys::calibrate();
        let mut values = per_layer(traced, &a, &b, ladder?, speedup);
        // Times are scaled to the reference box, like the end-to-end ones;
        // the two run walls each by their own pass's factor.
        for (name, unit, _) in report::PER_LAYER {
            if let Some(v) = values.get_mut(name).filter(|_| matches!(unit, "ms" | "us")) {
                *v *= if name == "harness.untraced_run_ms" { a_factor } else { b_factor };
            }
        }
        values.insert(
            "harness.trace_overhead_ratio",
            values["harness.run_ms"] / values["harness.untraced_run_ms"],
        );
        values.insert("harness.calib_ms", (self.calib_start + calib_end) / 2.0);
        let trace_path = self.scratch.join(format!("trace-{}.json", w.name));
        traced.write_json(&trace_path, w.name)?;
        eprintln!(
            "  machine speed: untraced pass × {a_factor:.4}, traced pass × {b_factor:.4} of the \
             reference; the times below are raw"
        );
        describe(w, &b, &self.setup_s);
        eprintln!("  {} spans written to {}", traced.span_count(), trace_path.display());
        report_calibration(self.calib_start, calib_end);
        let correct = b.problems.is_empty() && a.failed + b.failed == 0;
        let line = result_line(correct, b.attempted, b.failed, &per_layer_metrics(&values));
        Ok((line, a.cleanup.into_iter().chain(b.cleanup).collect()))
    }
}

fn run_one(w: &'static Workload, seed: u64, seconds: f64, trace: bool) -> Res<()> {
    let scratch = sys::scratch_dir()?;
    let speed = Speedometer::new();
    // Set-up is traced too, so its spans are in the trace file.
    let tr = Tracer::new(trace);
    eprintln!("perf: {} seed {seed}, {seconds} s, trace {}", w.name, u8::from(trace));
    let calib_start = sys::calibrate();

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        tr.call("probe", 0, || speed.probe());
        let (built, secs) = tr.phase("setup", || -> Res<_> {
            let (config, fixture) = tr.call("build_fixture", 0, paper_fixture)?;
            let ctx = Ctx {
                tr: &tr,
                speed: &speed,
                seed,
                config: &config,
                fixture: &fixture,
                seconds,
                scratch: &scratch,
                fixture_snapshot_bytes: 0,
            };
            tr.call("engine_setup", 0, || (w.setup)(&ctx))?;
            Ok((config, fixture))
        });
        kept = Some(built?);
        setup_s.push(secs);
    }
    tr.call("probe", 0, || speed.probe());
    let (config, fixture) = kept.expect("set-up ran");
    let session = Session {
        w,
        seed,
        seconds,
        scratch: &scratch,
        speed: &speed,
        fixture_snapshot_bytes: serialize_database(&fixture.initial_db).len() as u64,
        config,
        fixture,
        setup_s,
        setup_factor: speed.factor(0),
        calib_start,
    };
    check_pins(w, &session.ctx(&tr, seconds))?;

    let (line, cleanup) =
        if trace { session.per_layer_run(&tr)? } else { session.end_to_end_run()? };
    for dir in cleanup {
        std::fs::remove_dir_all(dir)?;
    }
    println!("{line}");
    Ok(())
}

/// Prints the two calibration readings (the suite modes read this line) and
/// the warnings they call for.
fn report_calibration(start_ms: f64, end_ms: f64) {
    let drift = (start_ms - end_ms).abs() / start_ms.min(end_ms);
    let noisy = drift > CALIB_TOLERANCE;
    println!("# calib_start_ms={start_ms} calib_end_ms={end_ms} noisy={}", u8::from(noisy));
    if noisy {
        eprintln!(
            "  warning: calibration moved {:.1} % during the run ({start_ms:.1} → {end_ms:.1} ms): noisy",
            drift * 100.0
        );
    }
    let mean = (start_ms + end_ms) / 2.0;
    if !(pins::CALIB_MS / 1.5..=pins::CALIB_MS * 1.5).contains(&mean) {
        eprintln!(
            "  warning: calibration reads {mean:.1} ms, frozen at {:.1} ms — day_open's fixed \
             rates were sized for a box of that speed",
            pins::CALIB_MS
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn contract_arguments_parse() {
        let a = args(&["--workload", "day_open", "--seed", "7", "--seconds", "10", "--trace", "1"])
            .unwrap();
        assert!(matches!(a.mode, Mode::One(w) if w.name == "day_open"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(matches!(args(&["--all"]).unwrap().mode, Mode::All));
        assert_eq!(args(&["--check", "--seed", "9"]).unwrap().seed, 9);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &[][..],
            &["--workload", "nope", "--seconds", "5"],
            &["--workload", "fig_batch"],
            &["--workload", "fig_batch", "--seconds", "0"],
            &["--workload", "fig_batch", "--seconds", "61"],
            &["--workload", "fig_batch", "--seconds", "5", "--trace", "2"],
            &["--seed"],
            &["--bogus"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    fn behaviour_comparison_names_what_differs() {
        let a = Outcome { attempted: 10, state_fp: 1, ..Outcome::default() };
        let mut b = Outcome { attempted: 10, state_fp: 1, ..Outcome::default() };
        assert!(behaviour_differences(&a, &b).is_empty());
        b.engine.aborts = 3;
        b.state_fp = 2;
        let diffs = behaviour_differences(&a, &b);
        assert_eq!(diffs.len(), 2);
        assert!(diffs[0].contains("engine counters") && diffs[1].contains("final state"));
    }
}
