//! The suite modes: `--all` and `--check` run every workload in a fresh
//! child process each (so `peak_rss_mb` is the workload's own) and read the
//! result line the child prints.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::report::END_TO_END;
use crate::workloads::{Workload, ALL};
use crate::Res;

/// One child run, as the parent reads it back.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, unit, value)` in the order printed.
    metrics: Vec<(String, String, f64)>,
    noisy: bool,
}

fn run_seconds() -> Res<f64> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = Json::parse(&text)?;
    Ok(doc.get("run_seconds").and_then(Json::as_f64).ok_or("BENCHMARK.json has no run_seconds")?)
}

fn spawn(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Res<ChildResult> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", w.name, output.status).into());
    }
    let stdout = String::from_utf8(output.stdout)?;
    let line = stdout.lines().last().ok_or("the run printed no result line")?;
    let doc = Json::parse(line)?;
    let field = |key: &str| doc.get(key).ok_or(format!("result line lacks `{key}`"));
    let metrics = field("metrics")?
        .fields()
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            (name.clone(), unit.to_string(), value)
        })
        .collect();
    Ok(ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics,
        noisy: stdout.lines().any(|l| l.starts_with("# calib") && l.ends_with("noisy=1")),
    })
}

/// Runs a workload; if the calibration loop moved by more than its tolerance
/// while it ran, runs it once more and keeps that result (marked noisy if the
/// box was still not steady).
fn spawn_steady(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Res<ChildResult> {
    let first = spawn(w, seed, seconds, trace)?;
    if !first.noisy {
        return Ok(first);
    }
    eprintln!("perf: {} ran on a noisy box; running it once more", w.name);
    spawn(w, seed, seconds, trace)
}

fn print_result(w: &Workload, pass: &str, r: &ChildResult) {
    println!(
        "{} [{pass}] correct={} attempted={} failed={}{}",
        w.name,
        r.correct,
        r.attempted,
        r.failed,
        if r.noisy { " NOISY" } else { "" }
    );
    for (name, unit, value) in &r.metrics {
        println!("  {name:<40} {value:>18.6} {unit}");
    }
}

/// `--all`: every workload, first with tracing off for the end-to-end
/// numbers, then traced for the per-layer numbers.
pub fn run_all(seed: u64) -> Res<()> {
    let seconds = run_seconds()?;
    let mut all_correct = true;
    for w in ALL {
        for (trace, pass) in [(false, "end-to-end, untraced"), (true, "per-layer, traced")] {
            let r = spawn_steady(w, seed, seconds, trace)?;
            print_result(w, pass, &r);
            all_correct &= r.correct && r.failed == 0.0;
        }
    }
    if all_correct {
        Ok(())
    } else {
        Err("at least one workload failed its output checks".into())
    }
}

/// How far apart two readings of one metric are, as a share of the smaller
/// one (symmetric, so the order of the runs does not matter).
pub fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().min(b.abs())
}

/// `--check`: the untraced set twice; every end-to-end metric must agree
/// within its own bound, and the counts of a deterministic workload exactly.
pub fn run_check(seed: u64) -> Res<()> {
    /// End-to-end metrics that are counts, not timings.
    const COUNTS: [&str; 2] = ["executions_per_update", "persist_bytes_per_update"];
    let seconds = run_seconds()?;
    let mut disagreements = Vec::new();
    for w in ALL {
        let first = spawn_steady(w, seed, seconds, false)?;
        let second = spawn_steady(w, seed, seconds, false)?;
        print_result(w, "first", &first);
        print_result(w, "second", &second);
        for r in [&first, &second] {
            if !r.correct || r.failed != 0.0 {
                disagreements.push(format!("{}: a run failed its output checks", w.name));
            }
        }
        for ((name, _, a), (_, _, b)) in first.metrics.iter().zip(&second.metrics) {
            let bound = END_TO_END.iter().find(|e| e.0 == name).map_or(0.0, |e| e.3);
            let exact = w.deterministic && COUNTS.contains(&name.as_str());
            let gap = relative_gap(*a, *b);
            let agree = if exact { a == b } else { gap <= bound };
            if !agree {
                disagreements.push(format!(
                    "{}: {name} read {a} then {b} ({:.1} % apart, {})",
                    w.name,
                    gap * 100.0,
                    if exact { "must repeat exactly".into() } else { format!("bound {bound}") }
                ));
            }
        }
    }
    if disagreements.is_empty() {
        println!("check passed: two sets of runs agree within the benchmark's bounds");
        return Ok(());
    }
    for d in &disagreements {
        println!("DISAGREE {d}");
    }
    Err(format!("{} metric(s) disagree between two sets of runs", disagreements.len()).into())
}

#[cfg(test)]
mod tests {
    use super::relative_gap;

    #[test]
    fn gap_is_symmetric_and_relative_to_the_smaller_reading() {
        assert_eq!(relative_gap(100.0, 110.0), relative_gap(110.0, 100.0));
        assert!((relative_gap(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert_eq!(relative_gap(5.0, 5.0), 0.0);
    }
}
