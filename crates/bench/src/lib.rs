//! # youtopia-bench
//!
//! Benchmarks and figure-regeneration harnesses for the Youtopia reproduction.
//!
//! * The `fig3` and `fig4` binaries regenerate the three panels of Figures 3
//!   and 4 (number of aborts, number of cascading abort requests, slowdown of
//!   `PRECISE`) on the all-insert and mixed workloads respectively. By default
//!   they run a proportionally scaled-down configuration; pass `--paper` to
//!   use the paper's exact parameters (100 relations, 10 000 initial tuples,
//!   500 updates, 100 runs per point — this takes a long time).
//! * The Criterion benches under `benches/` cover the building blocks: chase
//!   throughput, violation-query evaluation, conflict checking and the
//!   relative overhead of the three dependency trackers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use youtopia_concurrency::TrackerKind;
use youtopia_workload::{ExperimentConfig, WorkloadKind};

/// Command-line options shared by the `fig3` and `fig4` binaries.
#[derive(Clone, Debug, PartialEq)]
pub struct FigureOptions {
    /// The experiment configuration to run.
    pub config: ExperimentConfig,
    /// Trackers to include.
    pub trackers: Vec<TrackerKind>,
    /// Also print the CSV series after the text tables.
    pub csv: bool,
}

impl Default for FigureOptions {
    fn default() -> Self {
        FigureOptions {
            config: ExperimentConfig::quick(),
            trackers: vec![TrackerKind::Coarse, TrackerKind::Precise, TrackerKind::Naive],
            csv: false,
        }
    }
}

/// Parses the command-line arguments of the figure binaries.
///
/// Supported flags:
///
/// * `--paper` — use the paper's full-scale parameters.
/// * `--quick` — use the scaled-down defaults (the default).
/// * `--runs N` — override the number of runs per data point.
/// * `--updates N` — override the workload size.
/// * `--seed N` — override the base random seed.
/// * `--no-naive` — skip the `NAIVE` tracker (it dominates run time at higher
///   densities).
/// * `--threads N` — worker threads for the sweep (0 = one per core, the
///   default). Results are identical at any thread count.
/// * `--csv` — also print CSV output.
pub fn parse_figure_options<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<FigureOptions, String> {
    let mut options = FigureOptions::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--paper" => options.config = ExperimentConfig::paper(),
            "--quick" => options.config = ExperimentConfig::quick(),
            "--csv" => options.csv = true,
            "--no-naive" => options.trackers.retain(|t| *t != TrackerKind::Naive),
            "--runs" => {
                let value = iter.next().ok_or("--runs needs a value")?;
                options.config.runs =
                    value.parse().map_err(|_| format!("bad --runs value `{value}`"))?;
            }
            "--updates" => {
                let value = iter.next().ok_or("--updates needs a value")?;
                options.config.workload_updates =
                    value.parse().map_err(|_| format!("bad --updates value `{value}`"))?;
            }
            "--seed" => {
                let value = iter.next().ok_or("--seed needs a value")?;
                options.config.seed =
                    value.parse().map_err(|_| format!("bad --seed value `{value}`"))?;
            }
            "--threads" => {
                let value = iter.next().ok_or("--threads needs a value")?;
                options.config.worker_threads =
                    value.parse().map_err(|_| format!("bad --threads value `{value}`"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    options.config.validate()?;
    Ok(options)
}

/// Runs one figure end to end and returns the rendered report.
pub fn run_figure(
    options: &FigureOptions,
    kind: WorkloadKind,
    name: &str,
) -> Result<String, String> {
    let mut progress = |point: &youtopia_workload::ExperimentPoint| {
        eprintln!(
            "  [{name}] {} mappings, {:>7}: aborts={:.1} cascading={:.1}",
            point.mappings,
            point.tracker.name(),
            point.avg.aborts,
            point.avg.cascading_abort_requests
        );
    };
    let results = youtopia_workload::run_experiment(
        &options.config,
        kind,
        &options.trackers,
        Some(&mut progress),
    )
    .map_err(|e| e.to_string())?;
    let mut out = youtopia_workload::render_figure(&results, name);
    if options.csv {
        out.push_str("\nCSV:\n");
        out.push_str(&youtopia_workload::to_csv(&results));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_options_use_the_quick_preset() {
        let options = parse_figure_options(args(&[])).unwrap();
        assert_eq!(options.config, ExperimentConfig::quick());
        assert_eq!(options.trackers.len(), 3);
        assert!(!options.csv);
    }

    #[test]
    fn paper_flag_and_overrides() {
        let options = parse_figure_options(args(&[
            "--paper",
            "--runs",
            "2",
            "--updates",
            "50",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(options.config.relations, 100);
        assert_eq!(options.config.runs, 2);
        assert_eq!(options.config.workload_updates, 50);
        assert_eq!(options.config.seed, 9);
    }

    #[test]
    fn no_naive_and_csv_flags() {
        let options = parse_figure_options(args(&["--no-naive", "--csv"])).unwrap();
        assert_eq!(options.trackers, vec![TrackerKind::Coarse, TrackerKind::Precise]);
        assert!(options.csv);
    }

    #[test]
    fn threads_flag_sets_worker_count() {
        let options = parse_figure_options(args(&["--threads", "3"])).unwrap();
        assert_eq!(options.config.worker_threads, 3);
        assert!(parse_figure_options(args(&["--threads", "x"])).is_err());
        assert!(parse_figure_options(args(&["--threads"])).is_err());
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(parse_figure_options(args(&["--bogus"])).is_err());
        assert!(parse_figure_options(args(&["--runs"])).is_err());
        assert!(parse_figure_options(args(&["--runs", "x"])).is_err());
        assert!(parse_figure_options(args(&["--runs", "0"])).is_err());
    }

    #[test]
    fn workload_kind_helpers_are_wired() {
        // Sanity: the two binaries map to the two workloads of Section 6.
        assert_eq!(WorkloadKind::AllInserts.delete_fraction(), 0.0);
        assert!(WorkloadKind::Mixed.delete_fraction() > 0.0);
    }
}
