//! Experiment configuration (the parameters of Section 6).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which workload to generate. The first two are the Section 6 workloads of
/// the paper; the last two go beyond the paper's figures to stress the
/// trackers in ways the uniform workloads cannot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// The all-insert workload of Figure 3.
    AllInserts,
    /// The mixed workload of Figure 4: eighty percent inserts, twenty percent
    /// deletes, in randomised order.
    Mixed,
    /// Null-replacement-heavy: half the updates replace labeled nulls of the
    /// initial database with pool constants, the rest are inserts, in
    /// randomised order. Null-replacements touch every relation the null
    /// occurs in and pose the wildcard correction queries, which is the worst
    /// case for relation-granular dependency tracking.
    NullReplacementHeavy,
    /// Skewed (hot-relation): the usual 80/20 insert/delete mix, but eighty
    /// percent of the operations target the single largest relation of the
    /// initial database. Contention concentrates on one relation's mappings,
    /// separating the trackers far more sharply than the uniform choice.
    Skewed,
    /// Deep-cascade: all inserts, with fresh values, and eighty percent of
    /// them aimed at the relations from which the longest mapping chains
    /// start (computed over the mapping graph). Every such insert violates a
    /// mapping whose repair violates the next one, so chases run long and the
    /// violation queues actually grow — the stress case for delta-driven
    /// queue maintenance, where per-step cost must track the *touched*
    /// violations rather than the queue length.
    DeepCascade,
}

impl WorkloadKind {
    /// Fraction of deletes in the workload.
    pub fn delete_fraction(&self) -> f64 {
        match self {
            WorkloadKind::AllInserts
            | WorkloadKind::NullReplacementHeavy
            | WorkloadKind::DeepCascade => 0.0,
            WorkloadKind::Mixed | WorkloadKind::Skewed => 0.2,
        }
    }

    /// Fraction of null-replacement operations in the workload (best effort:
    /// shrinks when the initial database has fewer distinct nulls).
    pub fn null_replace_fraction(&self) -> f64 {
        match self {
            WorkloadKind::NullReplacementHeavy => 0.5,
            _ => 0.0,
        }
    }

    /// Probability that an operation targets the hot relation instead of a
    /// uniformly random one.
    pub fn hot_relation_probability(&self) -> f64 {
        match self {
            WorkloadKind::Skewed => 0.8,
            _ => 0.0,
        }
    }

    /// Probability that an insert targets a relation from which one of the
    /// longest mapping-graph cascades starts.
    pub fn cascade_probability(&self) -> f64 {
        match self {
            WorkloadKind::DeepCascade => 0.8,
            _ => 0.0,
        }
    }

    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::AllInserts => "all-insert",
            WorkloadKind::Mixed => "mixed (80% insert / 20% delete)",
            WorkloadKind::NullReplacementHeavy => "null-replacement-heavy (50% replace)",
            WorkloadKind::Skewed => "skewed (80% of ops on the hot relation)",
            WorkloadKind::DeepCascade => "deep-cascade (80% of inserts start long chains)",
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a run's workload updates arrive at the scheduler.
///
/// The paper's experiments hand the scheduler the whole workload up front
/// ([`ArrivalProcess::Batch`]); a live deployment receives updates over time.
/// [`ArrivalProcess::Staggered`] models that with deterministic closed-loop
/// waves: the next wave is admitted once the previous one has fully
/// terminated, so results stay reproducible
/// (pinned by `tests/engine_equivalence.rs`). [`ArrivalProcess::Poisson`]
/// replaces the fixed wave size with an open-loop arrival process: arrival
/// ticks are sampled once, up front, from the seeded generator
/// ([`poisson_arrival_ticks`]), and the updates sharing a tick form one wave
/// — so wave sizes follow the Poisson distribution while the run itself
/// stays deterministic under a fixed seed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ArrivalProcess {
    /// All updates are submitted before the first chase step (the paper's
    /// setting, and the default).
    #[default]
    Batch,
    /// Updates arrive in waves of `wave` through the live engine; each wave
    /// is chased to quiescence before the next is admitted.
    Staggered {
        /// Updates per wave (at least 1).
        wave: usize,
    },
    /// Updates arrive over virtual time with exponential inter-arrival gaps
    /// at `rate` expected arrivals per tick; each tick's arrivals are one
    /// wave. Seeded and deterministic, like everything else in a run.
    Poisson {
        /// Expected arrivals per virtual tick (finite, `> 0`).
        rate: f64,
    },
}

/// The arrival tick of each of `n` updates under a Poisson process with
/// `rate` expected arrivals per tick: cumulative exponential inter-arrival
/// gaps (`-ln(1 - u) / rate`, inverse-transform sampling) floored to integer
/// ticks. Non-decreasing, deterministic under a fixed seed, and sampled from
/// the same vendored generator as the rest of the workload machinery.
pub fn poisson_arrival_ticks(n: usize, rate: f64, seed: u64) -> Vec<u64> {
    assert!(rate.is_finite() && rate > 0.0, "Poisson rate must be finite and positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            // `1 - u` is in (0, 1], so the log is finite and non-positive.
            now += -(1.0 - u).ln() / rate;
            now as u64
        })
        .collect()
}

/// All parameters of a Section 6 experiment.
///
/// [`ExperimentConfig::paper`] reproduces the paper's settings exactly;
/// [`ExperimentConfig::quick`] is a proportionally scaled-down preset used by
/// the test suite and the default benchmark harness so that a full sweep
/// finishes in seconds rather than hours.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentConfig {
    /// Number of relations in the synthetic schema (paper: 100).
    pub relations: usize,
    /// Minimum number of attributes per relation (paper: 1).
    pub min_attributes: usize,
    /// Maximum number of attributes per relation (paper: 6).
    pub max_attributes: usize,
    /// Size of the fixed constant pool (paper: 50 random strings).
    pub constant_pool: usize,
    /// Total number of mappings generated; experiments use monotonically
    /// increasing prefixes of this set (paper: 100).
    pub total_mappings: usize,
    /// Maximum number of atoms on each side of a mapping (paper: 3, with
    /// smaller sizes more probable).
    pub max_atoms_per_side: usize,
    /// The mapping-count sweep — the x axis of Figures 3 and 4
    /// (paper: 20, 40, 60, 80, 100).
    pub mapping_counts: Vec<usize>,
    /// Number of initial tuples inserted through update exchange to build the
    /// initial database (paper: 10 000).
    pub initial_tuples: usize,
    /// Number of updates per workload (paper: 500).
    pub workload_updates: usize,
    /// Probability that an inserted attribute value is fresh rather than drawn
    /// from the constant pool (paper: one half).
    pub fresh_value_probability: f64,
    /// Number of repeated runs per data point (paper: 100).
    pub runs: usize,
    /// Base random seed; every derived generator seeds deterministically from
    /// it.
    pub seed: u64,
    /// Scheduler rounds a frontier request stays unanswered (simulated user
    /// latency). The paper does not model latency explicitly; a small delay
    /// recreates the interference window of Example 3.1.
    pub frontier_delay_rounds: usize,
    /// Worker threads for the experiment sweep: the (density, tracker, run)
    /// grid cells are embarrassingly parallel and every cell derives its own
    /// seed, so the results are identical at any thread count. `0` means "one
    /// per available core".
    pub worker_threads: usize,
    /// How workload updates arrive at the engine: the paper's up-front batch,
    /// or waves (staggered or Poisson) that each run to quiescence.
    pub arrival: ArrivalProcess,
}

impl ExperimentConfig {
    /// The paper's exact parameters (Section 6). A full sweep at this scale
    /// takes a long time on a laptop; prefer [`ExperimentConfig::quick`] for
    /// day-to-day use and CI.
    pub fn paper() -> ExperimentConfig {
        ExperimentConfig {
            relations: 100,
            min_attributes: 1,
            max_attributes: 6,
            constant_pool: 50,
            total_mappings: 100,
            max_atoms_per_side: 3,
            mapping_counts: vec![20, 40, 60, 80, 100],
            initial_tuples: 10_000,
            workload_updates: 500,
            fresh_value_probability: 0.5,
            runs: 100,
            seed: 2009,
            frontier_delay_rounds: 2,
            worker_threads: 0,
            arrival: ArrivalProcess::Batch,
        }
    }

    /// A proportionally scaled-down configuration that preserves the shape of
    /// the experiment (same relative mapping densities, same workload mix)
    /// while finishing quickly.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            relations: 25,
            min_attributes: 1,
            max_attributes: 5,
            constant_pool: 25,
            total_mappings: 40,
            max_atoms_per_side: 3,
            mapping_counts: vec![8, 16, 24, 32, 40],
            initial_tuples: 400,
            workload_updates: 80,
            fresh_value_probability: 0.5,
            runs: 10,
            seed: 7,
            frontier_delay_rounds: 2,
            worker_threads: 0,
            arrival: ArrivalProcess::Batch,
        }
    }

    /// An even smaller configuration for unit tests.
    pub fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            relations: 8,
            min_attributes: 1,
            max_attributes: 3,
            constant_pool: 10,
            total_mappings: 8,
            max_atoms_per_side: 2,
            mapping_counts: vec![4, 8],
            initial_tuples: 40,
            workload_updates: 10,
            fresh_value_probability: 0.5,
            runs: 2,
            seed: 13,
            frontier_delay_rounds: 1,
            worker_threads: 0,
            arrival: ArrivalProcess::Batch,
        }
    }

    /// Returns a copy with a different seed (used to average over runs).
    pub fn with_seed(&self, seed: u64) -> ExperimentConfig {
        ExperimentConfig { seed, ..self.clone() }
    }

    /// Basic sanity checks on the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.relations == 0 {
            return Err("at least one relation is required".into());
        }
        if self.min_attributes == 0 || self.min_attributes > self.max_attributes {
            return Err("attribute bounds must satisfy 1 <= min <= max".into());
        }
        if self.constant_pool == 0 {
            return Err("the constant pool must not be empty".into());
        }
        if self.max_atoms_per_side == 0 {
            return Err("mappings need at least one atom per side".into());
        }
        if self.mapping_counts.iter().any(|&m| m > self.total_mappings || m == 0) {
            return Err("every mapping count must be between 1 and total_mappings".into());
        }
        if !(0.0..=1.0).contains(&self.fresh_value_probability) {
            return Err("fresh_value_probability must be a probability".into());
        }
        if self.runs == 0 {
            return Err("at least one run per data point is required".into());
        }
        match self.arrival {
            ArrivalProcess::Batch => {}
            ArrivalProcess::Staggered { wave } => {
                if wave == 0 {
                    return Err("staggered arrival waves must admit at least one update".into());
                }
            }
            ArrivalProcess::Poisson { rate } => {
                if !rate.is_finite() || rate <= 0.0 {
                    return Err("Poisson arrival rate must be finite and positive".into());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        assert!(ExperimentConfig::paper().validate().is_ok());
        assert!(ExperimentConfig::quick().validate().is_ok());
        assert!(ExperimentConfig::tiny().validate().is_ok());
    }

    #[test]
    fn paper_preset_matches_section_6() {
        let p = ExperimentConfig::paper();
        assert_eq!(p.relations, 100);
        assert_eq!(p.constant_pool, 50);
        assert_eq!(p.initial_tuples, 10_000);
        assert_eq!(p.workload_updates, 500);
        assert_eq!(p.mapping_counts, vec![20, 40, 60, 80, 100]);
        assert_eq!(p.runs, 100);
        assert_eq!(p.max_attributes, 6);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let mut c = ExperimentConfig::tiny();
        c.relations = 0;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::tiny();
        c.min_attributes = 5;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::tiny();
        c.mapping_counts = vec![999];
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::tiny();
        c.fresh_value_probability = 2.0;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::tiny();
        c.runs = 0;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::tiny();
        c.constant_pool = 0;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::tiny();
        c.max_atoms_per_side = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn workload_kinds() {
        assert_eq!(WorkloadKind::AllInserts.delete_fraction(), 0.0);
        assert!((WorkloadKind::Mixed.delete_fraction() - 0.2).abs() < 1e-9);
        assert!(WorkloadKind::Mixed.to_string().contains("80%"));
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let base = ExperimentConfig::tiny();
        let other = base.with_seed(999);
        assert_eq!(other.seed, 999);
        assert_eq!(other.relations, base.relations);
    }

    #[test]
    fn poisson_rate_is_validated() {
        let mut c = ExperimentConfig::tiny();
        c.arrival = ArrivalProcess::Poisson { rate: 2.0 };
        assert!(c.validate().is_ok());
        c.arrival = ArrivalProcess::Poisson { rate: 0.0 };
        assert!(c.validate().is_err());
        c.arrival = ArrivalProcess::Poisson { rate: f64::INFINITY };
        assert!(c.validate().is_err());
        c.arrival = ArrivalProcess::Staggered { wave: 0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn poisson_arrivals_are_deterministic_and_plausible() {
        let a = poisson_arrival_ticks(500, 2.0, 42);
        let b = poisson_arrival_ticks(500, 2.0, 42);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ticks are non-decreasing");
        // 500 arrivals at 2 per tick should take roughly 250 ticks; accept a
        // generous band — this pins the rate parameterisation, not the tail.
        let span = *a.last().unwrap();
        assert!((150..=400).contains(&span), "span = {span}");
        let c = poisson_arrival_ticks(500, 2.0, 43);
        assert_ne!(a, c, "different seeds give different schedules");
        // Higher rate compresses the same count into fewer ticks.
        let fast = poisson_arrival_ticks(500, 20.0, 42);
        assert!(*fast.last().unwrap() < span);
    }
}
