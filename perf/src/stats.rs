//! Order statistics for the benchmark's timings.
//!
//! A timing is reported as its median plus the highest percentile that still
//! has at least ten samples beyond it ([`tail_percentile`]); below that a
//! "p99" is one or two outliers, not a percentile.

/// Nearest-rank percentile of an ascending slice (`p` in `0.0..=100.0`).
/// Returns `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual tail percentiles with at least ten of `n` samples
/// strictly beyond it; the median when even p90 has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    // (percentile, samples beyond it per thousand) — counted in integers.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)]
        .into_iter()
        .find(|(_, per_mille)| n * per_mille / 1_000 >= 10)
        .map_or(50.0, |(p, _)| p)
}

/// Median, quartiles and the rule-selected tail of one sample set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub p50: f64,
    pub q3: f64,
    pub p99: f64,
    /// Which percentile [`tail_percentile`] selected, and its value.
    pub tail_p: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_p = tail_percentile(sorted.len());
        Summary {
            n: sorted.len(),
            q1: percentile(&sorted, 25.0),
            p50: percentile(&sorted, 50.0),
            q3: percentile(&sorted, 75.0),
            p99: percentile(&sorted, 99.0),
            tail_p,
            tail: percentile(&sorted, tail_p),
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 99 samples: p90 leaves 9 beyond, so only the median is reported.
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn summary_orders_its_quantiles() {
        let v: Vec<f64> = (0..2_000).map(|i| ((i * 7919) % 2_000) as f64).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 2_000);
        assert!(s.q1 <= s.p50 && s.p50 <= s.q3 && s.q3 <= s.tail && s.tail <= s.p99);
        assert_eq!(s.tail_p, 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[3.0, 1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
