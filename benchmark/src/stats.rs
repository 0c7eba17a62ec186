//! Order statistics for the report: medians, the percentile rule ("the
//! highest percentile that has at least ten samples beyond it"), and the
//! quartile spread the acceptance procedure uses.

/// Percentiles a timing may be quoted at, ascending.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let v = sorted(samples);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest ladder percentile, at most `cap`, that still has at least
/// ten of `n` samples beyond it; `None` when not even the median has (a
/// run of fewer than twenty samples quotes its median alone).
pub fn highest_supported_percentile(n: usize, cap: f64) -> Option<f64> {
    // the epsilon absorbs the rounding of `100 - 99.9`
    let beyond = |p: f64| (100.0 - p) * n as f64 / 100.0 + 1e-9;
    LADDER.iter().copied().rfind(|&p| p <= cap && beyond(p) >= 10.0)
}

/// A timing summarized by the rule: median, sample count, and the highest
/// supported percentile up to `cap` with its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    pub samples: usize,
    pub median: f64,
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    pub fn of(samples: &[f64], cap: f64) -> Self {
        let tail =
            highest_supported_percentile(samples.len(), cap).map(|p| (p, percentile(samples, p)));
        Timing { samples: samples.len(), median: median(samples), tail }
    }

    /// The tail value, falling back to the median when no percentile above
    /// it is supported by the sample count.
    pub fn tail_or_median(&self) -> f64 {
        self.tail.map_or(self.median, |(_, v)| v)
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method); needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let v = sorted(values);
    let n = v.len();
    let m = n + 1;
    let mut q = [0.0; 3];
    for (slot, i) in q.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    q
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // fewer than 20 samples: not even the median has ten beyond it
        assert_eq!(highest_supported_percentile(19, 99.9), None);
        assert_eq!(highest_supported_percentile(20, 99.9), Some(50.0));
        assert_eq!(highest_supported_percentile(39, 99.9), Some(50.0));
        assert_eq!(highest_supported_percentile(40, 99.9), Some(75.0));
        assert_eq!(highest_supported_percentile(100, 99.9), Some(90.0));
        assert_eq!(highest_supported_percentile(199, 99.9), Some(90.0));
        assert_eq!(highest_supported_percentile(200, 99.9), Some(95.0));
        assert_eq!(highest_supported_percentile(1000, 99.9), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000, 99.9), Some(99.9));
        // the cap keeps a metric at one percentile however many samples
        assert_eq!(highest_supported_percentile(10_000, 95.0), Some(95.0));
    }

    #[test]
    fn dense_runs_quote_the_median_only() {
        let samples: Vec<f64> = (0..14).map(|i| 0.8 + 0.01 * i as f64).collect();
        let t = Timing::of(&samples, 95.0);
        assert_eq!(t.samples, 14);
        assert_eq!(t.tail, None);
        assert_eq!(t.tail_or_median(), t.median);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }
}
