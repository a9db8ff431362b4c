//! Sample summaries: median, and the tail percentile the sample supports.

/// Linear-interpolated percentile (`q` in 0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The percentile rule: the highest percentile that still has at least ten
/// samples beyond it, capped at p95 and never below the median. 200 samples
/// give p95; 40 samples give p75; fewer than 20 give the median.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.95)
}

/// Samples a workload must collect before it may report percentile `q`.
pub fn min_samples(q: f64) -> usize {
    (10.0 / (1.0 - q) - 1e-9).ceil() as usize
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(800), 0.95);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(20), 0.5);
        assert_eq!(tail_quantile(5), 0.5);
        for n in [20usize, 37, 120, 199, 200, 5000] {
            let beyond = (n as f64 * (1.0 - tail_quantile(n))).round() as usize;
            assert!(beyond >= 10, "n={n} leaves {beyond} samples beyond");
        }
    }

    #[test]
    fn percentile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&s, 0.125), 1.5);
    }

    #[test]
    fn median_of_unsorted_input() {
        let samples: Vec<f64> = (0..200).rev().map(f64::from).collect();
        assert_eq!(median(&samples), 99.5);
    }

    #[test]
    fn a_percentile_needs_its_ten_samples_beyond() {
        assert_eq!(min_samples(0.75), 40);
        assert_eq!(min_samples(0.875), 80);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.95), 200);
        for q in [0.75, 0.875, 0.9, 0.95] {
            assert!(q <= tail_quantile(min_samples(q)) + 1e-12);
            assert!(q > tail_quantile(min_samples(q) - 1));
        }
    }
}
