//! Order statistics under the benchmark's reporting rule: a timing is a
//! median plus the highest percentile that still has at least
//! [`MIN_BEYOND`] samples above it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether `n` samples support reporting the `q` quantile.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

/// The highest of `ladder` (descending quantiles) that `n` samples
/// support, if any.
pub fn highest_supported(n: usize, ladder: &[f64]) -> Option<f64> {
    ladder.iter().copied().find(|&q| supports(n, q))
}

/// The median of the means of consecutive blocks of `block` values; a
/// short tail that fills no block is left out, unless no block is full.
pub fn median_block_mean(values: &[f64], block: usize) -> f64 {
    assert!(!values.is_empty() && block > 0, "block means of an empty sample");
    let means: Vec<f64> = if values.len() < block {
        vec![values.iter().sum::<f64>() / values.len() as f64]
    } else {
        values
            .chunks_exact(block)
            .map(|c| c.iter().sum::<f64>() / block as f64)
            .collect()
    };
    Sample::new(means).median()
}

/// A sorted sample with its summary.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(values.iter().all(|v| v.is_finite()), "non-finite sample");
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn median(&self) -> f64 {
        quantile(&self.sorted, 0.5)
    }

    /// The `q` quantile, or an error naming the sample when it is too
    /// small to report that percentile under the ten-beyond rule.
    pub fn tail(&self, q: f64, what: &str) -> Result<f64, String> {
        if supports(self.len(), q) {
            Ok(quantile(&self.sorted, q))
        } else {
            let need = (1..)
                .find(|&n| supports(n, q))
                .expect("every q < 1 is supportable");
            Err(format!(
                "{what}: {} samples cannot support the {:.1}th percentile (needs {need}); \
                 raise --seconds",
                self.len(),
                q * 100.0
            ))
        }
    }

    /// The highest percentile up to `cap` the sample supports, with its
    /// value — for per-layer tails, which must not fail a run.
    pub fn best_tail(&self, cap: f64) -> Option<(f64, f64)> {
        let ladder: Vec<f64> = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
            .into_iter()
            .filter(|&q| q <= cap)
            .collect();
        let q = highest_supported(self.len(), &ladder)?;
        Some((q, quantile(&self.sorted, q)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(!supports(99, 0.9));
        assert!(supports(100, 0.9));
    }

    #[test]
    fn highest_supported_walks_down_the_ladder() {
        let ladder = [0.999, 0.99, 0.95, 0.9, 0.5];
        assert_eq!(highest_supported(10_000, &ladder), Some(0.999));
        assert_eq!(highest_supported(9_999, &ladder), Some(0.99));
        assert_eq!(highest_supported(600, &ladder), Some(0.95));
        assert_eq!(highest_supported(100, &ladder), Some(0.9));
        assert_eq!(highest_supported(25, &ladder), Some(0.5));
        assert_eq!(highest_supported(19, &ladder), None);
    }

    #[test]
    fn block_means_drop_a_slow_block_and_the_partial_tail() {
        // Blocks of 2: means 1, 1, 50, 1 and a partial tail of 1000.
        let v = [1.0, 1.0, 0.5, 1.5, 0.0, 100.0, 1.0, 1.0, 1000.0];
        assert_eq!(median_block_mean(&v, 2), 1.0);
        assert_eq!(median_block_mean(&[2.0, 4.0], 16), 3.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = Sample::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(s.median(), 500.0);
        assert_eq!(s.tail(0.99, "x").unwrap(), 990.0);
        let short = Sample::new((1..=999).map(f64::from).collect());
        assert!(short
            .tail(0.99, "reads")
            .unwrap_err()
            .contains("needs 1000"));
    }

    #[test]
    fn best_tail_is_capped_and_supported() {
        let s = Sample::new((1..=5000).map(f64::from).collect());
        assert_eq!(s.best_tail(0.99), Some((0.99, 4950.0)));
        let small = Sample::new((1..=200).map(f64::from).collect());
        assert_eq!(small.best_tail(0.99), Some((0.95, 190.0)));
        assert_eq!(Sample::new(vec![1.0; 5]).best_tail(0.99), None);
    }
}
