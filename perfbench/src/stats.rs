//! Order statistics over exact samples.
//!
//! Percentiles are taken from the sorted samples themselves (nearest
//! rank), never from bucketed histograms, and a tail percentile is only
//! reported where at least [`BEYOND`] samples lie above it.

/// Samples that must lie strictly above a reported tail percentile.
pub const BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile chosen by the ten-beyond rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (99, or lower when samples are few).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// The p99 of `samples` if at least [`BEYOND`] samples lie above it,
/// otherwise the highest percentile that has [`BEYOND`] samples above
/// it. `None` when there are no more than [`BEYOND`] samples.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank (1-based): the p99 rank when it leaves BEYOND samples
    // above it, else the highest rank that does.
    let p99_rank = (n * 99).div_ceil(100);
    let rank = if n - p99_rank >= BEYOND {
        p99_rank
    } else {
        n - BEYOND
    };
    let percentile = if rank == p99_rank {
        99.0
    } else {
        100.0 * rank as f64 / n as f64
    };
    Some(Tail {
        percentile,
        value: v[rank - 1],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helpers must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    fn beyond(samples: &[f64], value: f64) -> usize {
        samples.iter().filter(|&&s| s > value).count()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let s = ramp(1000);
        let t = tail(&s).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(beyond(&s, t.value), 10);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn fewer_samples_fall_back_to_the_highest_qualifying_percentile() {
        for n in [11, 20, 240, 875, 999] {
            let s = ramp(n);
            let t = tail(&s).unwrap();
            assert!(t.percentile < 99.0, "n={n}");
            assert_eq!(beyond(&s, t.value), BEYOND, "n={n}");
            assert_eq!(t.value, (n - BEYOND) as f64, "n={n}");
        }
        let t = tail(&ramp(500)).unwrap();
        assert_eq!(t.percentile, 98.0);
    }

    #[test]
    fn large_samples_keep_p99() {
        let s = ramp(5000);
        let t = tail(&s).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 4950.0);
        assert!(beyond(&s, t.value) >= BEYOND);
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
