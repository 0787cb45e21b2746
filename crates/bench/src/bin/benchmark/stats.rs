//! Order statistics for timing samples.

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// The nearest-rank `p`-th percentile of `samples` (0 < p <= 100).
///
/// # Panics
///
/// On an empty slice: every caller measures at least one sample.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    sorted[rank(sorted.len(), p)]
}

/// The median (nearest-rank 50th percentile).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The first and third quartiles.
#[must_use]
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    (percentile(samples, 25.0), percentile(samples, 75.0))
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, falling back to the median.
#[must_use]
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Zero-based index of the nearest-rank `p`-th percentile of `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "a percentile needs at least one sample");
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(median(&v), 100.0);
        assert_eq!(quartiles(&v), (50.0, 150.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 200 samples: p95 sits at rank 190, with exactly 10 beyond.
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(1), 50.0);
        for n in [11, 40, 100, 199, 200, 999, 1000, 5000] {
            let p = tail_percentile(n);
            if p > 50.0 {
                assert!(n - 1 - rank(n, p) >= MIN_BEYOND, "n = {n}, p = {p}");
            }
        }
    }
}
