//! Seedable, portable random-number generation.
//!
//! [`SimRng`] wraps a ChaCha8 stream cipher RNG. ChaCha8 is fast, has a
//! stable specification (so streams are identical across `rand` releases and
//! platforms), and supports cheap forking into independent sub-streams —
//! used to give each simulated device or workflow generator its own
//! deterministic stream regardless of the order in which other components
//! draw numbers.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic random-number generator for simulations.
///
/// # Examples
///
/// ```
/// use helios_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> SimRng {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Forks an independent sub-stream identified by `stream`.
    ///
    /// Draws from the fork do not perturb `self`, and forks with distinct
    /// stream ids are statistically independent. This keeps per-component
    /// randomness stable when unrelated components add or remove draws.
    #[must_use]
    pub fn fork(&self, stream: u64) -> SimRng {
        let mut inner = self.inner.clone();
        inner.set_stream(stream);
        // Skip ahead so the fork does not replay the parent's position 0
        // block when the parent has not drawn yet.
        inner.set_word_pos(0);
        let mut fork = SimRng { inner };
        // Decorrelate: mix the stream id into the first draws.
        let _ = fork.inner.next_u64();
        fork
    }

    /// Draws a uniform `f64` in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high` or either bound is not finite.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        assert!(
            low.is_finite() && high.is_finite() && low <= high,
            "invalid uniform bounds [{low}, {high})"
        );
        if low == high {
            return low;
        }
        low + (high - low) * self.inner.gen::<f64>()
    }

    /// Draws a uniform integer in `[low, high]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn uniform_usize(&mut self, low: usize, high: usize) -> usize {
        assert!(low <= high, "invalid uniform_usize bounds [{low}, {high}]");
        self.inner.gen_range(low..=high)
    }

    /// Draws a uniform `f64` in `[0, 1)`: the one draw behind
    /// [`SimRng::chance`], for callers that must compare a single draw
    /// against more than one probability (a Metropolis test that learns
    /// a lower bound on the cost before the cost itself).
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Draws a `bool` that is `true` with probability `p`: exactly
    /// `self.unit() < p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.unit() < p
    }

    /// Draws from an exponential distribution with the given mean.
    ///
    /// Used for inter-arrival and failure times (Poisson processes).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean {mean} must be positive"
        );
        // Inverse CDF; `1 - u` avoids ln(0).
        let u: f64 = self.inner.gen();
        -mean * (1.0 - u).ln()
    }

    /// Draws from a Weibull distribution with the given scale
    /// (characteristic life) and shape, via the inverse CDF.
    ///
    /// Shape 1 reduces to the exponential distribution with mean
    /// `scale`; shape > 1 gives the increasing hazard rate of ageing
    /// hardware (the regime failure-trace studies report for
    /// leadership-class machines).
    ///
    /// # Panics
    ///
    /// Panics if `scale` or `shape` is not positive and finite.
    pub fn weibull(&mut self, scale: f64, shape: f64) -> f64 {
        assert!(
            scale.is_finite() && scale > 0.0 && shape.is_finite() && shape > 0.0,
            "invalid weibull parameters ({scale}, {shape})"
        );
        let u: f64 = self.inner.gen();
        scale * (-(1.0 - u).ln()).powf(1.0 / shape)
    }

    /// Draws from a normal distribution via the Box–Muller transform.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is not finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "invalid normal parameters ({mean}, {std_dev})"
        );
        if std_dev == 0.0 {
            return mean;
        }
        let u1: f64 = 1.0 - self.inner.gen::<f64>(); // (0, 1]
        let u2: f64 = self.inner.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Draws from a normal distribution truncated below at `floor`.
    ///
    /// Values below `floor` are clamped (not resampled), which keeps the
    /// draw count deterministic.
    pub fn normal_clamped(&mut self, mean: f64, std_dev: f64, floor: f64) -> f64 {
        self.normal(mean, std_dev).max(floor)
    }

    /// Draws from a log-normal distribution parameterized by the mean and
    /// standard deviation of the underlying normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Picks a uniformly random element of `slice`.
    ///
    /// Returns `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let idx = self.uniform_usize(0, slice.len() - 1);
            Some(&slice[idx])
        }
    }

    /// Shuffles `slice` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.uniform_usize(0, i);
            slice.swap(i, j);
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be essentially disjoint");
    }

    #[test]
    fn forks_are_independent_of_parent_draws() {
        let parent = SimRng::seed_from(99);
        let mut fork1 = parent.fork(1);
        let mut parent2 = SimRng::seed_from(99);
        let _ = parent2.next_u64(); // perturb the parent
        let fork2 = parent2.fork(1);
        // fork is taken from the seed-state, not the drawn state, so the
        // clone of the *unperturbed* parent matches the original fork only
        // when taken at the same state. Here we verify forks from the same
        // state agree and distinct streams disagree.
        let mut fork1b = parent.fork(1);
        assert_eq!(fork1.next_u64(), fork1b.next_u64());
        let mut other = parent.fork(2);
        let mut base = parent.fork(1);
        let _ = base.next_u64();
        assert_ne!(base.next_u64(), other.next_u64());
        let _ = fork2;
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let x = rng.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
        assert_eq!(rng.uniform(4.0, 4.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "invalid uniform bounds")]
    fn uniform_rejects_inverted_bounds() {
        let _ = SimRng::seed_from(0).uniform(2.0, 1.0);
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed_from(11);
        let n = 20_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let observed = sum / f64::from(n);
        assert!(
            (observed - mean).abs() < 0.15,
            "observed mean {observed} too far from {mean}"
        );
    }

    #[test]
    fn normal_moments_converge() {
        let mut rng = SimRng::seed_from(13);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / draws.len() as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
        assert_eq!(rng.normal(5.0, 0.0), 5.0);
    }

    #[test]
    fn normal_clamped_respects_floor() {
        let mut rng = SimRng::seed_from(17);
        for _ in 0..1000 {
            assert!(rng.normal_clamped(0.0, 10.0, 0.5) >= 0.5);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(19);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn chance_is_one_unit_draw() {
        let (mut a, mut b) = (SimRng::seed_from(29), SimRng::seed_from(29));
        for i in 0..1000 {
            let p = f64::from(i % 11) / 10.0;
            let u = a.unit();
            assert!((0.0..1.0).contains(&u));
            assert_eq!(b.chance(p.min(1.0)), u < p.min(1.0));
        }
    }

    #[test]
    fn choose_and_shuffle() {
        let mut rng = SimRng::seed_from(23);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        let items = [1, 2, 3];
        assert!(items.contains(rng.choose(&items).unwrap()));

        let mut v: Vec<u32> = (0..50).collect();
        let orig = v.clone();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle must be a permutation");
        assert_ne!(v, orig, "50-element shuffle should not be identity");
    }
}
