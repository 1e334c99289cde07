//! Seeded deterministic randomness.
//!
//! A [`SimRng`] is a SplitMix64 generator. Every simulated component that
//! needs randomness forks its own stream from the root seed via
//! [`SimRng::fork`], so adding a new consumer never perturbs the draws seen
//! by existing ones (a classic pitfall when sharing a single RNG).

/// SplitMix64: tiny, fast, and statistically solid for simulation purposes.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    pub fn new(seed: u64) -> SimRng {
        // Avoid the all-zero fixed point and decorrelate trivially-related seeds.
        SimRng { state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1234_5678_9ABC_DEF0 }
    }

    /// Derive an independent stream for a named sub-component.
    pub fn fork(&self, stream: u64) -> SimRng {
        let mut r = SimRng { state: self.state ^ stream.wrapping_mul(0xBF58_476D_1CE4_E5B9) };
        // Burn a few outputs to decorrelate.
        r.next_u64();
        r.next_u64();
        r
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`. `bound` must be nonzero.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift technique; bias is negligible for simulation use.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn gen_range_in(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(hi > lo);
        lo + self.gen_range(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Exponential draw with the given mean (for inter-arrival jitter).
    #[inline]
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.gen_f64(); // (0, 1]
        -mean * u.ln()
    }

    /// Zipf-like skewed index in `[0, n)` with exponent `theta` in `(0, 1)`;
    /// used by workload generators for hot keys.
    pub fn gen_zipf(&mut self, n: u64, theta: f64) -> u64 {
        debug_assert!(n > 0);
        let u = self.gen_f64();
        let idx = (n as f64 * u.powf(1.0 / (1.0 - theta).max(1e-6))) as u64;
        idx.min(n - 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_independent() {
        let root = SimRng::new(7);
        let mut s1 = root.fork(1);
        let mut s2 = root.fork(2);
        let same = (0..32).filter(|_| s1.next_u64() == s2.next_u64()).count();
        assert_eq!(same, 0);
        // Forking is itself deterministic.
        let mut s1b = root.fork(1);
        let mut s1c = root.fork(1);
        assert_eq!(s1b.next_u64(), s1c.next_u64());
    }

    #[test]
    fn range_bounds_hold() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let v = r.gen_range_in(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = SimRng::new(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn zipf_is_skewed_toward_zero() {
        let mut r = SimRng::new(11);
        let mut low = 0;
        for _ in 0..10_000 {
            if r.gen_zipf(100, 0.8) < 10 {
                low += 1;
            }
        }
        // With theta=0.8, far more than 10% of draws land in the first decile.
        assert!(low > 3_000, "low={low}");
    }

    #[test]
    fn exp_mean_roughly_matches() {
        let mut r = SimRng::new(13);
        let mean: f64 = (0..20_000).map(|_| r.gen_exp(5.0)).sum::<f64>() / 20_000.0;
        assert!((mean - 5.0).abs() < 0.25, "mean={mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(17);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "shuffle left input in order");
    }
}
