//! Deterministic random number generation for simulations.
//!
//! Implements xoshiro256** seeded via SplitMix64 — tiny, fast, and fully
//! reproducible across platforms, so every experiment run is repeatable from
//! its seed alone.

use crate::time::{round_to_u64, SimDuration};

/// A deterministic pseudo-random generator (xoshiro256**).
///
/// # Examples
///
/// ```
/// use fld_sim::rng::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method for unbiased sampling.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        if lo == hi {
            return lo;
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// An exponentially distributed duration with the given mean, used for
    /// Poisson arrival processes in open-loop load generators.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        // Inverse-CDF sampling; clamp u away from 0 to keep ln finite.
        let u = self.next_f64().max(1e-12);
        SimDuration::from_picos(round_to_u64(mean.as_picos() as f64 * -u.ln()))
    }

    /// Picks an index according to `weights` (need not be normalized).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must have positive sum");
        let mut x = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Forks an independent generator stream (for per-component RNGs).
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::seed_from(4);
        for _ in 0..10_000 {
            assert!(r.next_below(17) < 17);
        }
    }

    #[test]
    fn range_inclusive_covers_endpoints() {
        let mut r = SimRng::seed_from(5);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            match r.range_inclusive(0, 3) {
                0 => seen_lo = true,
                3 => seen_hi = true,
                _ => {}
            }
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn exp_duration_mean_is_close() {
        let mut r = SimRng::seed_from(6);
        let mean = SimDuration::from_nanos(1000);
        let n = 100_000;
        let total: u128 = (0..n)
            .map(|_| r.exp_duration(mean).as_picos() as u128)
            .sum();
        let avg = total as f64 / n as f64;
        let expect = mean.as_picos() as f64;
        assert!((avg - expect).abs() / expect < 0.02, "avg={avg}");
    }

    #[test]
    fn weighted_pick_tracks_weights() {
        let mut r = SimRng::seed_from(8);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[r.pick_weighted(&[1.0, 2.0, 1.0])] += 1;
        }
        // Middle bucket should get roughly half the picks.
        assert!((counts[1] as f64 / 30_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = SimRng::seed_from(9);
        let mut f = a.fork();
        assert_ne!(a.next_u64(), f.next_u64());
    }
}
