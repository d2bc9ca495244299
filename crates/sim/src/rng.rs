//! Deterministic random number generation.
//!
//! Every stochastic choice in the simulator — synthetic workload addresses,
//! fake-request addresses, Camouflage interval sampling — draws from a
//! [`DetRng`], a SplitMix64 generator. Determinism matters here more than
//! statistical sophistication: experiments must be exactly reproducible from
//! a seed, and the security property tests rely on replaying identical
//! random streams across runs.

use serde::{Deserialize, Serialize};

/// A deterministic SplitMix64 pseudo-random number generator.
///
/// SplitMix64 passes BigCrush, has a full 2^64 period over its state, and is
/// a handful of arithmetic operations per draw — ideal for a simulator inner
/// loop.
///
/// # Example
///
/// ```
/// use dg_sim::rng::DetRng;
///
/// let mut a = DetRng::new(7);
/// let mut b = DetRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed. Any seed, including zero, is valid.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a value uniformly distributed in `[0, bound)`.
    ///
    /// Uses the widening-multiply technique, which is unbiased enough for
    /// simulation purposes and branch-free.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        // Overwhelmingly unlikely to collide on the first 4 draws.
        let av: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn bounded_draws_in_range() {
        let mut r = DetRng::new(99);
        for _ in 0..1000 {
            let v = r.next_below(17);
            assert!(v < 17);
        }
    }

    #[test]
    fn bool_probabilities_extremes() {
        let mut r = DetRng::new(11);
        for _ in 0..100 {
            assert!(!r.next_bool(0.0));
            assert!(r.next_bool(1.0));
        }
    }

    #[test]
    fn bool_probability_roughly_matches() {
        let mut r = DetRng::new(42);
        let hits = (0..10_000).filter(|_| r.next_bool(0.3)).count();
        assert!((2500..3500).contains(&hits), "hits = {hits}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bound_panics() {
        DetRng::new(0).next_below(0);
    }

    #[test]
    fn roughly_uniform() {
        let mut r = DetRng::new(2024);
        let mut buckets = [0u32; 8];
        for _ in 0..80_000 {
            buckets[r.next_below(8) as usize] += 1;
        }
        for &b in &buckets {
            assert!((9000..11000).contains(&b), "bucket = {b}");
        }
    }
}
