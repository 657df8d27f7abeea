//! Offline stand-in for the small slice of `rand` 0.9 this workspace uses:
//! `rngs::StdRng`, `SeedableRng::seed_from_u64`, and `Rng::random_range`
//! over half-open integer ranges. The core generator is SplitMix64 —
//! deterministic, fast, and statistically fine for the synthetic workloads
//! here (the real rand's ChaCha12 guarantees are not needed; nothing in
//! this repo is security-sensitive).
//!
//! It is the workspace's one SplitMix64: the fault plans and the lock
//! simulations draw from [`splitmix64`] and [`rngs::StdRng`] too.

use core::ops::Range;

/// SplitMix64's increment: the state advances by this per draw.
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 output for state `z`: the state advanced by [`GAMMA`],
/// then mixed. A draw from a [`rngs::StdRng`] whose state was `z`.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mirrors `rand::RngCore` for the one method we need.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Mirrors `rand::SeedableRng::seed_from_u64`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Integer ranges that `Rng::random_range` accepts.
pub trait SampleRange {
    type Output;
    fn sample(self, rng: &mut dyn FnMut() -> u64) -> Self::Output;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut dyn FnMut() -> u64) -> $t {
                assert!(self.start < self.end, "random_range: empty range");
                let span = (self.end - self.start) as u64;
                // Multiply-shift reduction; bias is negligible for the
                // span sizes used in the workloads (< 2^32).
                let r = rng();
                self.start + ((r as u128 * span as u128) >> 64) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

/// Mirrors `rand::Rng` (rand 0.9 spelling: `random_range`).
pub trait Rng: RngCore {
    fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        let mut f = || self.next_u64();
        range.sample(&mut f)
    }
}

impl<T: RngCore> Rng for T {}

pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng, GAMMA};

    /// SplitMix64-backed deterministic generator.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let z = self.state;
            self.state = z.wrapping_add(GAMMA);
            splitmix64(z)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_and_in_range() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let x = a.random_range(0u32..1 << 20);
            let y = b.random_range(0u32..1 << 20);
            assert_eq!(x, y);
            assert!(x < 1 << 20);
        }
    }

    #[test]
    fn covers_small_ranges() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 8];
        for _ in 0..256 {
            seen[rng.random_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
