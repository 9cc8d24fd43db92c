//! # detrand — deterministic randomness, API-compatible with the `rand` subset we use
//!
//! The build environment for this repository is fully offline, so the
//! crates.io `rand` crate cannot be fetched. This crate implements, from
//! scratch, exactly the surface the workspace consumes — consumers declare
//! `rand = { package = "detrand", ... }` so call sites keep the familiar
//! `use rand::...` spelling:
//!
//! * [`rngs::StdRng`] — xoshiro256++ (Blackman–Vigna), seeded through
//!   SplitMix64 exactly as the reference implementation recommends.
//! * [`SeedableRng::seed_from_u64`] / [`RngCore::next_u64`].
//! * [`Rng::gen_range`] over `Range`/`RangeInclusive` of `usize`/`u64`
//!   (unbiased via rejection sampling), [`Rng::gen_bool`].
//! * [`seq::SliceRandom::shuffle`] (Fisher–Yates) and
//!   [`seq::SliceRandom::choose`].
//! * [`mix64`] — a SplitMix64 finalizer for deriving independent per-node
//!   streams from `(seed, node id)`, the contract the message-passing engine
//!   relies on for shard-count-independent replay.
//!
//! Everything here is deterministic across platforms and shard counts: same
//! seed, same draw sequence, bit-identical results.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// SplitMix64 finalizer: mixes two words into one well-distributed word.
///
/// Used to derive independent per-node RNG streams from a global seed:
/// `StdRng::seed_from_u64(mix64(seed, node as u64))`. Consecutive inputs
/// yield decorrelated outputs (this is the exact generator SplitMix64 uses
/// to expand consecutive counter values into seeds).
#[must_use]
pub fn mix64(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Minimal core trait: a source of uniform 64-bit words.
pub trait RngCore {
    /// The next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a 64-bit seed (the only constructor the workspace uses).
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types that can be sampled uniformly by [`Rng::gen_range`].
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws a uniform value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Uniform draw from `[0, bound)` without modulo bias (rejection sampling).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    assert!(bound > 0, "cannot sample from an empty range");
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    // Reject the final partial block so every residue is equally likely.
    let zone = u64::MAX - (u64::MAX % bound);
    loop {
        let x = rng.next_u64();
        if x < zone {
            return x % bound;
        }
    }
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from an empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from an empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo + rng.next_u64() as $t;
                }
                lo + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}

impl_sample_range!(usize, u64, u32, i64);

/// High-level sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform value from `range`. Panics on empty ranges.
    fn gen_range<T: SampleRange>(&mut self, range: T) -> T::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Bernoulli trial with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0, 1]");
        // Compare against p scaled to 2^64; exact for p = 0 and p = 1.
        if p >= 1.0 {
            return true;
        }
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Named like the `rand` module so `use rand::rngs::StdRng` resolves.
pub mod rngs {
    use super::{mix64, RngCore, SeedableRng};

    /// xoshiro256++: 256 bits of state, excellent statistical quality, and
    /// trivially portable — the workspace standard generator.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // Expand the seed with SplitMix64 (per the xoshiro authors); a
            // counter seed therefore never yields a degenerate all-zero state.
            let s = [
                mix64(state, 1),
                mix64(state, 2),
                mix64(state, 3),
                mix64(state, 4),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut n = [s0, s1, s2, s3];
            n[2] ^= n[0];
            n[3] ^= n[1];
            n[1] ^= n[2];
            n[0] ^= n[3];
            n[2] ^= t;
            n[3] = n[3].rotate_left(45);
            self.s = n;
            result
        }
    }
}

/// Named like the `rand` module so `use rand::seq::SliceRandom` resolves.
pub mod seq {
    use super::{Rng, RngCore};

    /// Random slice operations (the `shuffle`/`choose` subset).
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Uniform in-place Fisher–Yates shuffle.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
        /// Uniformly chosen element, or `None` if empty.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{mix64, Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(
                a.gen_range(0usize..1_000_000),
                b.gen_range(0usize..1_000_000)
            );
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..16).map(|_| a.gen_range(0u64..u64::MAX)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.gen_range(0u64..u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn gen_range_bounds_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.gen_range(5usize..17);
            assert!((5..17).contains(&x));
            let y = rng.gen_range(2usize..=4);
            assert!((2..=4).contains(&y));
        }
    }

    #[test]
    fn gen_range_hits_every_value() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        rng.gen_range(3usize..3);
    }

    #[test]
    fn gen_bool_extremes_and_balance() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_500..5_500).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "50! makes identity vanishingly unlikely"
        );
    }

    #[test]
    fn choose_empty_and_nonempty() {
        let mut rng = StdRng::seed_from_u64(9);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let v = [10, 20, 30];
        assert!(v.contains(v.choose(&mut rng).unwrap()));
    }

    #[test]
    fn mix64_separates_streams() {
        // Streams for consecutive nodes must differ immediately.
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(mix64(42, 0));
            (0..4).map(|_| r.gen_range(0u64..1 << 60)).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(mix64(42, 1));
            (0..4).map(|_| r.gen_range(0u64..1 << 60)).collect()
        };
        assert_ne!(a, b);
    }
}
