//! Seedable deterministic PRNG: SplitMix64 seeding, xoshiro256++ output.
//!
//! The generator is the textbook xoshiro256++ (Blackman & Vigna), its
//! 256-bit state filled from successive SplitMix64 outputs of the seed —
//! the seeding procedure the xoshiro authors recommend. Both algorithms
//! are pinned by reference vectors in `tests/self_tests.rs`, so the byte
//! streams seeded tests and studies depend on can never drift silently.
//!
//! Stream splitting: [`Rng::stream`] derives an independent generator
//! from `(seed, stream)` by mixing both through the SplitMix64 finalizer.
//! Per-run generators built this way are random-access — run *i* of a
//! replicated cell is a pure function of `(seed, i)`, regardless of
//! generation order.

use std::ops::{Range, RangeInclusive};

/// The SplitMix64 additive constant (golden-ratio increment).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Advance a SplitMix64 state and return the next output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stateless SplitMix64 finalizer: one full mix of a single value.
/// Used to derive stream seeds; bijective, so distinct inputs never
/// collide.
pub fn mix64(z: u64) -> u64 {
    let mut state = z;
    splitmix64(&mut state)
}

/// A seedable xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a 64-bit seed (SplitMix64-expanded into the
    /// 256-bit state, per the xoshiro authors' recommendation).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// An independent generator for sub-stream `stream` of `seed`.
    ///
    /// `stream(s, a)` and `stream(s, b)` are uncorrelated for `a != b`,
    /// and each is a pure function of its arguments — the basis for
    /// per-run replication determinism.
    pub fn stream(seed: u64, stream: u64) -> Self {
        Rng::new(mix64(seed) ^ mix64(!stream))
    }

    /// Split off a child generator, advancing this one. The child is
    /// seeded from the parent's output stream, so repeated splits yield
    /// distinct, reproducible children.
    pub fn split(&mut self) -> Self {
        let seed = self.gen_u64();
        Rng::new(mix64(seed))
    }

    /// The next 64 uniformly random bits (xoshiro256++).
    pub fn gen_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` (53 explicit mantissa bits).
    pub fn gen_f64(&mut self) -> f64 {
        (self.gen_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform value in `range`. Half-open ranges (`lo..hi`) exclude
    /// `hi`; inclusive ranges (`lo..=hi`) can return `hi`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_from(self)
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..=i);
            xs.swap(i, j);
        }
    }

    /// A uniformly chosen element of `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn sample<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "cannot sample from an empty slice");
        &xs[self.gen_range(0..xs.len())]
    }
}

/// Ranges [`Rng::gen_range`] can draw from.
pub trait SampleRange {
    /// The element type the range produces.
    type Output;
    /// Draw one uniform value from the range.
    fn sample_from(self, rng: &mut Rng) -> Self::Output;
}

/// Map a raw draw onto `[0, width)`; `width == 0` encodes the full 2⁶⁴
/// span (only reachable from `u64` inclusive ranges).
fn below(draw: u64, width: u128) -> u128 {
    debug_assert!(width <= 1 << 64);
    if width == 0 || width > u64::MAX as u128 {
        draw as u128
    } else {
        (draw % width as u64) as u128
    }
}

macro_rules! impl_int_sample_range {
    ($($t:ty),+) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let width = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + below(rng.gen_u64(), width) as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_from(self, rng: &mut Rng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range on empty range");
                let width = (end as i128 - start as i128) as u128 + 1;
                (start as i128 + below(rng.gen_u64(), width) as i128) as $t
            }
        }
    )+}
}

impl_int_sample_range!(u32, u64, usize, i64);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample_from(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
    }

    #[test]
    fn streams_are_independent_and_reproducible() {
        let mut a1 = Rng::stream(42, 0);
        let mut a2 = Rng::stream(42, 0);
        let mut b = Rng::stream(42, 1);
        assert_eq!(a1.gen_u64(), a2.gen_u64());
        let mut a = Rng::stream(42, 0);
        assert_ne!(
            (0..4).map(|_| a.gen_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.gen_u64()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn split_children_differ_and_replay_identically() {
        let mut parent = Rng::new(3);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        assert_ne!(c1.gen_u64(), c2.gen_u64());

        let mut replay = Rng::new(3);
        let mut r1 = replay.split();
        let mut fresh = Rng::new(3);
        assert_eq!(fresh.split().gen_u64(), r1.gen_u64());
    }
}
