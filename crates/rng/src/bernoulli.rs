use crate::traits::RngCore;

/// A `p`-coin that returns exactly [`Rng::gen_bool(p)`]'s bit, draw for
/// draw, from one precomputed integer threshold.
///
/// `gen_bool` compares `m · 2⁻⁵³ < p` for the top 53 bits `m` of a
/// draw. Every factor there is exact in `f64` (`m < 2⁵³`, and scaling
/// by a power of two loses nothing, down to the smallest subnormal
/// `p`), so the test holds exactly when `m < p · 2⁵³`, that is, for an
/// integer `m`, when `m < ⌈p · 2⁵³⌉`. A sample is then one shift and
/// one integer compare, with no float conversion and no branch, and it
/// consumes one `u64` as `gen_bool` does: the stream stays the same.
///
/// [`Rng::gen_bool(p)`]: crate::Rng::gen_bool
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bernoulli {
    /// `⌈p · 2⁵³⌉`, at most `2⁵³` (for `p = 1`, always true).
    threshold: u64,
}

impl Bernoulli {
    /// The coin for probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`, as `gen_bool` does.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} not in [0, 1]"
        );
        Bernoulli {
            threshold: (p * (1u64 << 53) as f64).ceil() as u64,
        }
    }

    /// `true` with probability `p`: the bit `rng.gen_bool(p)` returns.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        (rng.next_u64() >> 11) < self.threshold
    }
}
