//! Deterministic, seedable randomness for the QPDO workspace.
//!
//! The stochastic layers of the platform — depolarizing error injection,
//! random-circuit test benches (Section 5.2.2), Monte Carlo LER sweeps —
//! all draw from this crate. Keeping the generator **in-repo** means a
//! seed reproduces the same experiment byte-for-byte on every platform,
//! forever, and the workspace builds hermetically offline with zero
//! external dependencies.
//!
//! Two generators, both public-domain algorithms by Blackman and Vigna:
//!
//! - [`SplitMix64`] — a tiny 64-bit generator used to expand a `u64` seed
//!   into a full generator state (the seeding procedure recommended by
//!   the xoshiro authors),
//! - [`Xoshiro256StarStar`] — the workhorse generator: 256 bits of state,
//!   period 2²⁵⁶ − 1, passes BigCrush; aliased as [`rngs::StdRng`].
//!
//! [`Bernoulli`] is a `p`-coin for hot loops: the bit of
//! [`Rng::gen_bool`], draw for draw, from a precomputed integer
//! threshold.
//!
//! The trait surface mirrors the subset of `rand` 0.8 the codebase uses
//! ([`RngCore`], [`Rng`], [`SeedableRng`]), so call sites read
//! identically:
//!
//! ```
//! use qpdo_rng::rngs::StdRng;
//! use qpdo_rng::{Rng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(17);
//! let coin: bool = rng.gen();
//! let qubit = rng.gen_range(0..17);
//! let noisy = rng.gen_bool(1e-3);
//! # let _ = (coin, qubit, noisy);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bernoulli;
mod splitmix64;
mod traits;
mod uniform;
mod xoshiro256;

pub use bernoulli::Bernoulli;
pub use splitmix64::SplitMix64;
pub use traits::{Rng, RngCore, SeedableRng};
pub use uniform::{SampleRange, SampleUniform, Standard};
pub use xoshiro256::Xoshiro256StarStar;

/// Named generators, mirroring the `rngs` module of `rand`.
pub mod rngs {
    /// The workspace's standard generator: [`Xoshiro256StarStar`].
    ///
    /// Unlike `rand`'s `StdRng`, this alias is a stability **guarantee**:
    /// the stream for a given seed is part of the crate's contract (the
    /// known-answer tests lock it), so recorded experiment seeds stay
    /// meaningful across releases.
    ///
    /// [`Xoshiro256StarStar`]: crate::Xoshiro256StarStar
    pub type StdRng = crate::Xoshiro256StarStar;
}
