//! Generic distance-`d` rotated surface codes — the paper's future-work
//! extension (Chapter 6): *"repeat these experiments using a larger
//! distance surface code to verify our expectation that there will be no
//! benefit in LER by using a Pauli frame"*.
//!
//! The crate provides:
//!
//! - [`RotatedSurfaceCode`] — the rotated (SC17-style) planar code for
//!   any odd distance `d ≥ 3`: `d²` data qubits, `d² − 1` weight-2/4
//!   checks, the conflict-free 8-slot ESM schedule generalizing
//!   Table 5.8, and the logical operators.
//! - [`MatchingDecoder`] — a minimum-weight defect-matching decoder,
//!   exact for the sparse syndromes that dominate below threshold,
//!   standing in for the Blossom algorithm the paper cites for larger
//!   codes; dense syndromes hand off to the union-find decoder.
//! - [`UnionFindDecoder`] — the Delfosse–Nickerson union-find decoder:
//!   near-linear cluster growth + peeling, decoding any odd distance at
//!   any defect density. Not minimum-weight; its logical failure rate is
//!   gated against the matching oracle by `tests/uf_oracle.rs`.
//! - [`experiment`] — the distance-scaling LER drivers: the circuit-level
//!   Pauli-frame comparison with `d − 1` syndrome rounds per window
//!   ([`experiment::run_distance_ler`]), and the code-capacity sweep
//!   behind the d = 3…13 threshold workload, sampled by pushing a
//!   64-lane Pauli frame through the ESM round against a noiseless
//!   tableau reference ([`experiment::run_ler_surface`]).
//! - [`sampler`] — reference-sample Pauli-frame sampling of any Clifford
//!   circuit: one noiseless run on the packed tableau, then 64-lane
//!   frame pushes ([`sampler::FrameSampler`]).
//!
//! At `d = 3` the code reproduces exactly the SC17 stabilizers of
//! Table 2.1 (checked in tests), so the extension is a strict superset of
//! the paper's system.
//!
//! # Example
//!
//! ```
//! use qpdo_surface::RotatedSurfaceCode;
//!
//! let code = RotatedSurfaceCode::new(5);
//! assert_eq!(code.num_data_qubits(), 25);
//! assert_eq!(code.checks().len(), 24);
//! assert_eq!(code.num_qubits(), 49);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod code;
mod decoder;
pub mod experiment;
pub mod sampler;
mod uf;

pub use code::{Check, CheckKind, RotatedSurfaceCode};
pub use decoder::MatchingDecoder;
pub use uf::UnionFindDecoder;
