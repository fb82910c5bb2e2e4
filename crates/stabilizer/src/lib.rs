//! CHP-style stabilizer simulator for the QPDO platform.
//!
//! This crate reimplements, from the published algorithm, the simulator the
//! paper used as its fast back-end: CHP by Aaronson & Gottesman
//! (*Improved simulation of stabilizer circuits*, Phys. Rev. A 70, 052328,
//! 2004). The quantum state of `n` qubits is stored as a tableau of `2n`
//! Pauli strings — `n` destabilizers and `n` stabilizers — over bit-packed
//! `(x, z)` symplectic rows plus a sign bit.
//!
//! Two engines share one contract:
//!
//! * [`StabilizerSim`] — the production engine. Column-major `u64` bit-planes
//!   with word-parallel gate kernels, a batched measurement collapse, and an
//!   allocation-free steady state (DESIGN.md §8).
//! * [`ReferenceTableau`] — a deliberately cell-per-entry transliteration of
//!   the published algorithm, kept as the differential-test oracle and
//!   benchmark baseline.
//!
//! Both implement [`CliffordTableau`], draw from their RNG in the same order,
//! and are held bit-for-bit in agreement by `tests/differential.rs`.
//!
//! Supported operations are exactly the stabilizer operations the paper's
//! experiments need: `H`, `S`, `S†`, the Paulis, `CNOT`, `CZ`, `SWAP`,
//! reset to `|0⟩` and computational-basis measurement (both random and
//! deterministic outcomes, per the original algorithm).
//!
//! # Example
//!
//! ```
//! use qpdo_stabilizer::StabilizerSim;
//! use qpdo_rng::SeedableRng;
//!
//! let mut rng = qpdo_rng::rngs::StdRng::seed_from_u64(17);
//! let mut sim = StabilizerSim::new(2);
//! sim.h(0);
//! sim.cnot(0, 1);                    // Bell state
//! let a = sim.measure(0, &mut rng);
//! let b = sim.measure(1, &mut rng);
//! assert_eq!(a, b);                  // perfectly correlated
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use qpdo_pauli::PauliString;
use qpdo_rng::RngCore;

mod reference;
mod sliced;
mod tableau;

pub use reference::ReferenceTableau;
pub use sliced::{ShotSlicedSim, LANES};
pub use tableau::StabilizerSim;

/// The contract shared by the packed production engine and the reference
/// oracle: everything the control stack needs from a CHP-style tableau.
///
/// Implementations must agree not only on quantum semantics but on the
/// *RNG discipline*: a random measurement draws exactly one `bool` from
/// the supplied generator (before the collapse), and a deterministic
/// measurement draws nothing. That shared discipline is what makes whole
/// experiment sweeps byte-identical across engines.
pub trait CliffordTableau: Clone + fmt::Debug + fmt::Display + Send + 'static {
    /// Short backend identifier, surfaced through `Core::name()` and in
    /// experiment records (e.g. `"chp"`, `"chp-reference"`).
    const BACKEND_NAME: &'static str;

    /// Creates a tableau with all `n` qubits in `|0⟩`.
    fn with_qubits(n: usize) -> Self;

    /// The number of qubits.
    fn num_qubits(&self) -> usize;

    /// Extends the register with `k` fresh qubits in `|0⟩`.
    fn grow(&mut self, k: usize);

    /// Applies a Hadamard on qubit `q`.
    fn h(&mut self, q: usize);

    /// Applies the phase gate `S` on qubit `q`.
    fn s(&mut self, q: usize);

    /// Applies `S†` on qubit `q`.
    fn sdg(&mut self, q: usize);

    /// Applies a Pauli-X on qubit `q`.
    fn x(&mut self, q: usize);

    /// Applies a Pauli-Y on qubit `q`.
    fn y(&mut self, q: usize);

    /// Applies a Pauli-Z on qubit `q`.
    fn z(&mut self, q: usize);

    /// Applies a `CNOT` with control `c` and target `t`.
    fn cnot(&mut self, c: usize, t: usize);

    /// Applies a `CZ` on qubits `a` and `b`.
    fn cz(&mut self, a: usize, b: usize);

    /// Applies a `SWAP` on qubits `a` and `b`.
    fn swap(&mut self, a: usize, b: usize);

    /// Measures qubit `q`; returns `true` for `|1⟩`.
    fn measure(&mut self, q: usize, rng: &mut dyn RngCore) -> bool;

    /// Resets qubit `q` to `|0⟩`.
    fn reset(&mut self, q: usize, rng: &mut dyn RngCore);

    /// The measurement outcome of `q` if deterministic, else `None`.
    fn peek_deterministic(&mut self, q: usize) -> Option<bool>;

    /// The current stabilizer generators.
    fn stabilizers(&self) -> Vec<PauliString>;

    /// The current destabilizer generators.
    fn destabilizers(&self) -> Vec<PauliString>;

    /// A canonical (row-reduced, sorted) stabilizer generating set.
    fn canonical_stabilizers(&self) -> Vec<PauliString>;

    /// The sign of a stabilizer-group observable, `None` if random.
    fn expectation(&mut self, observable: &PauliString) -> Option<bool>;
}

macro_rules! forward_clifford_tableau {
    ($ty:ty, $name:literal) => {
        impl CliffordTableau for $ty {
            const BACKEND_NAME: &'static str = $name;

            fn with_qubits(n: usize) -> Self {
                <$ty>::new(n)
            }
            fn num_qubits(&self) -> usize {
                self.num_qubits()
            }
            fn grow(&mut self, k: usize) {
                self.grow(k);
            }
            fn h(&mut self, q: usize) {
                self.h(q);
            }
            fn s(&mut self, q: usize) {
                self.s(q);
            }
            fn sdg(&mut self, q: usize) {
                self.sdg(q);
            }
            fn x(&mut self, q: usize) {
                self.x(q);
            }
            fn y(&mut self, q: usize) {
                self.y(q);
            }
            fn z(&mut self, q: usize) {
                self.z(q);
            }
            fn cnot(&mut self, c: usize, t: usize) {
                self.cnot(c, t);
            }
            fn cz(&mut self, a: usize, b: usize) {
                self.cz(a, b);
            }
            fn swap(&mut self, a: usize, b: usize) {
                self.swap(a, b);
            }
            fn measure(&mut self, q: usize, rng: &mut dyn RngCore) -> bool {
                self.measure(q, rng)
            }
            fn reset(&mut self, q: usize, rng: &mut dyn RngCore) {
                self.reset(q, rng);
            }
            fn peek_deterministic(&mut self, q: usize) -> Option<bool> {
                self.peek_deterministic(q)
            }
            fn stabilizers(&self) -> Vec<PauliString> {
                self.stabilizers()
            }
            fn destabilizers(&self) -> Vec<PauliString> {
                self.destabilizers()
            }
            fn canonical_stabilizers(&self) -> Vec<PauliString> {
                self.canonical_stabilizers()
            }
            fn expectation(&mut self, observable: &PauliString) -> Option<bool> {
                self.expectation(observable)
            }
        }
    };
}

forward_clifford_tableau!(StabilizerSim, "chp");
forward_clifford_tableau!(ReferenceTableau, "chp-reference");
