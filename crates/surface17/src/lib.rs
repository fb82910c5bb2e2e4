//! Surface Code 17 — the "ninja star" logical qubit of the paper.
//!
//! Implements everything Chapter 2.6.1 and Chapter 5 of *Pauli Frames for
//! Quantum Computer Architectures* need from the SC17 code:
//!
//! - [`StarLayout`] — the 9 data + 8 ancilla qubit layout of Fig 2.1 with
//!   the stabilizers of Tables 2.1–2.2.
//! - [`esm_circuit`] — the Error Syndrome Measurement circuit of
//!   Figs 2.2–2.3 with exactly the 8-slot / 48-gate structure of
//!   Table 5.8, rotation- and dance-mode-aware.
//! - [`LutDecoder`] — the rule-based lookup-table decoder of
//!   Tomita & Svore used by the paper's LER experiments, consuming three
//!   rounds of syndromes per window (Fig 5.9).
//! - [`NinjaStar`] — the run-time properties of Table 5.2, the logical
//!   operation conversions of Tables 2.3 / 5.1 / 5.3 (`X_L`, `Z_L`, `H_L`
//!   with lattice rotation, transversal `CNOT_L` / `CZ_L` with
//!   orientation-dependent pairing, reset to `|0⟩_L` / `|+⟩_L`,
//!   nine-qubit `M_ZL`), window execution, and logical-error detection
//!   through the stabilizer circuits of Fig 5.10.
//! - [`experiment`] — the logical-error-rate driver of Listing 5.7.
//!
//! # Example
//!
//! ```
//! use qpdo_core::{ChpCore, ControlStack};
//! use qpdo_surface17::{NinjaStar, StarLayout};
//!
//! let mut stack = ControlStack::with_seed(ChpCore::new(), 17);
//! stack.create_qubits(17).unwrap();
//! let mut star = NinjaStar::new(StarLayout::standard(0));
//! star.initialize_zero(&mut stack).unwrap();
//! let outcome = star.measure_logical(&mut stack).unwrap();
//! assert!(!outcome); // |0⟩_L measures +1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decoder;
mod esm;
pub mod experiment;
mod layout;
mod properties;
pub mod sliced;
mod star;
mod two_qubit;

pub use decoder::{LutDecoder, SyndromeTracker, WindowDecision};
pub use esm::{esm_ancillas, esm_circuit};
pub use layout::{CheckKind, Plaquette, StarLayout};
pub use properties::{DanceMode, LogicalState, Rotation, StarProperties};
pub use sliced::{run_ler_sliced, run_ler_sliced_controlled, SlicedLerOutcome};
pub use star::{NinjaStar, WindowReport};
pub use two_qubit::{logical_cnot, logical_cz, transversal_pairs};
