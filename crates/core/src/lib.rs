//! QPDO core: the layered control-stack framework of Chapter 4 and the
//! Pauli-frame machinery of Chapter 3 of *Pauli Frames for Quantum
//! Computer Architectures*.
//!
//! # Architecture
//!
//! A [`ControlStack`] is a **core** (simulation back-end) with zero or more
//! **layers** stacked on top (Fig 4.3). Circuits enter at the top, are
//! transformed by each layer on the way down, and execute on the core;
//! measurement results travel back up through the layers:
//!
//! - [`ChpCore`] — stabilizer back-end (fast, Clifford-only).
//! - [`SvCore`] — universal state-vector back-end.
//! - [`PauliFrameLayer`] — the paper's contribution: tracks Pauli gates in
//!   classical records instead of executing them (Table 3.1).
//! - [`CounterLayer`] — counts gates and time slots passing a stack
//!   position (the instrumentation of Figs 5.25–5.26).
//!
//! Physical noise is injected at the execution boundary through
//! [`DepolarizingModel`], the symmetric depolarizing model of
//! Section 5.3.1. Diagnostic circuits run through
//! [`ControlStack::execute_diagnostic`], the paper's *bypass mode*:
//! error-free and uncounted.
//!
//! The [`arch`] module models the hardware view of Section 3.5: the
//! [`arch::PauliArbiter`] / [`arch::PauliFrameUnit`] pair (Figs 3.11–3.12),
//! the Quantum Control Unit building blocks, and the window schedule of
//! Fig 3.3.
//!
//! # Example
//!
//! ```
//! use qpdo_core::{ControlStack, PauliFrameLayer, SvCore};
//! use qpdo_circuit::Circuit;
//!
//! let mut stack = ControlStack::with_seed(SvCore::new(), 42);
//! stack.push_layer(PauliFrameLayer::new());
//! stack.create_qubits(2).unwrap();
//!
//! let mut bell = Circuit::new();
//! bell.prep(0).prep(1).h(0).cnot(0, 1).measure_all(2);
//! stack.add(bell).unwrap();
//! stack.execute().unwrap();
//! assert_eq!(stack.state().bit(0), stack.state().bit(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
mod backend;
mod error;
mod error_model;
pub mod fault;
mod layer;
mod layers;
mod stack;
mod state;
pub mod testbench;

#[cfg(feature = "reference")]
pub use backend::ReferenceChpCore;
pub use backend::{ChpCore, Core, SvCore};
pub use error::{Checkpoint, CoreError, ShotError};
pub use error_model::{DepolarizingModel, ErrorCounts};
pub use layer::{Layer, LayerContext};
pub use layers::counter::{CounterLayer, Counters};
pub use layers::pauli_frame::PauliFrameLayer;
pub use layers::protected_pauli_frame::{
    FrameProtectionConfig, FrameProtectionStats, ProtectedPauliFrameLayer,
};
pub use stack::ControlStack;
pub use state::{BitState, QuantumState, State};
