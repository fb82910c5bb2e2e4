//! Hardware-oriented model of the Quantum Control Unit of Section 3.5.
//!
//! Where the [`crate::PauliFrameLayer`] models the Pauli frame as a
//! *simulation layer*, this module models it as it would be **mapped to
//! hardware** (Figs 3.10–3.12): a [`PauliFrameUnit`] of `2n` bits of
//! memory plus mapping logic, driven by a [`PauliArbiter`] that decides,
//! per operation, what reaches the Physical Execution Layer (PEL).
//!
//! The surrounding Quantum Control Unit blocks are modelled too: the
//! [`QSymbolTable`] (logical→physical address translation), the
//! [`LogicMeasurementUnit`] (parity combination of data-qubit
//! measurements) and the [`QuantumControlUnit`] execution controller that
//! dispatches instructions to them.
//!
//! [`WindowSchedule`] captures the timing argument of Fig 3.3 and the
//! upper bound of Eq 5.12 on the LER improvement a Pauli frame can buy.

mod arbiter;
mod pfu;
mod qcu;
mod schedule;

pub use arbiter::{ArbiterStats, PauliArbiter, PelCommand};
pub(crate) use pfu::{flush_qubits, pauli_gate};
pub use pfu::{update_frame, FrameFlow, FrameRecords, PauliFrameUnit, PfuOutcome};
pub use qcu::{
    LogicMeasurementUnit, LogicalQubitEntry, QSymbolTable, QcuInstruction, QuantumControlUnit,
};
pub use schedule::WindowSchedule;
