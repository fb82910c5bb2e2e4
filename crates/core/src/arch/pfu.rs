//! The Pauli Frame Unit and the one Table 3.1 update every frame shares.
//!
//! [`update_frame`] applies one operation to any [`FrameRecords`] — the
//! scalar [`PauliFrame`] or the 64-lane [`LanePauliFrame`] — and
//! returns which of the five PFU flows of Fig 3.12 it took
//! ([`FrameFlow`]). The [`PauliFrameUnit`] here, the
//! [`PauliFrameLayer`](crate::PauliFrameLayer) and its protected variant
//! and the shot-sliced SC17 stack all track through it; each caller only
//! adds what its frame layout needs on top: capturing measurement flips
//! and flushing records ahead of a non-Clifford gate.

use std::fmt;

use qpdo_circuit::{Gate, GateKind, Operation, OperationKind};
use qpdo_pauli::{LanePauliFrame, Pauli, PauliFrame, PauliRecord};

/// The record updates of Tables 3.3–3.5 that [`update_frame`] drives. A
/// frame implementing them is tracked by the one Table 3.1 rule set.
pub trait FrameRecords {
    /// Sets the record of `q` to `I` (a reset).
    fn reset(&mut self, q: usize);
    /// Merges the Pauli gate `p` on `q` into the record (Table 3.3).
    fn apply_pauli(&mut self, q: usize, p: Pauli);
    /// Maps the record of `q` through `H`.
    fn apply_h(&mut self, q: usize);
    /// Maps the record of `q` through `S`.
    fn apply_s(&mut self, q: usize);
    /// Maps the record of `q` through `S†`.
    fn apply_sdg(&mut self, q: usize);
    /// Maps the records of control `c` and target `t` through `CNOT`.
    fn apply_cnot(&mut self, c: usize, t: usize);
    /// Maps the records of `a` and `b` through `CZ`.
    fn apply_cz(&mut self, a: usize, b: usize);
    /// Exchanges the records of `a` and `b` (`SWAP`).
    fn apply_swap(&mut self, a: usize, b: usize);
}

/// Implements [`FrameRecords`] by the frame's own methods of the same
/// names; `$apply_pauli` merges one Pauli gate.
macro_rules! forward_frame_records {
    ($ty:ty, $apply_pauli:expr) => {
        impl FrameRecords for $ty {
            fn reset(&mut self, q: usize) {
                self.reset(q);
            }
            fn apply_pauli(&mut self, q: usize, p: Pauli) {
                $apply_pauli(self, q, p);
            }
            fn apply_h(&mut self, q: usize) {
                self.apply_h(q);
            }
            fn apply_s(&mut self, q: usize) {
                self.apply_s(q);
            }
            fn apply_sdg(&mut self, q: usize) {
                self.apply_sdg(q);
            }
            fn apply_cnot(&mut self, c: usize, t: usize) {
                self.apply_cnot(c, t);
            }
            fn apply_cz(&mut self, a: usize, b: usize) {
                self.apply_cz(a, b);
            }
            fn apply_swap(&mut self, a: usize, b: usize) {
                self.apply_swap(a, b);
            }
        }
    };
}

forward_frame_records!(PauliFrame, PauliFrame::apply_pauli);
// The lane frame's operations come from the shared schedule, so they
// reach all 64 trajectories: a Pauli gate merges under the all-lanes mask.
forward_frame_records!(LanePauliFrame, |f: &mut LanePauliFrame, q, p| {
    f.apply_pauli_masked(q, p, u64::MAX);
});

/// Which of the five PFU flows of Fig 3.12 an operation took through
/// [`update_frame`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFlow {
    /// A reset: the record was set to `I`; the operation is forwarded.
    Reset,
    /// A measurement: records unchanged; the caller captures the flip.
    Measure,
    /// A Pauli gate (or `I`): merged into the record, never forwarded.
    Absorbed,
    /// A Clifford gate: records mapped; the gate is forwarded.
    Mapped,
    /// A non-Clifford gate: records untouched; the caller flushes the
    /// gate's qubits ahead of it.
    NonClifford,
}

/// Applies one operation to a frame's records per Table 3.1 and returns
/// the flow it took. This is the only place a gate updates a record.
///
/// # Panics
///
/// Panics if the operation references qubits outside the frame.
// Inlined into each tracker's loop: out of line, the SC17 frame layer
// took ~15–25% longer per ESM round.
#[inline]
pub fn update_frame<F: FrameRecords>(frame: &mut F, op: &Operation) -> FrameFlow {
    let q = op.qubits();
    let gate = match op.kind() {
        OperationKind::Prep => {
            frame.reset(q[0]);
            return FrameFlow::Reset;
        }
        OperationKind::Measure => return FrameFlow::Measure,
        OperationKind::Gate(gate) => gate,
    };
    match gate {
        Gate::X => frame.apply_pauli(q[0], Pauli::X),
        Gate::Y => frame.apply_pauli(q[0], Pauli::Y),
        Gate::Z => frame.apply_pauli(q[0], Pauli::Z),
        Gate::H => frame.apply_h(q[0]),
        Gate::S => frame.apply_s(q[0]),
        Gate::Sdg => frame.apply_sdg(q[0]),
        Gate::Cnot => frame.apply_cnot(q[0], q[1]),
        Gate::Cz => frame.apply_cz(q[0], q[1]),
        Gate::Swap => frame.apply_swap(q[0], q[1]),
        Gate::I | Gate::T | Gate::Tdg | Gate::Toffoli => {}
    }
    match gate.kind() {
        GateKind::Pauli => FrameFlow::Absorbed,
        GateKind::Clifford => FrameFlow::Mapped,
        GateKind::NonClifford => FrameFlow::NonClifford,
    }
}

/// Flushes the records of `qubits` to `I`, returning the `(qubit, gate)`
/// pairs that must execute ahead of a non-Clifford gate.
pub(crate) fn flush_qubits(frame: &mut PauliFrame, qubits: &[usize]) -> Vec<(usize, Pauli)> {
    qubits
        .iter()
        .flat_map(|&q| frame.flush(q).into_iter().map(move |p| (q, p)))
        .collect()
}

/// The circuit gate of a Pauli.
pub(crate) fn pauli_gate(p: Pauli) -> Gate {
    match p {
        Pauli::I => Gate::I,
        Pauli::X => Gate::X,
        Pauli::Y => Gate::Y,
        Pauli::Z => Gate::Z,
    }
}

/// What the Pauli Frame Unit did with one operation (the five flows of
/// Fig 3.12).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PfuOutcome {
    /// Reset forwarded; the record was set to `I` (Fig 3.12a).
    Reset,
    /// Measurement forwarded; the eventual raw result must be inverted if
    /// `invert` is set (Fig 3.12b).
    Measure {
        /// Whether the raw result must be inverted (record held `X`/`XZ`).
        invert: bool,
    },
    /// A Pauli gate was absorbed; nothing reaches the PEL (Fig 3.12c).
    Tracked,
    /// A Clifford gate: records mapped, gate forwarded (Fig 3.12d).
    Mapped,
    /// A non-Clifford gate: the returned Pauli gates must execute on the
    /// PEL *before* the gate itself (Fig 3.12e).
    Flushed {
        /// `(qubit, gate)` pairs to execute ahead of the gate.
        pauli_gates: Vec<(usize, Pauli)>,
    },
}

/// The Pauli Frame Unit of Fig 3.11: `PF data` (2 bits per qubit) plus
/// `PF logic` (the mapping tables of Tables 3.2–3.5).
///
/// For a single SC17 logical qubit this is `2 × 17 = 34` bits of memory
/// (see [`memory_bits`](PauliFrameUnit::memory_bits)).
///
/// # Example
///
/// ```
/// use qpdo_core::arch::{PauliFrameUnit, PfuOutcome};
/// use qpdo_circuit::{Gate, Operation};
///
/// let mut pfu = PauliFrameUnit::new(17);
/// assert_eq!(pfu.memory_bits(), 34);
/// let outcome = pfu.process(&Operation::gate(Gate::X, &[3]));
/// assert_eq!(outcome, PfuOutcome::Tracked);
/// ```
#[derive(Clone, Debug)]
pub struct PauliFrameUnit {
    frame: PauliFrame,
}

impl PauliFrameUnit {
    /// A PFU over `n` physical qubits, all records `I`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        PauliFrameUnit {
            frame: PauliFrame::new(n),
        }
    }

    /// The number of qubits covered.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.frame.len()
    }

    /// The classical memory footprint in bits (`2n`, Section 3.5.2).
    #[must_use]
    pub fn memory_bits(&self) -> usize {
        2 * self.frame.len()
    }

    /// The stored Pauli frame.
    #[must_use]
    pub fn frame(&self) -> &PauliFrame {
        &self.frame
    }

    /// The record of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn record(&self, q: usize) -> PauliRecord {
        self.frame.record(q)
    }

    /// Processes one operation through the PF logic, per Table 3.1 /
    /// Fig 3.12. The caller (the arbiter) decides what to forward based
    /// on the returned [`PfuOutcome`].
    ///
    /// # Panics
    ///
    /// Panics if the operation references qubits outside the unit.
    pub fn process(&mut self, op: &Operation) -> PfuOutcome {
        match update_frame(&mut self.frame, op) {
            FrameFlow::Reset => PfuOutcome::Reset,
            FrameFlow::Measure => PfuOutcome::Measure {
                invert: self.frame.measurement_flipped(op.qubits()[0]),
            },
            FrameFlow::Absorbed => PfuOutcome::Tracked,
            FrameFlow::Mapped => PfuOutcome::Mapped,
            FrameFlow::NonClifford => PfuOutcome::Flushed {
                pauli_gates: flush_qubits(&mut self.frame, op.qubits()),
            },
        }
    }

    /// Flushes the stored record of qubit `q` to `I`, returning the Pauli
    /// gates that must execute physically to compensate. This is the
    /// arbiter's deadline-miss fallback: when tracking cannot complete in
    /// time, the record is materialized as gates instead.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn flush_qubit(&mut self, q: usize) -> Vec<Pauli> {
        self.frame.flush(q)
    }

    /// Maps a raw measurement result of qubit `q` through its record
    /// (step 4 of Fig 3.12b).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn map_measurement(&self, q: usize, raw: bool) -> bool {
        self.frame.map_measurement(q, raw)
    }
}

impl fmt::Display for PauliFrameUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Pauli Frame Unit: {} qubits, {} bits of PF data",
            self.num_qubits(),
            self.memory_bits()
        )?;
        write!(f, "{}", self.frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_flow() {
        let mut pfu = PauliFrameUnit::new(2);
        pfu.process(&Operation::gate(Gate::X, &[0]));
        assert_eq!(pfu.record(0), PauliRecord::X);
        assert_eq!(pfu.process(&Operation::prep(0)), PfuOutcome::Reset);
        assert_eq!(pfu.record(0), PauliRecord::I);
    }

    #[test]
    fn measure_flow_reports_inversion() {
        let mut pfu = PauliFrameUnit::new(1);
        assert_eq!(
            pfu.process(&Operation::measure(0)),
            PfuOutcome::Measure { invert: false }
        );
        pfu.process(&Operation::gate(Gate::X, &[0]));
        assert_eq!(
            pfu.process(&Operation::measure(0)),
            PfuOutcome::Measure { invert: true }
        );
        assert!(pfu.map_measurement(0, false));
    }

    #[test]
    fn pauli_flow_never_reaches_pel() {
        let mut pfu = PauliFrameUnit::new(1);
        for gate in [Gate::I, Gate::X, Gate::Y, Gate::Z] {
            assert_eq!(
                pfu.process(&Operation::gate(gate, &[0])),
                PfuOutcome::Tracked
            );
        }
    }

    #[test]
    fn clifford_flow_maps_and_forwards() {
        let mut pfu = PauliFrameUnit::new(2);
        pfu.process(&Operation::gate(Gate::X, &[0]));
        assert_eq!(
            pfu.process(&Operation::gate(Gate::H, &[0])),
            PfuOutcome::Mapped
        );
        assert_eq!(pfu.record(0), PauliRecord::Z);
        assert_eq!(
            pfu.process(&Operation::gate(Gate::Cnot, &[0, 1])),
            PfuOutcome::Mapped
        );
    }

    #[test]
    fn non_clifford_flow_flushes() {
        let mut pfu = PauliFrameUnit::new(1);
        pfu.process(&Operation::gate(Gate::Y, &[0]));
        let outcome = pfu.process(&Operation::gate(Gate::T, &[0]));
        assert_eq!(
            outcome,
            PfuOutcome::Flushed {
                pauli_gates: vec![(0, Pauli::X), (0, Pauli::Z)]
            }
        );
        assert_eq!(pfu.record(0), PauliRecord::I);
    }

    #[test]
    fn memory_footprint() {
        assert_eq!(PauliFrameUnit::new(17).memory_bits(), 34);
        let shown = PauliFrameUnit::new(3).to_string();
        assert!(shown.contains("6 bits"));
    }
}
