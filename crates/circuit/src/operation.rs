use std::fmt;

use crate::{Gate, GateKind};

/// What an [`Operation`] does: initialization, measurement or a gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OperationKind {
    /// Reset the qubit to `|0⟩` in the computational basis.
    Prep,
    /// Measure the qubit in the computational basis.
    Measure,
    /// Apply a quantum gate.
    Gate(Gate),
}

/// A single scheduled operation: a kind plus the qubits it acts on.
///
/// The qubits are stored inline (no operation has more than three, the
/// Toffoli's), so building, cloning and dropping an operation never
/// touches the heap. Unused qubit slots stay zero, which keeps the
/// derived `Eq` and `Hash` equal to comparing [`qubits`](Self::qubits).
///
/// # Example
///
/// ```
/// use qpdo_circuit::{Gate, Operation};
///
/// let op = Operation::gate(Gate::Cnot, &[0, 1]);
/// assert_eq!(op.qubits(), &[0, 1]);
/// assert!(!op.is_pauli_gate());
/// assert_eq!(op.to_string(), "cnot q0,q1");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Operation {
    kind: OperationKind,
    len: u8,
    qubits: [usize; MAX_QUBITS],
}

/// The most qubits any operation acts on.
const MAX_QUBITS: usize = 3;

impl Operation {
    /// A qubit initialization to `|0⟩`.
    #[must_use]
    pub fn prep(q: usize) -> Self {
        Operation::new(OperationKind::Prep, &[q])
    }

    /// A computational-basis measurement.
    #[must_use]
    pub fn measure(q: usize) -> Self {
        Operation::new(OperationKind::Measure, &[q])
    }

    /// A gate on the given qubits.
    ///
    /// # Panics
    ///
    /// Panics if the number of qubits does not match the gate arity or if
    /// the same qubit appears twice.
    #[must_use]
    pub fn gate(gate: Gate, qubits: &[usize]) -> Self {
        assert_eq!(
            qubits.len(),
            gate.arity(),
            "gate {gate} takes {} qubit(s), got {:?}",
            gate.arity(),
            qubits
        );
        for (i, a) in qubits.iter().enumerate() {
            for b in &qubits[i + 1..] {
                assert_ne!(a, b, "gate {gate} repeats qubit {a}");
            }
        }
        Operation::new(OperationKind::Gate(gate), qubits)
    }

    fn new(kind: OperationKind, qubits: &[usize]) -> Self {
        let mut inline = [0; MAX_QUBITS];
        inline[..qubits.len()].copy_from_slice(qubits);
        Operation {
            kind,
            len: qubits.len() as u8,
            qubits: inline,
        }
    }

    /// The operation kind.
    #[must_use]
    pub fn kind(&self) -> OperationKind {
        self.kind
    }

    /// The qubits the operation acts on, in gate-operand order (e.g.
    /// control before target for `CNOT`).
    #[must_use]
    pub fn qubits(&self) -> &[usize] {
        &self.qubits[..usize::from(self.len)]
    }

    /// The gate, if this operation is a gate.
    #[must_use]
    pub fn as_gate(&self) -> Option<Gate> {
        match self.kind {
            OperationKind::Gate(g) => Some(g),
            _ => None,
        }
    }

    /// `true` if the operation is a qubit initialization.
    #[must_use]
    pub fn is_prep(&self) -> bool {
        self.kind == OperationKind::Prep
    }

    /// `true` if the operation is a measurement.
    #[must_use]
    pub fn is_measure(&self) -> bool {
        self.kind == OperationKind::Measure
    }

    /// `true` if the operation is a Pauli-group gate (trackable by a Pauli
    /// frame without touching the qubit).
    #[must_use]
    pub fn is_pauli_gate(&self) -> bool {
        matches!(self.kind, OperationKind::Gate(g) if g.kind() == GateKind::Pauli)
    }

    /// `true` if the operation is a non-Clifford gate (forces a frame
    /// flush).
    #[must_use]
    pub fn is_non_clifford_gate(&self) -> bool {
        matches!(self.kind, OperationKind::Gate(g) if g.kind() == GateKind::NonClifford)
    }

    /// The largest qubit index the operation touches.
    #[must_use]
    pub fn max_qubit(&self) -> usize {
        *self
            .qubits()
            .iter()
            .max()
            .expect("operations touch >=1 qubit")
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mnemonic = match self.kind {
            OperationKind::Prep => "prep_z",
            OperationKind::Measure => "measure",
            OperationKind::Gate(g) => g.name(),
        };
        write!(f, "{mnemonic} ")?;
        for (i, q) in self.qubits().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "q{q}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let p = Operation::prep(3);
        assert!(p.is_prep());
        assert_eq!(p.qubits(), &[3]);
        assert_eq!(p.as_gate(), None);

        let m = Operation::measure(0);
        assert!(m.is_measure());

        let g = Operation::gate(Gate::Toffoli, &[0, 2, 4]);
        assert_eq!(g.as_gate(), Some(Gate::Toffoli));
        assert_eq!(g.max_qubit(), 4);
    }

    #[test]
    fn equality_and_hash_follow_kind_and_qubits() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |op: &Operation| {
            let mut h = DefaultHasher::new();
            op.hash(&mut h);
            h.finish()
        };
        let a = Operation::gate(Gate::Cnot, &[3, 4]);
        assert_eq!(a, Operation::gate(Gate::Cnot, &[3, 4]));
        assert_eq!(hash(&a), hash(&Operation::gate(Gate::Cnot, &[3, 4])));
        assert_ne!(a, Operation::gate(Gate::Cnot, &[4, 3]));
        assert_ne!(Operation::prep(0), Operation::measure(0));
        assert_eq!(
            Operation::gate(Gate::Toffoli, &[5, 6, 7]).qubits(),
            &[5, 6, 7]
        );
    }

    #[test]
    fn classification() {
        assert!(Operation::gate(Gate::X, &[0]).is_pauli_gate());
        assert!(!Operation::gate(Gate::H, &[0]).is_pauli_gate());
        assert!(Operation::gate(Gate::T, &[0]).is_non_clifford_gate());
        assert!(!Operation::measure(0).is_pauli_gate());
        assert!(!Operation::prep(0).is_non_clifford_gate());
    }

    #[test]
    fn display_format() {
        assert_eq!(Operation::prep(1).to_string(), "prep_z q1");
        assert_eq!(Operation::measure(2).to_string(), "measure q2");
        assert_eq!(
            Operation::gate(Gate::Cnot, &[0, 7]).to_string(),
            "cnot q0,q7"
        );
    }

    #[test]
    #[should_panic(expected = "takes 2 qubit(s)")]
    fn wrong_arity_panics() {
        let _ = Operation::gate(Gate::Cnot, &[0]);
    }

    #[test]
    #[should_panic(expected = "repeats qubit")]
    fn repeated_qubit_panics() {
        let _ = Operation::gate(Gate::Cz, &[1, 1]);
    }
}
