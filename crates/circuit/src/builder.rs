use std::fmt;

use crate::{Gate, GateKind, Operation, OperationKind, TimeSlot};

/// A quantum circuit: an ordered sequence of [`TimeSlot`]s.
///
/// Operations added through the builder methods are scheduled ASAP: each
/// operation lands in the earliest slot after the last slot that uses any
/// of its qubits (per-qubit program order is the only ordering constraint,
/// matching the paper's time-slot semantics).
///
/// # Example
///
/// ```
/// use qpdo_circuit::Circuit;
///
/// let mut c = Circuit::new();
/// c.h(0).h(1);        // same slot: disjoint qubits
/// c.cnot(0, 1);       // next slot: depends on both
/// assert_eq!(c.slot_count(), 2);
/// assert_eq!(c.operation_count(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Circuit {
    slots: Vec<TimeSlot>,
}

impl Circuit {
    /// An empty circuit.
    #[must_use]
    pub fn new() -> Self {
        Circuit::default()
    }

    /// The slots in execution order.
    #[must_use]
    pub fn slots(&self) -> &[TimeSlot] {
        &self.slots
    }

    /// The number of time slots.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The total number of operations across all slots.
    #[must_use]
    pub fn operation_count(&self) -> usize {
        self.slots.iter().map(TimeSlot::len).sum()
    }

    /// `true` if the circuit holds no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The number of qubits the circuit touches (1 + highest index), or 0
    /// for an empty circuit.
    #[must_use]
    pub fn qubit_count(&self) -> usize {
        self.operations()
            .map(|op| op.max_qubit() + 1)
            .max()
            .unwrap_or(0)
    }

    /// Iterates over every operation in slot order.
    pub fn operations(&self) -> impl Iterator<Item = &Operation> {
        self.slots.iter().flat_map(TimeSlot::iter)
    }

    /// Schedules an operation ASAP (see type-level docs).
    pub fn push(&mut self, op: Operation) -> &mut Self {
        let earliest = self
            .slots
            .iter()
            .rposition(|slot| op.qubits().iter().any(|&q| slot.uses_qubit(q)))
            .map_or(0, |last_conflict| last_conflict + 1);
        if earliest == self.slots.len() {
            self.slots.push(TimeSlot::new());
        }
        self.slots[earliest].push(op);
        self
    }

    /// Appends an operation in a brand-new slot at the end.
    pub fn push_into_new_slot(&mut self, op: Operation) -> &mut Self {
        let mut slot = TimeSlot::new();
        slot.push(op);
        self.slots.push(slot);
        self
    }

    /// Appends a pre-built slot at the end.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty (empty slots would distort schedule
    /// statistics).
    pub fn push_slot(&mut self, slot: TimeSlot) -> &mut Self {
        assert!(!slot.is_empty(), "refusing to append an empty time slot");
        self.slots.push(slot);
        self
    }

    /// Appends all slots of `other` after the slots of `self` (a hard
    /// barrier between the two circuits).
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        self.slots.extend(other.slots.iter().cloned());
        self
    }

    /// Filters the circuit in place, slot by slot in execution order.
    ///
    /// `keep` sees every operation once and returns whether it stays. It
    /// may also push whole slots onto its second argument: they are
    /// inserted immediately before the slot holding the operation, in
    /// push order, and are not themselves passed to `keep`. Slots left
    /// empty are removed. Returns how many of the circuit's own slots
    /// emptied out.
    pub fn retain_operations<F>(&mut self, mut keep: F) -> u64
    where
        F: FnMut(&Operation, &mut Vec<TimeSlot>) -> bool,
    {
        let mut inserted = Vec::new();
        let mut emptied = 0;
        let mut i = 0;
        while i < self.slots.len() {
            self.slots[i].retain(|op| keep(op, &mut inserted));
            emptied += u64::from(self.slots[i].is_empty());
            let n = inserted.len();
            if n > 0 {
                self.slots.splice(i..i, inserted.drain(..));
            }
            i += n + 1;
        }
        self.prune_empty_slots();
        emptied
    }

    /// Drops any slots that became empty (e.g. after filtering).
    pub fn prune_empty_slots(&mut self) -> &mut Self {
        self.slots.retain(|s| !s.is_empty());
        self
    }

    /// Counts operations of each category:
    /// `(preps, measures, pauli gates, other clifford gates, non-clifford
    /// gates)`.
    #[must_use]
    pub fn census(&self) -> CircuitCensus {
        let mut census = CircuitCensus::default();
        for op in self.operations() {
            match op.kind() {
                OperationKind::Prep => census.preps += 1,
                OperationKind::Measure => census.measures += 1,
                OperationKind::Gate(g) => match g.kind() {
                    GateKind::Pauli => census.pauli_gates += 1,
                    GateKind::Clifford => census.clifford_gates += 1,
                    GateKind::NonClifford => census.non_clifford_gates += 1,
                },
            }
        }
        census
    }

    /// The fraction of gates (not preps/measures) that are Pauli gates.
    ///
    /// This is the "up to 7 % Pauli gates" statistic of Section 3.3.
    /// Returns 0 for circuits without gates.
    #[must_use]
    pub fn pauli_gate_fraction(&self) -> f64 {
        let census = self.census();
        let gates = census.pauli_gates + census.clifford_gates + census.non_clifford_gates;
        if gates == 0 {
            0.0
        } else {
            census.pauli_gates as f64 / gates as f64
        }
    }

    // ---- builder conveniences -------------------------------------------

    /// Resets qubit `q` to `|0⟩`.
    pub fn prep(&mut self, q: usize) -> &mut Self {
        self.push(Operation::prep(q))
    }

    /// Measures qubit `q` in the computational basis.
    pub fn measure(&mut self, q: usize) -> &mut Self {
        self.push(Operation::measure(q))
    }

    /// Measures qubits `0..n` in the computational basis.
    pub fn measure_all(&mut self, n: usize) -> &mut Self {
        for q in 0..n {
            self.measure(q);
        }
        self
    }

    /// Resets qubits `0..n` to `|0⟩`.
    pub fn prep_all(&mut self, n: usize) -> &mut Self {
        for q in 0..n {
            self.prep(q);
        }
        self
    }

    /// Applies a single-qubit gate.
    pub fn apply(&mut self, gate: Gate, q: usize) -> &mut Self {
        self.push(Operation::gate(gate, &[q]))
    }

    /// Identity (explicit idle).
    pub fn i(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::I, q)
    }

    /// Pauli-X.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::X, q)
    }

    /// Pauli-Y.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Y, q)
    }

    /// Pauli-Z.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Z, q)
    }

    /// Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::H, q)
    }

    /// Phase gate `S`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::S, q)
    }

    /// Inverse phase gate `S†`.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Sdg, q)
    }

    /// `T` gate.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::T, q)
    }

    /// `T†` gate.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Tdg, q)
    }

    /// Controlled-NOT.
    pub fn cnot(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Operation::gate(Gate::Cnot, &[control, target]))
    }

    /// Controlled-Z.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Operation::gate(Gate::Cz, &[a, b]))
    }

    /// SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Operation::gate(Gate::Swap, &[a, b]))
    }

    /// Toffoli (controls first, target last).
    pub fn toffoli(&mut self, c1: usize, c2: usize, target: usize) -> &mut Self {
        self.push(Operation::gate(Gate::Toffoli, &[c1, c2, target]))
    }
}

/// Operation counts by category, produced by [`Circuit::census`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CircuitCensus {
    /// Qubit initializations.
    pub preps: usize,
    /// Computational-basis measurements.
    pub measures: usize,
    /// Pauli-group gates.
    pub pauli_gates: usize,
    /// Clifford (non-Pauli) gates.
    pub clifford_gates: usize,
    /// Non-Clifford gates.
    pub non_clifford_gates: usize,
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for slot in &self.slots {
            writeln!(f, "{slot}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asap_scheduling() {
        let mut c = Circuit::new();
        c.h(0).h(1).cnot(0, 1).x(2);
        // h q0 and h q1 share slot 0; cnot needs slot 1; x q2 backfills
        // into slot 0 (no dependency).
        assert_eq!(c.slot_count(), 2);
        assert_eq!(c.slots()[0].len(), 3);
        assert_eq!(c.slots()[1].len(), 1);
    }

    #[test]
    fn per_qubit_order_is_preserved() {
        let mut c = Circuit::new();
        c.x(0).z(0).h(0);
        assert_eq!(c.slot_count(), 3);
        let gates: Vec<_> = c.operations().map(|op| op.as_gate().unwrap()).collect();
        assert_eq!(gates, [Gate::X, Gate::Z, Gate::H]);
    }

    #[test]
    fn push_into_new_slot_forces_barrier() {
        let mut c = Circuit::new();
        c.h(0);
        c.push_into_new_slot(Operation::gate(Gate::H, &[1]));
        assert_eq!(c.slot_count(), 2);
    }

    #[test]
    fn append_acts_as_barrier() {
        let mut a = Circuit::new();
        a.h(0);
        let mut b = Circuit::new();
        b.x(1);
        a.append(&b);
        assert_eq!(a.slot_count(), 2);
        assert_eq!(a.operation_count(), 2);
    }

    #[test]
    fn census_and_pauli_fraction() {
        let mut c = Circuit::new();
        c.prep(0).x(0).h(0).t(0).measure(0);
        let census = c.census();
        assert_eq!(census.preps, 1);
        assert_eq!(census.measures, 1);
        assert_eq!(census.pauli_gates, 1);
        assert_eq!(census.clifford_gates, 1);
        assert_eq!(census.non_clifford_gates, 1);
        assert!((c.pauli_gate_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn qubit_count() {
        let mut c = Circuit::new();
        assert_eq!(c.qubit_count(), 0);
        c.cnot(2, 7);
        assert_eq!(c.qubit_count(), 8);
    }

    #[test]
    fn empty_pauli_fraction_is_zero() {
        let mut c = Circuit::new();
        c.prep(0).measure(0);
        assert_eq!(c.pauli_gate_fraction(), 0.0);
    }

    #[test]
    fn prune_empty_slots() {
        let mut c = Circuit::new();
        c.x(0).h(1);
        for slot in &mut c.slots {
            slot.retain(|op| !op.is_pauli_gate());
        }
        c.prune_empty_slots();
        assert_eq!(c.operation_count(), 1);
        assert_eq!(c.slot_count(), 1);
    }

    #[test]
    fn retain_operations_filters_in_place_and_inserts_before_the_slot() {
        let mut c = Circuit::new();
        c.x(0).h(1); // slot 0
        c.z(0).t(1); // slot 1
        c.cnot(0, 1); // slot 2
        let mut seen = Vec::new();
        let emptied = c.retain_operations(|op, before| {
            seen.push(op.to_string());
            if op.is_non_clifford_gate() {
                let mut x = TimeSlot::new();
                x.push(Operation::gate(Gate::X, op.qubits()));
                let mut z = TimeSlot::new();
                z.push(Operation::gate(Gate::Z, op.qubits()));
                before.extend([x, z]);
            }
            !op.is_pauli_gate()
        });
        // Inserted slots are not offered to `keep`.
        assert_eq!(seen, ["x q0", "h q1", "z q0", "t q1", "cnot q0,q1"]);
        assert_eq!(emptied, 0);
        assert_eq!(c.to_string(), "h q1\nx q1\nz q1\nt q1\ncnot q0,q1\n");

        let mut c = Circuit::new();
        c.x(0).h(1).z(0).z(1).x(0);
        // Slots: [x q0, h q1] [z q0, z q1] [x q0]; the last two empty out.
        assert_eq!(c.retain_operations(|op, _| !op.is_pauli_gate()), 2);
        assert_eq!(c.slot_count(), 1);
    }

    #[test]
    #[should_panic(expected = "empty time slot")]
    fn push_empty_slot_panics() {
        let mut c = Circuit::new();
        c.push_slot(TimeSlot::new());
    }
}
