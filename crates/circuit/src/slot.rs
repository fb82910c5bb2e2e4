use std::fmt;

use crate::Operation;

/// One time slot of a circuit: operations that execute in parallel.
///
/// The invariant of Fig 4.4 holds at all times: every qubit participates in
/// at most one operation per slot. All operations in a slot are assumed to
/// take the same amount of time, so a slot is the time unit of the
/// schedule analysis (Figs 3.3, 5.25–5.26).
///
/// # Example
///
/// ```
/// use qpdo_circuit::{Gate, Operation, TimeSlot};
///
/// let mut slot = TimeSlot::new();
/// assert!(slot.try_push(Operation::gate(Gate::H, &[0])));
/// assert!(slot.try_push(Operation::gate(Gate::Cnot, &[1, 2])));
/// assert!(!slot.try_push(Operation::measure(2))); // q2 already busy
/// assert_eq!(slot.len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TimeSlot {
    operations: Vec<Operation>,
}

impl TimeSlot {
    /// An empty time slot.
    #[must_use]
    pub fn new() -> Self {
        TimeSlot::default()
    }

    /// The number of operations in the slot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.operations.len()
    }

    /// `true` if the slot holds no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.operations.is_empty()
    }

    /// The operations in insertion order.
    #[must_use]
    pub fn operations(&self) -> &[Operation] {
        &self.operations
    }

    /// Whether any operation in the slot touches qubit `q`.
    #[must_use]
    pub fn uses_qubit(&self, q: usize) -> bool {
        self.operations.iter().any(|op| op.qubits().contains(&q))
    }

    /// Whether `op` can be added without violating the one-op-per-qubit
    /// invariant.
    #[must_use]
    pub fn accepts(&self, op: &Operation) -> bool {
        op.qubits().iter().all(|&q| !self.uses_qubit(q))
    }

    /// Adds `op` if it fits; returns whether it was added.
    pub fn try_push(&mut self, op: Operation) -> bool {
        if self.accepts(&op) {
            self.operations.push(op);
            true
        } else {
            false
        }
    }

    /// Adds `op`, panicking if it conflicts.
    ///
    /// # Panics
    ///
    /// Panics if another operation in the slot already uses one of `op`'s
    /// qubits.
    pub fn push(&mut self, op: Operation) {
        assert!(
            self.accepts(&op),
            "operation {op} conflicts with slot {self}"
        );
        self.operations.push(op);
    }

    /// The slot of `ops`, in order. Conflicts are checked in one pass
    /// over a qubit occupancy bitmap, so building a slot is linear in
    /// its size, where [`push`](Self::push) rescans the slot per
    /// operation.
    ///
    /// # Panics
    ///
    /// Panics, as `push` does, if an operation uses a qubit an earlier
    /// one already uses.
    pub fn from_operations(ops: impl IntoIterator<Item = Operation>) -> Self {
        let mut slot = TimeSlot::new();
        let mut busy: Vec<u64> = Vec::new();
        for op in ops {
            for &q in op.qubits() {
                let (word, bit) = (q / 64, 1u64 << (q % 64));
                if word >= busy.len() {
                    busy.resize(word + 1, 0);
                }
                assert!(
                    busy[word] & bit == 0,
                    "operation {op} conflicts with slot {slot}"
                );
                busy[word] |= bit;
            }
            slot.operations.push(op);
        }
        slot
    }

    /// Iterates over the operations.
    pub fn iter(&self) -> impl Iterator<Item = &Operation> {
        self.operations.iter()
    }

    /// Keeps only the operations for which `keep` returns `true`, in
    /// order, without reallocating.
    pub fn retain<F>(&mut self, keep: F)
    where
        F: FnMut(&Operation) -> bool,
    {
        self.operations.retain(keep);
    }
}

impl fmt::Display for TimeSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.operations.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a TimeSlot {
    type Item = &'a Operation;
    type IntoIter = std::slice::Iter<'a, Operation>;

    fn into_iter(self) -> Self::IntoIter {
        self.operations.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gate;

    #[test]
    fn conflict_detection() {
        let mut slot = TimeSlot::new();
        slot.push(Operation::gate(Gate::Cnot, &[0, 1]));
        assert!(slot.uses_qubit(0));
        assert!(slot.uses_qubit(1));
        assert!(!slot.uses_qubit(2));
        assert!(!slot.accepts(&Operation::gate(Gate::H, &[1])));
        assert!(slot.accepts(&Operation::gate(Gate::H, &[2])));
    }

    #[test]
    fn try_push_rejects_conflicts() {
        let mut slot = TimeSlot::new();
        assert!(slot.try_push(Operation::measure(0)));
        assert!(!slot.try_push(Operation::prep(0)));
        assert_eq!(slot.len(), 1);
    }

    #[test]
    #[should_panic(expected = "conflicts with slot")]
    fn push_panics_on_conflict() {
        let mut slot = TimeSlot::new();
        slot.push(Operation::gate(Gate::H, &[0]));
        slot.push(Operation::gate(Gate::X, &[0]));
    }

    #[test]
    fn from_operations_matches_push() {
        let ops = [
            Operation::gate(Gate::Cnot, &[0, 70]),
            Operation::gate(Gate::H, &[1]),
            Operation::measure(130),
        ];
        let mut pushed = TimeSlot::new();
        for op in ops.clone() {
            pushed.push(op);
        }
        assert_eq!(TimeSlot::from_operations(ops), pushed);
    }

    #[test]
    #[should_panic(expected = "operation measure q70 conflicts with slot cnot q0,q70")]
    fn from_operations_panics_on_conflict_as_push_does() {
        let _ = TimeSlot::from_operations([
            Operation::gate(Gate::Cnot, &[0, 70]),
            Operation::measure(70),
        ]);
    }

    #[test]
    fn retain_keeps_matching_in_order() {
        let mut slot = TimeSlot::new();
        slot.push(Operation::gate(Gate::X, &[0]));
        slot.push(Operation::gate(Gate::H, &[1]));
        slot.push(Operation::gate(Gate::Z, &[2]));
        slot.push(Operation::measure(3));
        slot.retain(|op| !op.is_pauli_gate());
        assert_eq!(slot.to_string(), "h q1; measure q3");
    }

    #[test]
    fn display_joins_with_semicolons() {
        let mut slot = TimeSlot::new();
        slot.push(Operation::gate(Gate::H, &[0]));
        slot.push(Operation::measure(1));
        assert_eq!(slot.to_string(), "h q0; measure q1");
    }
}
