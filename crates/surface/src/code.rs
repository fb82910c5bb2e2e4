use qpdo_circuit::{Circuit, Gate, Operation, TimeSlot};
use qpdo_pauli::{Pauli, PauliString};

/// Whether a check measures X or Z parity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// X-parity check (detects Z errors).
    X,
    /// Z-parity check (detects X errors).
    Z,
}

/// One parity check of a rotated surface code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    /// X or Z parity.
    pub kind: CheckKind,
    /// Plaquette coordinates `(r, c)` with `0 ≤ r, c ≤ d`.
    pub coords: (usize, usize),
    /// Data-qubit indices in the support (2 on boundaries, 4 inside).
    pub support: Vec<usize>,
    /// The physical ancilla qubit serving this check.
    pub ancilla: usize,
}

/// A distance-`d` rotated planar surface code (odd `d ≥ 3`).
///
/// Data qubit `(i, j)` (row `i`, column `j`, both `0..d`) has index
/// `i·d + j`. Plaquette `(r, c)` covers the up-to-four data qubits
/// `(r-1, c-1), (r-1, c), (r, c-1), (r, c)`; its kind is X when `r + c`
/// is even. Weight-2 plaquettes survive only on the matching boundary:
/// X checks on the top/bottom rows, Z checks on the left/right columns —
/// for `d = 3` this is exactly the ninja star of Fig 2.1.
///
/// Logical operators use the SC17 convention of Fig 2.4 generalized:
/// `Z_L` is the Z chain on the main diagonal (`Z0 Z4 Z8` at `d = 3`) and
/// `X_L` the X chain on the anti-diagonal (`X2 X4 X6`). Both overlap
/// every check evenly and each other once (at the centre), so they
/// commute with the stabilizer group and anticommute with each other.
#[derive(Clone, Debug)]
pub struct RotatedSurfaceCode {
    d: usize,
    checks: Vec<Check>,
}

impl RotatedSurfaceCode {
    /// Builds the distance-`d` code.
    ///
    /// # Panics
    ///
    /// Panics unless `d` is odd and at least 3.
    #[must_use]
    pub fn new(d: usize) -> Self {
        assert!(d >= 3 && d % 2 == 1, "rotated codes need odd distance >= 3");
        let mut checks = Vec::new();
        let mut ancilla = d * d;
        for r in 0..=d {
            for c in 0..=d {
                let kind = if (r + c) % 2 == 0 {
                    CheckKind::X
                } else {
                    CheckKind::Z
                };
                let support = Self::support_of(d, r, c);
                let keep = match support.len() {
                    4 => true,
                    2 => match kind {
                        CheckKind::X => r == 0 || r == d,
                        CheckKind::Z => c == 0 || c == d,
                    },
                    _ => false,
                };
                if keep {
                    checks.push(Check {
                        kind,
                        coords: (r, c),
                        support,
                        ancilla,
                    });
                    ancilla += 1;
                }
            }
        }
        debug_assert_eq!(checks.len(), d * d - 1);
        RotatedSurfaceCode { d, checks }
    }

    fn support_of(d: usize, r: usize, c: usize) -> Vec<usize> {
        let mut support = Vec::with_capacity(4);
        for (di, dj) in [(1usize, 1usize), (1, 0), (0, 1), (0, 0)] {
            let (i, j) = (r.wrapping_sub(di), c.wrapping_sub(dj));
            if i < d && j < d {
                support.push(i * d + j);
            }
        }
        support.sort_unstable();
        support
    }

    /// The code distance.
    #[must_use]
    pub fn distance(&self) -> usize {
        self.d
    }

    /// The number of data qubits, `d²`.
    #[must_use]
    pub fn num_data_qubits(&self) -> usize {
        self.d * self.d
    }

    /// The total register size: `d²` data + `d² − 1` ancillas.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        2 * self.d * self.d - 1
    }

    /// All checks, in construction (row-major plaquette) order.
    #[must_use]
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    /// The checks of one kind, in construction order.
    pub fn checks_of(&self, kind: CheckKind) -> impl Iterator<Item = &Check> {
        self.checks.iter().filter(move |ch| ch.kind == kind)
    }

    /// The data-qubit index of grid position `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is off-grid.
    #[must_use]
    pub fn data_index(&self, i: usize, j: usize) -> usize {
        assert!(i < self.d && j < self.d, "data position off-grid");
        i * self.d + j
    }

    /// The support of the logical Z operator: the main diagonal
    /// (`D0, D4, D8` at `d = 3`).
    #[must_use]
    pub fn logical_z_support(&self) -> Vec<usize> {
        (0..self.d).map(|i| self.data_index(i, i)).collect()
    }

    /// The support of the logical X operator: the anti-diagonal
    /// (`D2, D4, D6` at `d = 3`).
    #[must_use]
    pub fn logical_x_support(&self) -> Vec<usize> {
        (0..self.d)
            .map(|i| self.data_index(i, self.d - 1 - i))
            .collect()
    }

    /// The logical Z operator as a Pauli string over the full register.
    #[must_use]
    pub fn logical_z_string(&self) -> PauliString {
        let mut s = PauliString::identity(self.num_qubits());
        for q in self.logical_z_support() {
            s.set_op(q, Pauli::Z);
        }
        s
    }

    /// The logical X operator as a Pauli string over the full register.
    #[must_use]
    pub fn logical_x_string(&self) -> PauliString {
        let mut s = PauliString::identity(self.num_qubits());
        for q in self.logical_x_support() {
            s.set_op(q, Pauli::X);
        }
        s
    }

    /// The stabilizer generators as Pauli strings over the full register.
    #[must_use]
    pub fn stabilizer_strings(&self) -> Vec<PauliString> {
        self.checks
            .iter()
            .map(|ch| {
                let mut s = PauliString::identity(self.num_qubits());
                let p = match ch.kind {
                    CheckKind::X => Pauli::X,
                    CheckKind::Z => Pauli::Z,
                };
                for &q in &ch.support {
                    s.set_op(q, p);
                }
                s
            })
            .collect()
    }

    /// One full ESM round, generalizing Table 5.8: reset slots, four
    /// conflict-free CNOT slots (X checks visit NE, NW, SE, SW; Z checks
    /// NE, SE, NW, SW), basis-change Hadamards, and the measurement slot.
    #[must_use]
    pub fn esm_circuit(&self) -> Circuit {
        let ancillas = |kind| self.checks_of(kind).map(|ch| ch.ancilla);
        let mut circuit = Circuit::new();

        // Slot 1: reset X ancillas.
        circuit.push_slot(TimeSlot::from_operations(
            ancillas(CheckKind::X).map(Operation::prep),
        ));

        // Slot 2: reset Z ancillas + H on X ancillas.
        circuit.push_slot(TimeSlot::from_operations(
            (ancillas(CheckKind::Z).map(Operation::prep))
                .chain(ancillas(CheckKind::X).map(|a| Operation::gate(Gate::H, &[a]))),
        ));

        // Slots 3-6: the CNOT schedule.
        for step in 0..4 {
            circuit.push_slot(TimeSlot::from_operations(self.checks.iter().filter_map(
                |ch| {
                    let (r, c) = ch.coords;
                    // Compass neighbour for this step, by check kind.
                    let (di, dj) = match (ch.kind, step) {
                        (CheckKind::X, 0) | (CheckKind::Z, 0) => (1, 0), // NE = (r-1, c)
                        (CheckKind::X, 1) => (1, 1),                     // NW = (r-1, c-1)
                        (CheckKind::X, 2) => (0, 0),                     // SE = (r, c)
                        (CheckKind::X, 3) | (CheckKind::Z, 3) => (0, 1), // SW = (r, c-1)
                        (CheckKind::Z, 1) => (0, 0),                     // SE
                        (CheckKind::Z, 2) => (1, 1),                     // NW
                        _ => unreachable!(),
                    };
                    let (i, j) = (r.wrapping_sub(di), c.wrapping_sub(dj));
                    (i < self.d && j < self.d).then(|| {
                        let data = i * self.d + j;
                        match ch.kind {
                            CheckKind::X => Operation::gate(Gate::Cnot, &[ch.ancilla, data]),
                            CheckKind::Z => Operation::gate(Gate::Cnot, &[data, ch.ancilla]),
                        }
                    })
                },
            )));
        }

        // Slot 7: H on X ancillas.
        circuit.push_slot(TimeSlot::from_operations(
            ancillas(CheckKind::X).map(|a| Operation::gate(Gate::H, &[a])),
        ));

        // Slot 8: measure all ancillas.
        circuit.push_slot(TimeSlot::from_operations(
            self.checks.iter().map(|ch| Operation::measure(ch.ancilla)),
        ));

        circuit
    }

    /// The syndrome pattern a set of single-qubit errors of the given
    /// type would produce, as one flag per check of the *opposite* kind
    /// (in [`checks_of`](Self::checks_of) order).
    #[must_use]
    pub fn syndrome_of(&self, error_qubits: &[usize], error: CheckKind) -> Vec<bool> {
        // X errors flip Z checks and vice versa.
        let detecting = match error {
            CheckKind::X => CheckKind::Z,
            CheckKind::Z => CheckKind::X,
        };
        self.checks_of(detecting)
            .map(|ch| {
                error_qubits
                    .iter()
                    .filter(|q| ch.support.contains(q))
                    .count()
                    % 2
                    == 1
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d3_matches_the_ninja_star() {
        let code = RotatedSurfaceCode::new(3);
        assert_eq!(code.num_data_qubits(), 9);
        assert_eq!(code.num_qubits(), 17);
        let x_supports: Vec<Vec<usize>> = code
            .checks_of(CheckKind::X)
            .map(|c| c.support.clone())
            .collect();
        let z_supports: Vec<Vec<usize>> = code
            .checks_of(CheckKind::Z)
            .map(|c| c.support.clone())
            .collect();
        // Table 2.1, as sets.
        let expected_x = [vec![1, 2], vec![0, 1, 3, 4], vec![4, 5, 7, 8], vec![6, 7]];
        let expected_z = [vec![0, 3], vec![1, 2, 4, 5], vec![3, 4, 6, 7], vec![5, 8]];
        for e in &expected_x {
            assert!(x_supports.contains(e), "missing X check {e:?}");
        }
        for e in &expected_z {
            assert!(z_supports.contains(e), "missing Z check {e:?}");
        }
    }

    #[test]
    fn check_counts_scale() {
        for d in [3, 5, 7, 9] {
            let code = RotatedSurfaceCode::new(d);
            assert_eq!(code.checks().len(), d * d - 1);
            let x = code.checks_of(CheckKind::X).count();
            let z = code.checks_of(CheckKind::Z).count();
            assert_eq!(x + z, d * d - 1);
            assert_eq!(x, z); // d odd: balanced
        }
    }

    #[test]
    fn stabilizers_commute() {
        for d in [3, 5] {
            let code = RotatedSurfaceCode::new(d);
            let gens = code.stabilizer_strings();
            for (i, a) in gens.iter().enumerate() {
                for b in &gens[i + 1..] {
                    assert!(a.commutes_with(b), "d={d}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn logical_operators_well_formed() {
        for d in [3, 5, 7] {
            let code = RotatedSurfaceCode::new(d);
            let xl = code.logical_x_string();
            let zl = code.logical_z_string();
            assert!(!xl.commutes_with(&zl), "d={d}");
            for g in code.stabilizer_strings() {
                assert!(xl.commutes_with(&g), "d={d}: X_L vs {g}");
                assert!(zl.commutes_with(&g), "d={d}: Z_L vs {g}");
            }
            assert_eq!(xl.weight(), d);
            assert_eq!(zl.weight(), d);
        }
    }

    #[test]
    fn esm_structure_generalizes_table_5_8() {
        for d in [3, 5, 7] {
            let code = RotatedSurfaceCode::new(d);
            let c = code.esm_circuit();
            assert_eq!(c.slot_count(), 8, "d={d}");
            let n_checks = d * d - 1;
            // Total CNOTs = sum of check weights.
            let total_weight: usize = code.checks().iter().map(|ch| ch.support.len()).sum();
            let census = c.census();
            assert_eq!(census.preps, n_checks);
            assert_eq!(census.measures, n_checks);
            assert_eq!(census.clifford_gates, total_weight + n_checks);
            assert_eq!(census.pauli_gates, 0);
        }
    }

    #[test]
    fn esm_cnot_slots_are_conflict_free() {
        for d in [3, 5, 7, 9] {
            let code = RotatedSurfaceCode::new(d);
            let c = code.esm_circuit();
            for (s, slot) in c.slots().iter().enumerate() {
                let mut seen = std::collections::HashSet::new();
                for op in slot {
                    for &q in op.qubits() {
                        assert!(seen.insert(q), "d={d} slot {s}: qubit {q} reused");
                    }
                }
            }
        }
    }

    #[test]
    fn each_check_completes_its_support() {
        let code = RotatedSurfaceCode::new(5);
        let c = code.esm_circuit();
        let mut partners: std::collections::HashMap<usize, Vec<usize>> = Default::default();
        for op in c.operations() {
            if op.as_gate() == Some(Gate::Cnot) {
                let q = op.qubits();
                let (anc, data) = if q[0] >= 25 {
                    (q[0], q[1])
                } else {
                    (q[1], q[0])
                };
                partners.entry(anc).or_default().push(data);
            }
        }
        for ch in code.checks() {
            let mut got = partners.remove(&ch.ancilla).unwrap_or_default();
            got.sort_unstable();
            assert_eq!(got, ch.support, "check at {:?}", ch.coords);
        }
    }

    #[test]
    fn syndrome_of_single_errors() {
        let code = RotatedSurfaceCode::new(3);
        // X on D4 flips the two bulk Z checks (supports containing 4).
        let syndrome = code.syndrome_of(&[4], CheckKind::X);
        let fired: usize = syndrome.iter().filter(|f| **f).count();
        assert_eq!(fired, 2);
        // Z on a corner flips exactly one X check.
        let syndrome = code.syndrome_of(&[0], CheckKind::Z);
        assert_eq!(syndrome.iter().filter(|f| **f).count(), 1);
    }

    #[test]
    fn logical_x_is_syndrome_free() {
        for d in [3, 5] {
            let code = RotatedSurfaceCode::new(d);
            let syndrome = code.syndrome_of(&code.logical_x_support(), CheckKind::X);
            assert!(syndrome.iter().all(|f| !f), "d={d}: X_L fires a check");
            let syndrome = code.syndrome_of(&code.logical_z_support(), CheckKind::Z);
            assert!(syndrome.iter().all(|f| !f), "d={d}: Z_L fires a check");
        }
    }

    #[test]
    #[should_panic(expected = "odd distance")]
    fn even_distance_rejected() {
        let _ = RotatedSurfaceCode::new(4);
    }
}
