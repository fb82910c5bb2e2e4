use qpdo_circuit::{Circuit, Gate, Operation, TimeSlot};
use qpdo_core::{ControlStack, Core, CoreError};

use crate::code::{esm_circuit, SteaneLayout, LOGICAL_SUPPORT};

/// Windowing state for one Steane check family: the expected syndrome
/// plus the whole-pattern stability rule (see the SC17
/// `SyndromeTracker` for why per-check confirmation breaks the distance).
#[derive(Clone, Debug, Default)]
pub struct SteaneTracker {
    reference: [bool; 3],
}

impl SteaneTracker {
    /// A tracker with an all-`+1` expectation.
    #[must_use]
    pub fn new() -> Self {
        SteaneTracker::default()
    }

    /// The expected syndrome.
    #[must_use]
    pub fn reference(&self) -> [bool; 3] {
        self.reference
    }

    /// Confirms a stable deviation pattern across two rounds and decodes
    /// it: the Steane code is perfect, so a non-zero pattern `s` is a
    /// single error on data qubit `s − 1`.
    pub fn process_window(&mut self, round1: [bool; 3], round2: [bool; 3]) -> Option<usize> {
        let dev = |round: [bool; 3]| -> usize {
            let mut pattern = 0usize;
            for (i, (&seen, &expected)) in round.iter().zip(&self.reference).enumerate() {
                if seen != expected {
                    pattern |= 1 << i;
                }
            }
            pattern
        };
        let (d1, d2) = (dev(round1), dev(round2));
        if d1 == d2 && d1 != 0 {
            Some(d1 - 1)
        } else {
            None
        }
    }

    /// Decodes a single initialization round against `+1` and resets the
    /// expectation.
    pub fn decode_initialization(&mut self, round: [bool; 3]) -> Option<usize> {
        self.reference = [false; 3];
        let mut pattern = 0usize;
        for (i, &fired) in round.iter().enumerate() {
            if fired {
                pattern |= 1 << i;
            }
        }
        (pattern != 0).then(|| pattern - 1)
    }
}

/// What happened during one Steane error-correction window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SteaneWindowReport {
    /// The data qubit that received an X correction, if any.
    pub x_correction: Option<usize>,
    /// The data qubit that received a Z correction, if any.
    pub z_correction: Option<usize>,
}

/// A Steane `[[7,1,3]]` logical qubit driving a control stack — the
/// paper's `SteaneLayer` counterpart to [`NinjaStar`].
///
/// [`NinjaStar`]: https://docs.rs/qpdo-surface17
///
/// See the crate documentation for an example.
#[derive(Clone, Debug)]
pub struct SteaneQubit {
    layout: SteaneLayout,
    x_tracker: SteaneTracker,
    z_tracker: SteaneTracker,
    /// The ESM round, built once; every round executes a clone.
    esm: Circuit,
}

impl SteaneQubit {
    /// A Steane block over the given layout.
    #[must_use]
    pub fn new(layout: SteaneLayout) -> Self {
        SteaneQubit {
            esm: esm_circuit(&layout),
            layout,
            x_tracker: SteaneTracker::new(),
            z_tracker: SteaneTracker::new(),
        }
    }

    /// The physical layout.
    #[must_use]
    pub fn layout(&self) -> &SteaneLayout {
        &self.layout
    }

    /// The physical qubits of the logical X/Z chains (`{0, 1, 2}`).
    #[must_use]
    pub fn logical_qubits(&self) -> [usize; 3] {
        LOGICAL_SUPPORT.map(|q| self.layout.data[q])
    }

    fn read_syndromes<C: Core>(&self, stack: &ControlStack<C>) -> ([bool; 3], [bool; 3]) {
        let read = |ancillas: [usize; 3]| {
            let mut out = [false; 3];
            for (i, &a) in ancillas.iter().enumerate() {
                out[i] = stack.state().bit(a).known().unwrap_or(false);
            }
            out
        };
        (read(self.layout.x_ancillas), read(self.layout.z_ancillas))
    }

    /// Fault-tolerant initialization to `|0⟩_L` (diagnostic mode):
    /// reset, one gauge-fixing ESM round, two confirmation rounds.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn initialize_zero<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<(), CoreError> {
        self.initialize(stack, false)
    }

    /// Fault-tolerant initialization to `|+⟩_L`.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn initialize_plus<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<(), CoreError> {
        self.initialize(stack, true)
    }

    fn initialize<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
        plus: bool,
    ) -> Result<(), CoreError> {
        self.x_tracker = SteaneTracker::new();
        self.z_tracker = SteaneTracker::new();
        let mut circuit = Circuit::new();
        for &d in &self.layout.data {
            circuit.prep(d);
        }
        if plus {
            let mut slot = TimeSlot::new();
            for &d in &self.layout.data {
                slot.push(Operation::gate(Gate::H, &[d]));
            }
            circuit.push_slot(slot);
        }
        stack.execute_diagnostic(circuit)?;

        stack.execute_diagnostic(self.esm.clone())?;
        let (x_round, z_round) = self.read_syndromes(stack);
        // Gauge-fix the random first-round checks: Z corrections for X
        // checks, X corrections for Z checks (the other family must read
        // +1 deterministically on a fresh product state).
        let z_fix = self.x_tracker.decode_initialization(x_round);
        let x_fix = self.z_tracker.decode_initialization(z_round);
        if let Some(slot) = self.correction_slot(x_fix, z_fix) {
            let mut circuit = Circuit::new();
            circuit.push_slot(slot);
            stack.execute_diagnostic(circuit)?;
        }
        for _ in 0..2 {
            stack.execute_diagnostic(self.esm.clone())?;
            let (x_round, z_round) = self.read_syndromes(stack);
            debug_assert_eq!(x_round, [false; 3], "gauge fixed");
            debug_assert_eq!(z_round, [false; 3], "error-free initialization");
        }
        Ok(())
    }

    /// The logical X gate: `X` on the weight-3 chain, one slot.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn apply_logical_x<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<(), CoreError> {
        self.transversal(stack, Gate::X, &LOGICAL_SUPPORT)
    }

    /// The logical Z gate: `Z` on the weight-3 chain.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn apply_logical_z<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<(), CoreError> {
        self.transversal(stack, Gate::Z, &LOGICAL_SUPPORT)
    }

    /// The logical Hadamard: `H` on all 7 data qubits. Self-duality
    /// swaps the X/Z check expectations in place — no rotation state.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn apply_logical_h<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<(), CoreError> {
        let all: Vec<usize> = (0..7).collect();
        self.transversal(stack, Gate::H, &all)?;
        std::mem::swap(&mut self.x_tracker, &mut self.z_tracker);
        Ok(())
    }

    /// The logical phase gate `S_L`: transversal `S†` (transversal `S`
    /// implements `S_L†` on the Steane code).
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn apply_logical_s<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<(), CoreError> {
        let all: Vec<usize> = (0..7).collect();
        self.transversal(stack, Gate::Sdg, &all)
    }

    /// `S_L†`: transversal `S`.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn apply_logical_sdg<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<(), CoreError> {
        let all: Vec<usize> = (0..7).collect();
        self.transversal(stack, Gate::S, &all)
    }

    fn transversal<C: Core>(
        &self,
        stack: &mut ControlStack<C>,
        gate: Gate,
        virtual_qubits: &[usize],
    ) -> Result<(), CoreError> {
        let mut slot = TimeSlot::new();
        for &q in virtual_qubits {
            slot.push(Operation::gate(gate, &[self.layout.data[q]]));
        }
        let mut circuit = Circuit::new();
        circuit.push_slot(slot);
        stack.execute_now(circuit)
    }

    /// The transversal logical CNOT between two Steane blocks (qubit-wise
    /// pairing), one slot of seven CNOTs.
    #[must_use]
    pub fn logical_cnot_circuit(control: &SteaneQubit, target: &SteaneQubit) -> Circuit {
        let mut slot = TimeSlot::new();
        for q in 0..7 {
            slot.push(Operation::gate(
                Gate::Cnot,
                &[control.layout.data[q], target.layout.data[q]],
            ));
        }
        let mut circuit = Circuit::new();
        circuit.push_slot(slot);
        circuit
    }

    /// Runs one error-correction window: two ESM rounds, stability
    /// decode per family, corrections through the stack.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn run_window<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<SteaneWindowReport, CoreError> {
        stack.execute_now(self.esm.clone())?;
        let (x1, z1) = self.read_syndromes(stack);
        stack.execute_now(self.esm.clone())?;
        let (x2, z2) = self.read_syndromes(stack);
        let z_correction = self.x_tracker.process_window(x1, x2); // Z fix
        let x_correction = self.z_tracker.process_window(z1, z2); // X fix
        if let Some(slot) = self.correction_slot(x_correction, z_correction) {
            let mut circuit = Circuit::new();
            circuit.push_slot(slot);
            stack.execute_now(circuit)?;
        }
        Ok(SteaneWindowReport {
            x_correction,
            z_correction,
        })
    }

    /// One diagnostic ESM round compared against the expectations
    /// (`no_observable_errors` of Listing 5.7).
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn has_observable_error<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<bool, CoreError> {
        stack.execute_diagnostic(self.esm.clone())?;
        let (x_round, z_round) = self.read_syndromes(stack);
        Ok(x_round != self.x_tracker.reference() || z_round != self.z_tracker.reference())
    }

    /// Fault-tolerant logical measurement: measure all 7 data qubits,
    /// classical Hamming decode, parity of the logical support.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn measure_logical<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<bool, CoreError> {
        let mut slot = TimeSlot::new();
        for &d in &self.layout.data {
            slot.push(Operation::measure(d));
        }
        let mut circuit = Circuit::new();
        circuit.push_slot(slot);
        stack.execute_now(circuit)?;
        let mut bits = [false; 7];
        for (i, &d) in self.layout.data.iter().enumerate() {
            bits[i] = stack
                .state()
                .bit(d)
                .known()
                .expect("data qubit just measured");
        }
        Ok(crate::code::hamming_decode_bit(&bits))
    }

    fn correction_slot(
        &self,
        x_correction: Option<usize>,
        z_correction: Option<usize>,
    ) -> Option<TimeSlot> {
        if x_correction.is_none() && z_correction.is_none() {
            return None;
        }
        let mut slot = TimeSlot::new();
        match (x_correction, z_correction) {
            (Some(x), Some(z)) if x == z => {
                slot.push(Operation::gate(Gate::Y, &[self.layout.data[x]]));
            }
            _ => {
                if let Some(x) = x_correction {
                    slot.push(Operation::gate(Gate::X, &[self.layout.data[x]]));
                }
                if let Some(z) = z_correction {
                    slot.push(Operation::gate(Gate::Z, &[self.layout.data[z]]));
                }
            }
        }
        Some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpdo_core::{ChpCore, ControlStack, PauliFrameLayer};
    use qpdo_pauli::{Pauli, PauliString};

    fn stack(seed: u64) -> ControlStack<ChpCore> {
        let mut s = ControlStack::with_seed(ChpCore::new(), seed);
        s.create_qubits(13).unwrap();
        s
    }

    fn expectation(stack: &mut ControlStack<ChpCore>, support: &[usize], p: Pauli) -> Option<bool> {
        let n = stack.num_qubits();
        let mut obs = PauliString::identity(n);
        for &q in support {
            obs.set_op(q, p);
        }
        stack.core_mut().simulator_mut().unwrap().expectation(&obs)
    }

    #[test]
    fn initialization_reaches_zero_logical() {
        for seed in 0..6 {
            let mut stack = stack(seed);
            let mut q = SteaneQubit::new(SteaneLayout::standard(0));
            q.initialize_zero(&mut stack).unwrap();
            assert_eq!(expectation(&mut stack, &[0, 1, 2], Pauli::Z), Some(false));
            assert!(!q.has_observable_error(&mut stack).unwrap());
            assert!(!q.measure_logical(&mut stack).unwrap());
        }
    }

    #[test]
    fn all_stabilizers_plus_one_after_init() {
        let mut stack = stack(11);
        let mut q = SteaneQubit::new(SteaneLayout::standard(0));
        q.initialize_zero(&mut stack).unwrap();
        for gen in SteaneLayout::stabilizer_strings() {
            let mut obs = PauliString::identity(13);
            for (d, p) in gen.iter().enumerate() {
                obs.set_op(d, p);
            }
            assert_eq!(
                stack.core_mut().simulator_mut().unwrap().expectation(&obs),
                Some(false),
                "stabilizer {gen}"
            );
        }
    }

    #[test]
    fn logical_x_flips_measurement() {
        let mut stack = stack(12);
        let mut q = SteaneQubit::new(SteaneLayout::standard(0));
        q.initialize_zero(&mut stack).unwrap();
        q.apply_logical_x(&mut stack).unwrap();
        assert!(q.measure_logical(&mut stack).unwrap());
    }

    #[test]
    fn hadamard_maps_zero_to_plus() {
        let mut stack = stack(13);
        let mut q = SteaneQubit::new(SteaneLayout::standard(0));
        q.initialize_zero(&mut stack).unwrap();
        q.apply_logical_h(&mut stack).unwrap();
        assert_eq!(expectation(&mut stack, &[0, 1, 2], Pauli::X), Some(false));
        assert!(!q.has_observable_error(&mut stack).unwrap());
        q.apply_logical_h(&mut stack).unwrap();
        assert!(!q.measure_logical(&mut stack).unwrap());
    }

    #[test]
    fn transversal_s_is_logical_s_dagger() {
        // S_L |+>_L = |+i>_L: the Y_L = -Y0Y1Y2 expectation reads +1.
        let mut stack = stack(14);
        let mut q = SteaneQubit::new(SteaneLayout::standard(0));
        q.initialize_plus(&mut stack).unwrap();
        q.apply_logical_s(&mut stack).unwrap();
        let mut obs = PauliString::identity(13);
        for qb in [0, 1, 2] {
            obs.set_op(qb, Pauli::Y);
        }
        obs.set_phase(qpdo_pauli::Phase::MinusOne); // Y_L = -Y0Y1Y2
        assert_eq!(
            stack.core_mut().simulator_mut().unwrap().expectation(&obs),
            Some(false),
            "S_L|+>_L is a +1 eigenstate of Y_L"
        );
        // S_L then S_L† restores |+>_L.
        q.apply_logical_sdg(&mut stack).unwrap();
        assert_eq!(expectation(&mut stack, &[0, 1, 2], Pauli::X), Some(false));
    }

    #[test]
    fn windows_correct_all_single_paulis() {
        for q_err in 0..7 {
            for p in [Pauli::X, Pauli::Z, Pauli::Y] {
                let mut stack = stack(100 + q_err as u64);
                let mut q = SteaneQubit::new(SteaneLayout::standard(0));
                q.initialize_zero(&mut stack).unwrap();
                {
                    let sim = stack.core_mut().simulator_mut().unwrap();
                    match p {
                        Pauli::X => sim.x(q_err),
                        Pauli::Z => sim.z(q_err),
                        Pauli::Y => sim.y(q_err),
                        Pauli::I => {}
                    }
                }
                let report = q.run_window(&mut stack).unwrap();
                match p {
                    Pauli::X => assert_eq!(report.x_correction, Some(q_err)),
                    Pauli::Z => assert_eq!(report.z_correction, Some(q_err)),
                    Pauli::Y => {
                        assert_eq!(report.x_correction, Some(q_err));
                        assert_eq!(report.z_correction, Some(q_err));
                    }
                    Pauli::I => {}
                }
                assert!(!q.has_observable_error(&mut stack).unwrap());
                assert!(
                    !q.measure_logical(&mut stack).unwrap(),
                    "{p} on {q_err} became a logical error"
                );
            }
        }
    }

    #[test]
    fn logical_cnot_truth_table() {
        for (ca, cb) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut stack = ControlStack::with_seed(ChpCore::new(), 55);
            stack.create_qubits(26).unwrap();
            let mut a = SteaneQubit::new(SteaneLayout::standard(0));
            let mut b = SteaneQubit::new(SteaneLayout::standard(13));
            a.initialize_zero(&mut stack).unwrap();
            b.initialize_zero(&mut stack).unwrap();
            if ca {
                a.apply_logical_x(&mut stack).unwrap();
            }
            if cb {
                b.apply_logical_x(&mut stack).unwrap();
            }
            stack
                .execute_now(SteaneQubit::logical_cnot_circuit(&a, &b))
                .unwrap();
            assert_eq!(a.measure_logical(&mut stack).unwrap(), ca);
            assert_eq!(b.measure_logical(&mut stack).unwrap(), cb ^ ca);
        }
    }

    #[test]
    fn works_with_pauli_frame_layer() {
        let mut stack = ControlStack::with_seed(ChpCore::new(), 60);
        stack.push_layer(PauliFrameLayer::new());
        stack.create_qubits(13).unwrap();
        let mut q = SteaneQubit::new(SteaneLayout::standard(0));
        q.initialize_zero(&mut stack).unwrap();
        stack.core_mut().simulator_mut().unwrap().x(4);
        let report = q.run_window(&mut stack).unwrap();
        assert_eq!(report.x_correction, Some(4));
        // Tracked, not applied — yet diagnostics see a clean state.
        assert!(!q.has_observable_error(&mut stack).unwrap());
        assert!(!q.measure_logical(&mut stack).unwrap());
    }

    #[test]
    fn measurement_survives_readout_flip() {
        let mut stack = stack(70);
        let mut q = SteaneQubit::new(SteaneLayout::standard(0));
        q.initialize_zero(&mut stack).unwrap();
        stack.core_mut().simulator_mut().unwrap().x(6);
        // Hamming decode repairs the flipped bit classically.
        assert!(!q.measure_logical(&mut stack).unwrap());
    }
}
