use qpdo_circuit::{Circuit, Gate, Operation, TimeSlot};
use qpdo_core::{ControlStack, Core, CoreError};

use crate::{
    esm_ancillas, esm_circuit, DanceMode, LogicalState, Rotation, StarLayout, StarProperties,
    SyndromeTracker,
};

/// What happened during one error-correction window (Fig 5.9).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowReport {
    /// Confirmed detection events on the X-parity checks (Z errors).
    pub confirmed_x: u8,
    /// Confirmed detection events on the Z-parity checks (X errors).
    pub confirmed_z: u8,
    /// Number of physical correction gates issued.
    pub corrections_applied: usize,
    /// Whether a correction time slot was appended to the schedule.
    pub correction_slot_used: bool,
}

/// A Surface Code 17 logical qubit: layout, run-time properties
/// (Table 5.2), decoder state, and the logical operations of Table 5.1.
///
/// All operations are expressed against a [`ControlStack`], so the same
/// `NinjaStar` drives a stabilizer back-end, a state-vector back-end, a
/// stack with a Pauli-frame layer, or an instrumented stack — which is
/// exactly how the paper runs its three experiments.
///
/// See the crate documentation for an example.
#[derive(Clone, Debug)]
pub struct NinjaStar {
    layout: StarLayout,
    props: StarProperties,
    /// X-parity checks — detect Z errors.
    x_tracker: SyndromeTracker,
    /// Z-parity checks — detect X errors.
    z_tracker: SyndromeTracker,
    /// ESM rounds built on first use, one per `(Rotation, DanceMode)`;
    /// every round executes a clone.
    esm_rounds: [Option<Circuit>; 4],
}

impl NinjaStar {
    /// A ninja star over the given physical layout, with the Table 5.2
    /// start-up properties.
    #[must_use]
    pub fn new(layout: StarLayout) -> Self {
        NinjaStar {
            layout,
            props: StarProperties::default(),
            x_tracker: SyndromeTracker::new(&StarLayout::x_check_supports(Rotation::Normal)),
            z_tracker: SyndromeTracker::new(&StarLayout::z_check_supports(Rotation::Normal)),
            esm_rounds: Default::default(),
        }
    }

    /// The physical layout.
    #[must_use]
    pub fn layout(&self) -> &StarLayout {
        &self.layout
    }

    /// The current run-time properties.
    #[must_use]
    pub fn properties(&self) -> StarProperties {
        self.props
    }

    /// The physical data qubits of the logical X chain under the current
    /// orientation.
    #[must_use]
    pub fn logical_x_qubits(&self) -> [usize; 3] {
        StarLayout::logical_x_support(self.props.rotation).map(|d| self.layout.data[d])
    }

    /// The physical data qubits of the logical Z chain under the current
    /// orientation.
    #[must_use]
    pub fn logical_z_qubits(&self) -> [usize; 3] {
        StarLayout::logical_z_support(self.props.rotation).map(|d| self.layout.data[d])
    }

    // ---- initialization --------------------------------------------------

    /// Fault-tolerant initialization to `|0⟩_L` (Section 2.6.1): reset all
    /// data qubits, run `d = 3` rounds of ESM, and decode away
    /// initialization errors. Runs in diagnostic (bypass) mode so LER
    /// experiments start from a clean logical state.
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

    /// Fault-tolerant initialization to `|+⟩_L`: as
    /// [`initialize_zero`](Self::initialize_zero) with a transversal
    /// Hadamard on the data qubits before the ESM rounds.
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
        // Reset rebuilds the star in the normal orientation (Table 5.3).
        self.props.rotation = Rotation::Normal;
        self.x_tracker = SyndromeTracker::new(&StarLayout::x_check_supports(Rotation::Normal));
        self.z_tracker = SyndromeTracker::new(&StarLayout::z_check_supports(Rotation::Normal));

        // Step 1: reset all data qubits (and the basis rotation for |+>).
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

        // Step 2: first ESM round fixes the gauge — the first X-check
        // outcomes on |0..0> (or Z-check outcomes on |+..+>) are random.
        stack.execute_diagnostic(self.esm_round(DanceMode::All))?;
        let (x_round, z_round) = self.read_syndromes(stack);

        // Step 3: decode the -1 readings into corrections. -1 on an
        // X-parity check is fixed by Z gates; -1 on a Z-parity check by
        // X gates.
        let z_corrections = self.x_tracker.decode_initialization(x_round);
        let x_corrections = self.z_tracker.decode_initialization(z_round);
        if let Some(slot) = self.correction_slot(&x_corrections, &z_corrections) {
            let mut circuit = Circuit::new();
            circuit.push_slot(slot);
            stack.execute_diagnostic(circuit)?;
        }

        // Steps 4-5: the remaining d-1 rounds confirm a clean state.
        for _ in 0..2 {
            stack.execute_diagnostic(self.esm_round(DanceMode::All))?;
            let (x_round, z_round) = self.read_syndromes(stack);
            debug_assert_eq!(x_round, [false; 4], "gauge fixed by initialization decode");
            debug_assert_eq!(z_round, [false; 4], "error-free initialization");
        }

        self.props.dance_mode = DanceMode::All;
        self.props.state = if plus {
            LogicalState::Unknown
        } else {
            LogicalState::Zero
        };
        Ok(())
    }

    // ---- logical gates ---------------------------------------------------

    /// Applies the logical `X` gate: the chain of physical `X` gates of
    /// Fig 2.4a, orientation-aware, in one time slot.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn apply_logical_x<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<(), CoreError> {
        let mut slot = TimeSlot::new();
        for q in self.logical_x_qubits() {
            slot.push(Operation::gate(Gate::X, &[q]));
        }
        let mut circuit = Circuit::new();
        circuit.push_slot(slot);
        stack.execute_now(circuit)?;
        self.props.state = match self.props.state {
            LogicalState::Zero => LogicalState::One,
            LogicalState::One => LogicalState::Zero,
            LogicalState::Unknown => LogicalState::Unknown,
        };
        Ok(())
    }

    /// Applies the logical `Z` gate: the chain of physical `Z` gates of
    /// Fig 2.4b. The classical 0/1 view of the state is unaffected (`Z`
    /// only imprints a phase on `|1⟩_L`).
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn apply_logical_z<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<(), CoreError> {
        let mut slot = TimeSlot::new();
        for q in self.logical_z_qubits() {
            slot.push(Operation::gate(Gate::Z, &[q]));
        }
        let mut circuit = Circuit::new();
        circuit.push_slot(slot);
        stack.execute_now(circuit)
    }

    /// Applies the transversal logical Hadamard: `H` on every data qubit,
    /// rotating the lattice 90° (Fig 2.5). The check trackers swap roles
    /// — the former Z-parity expectations become the X-parity
    /// expectations, because `H_L` maps the stabilizers onto each other
    /// sign-preservingly.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn apply_logical_h<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<(), CoreError> {
        let mut slot = TimeSlot::new();
        for &d in &self.layout.data {
            slot.push(Operation::gate(Gate::H, &[d]));
        }
        let mut circuit = Circuit::new();
        circuit.push_slot(slot);
        stack.execute_now(circuit)?;
        self.props.rotation = self.props.rotation.toggled();
        std::mem::swap(&mut self.x_tracker, &mut self.z_tracker);
        self.props.state = LogicalState::Unknown;
        Ok(())
    }

    // ---- logical measurement ----------------------------------------------

    /// Fault-tolerant nine-qubit logical measurement in the `Z_L` basis
    /// (Section 2.6.1):
    ///
    /// 1. measure all nine data qubits,
    /// 2. switch the dance mode to `z_only` and run a partial ESM round
    ///    to expose X errors that struck during the readout,
    /// 3. decode mismatched Z-check parities and flip the affected
    ///    results,
    /// 4. return the parity of the corrected results (`true` = product
    ///    `-1` = logical `|1⟩`).
    ///
    /// The nine-qubit variant is orientation-independent (Section 5.1.4).
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn measure_logical<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<bool, CoreError> {
        // Step 1: transversal data measurement (noise applies).
        let mut slot = TimeSlot::new();
        for &d in &self.layout.data {
            slot.push(Operation::measure(d));
        }
        let mut circuit = Circuit::new();
        circuit.push_slot(slot);
        stack.execute_now(circuit)?;
        let mut bits = [false; 9];
        for (i, &d) in self.layout.data.iter().enumerate() {
            bits[i] = stack
                .state()
                .bit(d)
                .known()
                .expect("data qubit was just measured");
        }

        // Step 2: partial ESM (Z-parity ancillas only), diagnostic so the
        // readout verification itself is noise-free classical logic.
        self.props.dance_mode = DanceMode::ZOnly;
        stack.execute_diagnostic(self.esm_round(DanceMode::ZOnly))?;
        let (_, z_round) = self.read_syndromes(stack);

        // Step 3: mismatches against the expected Z syndromes reveal X
        // errors in the readout; decode and flip the affected bits.
        let reference = self.z_tracker.reference();
        let mut pattern = 0u8;
        for i in 0..4 {
            if z_round[i] != reference[i] {
                pattern |= 1 << i;
            }
        }
        for &q in self.z_tracker.decoder().decode(pattern) {
            bits[q] = !bits[q];
        }

        // Step 4: the parity of all nine (corrected) results is the
        // logical outcome.
        let outcome = bits.iter().fold(false, |acc, &b| acc ^ b);
        self.props.state = LogicalState::from(outcome);
        Ok(outcome)
    }

    // ---- error correction windows ------------------------------------------

    /// Runs one error-correction window (Fig 5.9): two ESM rounds, the
    /// confirm/defer decode, and the correction slot (which a Pauli-frame
    /// layer will absorb — the saving of Fig 3.3).
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    ///
    /// # Panics
    ///
    /// Panics if the dance mode is not `all` (re-initialize first).
    pub fn run_window<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<WindowReport, CoreError> {
        let first = self.run_esm_round(stack)?;
        let second = self.run_esm_round(stack)?;
        self.apply_window_decisions(stack, first, second)
    }

    /// Executes one ESM round and returns its `(x_checks, z_checks)`
    /// syndromes — the building block of [`run_window`](Self::run_window),
    /// exposed so callers (e.g. fault-injection harnesses) can compose
    /// windows with custom steps in between.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    ///
    /// # Panics
    ///
    /// Panics if the dance mode is not `all` (re-initialize first).
    pub fn run_esm_round<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<([bool; 4], [bool; 4]), CoreError> {
        assert_eq!(
            self.props.dance_mode,
            DanceMode::All,
            "windows need the full ESM dance; re-initialize the star"
        );
        stack.execute_now(self.esm_round(DanceMode::All))?;
        Ok(self.read_syndromes(stack))
    }

    /// Feeds two rounds of syndromes through the window decoders and
    /// applies the resulting corrections (the tail of
    /// [`run_window`](Self::run_window)).
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn apply_window_decisions<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
        first: ([bool; 4], [bool; 4]),
        second: ([bool; 4], [bool; 4]),
    ) -> Result<WindowReport, CoreError> {
        let x_decision = self.x_tracker.process_window(first.0, second.0); // Z corrections
        let z_decision = self.z_tracker.process_window(first.1, second.1); // X corrections

        let slot = self.correction_slot(&z_decision.corrections, &x_decision.corrections);
        let corrections_applied = slot.as_ref().map_or(0, TimeSlot::len);
        let correction_slot_used = slot.is_some();
        if let Some(slot) = slot {
            let mut circuit = Circuit::new();
            circuit.push_slot(slot);
            stack.execute_now(circuit)?;
        }

        Ok(WindowReport {
            confirmed_x: x_decision.confirmed,
            confirmed_z: z_decision.confirmed,
            corrections_applied,
            correction_slot_used,
        })
    }

    /// Checks for observable errors: one diagnostic ESM round, comparing
    /// every syndrome against its expectation (Listing 5.7's
    /// `no_observable_errors`).
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn has_observable_error<C: Core>(
        &mut self,
        stack: &mut ControlStack<C>,
    ) -> Result<bool, CoreError> {
        stack.execute_diagnostic(self.esm_round(DanceMode::All))?;
        let (x_round, z_round) = self.read_syndromes(stack);
        Ok(x_round != self.x_tracker.reference() || z_round != self.z_tracker.reference())
    }

    // ---- logical-error diagnostics (Fig 5.10) -------------------------------

    /// Measures the `Z_L`-defining stabilizer (`Z0Z4Z8`, rotation-aware)
    /// through the ancilla circuit of Fig 5.10a, without disturbing the
    /// logical state. Returns `true` for `-1` (logical `|1⟩`).
    ///
    /// `ancilla` must be an extra physical qubit outside the star. Runs
    /// in diagnostic mode.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn logical_z_value_via_ancilla<C: Core>(
        &self,
        stack: &mut ControlStack<C>,
        ancilla: usize,
    ) -> Result<bool, CoreError> {
        let mut circuit = Circuit::new();
        circuit.prep(ancilla);
        for q in self.logical_z_qubits() {
            circuit.cnot(q, ancilla);
        }
        circuit.measure(ancilla);
        stack.execute_diagnostic(circuit)?;
        Ok(stack
            .state()
            .bit(ancilla)
            .known()
            .expect("ancilla was just measured"))
    }

    /// Measures the `X_L`-defining stabilizer (`X2X4X6`, rotation-aware)
    /// through the circuit of Fig 5.10b. Returns `true` for `-1`
    /// (logical `|−⟩`).
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn logical_x_value_via_ancilla<C: Core>(
        &self,
        stack: &mut ControlStack<C>,
        ancilla: usize,
    ) -> Result<bool, CoreError> {
        let mut circuit = Circuit::new();
        circuit.prep(ancilla);
        circuit.h(ancilla);
        for q in self.logical_x_qubits() {
            circuit.cnot(ancilla, q);
        }
        circuit.h(ancilla);
        circuit.measure(ancilla);
        stack.execute_diagnostic(circuit)?;
        Ok(stack
            .state()
            .bit(ancilla)
            .known()
            .expect("ancilla was just measured"))
    }

    // ---- helpers -------------------------------------------------------------

    /// One ESM round in the current orientation and the given dance mode,
    /// built on first use and cloned for every later round.
    fn esm_round(&mut self, dance: DanceMode) -> Circuit {
        let rotation = self.props.rotation;
        let index =
            2 * (rotation == Rotation::Rotated) as usize + (dance == DanceMode::ZOnly) as usize;
        self.esm_rounds[index]
            .get_or_insert_with(|| esm_circuit(&self.layout, rotation, dance))
            .clone()
    }

    /// Reads the latest `(x_checks, z_checks)` syndromes from the stack's
    /// classical state, in Table 2.1 check order. `true` = `-1`.
    fn read_syndromes<C: Core>(&self, stack: &ControlStack<C>) -> ([bool; 4], [bool; 4]) {
        let (x_ancillas, z_ancillas) = esm_ancillas(&self.layout, self.props.rotation);
        let read = |ancillas: [usize; 4]| {
            let mut out = [false; 4];
            for (i, &a) in ancillas.iter().enumerate() {
                out[i] = stack.state().bit(a).known().unwrap_or(false);
            }
            out
        };
        (read(x_ancillas), read(z_ancillas))
    }

    /// Builds the single correction time slot: X corrections and Z
    /// corrections on virtual data qubits, merged (`X` + `Z` on the same
    /// qubit becomes `Y`). Returns `None` when there is nothing to apply.
    fn correction_slot(
        &self,
        x_corrections: &[usize],
        z_corrections: &[usize],
    ) -> Option<TimeSlot> {
        if x_corrections.is_empty() && z_corrections.is_empty() {
            return None;
        }
        let mut slot = TimeSlot::new();
        for d in 0..9 {
            let x = x_corrections.contains(&d);
            let z = z_corrections.contains(&d);
            let gate = match (x, z) {
                (true, true) => Gate::Y,
                (true, false) => Gate::X,
                (false, true) => Gate::Z,
                (false, false) => continue,
            };
            slot.push(Operation::gate(gate, &[self.layout.data[d]]));
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
        s.create_qubits(17).unwrap();
        s
    }

    fn star() -> NinjaStar {
        NinjaStar::new(StarLayout::standard(0))
    }

    /// The `Z0Z4Z8` expectation on the raw simulator (±1 as false/true).
    fn physical_logical_z(stack: &mut ControlStack<ChpCore>) -> Option<bool> {
        let mut obs = PauliString::identity(17);
        for q in [0, 4, 8] {
            obs.set_op(q, Pauli::Z);
        }
        stack.core_mut().simulator_mut().unwrap().expectation(&obs)
    }

    #[test]
    fn cached_esm_rounds_match_fresh_builds_in_every_orientation() {
        let mut star = star();
        for rotation in [Rotation::Normal, Rotation::Rotated] {
            star.props.rotation = rotation;
            for dance in [DanceMode::All, DanceMode::ZOnly] {
                let fresh = esm_circuit(&star.layout, rotation, dance);
                assert_eq!(star.esm_round(dance), fresh);
                // The second call is served from the cache.
                assert_eq!(star.esm_round(dance), fresh);
            }
        }
        assert!(star.esm_rounds.iter().all(Option::is_some));
    }

    #[test]
    fn initialize_zero_gives_plus_one_logical_z() {
        for seed in 0..8 {
            let mut stack = stack(seed);
            let mut star = star();
            star.initialize_zero(&mut stack).unwrap();
            assert_eq!(star.properties().state, LogicalState::Zero);
            assert_eq!(star.properties().dance_mode, DanceMode::All);
            assert_eq!(physical_logical_z(&mut stack), Some(false));
            assert!(!star.has_observable_error(&mut stack).unwrap());
        }
    }

    #[test]
    fn initialize_zero_fixes_all_stabilizer_signs() {
        let mut stack = stack(3);
        let mut star = star();
        star.initialize_zero(&mut stack).unwrap();
        // Every Table 2.1 stabilizer reads +1 on the physical qubits.
        for gen in StarLayout::stabilizer_strings() {
            let mut obs = PauliString::identity(17);
            for (d, p) in gen.iter().enumerate() {
                obs.set_op(d, p);
            }
            assert_eq!(
                stack.core_mut().simulator_mut().unwrap().expectation(&obs),
                Some(false),
                "stabilizer {gen} not +1"
            );
        }
    }

    #[test]
    fn measure_zero_state_returns_plus_one() {
        for seed in 0..8 {
            let mut stack = stack(100 + seed);
            let mut star = star();
            star.initialize_zero(&mut stack).unwrap();
            assert!(!star.measure_logical(&mut stack).unwrap());
            assert_eq!(star.properties().state, LogicalState::Zero);
            assert_eq!(star.properties().dance_mode, DanceMode::ZOnly);
        }
    }

    #[test]
    fn logical_x_flips_measurement() {
        for seed in 0..8 {
            let mut stack = stack(200 + seed);
            let mut star = star();
            star.initialize_zero(&mut stack).unwrap();
            star.apply_logical_x(&mut stack).unwrap();
            assert_eq!(star.properties().state, LogicalState::One);
            assert!(star.measure_logical(&mut stack).unwrap());
        }
    }

    #[test]
    fn logical_z_preserves_zero_and_one() {
        let mut stack = stack(300);
        let mut star = star();
        star.initialize_zero(&mut stack).unwrap();
        star.apply_logical_z(&mut stack).unwrap();
        assert!(!star.measure_logical(&mut stack).unwrap());
    }

    #[test]
    fn double_logical_x_is_identity() {
        let mut stack = stack(301);
        let mut star = star();
        star.initialize_zero(&mut stack).unwrap();
        star.apply_logical_x(&mut stack).unwrap();
        star.apply_logical_x(&mut stack).unwrap();
        assert_eq!(star.properties().state, LogicalState::Zero);
        assert!(!star.measure_logical(&mut stack).unwrap());
    }

    #[test]
    fn initialize_plus_gives_plus_one_logical_x() {
        let mut stack = stack(400);
        let mut star = star();
        star.initialize_plus(&mut stack).unwrap();
        assert_eq!(star.properties().state, LogicalState::Unknown);
        let mut obs = PauliString::identity(17);
        for q in [2, 4, 6] {
            obs.set_op(q, Pauli::X);
        }
        assert_eq!(
            stack.core_mut().simulator_mut().unwrap().expectation(&obs),
            Some(false)
        );
        assert!(!star.has_observable_error(&mut stack).unwrap());
    }

    #[test]
    fn hadamard_maps_zero_to_plus() {
        // H_L |0>_L = |+>_L: X2X4X6 becomes a +1 stabilizer... in the
        // rotated frame the logical X support moves to D0,D4,D8.
        let mut stack = stack(500);
        let mut star = star();
        star.initialize_zero(&mut stack).unwrap();
        star.apply_logical_h(&mut stack).unwrap();
        assert_eq!(star.properties().rotation, Rotation::Rotated);
        assert_eq!(star.logical_x_qubits(), [0, 4, 8]);
        let mut obs = PauliString::identity(17);
        for q in [0, 4, 8] {
            obs.set_op(q, Pauli::X);
        }
        assert_eq!(
            stack.core_mut().simulator_mut().unwrap().expectation(&obs),
            Some(false),
            "H_L|0>_L is a +1 eigenstate of the rotated X_L"
        );
        // The rotated lattice still passes its (swapped) ESM cleanly.
        assert!(!star.has_observable_error(&mut stack).unwrap());
    }

    #[test]
    fn double_hadamard_restores_zero() {
        let mut stack = stack(501);
        let mut star = star();
        star.initialize_zero(&mut stack).unwrap();
        star.apply_logical_h(&mut stack).unwrap();
        star.apply_logical_h(&mut stack).unwrap();
        assert_eq!(star.properties().rotation, Rotation::Normal);
        assert!(!star.measure_logical(&mut stack).unwrap());
    }

    #[test]
    fn hadamard_then_x_then_hadamard_is_z() {
        // H X H = Z: |0> -> |0> up to phase.
        let mut stack = stack(502);
        let mut star = star();
        star.initialize_zero(&mut stack).unwrap();
        star.apply_logical_h(&mut stack).unwrap();
        star.apply_logical_x(&mut stack).unwrap();
        star.apply_logical_h(&mut stack).unwrap();
        assert!(!star.measure_logical(&mut stack).unwrap());
    }

    #[test]
    fn windows_are_quiet_without_errors() {
        let mut stack = stack(600);
        let mut star = star();
        star.initialize_zero(&mut stack).unwrap();
        for _ in 0..4 {
            let report = star.run_window(&mut stack).unwrap();
            assert_eq!(report.confirmed_x, 0);
            assert_eq!(report.confirmed_z, 0);
            assert_eq!(report.corrections_applied, 0);
            assert!(!report.correction_slot_used);
        }
        assert!(!star.has_observable_error(&mut stack).unwrap());
        assert_eq!(physical_logical_z(&mut stack), Some(false));
    }

    #[test]
    fn window_corrects_injected_x_error() {
        let mut stack = stack(601);
        let mut star = star();
        star.initialize_zero(&mut stack).unwrap();
        // Inject a physical X error on D3 directly into the simulator.
        stack.core_mut().simulator_mut().unwrap().x(3);
        let report = star.run_window(&mut stack).unwrap();
        // Z checks 0 (Z0Z3) and 2 (Z3Z4Z6Z7) fire.
        assert_eq!(report.confirmed_z, 0b0101);
        assert_eq!(report.corrections_applied, 1);
        assert!(!star.has_observable_error(&mut stack).unwrap());
        assert_eq!(physical_logical_z(&mut stack), Some(false));
    }

    #[test]
    fn window_corrects_injected_z_error() {
        let mut stack = stack(602);
        let mut star = star();
        star.initialize_zero(&mut stack).unwrap();
        stack.core_mut().simulator_mut().unwrap().z(4);
        let report = star.run_window(&mut stack).unwrap();
        // X checks 0 (X0X1X3X4) and 2 (X4X5X7X8) fire.
        assert_eq!(report.confirmed_x, 0b0101);
        assert!(!star.has_observable_error(&mut stack).unwrap());
    }

    #[test]
    fn window_corrects_injected_y_error() {
        let mut stack = stack(603);
        let mut star = star();
        star.initialize_zero(&mut stack).unwrap();
        stack.core_mut().simulator_mut().unwrap().y(4);
        let report = star.run_window(&mut stack).unwrap();
        assert!(report.confirmed_x != 0 && report.confirmed_z != 0);
        // X and Z corrections on D4 merge into one Y gate.
        assert_eq!(report.corrections_applied, 1);
        assert!(!star.has_observable_error(&mut stack).unwrap());
    }

    #[test]
    fn windows_correct_errors_in_rotated_orientation() {
        // After H_L the plaquettes swap check kinds; the window pipeline
        // (rotated ESM + swapped trackers + rotation-aware LUTs) must
        // still correct injected errors.
        let mut stack = stack(620);
        let mut star = star();
        star.initialize_zero(&mut stack).unwrap();
        star.apply_logical_h(&mut stack).unwrap();
        assert_eq!(star.properties().rotation, Rotation::Rotated);
        // A few clean windows first: the rotated schedule is quiet.
        for _ in 0..2 {
            let report = star.run_window(&mut stack).unwrap();
            assert_eq!(report.corrections_applied, 0);
        }
        for (q, err) in [(3usize, Pauli::X), (5, Pauli::Z), (4, Pauli::Y)] {
            {
                let sim = stack.core_mut().simulator_mut().unwrap();
                match err {
                    Pauli::X => sim.x(q),
                    Pauli::Z => sim.z(q),
                    Pauli::Y => sim.y(q),
                    Pauli::I => {}
                }
            }
            let report = star.run_window(&mut stack).unwrap();
            assert!(
                report.corrections_applied > 0,
                "rotated window missed {err} on D{q}"
            );
            assert!(!star.has_observable_error(&mut stack).unwrap());
        }
        // The logical state survived: H_L back and measure +1.
        star.apply_logical_h(&mut stack).unwrap();
        assert!(!star.measure_logical(&mut stack).unwrap());
    }

    #[test]
    fn measurement_in_rotated_orientation() {
        // The nine-qubit logical measurement is orientation-independent
        // (Section 5.1.4): X_L then H_L gives |−⟩_L whose Z_L outcome is
        // random, while H_L X_L H_L = Z_L keeps |0⟩_L deterministic.
        let mut stack = stack(621);
        let mut star = star();
        star.initialize_zero(&mut stack).unwrap();
        star.apply_logical_h(&mut stack).unwrap();
        star.apply_logical_x(&mut stack).unwrap(); // X_L in rotated frame
        star.apply_logical_h(&mut stack).unwrap(); // net effect: Z_L
        assert!(!star.measure_logical(&mut stack).unwrap());
    }

    #[test]
    fn observable_error_detected_before_correction() {
        let mut stack = stack(604);
        let mut star = star();
        star.initialize_zero(&mut stack).unwrap();
        stack.core_mut().simulator_mut().unwrap().x(6);
        assert!(star.has_observable_error(&mut stack).unwrap());
    }

    #[test]
    fn windows_work_with_pauli_frame_layer() {
        let mut stack = ControlStack::with_seed(ChpCore::new(), 700);
        stack.push_layer(PauliFrameLayer::new());
        stack.create_qubits(17).unwrap();
        let mut star = star();
        star.initialize_zero(&mut stack).unwrap();
        // Initialization gauge-fixing corrections may already have been
        // absorbed; take a baseline.
        let baseline = stack
            .find_layer::<PauliFrameLayer>()
            .unwrap()
            .filtered_gates();
        stack.core_mut().simulator_mut().unwrap().x(3);
        let report = star.run_window(&mut stack).unwrap();
        assert_eq!(report.confirmed_z, 0b0101);
        // The correction was tracked, not executed: the physical error is
        // still on the qubit, but diagnostics see through the frame.
        let pf: &PauliFrameLayer = stack.find_layer().unwrap();
        assert_eq!(pf.filtered_gates() - baseline, 1);
        assert!(!star.has_observable_error(&mut stack).unwrap());
        // Follow-up windows stay quiet.
        let report = star.run_window(&mut stack).unwrap();
        assert_eq!(report.confirmed_z, 0);
    }

    #[test]
    fn logical_values_via_ancilla_circuits() {
        let mut stack = ControlStack::with_seed(ChpCore::new(), 800);
        stack.create_qubits(18).unwrap();
        let mut star = star();
        star.initialize_zero(&mut stack).unwrap();
        assert!(!star.logical_z_value_via_ancilla(&mut stack, 17).unwrap());
        star.apply_logical_x(&mut stack).unwrap();
        assert!(star.logical_z_value_via_ancilla(&mut stack, 17).unwrap());
        // The stabilizer measurement did not disturb the state.
        assert!(star.logical_z_value_via_ancilla(&mut stack, 17).unwrap());

        let mut stack = ControlStack::with_seed(ChpCore::new(), 801);
        stack.create_qubits(18).unwrap();
        let mut star = NinjaStar::new(StarLayout::standard(0));
        star.initialize_plus(&mut stack).unwrap();
        assert!(!star.logical_x_value_via_ancilla(&mut stack, 17).unwrap());
        star.apply_logical_z(&mut stack).unwrap();
        assert!(star.logical_x_value_via_ancilla(&mut stack, 17).unwrap());
    }

    #[test]
    fn measurement_survives_readout_x_error() {
        // An X error flipping one data bit during readout is repaired by
        // the partial-ESM mismatch decode.
        let mut stack = stack(900);
        let mut star = star();
        star.initialize_zero(&mut stack).unwrap();
        // Flip D5 right before measuring: the raw nine-bit parity would
        // be wrong, the corrected one is right.
        stack.core_mut().simulator_mut().unwrap().x(5);
        assert!(!star.measure_logical(&mut stack).unwrap());
    }
}
