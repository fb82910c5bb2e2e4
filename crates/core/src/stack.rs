use qpdo_circuit::{Circuit, Gate, Operation, OperationKind, TimeSlot};
use qpdo_pauli::Pauli;
use qpdo_rng::rngs::StdRng;
use qpdo_rng::SeedableRng;

use crate::{
    BitState, Core, CoreError, DepolarizingModel, ErrorCounts, Layer, LayerContext, QuantumState,
    State,
};

/// A QPDO control stack: a simulation [`Core`] plus stacked [`Layer`]s
/// (Fig 4.3a), with optional physical-noise injection at the execution
/// boundary.
///
/// Circuits are queued with [`add`](ControlStack::add) and run with
/// [`execute`](ControlStack::execute), matching the paper's shared `Core`
/// interface (Table 4.1): `createqubit`, `removequbit`, `add`, `execute`,
/// `getstate`, `getquantumstate`.
///
/// See the crate docs for an example.
pub struct ControlStack<C> {
    core: C,
    /// `layers[0]` is closest to the core; circuits enter at the end.
    layers: Vec<Box<dyn Layer>>,
    queued: Vec<Circuit>,
    rng: StdRng,
    error_model: Option<DepolarizingModel>,
    state: State,
    /// Scratch occupancy map for the idle-error pass of one slot.
    busy: Vec<bool>,
}

impl<C: Core> ControlStack<C> {
    /// A stack over `core` seeded from OS entropy.
    #[must_use]
    pub fn new(core: C) -> Self {
        ControlStack {
            core,
            layers: Vec::new(),
            queued: Vec::new(),
            rng: StdRng::from_entropy(),
            error_model: None,
            state: State::default(),
            busy: Vec::new(),
        }
    }

    /// A stack over `core` with a deterministic RNG seed (reproducible
    /// experiments).
    #[must_use]
    pub fn with_seed(core: C, seed: u64) -> Self {
        ControlStack {
            rng: StdRng::seed_from_u64(seed),
            ..ControlStack::new(core)
        }
    }

    /// Pushes a layer on **top** of the stack (furthest from the core).
    pub fn push_layer(&mut self, layer: impl Layer) -> &mut Self {
        let mut boxed: Box<dyn Layer> = Box::new(layer);
        let n = self.num_qubits();
        if n > 0 {
            boxed.on_create_qubits(n);
        }
        self.layers.push(boxed);
        self
    }

    /// Installs (or replaces) the symmetric depolarizing error model
    /// applied at the core boundary.
    pub fn set_error_model(&mut self, model: DepolarizingModel) -> &mut Self {
        self.error_model = Some(model);
        self
    }

    /// Removes the error model.
    pub fn clear_error_model(&mut self) -> &mut Self {
        self.error_model = None;
        self
    }

    /// The injected-error counters, if an error model is installed.
    #[must_use]
    pub fn error_counts(&self) -> Option<ErrorCounts> {
        self.error_model.as_ref().map(DepolarizingModel::counts)
    }

    /// The number of allocated qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.core.num_qubits()
    }

    /// Allocates `n` additional qubits in `|0⟩`.
    ///
    /// # Errors
    ///
    /// Propagates back-end capacity errors.
    pub fn create_qubits(&mut self, n: usize) -> Result<(), CoreError> {
        self.core.create_qubits(n)?;
        for layer in &mut self.layers {
            layer.on_create_qubits(n);
        }
        self.state.grow(n);
        Ok(())
    }

    /// Deallocates the entire register and clears queued circuits.
    pub fn remove_all_qubits(&mut self) {
        self.core.remove_all_qubits();
        self.queued.clear();
        self.state = State::default();
    }

    /// Queues a circuit for execution.
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit touches unallocated qubits.
    pub fn add(&mut self, circuit: Circuit) -> Result<(), CoreError> {
        let allocated = self.num_qubits();
        if circuit.qubit_count() > allocated {
            return Err(CoreError::QubitOutOfRange {
                qubit: circuit.qubit_count() - 1,
                allocated,
            });
        }
        self.queued.push(circuit);
        Ok(())
    }

    /// Executes every queued circuit in order.
    ///
    /// # Errors
    ///
    /// Propagates back-end errors; remaining queued circuits stay queued.
    pub fn execute(&mut self) -> Result<(), CoreError> {
        while !self.queued.is_empty() {
            let circuit = self.queued.remove(0);
            self.run_circuit(circuit, false)?;
        }
        Ok(())
    }

    /// Queues and immediately executes a circuit.
    ///
    /// # Errors
    ///
    /// As [`add`](ControlStack::add) and [`execute`](ControlStack::execute).
    pub fn execute_now(&mut self, circuit: Circuit) -> Result<(), CoreError> {
        self.add(circuit)?;
        self.execute()
    }

    /// Executes a diagnostic circuit in the paper's **bypass mode**
    /// (Section 5.3.1): no error injection, instrumentation layers do not
    /// count, but state-tracking layers (e.g. the Pauli frame) still
    /// process it so results stay consistent.
    ///
    /// # Errors
    ///
    /// As [`execute`](ControlStack::execute).
    pub fn execute_diagnostic(&mut self, circuit: Circuit) -> Result<(), CoreError> {
        let allocated = self.num_qubits();
        if circuit.qubit_count() > allocated {
            return Err(CoreError::QubitOutOfRange {
                qubit: circuit.qubit_count() - 1,
                allocated,
            });
        }
        self.run_circuit(circuit, true)
    }

    /// Flushes every Pauli frame in the stack: each layer's withheld
    /// Pauli gates are executed through the layers *below* it. After this
    /// the physical state matches the logical state exactly.
    ///
    /// # Errors
    ///
    /// Propagates back-end errors.
    pub fn flush_pauli_frames(&mut self) -> Result<(), CoreError> {
        // Walk from the top down so upper flushes pass through lower
        // layers (which may themselves track and later flush them — the
        // loop repeats until everything is clean).
        for i in (0..self.layers.len()).rev() {
            if let Some(flush) = self.layers[i].drain_flush() {
                self.run_circuit_from(flush, i, false)?;
            }
        }
        Ok(())
    }

    /// The binary state of every qubit (the paper's `getstate()`).
    #[must_use]
    pub fn state(&self) -> &State {
        &self.state
    }

    /// The core's quantum-state dump (the paper's `getquantumstate()`).
    ///
    /// # Errors
    ///
    /// Returns an error when the back-end has no qubits or no dump.
    pub fn quantum_state(&self) -> Result<QuantumState, CoreError> {
        self.core.quantum_state()
    }

    /// Shared access to the core.
    #[must_use]
    pub fn core(&self) -> &C {
        &self.core
    }

    /// Mutable access to the core (e.g. to reach the raw simulator).
    #[must_use]
    pub fn core_mut(&mut self) -> &mut C {
        &mut self.core
    }

    /// The number of layers.
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Downcasts the layer at `index` (0 = closest to the core).
    #[must_use]
    pub fn layer<T: Layer>(&self, index: usize) -> Option<&T> {
        self.layers.get(index)?.as_any().downcast_ref()
    }

    /// Mutable downcast of the layer at `index`.
    #[must_use]
    pub fn layer_mut<T: Layer>(&mut self, index: usize) -> Option<&mut T> {
        self.layers.get_mut(index)?.as_any_mut().downcast_mut()
    }

    /// Finds the topmost layer of concrete type `T`.
    #[must_use]
    pub fn find_layer<T: Layer>(&self) -> Option<&T> {
        self.layers
            .iter()
            .rev()
            .find_map(|l| l.as_any().downcast_ref())
    }

    /// Finds the topmost layer of concrete type `T`, mutably (e.g. to
    /// drain a protected frame layer's fault events).
    pub fn find_layer_mut<T: Layer>(&mut self) -> Option<&mut T> {
        self.layers
            .iter_mut()
            .rev()
            .find_map(|l| l.as_any_mut().downcast_mut())
    }

    /// The stack's RNG (e.g. to interleave external sampling
    /// deterministically).
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn run_circuit(&mut self, circuit: Circuit, bypass: bool) -> Result<(), CoreError> {
        let top = self.layers.len();
        self.run_circuit_from(circuit, top, bypass)
    }

    /// Runs `circuit` entering the stack just below layer `entry` (i.e.
    /// through layers `entry-1 .. 0`, then the core).
    fn run_circuit_from(
        &mut self,
        circuit: Circuit,
        entry: usize,
        bypass: bool,
    ) -> Result<(), CoreError> {
        // Mark classical state: gates invalidate, preps zero. Measurement
        // outcomes are filled in below after result mapping.
        for op in circuit.operations() {
            match op.kind() {
                OperationKind::Prep => self.state.set_bit(op.qubits()[0], BitState::Zero),
                OperationKind::Measure => {}
                OperationKind::Gate(_) => {
                    for &q in op.qubits() {
                        self.state.set_bit(q, BitState::Unknown);
                    }
                }
            }
        }

        // Downward pass through the layers below the entry point.
        let mut transformed = circuit;
        for layer in self.layers[..entry].iter_mut().rev() {
            let mut ctx = LayerContext {
                rng: &mut self.rng,
                bypass,
            };
            transformed = layer.process_circuit(transformed, &mut ctx);
        }

        // Execute on the core slot by slot with noise injection.
        let n = self.num_qubits();
        for slot in transformed.slots() {
            self.execute_slot(slot, entry, bypass, n)?;
        }
        Ok(())
    }

    fn execute_slot(
        &mut self,
        slot: &TimeSlot,
        entry: usize,
        bypass: bool,
        n: usize,
    ) -> Result<(), CoreError> {
        let inject = self.error_model.is_some() && !bypass;
        for op in slot {
            // Measurement errors strike before the readout (X flips both
            // the state and the reported result).
            if inject && op.is_measure() {
                let flipped = match self.error_model.as_mut() {
                    Some(model) => model.sample_measurement_flip(&mut self.rng),
                    None => false,
                };
                if flipped {
                    self.apply_error(op.qubits()[0], Pauli::X)?;
                }
            }
            let raw = self.core.apply(op, &mut self.rng)?;
            if let Some(raw) = raw {
                let q = op.qubits()[0];
                let mut result = raw;
                for layer in self.layers[..entry].iter_mut() {
                    result = layer.process_measurement(q, result);
                }
                self.state.set_bit(q, BitState::from(result));
            }
            // Gate/prep errors strike after the operation.
            if inject && !op.is_measure() {
                self.inject_operation_error(op)?;
            }
        }
        // Idle errors: every qubit not touched this slot idles for one
        // time slot, which the model treats as an identity operation.
        // One pass marks the busy qubits; idlers are drawn in ascending
        // qubit order.
        if inject {
            self.busy.clear();
            self.busy.resize(n, false);
            for op in slot {
                for &q in op.qubits() {
                    self.busy[q] = true;
                }
            }
            for q in 0..n {
                if self.busy[q] {
                    continue;
                }
                let err = match self.error_model.as_mut() {
                    Some(model) => model.sample_idle(&mut self.rng),
                    None => None,
                };
                if let Some(p) = err {
                    self.apply_error(q, p)?;
                }
            }
        }
        Ok(())
    }

    fn inject_operation_error(&mut self, op: &Operation) -> Result<(), CoreError> {
        match *op.qubits() {
            [q] => {
                let err = match self.error_model.as_mut() {
                    Some(model) => model.sample_single(&mut self.rng),
                    None => None,
                };
                if let Some(p) = err {
                    self.apply_error(q, p)?;
                }
            }
            [a, b] => {
                let err = match self.error_model.as_mut() {
                    Some(model) => model.sample_two(&mut self.rng),
                    None => None,
                };
                if let Some((pa, pb)) = err {
                    self.apply_error(a, pa)?;
                    self.apply_error(b, pb)?;
                }
            }
            ref qubits => {
                // Three-qubit gates (outside the paper's error analysis):
                // independent single-qubit depolarizing per operand.
                for &q in qubits {
                    let err = match self.error_model.as_mut() {
                        Some(model) => model.sample_single(&mut self.rng),
                        None => None,
                    };
                    if let Some(p) = err {
                        self.apply_error(q, p)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies an injected error Pauli directly to the core (errors are
    /// physical: they never pass through the layers and are never
    /// counted).
    fn apply_error(&mut self, q: usize, p: Pauli) -> Result<(), CoreError> {
        let gate = match p {
            Pauli::I => return Ok(()),
            Pauli::X => Gate::X,
            Pauli::Y => Gate::Y,
            Pauli::Z => Gate::Z,
        };
        self.core
            .apply(&Operation::gate(gate, &[q]), &mut self.rng)?;
        self.state.set_bit(q, BitState::Unknown);
        Ok(())
    }
}

impl<C: Core> std::fmt::Debug for ControlStack<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlStack")
            .field("core", &self.core.name())
            .field(
                "layers",
                &self
                    .layers
                    .iter()
                    .map(|l| l.name().to_owned())
                    .collect::<Vec<_>>(),
            )
            .field("queued", &self.queued.len())
            .field("qubits", &self.num_qubits())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChpCore, CounterLayer, PauliFrameLayer, SvCore};

    fn bell() -> Circuit {
        let mut c = Circuit::new();
        c.prep(0).prep(1).h(0).cnot(0, 1).measure_all(2);
        c
    }

    #[test]
    fn bell_state_correlated_on_both_cores() {
        for seed in 0..16 {
            let mut chp = ControlStack::with_seed(ChpCore::new(), seed);
            chp.create_qubits(2).unwrap();
            chp.execute_now(bell()).unwrap();
            assert_eq!(chp.state().bit(0), chp.state().bit(1));

            let mut sv = ControlStack::with_seed(SvCore::new(), seed);
            sv.create_qubits(2).unwrap();
            sv.execute_now(bell()).unwrap();
            assert_eq!(sv.state().bit(0), sv.state().bit(1));
        }
    }

    #[test]
    fn add_rejects_unallocated_qubits() {
        let mut stack = ControlStack::with_seed(ChpCore::new(), 0);
        stack.create_qubits(1).unwrap();
        let mut c = Circuit::new();
        c.h(5);
        assert!(stack.add(c).is_err());
    }

    #[test]
    fn pauli_frame_layer_flips_results() {
        let mut stack = ControlStack::with_seed(ChpCore::new(), 0);
        stack.push_layer(PauliFrameLayer::new());
        stack.create_qubits(1).unwrap();
        let mut c = Circuit::new();
        c.prep(0).x(0).measure(0);
        stack.execute_now(c).unwrap();
        assert_eq!(stack.state().bit(0), BitState::One);
        // The physical qubit is still |0>: the X never executed.
        let pf: &PauliFrameLayer = stack.find_layer().unwrap();
        assert_eq!(pf.filtered_gates(), 1);
    }

    #[test]
    fn counter_positions_see_different_streams() {
        // Counter above the PF layer sees the raw stream; below, the
        // filtered stream.
        let above = CounterLayer::new();
        let above_counts = above.counters();
        let below = CounterLayer::new();
        let below_counts = below.counters();
        let mut stack = ControlStack::with_seed(ChpCore::new(), 0);
        stack.push_layer(below);
        stack.push_layer(PauliFrameLayer::new());
        stack.push_layer(above);
        stack.create_qubits(1).unwrap();
        let mut c = Circuit::new();
        c.prep(0).x(0).z(0).h(0).measure(0);
        stack.execute_now(c).unwrap();
        assert_eq!(above_counts.operations(), 5);
        assert_eq!(below_counts.operations(), 3); // prep, h, measure
        assert_eq!(above_counts.time_slots(), 5);
        assert_eq!(below_counts.time_slots(), 3);
    }

    #[test]
    fn diagnostic_bypasses_errors_and_counters() {
        let counter = CounterLayer::new();
        let counts = counter.counters();
        let mut stack = ControlStack::with_seed(ChpCore::new(), 0);
        stack.push_layer(counter);
        stack.set_error_model(DepolarizingModel::new(1.0));
        stack.create_qubits(1).unwrap();
        let mut c = Circuit::new();
        c.prep(0).measure(0);
        stack.execute_diagnostic(c).unwrap();
        assert_eq!(counts.operations(), 0);
        assert_eq!(stack.error_counts().unwrap().total(), 0);
        // With p = 1 every diagnostic measurement would otherwise flip;
        // in bypass mode the result is clean.
        assert_eq!(stack.state().bit(0), BitState::Zero);
    }

    #[test]
    fn error_model_flips_measurements_at_p1() {
        let mut stack = ControlStack::with_seed(ChpCore::new(), 0);
        stack.set_error_model(DepolarizingModel::new(1.0));
        stack.create_qubits(1).unwrap();
        let mut c = Circuit::new();
        c.measure(0);
        stack.execute_now(c).unwrap();
        // X error before measurement of |0> reads 1.
        assert_eq!(stack.state().bit(0), BitState::One);
        assert_eq!(stack.error_counts().unwrap().measurement, 1);
    }

    #[test]
    fn idle_errors_injected_per_slot() {
        let mut stack = ControlStack::with_seed(ChpCore::new(), 0);
        stack.set_error_model(DepolarizingModel::new(1.0));
        stack.create_qubits(3).unwrap();
        let mut c = Circuit::new();
        c.push_into_new_slot(Operation::gate(Gate::H, &[0]));
        stack.execute_now(c).unwrap();
        let counts = stack.error_counts().unwrap();
        // Qubits 1 and 2 idled for one slot; qubit 0 got a gate error.
        assert_eq!(counts.idle, 2);
        assert_eq!(counts.single_qubit, 3);
    }

    #[test]
    fn flush_restores_physical_state() {
        let mut stack = ControlStack::with_seed(SvCore::new(), 0);
        stack.push_layer(PauliFrameLayer::new());
        stack.create_qubits(1).unwrap();
        let mut c = Circuit::new();
        c.prep(0).x(0);
        stack.execute_now(c).unwrap();
        // Physically still |0> until the flush applies the tracked X.
        let before = stack.quantum_state().unwrap();
        assert!(before.amplitudes().unwrap()[0].norm() > 0.99);
        stack.flush_pauli_frames().unwrap();
        let after = stack.quantum_state().unwrap();
        assert!(after.amplitudes().unwrap()[1].norm() > 0.99);
    }

    #[test]
    fn state_tracking_classifies_bits() {
        let mut stack = ControlStack::with_seed(ChpCore::new(), 0);
        stack.create_qubits(3).unwrap();
        let mut c = Circuit::new();
        c.prep(0).h(1);
        stack.execute_now(c).unwrap();
        assert_eq!(stack.state().bit(0), BitState::Zero);
        assert_eq!(stack.state().bit(1), BitState::Unknown);
        assert_eq!(stack.state().bit(2), BitState::Unknown);
    }

    #[test]
    fn layer_introspection() {
        let mut stack = ControlStack::with_seed(ChpCore::new(), 0);
        stack.push_layer(CounterLayer::new());
        stack.push_layer(PauliFrameLayer::new());
        assert_eq!(stack.layer_count(), 2);
        assert!(stack.layer::<CounterLayer>(0).is_some());
        assert!(stack.layer::<PauliFrameLayer>(1).is_some());
        assert!(stack.layer::<PauliFrameLayer>(0).is_none());
        assert!(stack.find_layer::<PauliFrameLayer>().is_some());
        assert!(stack.layer_mut::<CounterLayer>(0).is_some());
    }

    #[test]
    fn remove_all_clears_everything() {
        let mut stack = ControlStack::with_seed(ChpCore::new(), 0);
        stack.create_qubits(2).unwrap();
        stack.add(bell()).unwrap();
        stack.remove_all_qubits();
        assert_eq!(stack.num_qubits(), 0);
        assert!(stack.state().is_empty());
    }

    #[test]
    fn stacks_are_send() {
        // The supervised shot-execution engine moves fully assembled
        // stacks into worker threads; this must stay true as layers and
        // cores evolve.
        fn assert_send<T: Send>() {}
        assert_send::<ControlStack<ChpCore>>();
        assert_send::<ControlStack<SvCore>>();
        assert_send::<Box<dyn crate::Layer>>();
    }

    #[test]
    fn debug_format_names_layers() {
        let mut stack = ControlStack::with_seed(ChpCore::new(), 0);
        stack.push_layer(PauliFrameLayer::new());
        let dbg = format!("{stack:?}");
        assert!(dbg.contains("chp"));
        assert!(dbg.contains("pauli-frame"));
    }
}
