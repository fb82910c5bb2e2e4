//! The Pauli-frame layer: Table 3.1 as a stack layer.
//!
//! Record updates go through [`update_frame`], the one tracker the PFU,
//! the protected layer and the shot-sliced stack share. This layer adds
//! what the stack needs around it: a FIFO of measurement flips per qubit,
//! flush slots ahead of non-Clifford gates, the whole-frame flush of
//! [`Layer::drain_flush`] and the saved-gate counters.

use std::any::Any;
use std::collections::VecDeque;

use qpdo_circuit::{Circuit, Operation, TimeSlot};
use qpdo_pauli::{Pauli, PauliFrame, PauliRecord};

use crate::arch::{flush_qubits, pauli_gate, update_frame, FrameFlow};
use crate::{Layer, LayerContext};

/// The Pauli-frame layer: the paper's contribution, as a stack layer.
///
/// Implements exactly the execution steps of Table 3.1:
///
/// | operation | handling |
/// |---|---|
/// | reset to `\|0⟩` | forwarded; record set to `I` |
/// | measurement | forwarded; raw result mapped by the record (Table 3.2) |
/// | Pauli gate | **absorbed** into the record; never forwarded |
/// | Clifford gate | records mapped (Tables 3.4–3.5); forwarded |
/// | non-Clifford gate | records flushed as real Pauli gates first; forwarded |
///
/// Time-slot structure is preserved: filtered Pauli gates leave their slot
/// (the slot disappears if it empties — that is the schedule saving of
/// Fig 3.3), and flush gates get their own slots immediately before the
/// non-Clifford gate.
///
/// # Example
///
/// ```
/// use qpdo_core::{ChpCore, ControlStack, PauliFrameLayer};
/// use qpdo_circuit::Circuit;
///
/// let mut stack = ControlStack::with_seed(ChpCore::new(), 5);
/// stack.push_layer(PauliFrameLayer::new());
/// stack.create_qubits(1).unwrap();
/// let mut c = Circuit::new();
/// c.prep(0).x(0).measure(0);   // the X never reaches the simulator...
/// stack.add(c).unwrap();
/// stack.execute().unwrap();
/// // ...but the measured result is still flipped to 1.
/// assert_eq!(stack.state().bit(0).known(), Some(true));
/// ```
#[derive(Debug, Default)]
pub struct PauliFrameLayer {
    pub(super) frame: PauliFrame,
    /// Per-measurement pending flips, FIFO per qubit in circuit order.
    pending_flips: Vec<VecDeque<bool>>,
    /// Statistics: Pauli gates absorbed instead of executed.
    filtered_gates: u64,
    /// Statistics: time slots that emptied out entirely.
    pub(super) filtered_slots: u64,
    /// Statistics: flush gates emitted for non-Clifford operations.
    flush_gates_emitted: u64,
}

impl PauliFrameLayer {
    /// A Pauli-frame layer with an empty frame.
    #[must_use]
    pub fn new() -> Self {
        PauliFrameLayer::default()
    }

    /// The current Pauli frame (for inspection and reporting).
    #[must_use]
    pub fn frame(&self) -> &PauliFrame {
        &self.frame
    }

    /// The record currently tracked for qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn record(&self, q: usize) -> PauliRecord {
        self.frame.record(q)
    }

    /// Pauli gates absorbed into the frame instead of being executed.
    #[must_use]
    pub fn filtered_gates(&self) -> u64 {
        self.filtered_gates
    }

    /// Time slots removed because every operation in them was absorbed.
    #[must_use]
    pub fn filtered_slots(&self) -> u64 {
        self.filtered_slots
    }

    /// Pauli gates emitted to flush records ahead of non-Clifford gates.
    #[must_use]
    pub fn flush_gates_emitted(&self) -> u64 {
        self.flush_gates_emitted
    }

    /// Applies the frame bookkeeping for one operation and returns the
    /// flow it took; the operation is forwarded unless it was absorbed.
    /// Flush slots that must run first are pushed onto `before`.
    pub(super) fn track(&mut self, op: &Operation, before: &mut Vec<TimeSlot>) -> FrameFlow {
        let flow = update_frame(&mut self.frame, op);
        match flow {
            FrameFlow::Measure => {
                let q = op.qubits()[0];
                let flip = self.frame.measurement_flipped(q);
                self.pending_flips[q].push_back(flip);
            }
            FrameFlow::Absorbed => self.filtered_gates += 1,
            FrameFlow::NonClifford => {
                let gates = flush_qubits(&mut self.frame, op.qubits());
                self.flush_slots(gates, before);
            }
            FrameFlow::Reset | FrameFlow::Mapped => {}
        }
        flow
    }

    /// Pushes flushed `(qubit, gate)` pairs onto `before` as one slot of
    /// `X`s and one slot of `Z`s (a qubit can need both), each only if
    /// non-empty.
    pub(super) fn flush_slots(&mut self, gates: Vec<(usize, Pauli)>, before: &mut Vec<TimeSlot>) {
        let mut x_slot = TimeSlot::new();
        let mut z_slot = TimeSlot::new();
        self.flush_gates_emitted += gates.len() as u64;
        for (q, p) in gates {
            let slot = if p == Pauli::X {
                &mut x_slot
            } else {
                &mut z_slot
            };
            slot.push(Operation::gate(pauli_gate(p), &[q]));
        }
        before.extend([x_slot, z_slot].into_iter().filter(|s| !s.is_empty()));
    }
}

impl Layer for PauliFrameLayer {
    fn name(&self) -> &str {
        "pauli-frame"
    }

    fn on_create_qubits(&mut self, n: usize) {
        self.frame.grow(n);
        self.pending_flips
            .resize_with(self.pending_flips.len() + n, VecDeque::new);
    }

    fn process_circuit(&mut self, mut circuit: Circuit, _ctx: &mut LayerContext<'_>) -> Circuit {
        // The stream is filtered as it passes (Figs 3.10-3.12): absorbed
        // Pauli gates leave their slot, flush slots go in ahead of the
        // non-Clifford gate, and nothing else is copied.
        let emptied =
            circuit.retain_operations(|op, before| self.track(op, before) != FrameFlow::Absorbed);
        self.filtered_slots += emptied;
        circuit
    }

    fn process_measurement(&mut self, qubit: usize, raw: bool) -> bool {
        let flip = self.pending_flips[qubit]
            .pop_front()
            // invariant: the layer saw the measurement on the way down,
            // so a pending flip was queued for exactly this result.
            .expect("measurement result without a tracked measurement");
        raw ^ flip
    }

    fn drain_flush(&mut self) -> Option<Circuit> {
        let gates = self.frame.flush_all();
        if gates.is_empty() {
            return None;
        }
        self.flush_gates_emitted += gates.len() as u64;
        let mut circuit = Circuit::new();
        for (q, p) in gates {
            circuit.push(Operation::gate(pauli_gate(p), &[q]));
        }
        Some(circuit)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpdo_circuit::Gate;
    use qpdo_rng::rngs::StdRng;
    use qpdo_rng::SeedableRng;

    fn process(layer: &mut PauliFrameLayer, circuit: Circuit) -> Circuit {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = LayerContext {
            rng: &mut rng,
            bypass: false,
        };
        layer.process_circuit(circuit, &mut ctx)
    }

    fn layer(n: usize) -> PauliFrameLayer {
        let mut layer = PauliFrameLayer::new();
        layer.on_create_qubits(n);
        layer
    }

    #[test]
    fn pauli_gates_are_absorbed() {
        let mut pf = layer(2);
        let mut c = Circuit::new();
        c.x(0).z(1).y(0);
        let out = process(&mut pf, c);
        assert_eq!(out.operation_count(), 0);
        assert_eq!(out.slot_count(), 0);
        assert_eq!(pf.record(0), PauliRecord::Z); // X then Y = Z (mod phase)
        assert_eq!(pf.record(1), PauliRecord::Z);
        assert_eq!(pf.filtered_gates(), 3);
        assert!(pf.filtered_slots() >= 1);
    }

    #[test]
    fn clifford_gates_forwarded_and_mapped() {
        let mut pf = layer(2);
        let mut c = Circuit::new();
        c.x(0).h(0).cnot(0, 1);
        let out = process(&mut pf, c);
        // Only H and CNOT survive.
        assert_eq!(out.operation_count(), 2);
        // X mapped through H -> Z on control; Z propagates to control only.
        assert_eq!(pf.record(0), PauliRecord::Z);
        assert_eq!(pf.record(1), PauliRecord::I);
    }

    #[test]
    fn prep_resets_record() {
        let mut pf = layer(1);
        let mut c = Circuit::new();
        c.x(0).prep(0);
        let out = process(&mut pf, c);
        assert_eq!(out.operation_count(), 1); // just the prep
        assert_eq!(pf.record(0), PauliRecord::I);
    }

    #[test]
    fn measurement_flip_snapshot() {
        let mut pf = layer(1);
        let mut c = Circuit::new();
        // Measure with an X tracked, then clear it afterwards: the flip
        // must reflect the record AT the measurement, not after.
        c.x(0).measure(0).x(0);
        let _ = process(&mut pf, c);
        assert!(pf.process_measurement(0, false));
        assert_eq!(pf.record(0), PauliRecord::I);
    }

    #[test]
    fn non_clifford_forces_flush() {
        let mut pf = layer(1);
        let mut c = Circuit::new();
        c.x(0).z(0).t(0);
        let out = process(&mut pf, c);
        // flush X slot + flush Z slot + T slot
        assert_eq!(out.slot_count(), 3);
        assert_eq!(out.operation_count(), 3);
        let gates: Vec<Gate> = out.operations().map(|o| o.as_gate().unwrap()).collect();
        assert_eq!(gates, [Gate::X, Gate::Z, Gate::T]);
        assert_eq!(pf.record(0), PauliRecord::I);
        assert_eq!(pf.flush_gates_emitted(), 2);
    }

    #[test]
    fn toffoli_flushes_all_three_qubits() {
        let mut pf = layer(3);
        let mut c = Circuit::new();
        c.x(0).z(1).x(2).z(2).toffoli(0, 1, 2);
        let out = process(&mut pf, c);
        let gates: Vec<Gate> = out.operations().map(|o| o.as_gate().unwrap()).collect();
        // One X-slot (q0, q2), one Z-slot (q1, q2), then the Toffoli.
        assert_eq!(gates, [Gate::X, Gate::X, Gate::Z, Gate::Z, Gate::Toffoli]);
        for q in 0..3 {
            assert_eq!(pf.record(q), PauliRecord::I);
        }
    }

    #[test]
    fn identity_gate_is_filtered() {
        let mut pf = layer(1);
        let mut c = Circuit::new();
        c.i(0);
        let out = process(&mut pf, c);
        assert_eq!(out.operation_count(), 0);
        assert_eq!(pf.record(0), PauliRecord::I);
    }

    #[test]
    fn drain_flush_returns_pending_gates() {
        let mut pf = layer(2);
        let mut c = Circuit::new();
        c.x(0).z(0).y(1);
        let _ = process(&mut pf, c);
        let flush = pf.drain_flush().unwrap();
        // q0 has XZ -> two gates; q1 has XZ (from Y) -> two gates.
        assert_eq!(flush.operation_count(), 4);
        assert!(pf.drain_flush().is_none());
        assert_eq!(pf.record(0), PauliRecord::I);
    }

    #[test]
    fn slot_structure_preserved_for_surviving_ops() {
        let mut pf = layer(3);
        let mut c = Circuit::new();
        // Slot 0: h q0, x q1 (filtered). Slot 1: cnot q0,q1; z q2 (filtered).
        c.h(0).x(1);
        c.cnot(0, 1);
        c.z(2);
        let out = process(&mut pf, c);
        assert_eq!(out.slot_count(), 2);
        assert_eq!(out.slots()[0].len(), 1);
        assert_eq!(out.slots()[1].len(), 1);
    }

    #[test]
    fn measurement_queue_is_fifo_per_qubit() {
        let mut pf = layer(1);
        let mut c = Circuit::new();
        c.x(0).measure(0).measure(0);
        // Second measurement sees the same X record (still tracked).
        let _ = process(&mut pf, c);
        assert!(pf.process_measurement(0, false));
        assert!(pf.process_measurement(0, false));
    }
}
