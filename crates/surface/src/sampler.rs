//! Reference-sample Pauli-frame sampling of a Clifford circuit (García &
//! Markov, *Simulation of Quantum Circuits via Stabilizer Frames*,
//! arXiv:1712.03554; Gidney, *Stim*, Quantum 5, 497, 2021).
//!
//! A noisy run of a stabilizer circuit with Pauli noise is a noiseless
//! reference run times a Pauli frame. [`FrameSampler::new`] runs the
//! circuit once, without noise, on the packed [`StabilizerSim`], every
//! random measurement collapsing onto outcome 0, and records each
//! measurement's outcome and each observable's sign. A sample of 64
//! runs then only pushes a [`LanePauliFrame`] through the circuit with
//! the record maps of Tables 3.3–3.5: a measurement reads `reference ⊕
//! flip` and an observable `reference sign ⊕ frame parity`, per lane.
//!
//! Stabilizers of the reference state may join the frame freely, and
//! they must, with a random lane word each (the *gauge*), for
//! measurements that are random in the reference to come out random per
//! lane: the stabilizer each qubit is loaded with (`Z` on `|0⟩`, `X` on
//! `|+⟩`), and `Z` on every freshly reset or measured qubit. A reset
//! clears the record first; a measurement keeps its `X` part, since the
//! lane's qubit stays in the flipped outcome state. A qubit that the
//! circuit resets before any other use takes no load gauge: the reset
//! replaces it.

use qpdo_circuit::{Circuit, Gate, GateKind, OperationKind};
use qpdo_pauli::{LanePauliFrame, Pauli, PauliString};
use qpdo_rng::RngCore;
use qpdo_stabilizer::StabilizerSim;

/// One Clifford circuit's noiseless reference, ready to sample 64 noisy
/// runs per [`sample`](Self::sample).
#[derive(Clone, Debug)]
pub struct FrameSampler {
    circuit: Circuit,
    /// The qubits the circuit uses before any reset, ascending, each
    /// with the stabilizer it is loaded with.
    load: Vec<(usize, Pauli)>,
    /// The qubit of each measurement, in circuit order.
    measured: Vec<usize>,
    /// The reference outcome of each measurement, in circuit order: all
    /// zeros or all ones.
    reference: Vec<u64>,
    /// Each observable's non-identity factors and its reference sign
    /// word (all ones for `-1`).
    observables: Vec<(Vec<(usize, Pauli)>, u64)>,
}

impl FrameSampler {
    /// Runs `circuit` once without noise, from the product state in
    /// which qubit `q` is the `+1` eigenstate of `initial[q]` (`Z`:
    /// `|0⟩`, `X`: `|+⟩`), and records every measurement's
    /// outcome and the sign of each of `observables` after the circuit.
    /// Random measurements, resets included, collapse onto outcome 0.
    ///
    /// The frame absorbs the circuit's Pauli gates in every lane, so the
    /// reference run skips them: each Pauli gate acts in exactly one of
    /// the two.
    ///
    /// # Panics
    ///
    /// Panics if an `initial` entry is not `Z` or `X`, if the circuit has a
    /// non-Clifford gate or a qubit beyond `initial`, or if an
    /// observable is not deterministic after the circuit.
    #[must_use]
    pub fn new(circuit: Circuit, initial: &[Pauli], observables: &[PauliString]) -> Self {
        let mut sim = StabilizerSim::new(initial.len());
        for (q, &p) in initial.iter().enumerate() {
            match p {
                Pauli::X => sim.h(q),
                Pauli::Z => {}
                Pauli::I | Pauli::Y => panic!("qubit {q} must start in |0> (Z) or |+> (X)"),
            }
        }
        let mut used = vec![false; initial.len()];
        let mut load = Vec::new();
        let (mut measured, mut reference) = (Vec::new(), Vec::new());
        for op in circuit.operations() {
            let q = op.qubits();
            for &q in q {
                if !std::mem::replace(&mut used[q], true) && op.kind() != OperationKind::Prep {
                    load.push((q, initial[q]));
                }
            }
            match op.kind() {
                OperationKind::Prep => {
                    if sim.measure_forced(q[0], false) {
                        sim.x(q[0]);
                    }
                }
                OperationKind::Measure => {
                    measured.push(q[0]);
                    reference.push(if sim.measure_forced(q[0], false) {
                        u64::MAX
                    } else {
                        0
                    });
                }
                OperationKind::Gate(gate) => match gate {
                    _ if gate.kind() == GateKind::Pauli => {}
                    Gate::H => sim.h(q[0]),
                    Gate::S => sim.s(q[0]),
                    Gate::Sdg => sim.sdg(q[0]),
                    Gate::Cnot => sim.cnot(q[0], q[1]),
                    Gate::Cz => sim.cz(q[0], q[1]),
                    Gate::Swap => sim.swap(q[0], q[1]),
                    _ => panic!("a frame sampler runs Clifford circuits only, not {op}"),
                },
            }
        }
        load.sort_unstable_by_key(|&(q, _)| q);
        let observables = (observables.iter())
            .map(|observable| {
                let sign = sim
                    .expectation(observable)
                    .unwrap_or_else(|| panic!("observable {observable} is not deterministic"));
                let factors = (observable.iter().enumerate())
                    .filter(|&(_, p)| p != Pauli::I)
                    .collect();
                (factors, if sign { u64::MAX } else { 0 })
            })
            .collect();
        FrameSampler {
            circuit,
            load,
            measured,
            reference,
            observables,
        }
    }

    /// The sampled circuit.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The qubit of each measurement, in circuit order: record `k` of a
    /// [`sample`](Self::sample) is the outcome of measuring
    /// `measured()[k]`.
    #[must_use]
    pub fn measured(&self) -> &[usize] {
        &self.measured
    }

    /// The reference run's outcome of each measurement, in circuit order:
    /// `u64::MAX` for `|1⟩`, else 0.
    #[must_use]
    pub fn reference(&self) -> &[u64] {
        &self.reference
    }

    /// Samples 64 noisy runs of the circuit. On entry `frame` holds each
    /// lane's Pauli errors on the initial state; on return it holds the
    /// lanes' frames after the circuit, for
    /// [`observable_word`](Self::observable_word). Writes each
    /// measurement's outcome word to `records`, in circuit order (bit
    /// `lane` = that lane's outcome).
    ///
    /// Draws one gauge word from `rng` per loaded qubit, ascending, then
    /// one per reset and per measurement, in circuit order.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is smaller than the circuit or `records` has
    /// fewer entries than the circuit has measurements.
    pub fn sample(&self, frame: &mut LanePauliFrame, rng: &mut impl RngCore, records: &mut [u64]) {
        for &(q, p) in &self.load {
            let gauge = rng.next_u64();
            let (x, z) = p.bits();
            frame.apply_pauli_words(q, if x { gauge } else { 0 }, if z { gauge } else { 0 });
        }
        let mut record = 0;
        for slot in self.circuit.slots() {
            for op in slot {
                let q = op.qubits();
                // The record maps `qpdo_core::arch::update_frame` applies,
                // with a syndrome round's CNOT and H in line and every
                // other gate out of line: through `update_frame`, or with
                // every gate in line, a d = 5 round took ~45% longer.
                match op.kind() {
                    OperationKind::Prep => {
                        frame.reset(q[0]);
                        frame.apply_pauli_words(q[0], 0, rng.next_u64());
                    }
                    OperationKind::Measure => {
                        records[record] =
                            self.reference[record] ^ frame.measurement_flip_word(q[0]);
                        record += 1;
                        frame.apply_pauli_words(q[0], 0, rng.next_u64());
                    }
                    OperationKind::Gate(Gate::Cnot) => frame.apply_cnot(q[0], q[1]),
                    OperationKind::Gate(Gate::H) => frame.apply_h(q[0]),
                    OperationKind::Gate(gate) => push_gate(frame, gate, q),
                }
            }
        }
    }

    /// Observable `k`'s value word for the lanes of `frame` after a
    /// [`sample`](Self::sample): bit `lane` is set where it reads `-1`,
    /// the reference sign XOR whether the lane's frame anticommutes with
    /// it. (The gauge part of the frame commutes with a deterministic
    /// observable, so it cancels.)
    ///
    /// # Panics
    ///
    /// Panics if `k` is not an observable index of [`new`](Self::new).
    #[must_use]
    pub fn observable_word(&self, k: usize, frame: &LanePauliFrame) -> u64 {
        let (factors, sign) = &self.observables[k];
        factors.iter().fold(*sign, |acc, &(q, p)| {
            let (x, z) = frame.record_words(q);
            let (px, pz) = p.bits();
            // An X record anticommutes with a Z factor, a Z record with
            // an X factor.
            acc ^ (if pz { x } else { 0 }) ^ (if px { z } else { 0 })
        })
    }
}

/// Maps the records of `qubits` through the Clifford `gate` (a Pauli
/// merges in every lane). [`FrameSampler::sample`] maps the `CNOT` and
/// `H` that make up most of a syndrome round itself and leaves the rare
/// gates to this, out of line.
#[cold]
#[inline(never)]
fn push_gate(frame: &mut LanePauliFrame, gate: Gate, qubits: &[usize]) {
    let q = qubits[0];
    match gate {
        Gate::S => frame.apply_s(q),
        Gate::Sdg => frame.apply_sdg(q),
        Gate::Cz => frame.apply_cz(q, qubits[1]),
        Gate::Swap => frame.apply_swap(q, qubits[1]),
        Gate::X => frame.apply_pauli_words(q, u64::MAX, 0),
        Gate::Y => frame.apply_pauli_words(q, u64::MAX, u64::MAX),
        Gate::Z => frame.apply_pauli_words(q, 0, u64::MAX),
        Gate::I => {}
        Gate::H => frame.apply_h(q),
        Gate::Cnot => frame.apply_cnot(q, qubits[1]),
        Gate::T | Gate::Tdg | Gate::Toffoli => {
            unreachable!("the reference run admits Clifford circuits only")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpdo_circuit::Operation;
    use qpdo_rng::rngs::StdRng;
    use qpdo_rng::SeedableRng;

    /// A Bell pair measured in both qubits, with an `X` gate on the
    /// second qubit between the CNOT and its measurement.
    fn bell_with_x() -> Circuit {
        let mut circuit = Circuit::new();
        circuit.push(Operation::gate(Gate::H, &[0]));
        circuit.push(Operation::gate(Gate::Cnot, &[0, 1]));
        circuit.push(Operation::gate(Gate::X, &[1]));
        circuit.push(Operation::measure(0));
        circuit.push(Operation::measure(1));
        circuit
    }

    #[test]
    fn pauli_gates_go_into_the_frame_and_random_outcomes_stay_random() {
        let mut zz = PauliString::identity(2);
        zz.set_op(0, Pauli::Z);
        zz.set_op(1, Pauli::Z);
        let sampler = FrameSampler::new(bell_with_x(), &[Pauli::Z, Pauli::Z], &[zz]);
        // The reference skips the X: both measurements collapse onto 0,
        // and Z0·Z1 reads +1.
        assert_eq!(sampler.reference(), [0, 0]);
        assert_eq!(sampler.measured(), [0, 1]);
        let mut frame = LanePauliFrame::new(2);
        let mut records = [0u64; 2];
        sampler.sample(&mut frame, &mut StdRng::seed_from_u64(5), &mut records);
        // The X anticorrelates the pair in every lane, while the first
        // outcome is random per lane.
        assert_eq!(records[0] ^ records[1], u64::MAX);
        assert!(records[0] != 0 && records[0] != u64::MAX);
        assert_eq!(sampler.observable_word(0, &frame), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "Clifford circuits only")]
    fn non_clifford_circuits_are_refused() {
        let mut circuit = Circuit::new();
        circuit.push(Operation::gate(Gate::T, &[0]));
        let _ = FrameSampler::new(circuit, &[Pauli::Z], &[]);
    }
}
