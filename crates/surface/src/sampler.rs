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
//! The same pass compiles the circuit to a flat list of those record
//! maps, its qubits checked once, so a sample is one loop of word XORs
//! over the list.
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

use qpdo_circuit::{Circuit, Gate, OperationKind};
use qpdo_pauli::{LanePauliFrame, Pauli, PauliString};
use qpdo_rng::RngCore;
use qpdo_stabilizer::StabilizerSim;

/// One Clifford circuit's noiseless reference, ready to sample 64 noisy
/// runs per [`sample`](Self::sample).
#[derive(Clone, Debug)]
pub struct FrameSampler {
    /// The frame updates of a sample: the load gauges, then the
    /// circuit's operations in circuit order.
    steps: Vec<Step>,
    /// One more than the highest qubit the circuit touches.
    qubits: usize,
    /// The qubit of each measurement, in circuit order.
    measured: Vec<usize>,
    /// The reference outcome of each measurement, in circuit order: all
    /// zeros or all ones.
    reference: Vec<u64>,
    /// Each observable's non-identity factors and its reference sign
    /// word (all ones for `-1`).
    observables: Vec<(Vec<(usize, Pauli)>, u64)>,
}

/// One frame update of a sample: a load gauge, or an operation of the
/// sampled circuit as the record maps of `qpdo_core::arch::update_frame`
/// act on a [`LanePauliFrame`]. `S` and `S†` share a map; an identity
/// gate compiles to no step.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Load a qubit the circuit uses before any reset: merge its
    /// initial stabilizer in the lanes of a fresh gauge word.
    Load(usize, Pauli),
    /// Clear the record, then take a fresh `Z` gauge.
    Reset(usize),
    /// Read the next record, then take a fresh `Z` gauge.
    Measure(usize),
    H(usize),
    Cnot(usize, usize),
    S(usize),
    Cz(usize, usize),
    Swap(usize, usize),
    /// Merge this Pauli in every lane.
    Pauli(usize, Pauli),
}

impl FrameSampler {
    /// Runs `circuit` once without noise, from the product state in
    /// which qubit `q` is the `+1` eigenstate of `initial[q]` (`Z`:
    /// `|0⟩`, `X`: `|+⟩`), and records every measurement's
    /// outcome and the sign of each of `observables` after the circuit.
    /// Random measurements, resets included, collapse onto outcome 0.
    /// The same pass compiles the circuit to the flat list of frame
    /// updates [`sample`](Self::sample) runs.
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
    pub fn new(circuit: &Circuit, initial: &[Pauli], observables: &[PauliString]) -> Self {
        let mut sim = StabilizerSim::new(initial.len());
        for (q, &p) in initial.iter().enumerate() {
            match p {
                Pauli::X => sim.h(q),
                Pauli::Z => {}
                Pauli::I | Pauli::Y => panic!("qubit {q} must start in |0> (Z) or |+> (X)"),
            }
        }
        let mut used = vec![false; initial.len()];
        let (mut steps, mut load) = (Vec::new(), Vec::new());
        let (mut measured, mut reference) = (Vec::new(), Vec::new());
        for op in circuit.operations() {
            let q = op.qubits();
            for &q in q {
                assert!(
                    q < initial.len(),
                    "{op} acts beyond the {} initial qubits",
                    initial.len()
                );
                if !std::mem::replace(&mut used[q], true) && op.kind() != OperationKind::Prep {
                    load.push((q, initial[q]));
                }
            }
            let step = match op.kind() {
                OperationKind::Prep => {
                    if sim.measure_forced(q[0], false) {
                        sim.x(q[0]);
                    }
                    Step::Reset(q[0])
                }
                OperationKind::Measure => {
                    measured.push(q[0]);
                    reference.push(if sim.measure_forced(q[0], false) {
                        u64::MAX
                    } else {
                        0
                    });
                    Step::Measure(q[0])
                }
                OperationKind::Gate(gate) => match gate {
                    Gate::I => continue,
                    Gate::X => Step::Pauli(q[0], Pauli::X),
                    Gate::Y => Step::Pauli(q[0], Pauli::Y),
                    Gate::Z => Step::Pauli(q[0], Pauli::Z),
                    Gate::H => {
                        sim.h(q[0]);
                        Step::H(q[0])
                    }
                    Gate::S => {
                        sim.s(q[0]);
                        Step::S(q[0])
                    }
                    Gate::Sdg => {
                        sim.sdg(q[0]);
                        Step::S(q[0])
                    }
                    Gate::Cnot => {
                        sim.cnot(q[0], q[1]);
                        Step::Cnot(q[0], q[1])
                    }
                    Gate::Cz => {
                        sim.cz(q[0], q[1]);
                        Step::Cz(q[0], q[1])
                    }
                    Gate::Swap => {
                        sim.swap(q[0], q[1]);
                        Step::Swap(q[0], q[1])
                    }
                    Gate::T | Gate::Tdg | Gate::Toffoli => {
                        panic!("a frame sampler runs Clifford circuits only, not {op}")
                    }
                },
            };
            steps.push(step);
        }
        load.sort_unstable_by_key(|&(q, _)| q);
        let steps = (load.into_iter().map(|(q, p)| Step::Load(q, p)))
            .chain(steps)
            .collect();
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
            steps,
            qubits: used.iter().rposition(|&u| u).map_or(0, |q| q + 1),
            measured,
            reference,
            observables,
        }
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
        assert!(
            frame.len() >= self.qubits,
            "a {}-qubit frame cannot hold a {}-qubit circuit",
            frame.len(),
            self.qubits
        );
        let records = &mut records[..self.reference.len()];
        let (xs, zs) = frame.words_mut();
        let mut record = 0;
        for &step in &self.steps {
            match step {
                Step::Load(q, p) => {
                    let gauge = rng.next_u64();
                    let (x, z) = p.bits();
                    xs[q] ^= if x { gauge } else { 0 };
                    zs[q] ^= if z { gauge } else { 0 };
                }
                Step::Reset(q) => {
                    xs[q] = 0;
                    zs[q] = rng.next_u64();
                }
                Step::Measure(q) => {
                    records[record] = self.reference[record] ^ xs[q];
                    record += 1;
                    zs[q] ^= rng.next_u64();
                }
                Step::H(q) => std::mem::swap(&mut xs[q], &mut zs[q]),
                Step::Cnot(c, t) => {
                    xs[t] ^= xs[c];
                    zs[c] ^= zs[t];
                }
                Step::S(q) => zs[q] ^= xs[q],
                Step::Cz(a, b) => {
                    zs[a] ^= xs[b];
                    zs[b] ^= xs[a];
                }
                Step::Swap(a, b) => {
                    xs.swap(a, b);
                    zs.swap(a, b);
                }
                Step::Pauli(q, p) => {
                    let (x, z) = p.bits();
                    xs[q] ^= if x { u64::MAX } else { 0 };
                    zs[q] ^= if z { u64::MAX } else { 0 };
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
        let sampler = FrameSampler::new(&bell_with_x(), &[Pauli::Z, Pauli::Z], &[zz]);
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
        let _ = FrameSampler::new(&circuit, &[Pauli::Z], &[]);
    }
}
