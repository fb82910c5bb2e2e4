//! Ready-to-use test benches (Section 4.2.4) and workload generators.
//!
//! A test bench drives an assembled [`ControlStack`]
//! through a scenario and diagnoses the outcome — independent of which
//! core and layers the stack contains, exactly as in the paper.

use qpdo_circuit::{Circuit, Gate, Operation};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_statevector::Complex;
use qpdo_stats::Histogram;

use crate::{BitState, ControlStack, Core, CoreError, PauliFrameLayer, ShotError, SvCore};

/// The gate set of the paper's random-circuit Pauli-frame verification
/// (Section 5.2.2): `{I, X, Y, Z, H, S, CNOT, CZ, SWAP, T, T†}`.
pub const RANDOM_CIRCUIT_GATES: [Gate; 11] = [
    Gate::I,
    Gate::X,
    Gate::Y,
    Gate::Z,
    Gate::H,
    Gate::S,
    Gate::Cnot,
    Gate::Cz,
    Gate::Swap,
    Gate::T,
    Gate::Tdg,
];

/// Generates a random circuit of `gates` operations over `qubits` qubits,
/// drawn uniformly from [`RANDOM_CIRCUIT_GATES`] (Fig 5.4).
///
/// # Panics
///
/// Panics if `qubits < 2` (two-qubit gates need operands).
#[must_use]
pub fn random_circuit<R: Rng + ?Sized>(qubits: usize, gates: usize, rng: &mut R) -> Circuit {
    assert!(qubits >= 2, "random circuits need at least two qubits");
    let mut circuit = Circuit::new();
    for _ in 0..gates {
        let gate = RANDOM_CIRCUIT_GATES[rng.gen_range(0..RANDOM_CIRCUIT_GATES.len())];
        match gate.arity() {
            1 => {
                let q = rng.gen_range(0..qubits);
                circuit.apply(gate, q);
            }
            2 => {
                let a = rng.gen_range(0..qubits);
                let mut b = rng.gen_range(0..qubits - 1);
                if b >= a {
                    b += 1;
                }
                circuit.push(Operation::gate(gate, &[a, b]));
            }
            _ => unreachable!("random gate set is 1- and 2-qubit only"),
        }
    }
    circuit
}

/// The salt between a [`pauli_frame_check`] seed and the
/// stream its circuit is drawn from: `seed ^ WORKLOAD_SALT`.
pub const WORKLOAD_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// What [`pauli_frame_check`] shows its `inspect` hook: the
/// circuit and both stacks after executing it, once before the frame is
/// flushed and once after.
pub struct FrameCheckView<'a> {
    /// The random circuit both stacks ran.
    pub circuit: &'a Circuit,
    /// The stack without a Pauli frame.
    pub reference: &'a ControlStack<SvCore>,
    /// The stack with a Pauli-frame layer.
    pub framed: &'a ControlStack<SvCore>,
    /// Whether the framed stack's frame has been flushed.
    pub flushed: bool,
}

/// The random-circuit Pauli-frame check of Section 5.2.2 (E4): runs a
/// [`random_circuit`] of `gates` gates on `qubits` qubits, drawn from
/// `seed ^ `[`WORKLOAD_SALT`], on a state-vector stack without a frame
/// and on one with a [`PauliFrameLayer`], both seeded with `seed`. The
/// frame must filter exactly the circuit's Pauli gates, and after
/// flushing it the framed state must equal the reference up to a global
/// phase, amplitude by amplitude within `tol`
/// ([`StateVector::global_phase_to`]). Returns the filtered-gate count and
/// that phase (`framed = phase · reference`).
///
/// [`StateVector::global_phase_to`]: qpdo_statevector::StateVector::global_phase_to
///
/// # Errors
///
/// Returns [`ShotError::Divergence`] when either check fails, and
/// propagates stack errors.
///
/// # Panics
///
/// Panics if `qubits < 2`, as [`random_circuit`] does.
pub fn pauli_frame_check(
    qubits: usize,
    gates: usize,
    seed: u64,
    tol: f64,
    inspect: &mut dyn FnMut(&FrameCheckView<'_>),
) -> Result<(u64, Complex), ShotError> {
    let mut workload_rng = StdRng::seed_from_u64(seed ^ WORKLOAD_SALT);
    let circuit = random_circuit(qubits, gates, &mut workload_rng);
    let paulis = circuit.census().pauli_gates as u64;

    let mut reference = ControlStack::with_seed(SvCore::new(), seed);
    reference.create_qubits(qubits)?;
    reference.execute_now(circuit.clone())?;

    let mut framed = ControlStack::with_seed(SvCore::new(), seed);
    framed.push_layer(PauliFrameLayer::new());
    framed.create_qubits(qubits)?;
    framed.execute_now(circuit.clone())?;
    let mut view = |framed: &ControlStack<SvCore>, flushed| {
        inspect(&FrameCheckView {
            circuit: &circuit,
            reference: &reference,
            framed,
            flushed,
        });
    };
    view(&framed, false);
    let filtered = framed
        .find_layer()
        .map_or(0, PauliFrameLayer::filtered_gates);
    if filtered != paulis {
        return Err(ShotError::Divergence {
            detail: format!("{filtered} gates filtered, circuit holds {paulis} Paulis"),
        });
    }
    framed.flush_pauli_frames()?;
    view(&framed, true);

    let (Some(a), Some(b)) = (reference.core().simulator(), framed.core().simulator()) else {
        return Err(CoreError::NoQubits.into());
    };
    match a.global_phase_to(b, tol) {
        Some(phase) => Ok((filtered, phase)),
        None => Err(ShotError::Divergence {
            detail: "framed state differs from reference beyond global phase".to_owned(),
        }),
    }
}

/// The Bell-state histogram test bench (`BellStateHistoTb`): prepares a
/// (possibly odd) Bell state repeatedly and histograms the measurement
/// outcomes.
///
/// With `odd = true` the circuit of Fig 5.6 is used, producing
/// `(|01⟩ + |10⟩)/√2`.
#[derive(Clone, Copy, Debug)]
pub struct BellStateHistoTb {
    /// Number of prepare-measure iterations.
    pub shots: usize,
    /// Append the `X` that turns the Bell state into the odd Bell state.
    pub odd: bool,
}

impl BellStateHistoTb {
    /// Runs the bench against a two-qubit (or larger) stack.
    ///
    /// # Errors
    ///
    /// Propagates stack errors.
    pub fn run<C: Core>(&self, stack: &mut ControlStack<C>) -> Result<Histogram, CoreError> {
        let mut histogram = Histogram::new();
        for label in ["|00>", "|01>", "|10>", "|11>"] {
            histogram.ensure_bin(label);
        }
        for _ in 0..self.shots {
            let mut circuit = Circuit::new();
            circuit.prep(0).prep(1).h(0).cnot(0, 1);
            if self.odd {
                circuit.x(0);
            }
            circuit.measure(0).measure(1);
            stack.execute_now(circuit)?;
            let label = stack
                .state()
                .ket_label(&[0, 1])
                // invariant: the circuit above measures qubits 0 and 1,
                // so both classical bits are defined.
                .expect("both qubits were measured");
            histogram.record(label);
        }
        Ok(histogram)
    }
}

/// One row of the gate-support report produced by [`GateSupportTb`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GateSupportRow {
    /// The gate under test.
    pub gate: Gate,
    /// Whether the stack executed it without error.
    pub supported: bool,
}

/// The gate-support test bench (`GateSupportTb`): runs a canned script
/// exercising every gate against a control stack and reports which ones
/// execute successfully.
#[derive(Clone, Copy, Debug, Default)]
pub struct GateSupportTb;

impl GateSupportTb {
    /// Runs the bench. The stack must have at least 3 qubits.
    ///
    /// # Errors
    ///
    /// Returns an error only for non-gate failures (e.g. no qubits).
    pub fn run<C: Core>(
        &self,
        stack: &mut ControlStack<C>,
    ) -> Result<Vec<GateSupportRow>, CoreError> {
        if stack.num_qubits() < 3 {
            return Err(CoreError::NoQubits);
        }
        let mut report = Vec::new();
        for gate in Gate::ALL {
            let qs: Vec<usize> = (0..gate.arity()).collect();
            let mut circuit = Circuit::new();
            for &q in &qs {
                circuit.prep(q);
            }
            circuit.push(Operation::gate(gate, &qs));
            let supported = match stack.execute_now(circuit) {
                Ok(()) => true,
                Err(CoreError::UnsupportedGate(_)) => false,
                Err(other) => return Err(other),
            };
            report.push(GateSupportRow { gate, supported });
        }
        Ok(report)
    }
}

/// A `Send + Sync` recipe for assembling a fresh control stack from a
/// seed — the shape worker threads of the supervised shot-execution
/// engine expect: each batch builds its own stack on its own thread from
/// a deterministic RNG substream, so nothing is shared between workers.
///
/// # Example
///
/// ```
/// use qpdo_core::testbench::StackFactory;
/// use qpdo_core::{ChpCore, ControlStack, PauliFrameLayer};
///
/// let factory: StackFactory<ChpCore> = Box::new(|seed| {
///     let mut stack = ControlStack::with_seed(ChpCore::new(), seed);
///     stack.push_layer(PauliFrameLayer::new());
///     stack
/// });
/// let stack = factory(7);
/// assert_eq!(stack.layer_count(), 1);
/// ```
pub type StackFactory<C> = Box<dyn Fn(u64) -> ControlStack<C> + Send + Sync>;

/// Measures qubits `0..n` and returns their [`BitState`]s (helper for
/// custom benches).
///
/// # Errors
///
/// Propagates stack errors.
pub fn measure_all<C: Core>(
    stack: &mut ControlStack<C>,
    n: usize,
) -> Result<Vec<BitState>, CoreError> {
    let mut circuit = Circuit::new();
    circuit.measure_all(n);
    stack.execute_now(circuit)?;
    Ok((0..n).map(|q| stack.state().bit(q)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChpCore, PauliFrameLayer, SvCore};
    use qpdo_rng::rngs::StdRng;
    use qpdo_rng::SeedableRng;

    #[test]
    fn random_circuit_respects_size() {
        let mut rng = StdRng::seed_from_u64(20);
        let c = random_circuit(5, 20, &mut rng);
        assert_eq!(c.operation_count(), 20);
        assert!(c.qubit_count() <= 5);
    }

    #[test]
    fn random_circuit_covers_gate_set() {
        let mut rng = StdRng::seed_from_u64(21);
        let c = random_circuit(4, 2000, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for op in c.operations() {
            seen.insert(op.as_gate().unwrap());
        }
        assert_eq!(seen.len(), RANDOM_CIRCUIT_GATES.len());
    }

    #[test]
    fn bell_tb_even_outcomes() {
        let mut stack = ControlStack::with_seed(ChpCore::new(), 22);
        stack.create_qubits(2).unwrap();
        let histo = BellStateHistoTb {
            shots: 64,
            odd: false,
        }
        .run(&mut stack)
        .unwrap();
        assert_eq!(histo.total(), 64);
        assert_eq!(histo.count("|01>"), 0);
        assert_eq!(histo.count("|10>"), 0);
        assert!(histo.count("|00>") > 0);
        assert!(histo.count("|11>") > 0);
    }

    #[test]
    fn odd_bell_tb_with_pauli_frame() {
        // Fig 5.7: with a Pauli frame the histogram must look the same.
        let mut stack = ControlStack::with_seed(ChpCore::new(), 23);
        stack.push_layer(PauliFrameLayer::new());
        stack.create_qubits(2).unwrap();
        let histo = BellStateHistoTb {
            shots: 64,
            odd: true,
        }
        .run(&mut stack)
        .unwrap();
        assert_eq!(histo.count("|00>"), 0);
        assert_eq!(histo.count("|11>"), 0);
        assert_eq!(histo.count("|01>") + histo.count("|10>"), 64);
    }

    #[test]
    fn gate_support_reports() {
        let mut chp = ControlStack::with_seed(ChpCore::new(), 24);
        chp.create_qubits(3).unwrap();
        let report = GateSupportTb.run(&mut chp).unwrap();
        let supported: Vec<Gate> = report
            .iter()
            .filter(|r| r.supported)
            .map(|r| r.gate)
            .collect();
        assert!(supported.contains(&Gate::Cnot));
        assert!(!supported.contains(&Gate::T));

        let mut sv = ControlStack::with_seed(SvCore::new(), 24);
        sv.create_qubits(3).unwrap();
        let report = GateSupportTb.run(&mut sv).unwrap();
        assert!(report.iter().all(|r| r.supported));
    }

    #[test]
    fn gate_support_needs_qubits() {
        let mut stack = ControlStack::with_seed(ChpCore::new(), 25);
        assert!(GateSupportTb.run(&mut stack).is_err());
    }

    #[test]
    fn factories_build_stacks_on_other_threads() {
        let factory: StackFactory<ChpCore> = Box::new(|seed| {
            let mut stack = ControlStack::with_seed(ChpCore::new(), seed);
            stack.push_layer(PauliFrameLayer::new());
            stack
        });
        let handle = std::thread::spawn(move || {
            let mut stack = factory(42);
            stack.create_qubits(2).unwrap();
            BellStateHistoTb {
                shots: 8,
                odd: true,
            }
            .run(&mut stack)
            .unwrap()
            .total()
        });
        assert_eq!(handle.join().unwrap(), 8);
    }
}
