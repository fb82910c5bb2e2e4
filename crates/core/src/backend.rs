use qpdo_circuit::{Gate, Operation, OperationKind};
use qpdo_rng::RngCore;
use qpdo_stabilizer::{CliffordTableau, StabilizerSim};
use qpdo_statevector::StateVector;

use crate::{CoreError, QuantumState};

/// A simulation core: the bottom layer of every control stack (Fig 4.3b).
///
/// Cores execute individual operations against a quantum back-end and
/// report measurement outcomes. The two implementations mirror the paper's
/// back-ends: [`ChpCore`] (stabilizer) and [`SvCore`] (universal
/// state-vector).
pub trait Core {
    /// A short back-end name for logs and reports.
    fn name(&self) -> &'static str;

    /// The number of allocated qubits.
    fn num_qubits(&self) -> usize;

    /// Allocates `n` additional qubits in `|0⟩` (the paper's
    /// `createqubit(size)`).
    ///
    /// # Errors
    ///
    /// Returns an error if the back-end cannot hold the requested register.
    fn create_qubits(&mut self, n: usize) -> Result<(), CoreError>;

    /// Deallocates the entire register (the supported form of the paper's
    /// `removequbit()` — see [`CoreError::UnsupportedDeallocation`]).
    fn remove_all_qubits(&mut self);

    /// Whether this back-end can execute `gate`.
    fn supports_gate(&self, gate: Gate) -> bool;

    /// Executes a single operation. Returns `Some(outcome)` for
    /// measurements, `None` otherwise.
    ///
    /// # Errors
    ///
    /// Returns an error for unsupported gates or out-of-range qubits.
    fn apply(&mut self, op: &Operation, rng: &mut dyn RngCore) -> Result<Option<bool>, CoreError>;

    /// The quantum-state dump, if the back-end supports one.
    ///
    /// # Errors
    ///
    /// Returns an error when no qubits are allocated or the dump is
    /// unsupported.
    fn quantum_state(&self) -> Result<QuantumState, CoreError>;
}

fn check_qubits(op: &Operation, allocated: usize) -> Result<(), CoreError> {
    for &q in op.qubits() {
        if q >= allocated {
            return Err(CoreError::QubitOutOfRange {
                qubit: q,
                allocated,
            });
        }
    }
    Ok(())
}

/// Stabilizer simulation core — the stand-in for CHP (Section 4.1.2).
/// Fast, memory-light, Clifford gates only.
///
/// Generic over the tableau engine: the default `T = `[`StabilizerSim`]
/// is the word-packed production engine; any other
/// [`CliffordTableau`] (e.g. the reference oracle) slots in for
/// differential testing without touching the control stack above.
///
/// # Example
///
/// ```
/// use qpdo_core::{ChpCore, Core};
/// use qpdo_circuit::Gate;
///
/// let core = ChpCore::new();
/// assert!(core.supports_gate(Gate::Cnot));
/// assert!(!core.supports_gate(Gate::T));
/// ```
#[derive(Clone, Debug)]
pub struct ChpCore<T: CliffordTableau = StabilizerSim> {
    sim: Option<T>,
}

// Manual impl: a derived `Default` would demand `T: Default`, which the
// tableau contract deliberately does not include (engines are built via
// `with_qubits`).
impl<T: CliffordTableau> Default for ChpCore<T> {
    fn default() -> Self {
        ChpCore { sim: None }
    }
}

impl ChpCore {
    /// An empty stabilizer core over the packed production engine.
    #[must_use]
    pub fn new() -> Self {
        ChpCore::default()
    }
}

impl<T: CliffordTableau> ChpCore<T> {
    /// An empty stabilizer core over an explicit tableau engine `T`.
    #[must_use]
    pub fn empty() -> Self {
        ChpCore::default()
    }

    /// Direct access to the underlying simulator, if qubits exist.
    #[must_use]
    pub fn simulator(&self) -> Option<&T> {
        self.sim.as_ref()
    }

    /// Mutable access to the underlying simulator, if qubits exist.
    #[must_use]
    pub fn simulator_mut(&mut self) -> Option<&mut T> {
        self.sim.as_mut()
    }
}

impl<T: CliffordTableau> Core for ChpCore<T> {
    fn name(&self) -> &'static str {
        T::BACKEND_NAME
    }

    fn num_qubits(&self) -> usize {
        self.sim.as_ref().map_or(0, T::num_qubits)
    }

    fn create_qubits(&mut self, n: usize) -> Result<(), CoreError> {
        if n == 0 {
            return Ok(());
        }
        match &mut self.sim {
            Some(sim) => sim.grow(n),
            None => self.sim = Some(T::with_qubits(n)),
        }
        Ok(())
    }

    fn remove_all_qubits(&mut self) {
        self.sim = None;
    }

    fn supports_gate(&self, gate: Gate) -> bool {
        !gate.is_non_clifford()
    }

    fn apply(&mut self, op: &Operation, rng: &mut dyn RngCore) -> Result<Option<bool>, CoreError> {
        let allocated = self.num_qubits();
        check_qubits(op, allocated)?;
        let sim = self.sim.as_mut().ok_or(CoreError::NoQubits)?;
        let q = op.qubits();
        match op.kind() {
            OperationKind::Prep => {
                sim.reset(q[0], rng);
                Ok(None)
            }
            OperationKind::Measure => Ok(Some(sim.measure(q[0], rng))),
            OperationKind::Gate(gate) => {
                match gate {
                    Gate::I => {}
                    Gate::X => sim.x(q[0]),
                    Gate::Y => sim.y(q[0]),
                    Gate::Z => sim.z(q[0]),
                    Gate::H => sim.h(q[0]),
                    Gate::S => sim.s(q[0]),
                    Gate::Sdg => sim.sdg(q[0]),
                    Gate::Cnot => sim.cnot(q[0], q[1]),
                    Gate::Cz => sim.cz(q[0], q[1]),
                    Gate::Swap => sim.swap(q[0], q[1]),
                    Gate::T | Gate::Tdg | Gate::Toffoli => {
                        return Err(CoreError::UnsupportedGate(gate))
                    }
                }
                Ok(None)
            }
        }
    }

    fn quantum_state(&self) -> Result<QuantumState, CoreError> {
        let sim = self.sim.as_ref().ok_or(CoreError::NoQubits)?;
        Ok(QuantumState::Stabilizers(sim.canonical_stabilizers()))
    }
}

/// Universal state-vector core backed by [`StateVector`] — the stand-in
/// for the QX Simulator (Section 4.1.1). Simulates every supported gate,
/// limited to ~30 qubits.
///
/// # Example
///
/// ```
/// use qpdo_core::{Core, SvCore};
/// use qpdo_circuit::Gate;
///
/// let core = SvCore::new();
/// assert!(core.supports_gate(Gate::Toffoli));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SvCore {
    sim: Option<StateVector>,
}

impl SvCore {
    /// An empty state-vector core (no qubits yet).
    #[must_use]
    pub fn new() -> Self {
        SvCore::default()
    }

    /// Direct access to the underlying simulator, if qubits exist.
    #[must_use]
    pub fn simulator(&self) -> Option<&StateVector> {
        self.sim.as_ref()
    }

    /// Mutable access to the underlying simulator, if qubits exist.
    #[must_use]
    pub fn simulator_mut(&mut self) -> Option<&mut StateVector> {
        self.sim.as_mut()
    }
}

impl Core for SvCore {
    fn name(&self) -> &'static str {
        "statevector"
    }

    fn num_qubits(&self) -> usize {
        self.sim.as_ref().map_or(0, StateVector::num_qubits)
    }

    fn create_qubits(&mut self, n: usize) -> Result<(), CoreError> {
        if n == 0 {
            return Ok(());
        }
        if self.num_qubits() + n > 30 {
            return Err(CoreError::RegisterTooLarge {
                requested: self.num_qubits() + n,
                maximum: 30,
            });
        }
        match &mut self.sim {
            Some(sim) => sim.grow(n),
            None => self.sim = Some(StateVector::new(n)),
        }
        Ok(())
    }

    fn remove_all_qubits(&mut self) {
        self.sim = None;
    }

    fn supports_gate(&self, _gate: Gate) -> bool {
        true
    }

    fn apply(&mut self, op: &Operation, rng: &mut dyn RngCore) -> Result<Option<bool>, CoreError> {
        let allocated = self.num_qubits();
        check_qubits(op, allocated)?;
        let sim = self.sim.as_mut().ok_or(CoreError::NoQubits)?;
        let q = op.qubits();
        match op.kind() {
            OperationKind::Prep => {
                sim.reset(q[0], rng);
                Ok(None)
            }
            OperationKind::Measure => Ok(Some(sim.measure(q[0], rng))),
            OperationKind::Gate(gate) => {
                match gate {
                    Gate::I => {}
                    Gate::X => sim.x(q[0]),
                    Gate::Y => sim.y(q[0]),
                    Gate::Z => sim.z(q[0]),
                    Gate::H => sim.h(q[0]),
                    Gate::S => sim.s(q[0]),
                    Gate::Sdg => sim.sdg(q[0]),
                    Gate::T => sim.t(q[0]),
                    Gate::Tdg => sim.tdg(q[0]),
                    Gate::Cnot => sim.cnot(q[0], q[1]),
                    Gate::Cz => sim.cz(q[0], q[1]),
                    Gate::Swap => sim.swap(q[0], q[1]),
                    Gate::Toffoli => sim.toffoli(q[0], q[1], q[2]),
                }
                Ok(None)
            }
        }
    }

    fn quantum_state(&self) -> Result<QuantumState, CoreError> {
        let sim = self.sim.as_ref().ok_or(CoreError::NoQubits)?;
        Ok(QuantumState::Amplitudes(sim.amplitudes().to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpdo_rng::rngs::StdRng;
    use qpdo_rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn chp_core_basics() {
        let mut core = ChpCore::new();
        assert_eq!(core.num_qubits(), 0);
        assert!(core.quantum_state().is_err());
        core.create_qubits(2).unwrap();
        assert_eq!(core.num_qubits(), 2);
        let mut rng = rng();
        core.apply(&Operation::gate(Gate::X, &[0]), &mut rng)
            .unwrap();
        let m = core
            .apply(&Operation::measure(0), &mut rng)
            .unwrap()
            .unwrap();
        assert!(m);
        core.create_qubits(3).unwrap();
        assert_eq!(core.num_qubits(), 5);
    }

    #[test]
    fn chp_rejects_non_clifford() {
        let mut core = ChpCore::new();
        core.create_qubits(1).unwrap();
        let err = core
            .apply(&Operation::gate(Gate::T, &[0]), &mut rng())
            .unwrap_err();
        assert_eq!(err, CoreError::UnsupportedGate(Gate::T));
    }

    #[test]
    fn sv_core_supports_all_gates() {
        let mut core = SvCore::new();
        core.create_qubits(3).unwrap();
        let mut rng = rng();
        for gate in Gate::ALL {
            let qs: Vec<usize> = (0..gate.arity()).collect();
            core.apply(&Operation::gate(gate, &qs), &mut rng).unwrap();
        }
    }

    #[test]
    fn out_of_range_reported() {
        let mut core = ChpCore::new();
        core.create_qubits(2).unwrap();
        let err = core.apply(&Operation::measure(5), &mut rng()).unwrap_err();
        assert_eq!(
            err,
            CoreError::QubitOutOfRange {
                qubit: 5,
                allocated: 2
            }
        );
    }

    #[test]
    fn cores_agree_on_clifford_circuit() {
        // A deterministic Clifford sequence ends in the same measurement
        // outcomes on both back-ends.
        let mut rng1 = rng();
        let mut rng2 = rng();
        let mut chp = ChpCore::new();
        let mut sv = SvCore::new();
        chp.create_qubits(2).unwrap();
        sv.create_qubits(2).unwrap();
        let ops = [
            Operation::gate(Gate::X, &[0]),
            Operation::gate(Gate::Cnot, &[0, 1]),
            Operation::gate(Gate::H, &[0]),
            Operation::gate(Gate::H, &[0]),
        ];
        for op in &ops {
            chp.apply(op, &mut rng1).unwrap();
            sv.apply(op, &mut rng2).unwrap();
        }
        for q in 0..2 {
            let a = chp.apply(&Operation::measure(q), &mut rng1).unwrap();
            let b = sv.apply(&Operation::measure(q), &mut rng2).unwrap();
            assert_eq!(a, b, "qubit {q}");
        }
    }

    #[test]
    fn quantum_state_dumps() {
        let mut rng = rng();
        let mut chp = ChpCore::new();
        chp.create_qubits(1).unwrap();
        chp.apply(&Operation::gate(Gate::H, &[0]), &mut rng)
            .unwrap();
        let dump = chp.quantum_state().unwrap();
        assert!(dump.stabilizers().is_some());

        let mut sv = SvCore::new();
        sv.create_qubits(1).unwrap();
        let dump = sv.quantum_state().unwrap();
        assert_eq!(dump.amplitudes().unwrap().len(), 2);
    }

    #[test]
    fn remove_all_resets() {
        let mut core = ChpCore::new();
        core.create_qubits(4).unwrap();
        core.remove_all_qubits();
        assert_eq!(core.num_qubits(), 0);
    }

    #[test]
    fn sv_core_qubit_limit() {
        let mut core = SvCore::new();
        assert!(core.create_qubits(31).is_err());
        core.create_qubits(10).unwrap();
        assert!(core.create_qubits(25).is_err());
    }
}
