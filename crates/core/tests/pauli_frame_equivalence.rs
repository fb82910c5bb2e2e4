//! The paper's Section 5.2 verification at test scale: executing random
//! circuits with and without a Pauli-frame layer yields the same final
//! quantum state up to global phase, and the same measurement statistics.

use qpdo_circuit::Circuit;
use qpdo_core::testbench::{pauli_frame_check, random_circuit};
use qpdo_core::{ControlStack, PauliFrameLayer, SvCore};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::SeedableRng;

#[test]
fn random_circuits_equivalent_with_and_without_frame() {
    // Scaled-down version of the paper's 100 × (10 qubits, 1000 gates):
    // the experiment binary runs the full size; tests stay quick. The
    // check compares every amplitude of the flushed framed state with the
    // reference up to global phase within 1e-9, and the filtered gates
    // with the circuit's Paulis.
    for trial in 0..20u64 {
        let (filtered, _) = pauli_frame_check(5, 60, 1000 + trial, 1e-9, &mut |_| {})
            .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        assert!(filtered > 0, "trial {trial}: no Pauli gate was tracked");
    }
}

#[test]
fn frame_really_filters_gates() {
    let mut workload_rng = StdRng::seed_from_u64(99);
    let circuit = random_circuit(4, 200, &mut workload_rng);
    let paulis = circuit.census().pauli_gates as u64;
    assert!(paulis > 0, "random circuit should contain Pauli gates");

    let mut framed = ControlStack::with_seed(SvCore::new(), 99);
    framed.push_layer(PauliFrameLayer::new());
    framed.create_qubits(4).unwrap();
    framed.execute_now(circuit).unwrap();
    let pf: &PauliFrameLayer = framed.find_layer().unwrap();
    assert_eq!(pf.filtered_gates(), paulis);
}

#[test]
fn deterministic_measurements_agree() {
    // Measure after a deterministic Clifford prefix: outcomes match
    // between the framed and unframed stacks bit for bit.
    for trial in 0..10u64 {
        let mut circuit = Circuit::new();
        circuit.prep_all(3);
        circuit.x(0).h(1).h(1).y(2).z(0);
        circuit.cnot(0, 1).cnot(0, 2);
        circuit.measure_all(3);

        let mut reference = ControlStack::with_seed(SvCore::new(), trial);
        reference.create_qubits(3).unwrap();
        reference.execute_now(circuit.clone()).unwrap();

        let mut framed = ControlStack::with_seed(SvCore::new(), trial);
        framed.push_layer(PauliFrameLayer::new());
        framed.create_qubits(3).unwrap();
        framed.execute_now(circuit).unwrap();

        for q in 0..3 {
            assert_eq!(
                reference.state().bit(q),
                framed.state().bit(q),
                "trial {trial}, qubit {q}"
            );
        }
    }
}
