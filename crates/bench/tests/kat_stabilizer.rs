//! Golden known-answer tests for the stabilizer kernels.
//!
//! `results/kat_stabilizer.json` pins canonical stabilizers and seeded
//! measurement-outcome streams for three fixed workloads — Bell pair,
//! GHZ-3, and one full Surface-17 ESM round — so any kernel regression
//! (operator bits, sign bits, or RNG draw order) fails this suite
//! loudly with a readable diff.
//!
//! The test regenerates the document from the live engines and
//! byte-compares it against the checked-in file. To bless a legitimate
//! change, run with `QPDO_BLESS_KAT=1` and commit the rewritten file.
//! A second test regenerates the same document on the cell-per-entry
//! `ReferenceTableau` and demands byte-equality with the packed output.

use std::path::PathBuf;

use qpdo_bench::json::Json;
use qpdo_circuit::OperationKind;
use qpdo_core::{ChpCore, Core};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::SeedableRng;
use qpdo_stabilizer::ReferenceTableau;
use qpdo_surface17::{esm_circuit, DanceMode, Rotation, StarLayout};

const SEED: u64 = 0x4B41_5400; // "KAT\0"

fn kat_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/kat_stabilizer.json")
}

/// Runs `ops` through a core with a seeded RNG; returns the canonical
/// stabilizers plus the outcome stream of every measurement, in order.
fn drive<C: Core>(
    core: &mut C,
    n: usize,
    circuit: &qpdo_circuit::Circuit,
) -> (Vec<String>, String) {
    let mut rng = StdRng::seed_from_u64(SEED);
    core.create_qubits(n).expect("qubits allocate");
    let mut outcomes = String::new();
    for op in circuit.operations() {
        if let Some(outcome) = core.apply(op, &mut rng).expect("operation applies") {
            outcomes.push(if outcome { '1' } else { '0' });
        }
    }
    let stabilizers = match core.quantum_state().expect("state dump") {
        qpdo_core::QuantumState::Stabilizers(gens) => {
            gens.iter().map(ToString::to_string).collect()
        }
        _ => unreachable!("stabilizer cores dump stabilizers"),
    };
    (stabilizers, outcomes)
}

fn bell_circuit() -> qpdo_circuit::Circuit {
    let mut c = qpdo_circuit::Circuit::new();
    c.h(0).cnot(0, 1).measure(0).measure(1);
    c
}

fn ghz_circuit() -> qpdo_circuit::Circuit {
    let mut c = qpdo_circuit::Circuit::new();
    c.h(0)
        .cnot(0, 1)
        .cnot(1, 2)
        .measure(0)
        .measure(1)
        .measure(2);
    c
}

fn esm_round_circuit() -> qpdo_circuit::Circuit {
    esm_circuit(&StarLayout::standard(0), Rotation::Normal, DanceMode::All)
}

fn case<C: Core>(
    make_core: impl Fn() -> C,
    name: &str,
    n: usize,
    circuit: &qpdo_circuit::Circuit,
) -> Json {
    let mut core = make_core();
    let (stabilizers, outcomes) = drive(&mut core, n, circuit);
    let measurements = circuit
        .operations()
        .filter(|op| matches!(op.kind(), OperationKind::Measure))
        .count();
    assert_eq!(
        outcomes.len(),
        measurements,
        "every measurement must report an outcome"
    );
    Json::object([
        ("name", Json::from(name)),
        ("qubits", Json::from(n)),
        ("seed", Json::from(SEED)),
        ("outcomes", Json::from(outcomes)),
        (
            "canonical_stabilizers",
            Json::array(stabilizers.into_iter().map(Json::from)),
        ),
    ])
}

fn generate<C: Core>(make_core: impl Fn() -> C, backend: &str) -> String {
    Json::object([
        ("schema", Json::from("qpdo-kat-stabilizer-v1")),
        ("backend", Json::from(backend)),
        (
            "cases",
            Json::array([
                case(&make_core, "bell", 2, &bell_circuit()),
                case(&make_core, "ghz3", 3, &ghz_circuit()),
                case(&make_core, "sc17_esm_round", 17, &esm_round_circuit()),
            ]),
        ),
    ])
    .pretty()
}

#[test]
fn golden_kat_matches_packed_engine() {
    // The KAT document intentionally omits the backend name from the
    // comparison anchor: both engines must produce these exact bytes.
    let generated = generate(ChpCore::new, "chp");
    let path = kat_path();
    if std::env::var_os("QPDO_BLESS_KAT").is_some() {
        std::fs::write(&path, &generated).expect("KAT file writes");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "cannot read {} ({err}); run with QPDO_BLESS_KAT=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        golden, generated,
        "stabilizer KAT regression — if the change is intentional, \
         regenerate with QPDO_BLESS_KAT=1 and review the diff"
    );
    // The golden file must itself be valid JSON with the pinned schema.
    let doc = Json::parse(&golden).expect("golden KAT parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("qpdo-kat-stabilizer-v1")
    );
    assert_eq!(
        doc.get("cases").and_then(Json::as_array).map(<[_]>::len),
        Some(3)
    );
}

#[test]
fn reference_engine_reproduces_the_same_kat() {
    // Same circuits, same seeds, the other engine: the documents must be
    // identical except for the backend label.
    let packed = generate(ChpCore::new, "chp");
    let reference = generate(ChpCore::<ReferenceTableau>::empty, "chp");
    assert_eq!(
        packed, reference,
        "reference and packed engines disagree on the KAT workloads"
    );
}
