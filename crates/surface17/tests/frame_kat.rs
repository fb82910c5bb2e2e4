//! Known-answer test pinning every Pauli-frame tracker's outputs.
//!
//! The Table 3.1 bookkeeping runs in four places — the plain
//! [`PauliFrameLayer`], the fault-tolerant [`ProtectedPauliFrameLayer`],
//! the hardware-model [`PauliArbiter`] (through its Pauli Frame Unit) and
//! the classical-fault LER driver built on the protected layer. This
//! file hard-codes a 64-bit FNV-1a digest of what each one emits on
//! seeded workloads:
//!
//! - `plain/<seed>`: the plain layer's output circuits (`to_string`),
//!   the mapped result of every measurement, its three counters and a
//!   final `drain_flush`, over random circuits that include `I`, `T`,
//!   `T†` and Toffoli as well as preps and measurements;
//! - `protected/<mode>/<seed>`: the same for the protected layer under
//!   nonzero frame-fault rates, plus `protection_stats()` and the
//!   drained fault events, with bypass circuits and whole-frame flushes
//!   between circuits mixed in, and two modes that scrub less often
//!   than every slot;
//! - `ler_classical/<point>`: `run_ler_classical(..).to_record()`;
//! - `arbiter/<seed>`: the arbiter's PEL command stream, its mapped
//!   measurement results, `stats()` and the deadline-miss events under a
//!   slot budget and a transient deadline-overrun rate.
//!
//! On a mismatch the test prints the whole recomputed table ready to
//! paste, which is also how the table was made — against the trackers
//! as they stood before they were folded into one update function.

use qpdo_circuit::{Circuit, Gate, Operation, OperationKind};
use qpdo_core::arch::{PauliArbiter, PelCommand};
use qpdo_core::fault::{FaultPlan, FaultRates};
use qpdo_core::{
    FrameProtectionConfig, Layer, LayerContext, PauliFrameLayer, ProtectedPauliFrameLayer,
};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_surface17::experiment::{
    run_ler_classical, ClassicalFaultConfig, LerConfig, LogicalErrorKind,
};

/// 64-bit FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(b"\n");
    }

    fn num(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }
}

const QUBITS: usize = 6;

/// A random operation over `QUBITS` qubits: any gate of [`Gate::ALL`]
/// (Toffoli included), a prep or a measurement.
fn random_op(rng: &mut StdRng) -> Operation {
    let pick = rng.gen_range(0..Gate::ALL.len() + 2);
    let mut qubits = [0usize; 3];
    let mut k = 0;
    let arity = match pick.checked_sub(2) {
        Some(i) => Gate::ALL[i].arity(),
        None => 1,
    };
    while k < arity {
        let q = rng.gen_range(0..QUBITS);
        if !qubits[..k].contains(&q) {
            qubits[k] = q;
            k += 1;
        }
    }
    match pick {
        0 => Operation::prep(qubits[0]),
        1 => Operation::measure(qubits[0]),
        i => Operation::gate(Gate::ALL[i - 2], &qubits[..arity]),
    }
}

fn random_circuit(rng: &mut StdRng, ops: usize) -> Circuit {
    let mut circuit = Circuit::new();
    for _ in 0..ops {
        circuit.push(random_op(rng));
    }
    circuit
}

/// Feeds one circuit through `layer` and folds its output, then maps a
/// random raw result for every measurement of the input, in order.
fn run_circuit(
    layer: &mut dyn Layer,
    circuit: Circuit,
    bypass: bool,
    rng: &mut StdRng,
    fnv: &mut Fnv,
) {
    let measured: Vec<usize> = circuit
        .operations()
        .filter(|op| op.kind() == OperationKind::Measure)
        .map(|op| op.qubits()[0])
        .collect();
    let mut ctx_rng = StdRng::seed_from_u64(0);
    let mut ctx = LayerContext {
        rng: &mut ctx_rng,
        bypass,
    };
    let out = layer.process_circuit(circuit, &mut ctx);
    fnv.text(&out.to_string());
    for q in measured {
        let raw = rng.gen::<bool>();
        fnv.num(u64::from(layer.process_measurement(q, raw)));
    }
}

fn fold_flush(layer: &mut dyn Layer, fnv: &mut Fnv) {
    match layer.drain_flush() {
        Some(flush) => fnv.text(&flush.to_string()),
        None => fnv.text("none"),
    }
}

fn plain_digest(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fnv = Fnv::new();
    let mut layer = PauliFrameLayer::new();
    layer.on_create_qubits(QUBITS);
    for round in 0..24 {
        let circuit = random_circuit(&mut rng, 40);
        run_circuit(&mut layer, circuit, false, &mut rng, &mut fnv);
        if round % 7 == 6 {
            fold_flush(&mut layer, &mut fnv);
        }
        fnv.num(layer.filtered_gates());
        fnv.num(layer.filtered_slots());
        fnv.num(layer.flush_gates_emitted());
    }
    fnv.text(&layer.frame().to_string());
    fold_flush(&mut layer, &mut fnv);
    fnv.num(layer.flush_gates_emitted());
    fnv.0
}

fn protected_digest(config: FrameProtectionConfig, rate: f64, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fnv = Fnv::new();
    let mut layer = ProtectedPauliFrameLayer::with_config(config);
    layer.set_fault_plan(FaultPlan::new(FaultRates::frame_only(rate), seed ^ 0x5eed).unwrap());
    layer.on_create_qubits(QUBITS);
    let mut events = 0u64;
    for round in 0..24 {
        let circuit = random_circuit(&mut rng, 40);
        run_circuit(&mut layer, circuit, round % 5 == 4, &mut rng, &mut fnv);
        if round % 7 == 6 {
            fold_flush(&mut layer, &mut fnv);
        }
        fnv.num(layer.filtered_gates());
        fnv.num(layer.filtered_slots());
        fnv.num(layer.flush_gates_emitted());
        fnv.text(&format!("{:?}", layer.protection_stats()));
        for event in layer.drain_fault_events() {
            events += 1;
            fnv.text(&format!("{event:?}"));
        }
    }
    fnv.text(&layer.frame().to_string());
    fold_flush(&mut layer, &mut fnv);
    fnv.num(layer.flush_gates_emitted());
    fnv.num(layer.injected_faults());
    fnv.num(events);
    fnv.0
}

fn arbiter_digest(budget: u64, overrun: f64, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fnv = Fnv::new();
    let mut arbiter = PauliArbiter::new(QUBITS);
    arbiter.set_slot_budget(Some(budget));
    let rates = FaultRates {
        deadline_overrun: overrun,
        ..FaultRates::zero()
    };
    arbiter.set_fault_plan(FaultPlan::new(rates, seed ^ 0xa4b1).unwrap());
    for _ in 0..200 {
        arbiter.begin_time_slot();
        for _ in 0..rng.gen_range(1..6) {
            let op = random_op(&mut rng);
            for PelCommand::Execute(cmd) in arbiter.dispatch(&op).unwrap() {
                fnv.text(&cmd.to_string());
            }
            if op.kind() == OperationKind::Measure {
                let raw = rng.gen::<bool>();
                fnv.num(u64::from(arbiter.map_measurement(op.qubits()[0], raw)));
            }
        }
        fnv.text("|");
    }
    fnv.text(&format!("{:?}", arbiter.stats()));
    for event in arbiter.drain_fault_events() {
        fnv.text(&format!("{event:?}"));
    }
    fnv.text(&arbiter.pfu().to_string());
    fnv.0
}

fn ler_classical_record(rate: f64, protection: FrameProtectionConfig, seed: u64) -> String {
    let config = LerConfig {
        physical_error_rate: 2e-3,
        kind: LogicalErrorKind::XL,
        with_pauli_frame: true,
        target_logical_errors: 3,
        max_windows: 40,
        seed,
    };
    let classical = ClassicalFaultConfig::frame_flips(rate, protection, seed ^ 0xc1a5);
    run_ler_classical(&config, &classical).unwrap().to_record()
}

/// The protection modes under test, by name. The last two scrub less
/// often than every slot, so faults sit unscrubbed across operations
/// and the per-operation parity rules show in the output.
fn modes() -> [(&'static str, FrameProtectionConfig); 5] {
    [
        ("protected", FrameProtectionConfig::protected()),
        ("detect_only", FrameProtectionConfig::detect_only()),
        ("unprotected", FrameProtectionConfig::unprotected()),
        (
            "checkpoint_scrub3",
            FrameProtectionConfig {
                parity: true,
                checkpoint: true,
                scrub_interval_slots: 3,
            },
        ),
        (
            "detect_round_only",
            FrameProtectionConfig {
                parity: true,
                checkpoint: false,
                scrub_interval_slots: 0,
            },
        ),
    ]
}

/// Every pinned digest, keyed by workload, in a fixed order.
fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for seed in [1u64, 2, 3, 2016] {
        out.push((format!("plain/{seed}"), plain_digest(seed)));
    }
    for (name, config) in modes() {
        for (rate, seed) in [(0.01, 11u64), (0.05, 12), (0.2, 13)] {
            out.push((
                format!("protected/{name}/{rate}/{seed}"),
                protected_digest(config, rate, seed),
            ));
        }
    }
    for (name, config) in modes().into_iter().take(3) {
        for (rate, seed) in [(0.0, 21u64), (0.02, 22)] {
            let mut fnv = Fnv::new();
            fnv.text(&ler_classical_record(rate, config, seed));
            out.push((format!("ler_classical/{name}/{rate}/{seed}"), fnv.0));
        }
    }
    for (budget, overrun, seed) in [(2u64, 0.0, 31u64), (3, 0.1, 32), (4, 0.3, 33), (0, 0.0, 34)] {
        out.push((
            format!("arbiter/{budget}/{overrun}/{seed}"),
            arbiter_digest(budget, overrun, seed),
        ));
    }
    out
}

const PINNED: &[(&str, u64)] = &[
    ("plain/1", 0x0a56a5dab6690b51),
    ("plain/2", 0x601e82618539a2b6),
    ("plain/3", 0xb07d08ee1145ff92),
    ("plain/2016", 0x9fcb134294466b61),
    ("protected/protected/0.01/11", 0xccfa870d305d2b1f),
    ("protected/protected/0.05/12", 0xac378333d2477eaf),
    ("protected/protected/0.2/13", 0xe1336ec01c914e8b),
    ("protected/detect_only/0.01/11", 0x51c7ec4ed7bfe5d0),
    ("protected/detect_only/0.05/12", 0x43d278559803747f),
    ("protected/detect_only/0.2/13", 0x9e20639df7b51f76),
    ("protected/unprotected/0.01/11", 0x3472170a164f8862),
    ("protected/unprotected/0.05/12", 0x6d0d8d5e5abdfc35),
    ("protected/unprotected/0.2/13", 0xa384e99c48af82b7),
    ("protected/checkpoint_scrub3/0.01/11", 0xc874f1be6099d152),
    ("protected/checkpoint_scrub3/0.05/12", 0xac1ced1b7b9a74d1),
    ("protected/checkpoint_scrub3/0.2/13", 0x688140bc39277336),
    ("protected/detect_round_only/0.01/11", 0x70d0af7bd56c810b),
    ("protected/detect_round_only/0.05/12", 0xe6b8a8a0cc96d79a),
    ("protected/detect_round_only/0.2/13", 0xf1d1cf89fbcd4c8d),
    ("ler_classical/protected/0/21", 0xf95b120ff0f2ee9b),
    ("ler_classical/protected/0.02/22", 0xecfdcc95fa6a3b9c),
    ("ler_classical/detect_only/0/21", 0x3cb41392e04389cd),
    ("ler_classical/detect_only/0.02/22", 0xeaf614f2361ae62a),
    ("ler_classical/unprotected/0/21", 0x32c5b3134c83ccc0),
    ("ler_classical/unprotected/0.02/22", 0x880831fd2c5cfb95),
    ("arbiter/2/0/31", 0x0c87c720789ffd2b),
    ("arbiter/3/0.1/32", 0xb16e8ad0ecf06b0d),
    ("arbiter/4/0.3/33", 0x45a4a419ac950b15),
    ("arbiter/0/0/34", 0x59a8a7ee99932273),
];

#[test]
fn frame_trackers_match_the_pinned_digests() {
    let got = digests();
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    if got != pinned {
        println!("const PINNED: &[(&str, u64)] = &[");
        for (key, digest) in &got {
            println!("    (\"{key}\", 0x{digest:016x}),");
        }
        println!("];");
        panic!("frame tracker digests moved; recomputed table printed above");
    }
}
