//! E4: the random-circuit Pauli-frame verification of Section 5.2.2
//! (Listings 5.3–5.6, Fig 5.4).
//!
//! A worked example first reproduces the listing sequence — reference
//! state without a frame, framed state before flushing, the frame
//! contents, the flushed state, and the recovered global phase — then
//! the full test bench runs the paper's 100 iterations of 10-qubit /
//! 1000-gate random circuits (quick mode: 25 × 5 qubits × 200 gates).
//!
//! Each iteration runs as one supervised batch (`DESIGN.md` §7): a
//! reference/framed disagreement is reported as a first-class
//! [`ShotError::Divergence`] and quarantined instead of aborting the
//! sweep, so one bad circuit cannot take down the other 99.

use qpdo_bench::supervisor::{
    read_quarantine_csv, run_supervised, silence_chaos_panics, with_chaos, BatchCtx, BatchSpec,
    CancelToken, ChaosConfig, SupervisorConfig, SupervisorReport, QUARANTINE_HEADER,
};
use qpdo_bench::{HarnessArgs, USAGE};
use qpdo_core::testbench::random_circuit;
use qpdo_core::{ControlStack, PauliFrameLayer, ShotError, SvCore};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::SeedableRng;
use qpdo_statevector::{Complex, StateVector};
use std::collections::HashSet;
use std::path::Path;

fn state_dump(stack: &ControlStack<SvCore>) -> String {
    let dump = stack.quantum_state().expect("quantum state");
    let amps = dump.amplitudes().expect("state-vector core");
    let n = amps.len().trailing_zeros() as usize;
    StateVector::format_amplitudes(amps, n, 1e-6)
}

/// `other = phase * this`, when states match up to global phase.
fn global_phase(a: &[Complex], b: &[Complex], tol: f64) -> Option<Complex> {
    let (anchor, _) = a
        .iter()
        .enumerate()
        .max_by(|x, y| x.1.norm_sqr().total_cmp(&y.1.norm_sqr()))?;
    let (ra, rb) = (a[anchor], b[anchor]);
    if ra.norm() < tol || rb.norm() < tol {
        return None;
    }
    let phase = (rb * ra.conj()).scale(1.0 / ra.norm_sqr());
    a.iter()
        .zip(b)
        .all(|(&x, &y)| (x * phase).approx_eq(y, tol))
        .then_some(phase)
}

/// One supervised iteration: build a random circuit from the batch
/// substream, execute it with and without a Pauli-frame layer, and
/// compare. Returns the number of classically-tracked Pauli gates, or a
/// [`ShotError::Divergence`] when the framed run disagrees with the
/// reference.
fn circuit_job(qubits: usize, gates: usize, ctx: &BatchCtx) -> Result<u64, ShotError> {
    let mut workload_rng = StdRng::seed_from_u64(ctx.seed ^ 0x9E37_79B9_7F4A_7C15);
    let circuit = random_circuit(qubits, gates, &mut workload_rng);
    let paulis = circuit.census().pauli_gates as u64;

    let mut reference = ControlStack::with_seed(SvCore::new(), ctx.seed);
    reference.create_qubits(qubits)?;
    reference.execute_now(circuit.clone())?;

    let mut framed = ControlStack::with_seed(SvCore::new(), ctx.seed);
    framed.push_layer(PauliFrameLayer::new());
    framed.create_qubits(qubits)?;
    framed.execute_now(circuit)?;
    let pf: &PauliFrameLayer = framed
        .find_layer()
        .ok_or_else(|| ShotError::PoolFailure("frame layer vanished".to_owned()))?;
    let filtered = pf.filtered_gates();
    if filtered != paulis {
        return Err(ShotError::Divergence {
            detail: format!("{filtered} gates filtered, circuit holds {paulis} Paulis"),
        });
    }
    framed.flush_pauli_frames()?;

    let a = reference.quantum_state()?;
    let b = framed.quantum_state()?;
    let (a, b) = (
        a.amplitudes().ok_or(qpdo_core::CoreError::NoQubits)?,
        b.amplitudes().ok_or(qpdo_core::CoreError::NoQubits)?,
    );
    if global_phase(a, b, 1e-7).is_none() {
        return Err(ShotError::Divergence {
            detail: "framed state differs from reference beyond global phase".to_owned(),
        });
    }
    Ok(filtered)
}

fn report_engine_events(args: &HarnessArgs, report: &SupervisorReport<u64>) {
    let s = &report.stats;
    if s.retries + s.panics + s.timeouts > 0 || s.degraded_to_serial {
        eprintln!(
            "  supervisor: {} retries, {} panics, {} timeouts, {} replacements{}",
            s.retries,
            s.panics,
            s.timeouts,
            s.replacements,
            if s.degraded_to_serial {
                " [degraded to serial]"
            } else {
                ""
            }
        );
    }
    let path = args.write_csv(
        "quarantine.csv",
        QUARANTINE_HEADER,
        &report.quarantine_rows(),
    );
    if !report.quarantined.is_empty() {
        eprintln!(
            "  {} circuits quarantined -> {}",
            report.quarantined.len(),
            path.display()
        );
    }
}

/// The bench geometry for the current mode (quick vs `--full`):
/// `(iterations, qubits, gates per circuit)`.
fn bench_params(args: &HarnessArgs) -> (u64, usize, usize) {
    if args.full {
        (100, 10, 1000)
    } else {
        (25, 5, 200)
    }
}

/// `--replay-quarantine <csv>`: re-submit exactly the circuit iterations
/// a previous bench quarantined, under the current retry/watchdog flags.
fn replay_quarantine(args: &HarnessArgs, path: &Path) {
    let records = match read_quarantine_csv(path) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", path.display());
            std::process::exit(2);
        }
    };
    if records.is_empty() {
        println!("{}: no quarantined circuits to replay", path.display());
        return;
    }
    let (iterations, qubits, gates) = bench_params(args);
    let mut wanted: HashSet<String> = records.iter().map(|r| r.key.clone()).collect();
    let specs: Vec<BatchSpec> = (0..iterations)
        .filter(|i| wanted.remove(&format!("rc-i{i}")))
        .map(|i| BatchSpec {
            key: format!("rc-i{i}"),
            point: "rc".to_owned(),
            batch: i,
            shots: 1,
            deadline: None,
        })
        .collect();
    for unknown in &wanted {
        eprintln!(
            "  warning: quarantined key {unknown:?} does not name a circuit of this bench \
             (check --full/--quick and --seed match the original run)"
        );
    }
    if specs.is_empty() {
        eprintln!("error: no quarantined key matched this bench's circuits");
        std::process::exit(2);
    }
    println!(
        "replaying {} quarantined circuits from {}",
        specs.len(),
        path.display()
    );
    let total = specs.len();
    let config = SupervisorConfig::from(args);
    let report = run_supervised(
        &config,
        specs,
        move |ctx: &BatchCtx| circuit_job(qubits, gates, ctx),
        None,
        &CancelToken::new(),
    );
    report_engine_events(args, &report);
    let matches = report.results.iter().filter(|r| r.is_some()).count();
    println!("{matches}/{total} replayed circuits now verify");
    if !report.quarantined.is_empty() {
        eprintln!(
            "  {} circuits failed again and were re-quarantined",
            report.quarantined.len()
        );
        std::process::exit(1);
    }
}

fn main() {
    let args = HarnessArgs::parse();
    if let Some(mode) = args.test_mode.as_deref() {
        assert_eq!(mode, "smoke", "unknown --test mode {mode:?}\n{USAGE}");
    }
    if let Some(path) = args.replay_quarantine.clone() {
        replay_quarantine(&args, &path);
        return;
    }

    // ---- the worked example (Listings 5.3-5.6) --------------------------
    println!("== worked example: 5 qubits, 20 random gates (as Fig 5.4) ==");
    let mut workload_rng = StdRng::seed_from_u64(args.seed);
    let circuit = random_circuit(5, 20, &mut workload_rng);
    println!("-- circuit --");
    print!("{circuit}");

    let mut reference = ControlStack::with_seed(SvCore::new(), args.seed);
    reference.create_qubits(5).expect("register");
    reference.execute_now(circuit.clone()).expect("execute");
    println!("-- Listing 5.3: state without Pauli frame --");
    print!("{}", state_dump(&reference));

    let mut framed = ControlStack::with_seed(SvCore::new(), args.seed);
    framed.push_layer(PauliFrameLayer::new());
    framed.create_qubits(5).expect("register");
    framed.execute_now(circuit).expect("execute");
    println!("-- Listing 5.4: state with Pauli frame, before flushing --");
    print!("{}", state_dump(&framed));
    println!("-- Listing 5.5: Pauli frame status before flushing --");
    print!(
        "{}",
        framed
            .find_layer::<PauliFrameLayer>()
            .expect("frame layer")
            .frame()
    );
    framed.flush_pauli_frames().expect("flush");
    println!("-- Listing 5.6: state after flushing --");
    print!("{}", state_dump(&framed));

    let ref_dump = reference.quantum_state().expect("state");
    let framed_dump = framed.quantum_state().expect("state");
    match global_phase(
        ref_dump.amplitudes().expect("sv"),
        framed_dump.amplitudes().expect("sv"),
        1e-9,
    ) {
        Some(phase) => println!("states equal up to global phase {phase}"),
        None => println!("MISMATCH: states differ beyond global phase"),
    }

    // ---- the full bench --------------------------------------------------
    let (iterations, qubits, gates) = bench_params(&args);
    println!();
    println!("== test bench: {iterations} random circuits, {qubits} qubits, {gates} gates each ==");
    let specs: Vec<BatchSpec> = (0..iterations)
        .map(|i| BatchSpec {
            key: format!("rc-i{i}"),
            point: "rc".to_owned(),
            batch: i,
            shots: 1,
            deadline: None,
        })
        .collect();
    let config = SupervisorConfig::from(&args);
    let job = move |ctx: &BatchCtx| circuit_job(qubits, gates, ctx);
    let report = match ChaosConfig::from_args(&args) {
        Some(chaos) => {
            silence_chaos_panics();
            run_supervised(
                &config,
                specs,
                with_chaos(chaos, job),
                None,
                &CancelToken::new(),
            )
        }
        None => run_supervised(&config, specs, job, None, &CancelToken::new()),
    };
    report_engine_events(&args, &report);

    let matches = report.results.iter().filter(|r| r.is_some()).count() as u64;
    let filtered_total: u64 = report.results.iter().flatten().sum();
    println!("{matches}/{iterations} circuits: framed state equals reference up to global phase");
    println!("{filtered_total} Pauli gates were tracked classically instead of being executed");
    let ok = report.is_clean() && matches == iterations;
    println!(
        "Pauli frame working mechanism: {}",
        if ok {
            "VERIFIED (matches Section 5.2.2)"
        } else {
            "FAILED"
        }
    );
    if args.test_mode.is_some() {
        assert!(ok, "random-circuit smoke failed");
    }
}
