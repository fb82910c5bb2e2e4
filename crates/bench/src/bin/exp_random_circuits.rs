//! E4: the random-circuit Pauli-frame verification of Section 5.2.2
//! (Listings 5.3–5.6, Fig 5.4).
//!
//! A worked example first reproduces the listing sequence — reference
//! state without a frame, framed state before flushing, the frame
//! contents, the flushed state, and the recovered global phase — then
//! the full test bench runs the paper's 100 iterations of 10-qubit /
//! 1000-gate random circuits (quick mode: 25 × 5 qubits × 200 gates).
//!
//! Both run the one E4 driver, [`pauli_frame_check`], which
//! the daemon's `rc` job runs too.
//! Each iteration runs as one supervised batch (`DESIGN.md` §7): a
//! reference/framed disagreement is reported as a first-class
//! [`ShotError::Divergence`] and quarantined instead of aborting the
//! sweep, so one bad circuit cannot take down the other 99.

use qpdo_bench::supervisor::{
    report_engine_events, run_supervised, silence_chaos_panics, with_chaos, BatchCtx, BatchSpec,
    CancelToken, ChaosConfig, SupervisorConfig,
};
use qpdo_bench::{HarnessArgs, USAGE};
use qpdo_core::testbench::{pauli_frame_check, FrameCheckView, WORKLOAD_SALT};
use qpdo_core::{ControlStack, PauliFrameLayer, ShotError, SvCore};
use qpdo_statevector::StateVector;

fn state_dump(stack: &ControlStack<SvCore>) -> String {
    let dump = stack.quantum_state().expect("quantum state");
    let amps = dump.amplitudes().expect("state-vector core");
    let n = amps.len().trailing_zeros() as usize;
    StateVector::format_amplitudes(amps, n, 1e-6)
}

/// Prints the listings of the worked example as the check reaches
/// them: the circuit and Listings 5.3–5.5 before the flush, Listing 5.6
/// after it.
fn print_listings(view: &FrameCheckView<'_>) {
    if view.flushed {
        println!("-- Listing 5.6: state after flushing --");
        print!("{}", state_dump(view.framed));
        return;
    }
    println!("-- circuit --");
    print!("{}", view.circuit);
    println!("-- Listing 5.3: state without Pauli frame --");
    print!("{}", state_dump(view.reference));
    println!("-- Listing 5.4: state with Pauli frame, before flushing --");
    print!("{}", state_dump(view.framed));
    println!("-- Listing 5.5: Pauli frame status before flushing --");
    print!(
        "{}",
        view.framed
            .find_layer::<PauliFrameLayer>()
            .expect("frame layer")
            .frame()
    );
}

fn main() {
    let args = HarnessArgs::parse();
    if let Some(mode) = args.test_mode.as_deref() {
        assert_eq!(mode, "smoke", "unknown --test mode {mode:?}\n{USAGE}");
    }
    // ---- the worked example (Listings 5.3-5.6) --------------------------
    // Its circuit is drawn from `--seed` itself; a random circuit is
    // unitary, so the stacks never draw from their own seed.
    println!("== worked example: 5 qubits, 20 random gates (as Fig 5.4) ==");
    match pauli_frame_check(5, 20, args.seed ^ WORKLOAD_SALT, 1e-9, &mut print_listings) {
        Ok((_, phase)) => println!("states equal up to global phase {phase}"),
        Err(ShotError::Divergence { detail }) => println!("MISMATCH: {detail}"),
        Err(e) => panic!("worked example failed: {e}"),
    }

    // ---- the full bench --------------------------------------------------
    let (iterations, qubits, gates) = if args.full {
        (100, 10, 1000)
    } else {
        (25, 5, 200)
    };
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
    let job = move |ctx: &BatchCtx| {
        pauli_frame_check(qubits, gates, ctx.seed, 1e-7, &mut |_| {}).map(|(filtered, _)| filtered)
    };
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
