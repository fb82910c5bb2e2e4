//! Full-stack differential oracle: the LER experiment (ESM rounds +
//! decoder + Pauli frame) must produce byte-identical records whether
//! the control stack runs on the packed `StabilizerSim` or the
//! cell-per-entry `ReferenceTableau`.
//!
//! This is the top leg of the engine-equivalence argument: the
//! gate-level oracle lives in `qpdo-stabilizer/tests/differential.rs`;
//! here the engines are driven by the real Surface-17 workload, with the
//! depolarizing error layer, the LUT decoder, and (optionally) the
//! frame layer in between — uncancelled and stopped mid-run.

#![cfg(feature = "reference")]

use std::cell::Cell;

use qpdo_stabilizer::{ReferenceTableau, StabilizerSim};
use qpdo_surface17::experiment::{
    run_ler, run_ler_on, run_ler_reference, LerConfig, LogicalErrorKind,
};

fn config(p: f64, kind: LogicalErrorKind, with_pf: bool, seed: u64) -> LerConfig {
    LerConfig {
        physical_error_rate: p,
        kind,
        with_pauli_frame: with_pf,
        target_logical_errors: 3,
        max_windows: 1500,
        seed,
    }
}

#[test]
fn ler_records_are_byte_identical_across_engines() {
    for (i, kind) in [LogicalErrorKind::XL, LogicalErrorKind::ZL]
        .into_iter()
        .enumerate()
    {
        for with_pf in [false, true] {
            for (j, p) in [1e-3, 8e-3].into_iter().enumerate() {
                let seed = 0xEC_0017 + (i as u64) * 31 + (j as u64) * 7 + u64::from(with_pf);
                let cfg = config(p, kind, with_pf, seed);
                let packed = run_ler(&cfg).expect("packed run");
                let reference = run_ler_reference(&cfg).expect("reference run");
                assert_eq!(
                    packed.to_record(),
                    reference.to_record(),
                    "LER record diverged for kind={kind:?} with_pf={with_pf} p={p} seed={seed}"
                );
                // The record covers every counter; check the derived rate
                // too for a readable failure.
                assert_eq!(packed.ler(), reference.ler());
            }
        }
    }
}

#[test]
fn zero_noise_runs_are_identical_and_error_free() {
    let cfg = config(0.0, LogicalErrorKind::XL, true, 42);
    let packed = run_ler(&cfg).expect("packed run");
    let reference = run_ler_reference(&cfg).expect("reference run");
    assert_eq!(packed.to_record(), reference.to_record());
    assert_eq!(packed.logical_errors, 0);
}

/// A cancellation poll that admits exactly `k` windows: the driver
/// consults it once before every window.
fn stop_after(k: u64) -> impl Fn() -> bool {
    let polls = Cell::new(0u64);
    move || {
        polls.set(polls.get() + 1);
        polls.get() > k
    }
}

#[test]
fn cancelled_runs_are_byte_identical_across_engines() {
    for (i, kind) in [LogicalErrorKind::XL, LogicalErrorKind::ZL]
        .into_iter()
        .enumerate()
    {
        for with_pf in [false, true] {
            let cfg = config(8e-3, kind, with_pf, 0xCA_0017 + (i as u64) * 31);
            for k in [0, 1, 5] {
                let (packed, packed_stopped) =
                    run_ler_on::<StabilizerSim>(&cfg, &stop_after(k)).expect("packed run");
                let (reference, reference_stopped) =
                    run_ler_on::<ReferenceTableau>(&cfg, &stop_after(k)).expect("reference run");
                assert_eq!(
                    (packed.to_record(), packed_stopped),
                    (reference.to_record(), reference_stopped),
                    "stopped run diverged for kind={kind:?} with_pf={with_pf} k={k}"
                );
                assert!(packed_stopped, "k={k}: the run ended before the stop");
                assert_eq!(packed.windows, k);
            }
        }
    }
}
