//! E5: the odd-Bell-state test bench of Section 5.2.3 (Figs 5.5–5.7).
//!
//! Two ninja stars are driven through the circuit of Fig 5.6 —
//! `H_L` on star 0, transversal `CNOT_L`, `X_L` on star 0 — creating the
//! logical state `(|01⟩ + |10⟩)/√2`, then both are measured logically.
//! The resulting histograms with and without a Pauli-frame layer must
//! match (only `|01⟩_L` and `|10⟩_L`, roughly equal frequencies). The
//! shots run the one E5 driver, [`odd_bell_counts`], which the
//! daemon's `bell` job runs too.
//!
//! Shots run in supervised batches of `--batch-shots` across `--jobs`
//! workers (`DESIGN.md` §7); the order-independent count reduction
//! makes the histograms identical for any worker count.

use qpdo_bench::supervisor::{run_supervised, BatchCtx, BatchSpec, CancelToken, SupervisorConfig};
use qpdo_bench::{HarnessArgs, USAGE};
use qpdo_stabilizer::StabilizerSim;
use qpdo_stats::Histogram;
use qpdo_surface17::experiment::odd_bell_counts;

const LABELS: [&str; 4] = ["|00>", "|01>", "|10>", "|11>"];

/// Runs `shots` supervised shots and folds the batch counts into a
/// histogram (task-order reduction: independent of `--jobs`).
fn run(args: &HarnessArgs, shots: u64, with_frame: bool) -> Histogram {
    let batch_shots = args.batch_shots;
    let specs: Vec<BatchSpec> = (0..shots.div_ceil(batch_shots))
        .map(|b| BatchSpec {
            key: format!("odd-bell-pf{}-b{b}", u8::from(with_frame)),
            point: format!("odd-bell-pf{}", u8::from(with_frame)),
            batch: b,
            shots: batch_shots.min(shots - b * batch_shots),
            deadline: None,
        })
        .collect();
    let config = SupervisorConfig::from(args);
    let report = run_supervised(
        &config,
        specs,
        move |ctx: &BatchCtx| {
            odd_bell_counts::<StabilizerSim>(ctx.spec.shots, ctx.seed, with_frame, &ctx.cancel)
        },
        None,
        &CancelToken::new(),
    );
    assert!(
        report.quarantined.is_empty(),
        "odd-Bell batches must not fail: {:?}",
        report.quarantined
    );
    let mut histogram = Histogram::new();
    for label in LABELS {
        histogram.ensure_bin(label);
    }
    for counts in report.results.into_iter().flatten() {
        for (label, count) in LABELS.iter().zip(counts) {
            for _ in 0..count {
                histogram.record(*label);
            }
        }
    }
    histogram
}

fn main() {
    let args = HarnessArgs::parse();
    if let Some(mode) = args.test_mode.as_deref() {
        assert_eq!(mode, "smoke", "unknown --test mode {mode:?}\n{USAGE}");
    }
    let shots = if args.full { 100 } else { 40 };

    println!("== Fig 5.7a: odd Bell state histogram WITH Pauli frame ({shots} shots) ==");
    let with = run(&args, shots, true);
    print!("{with}");

    println!();
    println!("== Fig 5.7b: odd Bell state histogram WITHOUT Pauli frame ({shots} shots) ==");
    let without = run(&args, shots, false);
    print!("{without}");

    let anti_with = with.count("|01>") + with.count("|10>");
    let anti_without = without.count("|01>") + without.count("|10>");
    println!();
    println!(
        "anticorrelated outcomes: {anti_with}/{shots} with frame, {anti_without}/{shots} without"
    );
    let ok = anti_with == shots
        && anti_without == shots
        && with.count("|01>") > 0
        && with.count("|10>") > 0;
    println!(
        "odd-Bell verification: {}",
        if ok {
            "PASS (both histograms match the expected outcome, as in Fig 5.7)"
        } else {
            "FAIL"
        }
    );
    if args.test_mode.is_some() {
        assert!(ok, "odd-Bell smoke failed");
    }

    let mut rows = Vec::new();
    for label in LABELS {
        rows.push(format!(
            "{label},{},{}",
            with.count(label),
            without.count(label)
        ));
    }
    let path = args.write_csv("odd_bell_histograms.csv", "state,with_pf,without_pf", &rows);
    println!("histograms -> {}", path.display());
}
