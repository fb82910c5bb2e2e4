//! R1: classical-control fault injection vs the logical error rate.
//!
//! The paper's experiments assume the classical control hardware is
//! perfect; this experiment drops that assumption. It sweeps the rate of
//! classical frame-record bit flips (SEU-style corruption in the Pauli
//! Frame Unit's memory) and compares three Surface-17 configurations:
//!
//! - **unprotected** — the frame memory takes the hit silently,
//! - **protected** — parity-protected records with periodic scrubbing
//!   and checkpoint/rollback at each ESM round,
//! - the zero-rate column of either mode, which must reproduce the
//!   fault-free LER exactly (bit-identical execution).
//!
//! `--test smoke` runs a pinned-seed self-check asserting the three
//! acceptance properties: zero-rate bit-identity, unprotected strictly
//! worse under faults, and protected recovery of at least 90 % of the
//! injected corruptions.
//!
//! Each repetition of each sweep point runs as one batch of the
//! supervised execution engine (`DESIGN.md` §7), and with `--full` every
//! completed batch is journaled individually
//! (`exp_classical_faults.sweep/` under `--out`) — a killed paper-scale
//! sweep resumes part-way through a sweep point instead of redoing it.

use qpdo_bench::supervisor::{
    report_engine_events, run_resumable, BatchCtx, BatchSpec, SweepJournal,
};
use qpdo_bench::{render_table, sci, HarnessArgs};
use qpdo_core::fault::FaultRates;
use qpdo_core::{FrameProtectionConfig, FrameProtectionStats, ShotError};
use qpdo_stats::Summary;
use qpdo_surface17::experiment::{
    run_ler, run_ler_classical, ClassicalFaultConfig, ClassicalLerOutcome, LerConfig,
    LogicalErrorKind,
};

/// One protection mode of the sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Unprotected,
    Protected,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Unprotected => "unprotected",
            Mode::Protected => "protected",
        }
    }

    fn config(self) -> FrameProtectionConfig {
        match self {
            Mode::Unprotected => FrameProtectionConfig::unprotected(),
            Mode::Protected => FrameProtectionConfig::protected(),
        }
    }
}

/// Aggregated results of `reps` repetitions at one (rate, mode) point.
struct Point {
    rate: f64,
    mode: Mode,
    lers: Vec<f64>,
    stats: FrameProtectionStats,
    fault_events: u64,
}

fn accumulate(total: &mut FrameProtectionStats, part: &FrameProtectionStats) {
    total.injected += part.injected;
    total.detected += part.detected;
    total.recovered += part.recovered;
    total.missed += part.missed;
    total.scrubs += part.scrubs;
    total.checkpoints += part.checkpoints;
    total.rollbacks += part.rollbacks;
    total.degraded_flushes += part.degraded_flushes;
}

fn recovery_fraction(stats: &FrameProtectionStats) -> f64 {
    if stats.injected == 0 {
        1.0
    } else {
        stats.recovered as f64 / stats.injected as f64
    }
}

/// One supervised batch: a single repetition of a (rate, mode) point.
/// The classical fault plan gets its own stream derived from the
/// batch's payload seed, mirroring the separation `run_ler_classical`
/// requires between quantum noise and fault injection.
fn batch_job(
    base: &LerConfig,
    rate: f64,
    mode: Mode,
    seed: u64,
) -> Result<ClassicalLerOutcome, ShotError> {
    let config = LerConfig { seed, ..*base };
    let classical = ClassicalFaultConfig {
        rates: FaultRates::frame_only(rate),
        protection: mode.config(),
        fault_seed: seed ^ 0x517C_C1B7_2722_0A95,
    };
    run_ler_classical(&config, &classical).map_err(ShotError::from)
}

/// Runs the whole (rate × mode × repetition) grid through the
/// resumable supervised sweep, journaling each completed batch when
/// `journal` is present, and folds the per-batch outcomes into sweep
/// points in repetition order (quarantined batches are excluded from
/// their point).
fn run_grid(
    args: &HarnessArgs,
    base: &LerConfig,
    rates: &[f64],
    reps: usize,
    journal: Option<SweepJournal>,
) -> Vec<Point> {
    let grid: Vec<(f64, Mode)> = rates
        .iter()
        .flat_map(|&rate| [(rate, Mode::Unprotected), (rate, Mode::Protected)])
        .collect();
    let mut specs: Vec<BatchSpec> = Vec::new();
    let mut spec_points: Vec<usize> = Vec::new();
    for (gi, (_, mode)) in grid.iter().enumerate() {
        let point = format!("r{}-{}", gi / 2, mode.name());
        for rep in 0..reps {
            specs.push(BatchSpec {
                key: format!("{point}-rep{rep}"),
                point: point.clone(),
                batch: rep as u64,
                shots: base.target_logical_errors,
                deadline: None,
            });
            spec_points.push(gi);
        }
    }

    let job_grid = grid.clone();
    let job_points = spec_points.clone();
    let job_base = *base;
    let job = move |ctx: &BatchCtx| {
        let (rate, mode) = job_grid[job_points[ctx.task]];
        batch_job(&job_base, rate, mode, ctx.seed)
    };
    let (outcomes, report) = run_resumable(
        args,
        specs,
        ClassicalLerOutcome::to_record,
        ClassicalLerOutcome::from_record,
        job,
        None,
        journal,
    );
    report_engine_events(args, &report);

    let mut points: Vec<Point> = grid
        .iter()
        .map(|&(rate, mode)| Point {
            rate,
            mode,
            lers: Vec::with_capacity(reps),
            stats: FrameProtectionStats::default(),
            fault_events: 0,
        })
        .collect();
    for (gi, outcome) in spec_points.into_iter().zip(outcomes) {
        if let Some(outcome) = outcome {
            let point = &mut points[gi];
            point.lers.push(outcome.ler.ler());
            accumulate(&mut point.stats, &outcome.protection);
            point.fault_events += outcome.fault_events;
        }
    }
    points
}

fn print_sweep(title: &str, sweep: &[Point], args: &HarnessArgs) {
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for point in sweep {
        // A point whose every repetition was quarantined still renders
        // (as NaN) instead of aborting the report.
        let summary = Summary::from_slice(&point.lers).unwrap_or(Summary {
            count: 0,
            mean: f64::NAN,
            variance: f64::NAN,
            std_dev: f64::NAN,
        });
        let s = &point.stats;
        rows.push(vec![
            sci(point.rate),
            point.mode.name().to_owned(),
            sci(summary.mean),
            sci(summary.std_dev),
            s.injected.to_string(),
            s.detected.to_string(),
            s.recovered.to_string(),
            s.missed.to_string(),
            format!("{:.3}", recovery_fraction(s)),
            s.rollbacks.to_string(),
            s.degraded_flushes.to_string(),
            point.fault_events.to_string(),
        ]);
        csv_rows.push(format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            point.rate,
            point.mode.name(),
            summary.mean,
            summary.std_dev,
            s.injected,
            s.detected,
            s.recovered,
            s.missed,
            recovery_fraction(s),
            s.rollbacks,
            s.degraded_flushes,
            point.fault_events,
        ));
    }
    println!();
    print!(
        "{}",
        render_table(
            title,
            &[
                "fault rate",
                "mode",
                "LER",
                "sigma",
                "injected",
                "detected",
                "recovered",
                "missed",
                "recov.frac",
                "rollbacks",
                "degraded",
                "events",
            ],
            &rows,
        )
    );
    let path = args.write_csv(
        "classical_faults.csv",
        "fault_rate,mode,ler,std,injected,detected,recovered,missed,recovery_fraction,rollbacks,degraded_flushes,fault_events",
        &csv_rows,
    );
    println!("series -> {}", path.display());
}

/// Pinned-seed self-check of the acceptance properties. Seeds and sizes
/// are fixed (not taken from `--seed`) so the check is deterministic.
fn smoke(args: &HarnessArgs) {
    println!("smoke: pinned-seed classical-fault self-check");
    let quick = |p: f64, kind: LogicalErrorKind, seed: u64| LerConfig {
        physical_error_rate: p,
        kind,
        with_pauli_frame: true,
        target_logical_errors: 4,
        max_windows: 3000,
        seed,
    };

    // Property 1: at zero fault rate, both protected and unprotected
    // runs are bit-identical to the plain PauliFrameLayer run.
    let config = quick(8e-3, LogicalErrorKind::XL, 8);
    let plain = run_ler(&config).expect("plain LER run");
    for mode in [Mode::Unprotected, Mode::Protected] {
        let classical = ClassicalFaultConfig::frame_flips(0.0, mode.config(), 1);
        let outcome = run_ler_classical(&config, &classical).expect("zero-fault run");
        assert_eq!(
            outcome.ler,
            plain,
            "{} at zero fault rate must reproduce the plain run exactly",
            mode.name()
        );
        assert_eq!(outcome.protection.injected, 0);
        assert_eq!(outcome.fault_events, 0);
    }
    println!("  zero-rate bit-identity: ok (LER = {})", sci(plain.ler()));

    // Properties 2 + 3: at a nonzero rate, the unprotected frame is
    // strictly worse, and the protected frame recovers >= 90 % of the
    // injected corruptions.
    let config = quick(2e-3, LogicalErrorKind::XL, 10);
    let rate = 5e-3;
    let run = |mode: Mode| {
        run_ler_classical(
            &config,
            &ClassicalFaultConfig::frame_flips(rate, mode.config(), 2),
        )
        .expect("faulted run")
    };
    let unprotected = run(Mode::Unprotected);
    let protected = run(Mode::Protected);
    assert!(unprotected.protection.injected > 0 && protected.protection.injected > 0);
    assert!(
        unprotected.ler.ler() > protected.ler.ler(),
        "unprotected LER {} must exceed protected LER {}",
        unprotected.ler.ler(),
        protected.ler.ler()
    );
    let fraction = protected.protection.recovery_fraction();
    assert!(
        fraction >= 0.9,
        "protected frame recovered only {:.3} of injected faults",
        fraction
    );
    println!(
        "  faulted at rate {}: unprotected LER {} > protected LER {}: ok",
        sci(rate),
        sci(unprotected.ler.ler()),
        sci(protected.ler.ler())
    );
    println!(
        "  protected recovery: {}/{} = {:.3} (>= 0.9): ok",
        protected.protection.recovered, protected.protection.injected, fraction
    );

    let sweep = vec![
        Point {
            rate: 0.0,
            mode: Mode::Protected,
            lers: vec![plain.ler()],
            stats: FrameProtectionStats::default(),
            fault_events: 0,
        },
        Point {
            rate,
            mode: Mode::Unprotected,
            lers: vec![unprotected.ler.ler()],
            stats: unprotected.protection,
            fault_events: unprotected.fault_events,
        },
        Point {
            rate,
            mode: Mode::Protected,
            lers: vec![protected.ler.ler()],
            stats: protected.protection,
            fault_events: protected.fault_events,
        },
    ];
    print_sweep("smoke: classical faults vs SC17 LER", &sweep, args);
    println!("smoke: all checks passed");
}

fn main() {
    let args = HarnessArgs::parse();
    if args.smoke {
        smoke(&args);
        return;
    }

    // Sweep the classical fault rate at a fixed physical error rate well
    // below the pseudo-threshold, where the quantum noise floor is low
    // enough for classical corruption to dominate.
    let per = 2e-3;
    let (rates, reps, target, max_windows) = if args.full {
        (
            vec![0.0, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2],
            8usize,
            50u64,
            1_000_000u64,
        )
    } else {
        (vec![0.0, 1e-3, 5e-3, 1e-2], 3usize, 8u64, 20_000u64)
    };
    println!(
        "classical-fault sweep: PER {}, {} fault rates, {} repetitions, stop at {} logical errors{}, jobs cap {}",
        sci(per),
        rates.len(),
        reps,
        target,
        if args.full { " (paper scale)" } else { " (quick)" },
        args.jobs,
    );

    let base = LerConfig {
        physical_error_rate: per,
        kind: LogicalErrorKind::XL,
        with_pauli_frame: true,
        target_logical_errors: target,
        max_windows,
        seed: 0, // overwritten per batch by the supervisor substream
    };
    // Batch-level crash safety for the paper-scale sweep: every
    // completed repetition is journaled on its own, so a killed run
    // resumes mid-point.
    let journal = args.full.then(|| {
        let fingerprint = format!(
            "exp_classical_faults-v1 rates={} reps={reps} target={target} max_windows={max_windows} seed={}",
            rates.len(),
            args.seed,
        );
        SweepJournal::open(&args.out_dir.join("exp_classical_faults.sweep"), &fingerprint)
            .expect("open sweep journal")
    });
    let sweep = run_grid(&args, &base, &rates, reps, journal);
    print_sweep(
        "Classical frame-corruption rate vs SC17 logical error rate",
        &sweep,
        &args,
    );

    // Headline: how much of the injected corruption the protected frame
    // undid, over every faulted point of the sweep.
    let mut total = FrameProtectionStats::default();
    for point in sweep.iter().filter(|s| s.mode == Mode::Protected) {
        accumulate(&mut total, &point.stats);
    }
    println!(
        "protected frame recovered {}/{} injected corruptions ({:.1} %)",
        total.recovered,
        total.injected,
        100.0 * recovery_fraction(&total),
    );
}
