//! E7–E11: the logical-error-rate experiments of Section 5.3.
//!
//! Regenerates, for logical X and logical Z errors, with and without a
//! Pauli frame:
//!
//! - Figs 5.11–5.16 — LER vs PER curves and the pseudo-threshold,
//! - Figs 5.17–5.18 — the absolute LER difference ± the maximum standard
//!   deviation,
//! - Figs 5.19–5.20 — the coefficient of variation of the window counts,
//! - Figs 5.21–5.24 — independent and paired t-test ρ-values,
//! - Figs 5.25–5.26 — gates and time slots saved by the Pauli frame.
//!
//! Quick mode (default) samples 8 PER points at 5 repetitions × 20
//! logical errors; `--full` uses 16 points × 10 repetitions × 50 logical
//! errors (the paper's stopping rule).
//!
//! Every repetition runs as one batch of the supervised shot-execution
//! engine (`DESIGN.md` §7): at most `--jobs N` executor helpers, panic
//! isolation, per-batch watchdogs, retry/quarantine, and (with
//! `--redundancy N`) cross-backend voting. Batches that exhaust their
//! retries are listed in `quarantine.csv` and excluded from the
//! analysis instead of aborting the sweep. With `--full`, completed
//! batches are journaled individually (`exp_ler.sweep/` under
//! `--out`), so a killed sweep resumes mid-point.
//!
//! `--test smoke` runs the engine's self-check: a tiny sweep under
//! forced panics, a forced hang, a poisoned batch that must quarantine,
//! a redundancy vote, and a worker-count determinism comparison.

use std::time::Duration;

use qpdo_bench::supervisor::{
    report_engine_events, run_resumable, run_supervised, silence_chaos_panics, with_chaos,
    BatchCtx, BatchSpec, CancelToken, ChaosConfig, SupervisorConfig, SupervisorReport,
    SweepJournal,
};
use qpdo_bench::{log_space, pseudo_threshold, render_table, sci, HarnessArgs};
use qpdo_core::ShotError;
use qpdo_stats::{independent_t_test, paired_t_test, Summary};
use qpdo_surface17::experiment::{
    run_cross_backend_check, run_ler, LerConfig, LerOutcome, LogicalErrorKind,
};

/// One (PER, error kind, frame) cell of the sweep; each repetition of a
/// cell is one supervised batch.
#[derive(Clone, Copy)]
struct Cell {
    p: f64,
    kind: LogicalErrorKind,
    with_pf: bool,
    target: u64,
    max_windows: u64,
}

struct SweepPoint {
    p: f64,
    kind: LogicalErrorKind,
    with_pf: bool,
    outcomes: Vec<LerOutcome>,
}

impl SweepPoint {
    fn lers(&self) -> Vec<f64> {
        self.outcomes.iter().map(LerOutcome::ler).collect()
    }

    fn window_counts(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.windows as f64).collect()
    }
}

fn kind_name(kind: LogicalErrorKind) -> &'static str {
    match kind {
        LogicalErrorKind::XL => "XL",
        LogicalErrorKind::ZL => "ZL",
    }
}

/// The point name of cell `ci`; its batches are keyed
/// `<point>-r<rep>` in `quarantine.csv` and the sweep journal.
fn cell_point(ci: usize, cell: &Cell) -> String {
    format!(
        "p{ci}-{}-pf{}",
        kind_name(cell.kind),
        u8::from(cell.with_pf)
    )
}

/// The sweep geometry for the current mode (quick vs `--full`):
/// `(PER points, repetitions, target logical errors, max windows)`.
fn sweep_params(args: &HarnessArgs) -> (Vec<f64>, usize, u64, u64) {
    if args.full {
        (log_space(1e-4, 1e-2, 16), 10, 50, 3_000_000)
    } else {
        (log_space(2e-4, 1e-2, 8), 5, 20, 600_000)
    }
}

fn build_cells(points: &[f64], target: u64, max_windows: u64) -> Vec<Cell> {
    points
        .iter()
        .flat_map(|&p| {
            [LogicalErrorKind::XL, LogicalErrorKind::ZL]
                .into_iter()
                .flat_map(move |kind| {
                    [false, true].into_iter().map(move |with_pf| Cell {
                        p,
                        kind,
                        with_pf,
                        target,
                        max_windows,
                    })
                })
        })
        .collect()
}

/// Summarizes a sample, degrading to NaN statistics when every
/// repetition of a cell was quarantined (the sweep must still render).
fn summarize(values: &[f64]) -> Summary {
    Summary::from_slice(values).unwrap_or(Summary {
        count: 0,
        mean: f64::NAN,
        variance: f64::NAN,
        std_dev: f64::NAN,
    })
}

fn ler_job(cell: &Cell, ctx: &BatchCtx) -> Result<LerOutcome, ShotError> {
    let config = LerConfig {
        physical_error_rate: cell.p,
        kind: cell.kind,
        with_pauli_frame: cell.with_pf,
        target_logical_errors: cell.target,
        max_windows: cell.max_windows,
        seed: ctx.seed,
    };
    run_ler(&config).map_err(ShotError::from)
}

/// The cross-backend redundancy vote: a fault-free Clifford-only window
/// workload must agree exactly between the stabilizer and state-vector
/// back-ends (seeded from the batch's attempt stream).
fn vote(ctx: &BatchCtx) -> Result<(), ShotError> {
    run_cross_backend_check(ctx.attempt_seed, 2)?.into_result()
}

/// The job every sweep batch runs.
type LerJob = Box<dyn Fn(&BatchCtx) -> Result<LerOutcome, ShotError> + Send + Sync>;

/// Runs all (cell × repetition) batches through the resumable
/// supervised sweep, resuming per batch from `journal` when present,
/// and returns the per-cell outcomes (in repetition order, quarantined
/// batches omitted) plus the engine report. The smoke passes `chaos` to
/// inject faults into every batch's first attempt.
fn run_sweep(
    args: &HarnessArgs,
    cells: &[Cell],
    reps: usize,
    journal: Option<SweepJournal>,
    chaos: Option<ChaosConfig>,
) -> (Vec<Vec<LerOutcome>>, SupervisorReport<LerOutcome>) {
    let mut specs: Vec<BatchSpec> = Vec::new();
    let mut spec_cells: Vec<usize> = Vec::new();
    for (ci, cell) in cells.iter().enumerate() {
        let point = cell_point(ci, cell);
        for rep in 0..reps {
            specs.push(BatchSpec {
                key: format!("{point}-r{rep}"),
                point: point.clone(),
                batch: rep as u64,
                shots: cell.target,
                deadline: None,
            });
            spec_cells.push(ci);
        }
    }
    let job_cells: Vec<Cell> = cells.to_vec();
    let job_map = spec_cells.clone();
    let job = move |ctx: &BatchCtx| ler_job(&job_cells[job_map[ctx.task]], ctx);
    let job: LerJob = match chaos {
        Some(chaos) => Box::new(with_chaos(chaos, job)),
        None => Box::new(job),
    };
    let (results, report) = run_resumable(
        args,
        specs,
        LerOutcome::to_record,
        LerOutcome::from_record,
        job,
        Some(Box::new(vote)),
        journal,
    );
    let mut outcomes = vec![Vec::new(); cells.len()];
    for (ci, outcome) in spec_cells.into_iter().zip(results) {
        outcomes[ci].extend(outcome);
    }
    (outcomes, report)
}

fn main() {
    let args = HarnessArgs::parse();
    if args.smoke {
        smoke(&args);
        return;
    }
    let (points, reps, target, max_windows) = sweep_params(&args);
    println!(
        "LER sweep: {} PER points in [{}, {}], {} repetitions, stop at {} logical errors{}, jobs cap {}",
        points.len(),
        sci(points[0]),
        sci(points[points.len() - 1]),
        reps,
        target,
        if args.full {
            " (paper scale)"
        } else {
            " (quick)"
        },
        args.jobs,
    );

    let cells = build_cells(&points, target, max_windows);

    // A paper-scale sweep takes long enough that being killed mid-run
    // must not restart it from scratch: each completed batch (one
    // repetition of one sweep cell) is journaled under the output
    // directory, and a re-invoked `--full` run resumes past every batch
    // already on disk — including part-way through a sweep point.
    let journal = args.full.then(|| {
        let fingerprint = format!(
            "exp_ler-v2 points={} reps={reps} target={target} max_windows={max_windows} seed={}",
            points.len(),
            args.seed,
        );
        SweepJournal::open(&args.out_dir.join("exp_ler.sweep"), &fingerprint)
            .expect("open sweep journal")
    });

    let (outcomes, report) = run_sweep(&args, &cells, reps, journal, None);
    report_engine_events(&args, &report);

    let mut sweep: Vec<SweepPoint> = Vec::new();
    let mut raw_rows: Vec<String> = Vec::new();
    for (cell, outcomes) in cells.iter().zip(outcomes) {
        for (rep, outcome) in outcomes.iter().enumerate() {
            raw_rows.push(format!(
                "{},{},{},{rep},{},{},{}",
                cell.p,
                kind_name(cell.kind),
                u8::from(cell.with_pf),
                outcome.windows,
                outcome.logical_errors,
                outcome.ler(),
            ));
        }
        sweep.push(SweepPoint {
            p: cell.p,
            kind: cell.kind,
            with_pf: cell.with_pf,
            outcomes,
        });
    }
    let path = args.write_csv(
        "ler_raw.csv",
        "per,kind,with_pf,rep,windows,logical_errors,ler",
        &raw_rows,
    );
    println!("raw samples -> {}", path.display());

    // ---- Figs 5.11-5.16: LER curves -----------------------------------
    for kind in [LogicalErrorKind::XL, LogicalErrorKind::ZL] {
        let mut rows = Vec::new();
        let mut csv_rows = Vec::new();
        let mut curve_no_pf = Vec::new();
        let mut curve_pf = Vec::new();
        for &p in &points {
            let find = |with_pf: bool| {
                sweep
                    .iter()
                    .find(|s| s.p == p && s.kind == kind && s.with_pf == with_pf)
                    .expect("point present")
            };
            let without = summarize(&find(false).lers());
            let with = summarize(&find(true).lers());
            curve_no_pf.push((p, without.mean));
            curve_pf.push((p, with.mean));
            rows.push(vec![
                sci(p),
                sci(without.mean),
                sci(without.std_dev),
                sci(with.mean),
                sci(with.std_dev),
            ]);
            csv_rows.push(format!(
                "{p},{},{},{},{}",
                without.mean, without.std_dev, with.mean, with.std_dev
            ));
        }
        println!();
        print!(
            "{}",
            render_table(
                &format!(
                    "Figs 5.11-5.16: LER vs PER for {} errors (blue squares = no frame, red circles = frame)",
                    kind_name(kind)
                ),
                &["PER", "LER (no PF)", "sigma", "LER (PF)", "sigma"],
                &rows,
            )
        );
        args.write_csv(
            &format!("ler_curve_{}.csv", kind_name(kind)),
            "per,ler_no_pf,std_no_pf,ler_pf,std_pf",
            &csv_rows,
        );
        if let Some(pth) = pseudo_threshold(&curve_no_pf) {
            println!(
                "pseudo-threshold ({} errors, no frame):   p ~= {}",
                kind_name(kind),
                sci(pth)
            );
        }
        if let Some(pth) = pseudo_threshold(&curve_pf) {
            println!(
                "pseudo-threshold ({} errors, with frame): p ~= {}",
                kind_name(kind),
                sci(pth)
            );
        }
    }

    // ---- Figs 5.17-5.18: absolute difference +- sigma_max --------------
    // ---- Figs 5.19-5.20: coefficient of variation of window counts -----
    // ---- Figs 5.21-5.24: t-tests ----------------------------------------
    for kind in [LogicalErrorKind::XL, LogicalErrorKind::ZL] {
        let mut rows = Vec::new();
        let mut csv_rows = Vec::new();
        let mut p_values_ind = Vec::new();
        let mut p_values_rel = Vec::new();
        for &p in &points {
            let find = |with_pf: bool| {
                sweep
                    .iter()
                    .find(|s| s.p == p && s.kind == kind && s.with_pf == with_pf)
                    .expect("point present")
            };
            let no_pf = find(false);
            let pf = find(true);
            let s_no = summarize(&no_pf.lers());
            let s_pf = summarize(&pf.lers());
            let delta = s_no.mean - s_pf.mean; // Eq 5.2
            let sigma_max = s_no.std_dev.max(s_pf.std_dev); // Eq 5.3
            let cv_no = Summary::from_slice(&no_pf.window_counts())
                .and_then(|s| s.coefficient_of_variation())
                .unwrap_or(0.0);
            let cv_pf = Summary::from_slice(&pf.window_counts())
                .and_then(|s| s.coefficient_of_variation())
                .unwrap_or(0.0);
            let ind = independent_t_test(&no_pf.lers(), &pf.lers());
            let rel = paired_t_test(&no_pf.lers(), &pf.lers());
            let rho_ind = ind.map(|t| t.p_value).unwrap_or(f64::NAN);
            let rho_rel = rel.map(|t| t.p_value).unwrap_or(f64::NAN);
            if rho_ind.is_finite() {
                p_values_ind.push(rho_ind);
            }
            if rho_rel.is_finite() {
                p_values_rel.push(rho_rel);
            }
            rows.push(vec![
                sci(p),
                sci(delta),
                sci(sigma_max),
                format!("{cv_no:.3}"),
                format!("{cv_pf:.3}"),
                format!("{rho_ind:.3}"),
                format!("{rho_rel:.3}"),
            ]);
            csv_rows.push(format!(
                "{p},{delta},{sigma_max},{cv_no},{cv_pf},{rho_ind},{rho_rel}"
            ));
        }
        println!();
        print!(
            "{}",
            render_table(
                &format!(
                    "Figs 5.17-5.24: frame-effect analysis for {} errors",
                    kind_name(kind)
                ),
                &[
                    "PER",
                    "delta LER",
                    "sigma_max",
                    "CV (no PF)",
                    "CV (PF)",
                    "rho ind.",
                    "rho paired",
                ],
                &rows,
            )
        );
        args.write_csv(
            &format!("ler_analysis_{}.csv", kind_name(kind)),
            "per,delta_ler,sigma_max,cv_no_pf,cv_pf,rho_independent,rho_paired",
            &csv_rows,
        );
        let mean_rho = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let significant_ind = p_values_ind.iter().filter(|r| **r < 0.05).count();
        println!(
            "{}: mean independent rho = {:.3}, mean paired rho = {:.3}, rho < 0.05 at {}/{} points",
            kind_name(kind),
            mean_rho(&p_values_ind),
            mean_rho(&p_values_rel),
            significant_ind,
            p_values_ind.len(),
        );
        println!(
            "  -> the Pauli frame has no statistically significant effect on the LER{}",
            if significant_ind * 2 > p_values_ind.len().max(1) {
                " [UNEXPECTED: majority of points significant]"
            } else {
                " (matches the paper's conclusion)"
            }
        );
    }

    // ---- Figs 5.25-5.26: gates and time slots saved ---------------------
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &p in &points {
        let point = sweep
            .iter()
            .find(|s| s.p == p && s.kind == LogicalErrorKind::XL && s.with_pf)
            .expect("point present");
        let ops: Vec<f64> = point
            .outcomes
            .iter()
            .map(|o| 100.0 * o.saved_operations())
            .collect();
        let slots: Vec<f64> = point
            .outcomes
            .iter()
            .map(|o| 100.0 * o.saved_time_slots())
            .collect();
        let s_ops = summarize(&ops);
        let s_slots = summarize(&slots);
        rows.push(vec![
            sci(p),
            format!("{:.3} %", s_ops.mean),
            format!("{:.3}", s_ops.std_dev),
            format!("{:.3} %", s_slots.mean),
            format!("{:.3}", s_slots.std_dev),
        ]);
        csv_rows.push(format!(
            "{p},{},{},{},{}",
            s_ops.mean, s_ops.std_dev, s_slots.mean, s_slots.std_dev
        ));
    }
    println!();
    print!(
        "{}",
        render_table(
            "Figs 5.25-5.26: saved by the Pauli frame during X-error LER runs",
            &["PER", "saved gates", "sigma", "saved slots", "sigma"],
            &rows,
        )
    );
    args.write_csv(
        "ler_savings.csv",
        "per,saved_ops_pct,std_ops,saved_slots_pct,std_slots",
        &csv_rows,
    );
    println!(
        "note: the time-slot saving is bounded by 1/17 ~= 5.9 % (one correction slot per 17-slot window)"
    );
}

/// The supervised-engine self-check behind `--test smoke`: small LER
/// workloads under injected faults must reproduce fault-free results
/// exactly, a poisoned batch must quarantine without killing the run,
/// and worker count must not change any output.
fn smoke(args: &HarnessArgs) {
    let cells: Vec<Cell> = [false, true]
        .into_iter()
        .map(|with_pf| Cell {
            p: 0.005,
            kind: LogicalErrorKind::XL,
            with_pf,
            target: 3,
            max_windows: 2000,
        })
        .collect();
    let reps = 3usize;

    // 1. Fault-free runs at --jobs 1 and --jobs N are bit-identical.
    let mut serial_args = args.clone();
    serial_args.jobs = 1;
    let mut pool_args = serial_args.clone();
    pool_args.jobs = args.jobs.max(2);
    let (serial, serial_report) = run_sweep(&serial_args, &cells, reps, None, None);
    let (pooled, pooled_report) = run_sweep(&pool_args, &cells, reps, None, None);
    assert!(serial_report.is_clean() && pooled_report.is_clean());
    assert_eq!(
        serial, pooled,
        "--jobs {} produced different results than --jobs 1",
        pool_args.jobs
    );
    println!(
        "smoke 1/4 PASS: --jobs {} bit-identical to --jobs 1 ({} batches)",
        pool_args.jobs,
        cells.len() * reps
    );

    // 2. Forced panics on every first attempt plus one hang: the engine
    //    must retry onto the same results.
    //    The hang sleeps well past the shortened watchdog.
    let mut chaos_args = pool_args.clone();
    chaos_args.watchdog_ms = chaos_args.watchdog_ms.min(300);
    let chaos = ChaosConfig {
        panic_rate: 1.0,
        hang_task: Some(1),
        hang_for: Duration::from_millis(chaos_args.watchdog_ms.saturating_mul(20).max(1000)),
    };
    silence_chaos_panics();
    let (chaotic, chaos_report) = run_sweep(&chaos_args, &cells, reps, None, Some(chaos));
    assert!(
        chaos_report.quarantined.is_empty(),
        "chaos run quarantined: {:?}",
        chaos_report.quarantined
    );
    assert!(chaos_report.stats.panics > 0, "no panic was injected");
    assert!(
        chaos_report.stats.timeouts > 0,
        "the injected hang never tripped the watchdog"
    );
    assert_eq!(
        chaotic, serial,
        "results under injected faults diverged from the fault-free run"
    );
    println!(
        "smoke 2/4 PASS: {} panics + {} watchdog trips recovered to identical results",
        chaos_report.stats.panics, chaos_report.stats.timeouts
    );

    // 3. A batch that fails every attempt quarantines; the run completes.
    let config = SupervisorConfig::from(&pool_args);
    let specs: Vec<BatchSpec> = (0..4)
        .map(|i| BatchSpec {
            key: format!("smoke-q{i}"),
            point: "smoke-q".to_owned(),
            batch: i,
            shots: 1,
            deadline: None,
        })
        .collect();
    let report = run_supervised(
        &config,
        specs,
        |ctx: &BatchCtx| {
            if ctx.task == 1 {
                Err(ShotError::PoolFailure("poisoned batch".to_owned()))
            } else {
                Ok(ctx.seed)
            }
        },
        None,
        &CancelToken::new(),
    );
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].key, "smoke-q1");
    assert_eq!(report.results.iter().filter(|r| r.is_some()).count(), 3);
    let path = report_engine_events(args, &report);
    println!(
        "smoke 3/4 PASS: poisoned batch quarantined ({}), other 3 completed",
        path.display()
    );

    // 4. Cross-backend redundancy vote agrees on fault-free windows.
    let mut vote_args = pool_args.clone();
    vote_args.redundancy = 1;
    let (_, vote_report) = run_sweep(&vote_args, &cells, reps, None, None);
    assert!(vote_report.stats.votes > 0, "no redundancy vote ran");
    assert!(
        vote_report.divergences.is_empty(),
        "cross-backend divergence: {:?}",
        vote_report.divergences
    );
    println!(
        "smoke 4/4 PASS: {} cross-backend votes, all agreed",
        vote_report.stats.votes
    );
    println!("exp_ler smoke: OK");
}
