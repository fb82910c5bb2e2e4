//! The QPDO benchmark: end-to-end metrics measured from outside the
//! public entry points, plus a traced run that splits each workload's
//! time across the crates that do the work. See `perfbench/README.md`.
//!
//! ```text
//! qpdo-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                --serve-bin PATH --work-dir DIR
//! ```
//!
//! Prints one `name value unit` line per metric, then the result as one
//! JSON object on the last line. Exits 1 when any op failed or returned
//! a wrong result, or a traced-run gate failed; 2 on a usage error.

mod measure;
mod sc17;
mod serve;
mod surface;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

/// Metrics of every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Metrics of every traced run: `(name, unit)`. A workload that does not
/// run a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("stabilizer.apply_share", "ratio"),
    ("stabilizer.ns_per_op", "ns"),
    ("stabilizer.ops_per_window", "count"),
    ("core.pauli_frame_share", "ratio"),
    ("core.counters_share", "ratio"),
    ("core.stack_driver_share", "ratio"),
    ("pauli.saved_ops_frac", "ratio"),
    ("surface.inject_share", "ratio"),
    ("stabilizer.sliced_extract_share", "ratio"),
    ("surface.uf_decode_share", "ratio"),
    ("surface.readout_share", "ratio"),
    ("surface.uf_decode_p50_us", "us"),
    ("surface.uf_decode_p90_us", "us"),
    ("surface.defects_per_shot", "count"),
    ("serve.ack_p50_ms", "ms"),
    ("serve.result_wait_p50_ms", "ms"),
    ("serve.query_rtt_p50_us", "us"),
    ("serve.execute_ms", "ms"),
    ("serve.wal_append_sync_us", "us"),
    ("serve.batches_per_job", "count"),
    ("serve.shed", "count"),
    ("serve.duplicates", "count"),
    ("trace.span_coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Everything the benchmark needs to run one workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub work_dir: PathBuf,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Ops attempted, warm-up included.
    pub attempted: u64,
    /// Ops that failed, were refused, timed out or returned a wrong result.
    pub failed: u64,
    /// Failed gates and the first wrong results, for the human report.
    pub problems: Vec<String>,
    /// Observations about the workload's premise (printed, never fatal).
    pub notes: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a wrong result or failed gate (keeping the first few).
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Counts one checked op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problem(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

const USAGE: &str =
    "usage: qpdo-perfbench --workload sc17_stack|surface_d13|surface_d5|serve_small \
--seed N --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR";

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let number = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} expects a whole number, got {v:?}"))
    };
    let workload = take("--workload")?;
    let seed = number("--seed", take("--seed")?)?;
    let seconds = number("--seconds", take("--seconds")?)?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    let serve_bin = PathBuf::from(take("--serve-bin")?);
    let work_dir = PathBuf::from(take("--work-dir")?);
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=600"));
    }
    Ok(Args {
        workload,
        seed,
        budget: Duration::from_secs(seconds),
        trace,
        serve_bin,
        work_dir,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        exit(2);
    });
    let report = match args.workload.as_str() {
        "sc17_stack" => sc17::run(&args),
        "surface_d13" => surface::run(&args, surface::D13),
        "surface_d5" => surface::run(&args, surface::D5),
        "serve_small" => serve::run(&args),
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            exit(2);
        }
    };
    let report = report.unwrap_or_else(|e| {
        eprintln!("error: {}: {e}", args.workload);
        exit(1);
    });
    exit(emit(&args, &report));
}

/// Prints the human report and the JSON result line; returns the exit code.
fn emit(args: &Args, report: &Report) -> i32 {
    let specs = if args.trace { PER_LAYER } else { END_TO_END };
    let mut problems = report.problems.clone();
    let mut json = Vec::new();
    for &(name, unit) in specs {
        // Layers a workload does not run read 0; an end-to-end metric
        // must always be measured.
        let value = match report.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                problems.push(format!("metric {name} was not measured"));
                f64::NAN
            }
        };
        if !value.is_finite() {
            problems.push(format!("metric {name} is not a finite number"));
        }
        println!("{name:<34} {value:>16.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    // Measured but not gated (e.g. the median op time, which flips with
    // the host's speed phases; see README.md).
    for (name, value) in &report.metrics {
        if !specs.iter().any(|(n, _)| n == name) {
            println!("{name:<34} {value:>16.6} (not gated)");
        }
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    for problem in &problems {
        println!("FAILED: {problem}");
    }
    let correct = problems.is_empty() && report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        json.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// Op seeds for a run: a pool of `n` seeds drawn from the workload seed.
/// Ops cycle through the pool, so each op's golden value is computed once.
pub fn seed_pool(seed: u64, n: usize) -> Vec<u64> {
    use qpdo_rng::RngCore as _;
    let mut sm = qpdo_rng::SplitMix64::new(seed);
    (0..n).map(|_| sm.next_u64()).collect()
}
