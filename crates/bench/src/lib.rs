//! Shared harness for the experiment binaries that regenerate every
//! table and figure of the paper's evaluation (see `DESIGN.md` §4 for
//! the experiment index).
//!
//! Every binary accepts:
//!
//! - `--full` — paper-scale parameters (long; the default is a quick
//!   mode with the same structure at reduced statistics),
//! - `--out <dir>` — where CSV series are written (default `results/`),
//! - `--seed <n>` — base RNG seed (default 2016),
//! - `--jobs <n>` — most executor helpers a supervised run may use
//!   (default: the machine's available parallelism; not a thread
//!   count),
//! - `--batch-shots <n>` — shots per supervised batch (default 16),
//! - `--watchdog-ms <n>` — per-batch watchdog deadline (default 30000),
//! - `--redundancy <n>` — cross-backend vote every `n`-th batch (0 off),
//! - `--test smoke` (or `--smoke`) — the binary's reduced,
//!   assertion-checked self-check; no other mode exists.
//!
//! The report binaries (`bench_kernels`, `bench_decoder`) parse the same
//! flags and use `--out`, `--seed` and `--smoke`; their timing and
//! report rows are in [`harness`], their report writer in [`json`].
//!
//! The supervised execution engine behind those flags is
//! `qpdo_core::supervisor` on the process's executor, with its
//! command-line glue in [`supervisor`]; see `DESIGN.md` §7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod json;
pub mod supervisor;

use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use qpdo_core::executor::{MAX_JOBS, MAX_MS_FLAG};

/// A command-line parse failure (or an explicit `--help` request).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// `--help`/`-h` was given: print usage, exit 0.
    Help,
    /// A real error: print the message and usage, exit non-zero.
    Invalid(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Help => write!(f, "help requested"),
            ParseError::Invalid(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ParseError {}

fn invalid<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError::Invalid(message.into()))
}

/// Command-line options shared by all experiment binaries.
#[derive(Clone, Debug, PartialEq)]
pub struct HarnessArgs {
    /// Run at paper-scale statistics.
    pub full: bool,
    /// Output directory for CSV series.
    pub out_dir: PathBuf,
    /// Base RNG seed.
    pub seed: u64,
    /// `--test smoke` (or `--smoke`): the binary runs a reduced,
    /// assertion-checked configuration.
    pub smoke: bool,
    /// Most executor helpers a supervised run may use (`--jobs`,
    /// default: available parallelism). Always at least 1.
    pub jobs: usize,
    /// Shots per supervised batch (`--batch-shots`, default 16).
    pub batch_shots: u64,
    /// Per-batch watchdog deadline in milliseconds (`--watchdog-ms`,
    /// default 30000).
    pub watchdog_ms: u64,
    /// Cross-backend redundancy stride: every `n`-th batch is re-run on
    /// both back-ends and voted (`--redundancy`, 0 = off).
    pub redundancy: u64,
}

/// Upper bound accepted for `--batch-shots`: a single batch beyond a
/// billion shots starves the watchdog and the checkpoint cadence.
pub const MAX_BATCH_SHOTS: u64 = 1 << 30;

impl HarnessArgs {
    /// The defaults every flag starts from (quick mode, `results/`,
    /// seed 2016, machine parallelism).
    #[must_use]
    pub fn defaults() -> Self {
        HarnessArgs {
            full: false,
            out_dir: PathBuf::from("results"),
            seed: 2016,
            smoke: false,
            jobs: default_jobs(),
            batch_shots: 16,
            watchdog_ms: 30_000,
            redundancy: 0,
        }
    }

    /// Parses an explicit argument list (everything after the program
    /// name). This is the testable core of [`parse`](Self::parse).
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Help`] for `--help`/`-h` and
    /// [`ParseError::Invalid`] for unknown flags, missing values, or
    /// out-of-range values (zero `--jobs`/`--batch-shots`/
    /// `--watchdog-ms`, values above the [`MAX_MS_FLAG`]/
    /// [`MAX_BATCH_SHOTS`]/[`MAX_JOBS`] sanity caps, a `--test` mode
    /// other than `smoke`).
    pub fn try_parse_from<I, S>(raw: I) -> Result<Self, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = HarnessArgs::defaults();
        let mut iter = raw.into_iter().map(Into::into);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => args.full = true,
                "--quick" => args.full = false,
                "--out" => match iter.next() {
                    Some(dir) => args.out_dir = PathBuf::from(dir),
                    None => return invalid("--out needs a directory"),
                },
                "--seed" => args.seed = parse_value(iter.next(), "--seed", "an integer")?,
                "--test" => match iter.next().as_deref() {
                    Some("smoke") => args.smoke = true,
                    Some(mode) => return invalid(format!("unknown --test mode {mode:?}")),
                    None => return invalid("--test needs a mode (smoke)"),
                },
                "--smoke" => args.smoke = true,
                "--jobs" => {
                    args.jobs = parse_value(iter.next(), "--jobs", "a positive integer")?;
                    if args.jobs == 0 {
                        return invalid("--jobs must be at least 1");
                    }
                    if args.jobs > MAX_JOBS {
                        return invalid(format!("--jobs must be at most {MAX_JOBS}"));
                    }
                }
                "--batch-shots" => {
                    args.batch_shots =
                        parse_value(iter.next(), "--batch-shots", "a positive integer")?;
                    if args.batch_shots == 0 {
                        return invalid("--batch-shots must be at least 1");
                    }
                    if args.batch_shots > MAX_BATCH_SHOTS {
                        return invalid(format!("--batch-shots must be at most {MAX_BATCH_SHOTS}"));
                    }
                }
                "--watchdog-ms" => {
                    args.watchdog_ms =
                        parse_value(iter.next(), "--watchdog-ms", "a positive integer")?;
                    if args.watchdog_ms == 0 {
                        return invalid("--watchdog-ms must be at least 1");
                    }
                    if args.watchdog_ms > MAX_MS_FLAG {
                        return invalid(format!(
                            "--watchdog-ms must be at most {MAX_MS_FLAG} (one day)"
                        ));
                    }
                }
                "--redundancy" => {
                    args.redundancy =
                        parse_value(iter.next(), "--redundancy", "a batch stride (0 = off)")?;
                }
                "--help" | "-h" => return Err(ParseError::Help),
                other => return invalid(format!("unknown option {other:?}")),
            }
        }
        Ok(args)
    }

    /// Parses `std::env::args`, exiting with usage on errors (the
    /// behavior experiment binaries want; tests use
    /// [`try_parse_from`](Self::try_parse_from)).
    #[must_use]
    pub fn parse() -> Self {
        match Self::try_parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(ParseError::Help) => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            Err(ParseError::Invalid(message)) => {
                eprintln!("error: {message}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Writes a CSV series into the output directory, creating it on
    /// demand. Returns the path written.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors (experiment binaries want loud failures).
    pub fn write_csv(&self, name: &str, header: &str, rows: &[String]) -> PathBuf {
        fs::create_dir_all(&self.out_dir).expect("create output directory");
        let path = self.out_dir.join(name);
        let mut text = String::with_capacity(rows.len() * 32 + header.len() + 1);
        let _ = writeln!(text, "{header}");
        for row in rows {
            let _ = writeln!(text, "{row}");
        }
        fs::write(&path, text).expect("write CSV");
        path
    }
}

/// Usage text shared by every experiment binary.
pub const USAGE: &str = "\
usage: <experiment> [options]
  --full             paper-scale statistics (default: quick mode)
  --quick            quick mode (the default; undoes an earlier --full)
  --out DIR          output directory for CSV series (default results/)
  --seed N           base RNG seed (default 2016)
  --test smoke       run the binary's self-check
  --smoke            alias for --test smoke
  --jobs N           most helpers a supervised run may use (default: machine parallelism)
  --batch-shots N    shots per supervised batch (default 16)
  --watchdog-ms N    per-batch watchdog deadline in ms (default 30000)
  --redundancy N     cross-backend vote every Nth batch (default 0 = off)";

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn parse_value<T: std::str::FromStr>(
    value: Option<String>,
    flag: &str,
    want: &str,
) -> Result<T, ParseError> {
    match value {
        Some(v) => v
            .parse()
            .map_err(|_| ParseError::Invalid(format!("{flag} needs {want}, got {v:?}"))),
        None => Err(ParseError::Invalid(format!("{flag} needs {want}"))),
    }
}

/// `n` logarithmically spaced points over `[lo, hi]`, inclusive.
///
/// # Panics
///
/// Panics if `lo <= 0`, `hi <= lo`, or `n < 2`.
#[must_use]
pub fn log_space(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo && n >= 2, "invalid log-space request");
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..n)
        .map(|i| (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// Renders an aligned text table with a title, for terminal output that
/// mirrors the paper's tables.
#[must_use]
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let header_line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}"))
        .collect();
    let _ = writeln!(out, "{}", header_line.join("  "));
    let rule_len = header_line.join("  ").len();
    let _ = writeln!(out, "{}", "-".repeat(rule_len));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", line.join("  "));
    }
    out
}

/// Formats a float in the compact scientific style the paper's axes use.
#[must_use]
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else {
        format!("{v:.3e}")
    }
}

/// Estimates where a sampled curve crosses `y = x` (the pseudo-threshold
/// of Section 2.5.1) by log-log interpolation. Returns `None` when the
/// samples never cross.
#[must_use]
pub fn pseudo_threshold(points: &[(f64, f64)]) -> Option<f64> {
    let mut sorted: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    for pair in sorted.windows(2) {
        let (x1, y1) = pair[0];
        let (x2, y2) = pair[1];
        let f1 = (y1 / x1).ln();
        let f2 = (y2 / x2).ln();
        if f1 <= 0.0 && f2 > 0.0 || f1 >= 0.0 && f2 < 0.0 {
            // Interpolate ln(y/x) = 0 in ln(x).
            let t = f1 / (f1 - f2);
            return Some((x1.ln() + t * (x2.ln() - x1.ln())).exp());
        }
    }
    None
}

/// Estimates where two sampled curves `a(x)` and `b(x)` cross, by linear
/// interpolation of `ln(a) − ln(b)` in `x` over their shared sample
/// points. Returns `None` when the curves never cross on the grid (or
/// share fewer than two positive points).
///
/// This is the distance-scaling threshold estimator: below threshold the
/// larger code's LER curve runs below the smaller code's, above it the
/// order flips, and the crossing point of successive distances estimates
/// the threshold.
#[must_use]
pub fn curve_crossing(a: &[(f64, f64)], b: &[(f64, f64)]) -> Option<f64> {
    // Shared x grid with positive y on both curves.
    let mut shared: Vec<(f64, f64, f64)> = a
        .iter()
        .filter_map(|&(x, ya)| {
            let yb = b
                .iter()
                .find(|(xb, _)| (xb - x).abs() < 1e-12 * x.abs().max(1e-300))?
                .1;
            (ya > 0.0 && yb > 0.0).then_some((x, ya, yb))
        })
        .collect();
    shared.sort_by(|p, q| p.0.total_cmp(&q.0));
    for pair in shared.windows(2) {
        let (x1, ya1, yb1) = pair[0];
        let (x2, ya2, yb2) = pair[1];
        let f1 = (ya1 / yb1).ln();
        let f2 = (ya2 / yb2).ln();
        if f1 == 0.0 {
            return Some(x1);
        }
        if f1 < 0.0 && f2 >= 0.0 || f1 > 0.0 && f2 <= 0.0 {
            let t = f1 / (f1 - f2);
            return Some(x1 + t * (x2 - x1));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_space_endpoints() {
        let pts = log_space(1e-4, 1e-2, 5);
        assert_eq!(pts.len(), 5);
        assert!((pts[0] - 1e-4).abs() < 1e-12);
        assert!((pts[4] - 1e-2).abs() < 1e-9);
        assert!((pts[2] - 1e-3).abs() < 1e-9); // geometric midpoint
    }

    #[test]
    fn render_table_aligns() {
        let table = render_table(
            "demo",
            &["p", "LER"],
            &[vec!["0.001".into(), "0.003".into()]],
        );
        assert!(table.contains("demo"));
        assert!(table.contains("LER"));
        assert!(table.contains("0.003"));
    }

    #[test]
    fn pseudo_threshold_interpolation() {
        // LER = 1000·p²: crosses y = x at p = 1e-3.
        let points: Vec<(f64, f64)> = log_space(1e-4, 1e-2, 9)
            .into_iter()
            .map(|p| (p, 1000.0 * p * p))
            .collect();
        let pth = pseudo_threshold(&points).unwrap();
        assert!((pth - 1e-3).abs() / 1e-3 < 0.05, "pth = {pth}");
        // A curve entirely above y=x has no crossing.
        assert!(pseudo_threshold(&[(1e-3, 1e-2), (1e-2, 1e-1)]).is_none());
    }

    #[test]
    fn sci_formatting() {
        assert_eq!(sci(0.0), "0");
        assert!(sci(3.05e-3).starts_with("3.05"));
    }

    #[test]
    fn parser_defaults() {
        let args = HarnessArgs::try_parse_from(Vec::<String>::new()).unwrap();
        assert!(!args.full);
        assert_eq!(args.out_dir, PathBuf::from("results"));
        assert_eq!(args.seed, 2016);
        assert!(!args.smoke);
        assert!(args.jobs >= 1);
        assert_eq!(args.batch_shots, 16);
        assert_eq!(args.watchdog_ms, 30_000);
        assert_eq!(args.redundancy, 0);
    }

    #[test]
    fn parser_accepts_all_flags() {
        let args = HarnessArgs::try_parse_from([
            "--full",
            "--out",
            "tmp",
            "--seed",
            "7",
            "--test",
            "smoke",
            "--jobs",
            "4",
            "--batch-shots",
            "32",
            "--watchdog-ms",
            "500",
            "--redundancy",
            "8",
        ])
        .unwrap();
        assert!(args.full);
        assert_eq!(args.out_dir, PathBuf::from("tmp"));
        assert_eq!(args.seed, 7);
        assert!(args.smoke);
        assert_eq!(args.jobs, 4);
        assert_eq!(args.batch_shots, 32);
        assert_eq!(args.watchdog_ms, 500);
        assert_eq!(args.redundancy, 8);
    }

    #[test]
    fn parser_rejects_bad_input() {
        let invalid = |raw: &[&str]| {
            matches!(
                HarnessArgs::try_parse_from(raw.iter().copied()),
                Err(ParseError::Invalid(_))
            )
        };
        assert!(invalid(&["--jobs", "0"]));
        assert!(invalid(&["--batch-shots", "0"]));
        assert!(invalid(&["--watchdog-ms", "0"]));
        assert!(invalid(&["--jobs"]));
        assert!(invalid(&["--jobs", "many"]));
        // Only one self-check mode exists; fault injection lives in the
        // tests and the smoke's code, and sample counts are constants.
        assert!(invalid(&["--test", "fast"]));
        assert!(invalid(&["--test"]));
        assert!(invalid(&["--chaos-panic", "0.5"]));
        assert!(invalid(&["--chaos-hang", "1"]));
        assert!(invalid(&["--samples", "8"]));
        assert!(invalid(&["--seed", "-3"]));
        assert!(invalid(&["--frobnicate"]));
        // Not a flag: failed batches re-run through a `--full` resume
        // from the sweep journal.
        assert!(invalid(&["--replay-quarantine", "results/quarantine.csv"]));
        // Nonsense magnitudes are rejected, not silently accepted.
        assert!(invalid(&["--watchdog-ms", "99999999999"]));
        assert!(invalid(&["--batch-shots", "1099511627776"]));
        assert!(invalid(&["--jobs", "1000000"]));
        assert_eq!(
            HarnessArgs::try_parse_from(["--help"]),
            Err(ParseError::Help)
        );
        // Error messages surface the flag that failed.
        let Err(ParseError::Invalid(message)) = HarnessArgs::try_parse_from(["--jobs", "x"]) else {
            panic!("expected an invalid-argument error");
        };
        assert!(message.contains("--jobs"));
    }

    #[test]
    fn quick_undoes_full() {
        let args = HarnessArgs::try_parse_from(["--full", "--quick"]).unwrap();
        assert!(!args.full);
    }

    #[test]
    fn smoke_alias_sets_test_mode() {
        let args = HarnessArgs::try_parse_from(["--smoke"]).unwrap();
        assert!(args.smoke);
        assert_eq!(
            args,
            HarnessArgs::try_parse_from(["--test", "smoke"]).unwrap()
        );
    }

    #[test]
    fn curve_crossing_finds_the_flip() {
        // a = 10·p², b = 100·p³: equal at p = 0.1.
        let grid = [0.02, 0.05, 0.08, 0.12, 0.15];
        let a: Vec<(f64, f64)> = grid.iter().map(|&p| (p, 10.0 * p * p)).collect();
        let b: Vec<(f64, f64)> = grid.iter().map(|&p| (p, 100.0 * p * p * p)).collect();
        let crossing = curve_crossing(&a, &b).unwrap();
        assert!((crossing - 0.1).abs() < 0.01, "crossing = {crossing}");
        // Curves that never flip order have no crossing.
        let lo: Vec<(f64, f64)> = grid.iter().map(|&p| (p, 0.1 * p)).collect();
        assert!(curve_crossing(&a, &lo).is_none());
    }
}
