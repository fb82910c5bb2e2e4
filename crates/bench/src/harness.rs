//! A minimal in-repo benchmark harness (criterion replacement).
//!
//! The external `criterion` crate cannot be used in a hermetic offline
//! build, and the benches here only need honest relative numbers, not
//! criterion's full statistical machinery. This harness keeps the same
//! call shape (`benchmark_group` / `bench_function` / `iter` /
//! `iter_batched`) and reports the **median of N samples** after a
//! warmup phase, which is robust to scheduler noise on shared machines.
//!
//! Command line (all optional; unknown flags are ignored so `cargo
//! bench` extra arguments pass through cleanly):
//!
//! - `<filter>` — run only benchmarks whose `group/name` contains it,
//! - `--samples N` — samples per benchmark (default 15),
//! - `--sample-ms N` — target wall time per sample (default 30 ms),
//! - `--test` — run every benchmark body exactly once (smoke mode).

use std::time::{Duration, Instant};

/// Batch construction hint, mirroring criterion's `BatchSize`.
///
/// [`SmallInput`](BatchSize::SmallInput) batches many inputs per sample;
/// [`LargeInput`](BatchSize::LargeInput) caps the batch to keep peak
/// memory low.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Inputs are cheap to hold; batch freely (cap 4096 per sample).
    SmallInput,
    /// Inputs are expensive to hold; batch at most 16 per sample.
    LargeInput,
}

impl BatchSize {
    fn cap(self) -> usize {
        match self {
            BatchSize::SmallInput => 4096,
            BatchSize::LargeInput => 16,
        }
    }
}

/// The top-level harness: parses options once, then runs groups.
pub struct Harness {
    filter: Option<String>,
    samples: usize,
    sample_time: Duration,
    test_mode: bool,
    ran: usize,
}

impl Harness {
    /// A harness configured from `std::env::args`.
    #[must_use]
    pub fn from_args() -> Self {
        let mut harness = Harness {
            filter: None,
            samples: 15,
            sample_time: Duration::from_millis(30),
            test_mode: false,
            ran: 0,
        };
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--test" => harness.test_mode = true,
                "--samples" => {
                    if let Some(n) = iter.next().and_then(|s| s.parse().ok()) {
                        harness.samples = n;
                    }
                }
                "--sample-ms" => {
                    if let Some(ms) = iter.next().and_then(|s| s.parse().ok()) {
                        harness.sample_time = Duration::from_millis(ms);
                    }
                }
                other => {
                    // `cargo bench` forwards flags like `--bench`; only a
                    // bare word is a name filter.
                    if !other.starts_with('-') {
                        harness.filter = Some(other.to_owned());
                    }
                }
            }
        }
        harness
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        Group {
            harness: self,
            name,
            samples: None,
        }
    }

    /// Prints the run summary. Call once after all groups.
    pub fn finish(&self) {
        if self.ran == 0 {
            println!("no benchmarks matched the filter");
        } else {
            println!("\n{} benchmark(s) complete", self.ran);
        }
    }
}

/// A named group of benchmarks sharing configuration.
pub struct Group<'h> {
    harness: &'h mut Harness,
    name: String,
    samples: Option<usize>,
}

impl Group<'_> {
    /// Overrides the per-benchmark sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = Some(n.max(3));
        self
    }

    /// Runs one benchmark. `f` receives a [`Bencher`] and must call
    /// [`iter`](Bencher::iter) or [`iter_batched`](Bencher::iter_batched).
    pub fn bench_function(&mut self, id: impl Into<String>, mut f: impl FnMut(&mut Bencher)) {
        let id = id.into();
        let full = format!("{}/{id}", self.name);
        if let Some(filter) = &self.harness.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            samples: self.samples.unwrap_or(self.harness.samples),
            sample_time: self.harness.sample_time,
            test_mode: self.harness.test_mode,
            result: None,
        };
        f(&mut bencher);
        self.harness.ran += 1;
        match bencher.result {
            Some(Ok(stats)) => println!("{full:<44} {stats}"),
            // A degenerate measurement (e.g. `--samples 0`) is reported,
            // not summarized — better a loud line than a NaN median.
            Some(Err(err)) => println!("{full:<44} ERROR: {err}"),
            None if bencher.test_mode => println!("{full:<44} ok (test mode)"),
            None => println!("{full:<44} WARNING: benchmark body never iterated"),
        }
    }

    /// Criterion-compatibility no-op (results print as they complete).
    pub fn finish(self) {}
}

/// A measurement that cannot be summarized into honest statistics.
///
/// Report writers must treat this as fatal rather than emitting a
/// placeholder: a NaN or empty median silently poisons every future
/// diff against `BENCH_*.json`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HarnessError {
    /// No timed samples were collected (e.g. `--samples 0`, or the
    /// warmup phase swallowed the entire budget).
    NoSamples,
    /// A sample batch ran zero iterations, so per-iteration time is
    /// undefined.
    NoIterations,
    /// A sample produced a non-finite per-iteration time.
    NonFiniteSample(f64),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::NoSamples => {
                write!(f, "no timed samples were collected; nothing to summarize")
            }
            HarnessError::NoIterations => {
                write!(
                    f,
                    "a sample ran zero iterations; per-iteration time is undefined"
                )
            }
            HarnessError::NonFiniteSample(v) => {
                write!(f, "a sample produced a non-finite per-iteration time ({v})")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

/// Per-iteration timing statistics over the collected samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Median ns per iteration across the samples.
    pub median_ns: f64,
    /// Fastest sample's ns per iteration.
    pub min_ns: f64,
    /// Slowest sample's ns per iteration.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations batched into each sample.
    pub iters_per_sample: usize,
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:>10}/iter  (min {}, max {}; {} samples x {} iters)",
            fmt_ns(self.median_ns),
            fmt_ns(self.min_ns),
            fmt_ns(self.max_ns),
            self.samples,
            self.iters_per_sample,
        )
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// Drives one benchmark body: warmup, calibration, then N timed samples.
pub struct Bencher {
    samples: usize,
    sample_time: Duration,
    test_mode: bool,
    result: Option<Result<Stats, HarnessError>>,
}

impl Bencher {
    /// Times `f` repeatedly; the routine's return value is kept alive
    /// through a black box so the optimizer cannot elide the work.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        if self.test_mode {
            std::hint::black_box(f());
            return;
        }
        // Warmup + calibration: run for ~one sample period to estimate
        // the per-iteration cost.
        let per_iter = estimate_per_iter(self.sample_time, &mut f);
        let iters = iters_for(self.sample_time, per_iter, usize::MAX);
        let mut per_iter_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            per_iter_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.result = Some(summarize(per_iter_ns, iters));
    }

    /// Like [`iter`](Bencher::iter), but each call of `routine` consumes
    /// a fresh input built by `setup`, and only `routine` is timed.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        size: BatchSize,
    ) {
        if self.test_mode {
            std::hint::black_box(routine(setup()));
            return;
        }
        let per_iter = estimate_per_iter(self.sample_time, &mut || routine(setup()));
        let iters = iters_for(self.sample_time, per_iter, size.cap());
        let mut per_iter_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                std::hint::black_box(routine(input));
            }
            per_iter_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.result = Some(summarize(per_iter_ns, iters));
    }
}

/// Runs `f` for roughly `budget` wall time and returns the mean
/// per-iteration duration observed (also serving as cache/branch warmup).
fn estimate_per_iter<O>(budget: Duration, f: &mut impl FnMut() -> O) -> Duration {
    let start = Instant::now();
    let mut iters = 0u32;
    while start.elapsed() < budget || iters == 0 {
        std::hint::black_box(f());
        iters += 1;
        // A single extremely slow iteration must not spin forever.
        if iters >= 1_000_000 {
            break;
        }
    }
    start.elapsed() / iters
}

/// Programmatic batched measurement for report-emitting binaries (e.g.
/// `bench_kernels`): times `routine` on fresh `setup()` inputs,
/// `iters` per sample over `samples` samples, without the harness's
/// CLI/printing wrapper. Only `routine` is timed: it borrows each input,
/// and every input and output lives until the clock has stopped, so no
/// deallocation is timed.
///
/// # Errors
///
/// [`HarnessError::NoSamples`] / [`HarnessError::NoIterations`] when
/// `samples` or `iters` is zero (previously clamped silently, which
/// hid caller bugs), and [`HarnessError::NonFiniteSample`] if timing
/// arithmetic ever yields a non-finite value.
pub fn measure_batched_ns<I, O>(
    samples: usize,
    iters: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(&mut I) -> O,
) -> Result<Stats, HarnessError> {
    if samples == 0 {
        return Err(HarnessError::NoSamples);
    }
    if iters == 0 {
        return Err(HarnessError::NoIterations);
    }
    // Warmup: one untimed batch primes caches and branch predictors.
    for _ in 0..iters.min(64) {
        std::hint::black_box(routine(&mut setup()));
    }
    let mut per_iter_ns = Vec::with_capacity(samples);
    let mut outputs = Vec::with_capacity(iters);
    for _ in 0..samples {
        let mut inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
        let start = Instant::now();
        for input in &mut inputs {
            outputs.push(routine(input));
        }
        per_iter_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        std::hint::black_box(&outputs);
        outputs.clear();
    }
    summarize(per_iter_ns, iters)
}

/// Collapses externally collected per-iteration samples into [`Stats`].
///
/// The public face of the summary step, for report writers that time
/// their own loops (e.g. whole-experiment medians) but must share the
/// harness's degenerate-input handling.
///
/// # Errors
///
/// Same contract as the internal summary: [`HarnessError::NoSamples`]
/// on empty input, [`HarnessError::NonFiniteSample`] on NaN/infinite
/// samples.
pub fn summarize_ns(per_iter_ns: Vec<f64>, iters: usize) -> Result<Stats, HarnessError> {
    summarize(per_iter_ns, iters)
}

fn iters_for(sample_time: Duration, per_iter: Duration, cap: usize) -> usize {
    let per_iter_ns = per_iter.as_nanos().max(1);
    let target = (sample_time.as_nanos() / per_iter_ns) as usize;
    target.clamp(1, cap)
}

/// Collapses raw per-iteration samples into [`Stats`].
///
/// # Errors
///
/// [`HarnessError::NoSamples`] on an empty sample vector and
/// [`HarnessError::NonFiniteSample`] when any sample is NaN or
/// infinite — both degenerate cases used to panic (index out of
/// bounds) or flow NaN medians straight into `BENCH_*.json`.
fn summarize(mut per_iter_ns: Vec<f64>, iters: usize) -> Result<Stats, HarnessError> {
    if per_iter_ns.is_empty() {
        return Err(HarnessError::NoSamples);
    }
    if let Some(&bad) = per_iter_ns.iter().find(|v| !v.is_finite()) {
        return Err(HarnessError::NonFiniteSample(bad));
    }
    per_iter_ns.sort_by(f64::total_cmp);
    let mid = per_iter_ns.len() / 2;
    let median_ns = if per_iter_ns.len() % 2 == 1 {
        per_iter_ns[mid]
    } else {
        (per_iter_ns[mid - 1] + per_iter_ns[mid]) / 2.0
    };
    Ok(Stats {
        median_ns,
        min_ns: per_iter_ns[0],
        max_ns: *per_iter_ns.last().expect("non-empty by the guard above"),
        samples: per_iter_ns.len(),
        iters_per_sample: iters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_takes_median() {
        let stats = summarize(vec![5.0, 1.0, 9.0], 10).expect("three finite samples");
        assert_eq!(stats.median_ns, 5.0);
        assert_eq!(stats.min_ns, 1.0);
        assert_eq!(stats.max_ns, 9.0);
        let even = summarize(vec![4.0, 2.0], 1).expect("two finite samples");
        assert_eq!(even.median_ns, 3.0);
    }

    #[test]
    fn summarize_rejects_empty_sample_vectors() {
        // Used to panic with an index-out-of-bounds; now a clean error.
        assert_eq!(summarize(vec![], 10), Err(HarnessError::NoSamples));
        assert_eq!(summarize_ns(vec![], 1), Err(HarnessError::NoSamples));
    }

    #[test]
    fn summarize_rejects_non_finite_samples() {
        let err = summarize(vec![1.0, f64::NAN, 3.0], 4).unwrap_err();
        assert!(matches!(err, HarnessError::NonFiniteSample(v) if v.is_nan()));
        let err = summarize(vec![f64::INFINITY], 1).unwrap_err();
        assert_eq!(err, HarnessError::NonFiniteSample(f64::INFINITY));
        assert!(err.to_string().contains("non-finite"));
    }

    #[test]
    fn single_sample_median_is_that_sample() {
        // A warmup phase that swallows all but one sample must still
        // summarize to finite numbers, never NaN.
        let stats = summarize(vec![42.5], 7).expect("one finite sample");
        assert_eq!(stats.median_ns, 42.5);
        assert_eq!(stats.min_ns, 42.5);
        assert_eq!(stats.max_ns, 42.5);
        assert_eq!(stats.samples, 1);
        assert!(stats.median_ns.is_finite());
    }

    #[test]
    fn measure_batched_ns_rejects_degenerate_requests() {
        // Zero samples/iters were silently clamped to 1 before, hiding
        // caller bugs; now they are explicit errors.
        assert_eq!(
            measure_batched_ns(0, 8, || (), |_| ()).unwrap_err(),
            HarnessError::NoSamples
        );
        assert_eq!(
            measure_batched_ns(3, 0, || (), |_| ()).unwrap_err(),
            HarnessError::NoIterations
        );
        let stats = measure_batched_ns(3, 2, || (), |_| ()).expect("valid request");
        assert_eq!(stats.samples, 3);
        assert!(stats.median_ns.is_finite());
    }

    #[test]
    fn iters_for_respects_cap_and_floor() {
        let ms = Duration::from_millis(30);
        assert_eq!(iters_for(ms, Duration::from_secs(1), 4096), 1);
        assert_eq!(iters_for(ms, Duration::from_nanos(1), 4096), 4096);
        assert!(iters_for(ms, Duration::from_micros(1), usize::MAX) >= 10_000);
    }

    #[test]
    fn fmt_ns_picks_sensible_units() {
        assert_eq!(fmt_ns(12.3), "12.3 ns");
        assert_eq!(fmt_ns(12_300.0), "12.30 µs");
        assert_eq!(fmt_ns(12_300_000.0), "12.30 ms");
        assert_eq!(fmt_ns(2.5e9), "2.50 s");
    }
}
