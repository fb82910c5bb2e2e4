//! Timing and report rows for the report binaries (`bench_kernels`,
//! `bench_decoder`).
//!
//! [`measure_batched_ns`] times a routine on fresh inputs and reports
//! the **median of N samples** after an untimed warmup batch, which is
//! robust to scheduler noise on shared machines. [`kernel_entry`] turns
//! the result into one row of a report's `kernels` array, and
//! [`check_kernel_report`] is the schema check every such report shares.

use std::time::Instant;

use crate::json::Json;

/// Timed samples per kernel in a report run.
pub const SAMPLES: usize = 25;
/// Timed samples per kernel in a `--smoke` run.
pub const SMOKE_SAMPLES: usize = 3;

/// A measurement that cannot be summarized into honest statistics.
///
/// Report writers must treat this as fatal rather than emitting a
/// placeholder: a NaN or empty median silently poisons every future
/// diff against `BENCH_*.json`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HarnessError {
    /// No timed samples were collected (zero samples requested).
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

/// Batched measurement for the report binaries: times `routine` on
/// fresh `setup()` inputs, `iters` per sample over `samples` samples.
/// Only `routine` is timed: it borrows each input, and every input and
/// output lives until the clock has stopped, so no deallocation is
/// timed.
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

/// One row of a report's `kernels` array: the kernel's name and its
/// median, fastest and slowest ns per iteration, sample count and
/// iterations per sample.
#[must_use]
pub fn kernel_entry(name: &str, stats: &Stats) -> Json {
    Json::object([
        ("name", Json::from(name)),
        ("median_ns", Json::from(stats.median_ns)),
        ("min_ns", Json::from(stats.min_ns)),
        ("max_ns", Json::from(stats.max_ns)),
        ("samples", Json::from(stats.samples)),
        ("iters", Json::from(stats.iters_per_sample)),
    ])
}

/// The schema check a kernel report shares: `schema` names `schema`,
/// `seed` and `samples` are numbers, every `required` kernel has a row,
/// and every row's [`kernel_entry`] fields are positive. A report's own
/// validator adds its `derived` checks.
///
/// # Errors
///
/// Returns a message naming the first field or row that fails.
pub fn check_kernel_report(doc: &Json, schema: &str, required: &[&str]) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(schema) {
        return Err(format!("schema field must be {schema:?}"));
    }
    for field in ["seed", "samples"] {
        doc.get(field)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric field {field:?}"))?;
    }
    let kernels = doc
        .get("kernels")
        .and_then(Json::as_array)
        .ok_or("missing kernels array")?;
    for name in required {
        if !kernels
            .iter()
            .any(|k| k.get("name").and_then(Json::as_str) == Some(*name))
        {
            return Err(format!("missing kernel entry {name:?}"));
        }
    }
    for entry in kernels {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or("kernel entry missing name")?;
        for field in ["median_ns", "min_ns", "max_ns", "samples", "iters"] {
            let v = entry
                .get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("kernel {name:?} missing field {field:?}"))?;
            if v <= 0.0 {
                return Err(format!("kernel {name:?} field {field:?} must be positive"));
            }
        }
    }
    Ok(())
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
}
