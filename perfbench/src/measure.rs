//! Timing loops, order statistics and process memory readings shared by
//! every workload.

use std::time::{Duration, Instant};

/// Wall time of one closure call, in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// the closest ranks. Returns NaN for an empty slice, so an empty sample
/// can never pass for a measurement.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Per-op wall times and work amounts from one timed loop.
#[derive(Default)]
pub struct OpLog {
    /// Seconds per op.
    pub secs: Vec<f64>,
    /// Work units (windows, shots) per op.
    pub work: Vec<f64>,
}

impl OpLog {
    pub fn push(&mut self, secs: f64, work: f64) {
        self.secs.push(secs);
        self.work.push(work);
    }

    /// The sustained rate: the per-op rate that nine ops in ten meet or
    /// beat. On a shared host the fast phases come and go by the minute
    /// while the slow phase is a steady floor, so this low quantile
    /// repeats far better between runs than the median rate does.
    pub fn work_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .secs
            .iter()
            .zip(&self.work)
            .map(|(s, w)| w / s)
            .collect();
        quantile(&rates, 0.1)
    }

    pub fn op_ms(&self, q: f64) -> f64 {
        quantile(&self.secs, q) * 1e3
    }
}

/// Runs `op(i)` for `i = 0, 1, …` until `budget` has elapsed and at least
/// `min_ops` calls were made.
pub fn run_for(budget: Duration, min_ops: usize, mut op: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min_ops || start.elapsed() < budget {
        op(i);
        i += 1;
    }
}

/// Set-up groups per run.
pub const SETUP_GROUPS: usize = 10;

/// Set-up timing: [`SETUP_GROUPS`] groups of `per_group` consecutive
/// set-ups, each timed by `once(i)` (~75 ms a group). The set-up time is
/// the 90th percentile of the groups' mean: like `work_per_s` it reads
/// the host's slow phase, which repeats between runs where the fast
/// phase does not.
pub struct Setups<F> {
    once: F,
    per_group: usize,
    means: Vec<f64>,
}

impl<F: FnMut(usize) -> Result<f64, String>> Setups<F> {
    pub fn new(per_group: usize, once: F) -> Self {
        Setups {
            once,
            per_group,
            means: Vec::with_capacity(SETUP_GROUPS),
        }
    }

    fn group(&mut self) -> Result<(), String> {
        let first = self.means.len() * self.per_group;
        let mut total = 0.0;
        for i in first..first + self.per_group {
            total += (self.once)(i)?;
        }
        self.means.push(total / self.per_group as f64);
        Ok(())
    }

    /// Times the groups still missing; returns the set-up time.
    pub fn finish(mut self) -> Result<f64, String> {
        while self.means.len() < SETUP_GROUPS {
            self.group()?;
        }
        Ok(quantile(&self.means, 0.9))
    }
}

/// [`run_for`] that also times one set-up group each time the run
/// crosses another tenth of its budget, so the groups sample the whole
/// run rather than its first second; returns the set-up time.
pub fn run_for_with_setups<F: FnMut(usize) -> Result<f64, String>>(
    budget: Duration,
    min_ops: usize,
    mut op: impl FnMut(usize),
    mut setups: Setups<F>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut i = 0;
    while i < min_ops || start.elapsed() < budget {
        op(i);
        i += 1;
        let due =
            (start.elapsed().as_secs_f64() / budget.as_secs_f64() * SETUP_GROUPS as f64) as usize;
        while setups.means.len() < due.min(SETUP_GROUPS) {
            setups.group()?;
        }
    }
    setups.finish()
}

/// Peak resident set size (`VmHWM`) of process `pid` (`None` = this
/// process), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn work_rate_is_the_rate_nine_ops_in_ten_meet() {
        let mut log = OpLog::default();
        for _ in 0..10 {
            log.push(1.0, 10.0);
        }
        log.push(100.0, 10.0); // one stall in eleven ops
        assert_eq!(log.work_per_s(), 10.0);
        log.push(5.0, 10.0); // a second one does move it
        assert!(log.work_per_s() < 10.0);
        assert_eq!(log.op_ms(0.5), 1000.0);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb(None).expect("procfs") > 0.0);
    }
}
