//! Supervised execution for the experiment binaries: the engine itself
//! lives in [`qpdo_core::supervisor`] on the process's executor
//! (`DESIGN.md` §7); this module re-exports what the binaries use and
//! adds the command-line glue and the chaos injection that exercises
//! the engine (`--chaos-panic`, `--chaos-hang`).

use std::panic;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use qpdo_core::ShotError;
use qpdo_rng::{RngCore, SplitMix64};

pub use qpdo_core::supervisor::{
    read_quarantine_csv, run_supervised, BatchCtx, BatchSpec, SupervisorConfig, SupervisorReport,
    QUARANTINE_HEADER,
};
pub use qpdo_core::{sliced_lane_seeds, CancelToken};

use crate::HarnessArgs;

impl From<&HarnessArgs> for SupervisorConfig {
    /// A configuration driven by the shared command-line flags.
    fn from(args: &HarnessArgs) -> Self {
        SupervisorConfig {
            jobs: args.jobs.max(1),
            watchdog: Duration::from_millis(args.watchdog_ms),
            max_attempts: 3,
            backoff: Duration::from_millis(10),
            max_replacements: args.jobs.max(1),
            base_seed: args.seed,
            redundancy: args.redundancy,
        }
    }
}

/// Fault-injection knobs for exercising the supervisor itself (driven
/// by `--chaos-panic` / `--chaos-hang`; off in normal runs).
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Probability that a batch panics on its first attempt, decided by
    /// a deterministic coin on the batch's attempt-0 substream.
    pub panic_rate: f64,
    /// A task index whose first attempt hangs (once).
    pub hang_task: Option<usize>,
    /// How long the injected hang sleeps (bounded, so test processes
    /// terminate; must exceed the watchdog to trip it).
    pub hang_for: Duration,
}

impl ChaosConfig {
    /// Chaos flags from the command line; `None` when both are off.
    #[must_use]
    pub fn from_args(args: &HarnessArgs) -> Option<Self> {
        if args.chaos_panic <= 0.0 && args.chaos_hang.is_none() {
            return None;
        }
        Some(ChaosConfig {
            panic_rate: args.chaos_panic,
            hang_task: args.chaos_hang,
            hang_for: Duration::from_millis(args.watchdog_ms.saturating_mul(20).max(1000)),
        })
    }
}

/// Wraps a job with chaos injection: on a batch's **first** attempt the
/// configured hang task sleeps past the watchdog (once per run) and a
/// deterministic coin on the attempt-0 substream may panic. Retries run
/// the unmodified job, so a chaos-injected sweep converges to exactly
/// the fault-free results.
pub fn with_chaos<T, F>(chaos: ChaosConfig, job: F) -> impl Fn(&BatchCtx) -> Result<T, ShotError>
where
    F: Fn(&BatchCtx) -> Result<T, ShotError>,
{
    let hang_fired = AtomicBool::new(false);
    move |ctx| {
        if ctx.attempt == 0 {
            if chaos.hang_task == Some(ctx.task) && !hang_fired.swap(true, Ordering::SeqCst) {
                thread::sleep(chaos.hang_for);
            }
            if chaos.panic_rate > 0.0 && unit_coin(ctx.attempt_seed) < chaos.panic_rate {
                panic!("chaos: injected panic in batch {}", ctx.spec.key);
            }
        }
        job(ctx)
    }
}

/// A uniform draw in `[0, 1)` from one seed (53 mantissa bits).
fn unit_coin(seed: u64) -> f64 {
    (SplitMix64::new(seed).next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Installs a process-wide panic hook that swallows the reports of
/// chaos-injected panics (they are expected, caught, and retried);
/// every other panic still reports through the previous hook. Meant
/// for experiment binaries running with `--chaos-panic`.
pub fn silence_chaos_panics() {
    let previous = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("chaos:"));
        if !expected {
            previous(info);
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_coin_is_deterministic() {
        let c = unit_coin(42);
        assert_eq!(c, unit_coin(42));
        assert!((0.0..1.0).contains(&c));
        assert_ne!(c, unit_coin(43));
    }
}
