//! Thread-count audit for the process's executor: a supervised run
//! asking for 64 helpers over 64 batches must run on the pool's parked
//! helpers, never on a thread per `--jobs`. Each batch reads the
//! process's thread count from `/proc/self/status` (Linux only), and
//! the highest reading may exceed the count before the run by at most
//! the pool's bound.
//!
//! This file deliberately holds a single `#[test]`: Rust runs tests in
//! threads of one process, so a sibling test's threads would be counted.

use std::time::Duration;

use qpdo_core::executor::Executor;
use qpdo_core::supervisor::{run_supervised, BatchCtx, BatchSpec, SupervisorConfig};
use qpdo_core::{CancelToken, ShotError};

/// The `Threads:` line of `/proc/self/status`; `None` off Linux.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

#[test]
fn a_64_job_run_stays_within_the_pool_bound() {
    let Some(before) = threads() else {
        return;
    };
    let config = SupervisorConfig {
        jobs: 64,
        watchdog: Duration::from_secs(30),
        max_attempts: 1,
        backoff: Duration::from_millis(1),
        max_replacements: 64,
        base_seed: 2016,
        redundancy: 0,
    };
    let specs = (0..64)
        .map(|i| BatchSpec {
            key: format!("threads-b{i}"),
            point: "threads".to_owned(),
            batch: i,
            shots: 1,
            deadline: None,
        })
        .collect();
    let report = run_supervised(
        &config,
        specs,
        |_: &BatchCtx| {
            // Long enough that the run's helpers overlap.
            std::thread::sleep(Duration::from_millis(2));
            threads().ok_or_else(|| ShotError::PoolFailure("no thread count".to_owned()))
        },
        None,
        &CancelToken::new(),
    );
    assert!(report.is_clean(), "quarantined: {:?}", report.quarantined);
    let highest = report.results.iter().flatten().copied().max().unwrap_or(0);
    let bound = Executor::global().bound();
    println!("threads: {before} before the run, at most {highest} during it, pool bound {bound}");
    assert!(
        highest <= before + bound,
        "{highest} threads during the run, {before} before it, pool bound {bound}"
    );
}
