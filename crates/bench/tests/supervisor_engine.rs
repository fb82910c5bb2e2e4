//! End-to-end tests of the supervised shot-execution engine: injected
//! panics recover via retry, injected hangs trip the watchdog,
//! exhausted retries are quarantined without aborting the run, and the
//! reduction is independent of the worker count.

use std::time::Duration;

use qpdo_bench::supervisor::{
    run_supervised, with_chaos, BatchCtx, BatchSpec, CancelToken, ChaosConfig, SupervisorConfig,
};
use qpdo_core::ShotError;

fn specs(n: usize) -> Vec<BatchSpec> {
    (0..n)
        .map(|i| BatchSpec {
            key: format!("p0-b{i}"),
            point: "p0".to_owned(),
            batch: i as u64,
            shots: 8,
            deadline: None,
        })
        .collect()
}

fn config(jobs: usize) -> SupervisorConfig {
    SupervisorConfig {
        jobs,
        watchdog: Duration::from_millis(150),
        max_attempts: 3,
        backoff: Duration::from_millis(1),
        max_replacements: jobs,
        base_seed: 2016,
        redundancy: 0,
    }
}

/// A deterministic payload: a short pseudo-random walk from the batch
/// seed, standing in for a simulation batch.
fn payload(ctx: &BatchCtx) -> Result<Vec<u64>, ShotError> {
    let mut x = ctx.seed;
    let walk = (0..ctx.spec.shots)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            x
        })
        .collect();
    Ok(walk)
}

#[test]
fn injected_panics_recover_via_retry() {
    // Panic on every first attempt: every batch must still resolve,
    // with results identical to a fault-free run (stable seed policy).
    let chaos = ChaosConfig {
        panic_rate: 1.0,
        hang_task: None,
        hang_for: Duration::from_millis(0),
    };
    let report = run_supervised(
        &config(4),
        specs(12),
        with_chaos(chaos, payload),
        None,
        &CancelToken::new(),
    );
    assert!(report.is_clean(), "quarantined: {:?}", report.quarantined);
    assert_eq!(report.stats.panics, 12);
    assert!(report.stats.retries >= 12);

    let clean = run_supervised(&config(4), specs(12), payload, None, &CancelToken::new());
    assert_eq!(report.results, clean.results);
}

#[test]
fn injected_hang_trips_watchdog_and_recovers() {
    let chaos = ChaosConfig {
        panic_rate: 0.0,
        hang_task: Some(2),
        hang_for: Duration::from_millis(1500),
    };
    let report = run_supervised(
        &config(2),
        specs(6),
        with_chaos(chaos, payload),
        None,
        &CancelToken::new(),
    );
    assert!(report.is_clean(), "quarantined: {:?}", report.quarantined);
    assert!(report.stats.timeouts >= 1, "watchdog never fired");
    assert!(report.results.iter().all(Option::is_some));

    let clean = run_supervised(&config(2), specs(6), payload, None, &CancelToken::new());
    assert_eq!(report.results, clean.results);
}

#[test]
fn exhausted_retries_quarantine_and_run_completes() {
    // Task 3 fails on every attempt; everything else succeeds.
    let report = run_supervised(
        &config(3),
        specs(8),
        |ctx: &BatchCtx| {
            if ctx.task == 3 {
                Err(ShotError::PoolFailure("persistent failure".to_owned()))
            } else {
                payload(ctx)
            }
        },
        None,
        &CancelToken::new(),
    );
    assert_eq!(report.quarantined.len(), 1);
    let q = &report.quarantined[0];
    assert_eq!((q.task, q.key.as_str(), q.attempts), (3, "p0-b3", 3));
    assert!(q.error.contains("persistent failure"));
    assert!(report.results[3].is_none());
    assert_eq!(
        report.results.iter().filter(|r| r.is_some()).count(),
        7,
        "the other batches must all complete"
    );
    let rows = report.quarantine_rows();
    assert_eq!(rows.len(), 1);
    assert!(rows[0].starts_with("p0-b3,3,3,"));
}

#[test]
fn worker_count_does_not_change_results() {
    for seed in [2016, 77] {
        let mut serial_cfg = config(1);
        serial_cfg.base_seed = seed;
        let mut parallel_cfg = config(4);
        parallel_cfg.base_seed = seed;

        let serial = run_supervised(&serial_cfg, specs(16), payload, None, &CancelToken::new());
        let parallel = run_supervised(&parallel_cfg, specs(16), payload, None, &CancelToken::new());
        assert!(serial.is_clean() && parallel.is_clean());
        assert_eq!(
            serial.results, parallel.results,
            "seed {seed}: --jobs 4 diverged from --jobs 1"
        );
    }
}

#[test]
fn lost_pool_degrades_to_serial_and_still_finishes() {
    // One worker, no replacements: the injected hang loses the whole
    // pool, and the supervisor must finish the sweep in-process.
    let mut cfg = config(1);
    cfg.max_replacements = 0;
    let chaos = ChaosConfig {
        panic_rate: 0.0,
        hang_task: Some(0),
        hang_for: Duration::from_millis(1500),
    };
    let report = run_supervised(
        &cfg,
        specs(4),
        with_chaos(chaos, payload),
        None,
        &CancelToken::new(),
    );
    assert!(report.stats.degraded_to_serial);
    assert!(report.is_clean(), "quarantined: {:?}", report.quarantined);
    assert!(report.results.iter().all(Option::is_some));

    let clean = run_supervised(&config(2), specs(4), payload, None, &CancelToken::new());
    assert_eq!(report.results, clean.results);
}
