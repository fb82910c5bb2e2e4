//! Edge-case tests for the supervised shot-execution engine: degenerate
//! batch plans (zero-shot batches, a batch whose shot count exceeds the
//! sweep total) must resolve cleanly, and the `--jobs 1` vs `--jobs N`
//! byte-identity guarantee must hold when the payload is the real
//! packed-kernel LER stack rather than a synthetic walk.

use std::time::Duration;

use qpdo_bench::supervisor::{run_supervised, BatchCtx, BatchSpec, CancelToken, SupervisorConfig};
use qpdo_core::ShotError;
use qpdo_surface17::experiment::{run_ler, LerConfig, LogicalErrorKind};

fn config(jobs: usize) -> SupervisorConfig {
    SupervisorConfig {
        jobs,
        watchdog: Duration::from_secs(30),
        max_attempts: 3,
        backoff: Duration::from_millis(1),
        max_replacements: jobs,
        base_seed: 2016,
        redundancy: 0,
    }
}

fn spec(batch: u64, shots: u64) -> BatchSpec {
    BatchSpec {
        key: format!("edge-b{batch}"),
        point: "edge".to_owned(),
        batch,
        shots,
        deadline: None,
    }
}

/// A shot-counting payload: one pseudo-random word per shot, seeded from
/// the batch substream.
fn walk(ctx: &BatchCtx) -> Result<Vec<u64>, ShotError> {
    let mut x = ctx.seed;
    Ok((0..ctx.spec.shots)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            x
        })
        .collect())
}

#[test]
fn zero_shot_batches_resolve_cleanly() {
    // A sweep plan may legitimately contain empty batches (e.g. a total
    // of 0 shots, or a trailing remainder batch that rounds to nothing).
    // They must resolve like any other batch: a `Some` result carrying
    // zero shots, no retries, no quarantine.
    let specs = vec![spec(0, 0), spec(1, 8), spec(2, 0)];
    let report = run_supervised(&config(3), specs.clone(), walk, None, &CancelToken::new());
    assert!(report.is_clean(), "quarantined: {:?}", report.quarantined);
    assert_eq!(report.stats.retries, 0);
    assert_eq!(report.results[0], Some(Vec::new()));
    assert_eq!(report.results[2], Some(Vec::new()));
    assert_eq!(report.results[1].as_ref().map(Vec::len), Some(8));

    // An all-empty sweep (total shots == 0) is also fine.
    let empty = run_supervised(
        &config(2),
        vec![spec(0, 0)],
        walk,
        None,
        &CancelToken::new(),
    );
    assert!(empty.is_clean());
    assert_eq!(empty.results, vec![Some(Vec::new())]);

    // Worker count cannot matter for degenerate plans either.
    let serial = run_supervised(&config(1), specs, walk, None, &CancelToken::new());
    assert_eq!(report.results, serial.results);
}

#[test]
fn oversized_batch_clamps_to_the_sweep_total() {
    // When the requested batch size exceeds the sweep total, the plan
    // degenerates to a single batch covering exactly the total. The
    // supervisor treats `shots` as opaque, so the clamp lives in the
    // plan; this pins both halves: the clamped plan and the payload
    // honouring `spec.shots` verbatim.
    const TOTAL: u64 = 10;
    const BATCH_SIZE: u64 = 64;
    const { assert!(BATCH_SIZE > TOTAL) };

    // Mirror of the experiment binaries' batch planning: full batches,
    // then a remainder, all clamped to the total.
    let mut specs = Vec::new();
    let mut remaining = TOTAL;
    let mut batch = 0;
    while remaining > 0 {
        let shots = remaining.min(BATCH_SIZE);
        specs.push(spec(batch, shots));
        remaining -= shots;
        batch += 1;
    }
    assert_eq!(specs.len(), 1, "oversized batch must clamp to one batch");
    assert_eq!(specs[0].shots, TOTAL);

    let report = run_supervised(&config(4), specs, walk, None, &CancelToken::new());
    assert!(report.is_clean(), "quarantined: {:?}", report.quarantined);
    let produced: usize = report
        .results
        .iter()
        .map(|r| r.as_ref().map_or(0, Vec::len))
        .sum();
    assert_eq!(produced as u64, TOTAL, "sweep must cover exactly the total");
}

/// A batch payload that drives the full packed-kernel stack: one LER
/// experiment per batch, seeded from the batch substream, returning the
/// canonical record line.
fn ler_payload(ctx: &BatchCtx) -> Result<String, ShotError> {
    let cfg = LerConfig {
        physical_error_rate: 6e-3,
        kind: if ctx.spec.batch.is_multiple_of(2) {
            LogicalErrorKind::XL
        } else {
            LogicalErrorKind::ZL
        },
        with_pauli_frame: ctx.spec.batch.is_multiple_of(3),
        target_logical_errors: 2,
        max_windows: 300,
        seed: ctx.seed,
    };
    run_ler(&cfg)
        .map(|outcome| outcome.to_record())
        .map_err(|err| ShotError::PoolFailure(err.to_string()))
}

#[test]
fn jobs_byte_identity_holds_on_packed_kernel_payloads() {
    // The worker-count independence guarantee must survive a payload
    // that exercises the word-packed stabilizer kernels end to end
    // (ESM rounds, decoder, Pauli frame), not just a synthetic walk:
    // identical record strings from `--jobs 1` and `--jobs 4`.
    let specs: Vec<BatchSpec> = (0..6).map(|i| spec(i, 1)).collect();
    let serial = run_supervised(
        &config(1),
        specs.clone(),
        ler_payload,
        None,
        &CancelToken::new(),
    );
    let parallel = run_supervised(&config(4), specs, ler_payload, None, &CancelToken::new());
    assert!(serial.is_clean(), "quarantined: {:?}", serial.quarantined);
    assert!(
        parallel.is_clean(),
        "quarantined: {:?}",
        parallel.quarantined
    );
    assert_eq!(
        serial.results, parallel.results,
        "--jobs 4 diverged from --jobs 1 on the packed LER payload"
    );
}
