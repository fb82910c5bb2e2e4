//! Resume-vs-scratch identity oracle for the checkpointed surface sweep.
//!
//! The serving layer's crash-resume story (DESIGN.md §14) rests on one
//! property: resuming `run_ler_surface_controlled` from *any* recorded
//! [`Checkpoint`] and running the remaining batches must
//! reproduce the uninterrupted outcome bit for bit. Per-batch RNG
//! substreams make that true by construction; this oracle pins it by
//! replaying a sweep from every checkpoint offset, for both error kinds
//! and a ragged tail batch, and asserting byte-identical wire records.
//! It does so at d = 5, where each thread decodes through its own
//! parity table, and at d = 7, where every lane runs the decoder.
//!
//! A run with two or more batches left fans whole batches out over the
//! process's helper threads, one per core beyond the first, and commits
//! them in batch order. To keep the helpers ahead of the commit, the d = 5
//! cases pause in their first `on_batch` call, which lets the helpers
//! claim and run the batches after it; the cancellation case stops the
//! run while they hold them. The tests take turns (`ONE_RUN_AT_A_TIME`),
//! since runs in progress share the cores and a run beside another would
//! get no helper on a two-core host. On a single-core host every run is
//! serial and the oracle still holds.

use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use qpdo_core::Checkpoint;
use qpdo_surface::experiment::{run_ler_surface, run_ler_surface_controlled, SurfaceLerConfig};
use qpdo_surface::CheckKind;

static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

/// How long a d = 5 run's first `on_batch` call pauses: long enough for
/// a woken helper to run a dozen or more batches ahead of the commit.
const PAUSE: Duration = Duration::from_millis(2);

/// Pauses in the `first` `on_batch` call of a d = 5 run, from scratch
/// or resumed.
fn pause(distance: usize, first: bool) {
    if distance == 5 && first {
        thread::sleep(PAUSE);
    }
}

fn sweep_at(distance: usize, kind: CheckKind, shots: u64, seed: u64) -> SurfaceLerConfig {
    SurfaceLerConfig {
        distance,
        physical_error_rate: 0.08,
        error: kind,
        shots,
        seed,
    }
}

fn sweep(kind: CheckKind, shots: u64, seed: u64) -> SurfaceLerConfig {
    sweep_at(5, kind, shots, seed)
}

/// The wire record the daemon publishes for a surface sweep; byte
/// identity of resumed results is asserted on this exact encoding.
fn record(outcome: &qpdo_surface::experiment::SurfaceLerOutcome) -> String {
    format!("{} {} {}", outcome.shots, outcome.failures, outcome.defects)
}

#[test]
fn resume_from_every_checkpoint_matches_scratch() {
    let _turn = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // 330 shots → 6 batches with a 10-lane ragged tail.
    for (distance, kind) in [
        (5, CheckKind::X),
        (5, CheckKind::Z),
        (7, CheckKind::X),
        (7, CheckKind::Z),
    ] {
        let config = sweep_at(distance, kind, 330, 0xC0FFEE);
        let scratch = run_ler_surface(&config).unwrap();
        assert!(scratch.defects > 0, "workload too thin to be a real oracle");

        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let (full, stopped) = run_ler_surface_controlled(&config, None, &|| false, &mut |c| {
            pause(distance, checkpoints.is_empty());
            checkpoints.push(c.clone())
        })
        .unwrap();
        assert!(!stopped);
        assert_eq!(full, scratch);
        assert_eq!(checkpoints.len(), 6);

        for (i, checkpoint) in checkpoints.iter().enumerate() {
            let mut replayed = 0u64;
            let (resumed, stopped) =
                run_ler_surface_controlled(&config, Some(checkpoint), &|| false, &mut |_| {
                    pause(distance, replayed == 0);
                    replayed += 1;
                })
                .unwrap();
            assert!(!stopped);
            assert_eq!(
                record(&resumed),
                record(&scratch),
                "d={distance} {kind:?}: resume from checkpoint {i} diverged from scratch"
            );
            assert_eq!(
                replayed,
                5 - i as u64,
                "d={distance} {kind:?}: resume from checkpoint {i} re-executed completed batches"
            );
        }
    }
}

#[test]
fn checkpoints_are_monotonic_and_consistent() {
    let _turn = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let config = sweep(CheckKind::X, 640, 7);
    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    run_ler_surface_controlled(&config, None, &|| false, &mut |c| {
        pause(5, checkpoints.is_empty());
        checkpoints.push(c.clone())
    })
    .unwrap();
    assert_eq!(checkpoints.len(), 10);
    for (i, p) in checkpoints.iter().enumerate() {
        assert_eq!(p.batches, i as u64 + 1);
        assert_eq!(p.shots, p.batches * 64, "whole batches count 64 shots each");
        assert!(p.failures <= p.shots);
    }
    for pair in checkpoints.windows(2) {
        assert!(pair[1].shots > pair[0].shots);
        assert!(pair[1].failures >= pair[0].failures);
        assert!(pair[1].counters[0] >= pair[0].counters[0]);
    }
}

#[test]
fn cancellation_mid_sweep_leaves_a_resumable_checkpoint() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let _turn = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let config = sweep(CheckKind::X, 640, 21);
    let scratch = run_ler_surface(&config).unwrap();

    // Cancel after three completed batches, as a deadline or SIGKILL
    // window would; the last on_batch checkpoint must resume cleanly.
    // The pause after the first lets the helpers claim the batches
    // past it, so the cancellation lands while they hold batches the
    // commit never reaches.
    let polls = AtomicU64::new(0);
    let mut last = Checkpoint::default();
    let (partial, stopped) = run_ler_surface_controlled(
        &config,
        None,
        &|| polls.fetch_add(1, Ordering::Relaxed) >= 3,
        &mut |c| {
            pause(5, c.batches == 1);
            last = c.clone()
        },
    )
    .unwrap();
    assert!(stopped);
    assert_eq!(last.batches, 3);
    assert_eq!(partial.shots, last.shots);

    let (resumed, stopped) =
        run_ler_surface_controlled(&config, Some(&last), &|| false, &mut |_| {}).unwrap();
    assert!(!stopped);
    assert_eq!(record(&resumed), record(&scratch));
}
