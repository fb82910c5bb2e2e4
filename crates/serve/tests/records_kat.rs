//! Known-answer test pinning the records of the daemon's experiment
//! job kinds.
//!
//! The `rc` (random-circuit frame check, §5.2.2), `bell` (odd-Bell
//! histogram, §5.2.3) and `ler_sliced` (shot-sliced SC17 sweep) kinds
//! run experiment drivers that the experiment binaries share. This file
//! hard-codes a 64-bit FNV-1a digest of what [`execute_tracked`] returns
//! for each on fixed seeds:
//!
//! - `rc/<qubits>x<gates>/<id>`: the record of a random-circuit check;
//! - `bell/<shots>/<id>`: the four ket counts, plus the cancellation
//!   message of a job stopped before its first shot;
//! - `ler_sliced/<point>`: the record, every checkpoint `on_batch`
//!   observes, the record and checkpoints of a run resumed from the
//!   middle checkpoint, the outcome of a run cancelled after two
//!   batches, and a run handed a foreign checkpoint (which must be
//!   ignored, so it folds the scratch record again).
//!
//! On a mismatch the test prints the whole recomputed table ready to
//! paste, which is also how the table was made.

use qpdo_core::{CancelToken, Checkpoint, ShotError};
use qpdo_serve::job::{execute_tracked, job_seed, Backend, Execution, JobKind};
use qpdo_surface17::experiment::LogicalErrorKind;

/// 64-bit FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn text(&mut self, s: &str) {
        for &byte in s.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn checkpoint(&mut self, c: &Checkpoint) {
        self.text(&format!(
            "{} {} {} {:?}",
            c.batches, c.shots, c.failures, c.counters
        ));
    }

    fn execution(&mut self, result: Result<Execution, ShotError>) {
        match result {
            Ok(Execution::Done(record)) => self.text(&format!("done {record}")),
            Ok(Execution::Stopped { checkpoint, reason }) => {
                self.text(&format!("stopped {reason}"));
                match checkpoint {
                    Some(c) => self.checkpoint(&c),
                    None => self.text("no checkpoint"),
                }
            }
            Err(e) => self.text(&format!("error {e}")),
        }
    }
}

/// Runs `kind` and collects every checkpoint `on_batch` observes.
fn run(
    kind: &JobKind,
    backend: Backend,
    seed: u64,
    cancel: &CancelToken,
    resume: Option<&Checkpoint>,
) -> (Result<Execution, ShotError>, Vec<Checkpoint>) {
    let mut seen = Vec::new();
    let result = execute_tracked(kind, backend, seed, cancel, resume, &mut |c| {
        seen.push(c.clone());
    });
    (result, seen)
}

fn rc_digest(qubits: usize, gates: usize, id: &str) -> u64 {
    let mut fnv = Fnv::new();
    let kind = JobKind::RandomCircuit { qubits, gates };
    let (result, _) = run(
        &kind,
        Backend::Statevector,
        job_seed(2016, id),
        &CancelToken::new(),
        None,
    );
    fnv.execution(result);
    fnv.0
}

fn bell_digest(shots: u64, id: &str) -> u64 {
    let mut fnv = Fnv::new();
    let kind = JobKind::Bell { shots };
    let seed = job_seed(2016, id);
    fnv.execution(run(&kind, Backend::Packed, seed, &CancelToken::new(), None).0);
    let cancelled = CancelToken::new();
    cancelled.cancel();
    fnv.execution(run(&kind, Backend::Packed, seed, &cancelled, None).0);
    fnv.0
}

fn sliced_digest(per: f64, kind: LogicalErrorKind, with_pf: bool, id: &str) -> u64 {
    let mut fnv = Fnv::new();
    let job = JobKind::LerSliced {
        per,
        kind,
        with_pf,
        target: 1,
        max_windows: 40,
        // Four 64-lane batches.
        shots: 200,
    };
    let seed = job_seed(2016, id);

    let (scratch, checkpoints) = run(&job, Backend::Packed, seed, &CancelToken::new(), None);
    assert_eq!(checkpoints.len(), 4, "{id}: one checkpoint per batch");
    fnv.execution(scratch.clone());
    for c in &checkpoints {
        fnv.checkpoint(c);
    }

    // Resuming from the middle checkpoint replays only the remaining
    // batches and reaches the scratch record.
    let (resumed, tail) = run(
        &job,
        Backend::Packed,
        seed,
        &CancelToken::new(),
        Some(&checkpoints[1]),
    );
    assert_eq!(resumed, scratch, "{id}: resume from the middle checkpoint");
    assert_eq!(tail, checkpoints[2..], "{id}: resumed checkpoints");
    fnv.execution(resumed);
    for c in &tail {
        fnv.checkpoint(c);
    }

    // A cancel raised after two batches stops the third.
    let cancel = CancelToken::new();
    let mut batches = 0;
    let stopped = execute_tracked(&job, Backend::Packed, seed, &cancel, None, &mut |_| {
        batches += 1;
        if batches == 2 {
            cancel.cancel();
        }
    });
    let Ok(Execution::Stopped { checkpoint, .. }) = &stopped else {
        panic!("{id}: the cancelled sweep must stop: {stopped:?}");
    };
    assert_eq!(checkpoint.as_ref(), Some(&checkpoints[1]), "{id}");
    fnv.execution(stopped);

    // A checkpoint without the ten LER counters is ignored: the sweep
    // runs from scratch.
    let foreign = Checkpoint {
        batches: 2,
        shots: 128,
        failures: 1,
        counters: vec![7, 7, 7],
    };
    let (result, seen) = run(
        &job,
        Backend::Packed,
        seed,
        &CancelToken::new(),
        Some(&foreign),
    );
    assert_eq!(result, scratch, "{id}: foreign checkpoint ignored");
    assert_eq!(seen, checkpoints, "{id}: foreign checkpoint ignored");
    fnv.0
}

fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (qubits, gates) in [(2, 10), (5, 60), (8, 300)] {
        for id in ["rc-a", "rc-b"] {
            out.push((
                format!("rc/{qubits}x{gates}/{id}"),
                rc_digest(qubits, gates, id),
            ));
        }
    }
    for (shots, id) in [(1, "bell-a"), (6, "bell-b"), (12, "bell-c")] {
        out.push((format!("bell/{shots}/{id}"), bell_digest(shots, id)));
    }
    for (point, per, kind, with_pf) in [
        ("xl-pf1", 0.01, LogicalErrorKind::XL, true),
        ("zl-pf0", 0.012, LogicalErrorKind::ZL, false),
    ] {
        out.push((
            format!("ler_sliced/{point}"),
            sliced_digest(per, kind, with_pf, point),
        ));
    }
    out
}

const PINNED: &[(&str, u64)] = &[
    ("rc/2x10/rc-a", 0x59a947b18e5869cb),
    ("rc/2x10/rc-b", 0x59ba45b18e66d998),
    ("rc/5x60/rc-a", 0xb39693b4e0af4c8b),
    ("rc/5x60/rc-b", 0xb399f9b4e0b22fb4),
    ("rc/8x300/rc-a", 0x5236cc60577f644e),
    ("rc/8x300/rc-b", 0x493bad605251f7cf),
    ("bell/1/bell-a", 0x13aef99d97929739),
    ("bell/6/bell-b", 0x433c23a1047dc39f),
    ("bell/12/bell-c", 0x32f7251b021a03ac),
    ("ler_sliced/xl-pf1", 0x725948c632ebf121),
    ("ler_sliced/zl-pf0", 0x01a5f01a151dcf4a),
];

#[test]
fn experiment_job_records_match_the_pinned_digests() {
    let got = digests();
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|&(k, d)| (k.to_owned(), d)).collect();
    if got != pinned {
        println!("const PINNED: &[(&str, u64)] = &[");
        for (key, digest) in &got {
            println!("    (\"{key}\", 0x{digest:016x}),");
        }
        println!("];");
    }
    assert_eq!(got, pinned, "an experiment job's record moved");
}
