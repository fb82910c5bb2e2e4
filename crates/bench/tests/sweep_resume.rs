//! Crash-resume oracle of the resumable sweep
//! (`qpdo_bench::supervisor::run_resumable`): a `--full` experiment
//! killed at any byte of its sweep journal must resume onto the
//! scratch run's outcomes, in spec order, re-running exactly the
//! batches that were not durable.
//!
//! The journal under test is written the way a killed run leaves it:
//! one synced record per finished batch, in an order that is not the
//! spec order (helpers finish batches out of order), so a durable set
//! can hold repetitions 0 and 2 of a point without repetition 1. Each
//! cut truncates a copy of that journal at a record boundary or at a
//! seeded byte inside a record (a torn append) and resumes from it.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use qpdo_bench::supervisor::{run_resumable, BatchCtx, BatchSpec, SweepJournal};
use qpdo_bench::HarnessArgs;
use qpdo_core::supervisor::RedundancyCheck;
use qpdo_core::ShotError;
use qpdo_rng::{RngCore, SplitMix64};

const FINGERPRINT: &str = "sweep_resume points=3 reps=4 seed=7";
const POINTS: usize = 3;
const REPS: usize = 4;

/// The order the full journal records the batches in (spec indices):
/// never the spec order, so a prefix of it is not a prefix of the specs.
const RECORD_ORDER: [usize; POINTS * REPS] = [2, 0, 5, 1, 7, 3, 11, 4, 9, 6, 10, 8];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpdo-sweep-resume-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn specs() -> Vec<BatchSpec> {
    (0..POINTS)
        .flat_map(|p| {
            (0..REPS).map(move |rep| BatchSpec {
                key: format!("p{p}-r{rep}"),
                point: format!("p{p}"),
                batch: rep as u64,
                shots: 1,
                deadline: None,
            })
        })
        .collect()
}

fn args() -> HarnessArgs {
    let mut args = HarnessArgs::defaults();
    args.jobs = 2;
    args.seed = 7;
    args
}

/// Runs the sweep with a cheap deterministic job (an outcome derived
/// from the batch's seed and task index) that counts its calls per
/// batch key.
/// `fail` names a batch that fails every attempt.
fn run(
    journal: Option<SweepJournal>,
    fail: Option<&'static str>,
) -> (Vec<Option<u64>>, HashMap<String, usize>, usize) {
    let calls: Arc<Mutex<HashMap<String, usize>>> = Arc::default();
    let job_calls = Arc::clone(&calls);
    let job = move |ctx: &BatchCtx| -> Result<u64, ShotError> {
        *job_calls
            .lock()
            .unwrap()
            .entry(ctx.spec.key.clone())
            .or_default() += 1;
        if fail == Some(ctx.spec.key.as_str()) {
            return Err(ShotError::PoolFailure("poisoned batch".to_owned()));
        }
        // The task index names the spec, as in the experiments' jobs.
        Ok((SplitMix64::new(ctx.seed).next_u64() >> 8) ^ ctx.task as u64)
    };
    let (outcomes, report) = run_resumable(
        &args(),
        specs(),
        |outcome: &u64| outcome.to_string(),
        |line: &str| line.parse().ok(),
        job,
        None,
        journal,
    );
    let calls = calls.lock().unwrap().clone();
    (outcomes, calls, report.quarantined.len())
}

/// The one segment file of a sweep journal directory.
fn segment(dir: &Path) -> PathBuf {
    let mut logs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "log"))
        .collect();
    assert_eq!(logs.len(), 1, "expected one segment in {}", dir.display());
    logs.pop().unwrap()
}

/// Byte offsets where each framed record ends, in file order.
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let len = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 8 + len;
        ends.push(at);
    }
    assert_eq!(at, bytes.len(), "the journal ends on a record boundary");
    ends
}

#[test]
fn every_cut_resumes_onto_the_scratch_outcomes() {
    let specs = specs();
    let (scratch, calls, quarantined) = run(None, None);
    assert_eq!(quarantined, 0);
    assert!(scratch.iter().all(Option::is_some));
    assert!(calls.values().all(|&n| n == 1) && calls.len() == specs.len());

    // The journal a run leaves when killed after its last record.
    let full = tmp_dir("full");
    let mut journal = SweepJournal::open(&full, FINGERPRINT).unwrap();
    for &i in &RECORD_ORDER {
        let line = scratch[i].unwrap().to_string();
        journal.record(&specs[i].key, &line).unwrap();
    }
    drop(journal);
    let path = segment(&full);
    let name = path.file_name().unwrap().to_owned();
    let bytes = fs::read(&path).unwrap();
    // [snapshot marker][fingerprint][one point per batch]
    let ends = record_ends(&bytes);
    assert_eq!(ends.len(), 2 + specs.len());

    // Every record boundary, and one seeded byte inside every record.
    let mut cuts = vec![0];
    let mut rng = SplitMix64::new(2016);
    let mut start = 0;
    for &end in &ends {
        cuts.push(start + 1 + (rng.next_u64() % (end - start - 1) as u64) as usize);
        cuts.push(end);
        start = end;
    }

    let mut non_prefix = 0;
    for (n, &cut) in cuts.iter().enumerate() {
        // Batches whose point record lies wholly before the cut, if the
        // fingerprint does too (without it the journal is discarded).
        let durable: BTreeSet<usize> = if cut >= ends[1] {
            RECORD_ORDER
                .iter()
                .zip(&ends[2..])
                .filter(|(_, &end)| end <= cut)
                .map(|(&i, _)| i)
                .collect()
        } else {
            BTreeSet::new()
        };
        if durable.iter().enumerate().any(|(k, &i)| k != i) {
            non_prefix += 1;
        }

        let dir = tmp_dir(&format!("cut-{n}"));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(&name), &bytes[..cut]).unwrap();
        let journal = SweepJournal::open(&dir, FINGERPRINT).unwrap();
        let (outcomes, calls, quarantined) = run(Some(journal), None);

        assert_eq!(quarantined, 0, "cut at byte {cut}");
        assert_eq!(outcomes, scratch, "cut at byte {cut}: outcomes differ");
        let rerun: BTreeSet<usize> = (0..specs.len()).filter(|i| !durable.contains(i)).collect();
        let called: BTreeSet<usize> = (0..specs.len())
            .filter(|&i| calls.contains_key(&specs[i].key))
            .collect();
        assert_eq!(called, rerun, "cut at byte {cut}: wrong batches re-run");
        assert!(
            calls.values().all(|&n| n == 1),
            "cut at byte {cut}: a batch ran twice: {calls:?}"
        );
        assert!(
            !dir.exists(),
            "cut at byte {cut}: a clean run keeps no journal"
        );
    }
    assert!(non_prefix > 0, "no cut left a non-prefix durable set");
    let _ = fs::remove_dir_all(&full);
}

#[test]
fn a_quarantined_batch_keeps_the_journal_and_alone_reruns() {
    let dir = tmp_dir("quarantine");
    let journal = SweepJournal::open(&dir, FINGERPRINT).unwrap();
    let (first, _, quarantined) = run(Some(journal), Some("p1-r2"));
    assert_eq!(quarantined, 1);
    let poisoned = REPS + 2;
    assert!(first
        .iter()
        .enumerate()
        .all(|(i, outcome)| outcome.is_none() == (i == poisoned)));
    assert!(
        dir.exists(),
        "a run with a quarantined batch keeps its journal"
    );

    let journal = SweepJournal::open(&dir, FINGERPRINT).unwrap();
    let (second, calls, quarantined) = run(Some(journal), None);
    assert_eq!(quarantined, 0);
    assert_eq!(calls.keys().collect::<Vec<_>>(), ["p1-r2"]);
    assert_eq!(second, run(None, None).0);
    assert!(!dir.exists());
}

#[test]
fn a_journal_of_another_sweep_is_not_resumed() {
    let dir = tmp_dir("fingerprint");
    let mut journal = SweepJournal::open(&dir, "another sweep").unwrap();
    journal.record("p0-r0", "12345").unwrap();
    drop(journal);
    let journal = SweepJournal::open(&dir, FINGERPRINT).unwrap();
    let (outcomes, calls, _) = run(Some(journal), None);
    assert_eq!(calls.len(), POINTS * REPS);
    assert_ne!(outcomes[0], Some(12345));
    assert!(!dir.exists());
}

/// Runs the sweep with every `redundancy`-th batch voting, batch `fail`
/// failing every attempt: the outcomes, the task index each voting
/// batch saw (by key), and the task indices quarantined.
fn run_voting(
    journal: Option<SweepJournal>,
    redundancy: u64,
    fail: Option<&'static str>,
) -> (Vec<Option<u64>>, BTreeMap<String, usize>, Vec<usize>) {
    let votes: Arc<Mutex<BTreeMap<String, usize>>> = Arc::default();
    let vote_log = Arc::clone(&votes);
    let vote: Box<RedundancyCheck> = Box::new(move |ctx: &BatchCtx| {
        vote_log
            .lock()
            .unwrap()
            .insert(ctx.spec.key.clone(), ctx.task);
        Ok(())
    });
    let mut args = args();
    args.redundancy = redundancy;
    let job = move |ctx: &BatchCtx| -> Result<u64, ShotError> {
        if fail == Some(ctx.spec.key.as_str()) {
            return Err(ShotError::PoolFailure("poisoned batch".to_owned()));
        }
        Ok((SplitMix64::new(ctx.seed).next_u64() >> 8) ^ ctx.task as u64)
    };
    let (outcomes, report) = run_resumable(
        &args,
        specs(),
        |outcome: &u64| outcome.to_string(),
        |line: &str| line.parse().ok(),
        job,
        Some(vote),
        journal,
    );
    let quarantined = report.quarantined.iter().map(|q| q.task).collect();
    let votes = votes.lock().unwrap().clone();
    (outcomes, votes, quarantined)
}

#[test]
fn a_resumed_run_votes_on_the_scratch_runs_batches() {
    const REDUNDANCY: u64 = 3;
    let specs = specs();
    let (scratch, scratch_votes, _) = run_voting(None, REDUNDANCY, None);
    let due: BTreeMap<String, usize> = (0..specs.len())
        .filter(|&i| (i as u64).is_multiple_of(REDUNDANCY))
        .map(|i| (specs[i].key.clone(), i))
        .collect();
    assert_eq!(scratch_votes, due);

    // A non-prefix durable set: the first five records of the full
    // journal, so batches 3, 4, 6 and on are left to run.
    let durable = &RECORD_ORDER[..5];
    assert!(durable.iter().any(|&i| i >= durable.len()));
    let dir = tmp_dir("votes");
    let mut journal = SweepJournal::open(&dir, FINGERPRINT).unwrap();
    for &i in durable {
        journal
            .record(&specs[i].key, &scratch[i].unwrap().to_string())
            .unwrap();
    }
    drop(journal);
    // One of the batches left fails, so the quarantine index shows.
    let poisoned = 8;
    assert!(!durable.contains(&poisoned));
    let journal = SweepJournal::open(&dir, FINGERPRINT).unwrap();
    let (outcomes, votes, quarantined) = run_voting(Some(journal), REDUNDANCY, Some("p2-r0"));
    assert_eq!(specs[poisoned].key, "p2-r0");

    let rerun_due: BTreeMap<String, usize> = due
        .into_iter()
        .filter(|(_, i)| !durable.contains(i))
        .collect();
    assert_eq!(votes, rerun_due, "the resumed run voted on other batches");
    assert_eq!(
        quarantined,
        vec![poisoned],
        "quarantine counts the whole spec list"
    );
    for (i, outcome) in outcomes.iter().enumerate() {
        let expected = if i == poisoned { None } else { scratch[i] };
        assert_eq!(*outcome, expected, "batch {i}");
    }
    let _ = fs::remove_dir_all(&dir);
}
