//! The durability suite of the shared journal (`qpdo_core::journal`),
//! run against all three of its record codecs: the daemon WAL's, the
//! router's binding log and the experiment sweeps' resume log. Torn
//! tails, interrupted rotations, rotation pacing, injected write and
//! fsync failures, retention pruning with its pruned-id ledger, and
//! linear-time replay are properties of the journal, not of a codec, so
//! each test is written once, generic over the codec, and instantiated
//! for each. This crate is the one that sees every codec. Codec
//! semantics (record round trips, exactly-once rules, rebinds,
//! checkpoints, fingerprints) stay with each codec's unit tests.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use qpdo_bench::supervisor::{SweepPoint, SweepRecord};
use qpdo_core::journal::{read_records, write_record, Journal, Record};
use qpdo_router::journal::RouterRecord;
use qpdo_serve::job::{JobKind, JobSpec};
use qpdo_serve::wal::{JobOutcome, WalRecord};

/// What the generic tests need from a codec beyond [`Record`].
trait Fixture: Record {
    /// Records that must precede any job (the router's first member).
    fn setup() -> Vec<Self>;
    /// The record that introduces job `id`.
    fn open_job(id: &str) -> Self;
    /// The records that take job `id` to a terminal outcome (none for
    /// a codec whose `open_job` is already terminal).
    fn finish_job(id: &str) -> Vec<Self>;
    /// A record the journal refuses once the setup is written.
    fn refused() -> Self;

    /// Whether `open_job` leaves the job in flight.
    fn opens_pending() -> bool {
        !Self::finish_job("x").is_empty()
    }
}

fn spec(id: &str) -> JobSpec {
    JobSpec {
        id: id.to_owned(),
        deadline_ms: None,
        kind: JobKind::Bell { shots: 2 },
    }
}

impl Fixture for WalRecord {
    fn setup() -> Vec<Self> {
        Vec::new()
    }

    fn open_job(id: &str) -> Self {
        WalRecord::Accept(spec(id))
    }

    fn finish_job(id: &str) -> Vec<Self> {
        vec![WalRecord::Complete {
            id: id.to_owned(),
            outcome: JobOutcome::Done("0 0 1 1".to_owned()),
        }]
    }

    fn refused() -> Self {
        Self::finish_job("ghost").remove(0)
    }
}

impl Fixture for RouterRecord {
    fn setup() -> Vec<Self> {
        vec![RouterRecord::Member {
            name: "d0".to_owned(),
            addr: "127.0.0.1:4100".to_owned(),
        }]
    }

    fn open_job(id: &str) -> Self {
        RouterRecord::Route {
            spec: spec(id),
            member: "d0".to_owned(),
        }
    }

    fn finish_job(id: &str) -> Vec<Self> {
        vec![
            RouterRecord::Acked { id: id.to_owned() },
            RouterRecord::Terminal {
                id: id.to_owned(),
                outcome: JobOutcome::Done("0 0 1 1".to_owned()),
            },
        ]
    }

    fn refused() -> Self {
        Self::finish_job("ghost").remove(0)
    }
}

impl Fixture for SweepRecord {
    fn setup() -> Vec<Self> {
        vec![SweepRecord::Fingerprint("sweep seed=1".to_owned())]
    }

    fn open_job(id: &str) -> Self {
        SweepRecord::Point(SweepPoint {
            key: id.to_owned(),
            line: "0 0 1 1".to_owned(),
        })
    }

    fn finish_job(_: &str) -> Vec<Self> {
        Vec::new()
    }

    fn refused() -> Self {
        SweepRecord::Fingerprint("sweep seed=2".to_owned())
    }
}

fn tmp_dir<R: Record>(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qpdo-journal-{}-{tag}-{}",
        R::SEGMENT_PREFIX,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Opens a journal and appends the codec's setup records.
fn open<R: Fixture>(dir: &Path, max_segment_bytes: u64) -> Journal<R> {
    open_retaining(
        dir,
        max_segment_bytes,
        Journal::<R>::DEFAULT_RETAIN_TERMINAL,
    )
}

/// [`open`] keeping `retain_terminal` terminal jobs through compaction.
fn open_retaining<R: Fixture>(
    dir: &Path,
    max_segment_bytes: u64,
    retain_terminal: usize,
) -> Journal<R> {
    let (mut journal, _) =
        Journal::<R>::open_retaining(dir, max_segment_bytes, retain_terminal).unwrap();
    for record in R::setup() {
        journal.append(&record).unwrap();
    }
    journal
}

fn finish<R: Fixture>(journal: &mut Journal<R>, id: &str) {
    for record in R::finish_job(id) {
        journal.append(&record).unwrap();
    }
}

/// The segment files in `dir`, oldest first.
fn segments<R: Record>(dir: &Path) -> Vec<PathBuf> {
    let prefix = format!("{}-", R::SEGMENT_PREFIX);
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_str().unwrap();
            name.starts_with(&prefix) && name.ends_with(".log")
        })
        .collect();
    segments.sort();
    segments
}

fn segment_lines(path: &Path) -> Vec<String> {
    read_records(&mut BufReader::new(File::open(path).unwrap()))
        .unwrap()
        .into_iter()
        .map(|payload| String::from_utf8(payload).unwrap())
        .collect()
}

fn ids<R: Record>(jobs: &[R::Job]) -> Vec<&str> {
    jobs.iter().map(|job| R::job_id(job)).collect()
}

fn torn_tail_is_dropped_and_reopen_starts_clean<R: Fixture>() {
    let dir = tmp_dir::<R>("torn");
    {
        let mut journal = open::<R>(&dir, 1 << 20);
        journal.append(&R::open_job("kept")).unwrap();
        journal.append(&R::open_job("torn")).unwrap();
    }
    // Tear the last frame mid-payload, as a crash mid-write would.
    let path = segments::<R>(&dir).pop().unwrap();
    let len = std::fs::metadata(&path).unwrap().len();
    let file = OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len - 5).unwrap();
    drop(file);

    let (journal, recovery) = Journal::<R>::open(&dir, 1 << 20).unwrap();
    assert_eq!(ids::<R>(recovery.jobs()), ["kept"]);
    // The reopened journal compacted into a fresh segment: the torn
    // bytes are gone from disk, not merely skipped. The segment holds
    // the snapshot marker, the setup, and the one surviving job.
    let active = segments::<R>(&dir).pop().unwrap();
    assert!(active.ends_with(format!(
        "{}-{:08}.log",
        R::SEGMENT_PREFIX,
        journal.active_seq()
    )));
    assert_eq!(segment_lines(&active).len(), 2 + R::setup().len());
    let _ = std::fs::remove_dir_all(&dir);
}

fn corrupt_mid_segment_byte_keeps_the_prefix<R: Fixture>() {
    let dir = tmp_dir::<R>("corrupt");
    {
        let mut journal = open::<R>(&dir, 1 << 20);
        journal.append(&R::open_job("one")).unwrap();
        journal.append(&R::open_job("two")).unwrap();
    }
    // Flip a byte inside the last record's payload.
    let path = segments::<R>(&dir).pop().unwrap();
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    let mut content = Vec::new();
    file.read_to_end(&mut content).unwrap();
    let target = content.len() - 3;
    content[target] ^= 0xFF;
    file.seek(SeekFrom::Start(0)).unwrap();
    file.write_all(&content).unwrap();
    drop(file);
    let recovery = qpdo_core::journal::recover::<R>(&dir).unwrap();
    assert_eq!(ids::<R>(recovery.jobs()), ["one"]);
    let _ = std::fs::remove_dir_all(&dir);
}

fn rotation_compacts_and_deletes_old_segments<R: Fixture>() {
    let dir = tmp_dir::<R>("rotate");
    let mut journal = open::<R>(&dir, 64);
    let first_seq = journal.active_seq();
    for i in 0..20 {
        let id = format!("job-{i}");
        journal.append(&R::open_job(&id)).unwrap();
        finish(&mut journal, &id);
    }
    assert!(journal.active_seq() > first_seq, "no rotation happened");
    assert_eq!(
        segments::<R>(&dir).len(),
        1,
        "old segments were not deleted"
    );
    let recovery = qpdo_core::journal::recover::<R>(&dir).unwrap();
    assert!(recovery.is_consistent());
    assert_eq!(recovery.jobs().len(), 20);
    assert!(recovery.pending().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

fn interrupted_rotation_leaves_a_recoverable_journal<R: Fixture>() {
    let dir = tmp_dir::<R>("interrupted");
    {
        let mut journal = open::<R>(&dir, 1 << 20);
        journal.append(&R::open_job("a")).unwrap();
        finish(&mut journal, "a");
        journal.append(&R::open_job("b")).unwrap();
    }
    // Simulate `kill -9` between the snapshot rename and the
    // old-segment unlinks: compact (reopen), then resurrect the
    // pre-compaction segment beside the fresh snapshot.
    let old_path = segments::<R>(&dir).pop().unwrap();
    let old_bytes = std::fs::read(&old_path).unwrap();
    drop(Journal::<R>::open(&dir, 1 << 20).unwrap());
    std::fs::write(&old_path, old_bytes).unwrap();
    assert!(segments::<R>(&dir).len() > 1);

    // The audit replays the stale segment, then resets at the snapshot
    // marker: no duplicate terminals, exact state.
    let recovery = qpdo_core::journal::recover::<R>(&dir).unwrap();
    assert!(
        recovery.is_consistent(),
        "duplicates {:?}, orphans {:?}",
        recovery.duplicate_terminals,
        recovery.orphaned
    );
    assert_eq!(ids::<R>(recovery.jobs()), ["a", "b"]);
    assert_eq!(recovery.pending().len(), usize::from(R::opens_pending()));

    // And the service-facing open also succeeds and cleans up the stale
    // segment.
    let (_, recovery) = Journal::<R>::open(&dir, 1 << 20).unwrap();
    assert!(recovery.is_consistent());
    assert_eq!(recovery.jobs().len(), 2);
    assert_eq!(segments::<R>(&dir).len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

fn oversized_snapshot_does_not_rotate_on_every_append<R: Fixture>() {
    let dir = tmp_dir::<R>("pacing");
    let mut journal = open::<R>(&dir, 64);
    // Grow the compacted state far past the 64-byte bound.
    for i in 0..20 {
        let id = format!("big-{i}");
        journal.append(&R::open_job(&id)).unwrap();
        finish(&mut journal, &id);
    }
    // Rotation is paced on bytes appended since the last snapshot, so
    // small appends must not each trigger a full-history rewrite.
    let before = journal.active_seq();
    let appends = 10u64;
    for i in 0..appends {
        journal.append(&R::open_job(&format!("t-{i}"))).unwrap();
    }
    let rotations = journal.active_seq() - before;
    assert!(
        rotations < appends,
        "{rotations} rotations for {appends} appends"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn rotation_pacing_advances_per_record_not_per_fsync_batch<R: Fixture>() {
    // Regression: with group commit, many records share one fsync. If
    // the bytes-since-compaction counter advanced per sync instead of
    // per record, a large batch would count as one tiny append and
    // rotation (with its retention pruning) would effectively never
    // fire under batched load.
    let dir = tmp_dir::<R>("batch-pacing");
    let mut journal = open::<R>(&dir, 256);
    let first_seq = journal.active_seq();
    // One batch far larger than the segment bound, then one sync.
    for i in 0..24 {
        journal
            .write_unsynced(&R::open_job(&format!("gc-{i}")))
            .unwrap();
    }
    assert_eq!(journal.active_seq(), first_seq, "rotation waits for sync");
    journal.sync().unwrap();
    assert!(
        journal.active_seq() > first_seq,
        "a batch past the bound must rotate at its commit sync"
    );
    // And the rotated journal replays the whole batch.
    let recovery = qpdo_core::journal::recover::<R>(&dir).unwrap();
    assert!(recovery.is_consistent());
    assert_eq!(recovery.jobs().len(), 24);
    let _ = std::fs::remove_dir_all(&dir);
}

fn batched_records_are_not_durable_until_sync<R: Fixture>() {
    let dir = tmp_dir::<R>("unsynced");
    let mut journal = open::<R>(&dir, 1 << 20);
    journal.append(&R::open_job("durable")).unwrap();
    journal.write_unsynced(&R::open_job("buffered")).unwrap();
    // The buffered record sits in the OS page cache at best; the state
    // already sees it (for validation), but a crash now may lose it —
    // which is exactly why acks wait for sync(). What we can assert
    // without a crash: sync() makes it replayable.
    journal.sync().unwrap();
    let recovery = qpdo_core::journal::recover::<R>(&dir).unwrap();
    assert_eq!(ids::<R>(recovery.jobs()), ["durable", "buffered"]);
    let _ = std::fs::remove_dir_all(&dir);
}

fn injected_write_failure_leaves_no_bytes<R: Fixture>() {
    let dir = tmp_dir::<R>("write-fail");
    let (mut journal, _) = Journal::<R>::open(&dir, 1 << 20).unwrap();
    let setup = R::setup();
    journal.set_fail_write_after(Some(setup.len() as u64 + 1));
    for record in setup {
        journal.append(&record).unwrap();
    }
    journal.append(&R::open_job("written")).unwrap();
    let err = journal.write_unsynced(&R::open_job("doomed")).unwrap_err();
    assert!(err.to_string().contains("injected write failure"), "{err}");
    // Refused before any byte reached the segment.
    journal.sync().unwrap();
    let recovery = qpdo_core::journal::recover::<R>(&dir).unwrap();
    assert_eq!(ids::<R>(recovery.jobs()), ["written"]);
    let _ = std::fs::remove_dir_all(&dir);
}

fn injected_fsync_failure_fails_sync_but_not_validation<R: Fixture>() {
    let dir = tmp_dir::<R>("fsync-fail");
    let (mut journal, _) = Journal::<R>::open(&dir, 1 << 20).unwrap();
    // Rotation syncs are exempt, so the count starts at zero here.
    journal.set_fail_sync_after(Some(1));
    for record in R::setup() {
        journal.write_unsynced(&record).unwrap();
    }
    journal.append(&R::open_job("ok-1")).unwrap();
    // The injection budget is spent: the next commit sync fails...
    journal.write_unsynced(&R::open_job("doomed")).unwrap();
    let err = journal.sync().unwrap_err();
    assert!(err.to_string().contains("injected fsync failure"), "{err}");
    // ...and keeps failing (a process must degrade, not flap).
    assert!(journal.sync().is_err());
    // Validation is unaffected: rejects still classify correctly.
    assert!(journal.validate(&R::open_job("fresh")).is_ok());
    assert!(journal.validate(&R::refused()).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

fn compaction_prunes_terminal_jobs_beyond_retention<R: Fixture>() {
    let dir = tmp_dir::<R>("retain");
    let mut journal = open_retaining::<R>(&dir, 64, 2);
    journal.append(&R::open_job("keep-pending")).unwrap();
    for i in 0..10 {
        let id = format!("t-{i}");
        journal.append(&R::open_job(&id)).unwrap();
        finish(&mut journal, &id);
    }
    // Every in-flight rotation pruned down to 2 terminal jobs; only the
    // short tail appended after the last rotation rides on top.
    let recovery = qpdo_core::journal::recover::<R>(&dir).unwrap();
    assert!(recovery.is_consistent());
    let terminal = recovery.jobs().len() - recovery.pending().len();
    assert!(terminal <= 5, "retention kept {terminal} terminal jobs");
    // The newest terminal job and a pending job always survive.
    assert!(ids::<R>(recovery.jobs()).contains(&"t-9"));
    let pending: Vec<&str> = recovery.pending().into_iter().map(R::job_id).collect();
    if R::opens_pending() {
        assert_eq!(pending, ["keep-pending"]);
    } else {
        assert!(pending.is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn pruned_ids_survive_compaction_and_refuse_reopening<R: Fixture>() {
    let dir = tmp_dir::<R>("pruned");
    {
        let mut journal = open_retaining::<R>(&dir, 64, 1);
        for i in 0..8 {
            let id = format!("p-{i}");
            journal.append(&R::open_job(&id)).unwrap();
            finish(&mut journal, &id);
        }
        assert!(journal.pruned_count() > 0, "retention never pruned");
        assert!(journal.was_pruned("p-0"), "oldest terminal must be pruned");
        assert!(!journal.was_pruned("p-7"), "newest terminal is retained");
        // Reopening a pruned id is refused before any byte reaches disk
        // — exactly-once survives retention.
        let err = journal.append(&R::open_job("p-0")).unwrap_err();
        assert!(err.to_string().contains("pruned"), "{err}");
    }
    // The ledger rides in the snapshot: a reopened journal still knows
    // every pruned id and still refuses it.
    let (mut journal, recovery) = Journal::<R>::open(&dir, 64).unwrap();
    assert!(recovery.is_consistent());
    assert!(recovery.was_pruned("p-0"));
    assert!(recovery.pruned_count > 0);
    assert!(journal.was_pruned("p-0"));
    assert!(journal.append(&R::open_job("p-0")).is_err());
    // A genuinely fresh id is still welcome.
    journal.append(&R::open_job("fresh")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

fn pruned_ledger_is_sorted_in_chunks_of_256<R: Fixture>() {
    let dir = tmp_dir::<R>("ledger");
    {
        let mut journal = open_retaining::<R>(&dir, 4096, 1);
        for i in 0..400 {
            let id = format!("l-{i}");
            journal.append(&R::open_job(&id)).unwrap();
            finish(&mut journal, &id);
        }
    }
    // Reopen compacts with the default retention, carrying forward the
    // ledger of the rotation-time pruning above: it must be one
    // high-water count per line and sorted digests, 256 per line.
    let (_, recovery) = Journal::<R>::open(&dir, 1 << 20).unwrap();
    let pruned = recovery.pruned_count;
    assert!(pruned > 256, "only {pruned} pruned");
    let lines = segment_lines(&segments::<R>(&dir).pop().unwrap());
    assert_eq!(lines[0], "snapshot");
    let ledger: Vec<Vec<&str>> = lines[1..]
        .iter()
        .take_while(|line| line.starts_with("pruned "))
        .map(|line| line.split(' ').collect())
        .collect();
    assert_eq!(ledger.len(), 2);
    assert_eq!(ledger[0].len(), 2 + 256);
    let digests: Vec<u64> = ledger
        .iter()
        .flat_map(|tokens| {
            assert_eq!(tokens[1], pruned.to_string());
            tokens[2..].iter().map(|hex| {
                assert_eq!(hex.len(), 16);
                u64::from_str_radix(hex, 16).unwrap()
            })
        })
        .collect();
    assert_eq!(digests.len() as u64, pruned);
    assert!(digests.windows(2).all(|pair| pair[0] < pair[1]));
    let _ = std::fs::remove_dir_all(&dir);
}

fn open_is_linear_in_retained_terminal_jobs<R: Fixture>() {
    // Regression: replay once found jobs by linear search, so opening a
    // journal at the default retention took ~28 s in release. Build the
    // segment directly (one fsync'd append per record would dominate).
    let dir = tmp_dir::<R>("linear");
    std::fs::create_dir_all(&dir).unwrap();
    // A codec that retains every job opens the same 65,536.
    let jobs = Journal::<R>::DEFAULT_RETAIN_TERMINAL.min(1 << 16);
    let mut bytes = Vec::new();
    let mut write = |record: &R| write_record(&mut bytes, record.encode().as_bytes()).unwrap();
    R::setup().iter().for_each(&mut write);
    for i in 0..jobs {
        let id = format!("job-{i}");
        write(&R::open_job(&id));
        R::finish_job(&id).iter().for_each(&mut write);
    }
    std::fs::write(
        dir.join(format!("{}-00000001.log", R::SEGMENT_PREFIX)),
        bytes,
    )
    .unwrap();

    let start = Instant::now();
    let (_, recovery) = Journal::<R>::open(&dir, Journal::<R>::DEFAULT_MAX_SEGMENT_BYTES).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(recovery.jobs().len(), jobs);
    assert!(recovery.pending().is_empty());
    assert!(
        elapsed < Duration::from_secs(10),
        "open of {jobs} terminal jobs took {elapsed:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Instantiates each generic test once per codec, as `wal::<name>`,
/// `router::<name>` and `sweep::<name>`.
macro_rules! for_every_codec {
    ($($name:ident),* $(,)?) => {
        mod wal {
            $(#[test]
            fn $name() {
                super::$name::<qpdo_serve::wal::WalRecord>();
            })*
        }
        mod router {
            $(#[test]
            fn $name() {
                super::$name::<qpdo_router::journal::RouterRecord>();
            })*
        }
        mod sweep {
            $(#[test]
            fn $name() {
                super::$name::<qpdo_bench::supervisor::SweepRecord>();
            })*
        }
    };
}

for_every_codec!(
    torn_tail_is_dropped_and_reopen_starts_clean,
    corrupt_mid_segment_byte_keeps_the_prefix,
    rotation_compacts_and_deletes_old_segments,
    interrupted_rotation_leaves_a_recoverable_journal,
    oversized_snapshot_does_not_rotate_on_every_append,
    rotation_pacing_advances_per_record_not_per_fsync_batch,
    batched_records_are_not_durable_until_sync,
    injected_write_failure_leaves_no_bytes,
    injected_fsync_failure_fails_sync_but_not_validation,
    compaction_prunes_terminal_jobs_beyond_retention,
    pruned_ids_survive_compaction_and_refuse_reopening,
    pruned_ledger_is_sorted_in_chunks_of_256,
    open_is_linear_in_retained_terminal_jobs,
);
