//! Supervised execution for the experiment binaries: the engine itself
//! lives in [`qpdo_core::supervisor`] on the process's executor
//! (`DESIGN.md` §7); this module re-exports what the binaries use and
//! adds the command-line glue, the chaos injection that exercises the
//! engine (`--chaos-panic`, `--chaos-hang`), the one resumable sweep
//! ([`run_resumable`]) over a [`SweepJournal`], and the one report of a
//! run's engine events and quarantine ([`report_engine_events`]).

use std::fs;
use std::io;
use std::panic;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use qpdo_core::journal::{Journal, Record, State};
use qpdo_core::supervisor::{run_supervised_subset, RedundancyCheck, QUARANTINE_HEADER};
use qpdo_core::ShotError;
use qpdo_rng::{RngCore, SplitMix64};

pub use qpdo_core::supervisor::{
    run_supervised, BatchCtx, BatchSpec, SupervisorConfig, SupervisorReport,
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

/// Writes a supervised run's `quarantine.csv` (one row per quarantined
/// batch, header only when none was) into the output directory and
/// reports the run's engine events on stderr: the retry, panic,
/// timeout, replacement and vote counts when anything happened, every
/// redundancy divergence, and the number of batches quarantined.
/// Returns the CSV's path.
pub fn report_engine_events<T>(args: &HarnessArgs, report: &SupervisorReport<T>) -> PathBuf {
    let s = &report.stats;
    if s.retries + s.panics + s.timeouts + s.votes > 0 || s.degraded_to_serial {
        eprintln!(
            "  supervisor: {} retries, {} panics, {} timeouts, {} replacements, {} votes{}",
            s.retries,
            s.panics,
            s.timeouts,
            s.replacements,
            s.votes,
            if s.degraded_to_serial {
                " [degraded to serial]"
            } else {
                ""
            }
        );
    }
    for d in &report.divergences {
        eprintln!(
            "  DIVERGENCE in batch {} (task {}): {}",
            d.key, d.task, d.detail
        );
    }
    let path = args.write_csv(
        "quarantine.csv",
        QUARANTINE_HEADER,
        &report.quarantine_rows(),
    );
    if !report.quarantined.is_empty() {
        eprintln!(
            "  {} batches quarantined -> {}",
            report.quarantined.len(),
            path.display()
        );
    }
    path
}

/// One line of a sweep's resume log, the third codec of
/// [`qpdo_core::journal`] beside the daemon's WAL and the router's
/// binding log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepRecord {
    /// `fingerprint <text…>`: the configuration and seed the journal's
    /// points were computed under, written once, first.
    Fingerprint(String),
    /// `point <key> <line…>`: one batch finished, with its outcome's
    /// payload line.
    Point(SweepPoint),
}

/// One durable batch of a sweep: its [`BatchSpec::key`] and the payload
/// line its outcome encodes to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepPoint {
    /// The batch key (non-empty, whitespace-free).
    pub key: String,
    /// The outcome's payload line.
    pub line: String,
}

impl Record for SweepRecord {
    type Job = SweepPoint;
    /// The fingerprint (empty until one is written).
    type Extra = String;
    const SEGMENT_PREFIX: &'static str = "sweep";
    /// Retention never prunes a point: a pruned point would be run again.
    const RETAIN_TERMINAL: usize = usize::MAX;

    fn encode(&self) -> String {
        match self {
            SweepRecord::Fingerprint(fingerprint) => format!("fingerprint {fingerprint}"),
            SweepRecord::Point(point) => format!("point {} {}", point.key, point.line),
        }
    }

    fn parse(line: &str) -> Result<Self, String> {
        if let Some(fingerprint) = line.strip_prefix("fingerprint ") {
            return Ok(SweepRecord::Fingerprint(fingerprint.to_owned()));
        }
        match line
            .strip_prefix("point ")
            .and_then(|rest| rest.split_once(' '))
        {
            Some((key, payload)) if !key.is_empty() => Ok(SweepRecord::Point(SweepPoint {
                key: key.to_owned(),
                line: payload.to_owned(),
            })),
            _ => Err(format!("unknown sweep record {line:?}")),
        }
    }

    fn validate(&self, state: &State<Self>) -> Result<(), String> {
        match self {
            SweepRecord::Fingerprint(fingerprint) => {
                if state.extra.is_empty() || state.extra == *fingerprint {
                    Ok(())
                } else {
                    Err(format!(
                        "the journal belongs to sweep {:?}, not {fingerprint:?}",
                        state.extra
                    ))
                }
            }
            SweepRecord::Point(point) => {
                if point.key.is_empty() || point.key.contains(char::is_whitespace) {
                    return Err(format!("malformed sweep key {:?}", point.key));
                }
                state.refuse_pruned(&point.key)
            }
        }
    }

    fn fold(&self, state: &mut State<Self>) {
        match self {
            SweepRecord::Fingerprint(fingerprint) => state.extra.clone_from(fingerprint),
            SweepRecord::Point(point) => match state.job(&point.key) {
                // Replay folds whatever the disk holds: a byte-identical
                // duplicate is absorbed, only a conflicting one flagged.
                Some(held) if held.line == point.line => {}
                Some(_) => state.duplicate_terminals.push(point.key.clone()),
                None => state.insert(point.clone()),
            },
        }
    }

    fn job_id(job: &SweepPoint) -> &str {
        &job.key
    }

    fn is_terminal(_: &SweepPoint) -> bool {
        true
    }

    fn snapshot(state: &State<Self>) -> Vec<Self> {
        let fingerprint =
            (!state.extra.is_empty()).then(|| SweepRecord::Fingerprint(state.extra.clone()));
        fingerprint
            .into_iter()
            .chain(state.jobs().iter().cloned().map(SweepRecord::Point))
            .collect()
    }
}

/// A sweep's resume log: a journal directory holding the outcome of
/// every batch finished so far under one fingerprint.
pub struct SweepJournal(Journal<SweepRecord>);

impl SweepJournal {
    /// Opens (or creates) the sweep journal in directory `dir`. A
    /// journal written under another fingerprint (another
    /// configuration or seed) is discarded whole; torn tails are
    /// dropped by the journal.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and content the codec cannot parse.
    pub fn open(dir: &Path, fingerprint: &str) -> io::Result<Self> {
        let (journal, recovery) =
            Journal::open(dir, Journal::<SweepRecord>::DEFAULT_MAX_SEGMENT_BYTES)?;
        if recovery.extra == fingerprint {
            return Ok(SweepJournal(journal));
        }
        drop(journal);
        fs::remove_dir_all(dir)?;
        let (mut journal, _) =
            Journal::open(dir, Journal::<SweepRecord>::DEFAULT_MAX_SEGMENT_BYTES)?;
        journal.append(&SweepRecord::Fingerprint(fingerprint.to_owned()))?;
        Ok(SweepJournal(journal))
    }

    /// The payload line recorded for batch `key`, if any.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.state().job(key).map(|point| point.line.as_str())
    }

    /// Records batch `key`'s payload line and syncs it: once this
    /// returns, a kill cannot lose the batch. Recording a key again is
    /// a no-op, so a rescued batch that finishes twice is harmless.
    ///
    /// # Errors
    ///
    /// Refuses a malformed key; propagates the append's I/O error.
    pub fn record(&mut self, key: &str, line: &str) -> io::Result<()> {
        if self.get(key).is_some() {
            return Ok(());
        }
        self.0.append(&SweepRecord::Point(SweepPoint {
            key: key.to_owned(),
            line: line.to_owned(),
        }))
    }

    /// Deletes the journal directory: the sweep completed, nothing is
    /// left to resume.
    ///
    /// # Errors
    ///
    /// Propagates the removal's I/O error.
    pub fn finish(self) -> io::Result<()> {
        let dir = self.0.dir().to_owned();
        drop(self);
        fs::remove_dir_all(dir)
    }
}

/// Runs a sweep's batches on the supervised engine under the
/// command-line configuration (with its chaos injection, if any),
/// resuming from `journal`: a batch whose key the journal holds is
/// decoded from it instead of run, and every batch run now is recorded
/// (`encode`d) from inside its job, so a kill loses only the batches in
/// flight. A batch's [`BatchCtx::task`] is its index in `specs`,
/// whatever the journal held, so the batches that vote and the indices
/// of quarantined ones are the scratch run's. Returns every spec's
/// outcome in spec order — from the journal or run now, `None` if
/// quarantined — and the report of the batches run now. A run that
/// quarantined nothing removes the journal; otherwise it is kept, and
/// re-running retries only what is missing.
pub fn run_resumable<T, F>(
    args: &HarnessArgs,
    specs: Vec<BatchSpec>,
    encode: fn(&T) -> String,
    decode: fn(&str) -> Option<T>,
    job: F,
    vote: Option<Box<RedundancyCheck>>,
    journal: Option<SweepJournal>,
) -> (Vec<Option<T>>, SupervisorReport<T>)
where
    T: Clone + Send + 'static,
    F: Fn(&BatchCtx) -> Result<T, ShotError> + Send + Sync + 'static,
{
    let mut outcomes: Vec<Option<T>> = specs
        .iter()
        .map(|spec| journal.as_ref()?.get(&spec.key).and_then(decode))
        .collect();
    let resumed = outcomes.iter().flatten().count();
    if resumed > 0 {
        eprintln!("  resuming: {resumed} batches already journaled");
    }
    let specs: Vec<(usize, BatchSpec)> = specs
        .into_iter()
        .enumerate()
        .filter(|(i, _)| outcomes[*i].is_none())
        .collect();
    let todo: Vec<usize> = specs.iter().map(|(i, _)| *i).collect();

    let shared = Arc::new(Mutex::new(journal));
    let job_journal = Arc::clone(&shared);
    let job = move |ctx: &BatchCtx| -> Result<T, ShotError> {
        let outcome = job(ctx)?;
        if let Ok(mut guard) = job_journal.lock() {
            if let Some(journal) = guard.as_mut() {
                if let Err(e) = journal.record(&ctx.spec.key, &encode(&outcome)) {
                    // The outcome is still good; only its durability is
                    // lost. Keep sweeping.
                    eprintln!(
                        "  warning: sweep journal write failed for {}: {e}",
                        ctx.spec.key
                    );
                }
            }
        }
        Ok(outcome)
    };
    let config = SupervisorConfig::from(args);
    let cancel = CancelToken::new();
    let report = match ChaosConfig::from_args(args) {
        Some(chaos) => {
            silence_chaos_panics();
            run_supervised_subset(&config, specs, with_chaos(chaos, job), vote, &cancel)
        }
        None => run_supervised_subset(&config, specs, job, vote, &cancel),
    };
    for (i, result) in todo.into_iter().zip(&report.results) {
        outcomes[i].clone_from(result);
    }

    // Taking the journal out also stops a batch still running on a lost
    // helper from recording into it.
    if let Some(journal) = shared.lock().ok().and_then(|mut guard| guard.take()) {
        if !report.quarantined.is_empty() {
            eprintln!(
                "  sweep journal kept (re-run to retry quarantined batches; \
                 raise --watchdog-ms for ones that timed out)"
            );
        } else if let Err(e) = journal.finish() {
            eprintln!("  warning: cannot remove the finished sweep journal: {e}");
        }
    }
    (outcomes, report)
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

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qpdo-sweep-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sweep_journal_round_trips_points() {
        let dir = tmpdir("roundtrip");
        let mut journal = SweepJournal::open(&dir, "exp_ler full seed=2016").unwrap();
        assert_eq!(journal.get("p0-XL-pf0-r0"), None);
        journal.record("p0-XL-pf0-r0", "1 2 3").unwrap();
        journal.record("p0-XL-pf1-r0", "").unwrap();
        drop(journal);

        // A fresh open (same fingerprint) sees both points.
        let journal = SweepJournal::open(&dir, "exp_ler full seed=2016").unwrap();
        assert_eq!(journal.get("p0-XL-pf0-r0"), Some("1 2 3"));
        assert_eq!(journal.get("p0-XL-pf1-r0"), Some(""));
        assert_eq!(journal.get("p1-XL-pf0-r0"), None);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn sweep_fingerprint_mismatch_discards_everything() {
        let dir = tmpdir("fingerprint");
        let mut journal = SweepJournal::open(&dir, "seed=1").unwrap();
        journal.record("a", "1").unwrap();
        drop(journal);
        let journal = SweepJournal::open(&dir, "seed=2").unwrap();
        assert_eq!(journal.get("a"), None);
        drop(journal);
        // The discarded journal is gone for good, not merely hidden.
        let journal = SweepJournal::open(&dir, "seed=1").unwrap();
        assert_eq!(journal.get("a"), None);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn sweep_duplicate_records_are_idempotent() {
        let dir = tmpdir("dup");
        let mut journal = SweepJournal::open(&dir, "fp").unwrap();
        journal.record("a", "1").unwrap();
        journal.record("a", "different").unwrap();
        assert_eq!(journal.get("a"), Some("1"));
        drop(journal);
        let journal = SweepJournal::open(&dir, "fp").unwrap();
        assert_eq!(journal.get("a"), Some("1"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn sweep_finish_removes_the_journal() {
        let dir = tmpdir("finish");
        let mut journal = SweepJournal::open(&dir, "fp").unwrap();
        journal.record("a", "1").unwrap();
        journal.finish().unwrap();
        assert!(!dir.exists());
    }

    #[test]
    fn sweep_retention_never_prunes_a_point() {
        // One point more than the other codecs' default retention,
        // written as one segment (an fsync per append would dominate).
        let dir = tmpdir("retain");
        fs::create_dir_all(&dir).unwrap();
        let points = (1 << 16) + 1;
        let mut bytes = Vec::new();
        let mut write = |record: SweepRecord| {
            qpdo_core::journal::write_record(&mut bytes, record.encode().as_bytes()).unwrap();
        };
        write(SweepRecord::Fingerprint("fp".to_owned()));
        for i in 0..points {
            write(SweepRecord::Point(SweepPoint {
                key: format!("k{i}"),
                line: i.to_string(),
            }));
        }
        fs::write(dir.join("sweep-00000001.log"), bytes).unwrap();
        // The first open compacts, the second replays the compaction.
        drop(SweepJournal::open(&dir, "fp").unwrap());
        let journal = SweepJournal::open(&dir, "fp").unwrap();
        assert_eq!(journal.0.state().jobs().len(), points);
        assert_eq!(journal.0.pruned_count(), 0);
        assert_eq!(journal.get("k0"), Some("0"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn sweep_records_round_trip_through_their_lines() {
        let records = [
            SweepRecord::Fingerprint("exp_ler-v2 points=16 seed=2016".to_owned()),
            SweepRecord::Point(SweepPoint {
                key: "p3-XL-pf1-r2".to_owned(),
                line: "100 3 17 0".to_owned(),
            }),
        ];
        for record in records {
            assert_eq!(SweepRecord::parse(&record.encode()), Ok(record));
        }
        assert!(SweepRecord::parse("point").is_err());
        assert!(SweepRecord::parse("progress a 1").is_err());
        let state = State::<SweepRecord>::default();
        let spaced = SweepRecord::Point(SweepPoint {
            key: "two words".to_owned(),
            line: String::new(),
        });
        assert!(spaced.validate(&state).is_err());
    }

    #[test]
    fn chaos_coin_is_deterministic() {
        let c = unit_coin(42);
        assert_eq!(c, unit_coin(42));
        assert!((0.0..1.0).contains(&c));
        assert_ne!(c, unit_coin(43));
    }
}
