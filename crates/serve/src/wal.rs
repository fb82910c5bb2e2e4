//! The write-ahead journal of the shot service (`DESIGN.md` §9.3): the
//! daemon's [`Record`] codec for the shared [`qpdo_core::journal`].
//!
//! Every job transition is one record appended to the active segment
//! and fsync'd before the daemon acts on it:
//!
//! - `accept <id> <deadline_ms|-> <kind…>` — written before the client
//!   sees `accepted`; the job is now durable.
//! - `dispatch <id> <backend> <attempt>` — informational routing trace.
//! - `progress <id> <batches> <shots> <failures> <counters…>` — a
//!   checkpoint of a running shot sweep, group-committed every N batches
//!   (`DESIGN.md` §14). Purely an optimization record: losing one costs
//!   re-execution, never correctness.
//! - `done <id> <record…>` / `failed <id> <error…>` /
//!   `partial <id> <detail…>` — written before the in-memory result
//!   becomes queryable; the job is now terminal. `partial` is the
//!   anytime terminal a deadline expiry produces from the completed
//!   prefix of a shot sweep.
//!
//! **Recovery invariant:** after any crash, replaying the segments
//! yields every acknowledged job exactly once, with its terminal
//! outcome if one was journaled. Jobs without a terminal record are
//! re-queued; their deterministic seeds make re-execution byte-identical,
//! so recovery is exactly-once by construction — and a surviving
//! `progress` checkpoint lets the re-queued job resume after its last
//! durable batch instead of from scratch, with the identical bytes
//! (per-batch RNG substreams; see `qpdo-surface`'s resume oracle). A
//! CRC-valid but semantically implausible or non-monotone `progress`
//! record is dropped at replay — the job falls back to its previous
//! checkpoint, then to scratch. A byte-identical duplicate terminal
//! record is absorbed (it is a retried append of the same outcome, not
//! a second execution); only *conflicting* terminals are flagged.
//!
//! Segments are `wal-<seq>.log`. Compaction carries each job forward as
//! its `accept` plus its terminal or, for a pending job, its newest
//! checkpoint. Re-accepting an id that retention pruned is refused at
//! [`WriteAheadLog::append`], so a resubmission after compaction is
//! answered deterministically instead of silently re-executing — the
//! re-execution would be byte-identical only while the binary and base
//! seed never change, which retention must not assume.

use std::io;
use std::path::Path;

use qpdo_core::Checkpoint;

use crate::job::{Backend, JobSpec};
use qpdo_core::journal::{self, Journal, Record, State};

/// The daemon's write-ahead journal.
pub type WriteAheadLog = Journal<WalRecord>;

/// What a journal replay found.
pub type Recovery = State<WalRecord>;

/// Replays every segment in `dir` without modifying anything. This is
/// the read-only audit path (`serve_chaos` uses it to assert the
/// exactly-once invariants after a drill).
///
/// # Errors
///
/// Propagates I/O errors; torn tails are tolerated, not errors.
pub fn recover(dir: &Path) -> io::Result<Recovery> {
    journal::recover(dir)
}

/// A job's terminal result.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// The whitespace-separated result record.
    Done(String),
    /// The terminal error description.
    Failed(String),
    /// An anytime partial result: the job hit its deadline after
    /// completing a nonzero prefix of a shot sweep, and the detail
    /// carries `<shots> <target> <failures> <ci_lo> <ci_hi>` — the
    /// completed-shot estimator with its Wilson confidence interval.
    /// Delivered, terminal, and exactly-once like `Done`.
    Partial(String),
}

impl JobOutcome {
    /// The journal line carrying this outcome for job `id`:
    /// `done|failed|partial <id> <detail…>`. The daemon WAL and the
    /// router's binding log share it.
    #[must_use]
    pub fn line(&self, id: &str) -> String {
        let (tag, detail) = match self {
            JobOutcome::Done(record) => ("done", record),
            JobOutcome::Failed(error) => ("failed", error),
            JobOutcome::Partial(detail) => ("partial", detail),
        };
        format!("{tag} {id} {detail}")
    }

    /// Parses the tokens of an outcome line, `[tag, id, detail…]`, back
    /// into the id and outcome; `None` when the tag is not an outcome.
    #[must_use]
    pub fn parse_line(tokens: &[&str]) -> Option<(String, Self)> {
        let [tag, id, detail @ ..] = tokens else {
            return None;
        };
        let outcome = match *tag {
            "done" => JobOutcome::Done,
            "failed" => JobOutcome::Failed,
            "partial" => JobOutcome::Partial,
            _ => return None,
        };
        Some(((*id).to_owned(), outcome(detail.join(" "))))
    }
}

/// One journal record.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A job was admitted.
    Accept(JobSpec),
    /// A job was handed to the worker pool on a backend.
    Dispatch {
        /// The job id.
        id: String,
        /// The backend chosen at dispatch.
        backend: Backend,
        /// The daemon-level attempt number, starting at 0.
        attempt: u32,
    },
    /// A job reached its terminal state.
    Complete {
        /// The job id.
        id: String,
        /// The terminal result.
        outcome: JobOutcome,
    },
    /// A checkpoint of a running shot sweep (see [`Checkpoint`]).
    Progress {
        /// The job id.
        id: String,
        /// The accumulated position.
        checkpoint: Checkpoint,
    },
}

impl Record for WalRecord {
    type Job = RecoveredJob;
    type Extra = ();
    const SEGMENT_PREFIX: &'static str = "wal";

    fn encode(&self) -> String {
        match self {
            WalRecord::Accept(spec) => format!("accept {} {}", spec.id, spec.encode_tail()),
            WalRecord::Dispatch {
                id,
                backend,
                attempt,
            } => format!("dispatch {id} {} {attempt}", backend.name()),
            WalRecord::Complete { id, outcome } => outcome.line(id),
            WalRecord::Progress { id, checkpoint } => {
                let mut line = format!(
                    "progress {id} {} {} {}",
                    checkpoint.batches, checkpoint.shots, checkpoint.failures
                );
                for counter in &checkpoint.counters {
                    line.push_str(&format!(" {counter}"));
                }
                line
            }
        }
    }

    fn parse(line: &str) -> Result<Self, String> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            ["accept", rest @ ..] => Ok(WalRecord::Accept(JobSpec::parse(rest)?)),
            ["dispatch", id, backend, attempt] => Ok(WalRecord::Dispatch {
                id: (*id).to_owned(),
                backend: Backend::parse(backend)
                    .ok_or_else(|| format!("unknown backend {backend:?}"))?,
                attempt: attempt
                    .parse()
                    .map_err(|_| format!("malformed attempt {attempt:?}"))?,
            }),
            ["progress", id, batches, shots, failures, counters @ ..] => {
                let field = |name: &str, token: &str| {
                    token
                        .parse::<u64>()
                        .map_err(|_| format!("malformed progress {name} {token:?}"))
                };
                Ok(WalRecord::Progress {
                    id: (*id).to_owned(),
                    checkpoint: Checkpoint {
                        batches: field("batches", batches)?,
                        shots: field("shots", shots)?,
                        failures: field("failures", failures)?,
                        counters: counters
                            .iter()
                            .map(|c| field("counter", c))
                            .collect::<Result<_, _>>()?,
                    },
                })
            }
            _ => match JobOutcome::parse_line(&tokens) {
                Some((id, outcome)) => Ok(WalRecord::Complete { id, outcome }),
                None => Err(format!("unknown journal record {line:?}")),
            },
        }
    }

    fn validate(&self, state: &Recovery) -> Result<(), String> {
        match self {
            WalRecord::Accept(spec) => state.refuse_pruned(&spec.id),
            WalRecord::Dispatch { id, .. } => match state.job(id) {
                Some(_) => Ok(()),
                None => Err(format!("dispatch for unknown job {id:?}")),
            },
            WalRecord::Progress { id, .. } => match state.job(id) {
                Some(job) if job.outcome.is_some() => {
                    Err(format!("progress for terminal job {id:?}"))
                }
                Some(_) => Ok(()),
                None => Err(format!("progress for unknown job {id:?}")),
            },
            WalRecord::Complete { id, outcome } => match state.job(id) {
                // A retried append of the identical terminal (the first
                // attempt's error may still have left durable bytes) is
                // allowed: the fold absorbs the duplicate.
                Some(job) if job.outcome.as_ref().is_some_and(|o| o != outcome) => Err(format!(
                    "conflicting terminal record for job {id:?} (exactly-once violation)"
                )),
                Some(_) => Ok(()),
                None => Err(format!("complete for unknown job {id:?}")),
            },
        }
    }

    fn fold(&self, state: &mut Recovery) {
        match self {
            WalRecord::Accept(spec) => {
                // A duplicate accept is idempotently absorbed, exactly
                // like a duplicate submission.
                if state.job(&spec.id).is_none() {
                    state.insert(RecoveredJob {
                        spec: spec.clone(),
                        outcome: None,
                        dispatches: 0,
                        checkpoint: None,
                    });
                }
            }
            WalRecord::Dispatch { id, .. } => match state.job_mut(id) {
                Some(job) => job.dispatches += 1,
                None => state.orphaned.push(id.clone()),
            },
            WalRecord::Progress { id, checkpoint } => match state.job_mut(id) {
                Some(job) => fold_progress(job, checkpoint),
                None => state.orphaned.push(id.clone()),
            },
            WalRecord::Complete { id, outcome } => match state.job_mut(id) {
                // A byte-identical duplicate is a retried append of the
                // same terminal (the first write's fsync failed but its
                // bytes reached disk): absorbed.
                Some(RecoveredJob {
                    outcome: Some(existing),
                    ..
                }) if existing == outcome => {}
                Some(RecoveredJob {
                    outcome: Some(_), ..
                }) => state.duplicate_terminals.push(id.clone()),
                Some(job) => job.outcome = Some(outcome.clone()),
                None => state.orphaned.push(id.clone()),
            },
        }
    }

    fn job_id(job: &RecoveredJob) -> &str {
        &job.spec.id
    }

    fn is_terminal(job: &RecoveredJob) -> bool {
        job.outcome.is_some()
    }

    fn snapshot(state: &Recovery) -> Vec<Self> {
        let mut records = Vec::with_capacity(2 * state.jobs().len());
        for job in state.jobs() {
            records.push(WalRecord::Accept(job.spec.clone()));
            let id = job.spec.id.clone();
            match (&job.outcome, &job.checkpoint) {
                // A terminal supersedes any checkpoint: only the
                // terminal is carried forward.
                (Some(outcome), _) => records.push(WalRecord::Complete {
                    id,
                    outcome: outcome.clone(),
                }),
                // A pending job keeps exactly its newest checkpoint, so
                // compaction bounds progress history to one record per
                // resumable job.
                (None, Some(checkpoint)) => records.push(WalRecord::Progress {
                    id,
                    checkpoint: checkpoint.clone(),
                }),
                (None, None) => {}
            }
        }
        records
    }
}

/// One job as reconstructed from the journal.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveredJob {
    /// The accepted spec.
    pub spec: JobSpec,
    /// The terminal outcome, when one was journaled.
    pub outcome: Option<JobOutcome>,
    /// Dispatch records seen (how often the job reached a worker).
    pub dispatches: u32,
    /// The newest plausible progress checkpoint, when one survived. A
    /// pending job with a checkpoint resumes after its recorded batches
    /// instead of from scratch; for a terminal job this is historical.
    pub checkpoint: Option<Checkpoint>,
}

/// Pending jobs that carry a durable checkpoint — the offline-audit
/// view of what a restarted daemon will resume mid-sweep rather than
/// re-execute from scratch, with the checkpoint's batch/shot stats.
#[must_use]
pub fn resumable(recovery: &Recovery) -> Vec<(&RecoveredJob, &Checkpoint)> {
    recovery
        .jobs()
        .iter()
        .filter(|j| j.outcome.is_none())
        .filter_map(|j| j.checkpoint.as_ref().map(|c| (j, c)))
        .collect()
}

/// The one rule for folding a progress record into a job: a checkpoint
/// must be semantically plausible and strictly advance the job's batch
/// count, and it never touches a terminal job (the terminal supersedes
/// any checkpoint). A record failing the rule is dropped — the job
/// keeps its previous checkpoint, the fallback path corruption
/// injection exercises.
fn fold_progress(job: &mut RecoveredJob, checkpoint: &Checkpoint) {
    if job.outcome.is_some() || !checkpoint.plausible() {
        return;
    }
    let current = job.checkpoint.as_ref().map_or(0, |c| c.batches);
    if checkpoint.batches > current {
        job.checkpoint = Some(checkpoint.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;
    use qpdo_core::journal::{read_records, write_record};
    use std::fs::{File, OpenOptions};
    use std::io::BufReader;
    use std::path::PathBuf;

    fn segment_path(dir: &Path, seq: u64) -> PathBuf {
        dir.join(format!("wal-{seq:08}.log"))
    }

    fn newest_segment(dir: &Path) -> PathBuf {
        let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "log"))
            .collect();
        segments.sort();
        segments.pop().unwrap()
    }

    fn segment_lines(path: &Path) -> Vec<String> {
        let mut reader = BufReader::new(File::open(path).unwrap());
        read_records(&mut reader)
            .unwrap()
            .into_iter()
            .map(|payload| String::from_utf8(payload).unwrap())
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qpdo-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(id: &str) -> JobSpec {
        JobSpec {
            id: id.to_owned(),
            deadline_ms: None,
            kind: JobKind::Bell { shots: 2 },
        }
    }

    #[test]
    fn record_encoding_round_trips() {
        let records = vec![
            WalRecord::Accept(spec("j1")),
            WalRecord::Dispatch {
                id: "j1".to_owned(),
                backend: Backend::Reference,
                attempt: 2,
            },
            WalRecord::Complete {
                id: "j1".to_owned(),
                outcome: JobOutcome::Done("1 2 3 4".to_owned()),
            },
            WalRecord::Complete {
                id: "j2".to_owned(),
                outcome: JobOutcome::Failed("deadline exceeded".to_owned()),
            },
            WalRecord::Complete {
                id: "j3".to_owned(),
                outcome: JobOutcome::Partial("1024 20000 13 0.0003 0.0011".to_owned()),
            },
            WalRecord::Progress {
                id: "j1".to_owned(),
                checkpoint: Checkpoint {
                    batches: 32,
                    shots: 2048,
                    failures: 5,
                    counters: vec![117, 0, u64::MAX],
                },
            },
            WalRecord::Progress {
                id: "j4".to_owned(),
                checkpoint: Checkpoint {
                    batches: 1,
                    shots: 64,
                    failures: 0,
                    counters: Vec::new(),
                },
            },
        ];
        for record in records {
            let line = record.encode();
            assert_eq!(WalRecord::parse(&line), Ok(record), "{line}");
        }
    }

    fn progress(id: &str, batches: u64, shots: u64, failures: u64) -> WalRecord {
        WalRecord::Progress {
            id: id.to_owned(),
            checkpoint: Checkpoint {
                batches,
                shots,
                failures,
                counters: vec![batches * 3],
            },
        }
    }

    #[test]
    fn progress_interleaves_with_terminals_and_newest_wins() {
        let dir = tmp_dir("progress");
        {
            let (mut wal, _) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
            wal.append(&WalRecord::Accept(spec("resumes"))).unwrap();
            wal.append(&WalRecord::Accept(spec("finishes"))).unwrap();
            wal.append(&progress("resumes", 8, 512, 1)).unwrap();
            wal.append(&progress("finishes", 4, 256, 0)).unwrap();
            wal.append(&progress("resumes", 16, 1024, 2)).unwrap();
            wal.append(&WalRecord::Complete {
                id: "finishes".to_owned(),
                outcome: JobOutcome::Done("512 3 99".to_owned()),
            })
            .unwrap();
        }
        let recovery = recover(&dir).unwrap();
        assert!(recovery.is_consistent());
        // The audit reports exactly the pending job as resumable, with
        // its newest checkpoint's stats.
        let resumable = resumable(&recovery);
        assert_eq!(resumable.len(), 1);
        let (job, checkpoint) = resumable[0];
        assert_eq!(job.spec.id, "resumes");
        assert_eq!(
            checkpoint,
            &Checkpoint {
                batches: 16,
                shots: 1024,
                failures: 2,
                counters: vec![48],
            }
        );
        // The finished job's checkpoint is superseded by its terminal.
        let finished = recovery
            .jobs()
            .iter()
            .find(|j| j.spec.id == "finishes")
            .unwrap();
        assert!(finished.outcome.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_progress_tail_falls_back_to_previous_checkpoint() {
        let dir = tmp_dir("torn-progress");
        {
            let (mut wal, _) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
            wal.append(&WalRecord::Accept(spec("job"))).unwrap();
            wal.append(&progress("job", 8, 512, 1)).unwrap();
            wal.append(&progress("job", 16, 1024, 2)).unwrap();
        }
        // Tear the newest progress frame mid-payload, as a crash during
        // the checkpoint write would.
        let path = newest_segment(&dir);
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);

        let recovery = recover(&dir).unwrap();
        assert!(recovery.is_consistent());
        let resumable = resumable(&recovery);
        assert_eq!(resumable.len(), 1);
        assert_eq!(resumable[0].1.batches, 8, "fell back past the torn tail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn implausible_progress_is_dropped_not_applied() {
        let dir = tmp_dir("implausible");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = Vec::new();
        for line in [
            "accept job - bell 2",
            "progress job 8 512 1 24",
            // CRC-valid but semantically corrupt checkpoints, every
            // plausibility clause: failures > shots, shots > 64/batch,
            // zero batches, and a *stale* (non-monotone) batch count.
            "progress job 16 1024 2000 48",
            "progress job 16 999999 2 48",
            "progress job 0 0 0",
            "progress job 4 256 0 12",
        ] {
            write_record(&mut bytes, line.as_bytes()).unwrap();
        }
        std::fs::write(segment_path(&dir, 1), bytes).unwrap();
        let recovery = recover(&dir).unwrap();
        assert!(recovery.is_consistent());
        let resumable = resumable(&recovery);
        assert_eq!(resumable.len(), 1);
        assert_eq!(
            resumable[0].1,
            &Checkpoint {
                batches: 8,
                shots: 512,
                failures: 1,
                counters: vec![24],
            },
            "corrupt or stale checkpoints must not supersede the good one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_progress_is_flagged() {
        let dir = tmp_dir("orphan-progress");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = Vec::new();
        for line in ["accept job - bell 2", "progress ghost 8 512 1"] {
            write_record(&mut bytes, line.as_bytes()).unwrap();
        }
        std::fs::write(segment_path(&dir, 1), bytes).unwrap();
        let recovery = recover(&dir).unwrap();
        assert!(!recovery.is_consistent());
        assert_eq!(recovery.orphaned, vec!["ghost".to_owned()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_only_the_newest_checkpoint_per_pending_job() {
        let dir = tmp_dir("compact-progress");
        {
            let (mut wal, _) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
            wal.append(&WalRecord::Accept(spec("job"))).unwrap();
            for k in 1..=20u64 {
                wal.append(&progress("job", k, k * 64, k / 4)).unwrap();
            }
        }
        // Reopen compacts: the fresh segment must hold the snapshot
        // marker, the accept, and exactly one progress record — the
        // newest.
        let (wal, recovery) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
        assert_eq!(resumable(&recovery).len(), 1);
        assert_eq!(resumable(&recovery)[0].1.batches, 20);
        let active = newest_segment(&dir);
        assert_eq!(active, segment_path(&dir, wal.active_seq()));
        let lines = segment_lines(&active);
        let progress_lines: Vec<&String> =
            lines.iter().filter(|l| l.starts_with("progress")).collect();
        assert_eq!(progress_lines.len(), 1, "segment: {lines:?}");
        assert!(progress_lines[0].starts_with("progress job 20 1280 5"));
        // And the compacted checkpoint replays on the next reopen too.
        drop(wal);
        let (_, recovery) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
        assert_eq!(resumable(&recovery).len(), 1);
        assert_eq!(resumable(&recovery)[0].1.batches, 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_for_unknown_or_terminal_jobs_is_refused_at_append() {
        let dir = tmp_dir("progress-validate");
        let (mut wal, _) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
        assert!(wal.append(&progress("ghost", 1, 64, 0)).is_err());
        wal.append(&WalRecord::Accept(spec("done-job"))).unwrap();
        wal.append(&WalRecord::Complete {
            id: "done-job".to_owned(),
            outcome: JobOutcome::Done("1".to_owned()),
        })
        .unwrap();
        let err = wal.append(&progress("done-job", 1, 64, 0)).unwrap_err();
        assert!(err.to_string().contains("terminal"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_outcomes_are_terminal_and_exactly_once() {
        let dir = tmp_dir("partial");
        let (mut wal, _) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
        wal.append(&WalRecord::Accept(spec("anytime"))).unwrap();
        let partial = WalRecord::Complete {
            id: "anytime".to_owned(),
            outcome: JobOutcome::Partial("512 20000 3 0.0012 0.0171".to_owned()),
        };
        wal.append(&partial).unwrap();
        // Identical retry absorbed; conflicting terminal refused.
        wal.append(&partial).unwrap();
        assert!(wal
            .append(&WalRecord::Complete {
                id: "anytime".to_owned(),
                outcome: JobOutcome::Done("1 2 3".to_owned()),
            })
            .is_err());
        let recovery = recover(&dir).unwrap();
        assert!(recovery.is_consistent());
        assert_eq!(
            recovery.jobs()[0].outcome,
            Some(JobOutcome::Partial("512 20000 3 0.0012 0.0171".to_owned()))
        );
        assert!(recovery.pending().is_empty(), "partial is terminal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_survives_reopen_with_exact_state() {
        let dir = tmp_dir("reopen");
        {
            let (mut wal, recovery) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
            assert!(recovery.jobs().is_empty());
            wal.append(&WalRecord::Accept(spec("a"))).unwrap();
            wal.append(&WalRecord::Accept(spec("b"))).unwrap();
            wal.append(&WalRecord::Dispatch {
                id: "a".to_owned(),
                backend: Backend::Packed,
                attempt: 0,
            })
            .unwrap();
            wal.append(&WalRecord::Complete {
                id: "a".to_owned(),
                outcome: JobOutcome::Done("0 1 1 0".to_owned()),
            })
            .unwrap();
        }
        let (_, recovery) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
        assert!(recovery.is_consistent());
        assert_eq!(recovery.jobs().len(), 2);
        assert_eq!(
            recovery.jobs()[0].outcome,
            Some(JobOutcome::Done("0 1 1 0".to_owned()))
        );
        assert_eq!(recovery.jobs()[1].outcome, None);
        assert_eq!(recovery.pending().len(), 1);
        assert_eq!(recovery.pending()[0].spec.id, "b");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_absorbs_identical_terminals_and_refuses_conflicts() {
        let dir = tmp_dir("dup");
        let (mut wal, _) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
        wal.append(&WalRecord::Accept(spec("a"))).unwrap();
        let done = WalRecord::Complete {
            id: "a".to_owned(),
            outcome: JobOutcome::Done("1".to_owned()),
        };
        wal.append(&done).unwrap();
        // A retried append of the identical terminal is absorbed...
        wal.append(&done).unwrap();
        // ...but a conflicting outcome is an exactly-once violation.
        assert!(wal
            .append(&WalRecord::Complete {
                id: "a".to_owned(),
                outcome: JobOutcome::Failed("boom".to_owned()),
            })
            .is_err());
        assert!(wal
            .append(&WalRecord::Dispatch {
                id: "ghost".to_owned(),
                backend: Backend::Packed,
                attempt: 0,
            })
            .is_err());
        // The doubled identical record on disk recovers consistently.
        let recovery = recover(&dir).unwrap();
        assert!(recovery.is_consistent());
        assert_eq!(
            recovery.jobs()[0].outcome,
            Some(JobOutcome::Done("1".to_owned()))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_flags_conflicting_terminals_in_the_journal() {
        let dir = tmp_dir("audit");
        std::fs::create_dir_all(&dir).unwrap();
        // Hand-write a journal that violates exactly-once: conflicting
        // terminal outcomes and an orphaned record.
        let mut bytes = Vec::new();
        for line in [
            "accept a - bell 2",
            "done a 1 1 0 0",
            "failed a boom",
            "done ghost 0 0 0 0",
        ] {
            write_record(&mut bytes, line.as_bytes()).unwrap();
        }
        std::fs::write(segment_path(&dir, 1), bytes).unwrap();
        let recovery = recover(&dir).unwrap();
        assert!(!recovery.is_consistent());
        assert_eq!(recovery.duplicate_terminals, vec!["a".to_owned()]);
        assert_eq!(recovery.orphaned, vec!["ghost".to_owned()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_absorbs_identical_duplicate_terminals() {
        let dir = tmp_dir("absorb");
        std::fs::create_dir_all(&dir).unwrap();
        // A retried append of the same terminal leaves two identical
        // records on disk; the audit must stay consistent.
        let mut bytes = Vec::new();
        for line in ["accept a - bell 2", "done a 1 1 0 0", "done a 1 1 0 0"] {
            write_record(&mut bytes, line.as_bytes()).unwrap();
        }
        std::fs::write(segment_path(&dir, 1), bytes).unwrap();
        let recovery = recover(&dir).unwrap();
        assert!(recovery.is_consistent());
        assert_eq!(recovery.jobs().len(), 1);
        assert_eq!(
            recovery.jobs()[0].outcome,
            Some(JobOutcome::Done("1 1 0 0".to_owned()))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compacted_segment_lines_are_stable() {
        // Pins the on-disk snapshot format: marker, sorted pruned-id
        // ledger, then each retained job as its accept plus terminal or
        // newest checkpoint. A change here breaks journals on disk.
        let dir = tmp_dir("golden");
        {
            let (mut wal, _) = WriteAheadLog::open_retaining(&dir, 64, 2).unwrap();
            let done = |id: &str, outcome: JobOutcome| WalRecord::Complete {
                id: id.to_owned(),
                outcome,
            };
            for record in [
                WalRecord::Accept(spec("a")),
                WalRecord::Dispatch {
                    id: "a".to_owned(),
                    backend: Backend::Packed,
                    attempt: 0,
                },
                progress("a", 1, 64, 3),
                done("a", JobOutcome::Done("0 1 1 0".to_owned())),
                WalRecord::Accept(spec("b")),
                progress("b", 2, 128, 1),
                WalRecord::Accept(spec("c")),
                done("c", JobOutcome::Failed("deadline exceeded".to_owned())),
                WalRecord::Accept(spec("d")),
                done("d", JobOutcome::Partial("64 1000 2 0.001 0.1".to_owned())),
                WalRecord::Accept(spec("e")),
                done("e", JobOutcome::Done("1".to_owned())),
            ] {
                wal.append(&record).unwrap();
            }
        }
        let (wal, _) = WriteAheadLog::open(&dir, 64).unwrap();
        assert_eq!(
            segment_lines(&segment_path(&dir, wal.active_seq())),
            [
                "snapshot",
                "pruned 2 af63dc4c8601ec8c af63de4c8601eff2",
                "accept b - bell 2",
                "progress b 2 128 1 6",
                "accept d - bell 2",
                "partial d 64 1000 2 0.001 0.1",
                "accept e - bell 2",
                "done e 1",
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
