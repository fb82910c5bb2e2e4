//! Supervised batch execution on the process's executor (`DESIGN.md`
//! §7): the fault-tolerant harness the experiment binaries and the
//! shot-service daemon route their batches through.
//!
//! A run is a list of batches ([`BatchSpec`]) and a job closure. Its
//! batches execute on helpers of [`Executor::global`], up to
//! [`SupervisorConfig::jobs`] of them, while the calling thread commits
//! their results in batch order and watches the time:
//!
//! - A batch that **panics** is caught (`catch_unwind`), converted to
//!   [`ShotError::Panic`], and retried with exponential backoff on the
//!   thread that ran it.
//! - A batch that **hangs** past the watchdog, or past its own
//!   deadline, is given up on. Past the watchdog the caller reruns it
//!   itself on the next attempt, presumes its helper lost and recruits
//!   a replacement (bounded); the hung attempt's late result is
//!   ignored. Past its deadline it is quarantined as cancelled.
//! - A batch that exhausts its retry budget is **quarantined** — recorded
//!   in the report (and `quarantine.csv`) instead of aborting the run.
//! - A caller with no live helper (none was idle, or every one it had
//!   is lost and the replacement budget is spent) runs the remaining
//!   batches itself: slower and without hang protection, but the run
//!   still completes.
//!
//! Results are reduced in task order into `Vec<Option<T>>`, so the
//! output is independent of the helper count and scheduling: `--jobs N`
//! is bit-identical to `--jobs 1`.
//!
//! **Seeding.** A batch's payload seed is the attempt-0 substream
//! `substream_seed(base, point, batch, 0)`, so a retried batch
//! reproduces the fault-free result bit for bit; the attempt-salted
//! stream is exposed as [`BatchCtx::attempt_seed`] (and drives chaos
//! injection).
//!
//! **Redundancy.** With a stride `r > 0`, every `r`-th batch also runs a
//! cross-backend vote (e.g. the Surface-17 stabilizer-vs-statevector
//! oracle); disagreement is flagged as a first-class
//! [`DivergenceRecord`] in the report rather than a crash.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::executor::{splitmix64, substream_seed, Batches, CancelToken, Claims, Executor, Run};
use crate::ShotError;

/// One batch of work in a supervised run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchSpec {
    /// Stable identifier used in checkpoint and quarantine records
    /// (non-empty, whitespace-free, e.g. `p3-XL-pf1-r2`).
    pub key: String,
    /// The sweep-point name hashed into the RNG substream.
    pub point: String,
    /// Batch index within the sweep point (second substream input).
    pub batch: u64,
    /// Shots this batch covers (informational; the job interprets it).
    pub shots: u64,
    /// When the batch is cancelled by itself: its [`BatchCtx::cancel`]
    /// reads cancelled from then on, and a batch still running then is
    /// quarantined as cancelled. `None`: no deadline of its own.
    pub deadline: Option<Instant>,
}

/// Everything a job closure receives about the batch it is executing.
#[derive(Clone, Debug)]
pub struct BatchCtx {
    /// Index of this batch in the spec list: the whole list's index
    /// when the run covers part of it ([`run_supervised_subset`]).
    pub task: usize,
    /// The batch description.
    pub spec: BatchSpec,
    /// The payload RNG seed: the attempt-0 substream.
    pub seed: u64,
    /// Retry attempt number, starting at 0.
    pub attempt: u32,
    /// An attempt-salted substream, distinct from `seed`, for decisions
    /// that *should* differ between retries (chaos injection, jitter).
    pub attempt_seed: u64,
    /// The run's cancel token with the batch's deadline: long-running
    /// payloads may poll it and bail out early with
    /// [`ShotError::Cancelled`].
    pub cancel: CancelToken,
}

/// Supervisor tuning knobs.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Most helpers of the process's executor the run may use (at least
    /// 1 for hang protection; the pool's size bounds it, not this).
    pub jobs: usize,
    /// Per-batch watchdog deadline.
    pub watchdog: Duration,
    /// Attempts per batch before quarantine (at least 1).
    pub max_attempts: u32,
    /// Base retry backoff; attempt `a` waits `backoff · 2^a`.
    pub backoff: Duration,
    /// Replacement helpers the run may recruit for lost ones.
    pub max_replacements: usize,
    /// Base RNG seed the substreams derive from.
    pub base_seed: u64,
    /// Cross-backend vote stride: every batch whose task index is a
    /// multiple of `n` votes (0 = off).
    pub redundancy: u64,
}

/// A batch that exhausted its retry budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// The batch key from its [`BatchSpec`].
    pub key: String,
    /// The batch's task index ([`BatchCtx::task`]).
    pub task: usize,
    /// Attempts consumed before giving up.
    pub attempts: u32,
    /// The last error observed.
    pub error: String,
    /// Whether the last error was a typed [`ShotError::Cancelled`] —
    /// the run's [`CancelToken`] or the batch's deadline stopped the
    /// batch, as opposed to a genuine failure. Set at quarantine time
    /// from the error variant, never by matching message text, so
    /// consumers (the daemon's deadline-vs-fail decision) stay correct
    /// even when an error message happens to contain "cancelled".
    /// Runtime-only: not written to `quarantine.csv`.
    pub cancelled: bool,
}

impl QuarantineRecord {
    /// One `quarantine.csv` row (matching [`QUARANTINE_HEADER`]);
    /// commas and newlines inside the error message are flattened so the
    /// record stays one machine-readable row.
    #[must_use]
    pub fn to_row(&self) -> String {
        format!(
            "{},{},{},{}",
            self.key,
            self.task,
            self.attempts,
            self.error.replace([',', '\n'], ";")
        )
    }
}

/// A redundancy vote that found the back-ends disagreeing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DivergenceRecord {
    /// The batch key from its [`BatchSpec`].
    pub key: String,
    /// The batch's task index ([`BatchCtx::task`]).
    pub task: usize,
    /// What disagreed.
    pub detail: String,
}

/// Counters describing how eventful a supervised run was.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Retry attempts issued (for any failure kind).
    pub retries: u64,
    /// Batch attempts that ended in a caught panic.
    pub panics: u64,
    /// Batch attempts that tripped the watchdog.
    pub timeouts: u64,
    /// Replacement helpers recruited for lost ones.
    pub replacements: u64,
    /// Redundancy votes executed.
    pub votes: u64,
    /// Batches quarantined as cancelled because the run's
    /// [`CancelToken`] fired or their deadline passed before they
    /// resolved.
    pub cancelled: u64,
    /// Whether every helper was lost and the tail ran on the caller.
    pub degraded_to_serial: bool,
}

/// Header line of `quarantine.csv`.
pub const QUARANTINE_HEADER: &str = "key,task,attempts,error";

/// The outcome of a supervised run.
#[derive(Debug)]
pub struct SupervisorReport<T> {
    /// Per-batch results in the order the specs were handed over;
    /// `None` exactly for quarantined batches. Independent of helper
    /// count and scheduling.
    pub results: Vec<Option<T>>,
    /// Batches that exhausted their retries, in spec order.
    pub quarantined: Vec<QuarantineRecord>,
    /// Redundancy votes that disagreed, in spec order.
    pub divergences: Vec<DivergenceRecord>,
    /// Event counters.
    pub stats: SupervisorStats,
}

impl<T> SupervisorReport<T> {
    /// Whether every batch produced a result and every vote agreed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.divergences.is_empty()
    }

    /// CSV rows (matching [`QUARANTINE_HEADER`]) describing the
    /// quarantined batches; commas and newlines inside error messages
    /// are flattened so each record stays one machine-readable row.
    #[must_use]
    pub fn quarantine_rows(&self) -> Vec<String> {
        self.quarantined
            .iter()
            .map(QuarantineRecord::to_row)
            .collect()
    }

    /// Commits the attempts of batch `task`, the next in order.
    fn commit(&mut self, task: usize, key: &str, done: Attempts<T>) {
        self.stats.panics += done.panics;
        self.stats.retries += done.retries;
        self.stats.votes += u64::from(done.voted);
        if let Some(detail) = done.divergence {
            self.divergences.push(DivergenceRecord {
                key: key.to_owned(),
                task,
                detail,
            });
        }
        match done.result {
            Ok(value) => self.results.push(Some(value)),
            Err(error) => {
                self.results.push(None);
                self.quarantined.push(QuarantineRecord {
                    key: key.to_owned(),
                    task,
                    attempts: done.attempts,
                    error: error.to_string(),
                    cancelled: matches!(error, ShotError::Cancelled { .. }),
                });
            }
        }
    }
}

/// Domain separator so `attempt_seed` never collides with the payload
/// seed of any attempt.
const ATTEMPT_DOMAIN: u64 = 0xA77E_3137_5EED_0001;

/// A cross-backend redundancy vote: `Ok(())` when the back-ends agree,
/// [`ShotError::Divergence`] (or any other error) when they do not.
pub type RedundancyCheck = dyn Fn(&BatchCtx) -> Result<(), ShotError> + Send + Sync;

type Job<T> = Box<dyn Fn(&BatchCtx) -> Result<T, ShotError> + Send + Sync>;

/// What every thread running a run's batches shares.
struct Shared<T> {
    specs: Vec<BatchSpec>,
    /// Each spec's task index ([`BatchCtx::task`]).
    tasks: Vec<usize>,
    job: Job<T>,
    vote: Option<Box<RedundancyCheck>>,
    base_seed: u64,
    redundancy: u64,
    max_attempts: u32,
    backoff: Duration,
    cancel: CancelToken,
}

/// The attempts one thread made at one batch, up to its first success
/// or the end of the retry budget.
struct Attempts<T> {
    result: Result<T, ShotError>,
    /// Attempts consumed, counting from attempt 0.
    attempts: u32,
    panics: u64,
    retries: u64,
    voted: bool,
    divergence: Option<String>,
}

impl<T> Attempts<T> {
    fn failed(error: ShotError, attempts: u32) -> Self {
        Attempts {
            result: Err(error),
            attempts,
            panics: 0,
            retries: 0,
            voted: false,
            divergence: None,
        }
    }
}

impl<T> Shared<T> {
    /// The cancel poll of the batch at `slot` in `specs`: the run's
    /// token with its deadline.
    fn token(&self, slot: usize) -> CancelToken {
        self.cancel.with_deadline(self.specs[slot].deadline)
    }

    fn ctx(&self, slot: usize, attempt: u32) -> BatchCtx {
        let spec = self.specs[slot].clone();
        let salted = substream_seed(self.base_seed, &spec.point, spec.batch, attempt);
        BatchCtx {
            task: self.tasks[slot],
            seed: substream_seed(self.base_seed, &spec.point, spec.batch, 0),
            attempt,
            attempt_seed: splitmix64(salted ^ ATTEMPT_DOMAIN),
            cancel: self.token(slot),
            spec,
        }
    }

    /// Runs the batch at `slot` in `specs` from attempt `from` on this
    /// thread, panic isolated, retrying with backoff until it succeeds
    /// or the budget is spent; a success runs the redundancy vote when
    /// its task index is due one.
    fn attempts(&self, slot: usize, from: u32) -> Attempts<T> {
        let mut done = Attempts::failed(ShotError::PoolFailure(String::new()), from);
        loop {
            let ctx = self.ctx(slot, done.attempts);
            done.attempts += 1;
            match catch(|| (self.job)(&ctx)) {
                Ok(value) => {
                    let redundancy = self.redundancy;
                    if let Some(vote) = self
                        .vote
                        .as_ref()
                        .filter(|_| redundancy > 0 && (ctx.task as u64).is_multiple_of(redundancy))
                    {
                        done.voted = true;
                        done.divergence = catch(|| vote(&ctx)).err().map(|e| e.to_string());
                    }
                    done.result = Ok(value);
                    return done;
                }
                Err(error) => {
                    done.panics += u64::from(matches!(error, ShotError::Panic(_)));
                    if done.attempts >= self.max_attempts {
                        done.result = Err(error);
                        return done;
                    }
                    done.retries += 1;
                    thread::sleep(self.backoff * 2u32.pow((done.attempts - 1).min(16)));
                }
            }
        }
    }
}

/// Runs `body`, turning a panic into [`ShotError::Panic`].
fn catch<R>(body: impl FnOnce() -> Result<R, ShotError>) -> Result<R, ShotError> {
    panic::catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        };
        Err(ShotError::Panic(message))
    })
}

/// A supervised run's batches as its helpers see them.
struct Supervised<T>(Arc<Shared<T>>);

impl<T> Clone for Supervised<T> {
    fn clone(&self) -> Self {
        Supervised(Arc::clone(&self.0))
    }
}

impl<T: Send + 'static> Batches for Supervised<T> {
    type Output = Attempts<T>;

    fn work(&self, claims: &mut Claims<'_, Self>) {
        while let Some(slot) = claims.claim() {
            claims.post(self.0.attempts(slot as usize, 0));
        }
    }
}

/// Runs `specs` through `job` under supervision (see the module docs).
///
/// When `config.redundancy > 0`, every `redundancy`-th batch also runs
/// `vote` after a successful payload, and disagreement lands in
/// [`SupervisorReport::divergences`]. Once `cancel` fires, no batch is
/// committed any more: every batch not yet committed is quarantined
/// with [`ShotError::Cancelled`] (counted in
/// [`SupervisorStats::cancelled`]) and the call returns; batches
/// already running see the token through [`BatchCtx::cancel`], and
/// their late results are ignored.
pub fn run_supervised<T, F>(
    config: &SupervisorConfig,
    specs: Vec<BatchSpec>,
    job: F,
    vote: Option<Box<RedundancyCheck>>,
    cancel: &CancelToken,
) -> SupervisorReport<T>
where
    T: Send + 'static,
    F: Fn(&BatchCtx) -> Result<T, ShotError> + Send + Sync + 'static,
{
    let specs = specs.into_iter().enumerate().collect();
    run_supervised_subset(config, specs, job, vote, cancel)
}

/// [`run_supervised`] over some batches of a longer spec list, each
/// given with its index in that list. The index is the batch's
/// [`BatchCtx::task`], and so decides which batches vote and numbers
/// quarantined and divergent ones, so a run over a subset treats each
/// batch exactly as a run over the whole list would. The report's
/// results follow `specs`.
pub fn run_supervised_subset<T, F>(
    config: &SupervisorConfig,
    specs: Vec<(usize, BatchSpec)>,
    job: F,
    vote: Option<Box<RedundancyCheck>>,
    cancel: &CancelToken,
) -> SupervisorReport<T>
where
    T: Send + 'static,
    F: Fn(&BatchCtx) -> Result<T, ShotError> + Send + Sync + 'static,
{
    let total = specs.len();
    let (tasks, specs) = specs.into_iter().unzip();
    let shared = Arc::new(Shared {
        specs,
        tasks,
        job: Box::new(job),
        vote,
        base_seed: config.base_seed,
        redundancy: config.redundancy,
        max_attempts: config.max_attempts.max(1),
        backoff: config.backoff,
        cancel: cancel.clone(),
    });
    let mut report = SupervisorReport {
        results: Vec::with_capacity(total),
        quarantined: Vec::new(),
        divergences: Vec::new(),
        stats: SupervisorStats::default(),
    };
    let budget_ms = u64::try_from(config.watchdog.as_millis()).unwrap_or(u64::MAX);
    let run = Run::new();
    let batches = Supervised(Arc::clone(&shared));
    let mut fan = Executor::global().fan(&run, batches, 0..total as u64, config.jobs, false);
    let mut replacements = 0;
    for slot in 0..total {
        let (key, task) = (&shared.specs[slot].key, shared.tasks[slot]);
        let token = shared.token(slot);
        let stopped = |report: &mut SupervisorReport<T>, reason: &str| {
            report.stats.cancelled += 1;
            let reason = reason.to_owned();
            report.commit(
                task,
                key,
                Attempts::failed(ShotError::Cancelled { reason }, 0),
            );
        };
        if cancel.is_cancelled() {
            stopped(&mut report, "supervised run cancelled");
            continue;
        }
        let watchdog = Instant::now() + config.watchdog;
        let until = token.deadline().map_or(watchdog, |d| d.min(watchdog));
        let next = fan.next(
            slot as u64,
            &mut |t| shared.attempts(t as usize, 0),
            Some(until),
            &|| token.is_cancelled(),
        );
        let done = match next {
            Some(done) => done,
            None if token.is_cancelled() => {
                let reason = if cancel.is_cancelled() {
                    "supervised run cancelled"
                } else {
                    "batch deadline passed"
                };
                stopped(&mut report, reason);
                continue;
            }
            None => {
                report.stats.timeouts += 1;
                fan.lose();
                if replacements < config.max_replacements && fan.replace() {
                    replacements += 1;
                    report.stats.replacements += 1;
                } else if fan.live() == 0 {
                    report.stats.degraded_to_serial = true;
                }
                if shared.max_attempts > 1 {
                    report.stats.retries += 1;
                    shared.attempts(slot, 1)
                } else {
                    Attempts::failed(ShotError::Timeout { budget_ms }, 1)
                }
            }
        };
        report.commit(task, key, done);
    }
    drop(fan);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{round_up_to_lanes, sliced_lane_seeds};
    use qpdo_stabilizer::LANES;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn specs(n: usize) -> Vec<BatchSpec> {
        (0..n)
            .map(|i| BatchSpec {
                key: format!("t{i}"),
                point: "unit".to_owned(),
                batch: i as u64,
                shots: 4,
                deadline: None,
            })
            .collect()
    }

    fn config(jobs: usize) -> SupervisorConfig {
        SupervisorConfig {
            jobs,
            watchdog: Duration::from_millis(200),
            max_attempts: 3,
            backoff: Duration::from_millis(1),
            max_replacements: jobs,
            base_seed: 2016,
            redundancy: 0,
        }
    }

    fn run<T: Send + 'static>(
        config: &SupervisorConfig,
        specs: Vec<BatchSpec>,
        job: impl Fn(&BatchCtx) -> Result<T, ShotError> + Send + Sync + 'static,
    ) -> SupervisorReport<T> {
        run_supervised(config, specs, job, None, &CancelToken::new())
    }

    #[test]
    fn substreams_are_deterministic_and_distinct() {
        let a = substream_seed(1, "p0", 0, 0);
        assert_eq!(a, substream_seed(1, "p0", 0, 0));
        let others = [
            substream_seed(1, "p0", 0, 1),
            substream_seed(1, "p0", 1, 0),
            substream_seed(1, "p1", 0, 0),
            substream_seed(2, "p0", 0, 0),
        ];
        for other in others {
            assert_ne!(a, other);
        }
    }

    #[test]
    fn lane_rounding_covers_exact_and_ragged_counts() {
        assert_eq!(round_up_to_lanes(0), 0);
        assert_eq!(round_up_to_lanes(1), 64);
        assert_eq!(round_up_to_lanes(64), 64);
        assert_eq!(round_up_to_lanes(65), 128);
        assert_eq!(round_up_to_lanes(1000), 1024);
    }

    #[test]
    fn sliced_lane_seeds_match_the_scalar_shot_numbering() {
        // Lane k of batch b is scalar shot b*64+k: the sliced engine
        // substitutes for scalar sweeps without renumbering anything.
        let seeds = sliced_lane_seeds(2016, "p=1e-3", 3);
        for (k, &seed) in seeds.iter().enumerate() {
            assert_eq!(seed, substream_seed(2016, "p=1e-3", 3 * 64 + k as u64, 0));
        }
        // Deterministic across calls (retries reproduce), distinct
        // across lanes and batches.
        assert_eq!(seeds, sliced_lane_seeds(2016, "p=1e-3", 3));
        let mut all: Vec<u64> = seeds.into_iter().collect();
        all.extend(sliced_lane_seeds(2016, "p=1e-3", 4));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2 * LANES);
    }

    #[test]
    fn retries_keep_the_attempt_zero_seed() {
        let shared = Shared::<()> {
            specs: specs(1),
            tasks: vec![0],
            job: Box::new(|_| Ok(())),
            vote: None,
            base_seed: 9,
            redundancy: 0,
            max_attempts: 3,
            backoff: Duration::ZERO,
            cancel: CancelToken::new(),
        };
        let (a0, a1) = (shared.ctx(0, 0), shared.ctx(0, 1));
        assert_eq!(a0.seed, a1.seed);
        assert_eq!(a0.seed, substream_seed(9, "unit", 0, 0));
        assert_ne!(a0.attempt_seed, a1.attempt_seed);
        assert_ne!(a0.seed, a0.attempt_seed);
    }

    #[test]
    fn clean_run_resolves_every_batch_in_order() {
        let report = run(&config(3), specs(8), |ctx| Ok(ctx.seed));
        assert!(report.is_clean());
        assert!(!report.stats.degraded_to_serial);
        let expected: Vec<u64> = (0..8).map(|b| substream_seed(2016, "unit", b, 0)).collect();
        let got: Vec<u64> = report.results.into_iter().map(Option::unwrap).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn persistent_failure_is_quarantined_not_fatal() {
        let report = run(&config(2), specs(5), |ctx| {
            if ctx.task == 2 {
                Err(ShotError::PoolFailure("broken batch".to_owned()))
            } else {
                Ok(ctx.task)
            }
        });
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].task, 2);
        assert_eq!(report.quarantined[0].key, "t2");
        assert_eq!(report.quarantined[0].attempts, 3);
        assert!(report.results[2].is_none());
        for task in [0, 1, 3, 4] {
            assert_eq!(report.results[task], Some(task));
        }
        let rows = report.quarantine_rows();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].starts_with("t2,2,3,"));
        assert!(!rows[0].contains('\n'));
    }

    #[test]
    fn divergence_is_flagged_not_retried() {
        let mut cfg = config(2);
        cfg.redundancy = 2; // tasks 0, 2 vote
        let report = run_supervised(
            &cfg,
            specs(4),
            |ctx| Ok(ctx.task),
            Some(Box::new(|ctx: &BatchCtx| {
                if ctx.task == 2 {
                    Err(ShotError::Divergence {
                        detail: "backends disagree".to_owned(),
                    })
                } else {
                    Ok(())
                }
            })),
            &CancelToken::new(),
        );
        assert_eq!(report.stats.votes, 2);
        assert_eq!(report.divergences.len(), 1);
        assert_eq!(report.divergences[0].task, 2);
        assert!(report.divergences[0].detail.contains("disagree"));
        // The payload result is still delivered, flagged.
        assert_eq!(report.results[2], Some(2));
        assert!(report.quarantined.is_empty());
    }

    #[test]
    fn pre_cancelled_run_quarantines_everything_promptly() {
        let token = CancelToken::new();
        token.cancel();
        let executed = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&executed);
        let report = run_supervised(
            &config(2),
            specs(6),
            move |ctx: &BatchCtx| {
                seen.fetch_add(1, Ordering::SeqCst);
                Ok(ctx.task)
            },
            None,
            &token,
        );
        // Every batch is either resolved or quarantined as cancelled;
        // none is silently lost.
        assert_eq!(
            report.quarantined.len() + report.results.iter().filter(|r| r.is_some()).count(),
            6
        );
        assert!(report.stats.cancelled > 0);
        for q in &report.quarantined {
            assert!(q.cancelled, "not typed as cancelled: {q:?}");
            assert!(q.error.contains("cancelled"), "{}", q.error);
        }
    }

    #[test]
    fn quarantine_cancellation_flag_is_typed_not_textual() {
        // An error whose *message* merely mentions cancellation must not
        // classify as cancelled — only the typed variant may. This is
        // the regression the daemon's deadline-vs-fail decision rests
        // on (it used to substring-match the message).
        let report: SupervisorReport<()> = run(&config(1), specs(1), |_| {
            Err(ShotError::PoolFailure(
                "backend reported: upstream cancelled the lease".to_owned(),
            ))
        });
        assert_eq!(report.quarantined.len(), 1);
        assert!(!report.quarantined[0].cancelled, "textual match leaked in");

        let report: SupervisorReport<()> = run(&config(1), specs(1), |_| {
            Err(ShotError::Cancelled {
                reason: "stopped by test".to_owned(),
            })
        });
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0].cancelled, "typed variant not flagged");
    }

    #[test]
    fn mid_run_cancellation_stops_dispatch() {
        let token = CancelToken::new();
        let trigger = token.clone();
        // Task 0 cancels the run; jobs observe the token through their
        // BatchCtx, mirroring how a serving-layer deadline fires.
        let report = run_supervised(
            &config(1),
            specs(16),
            move |ctx: &BatchCtx| {
                if ctx.task == 0 {
                    trigger.cancel();
                }
                thread::sleep(Duration::from_millis(5));
                Ok(ctx.task)
            },
            None,
            &token,
        );
        assert!(token.is_cancelled());
        assert!(report.stats.cancelled > 0, "no batch was cancelled");
        assert!(
            report.quarantined.iter().all(|q| q.cancelled),
            "{:?}",
            report.quarantined
        );
        // Nothing is silently lost: every task resolved or quarantined.
        assert_eq!(
            report.quarantined.len() + report.results.iter().filter(|r| r.is_some()).count(),
            16
        );
    }

    #[test]
    fn a_batch_past_its_deadline_is_cancelled_alone() {
        // Batch 1 sleeps past its own deadline; its neighbours, without
        // one, run to their results, and the run returns long before
        // the sleep ends.
        let mut specs = specs(3);
        specs[1].deadline = Some(Instant::now() + Duration::from_millis(50));
        let started = Instant::now();
        let report = run(&config(2), specs, |ctx: &BatchCtx| {
            if ctx.task == 1 {
                thread::sleep(Duration::from_secs(2));
            }
            Ok(ctx.task)
        });
        assert!(started.elapsed() < Duration::from_millis(1500));
        assert_eq!(report.results[0], Some(0));
        assert_eq!(report.results[2], Some(2));
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0].cancelled && report.quarantined[0].task == 1);
        assert_eq!(report.stats.cancelled, 1);
    }

    #[test]
    fn quarantine_rows_flatten_commas() {
        let report: SupervisorReport<()> = SupervisorReport {
            results: vec![None],
            quarantined: vec![QuarantineRecord {
                key: "k".to_owned(),
                task: 0,
                attempts: 3,
                error: "a, b\nc".to_owned(),
                cancelled: false,
            }],
            divergences: Vec::new(),
            stats: SupervisorStats::default(),
        };
        assert_eq!(report.quarantine_rows(), vec!["k,0,3,a; b;c".to_owned()]);
    }
}
