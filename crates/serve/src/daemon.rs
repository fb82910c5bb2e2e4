//! The shot-service daemon (`DESIGN.md` §9, §12).
//!
//! A single nonblocking event loop ([`crate::eventloop`]) multiplexes
//! every connection — readiness scans, per-connection frame state
//! machines, read/write deadlines, byte-budget backpressure — over one
//! service core (`ServiceState` + the group-committed journal).
//! Submissions journal asynchronously: the connection parks on a
//! commit token and the ack is written only after the batch fsync
//! completes.
//!
//! One dispatcher thread drains the admission queue in rounds,
//! executing each round as one supervised run on the process's
//! executor ([`qpdo_core::supervisor`]) with panic isolation and
//! per-job watchdogs. All state lives in one mutex-protected
//! `ServiceState` signalled by a condvar; the journal is owned by the
//! commit thread ([`crate::commit`]) and every record is durable
//! *before* the state change it records becomes observable —
//! WAL-before-ack for admissions, WAL-before-result for completions. A
//! failed commit latches the daemon degraded: fresh submissions are
//! refused with the post-dedup `degraded` code, ids whose accept append
//! failed mid-commit stay ambiguous (`journal`, which routers park), and
//! a drain stops immediately instead of waiting for terminals that can
//! no longer land.
//!
//! Dispatch: each job kind runs on its one backend
//! ([`JobKind::backend`]). Every engine is deterministic, so a failed
//! attempt requeues the job until `max_job_attempts` attempts have
//! failed, then ends it `failed`; an expired deadline cancels that job
//! alone, through its own [`CancelToken`], and ends it with its
//! deadline outcome.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use qpdo_core::supervisor::{run_supervised, BatchCtx, BatchSpec, SupervisorConfig};
use qpdo_core::{CancelToken, Checkpoint, ShotError};

use crate::commit::{CommitError, GroupCommit};
use crate::eventloop;
use crate::job::{execute_tracked, partial_detail, Execution, JobKind, JobSpec};
use crate::protocol::{send_line, HealthSnapshot, JobState, RejectCode, Response};
use crate::wal::{resumable, JobOutcome, WalRecord, WriteAheadLog};

/// How long the dispatcher backs off when a pass over a non-empty queue
/// dispatched nothing because a terminal journal append failed.
const JOURNAL_RETRY_WAIT: Duration = Duration::from_millis(250);

/// Daemon tuning knobs.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Jobs per round, each on a helper of the process's executor.
    pub jobs: usize,
    /// Per-batch watchdog deadline in milliseconds.
    pub watchdog_ms: u64,
    /// Base RNG seed; job seeds derive from it and the job id.
    pub base_seed: u64,
    /// Bounded admission-queue depth; submissions beyond it are shed.
    pub queue_depth: usize,
    /// Default per-job deadline applied when a submission carries none.
    pub default_deadline_ms: Option<u64>,
    /// Daemon-level attempts before a job fails terminally.
    pub max_job_attempts: u32,
    /// Journal segment size bound before rotation.
    pub max_segment_bytes: u64,
    /// Terminal jobs retained through journal compaction; older ones
    /// are pruned (they lose crash-surviving dedup, but deterministic
    /// seeds keep any re-execution byte-identical).
    pub retain_terminal: usize,
    /// Bound on concurrent client connections; accepts beyond it are
    /// answered with a `busy` rejection and closed.
    pub max_conns: usize,
    /// Read/write deadline on accepted client streams
    /// ([`Duration::ZERO`] disables it): a stalled, mid-frame, or
    /// vanished client is reaped instead of pinning its connection
    /// slot forever.
    pub io_timeout: Duration,
    /// Most records the commit thread folds into one fsync.
    pub commit_batch: usize,
    /// How long (µs) an under-full commit batch waits for stragglers
    /// before syncing anyway (0 = commit immediately).
    pub commit_interval_us: u64,
    /// Total buffered bytes (unparsed input + pending output across
    /// all connections) above which reads pause, pushing backpressure
    /// into the peers' TCP windows instead of growing without bound.
    pub max_inflight_bytes: usize,
    /// Journal a `progress` checkpoint every this many completed
    /// batches of a resumable shot sweep (0 disables checkpointing).
    /// Checkpoints are advisory — they bound re-execution after a
    /// crash, never correctness — so pacing them trades WAL traffic
    /// against recovery compute.
    pub progress_batches: u64,
    /// Fault injection: the journal's active-segment fsync fails after
    /// this many have succeeded, forcing the degraded latch.
    pub chaos_fsync_fail: Option<u64>,
    /// Fault injection: every execution stalls this long first (widens
    /// the kill window for crash drills).
    pub chaos_stall: Duration,
    /// Fault injection: progress appends fail (as if the disk ran out
    /// of space) after this many succeeded. Checkpointing degrades to
    /// off — visible as `checkpoint=off` in health — while the job
    /// itself keeps running to its normal terminal.
    pub chaos_progress_fail: Option<u64>,
    /// Fault injection: every other journaled checkpoint is corrupted
    /// (failures > shots), exercising replay's plausibility gate and
    /// the fall-back-to-previous-checkpoint path.
    pub chaos_corrupt_checkpoint: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            jobs: 2,
            watchdog_ms: 30_000,
            base_seed: 2016,
            queue_depth: 256,
            default_deadline_ms: None,
            max_job_attempts: 5,
            max_segment_bytes: WriteAheadLog::DEFAULT_MAX_SEGMENT_BYTES,
            retain_terminal: WriteAheadLog::DEFAULT_RETAIN_TERMINAL,
            max_conns: 256,
            io_timeout: Duration::from_secs(30),
            commit_batch: 64,
            commit_interval_us: 200,
            max_inflight_bytes: 1 << 20,
            progress_batches: 8,
            chaos_fsync_fail: None,
            chaos_stall: Duration::ZERO,
            chaos_progress_fail: None,
            chaos_corrupt_checkpoint: false,
        }
    }
}

/// Counters reported through `health` and returned by [`serve`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs accepted (including journal-recovered ones).
    pub accepted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs terminally failed.
    pub failed: u64,
    /// Jobs that delivered an anytime `Partial` result at deadline.
    pub partials: u64,
    /// Submissions shed by admission control.
    pub shed: u64,
    /// Submissions absorbed as duplicates.
    pub duplicates: u64,
    /// Shot-sweep batches executed by this process (resumed work starts
    /// past its checkpoint, so a resumed run reports strictly fewer
    /// batches than a scratch run — the crash drill's oracle).
    pub batches: u64,
}

struct JobEntry {
    spec: JobSpec,
    state: JobState,
    attempts: u32,
    accepted_at: Instant,
    /// A computed terminal outcome whose journal append failed: the
    /// dispatcher retries the *identical* append instead of
    /// re-executing, so the worst case on disk is a byte-identical
    /// duplicate record (which recovery absorbs), never a conflict.
    pending_outcome: Option<JobOutcome>,
    /// The newest checkpoint of this job's shot sweep: updated live by
    /// the executing worker after every batch (what the `progress`
    /// query reports), seeded from the journal at recovery (what a
    /// resumed dispatch starts from), and the prefix a deadline expiry
    /// turns into a `Partial` instead of discarding.
    progress: Option<Checkpoint>,
}

impl JobEntry {
    fn deadline(&self) -> Option<Instant> {
        self.spec
            .deadline_ms
            .map(|ms| self.accepted_at + Duration::from_millis(ms))
    }
}

pub(crate) struct ServiceState {
    jobs: HashMap<String, JobEntry>,
    queue: VecDeque<String>,
    running: usize,
    pub(crate) draining: bool,
    pub(crate) shutdown: bool,
    pub(crate) stats: ServeStats,
    /// Remaining progress appends before the injected ENOSPC fires
    /// (`None` = no injection).
    chaos_progress_fail: Option<u64>,
    /// Ids reserved by submissions whose accept record is in flight to
    /// the commit thread. They hold queue capacity (so backpressure
    /// counts them) and block a concurrent same-id submission, and a
    /// drain waits for them to resolve.
    pending_accepts: HashSet<String>,
    /// Ids whose accept append failed mid-commit: durability unknown
    /// forever, so resubmits are answered `journal` (routers park)
    /// rather than re-admitted or refused with a rebind-safe code.
    ambiguous: HashSet<String>,
    /// Ids whose terminal record is being journaled off the state lock
    /// (the dispatcher drops the lock across the group-commit wait so
    /// admissions and queries keep flowing). The claim serializes the
    /// terminal transition — first claim wins — and a drain waits for
    /// these to resolve exactly like in-flight accepts.
    pending_terminals: HashSet<String>,
}

impl ServiceState {
    pub(crate) fn health(&self, degraded: bool, checkpointing: bool) -> HealthSnapshot {
        HealthSnapshot {
            accepting: !self.draining && !self.shutdown && !degraded,
            queued: self.queue.len(),
            running: self.running,
            accepted: self.stats.accepted,
            completed: self.stats.completed,
            failed: self.stats.failed,
            partials: self.stats.partials,
            batches: self.stats.batches,
            checkpointing,
            shed: self.stats.shed,
            duplicates: self.stats.duplicates,
        }
    }

    /// Whether every admission the drain must wait out has resolved
    /// (commit-parked submissions count: each will either enqueue a job
    /// or answer a rejection, and the drain decision needs to see it).
    pub(crate) fn drained(&self, degraded: bool) -> bool {
        self.pending_accepts.is_empty()
            && self.pending_terminals.is_empty()
            && (degraded || (self.queue.is_empty() && self.running == 0))
    }
}

pub(crate) struct Service {
    pub(crate) state: Mutex<ServiceState>,
    pub(crate) wake: Condvar,
    pub(crate) commit: GroupCommit,
    pub(crate) config: DaemonConfig,
    /// Whether progress checkpoints are still being journaled. Starts
    /// true when `progress_batches > 0`; a failed progress append (real
    /// or injected) flips it off for the daemon's lifetime — the
    /// degraded-but-running mode `checkpoint=off` reports in health.
    /// Checkpoints are advisory, so unlike the journal's degraded
    /// latch, losing them never stops admissions or executions.
    pub(crate) checkpointing: AtomicBool,
    /// Progress appends attempted, driving the every-other-record
    /// corruption injection.
    progress_appends: AtomicU64,
}

impl Service {
    /// Whether health should advertise live checkpointing.
    pub(crate) fn checkpointing_on(&self) -> bool {
        self.checkpointing.load(Ordering::Acquire)
    }
}

/// Runs the daemon on an already-bound listener until a client drains
/// it. Returns the final counters.
///
/// On startup the journal in `wal_dir` is replayed: completed jobs
/// become queryable results, incomplete ones are re-queued in
/// acceptance order (their deadlines restart at recovery, since wall
/// clocks do not survive a crash usefully).
///
/// # Errors
///
/// Propagates journal and listener I/O errors. An inconsistent journal
/// (duplicate terminal records) is an error: the exactly-once guarantee
/// no longer holds and the operator must intervene.
pub fn serve(
    listener: TcpListener,
    wal_dir: &Path,
    config: DaemonConfig,
) -> io::Result<ServeStats> {
    let (mut wal, recovery) =
        WriteAheadLog::open_retaining(wal_dir, config.max_segment_bytes, config.retain_terminal)?;
    wal.set_fail_sync_after(config.chaos_fsync_fail);
    if !recovery.is_consistent() {
        return Err(io::Error::other(format!(
            "journal violates exactly-once: duplicate terminals {:?}, orphaned {:?}",
            recovery.duplicate_terminals, recovery.orphaned
        )));
    }

    let now = Instant::now();
    let mut jobs = HashMap::new();
    let mut queue = VecDeque::new();
    let mut stats = ServeStats::default();
    for job in recovery.jobs() {
        stats.accepted += 1;
        let state = match &job.outcome {
            Some(JobOutcome::Done(record)) => {
                stats.completed += 1;
                JobState::Done(record.clone())
            }
            Some(JobOutcome::Failed(error)) => {
                stats.failed += 1;
                JobState::Failed(error.clone())
            }
            Some(JobOutcome::Partial(detail)) => {
                stats.partials += 1;
                JobState::Partial(detail.clone())
            }
            None => {
                queue.push_back(job.spec.id.clone());
                JobState::Queued
            }
        };
        jobs.insert(
            job.spec.id.clone(),
            JobEntry {
                spec: job.spec.clone(),
                state,
                attempts: 0,
                accepted_at: now,
                pending_outcome: None,
                // Pending jobs resume from their newest durable
                // checkpoint; terminal jobs keep theirs only as history.
                progress: job.checkpoint.clone(),
            },
        );
    }
    if !recovery.jobs().is_empty() {
        eprintln!(
            "recovered {} journaled jobs ({} pending re-execution, {} resumable)",
            recovery.jobs().len(),
            queue.len(),
            resumable(&recovery).len()
        );
    }

    let commit = GroupCommit::spawn(
        wal,
        config.commit_batch,
        Duration::from_micros(config.commit_interval_us),
    );
    let service = Arc::new(Service {
        state: Mutex::new(ServiceState {
            jobs,
            queue,
            running: 0,
            draining: false,
            shutdown: false,
            stats,
            chaos_progress_fail: config.chaos_progress_fail,
            pending_accepts: HashSet::new(),
            ambiguous: HashSet::new(),
            pending_terminals: HashSet::new(),
        }),
        wake: Condvar::new(),
        commit,
        checkpointing: AtomicBool::new(config.progress_batches > 0),
        progress_appends: AtomicU64::new(0),
        config,
    });

    let dispatcher = {
        let service = Arc::clone(&service);
        thread::spawn(move || dispatch_loop(&service))
    };

    eventloop::run(&listener, &service)?;

    dispatcher.join().expect("dispatcher thread panicked");
    let stats = service.state.lock().expect("state lock").stats;
    Ok(stats)
}

/// Best-effort `busy` rejection for a connection over the cap;
/// the short write timeout keeps a hostile peer from stalling the
/// event loop.
pub(crate) fn shed_connection(service: &Service, mut stream: TcpStream) {
    service.state.lock().expect("state lock").stats.shed += 1;
    let error = ShotError::Overloaded {
        queue_depth: service.config.max_conns,
    };
    // `busy`, never `overloaded`: this shed happens before any request
    // is read, so no dedup check ran — the code must not claim the
    // post-dedup proof that `overloaded` carries (the router would
    // otherwise treat it as license to fail a sent job over).
    let reply = Response::rejected(RejectCode::Busy, error.to_string());
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = send_line(&mut stream, &reply.encode());
}

/// How a submission left [`submit_begin`].
pub(crate) enum SubmitAdmission {
    /// Answered without touching the journal.
    Reply(Response),
    /// Admission checks passed and the id is reserved: the caller must
    /// append `Accept(spec)` through the commit thread and route the
    /// result through [`submit_finish`] — on *every* path, or the
    /// reservation leaks and a drain waits forever.
    Reserved(JobSpec),
}

/// Admission checks for one submission, up to (but not including) the
/// journal append.
pub(crate) fn submit_begin(service: &Service, mut spec: JobSpec) -> SubmitAdmission {
    if spec.deadline_ms.is_none() {
        spec.deadline_ms = service.config.default_deadline_ms;
    }
    let degraded = service.commit.is_degraded();
    let mut state = service.state.lock().expect("state lock");
    if state.jobs.contains_key(&spec.id) {
        state.stats.duplicates += 1;
        return SubmitAdmission::Reply(Response::Duplicate(spec.id));
    }
    if state.pending_accepts.contains(&spec.id) {
        // A same-id submission is mid-commit on another connection.
        // `busy` is deliberately pre-dedup: its outcome is unknown, so
        // the router must not take this as proof the id is not here.
        return SubmitAdmission::Reply(Response::rejected(
            RejectCode::Busy,
            format!("a submission of job {} is already in flight", spec.id),
        ));
    }
    if state.ambiguous.contains(&spec.id) {
        // An earlier accept append failed mid-commit; its bytes may or
        // may not be on disk. Only `journal` (park) is safe.
        return SubmitAdmission::Reply(Response::rejected(
            RejectCode::Journal,
            format!(
                "an earlier submission of job {} failed to journal; durability unknown",
                spec.id
            ),
        ));
    }
    // A terminal job pruned by journal retention keeps its id in the
    // pruned-id ledger: answer the resubmit deterministically instead
    // of silently re-executing under an id that already completed.
    if service.commit.was_pruned(&spec.id) {
        state.stats.duplicates += 1;
        return SubmitAdmission::Reply(Response::rejected(
            RejectCode::Pruned,
            format!(
                "job {} already reached a terminal state; \
                 its result was pruned by journal retention",
                spec.id
            ),
        ));
    }
    // The codes below are load-bearing for the fleet router: they sit
    // AFTER the dedup checks above, so `draining`, `degraded` and
    // `overloaded` are post-dedup proof that the id is not held here.
    // A new rejection added above the dedup checks must use a
    // non-post-dedup code.
    if state.draining || state.shutdown {
        return SubmitAdmission::Reply(Response::rejected(
            RejectCode::Draining,
            "draining: not accepting new jobs",
        ));
    }
    if degraded {
        return SubmitAdmission::Reply(Response::rejected(
            RejectCode::Degraded,
            "journal degraded: a commit fsync failed; restart the daemon",
        ));
    }
    if state.queue.len() + state.pending_accepts.len() >= service.config.queue_depth {
        state.stats.shed += 1;
        let error = ShotError::Overloaded {
            queue_depth: state.queue.len(),
        };
        return SubmitAdmission::Reply(Response::rejected(
            RejectCode::Overloaded,
            error.to_string(),
        ));
    }
    // Reserve the id (holding queue capacity) and journal off-lock:
    // WAL-before-ack no longer serializes admissions behind one fsync —
    // the commit thread batches every reservation in flight.
    state.pending_accepts.insert(spec.id.clone());
    SubmitAdmission::Reserved(spec)
}

/// Folds a commit result back into the state and produces the reply.
/// Must be called exactly once per [`SubmitAdmission::Reserved`].
pub(crate) fn submit_finish(
    service: &Service,
    spec: &JobSpec,
    result: Result<(), CommitError>,
) -> Response {
    let mut state = service.state.lock().expect("state lock");
    state.pending_accepts.remove(&spec.id);
    let response = match result {
        Ok(()) => {
            state.stats.accepted += 1;
            state.jobs.insert(
                spec.id.clone(),
                JobEntry {
                    spec: spec.clone(),
                    state: JobState::Queued,
                    attempts: 0,
                    accepted_at: Instant::now(),
                    pending_outcome: None,
                    progress: None,
                },
            );
            state.queue.push_back(spec.id.clone());
            Response::Accepted(spec.id.clone())
        }
        Err(CommitError::Rejected(_)) => {
            // Validation refused the accept before any byte was
            // written. The only validation an accept can fail is the
            // pruned-ledger check (a prune raced the admission), which
            // has a deterministic answer.
            state.stats.duplicates += 1;
            Response::rejected(
                RejectCode::Pruned,
                format!(
                    "job {} already reached a terminal state; \
                     its result was pruned by journal retention",
                    spec.id
                ),
            )
        }
        Err(CommitError::Unsynced(detail)) => {
            // The append died mid-commit: its bytes may be durable.
            // Latch the id ambiguous and answer `journal` (park).
            state.ambiguous.insert(spec.id.clone());
            Response::rejected(
                RejectCode::Journal,
                format!("journal write failed: {detail}"),
            )
        }
        Err(CommitError::Degraded(detail)) => {
            // Provably never written: the rebind-safe post-dedup code.
            Response::rejected(RejectCode::Degraded, detail)
        }
    };
    // Dispatcher (new work) and drain waiters (a reservation resolved)
    // both need the wake.
    service.wake.notify_all();
    response
}

pub(crate) fn handle_query(service: &Service, id: &str) -> Response {
    let state = service.state.lock().expect("state lock");
    match state.jobs.get(id) {
        Some(entry) => Response::State(id.to_owned(), entry.state.clone()),
        None => Response::rejected(RejectCode::UnknownJob, format!("unknown job {id:?}")),
    }
}

/// Live completed-shot counts for a job mid-flight. A terminal job
/// answers with its terminal state instead (the checkpoint is history
/// at that point); a known job with no checkpoint yet reports zeros.
pub(crate) fn handle_progress(service: &Service, id: &str) -> Response {
    let state = service.state.lock().expect("state lock");
    match state.jobs.get(id) {
        Some(entry) => match (&entry.state, &entry.progress) {
            (JobState::Done(_) | JobState::Failed(_) | JobState::Partial(_), _) => {
                Response::State(id.to_owned(), entry.state.clone())
            }
            (_, Some(cp)) => Response::Progress {
                id: id.to_owned(),
                batches: cp.batches,
                shots: cp.shots,
                failures: cp.failures,
            },
            (_, None) => Response::Progress {
                id: id.to_owned(),
                batches: 0,
                shots: 0,
                failures: 0,
            },
        },
        None => Response::rejected(RejectCode::UnknownJob, format!("unknown job {id:?}")),
    }
}

/// One dispatched job within a round.
struct RoundJob {
    id: String,
    kind: JobKind,
    attempt: u32,
    deadline: Option<Instant>,
    /// The checkpoint this dispatch resumes from, if the kind supports
    /// resumption and a prior run (this process or a crashed one) left
    /// one behind.
    resume: Option<Checkpoint>,
}

/// The anytime terminal for a job whose deadline expired: a `Partial`
/// carrying the completed prefix when a checkpoint with real shots
/// exists, otherwise the classic failure. Used by both the pre-dispatch
/// expiry path and the fold-back of a job its deadline cancelled, so
/// the two paths can never disagree.
fn deadline_outcome(entry: &JobEntry) -> JobOutcome {
    match &entry.progress {
        Some(cp) if cp.shots > 0 => JobOutcome::Partial(partial_detail(&entry.spec.kind, cp)),
        _ => JobOutcome::Failed("deadline exceeded".to_owned()),
    }
}

fn dispatch_loop(service: &Arc<Service>) {
    loop {
        let (round, terminals) = {
            let mut state = service.state.lock().expect("state lock");
            loop {
                if state.shutdown {
                    return;
                }
                if !state.queue.is_empty() {
                    break;
                }
                state = service.wake.wait(state).expect("state lock");
            }
            pick_round(service, &mut state)
        };
        // Deadline expiries and parked journal retries claimed by
        // pick_round: append their terminal records here, off the
        // state lock, so admissions and queries keep flowing through a
        // full group-commit cycle.
        let had_terminals = !terminals.is_empty();
        let journal_ok = journal_terminals(service, terminals);
        if round.is_empty() {
            if had_terminals && journal_ok {
                // The pass made durable progress; look again at once.
                continue;
            }
            // Jobs are queued but a terminal journal append is
            // failing: back off instead of spinning.
            let state = service.state.lock().expect("state lock");
            let _ = service
                .wake
                .wait_timeout(state, JOURNAL_RETRY_WAIT)
                .expect("state lock");
            continue;
        }
        // Dispatch trace records journal off the state lock too: a
        // lost one only loses routing trace, never correctness.
        for job in &round {
            if let Err(e) = service.commit.append_sync(WalRecord::Dispatch {
                id: job.id.clone(),
                backend: job.kind.backend(),
                attempt: job.attempt,
            }) {
                eprintln!(
                    "warning: journal dispatch record failed for {}: {e}",
                    job.id
                );
            }
        }
        run_round(service, round);
    }
}

/// Pops up to a pool-sized round of dispatchable jobs. Jobs past their
/// deadline, and parked journal retries, are claimed as terminal (the
/// caller journals them off-lock). No journal I/O happens here — the
/// state lock is held, and a group-commit wait under it would block
/// every admission, query, and health check.
fn pick_round(
    service: &Service,
    state: &mut ServiceState,
) -> (Vec<RoundJob>, Vec<(String, JobOutcome)>) {
    let now = Instant::now();
    let mut round = Vec::new();
    let mut terminals = Vec::new();
    while round.len() < service.config.jobs.max(1) {
        let Some(id) = state.queue.pop_front() else {
            break;
        };
        let entry = state.jobs.get(&id).expect("queued job exists");
        // A journal-retry job: the result is already computed, only its
        // terminal record is missing. Retry the identical append.
        if let Some(outcome) = entry.pending_outcome.clone() {
            if terminal_begin(state, &id, &outcome) {
                terminals.push((id, outcome));
            }
            continue;
        }
        let deadline = entry.deadline();
        if deadline.is_some_and(|d| d <= now) {
            let outcome = deadline_outcome(entry);
            if terminal_begin(state, &id, &outcome) {
                terminals.push((id, outcome));
            }
            continue;
        }
        let entry = state.jobs.get_mut(&id).expect("queued job exists");
        entry.state = JobState::Running;
        let attempt = entry.attempts;
        let kind = entry.spec.kind;
        let resume = entry
            .progress
            .clone()
            .filter(|_| entry.spec.kind.resumable());
        round.push(RoundJob {
            id,
            kind,
            attempt,
            deadline,
            resume,
        });
    }
    state.running = round.len();
    (round, terminals)
}

/// Journals one progress checkpoint through the group commit (off the
/// state lock — the fsync wait paces the executing worker, not the
/// admission path). Injections run first: the ENOSPC counter fails the
/// append as if the disk filled, and the corruption flag mangles every
/// other record so replay's plausibility gate has something to reject.
/// Any append failure flips checkpointing off for good; the job itself
/// keeps running — checkpoints bound recovery compute, not correctness.
fn journal_progress(service: &Service, id: &str, checkpoint: &Checkpoint) {
    let enospc = {
        let mut state = service.state.lock().expect("state lock");
        match state.chaos_progress_fail.as_mut() {
            Some(0) => true,
            Some(remaining) => {
                *remaining -= 1;
                false
            }
            None => false,
        }
    };
    if enospc {
        service.checkpointing.store(false, Ordering::Release);
        eprintln!(
            "warning: progress append for {id} failed (injected ENOSPC); \
             checkpointing disabled, job continues"
        );
        return;
    }
    let mut checkpoint = checkpoint.clone();
    if service.config.chaos_corrupt_checkpoint
        && service.progress_appends.fetch_add(1, Ordering::AcqRel) % 2 == 1
    {
        // An implausible record (more failures than shots): replay must
        // discard it and fall back to the previous checkpoint.
        checkpoint.failures = checkpoint.shots + 1;
    }
    let record = WalRecord::Progress {
        id: id.to_owned(),
        checkpoint,
    };
    match service.commit.append_sync(record) {
        Ok(()) => {}
        Err(CommitError::Rejected(detail)) => {
            eprintln!("warning: progress record for {id} rejected: {detail}");
        }
        Err(e) => {
            service.checkpointing.store(false, Ordering::Release);
            eprintln!(
                "warning: progress append for {id} failed ({e}); \
                 checkpointing disabled, job continues"
            );
        }
    }
}

/// Executes one round as one supervised run on the process's executor
/// and folds the results back into the service state. Each job carries
/// its own deadline: the job polls it, and the run stops waiting for
/// that job alone once it passes.
fn run_round(service: &Arc<Service>, round: Vec<RoundJob>) {
    let specs: Vec<BatchSpec> = round
        .iter()
        .map(|job| BatchSpec {
            key: job.id.clone(),
            point: job.id.clone(),
            batch: 0,
            shots: 1,
            deadline: job.deadline,
        })
        .collect();
    let supervisor_config = SupervisorConfig {
        jobs: service.config.jobs.max(1),
        watchdog: Duration::from_millis(service.config.watchdog_ms),
        // The daemon owns retries (each is journaled as its own
        // dispatch); the run executes each attempt exactly once.
        max_attempts: 1,
        backoff: Duration::from_millis(10),
        max_replacements: service.config.jobs.max(1),
        base_seed: service.config.base_seed,
        redundancy: 0,
    };

    let stall = service.config.chaos_stall;
    let tasks: Vec<(String, JobKind, Option<Checkpoint>)> = round
        .iter()
        .map(|j| (j.id.clone(), j.kind, j.resume.clone()))
        .collect();
    let job = {
        let service = Arc::clone(service);
        let journal_every = service.config.progress_batches;
        move |ctx: &BatchCtx| -> Result<String, ShotError> {
            let (id, kind, resume) = &tasks[ctx.task];
            if !stall.is_zero() {
                thread::sleep(stall);
            }
            // Per-batch sink: publish the checkpoint live (the
            // `progress` query and the deadline's `Partial` both read
            // `entry.progress`), then journal every `progress_batches`
            // batches so a crash resumes from a bounded distance back.
            let mut on_batch = |cp: &Checkpoint| {
                {
                    let mut state = service.state.lock().expect("state lock");
                    state.stats.batches += 1;
                    if let Some(entry) = state.jobs.get_mut(id) {
                        entry.progress = Some(cp.clone());
                    }
                }
                if journal_every > 0
                    && cp.batches.is_multiple_of(journal_every)
                    && service.checkpointing_on()
                {
                    journal_progress(&service, id, cp);
                }
            };
            match execute_tracked(
                kind,
                kind.backend(),
                ctx.seed,
                &ctx.cancel,
                resume.as_ref(),
                &mut on_batch,
            )? {
                Execution::Done(record) => Ok(record),
                Execution::Stopped { checkpoint, reason } => {
                    // Keep the final prefix visible even for kinds that
                    // checkpoint only at the stop itself (scalar LER):
                    // the deadline fold-back turns it into a `Partial`.
                    if let Some(cp) = checkpoint {
                        let mut state = service.state.lock().expect("state lock");
                        if let Some(entry) = state.jobs.get_mut(id) {
                            entry.progress = Some(cp);
                        }
                    }
                    Err(ShotError::Cancelled { reason })
                }
            }
        }
    };
    let report = run_supervised(&supervisor_config, specs, job, None, &CancelToken::new());

    let now = Instant::now();
    let mut quarantined: HashMap<usize, (String, bool)> = report
        .quarantined
        .into_iter()
        .map(|q| (q.task, (q.error, q.cancelled)))
        .collect();
    // Fold results back in two phases: decide and claim every terminal
    // under the state lock, then journal the claimed records with the
    // lock dropped (group commit can take a full straggler interval +
    // fsync, and admissions must not stall behind it).
    let mut terminals: Vec<(String, JobOutcome)> = Vec::new();
    let mut state = service.state.lock().expect("state lock");
    for (task, job) in round.into_iter().enumerate() {
        match report.results.get(task).and_then(Option::as_ref) {
            Some(record) => {
                let outcome = JobOutcome::Done(record.clone());
                if terminal_begin(&mut state, &job.id, &outcome) {
                    terminals.push((job.id, outcome));
                }
            }
            None => {
                // The supervisor types cancellation at quarantine time
                // (from the `ShotError::Cancelled` variant, never the
                // message text), so a backend error that merely
                // *mentions* cancellation cannot masquerade as one.
                let (error, cancelled) = quarantined
                    .remove(&task)
                    .unwrap_or_else(|| ("worker pool lost the job".to_owned(), false));
                if cancelled || job.deadline.is_some_and(|d| d <= now) {
                    let entry = state.jobs.get(&job.id).expect("round job exists");
                    let outcome = deadline_outcome(entry);
                    if terminal_begin(&mut state, &job.id, &outcome) {
                        terminals.push((job.id, outcome));
                    }
                    continue;
                }
                let entry = state.jobs.get_mut(&job.id).expect("round job exists");
                entry.attempts += 1;
                if entry.attempts >= service.config.max_job_attempts {
                    let outcome =
                        JobOutcome::Failed(format!("{error} (after {} attempts)", entry.attempts));
                    if terminal_begin(&mut state, &job.id, &outcome) {
                        terminals.push((job.id, outcome));
                    }
                } else {
                    requeue_front(&mut state, &job.id);
                }
            }
        }
    }
    // `running` drops before the terminals land, but a drain still
    // waits: the claims sit in `pending_terminals` until finished.
    state.running = 0;
    drop(state);
    let _ = journal_terminals(service, terminals);
    service.wake.notify_all();
}

fn requeue_front(state: &mut ServiceState, id: &str) {
    let entry = state.jobs.get_mut(id).expect("round job exists");
    entry.state = JobState::Queued;
    state.queue.push_front(id.to_owned());
}

/// Claims the terminal transition for `id` under the state lock.
///
/// The terminal transition is serialized here: the first outcome to
/// claim wins — whether it is already journaled, parked awaiting a
/// journal retry, or in flight to the commit thread — and any later,
/// different one for the same id is dropped before it can touch the
/// journal. This is what keeps a deadline firing mid-drain from
/// double-reporting a job — the deadline path and the completion path
/// may both compute a terminal, but exactly one terminal record ever
/// lands.
///
/// Returns whether the caller now owns journaling this outcome: it
/// must append the record (off the state lock) and route the result
/// through [`terminal_finish`] exactly once, or the claim leaks and a
/// drain waits on it forever.
fn terminal_begin(state: &mut ServiceState, id: &str, outcome: &JobOutcome) -> bool {
    if state.pending_terminals.contains(id) {
        // An identical append is already in flight (a journal retry
        // claimed it this pass); don't double-journal.
        return false;
    }
    let entry = state.jobs.get(id).expect("terminal job exists");
    if matches!(
        entry.state,
        JobState::Done(_) | JobState::Failed(_) | JobState::Partial(_)
    ) {
        // A terminal already won (and is already journaled).
        return false;
    }
    if let Some(parked) = &entry.pending_outcome {
        if parked != outcome {
            // A different terminal is parked awaiting its journal
            // retry: it was first, so it wins; this one is dropped.
            return false;
        }
    }
    state.pending_terminals.insert(id.to_owned());
    true
}

/// Appends every claimed terminal record (no lock held across the
/// group-commit waits), then folds the results back in. Returns
/// whether every append landed — `false` tells the dispatcher to back
/// off instead of spinning on a failing journal.
fn journal_terminals(service: &Service, terminals: Vec<(String, JobOutcome)>) -> bool {
    if terminals.is_empty() {
        return true;
    }
    let appends: Vec<_> = terminals
        .into_iter()
        .map(|(id, outcome)| {
            let append = service.commit.append_sync(WalRecord::Complete {
                id: id.clone(),
                outcome: outcome.clone(),
            });
            (id, outcome, append)
        })
        .collect();
    let mut all_ok = true;
    let mut state = service.state.lock().expect("state lock");
    for (id, outcome, append) in appends {
        all_ok &= terminal_finish(&mut state, &id, outcome, append);
    }
    drop(state);
    // Query waiters (result now visible) and drain waiters (a claim
    // resolved) both need the wake.
    service.wake.notify_all();
    all_ok
}

/// Releases a [`terminal_begin`] claim with its append result: once
/// durable the result becomes queryable (WAL-before-result). If the
/// append failed, the computed outcome is parked on the entry and the
/// job requeued: the dispatcher retries the *same* append rather than
/// re-executing, so even when the failed write's bytes did reach disk,
/// the retry can only produce a byte-identical duplicate record —
/// which recovery absorbs — never a conflicting terminal that would
/// brick the next restart.
fn terminal_finish(
    state: &mut ServiceState,
    id: &str,
    outcome: JobOutcome,
    append: Result<(), CommitError>,
) -> bool {
    state.pending_terminals.remove(id);
    if let Err(e) = append {
        eprintln!("warning: journal complete record failed for {id}: {e}");
        let entry = state.jobs.get_mut(id).expect("completed job exists");
        entry.pending_outcome = Some(outcome);
        requeue_front(state, id);
        return false;
    }
    let entry = state.jobs.get_mut(id).expect("completed job exists");
    entry.pending_outcome = None;
    match outcome {
        JobOutcome::Done(record) => {
            entry.state = JobState::Done(record);
            state.stats.completed += 1;
        }
        JobOutcome::Failed(error) => {
            entry.state = JobState::Failed(error);
            state.stats.failed += 1;
        }
        JobOutcome::Partial(detail) => {
            entry.state = JobState::Partial(detail);
            state.stats.partials += 1;
        }
    }
    true
}
