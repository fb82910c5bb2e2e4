//! Group commit for the write-ahead journal (`DESIGN.md` §12.2).
//!
//! The daemon never fsyncs the journal inline. Every append — an
//! admission's `accept`, a dispatch trace, a terminal record — is
//! enqueued to a dedicated commit thread that batches up to
//! [`commit_batch`](crate::daemon::DaemonConfig::commit_batch) records
//! per fsync (gathering stragglers for at most
//! [`commit_interval_us`](crate::daemon::DaemonConfig::commit_interval_us)),
//! writes them with [`WriteAheadLog::write_unsynced`], syncs **once**,
//! and only then reports success. WAL-before-ack survives batching
//! because the ack waits for the batch's sync, not merely the write.
//!
//! Failure taxonomy (the part the fleet router's safety argument leans
//! on):
//!
//! - **Rejected** — journal validation refused the record before any
//!   byte reached disk (conflicting terminal, pruned id, unknown id).
//!   Per-record; the batch and the daemon carry on.
//! - **Unsynced** — a write or the batch fsync failed. Durability of
//!   the record is *unknown* (its bytes may be in the segment), so the
//!   corresponding job id is ambiguous forever: the daemon answers its
//!   resubmits with the `journal` code, which the router must park.
//! - **Degraded** — the journal already failed a commit before this
//!   record was written. Nothing of it reached disk, so the daemon may
//!   answer with the post-dedup `degraded` code and a router may safely
//!   fail the job over to another member.
//!
//! Once any commit fails, the latch flips and never resets: a daemon
//! that cannot promise durability refuses all new work until an
//! operator restarts it on a healthy disk. Acking unsynced bytes is the
//! one unforgivable failure mode.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::wal::{WalRecord, WriteAheadLog};

/// Why an append did not commit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitError {
    /// Journal validation refused the record; no byte reached disk.
    Rejected(String),
    /// A write or fsync failed mid-commit: durability unknown. The
    /// journal is degraded from here on.
    Unsynced(String),
    /// The journal was already degraded; the record was never written.
    Degraded(String),
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::Rejected(m) | CommitError::Unsynced(m) | CommitError::Degraded(m) => {
                write!(f, "{m}")
            }
        }
    }
}

/// A completed asynchronous append (see [`GroupCommit::append_async`]).
#[derive(Debug)]
pub struct Completion {
    /// The token `append_async` returned.
    pub token: u64,
    /// The commit result.
    pub result: Result<(), CommitError>,
}

/// A wakeup hook the commit thread calls after queuing async
/// completions (the event loop parks on a condvar between passes; this
/// is what nudges it).
pub type CommitWaker = Arc<dyn Fn() + Send + Sync>;

enum Waiter {
    Sync(mpsc::Sender<Result<(), CommitError>>),
    Async(u64),
}

struct Pending {
    record: WalRecord,
    waiter: Waiter,
}

struct CommitQueue {
    pending: VecDeque<Pending>,
    completions: Vec<Completion>,
    next_token: u64,
    shutdown: bool,
    waker: Option<CommitWaker>,
}

struct Shared {
    wal: Mutex<WriteAheadLog>,
    queue: Mutex<CommitQueue>,
    /// Signals the commit thread: work arrived or shutdown requested.
    work: Condvar,
    /// Set once, never cleared: a commit failed, refuse all new work.
    degraded: AtomicBool,
}

/// Handle to the group-commit thread. Dropping it drains the queue and
/// joins the thread.
pub struct GroupCommit {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl GroupCommit {
    /// Takes ownership of the journal and spawns the commit thread.
    /// `batch` bounds records per fsync (min 1); `interval` is how long
    /// an under-full batch waits for stragglers (zero = commit
    /// immediately, i.e. fsync-per-record when submissions are serial).
    #[must_use]
    pub fn spawn(wal: WriteAheadLog, batch: usize, interval: Duration) -> Self {
        let shared = Arc::new(Shared {
            wal: Mutex::new(wal),
            queue: Mutex::new(CommitQueue {
                pending: VecDeque::new(),
                completions: Vec::new(),
                next_token: 0,
                shutdown: false,
                waker: None,
            }),
            work: Condvar::new(),
            degraded: AtomicBool::new(false),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || commit_loop(&shared, batch.max(1), interval))
        };
        GroupCommit {
            shared,
            thread: Some(thread),
        }
    }

    /// Whether a commit has failed (latched; never resets).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.shared.degraded.load(Ordering::Acquire)
    }

    /// Whether `id` belongs to a terminal job pruned by retention.
    #[must_use]
    pub fn was_pruned(&self, id: &str) -> bool {
        self.shared.wal.lock().expect("wal lock").was_pruned(id)
    }

    /// Registers the event loop's wakeup hook (replacing any previous
    /// one): called after async completions are queued.
    pub fn set_waker(&self, waker: CommitWaker) {
        self.shared.queue.lock().expect("commit queue").waker = Some(waker);
    }

    /// Enqueues one record and blocks until its batch commits. When
    /// this returns `Ok`, the record is durable.
    ///
    /// # Errors
    ///
    /// See [`CommitError`].
    pub fn append_sync(&self, record: WalRecord) -> Result<(), CommitError> {
        let (tx, rx) = mpsc::channel();
        self.enqueue(record, Waiter::Sync(tx))?;
        rx.recv().unwrap_or_else(|_| {
            Err(CommitError::Unsynced(
                "commit thread exited mid-append".to_owned(),
            ))
        })
    }

    /// Enqueues one record without blocking; the result arrives later
    /// through [`take_completions`](Self::take_completions) under the
    /// returned token. The record must not be acked until then.
    ///
    /// # Errors
    ///
    /// Fails fast (without enqueueing) when the journal is degraded or
    /// shutting down.
    pub fn append_async(&self, record: WalRecord) -> Result<u64, CommitError> {
        let mut token = 0;
        self.enqueue_with(record, |queue| {
            token = queue.next_token;
            queue.next_token += 1;
            Waiter::Async(token)
        })?;
        Ok(token)
    }

    /// Drains the async completions queued since the last call.
    #[must_use]
    pub fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut self.shared.queue.lock().expect("commit queue").completions)
    }

    fn enqueue(&self, record: WalRecord, waiter: Waiter) -> Result<(), CommitError> {
        self.enqueue_with(record, |_| waiter)
    }

    fn enqueue_with(
        &self,
        record: WalRecord,
        make_waiter: impl FnOnce(&mut CommitQueue) -> Waiter,
    ) -> Result<(), CommitError> {
        if self.is_degraded() {
            return Err(CommitError::Degraded(
                "journal degraded: a commit fsync failed; restart the daemon".to_owned(),
            ));
        }
        let mut queue = self.shared.queue.lock().expect("commit queue");
        if queue.shutdown {
            return Err(CommitError::Degraded(
                "commit thread is shutting down".to_owned(),
            ));
        }
        let waiter = make_waiter(&mut queue);
        queue.pending.push_back(Pending { record, waiter });
        self.shared.work.notify_all();
        Ok(())
    }
}

impl Drop for GroupCommit {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("commit queue");
            queue.shutdown = true;
            self.shared.work.notify_all();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn commit_loop(shared: &Shared, batch_max: usize, interval: Duration) {
    loop {
        let batch: Vec<Pending> = {
            let mut queue = shared.queue.lock().expect("commit queue");
            loop {
                if !queue.pending.is_empty() {
                    break;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.work.wait(queue).expect("commit queue");
            }
            // Group commit: an under-full batch waits once, briefly,
            // for stragglers — amortizing the fsync without stalling a
            // lone record behind a full interval under light load more
            // than `interval`.
            if queue.pending.len() < batch_max && !interval.is_zero() && !queue.shutdown {
                let (q, _) = shared
                    .work
                    .wait_timeout(queue, interval)
                    .expect("commit queue");
                queue = q;
            }
            let take = queue.pending.len().min(batch_max);
            queue.pending.drain(..take).collect()
        };

        // Write every record, then sync once — off the queue lock, so
        // admissions keep queueing behind the in-flight batch.
        let mut results: Vec<Result<(), CommitError>> = Vec::with_capacity(batch.len());
        let mut failed: Option<String> = None;
        if shared.degraded.load(Ordering::Acquire) {
            // A record enqueued between its enqueue-side degraded check
            // and the latch flipping survives the failing iteration's
            // pending-queue drain; it lands here on a later pass. The
            // journal is degraded, so nothing of it may be written.
            let message = "journal degraded: a commit fsync failed; restart the daemon".to_owned();
            for _ in &batch {
                results.push(Err(CommitError::Degraded(message.clone())));
            }
            failed = Some(message);
        } else {
            let mut wal = shared.wal.lock().expect("wal lock");
            let mut wrote = false;
            for pending in &batch {
                if failed.is_some() {
                    // Past the failure point nothing is written, so
                    // these records provably left no bytes: Degraded,
                    // not Unsynced.
                    results.push(Err(CommitError::Degraded(
                        "journal degraded mid-batch; record not written".to_owned(),
                    )));
                    continue;
                }
                if let Err(e) = wal.validate(&pending.record) {
                    results.push(Err(CommitError::Rejected(e.to_string())));
                    continue;
                }
                match wal.write_unsynced(&pending.record) {
                    Ok(()) => {
                        wrote = true;
                        results.push(Ok(()));
                    }
                    Err(e) => {
                        let message = format!("journal write failed: {e}");
                        results.push(Err(CommitError::Unsynced(message.clone())));
                        failed = Some(message);
                    }
                }
            }
            // Sync whatever reached the segment — including the prefix
            // written before a mid-batch write failure. Those waiters'
            // Ok results stand only if their bytes actually sync; the
            // degraded latch guarantees no later batch would ever flush
            // them. If this sync fails too, every written record's
            // durability is unknown.
            if wrote {
                if let Err(e) = wal.sync() {
                    let message = format!("journal sync failed: {e}");
                    for result in &mut results {
                        if result.is_ok() {
                            *result = Err(CommitError::Unsynced(message.clone()));
                        }
                    }
                    if failed.is_none() {
                        failed = Some(message);
                    }
                }
            }
        }
        if failed.is_some() {
            shared.degraded.store(true, Ordering::Release);
        }

        // Deliver, and on degradation fail everything still queued —
        // those records were never written, so they get Degraded.
        let mut queue = shared.queue.lock().expect("commit queue");
        let mut drained: Vec<Pending> = Vec::new();
        if failed.is_some() {
            drained = queue.pending.drain(..).collect();
        }
        let mut woke_async = false;
        for (pending, result) in batch
            .into_iter()
            .zip(results)
            .chain(drained.into_iter().map(|p| {
                (
                    p,
                    Err(CommitError::Degraded(
                        "journal degraded: a commit fsync failed; restart the daemon".to_owned(),
                    )),
                )
            }))
        {
            match pending.waiter {
                Waiter::Sync(tx) => {
                    let _ = tx.send(result);
                }
                Waiter::Async(token) => {
                    queue.completions.push(Completion { token, result });
                    woke_async = true;
                }
            }
        }
        if woke_async {
            if let Some(waker) = &queue.waker {
                waker();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobKind, JobSpec};
    use crate::wal::{recover, JobOutcome};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qpdo-commit-{tag}-{}", std::process::id()));
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
    fn sync_appends_are_durable_when_acked() {
        let dir = tmp_dir("sync");
        let (wal, _) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
        let commit = GroupCommit::spawn(wal, 8, Duration::from_micros(200));
        for i in 0..10 {
            commit
                .append_sync(WalRecord::Accept(spec(&format!("s-{i}"))))
                .unwrap();
        }
        commit
            .append_sync(WalRecord::Complete {
                id: "s-0".to_owned(),
                outcome: JobOutcome::Done("1".to_owned()),
            })
            .unwrap();
        drop(commit);
        let recovery = recover(&dir).unwrap();
        assert!(recovery.is_consistent());
        assert_eq!(recovery.jobs().len(), 10);
        assert_eq!(
            recovery.jobs()[0].outcome,
            Some(JobOutcome::Done("1".to_owned()))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_share_fsyncs() {
        let dir = tmp_dir("batched");
        let (wal, _) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
        let commit = Arc::new(GroupCommit::spawn(wal, 64, Duration::from_millis(2)));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let commit = Arc::clone(&commit);
                std::thread::spawn(move || {
                    for i in 0..16 {
                        commit
                            .append_sync(WalRecord::Accept(spec(&format!("c-{t}-{i}"))))
                            .unwrap();
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let commit = Arc::into_inner(commit).expect("sole owner");
        drop(commit);
        let recovery = recover(&dir).unwrap();
        assert!(recovery.is_consistent());
        assert_eq!(recovery.jobs().len(), 64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn async_appends_complete_with_tokens_and_wake_the_waker() {
        let dir = tmp_dir("async");
        let (wal, _) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
        let commit = GroupCommit::spawn(wal, 8, Duration::from_micros(100));
        let woke = Arc::new(AtomicBool::new(false));
        {
            let woke = Arc::clone(&woke);
            commit.set_waker(Arc::new(move || woke.store(true, Ordering::Release)));
        }
        let t0 = commit.append_async(WalRecord::Accept(spec("a-0"))).unwrap();
        let t1 = commit.append_async(WalRecord::Accept(spec("a-1"))).unwrap();
        assert_ne!(t0, t1);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut done = Vec::new();
        while done.len() < 2 {
            done.extend(commit.take_completions());
            assert!(std::time::Instant::now() < deadline, "completions late");
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(woke.load(Ordering::Acquire), "waker never called");
        for completion in &done {
            assert!(completion.result.is_ok(), "{:?}", completion.result);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_records_fail_individually_without_degrading() {
        let dir = tmp_dir("reject");
        let (wal, _) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
        let commit = GroupCommit::spawn(wal, 8, Duration::from_micros(100));
        commit.append_sync(WalRecord::Accept(spec("r-0"))).unwrap();
        commit
            .append_sync(WalRecord::Complete {
                id: "r-0".to_owned(),
                outcome: JobOutcome::Done("1".to_owned()),
            })
            .unwrap();
        // A conflicting terminal is refused per-record...
        let err = commit
            .append_sync(WalRecord::Complete {
                id: "r-0".to_owned(),
                outcome: JobOutcome::Failed("boom".to_owned()),
            })
            .unwrap_err();
        assert!(matches!(err, CommitError::Rejected(_)), "{err:?}");
        // ...and the journal keeps serving.
        assert!(!commit.is_degraded());
        commit.append_sync(WalRecord::Accept(spec("r-1"))).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_batch_write_failure_never_acks_unsynced_bytes() {
        let dir = tmp_dir("write-fail");
        let (mut wal, _) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
        wal.set_fail_write_after(Some(1));
        let commit = GroupCommit::spawn(wal, 8, Duration::from_millis(200));
        // Three appends back-to-back: however the commit thread batches
        // them, the second write fails. The written prefix (w-0) must
        // only keep its Ok if its bytes are synced — a mid-batch write
        // failure must not skip the prefix fsync and ack anyway.
        let mut tokens = Vec::new();
        for i in 0..3 {
            match commit.append_async(WalRecord::Accept(spec(&format!("w-{i}")))) {
                Ok(token) => tokens.push((token, format!("w-{i}"))),
                // The degraded latch can flip before a later enqueue.
                Err(e) => assert!(matches!(e, CommitError::Degraded(_)), "{e:?}"),
            }
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut done = Vec::new();
        while done.len() < tokens.len() {
            done.extend(commit.take_completions());
            assert!(std::time::Instant::now() < deadline, "completions late");
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(commit.is_degraded());
        // w-0's write and prefix sync both succeed: durable, acked.
        let first = done.iter().find(|c| c.token == tokens[0].0).unwrap();
        assert!(first.result.is_ok(), "{:?}", first.result);
        // w-1's write failed: ambiguous forever, never Ok.
        if let Some((token, _)) = tokens.get(1) {
            let second = done.iter().find(|c| c.token == *token).unwrap();
            assert!(
                matches!(second.result, Err(CommitError::Unsynced(_))),
                "{:?}",
                second.result
            );
        }
        drop(commit);
        let recovery = recover(&dir).unwrap();
        assert!(recovery.is_consistent());
        // The WAL-before-ack invariant: every Ok'd record is on disk.
        for (token, id) in &tokens {
            let acked = done.iter().any(|c| c.token == *token && c.result.is_ok());
            if acked {
                assert!(
                    recovery.jobs().iter().any(|j| j.spec.id == *id),
                    "acked {id} lost"
                );
            }
        }
        assert!(recovery.jobs().iter().any(|j| j.spec.id == "w-0"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_failure_with_failing_prefix_sync_downgrades_every_ack() {
        let dir = tmp_dir("write-sync-fail");
        let (mut wal, _) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
        wal.set_fail_write_after(Some(1));
        wal.set_fail_sync_after(Some(0));
        let commit = GroupCommit::spawn(wal, 8, Duration::from_millis(200));
        let mut tokens = Vec::new();
        for i in 0..3 {
            match commit.append_async(WalRecord::Accept(spec(&format!("x-{i}")))) {
                Ok(token) => tokens.push(token),
                Err(e) => assert!(matches!(e, CommitError::Degraded(_)), "{e:?}"),
            }
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut done = Vec::new();
        while done.len() < tokens.len() {
            done.extend(commit.take_completions());
            assert!(std::time::Instant::now() < deadline, "completions late");
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(commit.is_degraded());
        // The prefix sync failed too: nothing may be acked, and the
        // written-but-unsynced prefix is Unsynced, not Ok.
        for completion in &done {
            assert!(completion.result.is_err(), "{completion:?}");
        }
        let first = done.iter().find(|c| c.token == tokens[0]).unwrap();
        assert!(
            matches!(first.result, Err(CommitError::Unsynced(_))),
            "{:?}",
            first.result
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_failure_degrades_and_latches() {
        let dir = tmp_dir("degrade");
        let (mut wal, _) = WriteAheadLog::open(&dir, 1 << 20).unwrap();
        wal.set_fail_sync_after(Some(1));
        let commit = GroupCommit::spawn(wal, 8, Duration::from_micros(100));
        commit.append_sync(WalRecord::Accept(spec("d-0"))).unwrap();
        // The next commit's fsync fails: the in-flight record is
        // ambiguous (Unsynced)...
        let err = commit
            .append_sync(WalRecord::Accept(spec("d-1")))
            .unwrap_err();
        assert!(matches!(err, CommitError::Unsynced(_)), "{err:?}");
        assert!(commit.is_degraded());
        // ...and everything after is refused before it is written.
        let err = commit
            .append_sync(WalRecord::Accept(spec("d-2")))
            .unwrap_err();
        assert!(matches!(err, CommitError::Degraded(_)), "{err:?}");
        drop(commit);
        // The journal on disk is still a consistent prefix: d-0 acked
        // and durable, d-1 unacked (present or torn, both fine), d-2
        // provably absent.
        let recovery = recover(&dir).unwrap();
        assert!(recovery.is_consistent());
        assert!(recovery.jobs().iter().any(|j| j.spec.id == "d-0"));
        assert!(recovery.jobs().iter().all(|j| j.spec.id != "d-2"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
