//! One batch executor per process (`DESIGN.md` §7).
//!
//! Every sweep here is a list of batches, each a pure function of the
//! run's seed and its own index, so a batch gives the same output on
//! any thread and after any rerun. A run's batches execute on the
//! calling thread and on the helpers of one process-wide pool of parked
//! threads ([`Executor::global`]), and the caller takes their outputs
//! strictly in index order:
//!
//! - **Helpers** are spawned once per process: one per core beyond the
//!   first (at least one), and more, up to one per core, when a run
//!   that only watches its helpers finds none idle. Before each batch
//!   it commits, a run recruits whichever helpers are idle, up to its
//!   cap, so concurrent runs share the cores by busy threads. A helper
//!   leaves a run once the run has no batch left to claim.
//! - **Claims and posts.** Batches are claimed by sequence number from
//!   one counter that only grows, at most 128 past the next batch
//!   to commit, and each output is posted to a ring slot tagged with
//!   its sequence number, so a post that comes too late is ignored.
//! - **Rescue.** A batch that does not come in time is resolved by the
//!   caller, which reruns it itself; a helper that stays lost can be
//!   replaced, up to the pool's bound.
//! - **No waiting on oneself.** A run recruits only idle helpers, so a
//!   run started on a helper (a nested run) never waits on its own
//!   thread; with no helper idle it runs every batch itself.
//!
//! The cancel poll ([`CancelToken`]), the seed substreams batches draw
//! from, and the caps on the `--jobs` and millisecond flags that size
//! and time runs live here too.

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use qpdo_rng::{RngCore, SplitMix64};
use qpdo_stabilizer::LANES;

/// A cooperative cancel poll: a flag anyone holding a clone may raise,
/// plus an optional deadline from which the token reads cancelled by
/// itself. Clones share the flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, uncancelled token without a deadline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent and thread-safe.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation was requested or the deadline has passed.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// This token with `deadline` too: it shares the flag and reads
    /// cancelled from the earlier of the two deadlines on.
    #[must_use]
    pub fn with_deadline(&self, deadline: Option<Instant>) -> Self {
        CancelToken {
            flag: Arc::clone(&self.flag),
            deadline: self.deadline.into_iter().chain(deadline).min(),
        }
    }

    /// When the token cancels itself, if ever.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// The deterministic RNG substream for (`point`, `batch`, `attempt`)
/// under `base`: an FNV-1a hash of the point name folded into the base
/// seed and mixed with the batch and attempt indices through SplitMix64
/// finalization rounds. Distinct inputs give independent streams; the
/// same inputs always give the same stream.
#[must_use]
pub fn substream_seed(base: u64, point: &str, batch: u64, attempt: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in point.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let s = splitmix64(base ^ splitmix64(h));
    splitmix64(splitmix64(s ^ batch) ^ u64::from(attempt))
}

/// One SplitMix64 output from state `x`.
pub(crate) fn splitmix64(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// Rounds a requested shot count up to a whole number of shot-sliced
/// batches of [`LANES`] trajectories. Zero stays zero — an empty sweep
/// point never fabricates work.
#[must_use]
pub fn round_up_to_lanes(shots: u64) -> u64 {
    shots.div_ceil(LANES as u64) * LANES as u64
}

/// The per-lane seeds of shot-sliced batch `batch`: lane `k` gets the
/// substream of scalar shot index `batch * LANES + k`, so a sliced
/// batch covers exactly the shots `batch*64 .. batch*64+63` of the
/// scalar numbering and every lane is byte-identical to the scalar
/// shot it replaces. Retrying a batch reuses the same seeds.
#[must_use]
pub fn sliced_lane_seeds(base: u64, point: &str, batch: u64) -> [u64; LANES] {
    core::array::from_fn(|k| substream_seed(base, point, batch * LANES as u64 + k as u64, 0))
}

/// Ring slots: how many batches past the next one to commit the
/// threads of a run may claim.
const RING: usize = 2 * LANES;

/// Upper bound accepted for `--jobs` (the experiment binaries' and the
/// daemon's), a sanity cap on the flag only: the pool bounds the
/// helpers a run may use, whatever `--jobs` says.
pub const MAX_JOBS: usize = 4096;

/// Upper bound accepted for millisecond flags (watchdogs, deadlines,
/// timeouts): one day. Larger values are almost certainly a units
/// mistake (seconds or nanoseconds pasted into a ms flag).
pub const MAX_MS_FLAG: u64 = 86_400_000;

/// The host's cores, asked once per process, up to 32: a run that works
/// beside its helpers keeps every core busy with `cores() - 1` of them,
/// a run that only watches them with `cores()`.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get().min(32)))
}

/// The batches of one run as its helpers see them. A clone is posted
/// for the run; each recruited helper calls [`work`](Self::work) once.
pub trait Batches: Clone + Send + Sync + 'static {
    /// What one batch gives the committing thread.
    type Output: Send + 'static;

    /// Runs every batch `claims` hands out, posting each output, until
    /// it hands out no more. Per-thread set-up goes before the first
    /// claim: the run waits for its helpers to get that far.
    fn work(&self, claims: &mut Claims<'_, Self>);
}

/// The process's parked helper threads.
pub struct Executor {
    helpers: Box<[Helper]>,
    /// Slots `..spawned` hold a live thread.
    spawned: AtomicUsize,
    /// Serialises spawns, so the slots fill in order.
    growth: Mutex<()>,
    tickets: AtomicU64,
}

#[derive(Default)]
struct Helper {
    /// 0 while idle, else the ticket of the run it was recruited to.
    serving: AtomicU64,
    /// Whether it holds a claimed batch it has not posted yet.
    in_batch: AtomicBool,
    mailbox: Mutex<Option<Arc<dyn Help>>>,
    thread: OnceLock<Thread>,
}

/// A run, type-erased for the helper that serves it.
trait Help: Send + Sync {
    fn help(&self, me: &Helper);
}

impl Executor {
    /// The process's executor: one helper per core beyond the first (at
    /// least one), spawned on first use, and room for as many again (at
    /// least four in all) for watching runs and lost helpers.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<&'static Executor> = OnceLock::new();
        GLOBAL.get_or_init(|| Executor::start((cores() - 1).max(1)))
    }

    /// A pool with `helpers` helpers spawned and room for as many again
    /// (at least four in all), living as long as the process. Its threads
    /// are never joined.
    fn start(helpers: usize) -> &'static Executor {
        let executor: &'static Executor = Box::leak(Box::new(Executor {
            helpers: (0..2 * helpers.max(2)).map(|_| Helper::default()).collect(),
            spawned: AtomicUsize::new(0),
            growth: Mutex::new(()),
            tickets: AtomicU64::new(1),
        }));
        for _ in 0..helpers {
            executor.grow();
        }
        executor
    }

    /// The most helper threads the pool will ever hold.
    #[must_use]
    pub fn bound(&self) -> usize {
        self.helpers.len()
    }

    /// Spawns one more helper unless the pool is at its bound; if the
    /// system refuses the thread, the pool stays smaller.
    fn grow(&'static self) -> bool {
        let _guard = self.growth.lock().unwrap_or_else(PoisonError::into_inner);
        let index = self.spawned.load(Ordering::Acquire);
        let Some(helper) = self.helpers.get(index) else {
            return false;
        };
        let spawned = thread::Builder::new()
            .name(format!("qpdo-helper-{index}"))
            .spawn(move || self.serve(index));
        let Ok(handle) = spawned else {
            return false;
        };
        let _ = helper.thread.set(handle.thread().clone());
        self.spawned.store(index + 1, Ordering::Release);
        true
    }

    /// Helper thread `index`: parks until recruited, then serves its
    /// run, for ever. A batch that panics here panics again when the
    /// caller reruns it, so the helper swallows it and lives on.
    fn serve(&self, index: usize) {
        let me = &self.helpers[index];
        loop {
            let run = me
                .mailbox
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            let Some(run) = run else {
                thread::park();
                continue;
            };
            let _ = panic::catch_unwind(AssertUnwindSafe(|| run.help(me)));
            drop(run);
            me.in_batch.store(false, Ordering::Release);
            me.serving.store(0, Ordering::Release);
        }
    }

    /// Recruits up to `want` idle helpers to `run` under `ticket`,
    /// marking helper `i` in bit `i` of `recruited`.
    fn recruit<B: Batches>(
        &self,
        run: &Arc<Run<B>>,
        ticket: u64,
        want: usize,
        recruited: &mut u64,
    ) {
        let spawned = self.spawned.load(Ordering::Acquire);
        let mut left = want;
        for (i, helper) in self.helpers[..spawned].iter().enumerate() {
            if left == 0 {
                return;
            }
            if helper.serving.load(Ordering::Relaxed) == 0
                && (helper.serving)
                    .compare_exchange(0, ticket, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                *helper
                    .mailbox
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) =
                    Some(Arc::clone(run) as Arc<dyn Help>);
                if let Some(thread) = helper.thread.get() {
                    thread.unpark();
                }
                *recruited |= 1 << i;
                left -= 1;
            }
        }
    }

    /// Opens batches `range` of `batches` on `run`, for the calling
    /// thread and up to `helpers` helpers. With `works`, the caller
    /// claims batches beside its helpers; without, it only commits and
    /// watches, and claims batches once it has no live helper.
    pub fn fan<'r, B: Batches>(
        &'static self,
        run: &'r Arc<Run<B>>,
        batches: B,
        range: Range<u64>,
        helpers: usize,
        works: bool,
    ) -> Fan<'r, B> {
        // Every earlier run on `run` closed its numbers, so nothing moves
        // `next` while no run is open on it.
        let start = run.next.load(Ordering::Relaxed);
        let posted = Posted {
            batches,
            first: range.start,
            start,
            end: start + (range.end - range.start),
        };
        run.frontier.store(start, Ordering::Relaxed);
        *run.caller.lock().unwrap_or_else(PoisonError::into_inner) = Some(thread::current());
        *run.posted.lock().unwrap_or_else(PoisonError::into_inner) = Some(posted.clone());
        Fan {
            executor: self,
            run,
            posted,
            ticket: self.tickets.fetch_add(1, Ordering::Relaxed),
            cap: helpers,
            recruited: 0,
            lost: 0,
            works,
            per_batch: Duration::from_millis(1),
        }
    }
}

/// The shared state of a run: where its caller and helpers meet. It
/// can serve one run after another (the surface sweep keeps one per
/// thread), since sequence numbers only grow.
///
/// Orderings: the posted run is read and written under its mutex. The
/// caller takes a slot (`Acquire`) before it moves `frontier` past it
/// (`Release`), and a thread loads `frontier` (`Acquire`) before it
/// claims, so a claim that reuses a slot follows the take of its last
/// output. The `parked` flag and a slot's tag are both `SeqCst`, so a
/// post never misses a caller that parks for it.
pub struct Run<B: Batches> {
    posted: Mutex<Option<Posted<B>>>,
    /// The next unclaimed sequence number.
    next: AtomicU64,
    /// The sequence number of the next batch the caller commits.
    frontier: AtomicU64,
    ring: Box<[Slot<B::Output>]>,
    caller: Mutex<Option<Thread>>,
    parked: AtomicBool,
}

/// One ring slot: the sequence number and output of the last post, and
/// a copy of that number the caller polls without the lock.
struct Slot<T> {
    tag: AtomicU64,
    cell: Mutex<(u64, Option<T>)>,
}

/// A run as its threads see it: sequence numbers `start..end` stand for
/// batch indices `first..`.
#[derive(Clone)]
struct Posted<B> {
    batches: B,
    first: u64,
    start: u64,
    end: u64,
}

impl<B> Posted<B> {
    fn index(&self, seq: u64) -> u64 {
        self.first + (seq - self.start)
    }

    fn seq(&self, index: u64) -> u64 {
        self.start + (index - self.first)
    }
}

impl<B: Batches> Run<B> {
    /// Fresh shared state for runs of `B`.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Run {
            posted: Mutex::new(None),
            next: AtomicU64::new(0),
            frontier: AtomicU64::new(0),
            ring: (0..RING)
                .map(|_| Slot {
                    tag: AtomicU64::new(u64::MAX),
                    cell: Mutex::new((u64::MAX, None)),
                })
                .collect(),
            caller: Mutex::new(None),
            parked: AtomicBool::new(false),
        })
    }

    /// Claims the next batch of `posted`; `None` once it has none left
    /// to claim. While the ring is full, a helper (`wait`) yields until
    /// the caller commits, and the caller gets `None`.
    fn claim(&self, posted: &Posted<B>, wait: bool) -> Option<u64> {
        let mut next = self.next.load(Ordering::Relaxed);
        loop {
            if !(posted.start..posted.end).contains(&next) {
                return None;
            }
            if next >= self.frontier.load(Ordering::Acquire) + RING as u64 {
                if !wait {
                    return None;
                }
                thread::yield_now();
                next = self.next.load(Ordering::Relaxed);
                continue;
            }
            match (self.next).compare_exchange_weak(
                next,
                next + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(next),
                Err(now) => next = now,
            }
        }
    }

    fn slot(&self, seq: u64) -> &Slot<B::Output> {
        &self.ring[seq as usize % RING]
    }

    fn post(&self, seq: u64, output: B::Output) {
        let slot = self.slot(seq);
        *slot.cell.lock().unwrap_or_else(PoisonError::into_inner) = (seq, Some(output));
        slot.tag.store(seq, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) {
            if let Some(caller) = &*self.caller.lock().unwrap_or_else(PoisonError::into_inner) {
                caller.unpark();
            }
        }
    }

    /// The output posted for `seq`, if it is there.
    fn take(&self, seq: u64) -> Option<B::Output> {
        let slot = self.slot(seq);
        if slot.tag.load(Ordering::Acquire) != seq {
            return None;
        }
        let mut cell = slot.cell.lock().unwrap_or_else(PoisonError::into_inner);
        if cell.0 == seq {
            cell.1.take()
        } else {
            None
        }
    }
}

impl<B: Batches> Help for Run<B> {
    fn help(&self, me: &Helper) {
        let posted = self
            .posted
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        if let Some(posted) = posted {
            posted.batches.work(&mut Claims {
                run: self,
                posted: &posted,
                helper: me,
                claimed: None,
            });
        }
    }
}

/// A helper's hold on the run it serves: hands out batch indices and
/// takes their outputs.
pub struct Claims<'a, B: Batches> {
    run: &'a Run<B>,
    posted: &'a Posted<B>,
    helper: &'a Helper,
    claimed: Option<u64>,
}

impl<B: Batches> Claims<'_, B> {
    /// The index of the next batch to run; `None` once the run has none
    /// left to claim.
    pub fn claim(&mut self) -> Option<u64> {
        let seq = self.run.claim(self.posted, true)?;
        self.helper.in_batch.store(true, Ordering::Release);
        self.claimed = Some(seq);
        Some(self.posted.index(seq))
    }

    /// Posts the output of the batch [`claim`](Self::claim) handed out
    /// last. The helper counts as out of the batch first, so a caller
    /// that has its last output waits for the helper to leave the run.
    pub fn post(&mut self, output: B::Output) {
        if let Some(seq) = self.claimed.take() {
            self.helper.in_batch.store(false, Ordering::Release);
            self.run.post(seq, output);
        }
    }
}

/// A caller's open run: the helpers it recruited and how it waits.
/// Dropping it, also on unwind, closes the run to claims and waits for
/// each recruited helper to leave it, so that the helper is idle (and
/// its per-thread set-up done) when the next run starts; a helper still
/// inside a batch is a straggler and is not waited for.
pub struct Fan<'r, B: Batches> {
    executor: &'static Executor,
    run: &'r Arc<Run<B>>,
    posted: Posted<B>,
    ticket: u64,
    /// How many helpers the run may recruit in all.
    cap: usize,
    /// Bit `i`: helper `i` was recruited.
    recruited: u64,
    /// Recruited helpers presumed lost.
    lost: usize,
    works: bool,
    /// The caller's last measured time per batch.
    per_batch: Duration,
}

impl<B: Batches> Fan<'_, B> {
    /// Recruited helpers not presumed lost.
    #[must_use]
    pub fn live(&self) -> usize {
        (self.recruited.count_ones() as usize).saturating_sub(self.lost)
    }

    /// Recruits idle helpers until the run has as many as it may or no
    /// batch is left to claim.
    fn recruit(&mut self) {
        let room = self
            .cap
            .saturating_sub(self.recruited.count_ones() as usize);
        if room > 0 && self.run.next.load(Ordering::Relaxed) < self.posted.end {
            (self.executor).recruit(self.run, self.ticket, room, &mut self.recruited);
        }
    }

    /// Presumes one recruited helper lost (its batch came too late).
    pub fn lose(&mut self) {
        self.lost += 1;
    }

    /// Lets the run recruit one more helper in place of a lost one,
    /// spawning it if none is idle and the pool has room. Returns
    /// whether the run got one.
    pub fn replace(&mut self) -> bool {
        let before = self.recruited;
        self.cap += 1;
        self.recruit();
        if self.recruited == before && self.executor.grow() {
            self.recruit();
        }
        self.recruited != before
    }

    /// The output of batch `index`, the next to commit. Recruits first;
    /// a run that only watches its helpers and has fewer live ones than
    /// cores (and its cap) spawns one more if none was idle and the pool
    /// has room. Then takes a helper's post, or
    /// claims and runs batches itself if it may (posting those past
    /// `index`), or waits. Returns `None` once `until` has passed (for
    /// `None`: twice the caller's last batch time after it began to
    /// wait) or `interrupted()` holds, with `index` closed to claims;
    /// the caller resolves the batch itself.
    pub fn next(
        &mut self,
        index: u64,
        run_batch: &mut dyn FnMut(u64) -> B::Output,
        until: Option<Instant>,
        interrupted: &dyn Fn() -> bool,
    ) -> Option<B::Output> {
        self.recruit();
        let recruited = self.recruited.count_ones() as usize;
        if !self.works
            && self.live() < self.cap.min(cores())
            && recruited < self.cap
            && self.executor.grow()
        {
            self.recruit();
        }
        let (run, seq) = (self.run, self.posted.seq(index));
        let mut since = None;
        let mut spins = 0u32;
        let output = loop {
            if let Some(output) = run.take(seq) {
                break Some(output);
            }
            if self.works || self.live() == 0 {
                if let Some(claimed) = run.claim(&self.posted, false) {
                    let started = Instant::now();
                    let output = run_batch(self.posted.index(claimed));
                    self.per_batch = started.elapsed();
                    if claimed == seq {
                        break Some(output);
                    }
                    run.post(claimed, output);
                    continue;
                }
            }
            let now = Instant::now();
            let give_up = until.unwrap_or(*since.get_or_insert(now) + 2 * self.per_batch);
            if now >= give_up || interrupted() {
                let _ =
                    (run.next).compare_exchange(seq, seq + 1, Ordering::Relaxed, Ordering::Relaxed);
                break None;
            }
            if self.works || spins < 64 {
                spins += 1;
                thread::yield_now();
            } else {
                run.parked.store(true, Ordering::SeqCst);
                if run.slot(seq).tag.load(Ordering::SeqCst) == seq {
                    thread::yield_now();
                } else {
                    thread::park_timeout((give_up - now).min(Duration::from_millis(10)));
                }
                run.parked.store(false, Ordering::SeqCst);
            }
        };
        run.frontier.store(seq + 1, Ordering::Release);
        output
    }
}

impl<B: Batches> Drop for Fan<'_, B> {
    fn drop(&mut self) {
        self.run.next.fetch_max(self.posted.end, Ordering::Relaxed);
        for (i, helper) in self.executor.helpers.iter().enumerate() {
            while (self.recruited >> i) & 1 == 1
                && helper.serving.load(Ordering::Acquire) == self.ticket
                && !helper.in_batch.load(Ordering::Acquire)
            {
                thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpdo_rng::rngs::StdRng;
    use qpdo_rng::{Rng, SeedableRng};
    use std::panic::catch_unwind;
    use std::sync::Barrier;

    /// A synthetic run: batch `i` of seed `s` is a few thousand
    /// SplitMix64 rounds from `s ^ i`, a pure function of both. Helpers
    /// count their posts; with `hold`, the first batch a helper runs
    /// waits twice on the barrier between running and posting, once to
    /// show that it holds the batch, once to be let go.
    #[derive(Clone)]
    struct Mix {
        seed: u64,
        posts: Arc<AtomicU64>,
        hold: Option<Arc<(AtomicBool, Barrier)>>,
    }

    fn output(seed: u64, index: u64) -> u64 {
        (0..2000).fold(seed ^ index, |x, _| splitmix64(x))
    }

    impl Batches for Mix {
        type Output = u64;

        fn work(&self, claims: &mut Claims<'_, Self>) {
            while let Some(index) = claims.claim() {
                let out = output(self.seed, index);
                if let Some(hold) = &self.hold {
                    if !hold.0.swap(true, Ordering::SeqCst) {
                        hold.1.wait();
                        hold.1.wait();
                    }
                }
                self.posts.fetch_add(1, Ordering::SeqCst);
                claims.post(out);
            }
        }
    }

    fn mix(seed: u64) -> Mix {
        Mix {
            seed,
            posts: Arc::new(AtomicU64::new(0)),
            hold: None,
        }
    }

    /// Batches `range` of `batches` on `run` with up to `helpers`
    /// helpers of `pool`, the caller working beside them; `commit` sees
    /// each output in order and stops the run by returning `false`.
    /// Returns the outputs committed.
    fn drive(
        pool: &'static Executor,
        run: &Arc<Run<Mix>>,
        batches: &Mix,
        range: Range<u64>,
        helpers: usize,
        mut commit: impl FnMut(u64, u64) -> bool,
    ) -> Vec<u64> {
        let seed = batches.seed;
        let mut fan = pool.fan(run, batches.clone(), range.clone(), helpers, true);
        let mut outputs = Vec::new();
        for index in range {
            let out = (fan.next(index, &mut |i| output(seed, i), None, &|| false))
                .unwrap_or_else(|| output(seed, index));
            outputs.push(out);
            if !commit(index, out) {
                break;
            }
        }
        outputs
    }

    fn serial(seed: u64, range: Range<u64>) -> Vec<u64> {
        range.map(|i| output(seed, i)).collect()
    }

    /// Waits until more than `before` posts were made.
    fn await_posts(posts: &AtomicU64, before: u64) {
        let started = Instant::now();
        while posts.load(Ordering::SeqCst) <= before {
            assert!(
                started.elapsed() < Duration::from_secs(20),
                "no helper posted a batch"
            );
            thread::sleep(Duration::from_micros(200));
        }
    }

    /// Waits until every helper of `pool` is idle: a run returns once
    /// each of its helpers has left it or is a straggler inside a batch
    /// the caller reran, which leaves within microseconds.
    fn await_idle(pool: &Executor) {
        let started = Instant::now();
        while !(pool.helpers.iter()).all(|helper| helper.serving.load(Ordering::Acquire) == 0) {
            assert!(
                started.elapsed() < Duration::from_secs(20),
                "a helper outlived its run"
            );
            thread::sleep(Duration::from_micros(200));
        }
    }

    /// Running batches on 1–4 helpers changes nothing: the outputs equal
    /// the serial run's, also when the first commit waits until a
    /// helper has posted (so helpers run ahead of the commit) and on a
    /// ragged range that starts past 0. Every helper is idle after.
    #[test]
    fn helpers_give_the_serial_outputs() {
        let pool = Executor::start(4);
        let run = Run::new();
        for (seed, range) in [(0xFA17, 0..10), (0xFA18, 3..40)] {
            let expect = serial(seed, range.clone());
            for helpers in 0..=4 {
                let batches = mix(seed);
                let posts = Arc::clone(&batches.posts);
                let mut first = true;
                let got = drive(pool, &run, &batches, range.clone(), helpers, |_, _| {
                    if helpers > 0 && std::mem::take(&mut first) {
                        await_posts(&posts, 0);
                    }
                    true
                });
                assert_eq!(got, expect, "seed {seed:#x}, {helpers} helpers");
                await_idle(pool);
            }
        }
    }

    /// A helper held up in the middle of a batch neither stalls the run
    /// nor changes it: the caller reruns that batch itself. Let go while
    /// the next run on the same shared state is under way, the helper
    /// posts its stale output into the ring that run uses (which runs
    /// past the ring's length, so it meets the slot), and the tag keeps
    /// the post out of that run.
    #[test]
    fn a_stalled_helper_is_rescued_and_its_late_post_is_ignored() {
        let pool = Executor::start(2);
        let run = Run::new();
        let hold = Arc::new((AtomicBool::new(false), Barrier::new(2)));
        let held = Mix {
            hold: Some(Arc::clone(&hold)),
            ..mix(0x57A11)
        };
        // Run 1: its first commit waits until a helper holds a batch.
        let got = drive(pool, &run, &held, 0..8, 1, |index, _| {
            if index == 0 {
                hold.1.wait();
            }
            true
        });
        assert_eq!(got, serial(0x57A11, 0..8), "held run");
        assert!(
            (pool.helpers.iter()).any(|helper| helper.serving.load(Ordering::Acquire) != 0),
            "the held helper left its batch"
        );

        // Run 2 recruits the other helper and lets the held one go at
        // its first commit; the late post counts too, so it waits for
        // one more post than it has seen.
        let after = mix(0x57A12);
        let range = 0..RING as u64 + 8;
        let got = drive(pool, &run, &after, range.clone(), 2, |index, _| {
            if index == 0 {
                hold.1.wait();
                await_posts(&held.posts, 0);
            }
            true
        });
        assert_eq!(got, serial(0x57A12, range), "next run");
    }

    /// A panic in the caller's commit unwinds through the run, which
    /// waits for its helpers on the way out; the next run on the same
    /// pool and shared state still gives the serial outputs.
    #[test]
    fn a_panic_in_the_commit_leaves_the_pool_usable() {
        let pool = Executor::start(1);
        let run = Run::new();
        let batches = mix(0xBAD);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            drive(pool, &run, &batches, 0..6, 1, |index, _| {
                assert!(index < 2, "commit fails at batch 2");
                true
            })
        }));
        assert!(panicked.is_err());
        await_idle(pool);
        let got = drive(pool, &run, &mix(0xBAD), 0..6, 1, |_, _| true);
        assert_eq!(got, serial(0xBAD, 0..6), "the run after the panic");
    }

    /// A batch that opens a run of its own on the same pool (a nested
    /// run) never waits on itself: with every helper busy it runs its
    /// batches alone, and both levels give the serial outputs.
    #[test]
    fn nested_runs_finish_and_match_the_serial_runs() {
        #[derive(Clone)]
        struct Outer(&'static Executor);
        impl Batches for Outer {
            type Output = u64;
            fn work(&self, claims: &mut Claims<'_, Self>) {
                while let Some(index) = claims.claim() {
                    claims.post(nested(self.0, index));
                }
            }
        }
        fn nested(pool: &'static Executor, index: u64) -> u64 {
            let inner = drive(pool, &Run::new(), &mix(index), 0..6, 2, |_, _| true);
            inner.into_iter().fold(0, |acc, x| acc ^ x)
        }
        let pool = Executor::start(2);
        let run = Run::new();
        let mut fan = pool.fan(&run, Outer(pool), 0..5, 2, true);
        for index in 0..5 {
            let got = (fan.next(index, &mut |i| nested(pool, i), None, &|| false))
                .unwrap_or_else(|| nested(pool, index));
            let expect = serial(index, 0..6).into_iter().fold(0, |acc, x| acc ^ x);
            assert_eq!(got, expect, "outer batch {index}");
        }
    }

    /// Seeded stress over short runs: 2–5 batches, 1–3 helpers, and a
    /// stop at a seeded batch (or none). Each must commit exactly the
    /// serial run's outputs up to its stop, and leave every helper idle.
    #[test]
    fn short_runs_match_the_serial_runs() {
        let pool = Executor::start(3);
        let run = Run::new();
        let mut rng = StdRng::seed_from_u64(0x57E55);
        for round in 0..300 {
            let seed: u64 = rng.gen();
            let len = rng.gen_range(2..=5u64);
            let stop = rng.gen_range(0..=len);
            let helpers = rng.gen_range(1..=3);
            let got = drive(pool, &run, &mix(seed), 0..len, helpers, |index, _| {
                index + 1 < stop
            });
            let mut expect = serial(seed, 0..len);
            expect.truncate(stop.max(1) as usize);
            assert_eq!(
                got, expect,
                "round {round}: {helpers} helpers, stop at {stop}"
            );
        }
        await_idle(pool);
    }
}
