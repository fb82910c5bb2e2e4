//! The fleet router service (`DESIGN.md` §11).
//!
//! Threading model: the daemon ([`qpdo_serve::daemon`]) serves every
//! connection on one nonblocking event loop, but the router keeps a
//! handler thread per connection, because answering a request means
//! blocking I/O to a member — a relayed submit or query waits, up to
//! the member timeout, on that member's reply, and one slow member must
//! not stall every other client. The caller's thread runs the TCP
//! accept loop (bounded by [`RouterConfig::max_conns`]), each
//! connection gets a handler thread, and two background threads keep
//! the fleet converging:
//!
//! - the **prober** drives one [`CircuitBreaker`] per member off the
//!   daemons' existing `health` query, so a dead or draining member is
//!   ejected from admission within `breaker_threshold` probe intervals
//!   and re-admitted through the breaker's half-open probe once it
//!   answers again;
//! - the **resolver** walks non-terminal bindings: unconfirmed jobs
//!   are (re)delivered to their bound member, confirmed jobs are
//!   polled for their terminal outcome. After a router restart this is
//!   what finishes the orphans the journal replay found — by
//!   idempotent job-id resubmission, never by re-execution elsewhere.
//!
//! Delivery discipline (the fleet-wide exactly-once argument):
//!
//! 1. A fresh submit is bound to the first live ring candidate and the
//!    `route` record is fsync'd before anything is transmitted.
//! 2. A `sent` record is fsync'd after the connection opens but before
//!    the submit line is transmitted. From here the attempt is
//!    ambiguous until the member answers.
//! 3. Rebinding to the next candidate is legal only on proof of
//!    non-delivery, decided from the rejection's [`RejectCode`], never
//!    its free text. Post-dedup codes (`overloaded`, `draining`) are
//!    issued by daemons only after checking the id against their WAL,
//!    so they prove the id is not held and permit rebinding even from
//!    `sent`. Every other rejection — the connection-level `busy` shed
//!    answers before reading the request, so no dedup check ran —
//!    proves only that *this* attempt was not admitted: it permits
//!    rebinding only while the binding never reached `sent`, exactly
//!    like a connection that never opened. An ambiguous failure —
//!    timeout or EOF after `sent`, or any rejection without post-dedup
//!    proof once `sent` — parks the job on its bound member: the
//!    resolver retries the same member forever, and a restarted member
//!    answers `duplicate` from its own WAL if the attempt had landed.
//! 4. The client hears `accepted` only after the member acked and the
//!    router journaled `acked`; from there the binding is sticky.
//!
//! So at most one member ever holds a given id, and the per-daemon WAL
//! guarantee (PR 5/6) compounds into fleet-wide exactly-once.
//!
//! Lock order: `state` before `journal`; the network is never touched
//! under either lock (bindings are snapshotted, I/O happens unlocked,
//! outcomes re-checked under the lock before being applied).

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use qpdo_core::journal::id_digest;
use qpdo_core::ShotError;
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_serve::breaker::{BreakerState, CircuitBreaker};
use qpdo_serve::job::JobSpec;
use qpdo_serve::protocol::{
    recv_line, send_line, Client, HealthSnapshot, JobState, RejectCode, Request, Response,
};
use qpdo_serve::wal::JobOutcome;

use crate::journal::{validate_member_name, RouteState, RouterJournal, RouterRecord};
use crate::protocol::{FleetSnapshot, MemberHealth, RouterRequest, RouterResponse};
use crate::ring::HashRing;

/// Router tuning knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// How often the prober health-checks each member.
    pub probe_interval: Duration,
    /// How often the resolver revisits unresolved bindings.
    pub resolve_interval: Duration,
    /// Consecutive failed probes that trip a member's breaker.
    pub breaker_threshold: u32,
    /// Breaker cooloff before the half-open probe re-admits a member.
    pub breaker_cooloff: Duration,
    /// I/O timeout on router-to-member calls.
    pub io_timeout: Duration,
    /// I/O timeout on accepted client streams ([`Duration::ZERO`]
    /// disables it).
    pub client_io_timeout: Duration,
    /// Bound on non-terminal bindings; submissions beyond it are shed.
    pub max_inflight: usize,
    /// Bound on concurrent client connections; connections beyond it
    /// are refused with a `busy` rejection.
    pub max_conns: usize,
    /// Journal segment size bound before rotation.
    pub max_segment_bytes: u64,
    /// Terminal bindings retained through journal compaction.
    pub retain_terminal: usize,
    /// Extra candidate walks a synchronous submit takes, with backoff,
    /// before conceding `unavailable` — so a member mid-restart (every
    /// connect refused, nothing transmitted) gets a re-delivery window
    /// instead of an instant shed.
    pub submit_retries: u32,
    /// First retry backoff; doubles per retry (capped exponential).
    pub retry_base: Duration,
    /// Backoff ceiling.
    pub retry_cap: Duration,
    /// Seed for the per-job retry jitter (keeps a burst of refused
    /// submits from re-walking in lockstep).
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            probe_interval: Duration::from_millis(200),
            resolve_interval: Duration::from_millis(100),
            breaker_threshold: 2,
            breaker_cooloff: Duration::from_millis(400),
            io_timeout: Duration::from_secs(5),
            client_io_timeout: Duration::from_secs(30),
            max_inflight: 1024,
            max_conns: 256,
            max_segment_bytes: RouterJournal::DEFAULT_MAX_SEGMENT_BYTES,
            retain_terminal: RouterJournal::DEFAULT_RETAIN_TERMINAL,
            submit_retries: 3,
            retry_base: Duration::from_millis(50),
            retry_cap: Duration::from_millis(500),
            seed: 2016,
        }
    }
}

/// Counters reported through `fleet` and returned by [`run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Jobs ever bound to a member (including recovered bindings).
    pub routed: u64,
    /// Bindings confirmed by their member.
    pub acked: u64,
    /// Jobs finished successfully, fleet-wide.
    pub completed: u64,
    /// Jobs terminally failed, fleet-wide.
    pub failed: u64,
    /// Jobs that delivered an anytime `Partial` result at their
    /// deadline, fleet-wide. A partial is a delivered terminal: it
    /// counts toward exactly-once accounting like `completed`.
    pub partials: u64,
    /// Submissions shed (no live member, inflight cap, drain,
    /// connection cap).
    pub shed: u64,
    /// Submissions absorbed against an existing binding.
    pub duplicates: u64,
    /// Bindings moved to a failover candidate on proven non-delivery.
    pub rebinds: u64,
}

struct Member {
    addr: String,
    breaker: CircuitBreaker,
}

struct JobEntry {
    spec: JobSpec,
    member: String,
    state: RouteState,
    /// A delivery or poll is in flight on some thread; others keep off.
    delivering: bool,
}

struct RouterState {
    members: HashMap<String, Member>,
    /// Member names in join order (stable display and probe order).
    order: Vec<String>,
    ring: HashRing,
    jobs: HashMap<String, JobEntry>,
    /// Non-terminal bindings (`jobs` minus terminals).
    inflight: usize,
    draining: bool,
    shutdown: bool,
    stats: RouterStats,
}

impl RouterState {
    fn live_members(&self) -> HashSet<String> {
        self.members
            .iter()
            .filter(|(_, m)| m.breaker.state() == BreakerState::Closed)
            .map(|(name, _)| name.clone())
            .collect()
    }

    fn bound_count(&self, member: &str) -> u64 {
        self.jobs
            .values()
            .filter(|j| j.member == member && !j.state.is_terminal())
            .count() as u64
    }
}

struct RouterService {
    state: Mutex<RouterState>,
    wake: Condvar,
    journal: Mutex<RouterJournal>,
    config: RouterConfig,
}

impl RouterService {
    fn lock_state(&self) -> MutexGuard<'_, RouterState> {
        self.state.lock().expect("state lock")
    }

    fn lock_journal(&self) -> MutexGuard<'_, RouterJournal> {
        self.journal.lock().expect("journal lock")
    }

    fn member_timeout(&self) -> Option<Duration> {
        Some(self.config.io_timeout)
    }
}

/// Runs the router on an already-bound listener until a client drains
/// it. Returns the final counters.
///
/// On startup the journal in `journal_dir` is replayed: members rejoin
/// the ring at their last known address (`backends` seeds only names
/// the journal has never seen — after a restart the journal, which saw
/// every `join`, wins over possibly stale flags), terminal bindings
/// become queryable, and unresolved bindings are handed to the
/// resolver.
///
/// # Errors
///
/// Propagates journal and listener I/O errors. An inconsistent journal
/// (conflicting terminals, dangling records) is an error: the
/// exactly-once guarantee no longer holds and the operator must
/// intervene.
pub fn run(
    listener: TcpListener,
    journal_dir: &Path,
    backends: &[(String, String)],
    config: RouterConfig,
) -> io::Result<RouterStats> {
    let (mut journal, recovery) = RouterJournal::open_retaining(
        journal_dir,
        config.max_segment_bytes,
        config.retain_terminal,
    )?;
    if !recovery.is_consistent() {
        return Err(io::Error::other(format!(
            "router journal violates exactly-once: duplicate terminals {:?}, orphaned {:?}",
            recovery.duplicate_terminals, recovery.orphaned
        )));
    }

    let fresh_breaker = || CircuitBreaker::new(config.breaker_threshold, config.breaker_cooloff);
    let mut members = HashMap::new();
    let mut order = Vec::new();
    let mut ring = HashRing::new(HashRing::DEFAULT_REPLICAS);
    // The journal state beside the jobs is the fleet membership.
    for (name, addr) in &recovery.extra {
        members.insert(
            name.clone(),
            Member {
                addr: addr.clone(),
                breaker: fresh_breaker(),
            },
        );
        order.push(name.clone());
        ring.insert(name);
    }
    for (name, addr) in backends {
        validate_member_name(name).map_err(io::Error::other)?;
        if !members.contains_key(name) {
            journal.append(&RouterRecord::Member {
                name: name.clone(),
                addr: addr.clone(),
            })?;
            members.insert(
                name.clone(),
                Member {
                    addr: addr.clone(),
                    breaker: fresh_breaker(),
                },
            );
            order.push(name.clone());
            ring.insert(name);
        }
    }

    let mut jobs = HashMap::new();
    let mut inflight = 0;
    let mut stats = RouterStats {
        routed: recovery.pruned_count,
        ..RouterStats::default()
    };
    for job in recovery.jobs() {
        stats.routed += 1;
        match &job.state {
            RouteState::Routed | RouteState::Sent => inflight += 1,
            RouteState::Acked => {
                stats.acked += 1;
                inflight += 1;
            }
            RouteState::Terminal(JobOutcome::Done(_)) => {
                stats.acked += 1;
                stats.completed += 1;
            }
            RouteState::Terminal(JobOutcome::Failed(_)) => {
                stats.acked += 1;
                stats.failed += 1;
            }
            RouteState::Terminal(JobOutcome::Partial(_)) => {
                stats.acked += 1;
                stats.partials += 1;
            }
        }
        jobs.insert(
            job.spec.id.clone(),
            JobEntry {
                spec: job.spec.clone(),
                member: job.member.clone(),
                state: job.state.clone(),
                delivering: false,
            },
        );
    }
    if !recovery.jobs().is_empty() {
        eprintln!(
            "recovered {} journaled bindings ({} unresolved) across {} members",
            recovery.jobs().len(),
            inflight,
            order.len()
        );
    }

    let service = Arc::new(RouterService {
        state: Mutex::new(RouterState {
            members,
            order,
            ring,
            jobs,
            inflight,
            draining: false,
            shutdown: false,
            stats,
        }),
        wake: Condvar::new(),
        journal: Mutex::new(journal),
        config,
    });

    let prober = {
        let service = Arc::clone(&service);
        thread::spawn(move || probe_loop(&service))
    };
    let resolver = {
        let service = Arc::clone(&service);
        thread::spawn(move || resolve_loop(&service))
    };

    let conns = Arc::new(AtomicUsize::new(0));
    let client_timeout =
        (!service.config.client_io_timeout.is_zero()).then_some(service.config.client_io_timeout);
    for stream in listener.incoming() {
        if service.lock_state().shutdown {
            break;
        }
        let Ok(stream) = stream else { continue };
        if conns.fetch_add(1, Ordering::SeqCst) >= service.config.max_conns {
            conns.fetch_sub(1, Ordering::SeqCst);
            shed_connection(&service, stream);
            continue;
        }
        let _ = stream.set_read_timeout(client_timeout);
        let _ = stream.set_write_timeout(client_timeout);
        let service = Arc::clone(&service);
        let conns = Arc::clone(&conns);
        thread::spawn(move || {
            let _ = handle_connection(&service, stream);
            conns.fetch_sub(1, Ordering::SeqCst);
        });
    }

    prober.join().expect("prober thread panicked");
    resolver.join().expect("resolver thread panicked");
    let stats = service.lock_state().stats;
    Ok(stats)
}

/// Refuses a connection over the cap with a best-effort rejection line
/// (a short write timeout keeps a wedged client from blocking the
/// accept loop).
fn shed_connection(service: &RouterService, stream: TcpStream) {
    {
        let mut state = service.lock_state();
        state.stats.shed += 1;
    }
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    // `busy`, not `overloaded`: the request was never read, so this
    // rejection carries no dedup proof (mirrors the daemon's shed).
    let reply = Response::rejected(
        RejectCode::Busy,
        ShotError::Overloaded {
            queue_depth: service.config.max_conns,
        }
        .to_string(),
    );
    let mut stream = stream;
    let _ = send_line(&mut stream, &reply.encode());
}

fn handle_connection(service: &Arc<RouterService>, mut stream: TcpStream) -> io::Result<()> {
    loop {
        let line = match recv_line(&mut stream) {
            Ok(None) => return Ok(()),
            Ok(Some(line)) => line,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let reply =
                    Response::rejected(RejectCode::Malformed, format!("malformed frame: {e}"));
                let _ = send_line(&mut stream, &reply.encode());
                return Ok(());
            }
            // The client idled past the I/O timeout: close quietly.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let response = match RouterRequest::parse(&line) {
            Err(reason) => RouterResponse::Core(Response::rejected(RejectCode::Malformed, reason)),
            Ok(RouterRequest::Core(Request::Submit(spec))) => {
                RouterResponse::Core(handle_submit(service, spec))
            }
            Ok(RouterRequest::Core(Request::Query(id))) => {
                RouterResponse::Core(handle_query(service, &id))
            }
            Ok(RouterRequest::Core(Request::Progress(id))) => {
                RouterResponse::Core(handle_progress(service, &id))
            }
            Ok(RouterRequest::Core(Request::Health)) => {
                RouterResponse::Core(Response::Health(Box::new(synthesize_health(service))))
            }
            Ok(RouterRequest::Core(Request::Drain)) => {
                handle_drain(service);
                RouterResponse::Core(Response::Drained)
            }
            Ok(RouterRequest::Join { name, addr }) => handle_join(service, &name, &addr),
            Ok(RouterRequest::Leave { name }) => handle_leave(service, &name),
            Ok(RouterRequest::Fleet) => RouterResponse::Fleet(Box::new(fleet_snapshot(service))),
        };
        let is_drain = response == RouterResponse::Core(Response::Drained);
        send_line(&mut stream, &response.encode())?;
        if is_drain {
            // Poke the accept loop so it observes `shutdown`.
            let _ = TcpStream::connect(stream.local_addr()?);
            return Ok(());
        }
    }
}

/// Admits a submission: dedup, admission control, bind, deliver.
fn handle_submit(service: &RouterService, spec: JobSpec) -> Response {
    let mut state = service.lock_state();
    if let Some(job) = state.jobs.get(&spec.id) {
        match (&job.state, job.delivering) {
            // A parked unconfirmed binding: a resubmit is the client's
            // retry loop, so take another synchronous delivery swing.
            (RouteState::Routed | RouteState::Sent, false) => {
                state.jobs.get_mut(&spec.id).expect("job exists").delivering = true;
                drop(state);
                return deliver(service, &spec.id, false);
            }
            _ => {
                state.stats.duplicates += 1;
                return Response::Duplicate(spec.id);
            }
        }
    }
    if service.lock_journal().was_pruned(&spec.id) {
        state.stats.duplicates += 1;
        return Response::rejected(
            RejectCode::Pruned,
            format!(
                "job {} already reached a terminal state; \
                 its result was pruned by journal retention",
                spec.id
            ),
        );
    }
    if state.draining || state.shutdown {
        return Response::rejected(RejectCode::Draining, "draining: not accepting new jobs");
    }
    if state.inflight >= service.config.max_inflight {
        state.stats.shed += 1;
        let error = ShotError::Overloaded {
            queue_depth: state.inflight,
        };
        return Response::rejected(RejectCode::Overloaded, error.to_string());
    }
    let live = state.live_members();
    let first = state
        .ring
        .candidates(&spec.id)
        .into_iter()
        .find(|name| live.contains(name));
    let Some(member) = first else {
        state.stats.shed += 1;
        return Response::rejected(RejectCode::Unavailable, "unavailable: no live fleet member");
    };
    // WAL-before-forward: the binding is durable before any byte goes
    // to the member or the client. Holding the state lock across the
    // fsync serializes admissions, matching the journal's order.
    {
        let mut journal = service.lock_journal();
        if let Err(e) = journal.append(&RouterRecord::Route {
            spec: spec.clone(),
            member: member.clone(),
        }) {
            return Response::rejected(RejectCode::Journal, format!("journal write failed: {e}"));
        }
    }
    state.stats.routed += 1;
    state.inflight += 1;
    state.jobs.insert(
        spec.id.clone(),
        JobEntry {
            spec: spec.clone(),
            member,
            state: RouteState::Routed,
            delivering: true,
        },
    );
    drop(state);
    deliver(service, &spec.id, true)
}

/// What one delivery attempt to the bound member established.
enum Attempt {
    /// The member acked (or already knew the id): binding confirmed.
    Confirmed,
    /// Someone else settled the job while we were delivering.
    Settled(Response),
    /// Proof of non-delivery: rebinding is safe.
    Refused(String),
    /// Outcome unknown: the binding must stay parked on this member.
    Parked(String),
    /// The member reports the id as anciently terminal: recorded.
    Terminated(Response),
}

/// Drives a bound job to confirmation, walking failover candidates on
/// proven non-delivery. The caller must have set `delivering`; it is
/// cleared on every exit path. `unroute_on_exhaustion` distinguishes
/// the synchronous submit path (every candidate explicitly refused →
/// unbind and shed, so the client's rejection is truthful) from the
/// resolver (parks and retries later instead).
fn deliver(service: &RouterService, id: &str, unroute_on_exhaustion: bool) -> Response {
    let response = deliver_inner(service, id, unroute_on_exhaustion);
    let mut state = service.lock_state();
    if let Some(job) = state.jobs.get_mut(id) {
        job.delivering = false;
    }
    response
}

fn deliver_inner(service: &RouterService, id: &str, unroute_on_exhaustion: bool) -> Response {
    let mut retry: u32 = 0;
    let last_refusal = 'retries: loop {
        // One full candidate walk. `tried` resets per walk: a member
        // that refused the previous walk (say, mid-restart with its
        // port closed) deserves another attempt after the backoff.
        let mut tried: HashSet<String> = HashSet::new();
        let exhausted = loop {
            let member = {
                let state = service.lock_state();
                match state.jobs.get(id) {
                    None => {
                        return Response::rejected(
                            RejectCode::UnknownJob,
                            format!("unknown job {id:?}"),
                        )
                    }
                    Some(job) => match &job.state {
                        RouteState::Routed | RouteState::Sent => job.member.clone(),
                        RouteState::Acked => return Response::Accepted(id.to_owned()),
                        RouteState::Terminal(_) => return Response::Duplicate(id.to_owned()),
                    },
                }
            };
            tried.insert(member.clone());
            match attempt(service, id, &member) {
                Attempt::Confirmed => return Response::Accepted(id.to_owned()),
                Attempt::Settled(response) | Attempt::Terminated(response) => return response,
                Attempt::Parked(reason) => {
                    return Response::rejected(
                        RejectCode::Unavailable,
                        format!(
                            "unavailable: delivery to {member} unconfirmed ({reason}); \
                         job parked — query to track, or resubmit to retry"
                        ),
                    );
                }
                Attempt::Refused(reason) => {
                    if !advance_binding(service, id, &member, &tried) {
                        break reason;
                    }
                }
            }
        };
        // This walk exhausted its candidates on proven non-delivery.
        // The synchronous submit path backs off and re-walks before
        // conceding (capped exponential + seeded jitter); the resolver
        // parks instead — its own interval is already a retry loop.
        if !unroute_on_exhaustion || retry >= service.config.submit_retries {
            break 'retries exhausted;
        }
        let pause = retry_backoff(&service.config, id, retry);
        retry += 1;
        thread::sleep(pause);
        if service.lock_state().shutdown {
            break 'retries exhausted;
        }
    };
    // Every live candidate gave proof of non-delivery.
    if unroute_on_exhaustion {
        let mut state = service.lock_state();
        let still_fresh = state
            .jobs
            .get(id)
            .is_some_and(|job| matches!(job.state, RouteState::Routed | RouteState::Sent));
        if still_fresh {
            let unroute = {
                let mut journal = service.lock_journal();
                journal.append(&RouterRecord::Unroute { id: id.to_owned() })
            };
            match unroute {
                Ok(()) => {
                    state.jobs.remove(id);
                    state.inflight -= 1;
                    state.stats.shed += 1;
                    // This may be the last non-terminal binding: wake
                    // any drain blocked on `inflight`, as every other
                    // inflight-decrementing path does.
                    service.wake.notify_all();
                }
                Err(e) => {
                    eprintln!("warning: journal unroute failed for {id}: {e}");
                }
            }
        }
    }
    Response::rejected(
        RejectCode::Unavailable,
        format!("unavailable: every live fleet member refused the job (last: {last_refusal})"),
    )
}

/// Backoff before retry number `retry` (0-based) of a submit's
/// candidate walk: capped exponential on
/// [`RouterConfig::retry_base`], scaled by a deterministic per-job
/// jitter factor in `[0.5, 1.5)` so a burst of refused submissions
/// de-synchronizes instead of re-walking in lockstep.
fn retry_backoff(config: &RouterConfig, id: &str, retry: u32) -> Duration {
    let doubled = config
        .retry_base
        .saturating_mul(1u32.checked_shl(retry.min(20)).unwrap_or(u32::MAX));
    let capped = doubled.min(config.retry_cap);
    let mut rng = StdRng::seed_from_u64(config.seed ^ id_digest(id) ^ u64::from(retry));
    capped.mul_f64(rng.gen_range(0.5..1.5))
}

/// One delivery attempt to `member`, with the `sent` journal discipline
/// described in the module docs.
fn attempt(service: &RouterService, id: &str, member: &str) -> Attempt {
    // Snapshot the binding; bail out if it changed under us.
    let (spec, addr, transmitted) = {
        let state = service.lock_state();
        let Some(job) = state.jobs.get(id) else {
            return Attempt::Settled(Response::rejected(
                RejectCode::UnknownJob,
                format!("unknown job {id:?}"),
            ));
        };
        if job.member != member {
            return Attempt::Settled(Response::Duplicate(id.to_owned()));
        }
        match &job.state {
            RouteState::Acked => return Attempt::Settled(Response::Accepted(id.to_owned())),
            RouteState::Terminal(_) => return Attempt::Settled(Response::Duplicate(id.to_owned())),
            state_now => {
                let Some(m) = state.members.get(member) else {
                    return Attempt::Parked(format!("member {member} is gone"));
                };
                (
                    job.spec.clone(),
                    m.addr.clone(),
                    matches!(state_now, RouteState::Sent),
                )
            }
        }
    };
    let mut client = match Client::connect(addr.as_str(), service.member_timeout()) {
        Ok(client) => client,
        // The connection never opened. If nothing was ever transmitted
        // this proves non-delivery; after a `sent`, it proves nothing
        // (the job may sit in the dead member's WAL awaiting restart).
        Err(e) if transmitted => return Attempt::Parked(format!("connect: {e}")),
        Err(e) => return Attempt::Refused(format!("connect: {e}")),
    };
    // `sent` goes durable before the submit line is transmitted, so a
    // router crash mid-call replays as "ambiguous", never as "fresh".
    {
        let mut state = service.lock_state();
        let Some(job) = state.jobs.get_mut(id) else {
            return Attempt::Settled(Response::rejected(
                RejectCode::UnknownJob,
                format!("unknown job {id:?}"),
            ));
        };
        if job.state == RouteState::Routed {
            let sent = {
                let mut journal = service.lock_journal();
                journal.append(&RouterRecord::Sent { id: id.to_owned() })
            };
            if let Err(e) = sent {
                // Without a durable `sent` the attempt must not
                // transmit: an untracked ambiguity could double-run.
                return Attempt::Parked(format!("journal write failed: {e}"));
            }
            job.state = RouteState::Sent;
        }
    }
    match client.call(&Request::Submit(spec)) {
        Ok(Response::Accepted(_) | Response::Duplicate(_)) => {
            mark_acked(service, id);
            Attempt::Confirmed
        }
        Ok(Response::Rejected(rejection)) => {
            match classify_rejection(rejection.code, transmitted) {
                RejectionClass::Parked => Attempt::Parked(rejection.to_string()),
                RejectionClass::Refused => Attempt::Refused(rejection.to_string()),
                // The daemon pruned this id as anciently terminal: it
                // did run, exactly once, but the result is gone.
                // Record that truthfully.
                RejectionClass::Terminated => {
                    let outcome = JobOutcome::Failed(format!("member {member}: {rejection}"));
                    record_terminal(service, id, outcome);
                    Attempt::Terminated(Response::Rejected(rejection))
                }
            }
        }
        Ok(other) => Attempt::Parked(format!("unexpected response {:?}", other.encode())),
        Err(e) => Attempt::Parked(e.to_string()),
    }
}

/// What a rejected submit constrains the binding to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RejectionClass {
    /// Ambiguous or attempt-local: the binding stays on its member.
    Parked,
    /// Proof of non-delivery: rebinding to the next candidate is safe.
    Refused,
    /// The id is anciently terminal on this member: record and stop.
    Terminated,
}

/// Classifies a member's submit rejection from its [`RejectCode`] —
/// never from the free-text detail. `transmitted` is whether any
/// earlier attempt to the *current* member reached `sent`.
///
/// Post-dedup codes (`overloaded`, `draining`, `degraded`) are issued
/// by daemons only after checking the id against their journal (the
/// degraded daemon's in-memory mirror is intact — only *new* appends
/// fail), so they prove the id is not held — rebinding is safe even
/// from `sent`. A `journal` rejection means the member's accept record
/// may or may not have hit
/// its disk, and an `other` rejection has unprovable semantics (it may
/// be a journal failure worded by a pre-code peer): both are always
/// ambiguous. The remaining codes — `busy` is sent by the
/// connection-level shed before the request is even read, `malformed`
/// before admission — prove only that *this* attempt was not admitted;
/// after an earlier transmitted attempt the id may still sit in the
/// member's WAL, so the binding must park (mirroring the
/// connect-failure rule).
fn classify_rejection(code: RejectCode, transmitted: bool) -> RejectionClass {
    match code {
        RejectCode::Overloaded | RejectCode::Draining | RejectCode::Degraded => {
            RejectionClass::Refused
        }
        RejectCode::Pruned => RejectionClass::Terminated,
        RejectCode::Journal | RejectCode::Other => RejectionClass::Parked,
        RejectCode::Busy
        | RejectCode::UnknownJob
        | RejectCode::Malformed
        | RejectCode::Unavailable => {
            if transmitted {
                RejectionClass::Parked
            } else {
                RejectionClass::Refused
            }
        }
    }
}

/// Rebinds a refused job to the next untried live candidate, feeding
/// the refusing member's breaker. Returns whether a rebind happened.
fn advance_binding(
    service: &RouterService,
    id: &str,
    refused_by: &str,
    tried: &HashSet<String>,
) -> bool {
    let mut state = service.lock_state();
    let now = Instant::now();
    if let Some(m) = state.members.get_mut(refused_by) {
        m.breaker.record_failure(now);
    }
    let still_pending = state.jobs.get(id).is_some_and(|job| {
        matches!(job.state, RouteState::Routed | RouteState::Sent) && job.member == refused_by
    });
    if !still_pending {
        return false;
    }
    let live = state.live_members();
    let next = state
        .ring
        .candidates(id)
        .into_iter()
        .find(|name| live.contains(name) && !tried.contains(name));
    let Some(next) = next else {
        return false;
    };
    let spec = state.jobs.get(id).expect("job exists").spec.clone();
    let rebind = {
        let mut journal = service.lock_journal();
        journal.append(&RouterRecord::Route {
            spec,
            member: next.clone(),
        })
    };
    match rebind {
        Ok(()) => {
            let job = state.jobs.get_mut(id).expect("job exists");
            job.member = next;
            job.state = RouteState::Routed;
            state.stats.rebinds += 1;
            true
        }
        Err(e) => {
            eprintln!("warning: journal rebind failed for {id}: {e}");
            false
        }
    }
}

/// Journals and records the member's confirmation (binding goes
/// sticky). A journal failure leaves the state at `sent`: the member
/// holds the job either way, and the resolver's next pass re-confirms
/// through an idempotent resubmit.
fn mark_acked(service: &RouterService, id: &str) {
    let mut state = service.lock_state();
    let Some(job) = state.jobs.get(id) else {
        return;
    };
    if !matches!(job.state, RouteState::Routed | RouteState::Sent) {
        return;
    }
    let acked = {
        let mut journal = service.lock_journal();
        journal.append(&RouterRecord::Acked { id: id.to_owned() })
    };
    match acked {
        Ok(()) => {
            state.jobs.get_mut(id).expect("job exists").state = RouteState::Acked;
            state.stats.acked += 1;
            service.wake.notify_all();
        }
        Err(e) => eprintln!("warning: journal ack failed for {id}: {e}"),
    }
}

/// Journals and records a terminal outcome relayed from a member
/// (WAL-before-result, first terminal wins). A journal failure leaves
/// the job non-terminal so a later poll retries the identical append.
fn record_terminal(service: &RouterService, id: &str, outcome: JobOutcome) {
    let mut state = service.lock_state();
    let Some(job) = state.jobs.get(id) else {
        return;
    };
    if job.state.is_terminal() {
        return;
    }
    let append = {
        let mut journal = service.lock_journal();
        journal.append(&RouterRecord::Terminal {
            id: id.to_owned(),
            outcome: outcome.clone(),
        })
    };
    if let Err(e) = append {
        eprintln!("warning: journal terminal record failed for {id}: {e}");
        return;
    }
    match &outcome {
        JobOutcome::Done(_) => state.stats.completed += 1,
        JobOutcome::Failed(_) => state.stats.failed += 1,
        JobOutcome::Partial(_) => state.stats.partials += 1,
    }
    state.jobs.get_mut(id).expect("job exists").state = RouteState::Terminal(outcome);
    state.inflight -= 1;
    service.wake.notify_all();
}

/// Answers a query: terminal outcomes from the router's own journal,
/// everything else relayed to the bound member (and any terminal the
/// relay learns is recorded on the way through).
fn handle_query(service: &RouterService, id: &str) -> Response {
    let (member, addr, fallback) = {
        let state = service.lock_state();
        match state.jobs.get(id) {
            None => {
                if service.lock_journal().was_pruned(id) {
                    return Response::rejected(
                        RejectCode::Pruned,
                        format!(
                            "job {id} already reached a terminal state; \
                             its result was pruned by journal retention"
                        ),
                    );
                }
                return Response::rejected(RejectCode::UnknownJob, format!("unknown job {id:?}"));
            }
            Some(job) => match &job.state {
                RouteState::Terminal(JobOutcome::Done(record)) => {
                    return Response::State(id.to_owned(), JobState::Done(record.clone()))
                }
                RouteState::Terminal(JobOutcome::Failed(error)) => {
                    return Response::State(id.to_owned(), JobState::Failed(error.clone()))
                }
                RouteState::Terminal(JobOutcome::Partial(detail)) => {
                    return Response::State(id.to_owned(), JobState::Partial(detail.clone()))
                }
                in_flight => {
                    let fallback = if *in_flight == RouteState::Acked {
                        JobState::Running
                    } else {
                        JobState::Queued
                    };
                    let addr = state.members.get(&job.member).map(|m| m.addr.clone());
                    (job.member.clone(), addr, fallback)
                }
            },
        }
    };
    let Some(addr) = addr else {
        return Response::State(id.to_owned(), fallback);
    };
    let relayed = Client::connect(addr.as_str(), service.member_timeout())
        .and_then(|mut client| client.call(&Request::Query(id.to_owned())));
    match relayed {
        Ok(Response::State(_, JobState::Done(record))) => {
            record_terminal(service, id, JobOutcome::Done(record.clone()));
            Response::State(id.to_owned(), JobState::Done(record))
        }
        Ok(Response::State(_, JobState::Failed(error))) => {
            record_terminal(service, id, JobOutcome::Failed(error.clone()));
            Response::State(id.to_owned(), JobState::Failed(error))
        }
        Ok(Response::State(_, JobState::Partial(detail))) => {
            // An anytime partial is a delivered terminal: cache it so
            // the result survives the member pruning or leaving.
            record_terminal(service, id, JobOutcome::Partial(detail.clone()));
            Response::State(id.to_owned(), JobState::Partial(detail))
        }
        Ok(Response::State(_, live)) => Response::State(id.to_owned(), live),
        Ok(Response::Rejected(rejection)) if rejection.code == RejectCode::Pruned => {
            let outcome = JobOutcome::Failed(format!("member {member}: {rejection}"));
            record_terminal(service, id, outcome);
            Response::Rejected(rejection)
        }
        // "unknown job" = not delivered yet; errors = member down. The
        // binding still stands, so report the router's own view.
        _ => Response::State(id.to_owned(), fallback),
    }
}

/// Relays a `progress` query to the bound member. Terminal outcomes
/// answer from the router's own journal (mirroring `query`); a job the
/// member has not seen yet — or an unreachable member — reports zero
/// completed shots rather than an error, since the binding stands.
fn handle_progress(service: &RouterService, id: &str) -> Response {
    let zeros = |id: &str| Response::Progress {
        id: id.to_owned(),
        batches: 0,
        shots: 0,
        failures: 0,
    };
    let addr = {
        let state = service.lock_state();
        match state.jobs.get(id) {
            None => {
                if service.lock_journal().was_pruned(id) {
                    return Response::rejected(
                        RejectCode::Pruned,
                        format!(
                            "job {id} already reached a terminal state; \
                             its result was pruned by journal retention"
                        ),
                    );
                }
                return Response::rejected(RejectCode::UnknownJob, format!("unknown job {id:?}"));
            }
            Some(job) => match &job.state {
                RouteState::Terminal(JobOutcome::Done(record)) => {
                    return Response::State(id.to_owned(), JobState::Done(record.clone()))
                }
                RouteState::Terminal(JobOutcome::Failed(error)) => {
                    return Response::State(id.to_owned(), JobState::Failed(error.clone()))
                }
                RouteState::Terminal(JobOutcome::Partial(detail)) => {
                    return Response::State(id.to_owned(), JobState::Partial(detail.clone()))
                }
                _ => state.members.get(&job.member).map(|m| m.addr.clone()),
            },
        }
    };
    let Some(addr) = addr else {
        return zeros(id);
    };
    let relayed = Client::connect(addr.as_str(), service.member_timeout())
        .and_then(|mut client| client.call(&Request::Progress(id.to_owned())));
    match relayed {
        Ok(response @ (Response::Progress { .. } | Response::State(..))) => response,
        _ => zeros(id),
    }
}

/// Adds a member, or moves an existing member to a new address (a
/// daemon restarting on an ephemeral port rejoins under its name, so
/// the ring — keyed by name — moves nothing).
fn handle_join(service: &RouterService, name: &str, addr: &str) -> RouterResponse {
    if let Err(reason) = validate_member_name(name) {
        return RouterResponse::Core(Response::rejected(RejectCode::Malformed, reason));
    }
    let mut state = service.lock_state();
    let appended = {
        let mut journal = service.lock_journal();
        journal.append(&RouterRecord::Member {
            name: name.to_owned(),
            addr: addr.to_owned(),
        })
    };
    if let Err(e) = appended {
        return RouterResponse::Core(Response::rejected(
            RejectCode::Journal,
            format!("journal write failed: {e}"),
        ));
    }
    let fresh_breaker = CircuitBreaker::new(
        service.config.breaker_threshold,
        service.config.breaker_cooloff,
    );
    match state.members.get_mut(name) {
        Some(member) => {
            member.addr = addr.to_owned();
            // A rejoining member starts with a clean slate; the prober
            // re-ejects it quickly if it is still sick.
            member.breaker = fresh_breaker;
        }
        None => {
            state.members.insert(
                name.to_owned(),
                Member {
                    addr: addr.to_owned(),
                    breaker: fresh_breaker,
                },
            );
            state.order.push(name.to_owned());
            state.ring.insert(name);
        }
    }
    service.wake.notify_all();
    RouterResponse::Joined(name.to_owned())
}

/// Removes an idle member. Refused while the member owns non-terminal
/// bindings — those jobs may live in its WAL, and abandoning them
/// would either lose acked work or re-run it elsewhere.
fn handle_leave(service: &RouterService, name: &str) -> RouterResponse {
    let mut state = service.lock_state();
    if !state.members.contains_key(name) {
        return RouterResponse::Core(Response::rejected(
            RejectCode::Other,
            format!("unknown member {name:?}"),
        ));
    }
    let bound = state.bound_count(name);
    if bound > 0 {
        return RouterResponse::Core(Response::rejected(
            RejectCode::Other,
            format!("member {name} still owns {bound} in-flight jobs; drain them first"),
        ));
    }
    let appended = {
        let mut journal = service.lock_journal();
        journal.append(&RouterRecord::Left {
            name: name.to_owned(),
        })
    };
    if let Err(e) = appended {
        return RouterResponse::Core(Response::rejected(
            RejectCode::Journal,
            format!("journal write failed: {e}"),
        ));
    }
    state.members.remove(name);
    state.order.retain(|n| n != name);
    state.ring.remove(name);
    RouterResponse::Left(name.to_owned())
}

/// Maps router state onto the plain serve `health` snapshot so
/// unmodified serve clients can monitor a fleet: `queued` counts
/// unconfirmed bindings, `running` confirmed ones. Rebinds and
/// per-member breaker states live in the `fleet` verb.
fn synthesize_health(service: &RouterService) -> HealthSnapshot {
    let state = service.lock_state();
    let (mut unconfirmed, mut confirmed) = (0, 0);
    for job in state.jobs.values() {
        match job.state {
            RouteState::Routed | RouteState::Sent => unconfirmed += 1,
            RouteState::Acked => confirmed += 1,
            RouteState::Terminal(_) => {}
        }
    }
    HealthSnapshot {
        accepting: !state.draining && !state.shutdown,
        queued: unconfirmed,
        running: confirmed,
        accepted: state.stats.routed,
        completed: state.stats.completed,
        failed: state.stats.failed,
        partials: state.stats.partials,
        // Routers relay shot sweeps, never execute them: no batches of
        // their own, and nothing to checkpoint.
        batches: 0,
        checkpointing: false,
        shed: state.stats.shed,
        duplicates: state.stats.duplicates,
    }
}

fn fleet_snapshot(service: &RouterService) -> FleetSnapshot {
    let state = service.lock_state();
    let members = state
        .order
        .iter()
        .filter_map(|name| {
            let member = state.members.get(name)?;
            Some(MemberHealth {
                name: name.clone(),
                addr: member.addr.clone(),
                breaker: member.breaker.state(),
                bound: state.bound_count(name),
            })
        })
        .collect();
    FleetSnapshot {
        accepting: !state.draining && !state.shutdown,
        inflight: state.inflight as u64,
        routed: state.stats.routed,
        acked: state.stats.acked,
        completed: state.stats.completed,
        failed: state.stats.failed,
        partials: state.stats.partials,
        shed: state.stats.shed,
        duplicates: state.stats.duplicates,
        rebinds: state.stats.rebinds,
        members,
    }
}

/// Stops admission, waits for every binding to settle, then shuts the
/// router down (the caller pokes the accept loop afterwards).
fn handle_drain(service: &RouterService) {
    let mut state = service.lock_state();
    state.draining = true;
    service.wake.notify_all();
    while state.inflight > 0 {
        state = service.wake.wait(state).expect("state lock");
    }
    state.shutdown = true;
    service.wake.notify_all();
}

/// Health-checks every member on a fixed interval, one breaker per
/// member. Probes are collected under the lock (consuming half-open
/// probe slots synchronously, so a breaker never sticks in half-open),
/// executed off-lock, and applied back under the lock — skipping
/// members that left or moved mid-probe.
fn probe_loop(service: &RouterService) {
    loop {
        let probes: Vec<(String, String)> = {
            let mut state = service.lock_state();
            if state.shutdown {
                return;
            }
            let now = Instant::now();
            let names = state.order.clone();
            names
                .into_iter()
                .filter_map(|name| {
                    let member = state.members.get_mut(&name)?;
                    member
                        .breaker
                        .allow(now)
                        .then(|| (name, member.addr.clone()))
                })
                .collect()
        };
        let results: Vec<(String, String, bool)> = probes
            .into_iter()
            .map(|(name, addr)| {
                let healthy = probe_member(&addr, service.config.io_timeout);
                (name, addr, healthy)
            })
            .collect();
        {
            let mut state = service.lock_state();
            let now = Instant::now();
            let mut recovered = false;
            for (name, addr, healthy) in results {
                let Some(member) = state.members.get_mut(&name) else {
                    continue;
                };
                if member.addr != addr {
                    continue;
                }
                if healthy {
                    recovered |= member.breaker.state() != BreakerState::Closed;
                    member.breaker.record_success();
                } else {
                    member.breaker.record_failure(now);
                }
            }
            if recovered {
                // Parked work may be deliverable again.
                service.wake.notify_all();
            }
        }
        let state = service.lock_state();
        if state.shutdown {
            return;
        }
        let _ = service
            .wake
            .wait_timeout(state, service.config.probe_interval)
            .expect("state lock");
    }
}

/// One health probe: a member is healthy when it answers and accepts
/// (a draining daemon must not receive new bindings).
fn probe_member(addr: &str, timeout: Duration) -> bool {
    let Ok(mut client) = Client::connect(addr, Some(timeout)) else {
        return false;
    };
    matches!(
        client.call(&Request::Health),
        Ok(Response::Health(snapshot)) if snapshot.accepting
    )
}

enum ResolveAction {
    Deliver,
    Poll { member: String, addr: String },
}

/// Walks non-terminal bindings whose member is live: unconfirmed ones
/// get a delivery attempt, confirmed ones a result poll. This is the
/// thread that finishes recovered orphans and parked jobs.
fn resolve_loop(service: &RouterService) {
    loop {
        let work: Vec<(String, ResolveAction)> = {
            let mut state = service.lock_state();
            if state.shutdown {
                return;
            }
            let live = state.live_members();
            let mut work = Vec::new();
            for (id, job) in &state.jobs {
                if job.delivering || job.state.is_terminal() || !live.contains(&job.member) {
                    continue;
                }
                let action = match job.state {
                    RouteState::Routed | RouteState::Sent => ResolveAction::Deliver,
                    RouteState::Acked => {
                        let Some(member) = state.members.get(&job.member) else {
                            continue;
                        };
                        ResolveAction::Poll {
                            member: job.member.clone(),
                            addr: member.addr.clone(),
                        }
                    }
                    RouteState::Terminal(_) => continue,
                };
                work.push((id.clone(), action));
            }
            for (id, _) in &work {
                state.jobs.get_mut(id).expect("job exists").delivering = true;
            }
            work
        };
        for (id, action) in work {
            match action {
                ResolveAction::Deliver => {
                    // Parks (never unroutes) on exhaustion: a transient
                    // total outage must not abandon an admitted job.
                    let _ = deliver(service, &id, false);
                }
                ResolveAction::Poll { member, addr } => {
                    poll_member(service, &id, &member, &addr);
                    let mut state = service.lock_state();
                    if let Some(job) = state.jobs.get_mut(&id) {
                        job.delivering = false;
                    }
                }
            }
        }
        let state = service.lock_state();
        if state.shutdown {
            return;
        }
        let _ = service
            .wake
            .wait_timeout(state, service.config.resolve_interval)
            .expect("state lock");
    }
}

/// Polls one confirmed binding for its terminal outcome.
fn poll_member(service: &RouterService, id: &str, member: &str, addr: &str) {
    let relayed = Client::connect(addr, service.member_timeout())
        .and_then(|mut client| client.call(&Request::Query(id.to_owned())));
    match relayed {
        Ok(Response::State(_, JobState::Done(record))) => {
            record_terminal(service, id, JobOutcome::Done(record));
        }
        Ok(Response::State(_, JobState::Failed(error))) => {
            record_terminal(service, id, JobOutcome::Failed(error));
        }
        Ok(Response::State(_, JobState::Partial(detail))) => {
            record_terminal(service, id, JobOutcome::Partial(detail));
        }
        Ok(Response::State(_, _)) => {}
        Ok(Response::Rejected(rejection)) if rejection.code == RejectCode::Pruned => {
            let outcome = JobOutcome::Failed(format!("member {member}: {rejection}"));
            record_terminal(service, id, outcome);
        }
        Ok(Response::Rejected(rejection)) if rejection.code == RejectCode::UnknownJob => {
            // An acked job the member does not know means its WAL was
            // lost — exactly-once can no longer be proven for this id.
            eprintln!(
                "warning: member {member} lost acked job {id} ({rejection}); leaving it bound"
            );
        }
        // Slow or freshly-dead member: the next pass retries.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exactly-once hinge: only post-dedup codes may move a
    /// binding off a member that an earlier attempt already
    /// transmitted to. A connection-level `busy` shed runs no dedup
    /// check, so treating it as a refusal after `sent` would let the
    /// job run on both the old member (via WAL recovery) and the new.
    #[test]
    fn pre_dedup_rejections_park_once_transmitted() {
        for code in [
            RejectCode::Busy,
            RejectCode::Malformed,
            RejectCode::UnknownJob,
            RejectCode::Unavailable,
        ] {
            assert_eq!(
                classify_rejection(code, true),
                RejectionClass::Parked,
                "{code:?} after sent must park"
            );
            assert_eq!(
                classify_rejection(code, false),
                RejectionClass::Refused,
                "{code:?} before any transmission proves non-delivery"
            );
        }
    }

    #[test]
    fn post_dedup_refusals_rebind_even_after_sent() {
        for code in [
            RejectCode::Overloaded,
            RejectCode::Draining,
            RejectCode::Degraded,
        ] {
            for transmitted in [false, true] {
                assert_eq!(
                    classify_rejection(code, transmitted),
                    RejectionClass::Refused,
                    "{code:?} proves the id is not in the member's WAL"
                );
            }
        }
    }

    #[test]
    fn ambiguous_and_terminal_codes_ignore_transmission_state() {
        for transmitted in [false, true] {
            // A failed member-side journal append may still have
            // reached its disk; unknown free-text reasons prove
            // nothing either way.
            assert_eq!(
                classify_rejection(RejectCode::Journal, transmitted),
                RejectionClass::Parked
            );
            assert_eq!(
                classify_rejection(RejectCode::Other, transmitted),
                RejectionClass::Parked
            );
            assert_eq!(
                classify_rejection(RejectCode::Pruned, transmitted),
                RejectionClass::Terminated
            );
        }
    }

    #[test]
    fn retry_backoff_is_capped_deterministic_and_jittered() {
        let config = RouterConfig::default();
        for retry in 0..8 {
            let pause = retry_backoff(&config, "job-a", retry);
            // Deterministic: same (seed, id, retry) → same pause.
            assert_eq!(pause, retry_backoff(&config, "job-a", retry));
            // Jitter stays within [0.5, 1.5) of the capped exponential.
            let nominal = config
                .retry_base
                .saturating_mul(1 << retry)
                .min(config.retry_cap);
            assert!(pause >= nominal.mul_f64(0.5), "retry {retry}: {pause:?}");
            assert!(pause < nominal.mul_f64(1.5), "retry {retry}: {pause:?}");
        }
        // The cap binds: deep retries stop growing.
        assert!(retry_backoff(&config, "job-a", 30) <= config.retry_cap.mul_f64(1.5));
        // Different jobs de-synchronize.
        assert_ne!(
            retry_backoff(&config, "job-a", 0),
            retry_backoff(&config, "job-b", 0)
        );
    }
}
