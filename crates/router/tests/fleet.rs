//! In-process integration tests for the fleet router: real TCP
//! listeners, real `qpdo_serve::daemon::serve` threads behind a real
//! [`qpdo_router::router::run`] thread, and the framed router protocol
//! in between. Process-level drills (SIGKILL of members and the
//! router) live in the `router_chaos` binary; these tests cover the
//! same invariants where a process boundary is not required.

use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use qpdo_core::CancelToken;
use qpdo_router::journal::{recover as recover_bindings, RouteState, RouterJournal, RouterRecord};
use qpdo_router::protocol::{RouterClient, RouterRequest, RouterResponse};
use qpdo_router::router::{run, RouterConfig, RouterStats};
use qpdo_serve::daemon::{serve, DaemonConfig, ServeStats};
use qpdo_serve::job::{execute, job_seed, JobKind, JobSpec};
use qpdo_serve::protocol::{JobState, RejectCode, Request, Response};
use qpdo_serve::wal::JobOutcome;

const TIMEOUT: Duration = Duration::from_secs(60);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpdo-fleet-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    dir
}

/// A fast-probing router config so tests never wait on defaults.
fn test_config() -> RouterConfig {
    RouterConfig {
        probe_interval: Duration::from_millis(30),
        resolve_interval: Duration::from_millis(30),
        breaker_cooloff: Duration::from_millis(150),
        ..RouterConfig::default()
    }
}

struct TestDaemon {
    name: String,
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<ServeStats>>,
}

impl TestDaemon {
    fn start(name: &str, wal_dir: &Path, config: DaemonConfig) -> TestDaemon {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon listener");
        let addr = listener.local_addr().expect("daemon address");
        let wal_dir = wal_dir.to_path_buf();
        let handle = thread::spawn(move || serve(listener, &wal_dir, config));
        TestDaemon {
            name: name.to_owned(),
            addr,
            handle,
        }
    }

    fn drain(self) -> ServeStats {
        let mut client =
            qpdo_serve::protocol::Client::connect(self.addr, Some(TIMEOUT)).expect("connect");
        assert_eq!(
            client.call(&Request::Drain).expect("drain call"),
            Response::Drained
        );
        self.handle
            .join()
            .expect("serve thread panicked")
            .expect("serve returned an error")
    }
}

struct TestRouter {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<RouterStats>>,
}

impl TestRouter {
    fn start(
        journal_dir: &Path,
        backends: &[(String, SocketAddr)],
        config: RouterConfig,
    ) -> TestRouter {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind router listener");
        let addr = listener.local_addr().expect("router address");
        let journal_dir = journal_dir.to_path_buf();
        let backends: Vec<(String, String)> = backends
            .iter()
            .map(|(name, addr)| (name.clone(), addr.to_string()))
            .collect();
        let handle = thread::spawn(move || run(listener, &journal_dir, &backends, config));
        TestRouter { addr, handle }
    }

    fn client(&self) -> RouterClient {
        RouterClient::connect(self.addr, Some(TIMEOUT)).expect("connect to test router")
    }

    fn submit(&self, spec: &JobSpec) -> Response {
        match self
            .client()
            .call(&RouterRequest::Core(Request::Submit(spec.clone())))
            .expect("submit call")
        {
            RouterResponse::Core(response) => response,
            other => panic!("submit answered {other:?}"),
        }
    }

    fn wait_terminal(&self, id: &str) -> JobState {
        let deadline = Instant::now() + TIMEOUT;
        let mut client = self.client();
        loop {
            match client
                .call(&RouterRequest::Core(Request::Query(id.to_owned())))
                .expect("query call")
            {
                RouterResponse::Core(Response::State(
                    _,
                    state @ (JobState::Done(_) | JobState::Failed(_) | JobState::Partial(_)),
                )) => return state,
                RouterResponse::Core(Response::State(..)) => {}
                other => panic!("query {id} answered {other:?}"),
            }
            assert!(Instant::now() < deadline, "job {id} never became terminal");
            thread::sleep(Duration::from_millis(20));
        }
    }

    fn drain(self) -> RouterStats {
        let response = self
            .client()
            .call(&RouterRequest::Core(Request::Drain))
            .expect("drain call");
        assert_eq!(response, RouterResponse::Core(Response::Drained));
        self.handle
            .join()
            .expect("router thread panicked")
            .expect("router returned an error")
    }
}

fn bell(id: &str, shots: u64) -> JobSpec {
    JobSpec {
        id: id.to_owned(),
        deadline_ms: None,
        kind: JobKind::Bell { shots },
    }
}

/// A compute-heavy generic-distance surface-code LER job (the
/// union-find-decoded kind), small enough for a test fleet.
fn surface(id: &str, d: usize, per: f64, shots: u64) -> JobSpec {
    JobSpec {
        id: id.to_owned(),
        deadline_ms: None,
        kind: JobKind::LerSurface { d, per, shots },
    }
}

fn golden(seed: u64, spec: &JobSpec) -> String {
    execute(
        &spec.kind,
        spec.kind.backend(),
        job_seed(seed, &spec.id),
        &CancelToken::new(),
    )
    .expect("golden execution")
}

/// Three daemons sharing a base seed behind one router.
fn fleet(
    tag: &str,
    daemons: usize,
    config: DaemonConfig,
) -> (Vec<TestDaemon>, TestRouter, PathBuf) {
    let members: Vec<TestDaemon> = (0..daemons)
        .map(|i| {
            TestDaemon::start(
                &format!("d{i}"),
                &fresh_dir(&format!("{tag}-d{i}")),
                config.clone(),
            )
        })
        .collect();
    let journal_dir = fresh_dir(&format!("{tag}-router"));
    let backends: Vec<(String, SocketAddr)> =
        members.iter().map(|m| (m.name.clone(), m.addr)).collect();
    let router = TestRouter::start(&journal_dir, &backends, test_config());
    (members, router, journal_dir)
}

#[test]
fn submit_routes_queries_relay_and_resubmits_deduplicate() {
    let config = DaemonConfig::default();
    let seed = config.base_seed;
    let (members, router, journal_dir) = fleet("roundtrip", 3, config);

    // A mixed workload: every third job is the compute-heavy
    // union-find-decoded surface kind, the rest are Bell histograms.
    let specs: Vec<JobSpec> = (0..9)
        .map(|i| {
            if i % 3 == 0 {
                surface(&format!("rt-{i}"), 5, 0.08, 128)
            } else {
                bell(&format!("rt-{i}"), 4)
            }
        })
        .collect();
    for spec in &specs {
        assert_eq!(router.submit(spec), Response::Accepted(spec.id.clone()));
    }
    for spec in &specs {
        assert_eq!(
            router.submit(spec),
            Response::Duplicate(spec.id.clone()),
            "an id is a fleet-wide idempotency key"
        );
    }
    for spec in &specs {
        let JobState::Done(record) = router.wait_terminal(&spec.id) else {
            panic!("{} did not complete", spec.id);
        };
        assert_eq!(record, golden(seed, spec));
    }

    // Unknown ids are answered, not relayed into the void.
    match router
        .client()
        .call(&RouterRequest::Core(Request::Query("no-such".to_owned())))
        .unwrap()
    {
        RouterResponse::Core(Response::Rejected(reason)) => {
            assert_eq!(reason.code, RejectCode::UnknownJob, "{reason:?}");
        }
        other => panic!("unknown-id query answered {other:?}"),
    }

    // The fleet verb exposes per-member health and routing counters.
    match router.client().call(&RouterRequest::Fleet).unwrap() {
        RouterResponse::Fleet(snapshot) => {
            assert!(snapshot.accepting);
            assert_eq!(snapshot.members.len(), 3);
            assert_eq!(snapshot.routed, 9);
            assert_eq!(snapshot.acked, 9);
            assert_eq!(snapshot.duplicates, 9);
            let names: HashSet<&str> = snapshot.members.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, HashSet::from(["d0", "d1", "d2"]));
        }
        other => panic!("fleet request answered {other:?}"),
    }

    // The synthesized health snapshot keeps plain shot-service clients
    // working against the router unchanged.
    match router
        .client()
        .call(&RouterRequest::Core(Request::Health))
        .unwrap()
    {
        RouterResponse::Core(Response::Health(health)) => {
            assert!(health.accepting);
            assert_eq!(health.accepted, 9);
        }
        other => panic!("health request answered {other:?}"),
    }

    let stats = router.drain();
    assert_eq!(stats.routed, 9);
    assert_eq!(stats.acked, 9);
    assert_eq!(stats.completed, 9);
    assert_eq!(stats.duplicates, 9);

    // Every job landed on exactly one member.
    let mut held = 0;
    for member in members {
        held += member.drain().accepted;
    }
    assert_eq!(held, 9, "each job must be held by exactly one member");
    let _ = std::fs::remove_dir_all(&journal_dir);
}

#[test]
fn journaled_bindings_resolve_without_a_resubmit() {
    // Hand-build the journal a crashed router would leave behind: a
    // member record and a binding that was routed but never delivered.
    // The rebuilt router must push the job to its bound member and
    // drive it to completion with no client involvement.
    let config = DaemonConfig::default();
    let seed = config.base_seed;
    let daemon = TestDaemon::start("d0", &fresh_dir("orphan-d0"), config);
    let journal_dir = fresh_dir("orphan-router");

    let routed = bell("orphan-1", 3);
    let sent = bell("orphan-2", 3);
    {
        let (mut journal, _) =
            RouterJournal::open(&journal_dir, RouterJournal::DEFAULT_MAX_SEGMENT_BYTES).unwrap();
        journal
            .append(&RouterRecord::Member {
                name: "d0".to_owned(),
                addr: daemon.addr.to_string(),
            })
            .unwrap();
        journal
            .append(&RouterRecord::Route {
                spec: routed.clone(),
                member: "d0".to_owned(),
            })
            .unwrap();
        journal
            .append(&RouterRecord::Route {
                spec: sent.clone(),
                member: "d0".to_owned(),
            })
            .unwrap();
        // A binding that died mid-transmission: parked on its member.
        journal
            .append(&RouterRecord::Sent {
                id: sent.id.clone(),
            })
            .unwrap();
    }

    // No --backend seeds: the journal alone rebuilds the fleet.
    let router = TestRouter::start(&journal_dir, &[], test_config());
    for spec in [&routed, &sent] {
        let JobState::Done(record) = router.wait_terminal(&spec.id) else {
            panic!("{} was never resolved", spec.id);
        };
        assert_eq!(record, golden(seed, spec));
        assert_eq!(
            router.submit(spec),
            Response::Duplicate(spec.id.clone()),
            "a recovered binding is already acked fleet-wide"
        );
    }

    let stats = router.drain();
    assert_eq!(stats.completed, 2);
    let stats = daemon.drain();
    assert_eq!(stats.accepted, 2, "both bindings landed on the member");
    let _ = std::fs::remove_dir_all(&journal_dir);
}

#[test]
fn join_and_leave_rebalance_a_live_fleet() {
    let config = DaemonConfig::default();
    let seed = config.base_seed;
    let (mut members, router, journal_dir) = fleet("joinleave", 1, config.clone());

    // A second member joins live.
    let d1 = TestDaemon::start("d1", &fresh_dir("joinleave-d1"), config);
    match router
        .client()
        .call(&RouterRequest::Join {
            name: "d1".to_owned(),
            addr: d1.addr.to_string(),
        })
        .unwrap()
    {
        RouterResponse::Joined(name) => assert_eq!(name, "d1"),
        other => panic!("join answered {other:?}"),
    }
    members.push(d1);

    // Bad admin requests are answered, not crashed on.
    match router
        .client()
        .call(&RouterRequest::Leave {
            name: "ghost".to_owned(),
        })
        .unwrap()
    {
        RouterResponse::Core(Response::Rejected(reason)) => {
            assert!(reason.detail.contains("unknown member"), "{reason:?}");
        }
        other => panic!("leave of a ghost answered {other:?}"),
    }
    match router
        .client()
        .call(&RouterRequest::Join {
            name: "bad name".to_owned(),
            addr: "127.0.0.1:1".to_owned(),
        })
        .unwrap()
    {
        RouterResponse::Core(Response::Rejected(_)) => {}
        other => panic!("join with a bad name answered {other:?}"),
    }

    let specs: Vec<JobSpec> = (0..8).map(|i| bell(&format!("jl-{i}"), 3)).collect();
    for spec in &specs {
        assert_eq!(router.submit(spec), Response::Accepted(spec.id.clone()));
    }
    for spec in &specs {
        let JobState::Done(record) = router.wait_terminal(&spec.id) else {
            panic!("{} did not complete", spec.id);
        };
        assert_eq!(record, golden(seed, spec));
    }

    // With every binding terminal, d1 may leave; its ranges fall back.
    match router
        .client()
        .call(&RouterRequest::Leave {
            name: "d1".to_owned(),
        })
        .unwrap()
    {
        RouterResponse::Left(name) => assert_eq!(name, "d1"),
        other => panic!("leave answered {other:?}"),
    }
    match router.client().call(&RouterRequest::Fleet).unwrap() {
        RouterResponse::Fleet(snapshot) => assert_eq!(snapshot.members.len(), 1),
        other => panic!("fleet request answered {other:?}"),
    }
    let post = bell("jl-post", 3);
    assert_eq!(router.submit(&post), Response::Accepted(post.id.clone()));
    let JobState::Done(record) = router.wait_terminal(&post.id) else {
        panic!("post-leave job did not complete");
    };
    assert_eq!(record, golden(seed, &post));

    router.drain();
    for member in members {
        member.drain();
    }
    let _ = std::fs::remove_dir_all(&journal_dir);
}

#[test]
fn admission_control_sheds_past_max_inflight() {
    let config = DaemonConfig {
        jobs: 1,
        chaos_stall: Duration::from_millis(300),
        ..DaemonConfig::default()
    };
    let seed = config.base_seed;
    let daemons: Vec<TestDaemon> = (0..2)
        .map(|i| {
            TestDaemon::start(
                &format!("d{i}"),
                &fresh_dir(&format!("shed-d{i}")),
                config.clone(),
            )
        })
        .collect();
    let journal_dir = fresh_dir("shed-router");
    let backends: Vec<(String, SocketAddr)> =
        daemons.iter().map(|m| (m.name.clone(), m.addr)).collect();
    let router = TestRouter::start(
        &journal_dir,
        &backends,
        RouterConfig {
            max_inflight: 2,
            ..test_config()
        },
    );

    let mut accepted = Vec::new();
    let mut shed = 0;
    for i in 0..6 {
        let spec = bell(&format!("shed-{i}"), 2);
        match router.submit(&spec) {
            Response::Accepted(_) => accepted.push(spec),
            Response::Rejected(reason) => {
                assert_eq!(reason.code, RejectCode::Overloaded, "{reason:?}");
                shed += 1;
            }
            other => panic!("burst submit answered {other:?}"),
        }
    }
    assert!(
        shed >= 1,
        "a 2-job inflight cap must shed part of a 6 burst"
    );
    assert!(!accepted.is_empty(), "some of the burst must be admitted");
    for spec in &accepted {
        let JobState::Done(record) = router.wait_terminal(&spec.id) else {
            panic!("{} did not complete", spec.id);
        };
        assert_eq!(record, golden(seed, spec));
    }
    let stats = router.drain();
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.completed, accepted.len() as u64);
    for daemon in daemons {
        daemon.drain();
    }
    let _ = std::fs::remove_dir_all(&journal_dir);
}

#[test]
fn an_empty_fleet_rejects_rather_than_hangs() {
    let journal_dir = fresh_dir("empty-router");
    let router = TestRouter::start(&journal_dir, &[], test_config());
    match router.submit(&bell("nowhere-1", 2)) {
        Response::Rejected(reason) => {
            assert_eq!(reason.code, RejectCode::Unavailable, "{reason:?}");
            assert!(reason.detail.contains("no live fleet member"), "{reason:?}");
        }
        other => panic!("empty-fleet submit answered {other:?}"),
    }
    let stats = router.drain();
    assert_eq!(stats.shed, 1);
    let _ = std::fs::remove_dir_all(&journal_dir);
}

/// Tentpole (PR 10): a deadline that lands mid-sweep delivers an
/// anytime `partial` terminal through the router instead of a bare
/// failure. The fleet treats the partial exactly like `done` for
/// exactly-once accounting — one terminal binding in the router
/// journal, one `partials` tick fleet-wide — and the `progress` verb
/// relays live completed-batch counts from the bound member while the
/// sweep is still running.
#[test]
fn deadline_partial_is_a_delivered_terminal_fleet_wide() {
    let config = DaemonConfig::default();
    let (members, router, journal_dir) = fleet("partial", 1, config);

    // A surface sweep far too large for its deadline: the member must
    // stop at expiry and deliver the completed prefix as a partial.
    let mut spec = surface("partial-1", 11, 0.05, 1_000_000);
    spec.deadline_ms = Some(600);
    assert_eq!(router.submit(&spec), Response::Accepted(spec.id.clone()));

    // Live progress relays from the bound member mid-run.
    let mut saw_live_progress = false;
    let mut client = router.client();
    let poll_deadline = Instant::now() + TIMEOUT;
    while Instant::now() < poll_deadline {
        match client
            .call(&RouterRequest::Core(Request::Progress(spec.id.clone())))
            .expect("progress call")
        {
            RouterResponse::Core(Response::Progress { batches, shots, .. }) => {
                if batches > 0 {
                    assert!(shots > 0, "a completed batch carries shots");
                    saw_live_progress = true;
                    break;
                }
            }
            // Already terminal: the sweep outran the poll loop.
            RouterResponse::Core(Response::State(..)) => break,
            other => panic!("progress answered {other:?}"),
        }
        thread::sleep(Duration::from_millis(5));
    }
    assert!(
        saw_live_progress,
        "never observed live progress before the deadline"
    );

    let state = router.wait_terminal(&spec.id);
    let JobState::Partial(detail) = state else {
        panic!("deadline sweep ended as {state:?}, expected a partial");
    };
    // detail = "{shots} {target} {failures} {ci_lo} {ci_hi}"
    let fields: Vec<&str> = detail.split_whitespace().collect();
    assert_eq!(fields.len(), 5, "partial detail {detail:?}");
    let shots: u64 = fields[0].parse().expect("completed shots");
    let target: u64 = fields[1].parse().expect("target shots");
    let failures: u64 = fields[2].parse().expect("failures");
    let lo: f64 = fields[3].parse().expect("ci low");
    let hi: f64 = fields[4].parse().expect("ci high");
    assert!(shots > 0, "a partial must carry completed work: {detail}");
    assert!(shots < target, "{detail}");
    assert!(failures <= shots, "{detail}");
    assert!(
        (0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0,
        "the Wilson interval must be a sane probability range: {detail}"
    );

    // After the terminal, `progress` answers with the cached state.
    match client
        .call(&RouterRequest::Core(Request::Progress(spec.id.clone())))
        .expect("post-terminal progress call")
    {
        RouterResponse::Core(Response::State(_, JobState::Partial(cached))) => {
            assert_eq!(cached, detail);
        }
        other => panic!("post-terminal progress answered {other:?}"),
    }

    // Fleet-wide accounting: the partial is a delivered terminal.
    match router.client().call(&RouterRequest::Fleet).unwrap() {
        RouterResponse::Fleet(snapshot) => {
            assert_eq!(snapshot.partials, 1);
            assert_eq!(snapshot.completed, 0);
        }
        other => panic!("fleet request answered {other:?}"),
    }

    let stats = router.drain();
    assert_eq!(stats.partials, 1);
    assert_eq!(stats.completed, 0);
    for member in members {
        assert_eq!(member.drain().partials, 1);
    }

    // Exactly-once audit: the router journal holds exactly one
    // terminal binding for the job, and it is the partial.
    let bindings = recover_bindings(&journal_dir).expect("router journal readable");
    assert!(
        bindings.is_consistent(),
        "router journal: duplicate terminals {:?}",
        bindings.duplicate_terminals
    );
    let terminals: Vec<_> = bindings
        .jobs()
        .iter()
        .filter(|j| j.spec.id == spec.id)
        .collect();
    assert_eq!(terminals.len(), 1, "exactly one binding for the job");
    match &terminals[0].state {
        RouteState::Terminal(JobOutcome::Partial(journaled)) => assert_eq!(journaled, &detail),
        other => panic!("binding for {} is {other:?}", spec.id),
    }
    let _ = std::fs::remove_dir_all(&journal_dir);
}

/// Satellite (PR 8): a member whose port refuses connections — nothing
/// ever transmitted — used to shed the submit as `unavailable` after a
/// single instant candidate walk. The capped-backoff retry re-walks
/// instead, bridging a member restart window.
#[test]
fn submit_retries_bridge_a_member_restart_window() {
    // Reserve a port, then close it: every connect is refused until
    // the daemon binds it again below.
    let placeholder = TcpListener::bind("127.0.0.1:0").expect("reserve member port");
    let member_addr = placeholder.local_addr().expect("member address");
    drop(placeholder);

    let journal_dir = fresh_dir("retry-router");
    let mut config = test_config();
    config.submit_retries = 8;
    config.retry_base = Duration::from_millis(40);
    config.retry_cap = Duration::from_millis(120);
    let router = TestRouter::start(&journal_dir, &[("d0".to_owned(), member_addr)], config);

    let daemon_config = DaemonConfig::default();
    let seed = daemon_config.base_seed;
    let wal_dir = fresh_dir("retry-d0");
    let daemon: JoinHandle<std::io::Result<ServeStats>> = thread::spawn(move || {
        // Come up mid-retry: the submit's first walk(s) get connection
        // refusals on a binding that never reached `sent`.
        thread::sleep(Duration::from_millis(100));
        let listener = TcpListener::bind(member_addr).expect("rebind the member port");
        serve(listener, &wal_dir, daemon_config)
    });

    let spec = bell("retry-0", 4);
    assert_eq!(
        router.submit(&spec),
        Response::Accepted(spec.id.clone()),
        "the backoff walk should bridge the restart window instead of shedding"
    );
    assert_eq!(
        router.wait_terminal(&spec.id),
        JobState::Done(golden(seed, &spec))
    );

    let stats = router.drain();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.shed, 0, "no shed: the retry absorbed the refusals");
    let mut member =
        qpdo_serve::protocol::Client::connect(member_addr, Some(TIMEOUT)).expect("connect member");
    assert_eq!(
        member.call(&Request::Drain).expect("drain member"),
        Response::Drained
    );
    daemon
        .join()
        .expect("daemon thread panicked")
        .expect("daemon returned an error");
    let _ = std::fs::remove_dir_all(&journal_dir);
}
