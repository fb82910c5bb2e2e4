//! In-process integration tests for the shot-service daemon: a real
//! TCP listener and journal directory, with [`qpdo_serve::daemon::serve`]
//! running on a test thread and the framed protocol client talking to
//! it. Process-level crash drills (SIGKILL and restart) live in the
//! `serve_chaos` binary; these tests cover the same invariants where a
//! process boundary is not required.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use qpdo_core::journal::{read_records, Record as _};
use qpdo_core::CancelToken;
use qpdo_serve::daemon::{serve, DaemonConfig, ServeStats};
use qpdo_serve::job::{execute, job_seed, Backend, JobKind, JobSpec};
use qpdo_serve::protocol::{Client, JobState, RejectCode, Request, Response};
use qpdo_serve::wal::{JobOutcome, WalRecord, WriteAheadLog};

const TIMEOUT: Duration = Duration::from_secs(60);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpdo-serve-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    dir
}

struct TestDaemon {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<ServeStats>>,
}

impl TestDaemon {
    fn start(wal_dir: &std::path::Path, config: DaemonConfig) -> TestDaemon {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind test listener");
        let addr = listener.local_addr().expect("listener address");
        let wal_dir = wal_dir.to_path_buf();
        let handle = thread::spawn(move || serve(listener, &wal_dir, config));
        TestDaemon { addr, handle }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr, Some(TIMEOUT)).expect("connect to test daemon")
    }

    fn wait_terminal(&self, id: &str) -> JobState {
        let deadline = Instant::now() + TIMEOUT;
        let mut client = self.client();
        loop {
            match client
                .call(&Request::Query(id.to_owned()))
                .expect("query call")
            {
                Response::State(
                    _,
                    state @ (JobState::Done(_) | JobState::Failed(_) | JobState::Partial(_)),
                ) => {
                    return state;
                }
                Response::State(..) => {}
                other => panic!("query {id} answered {other:?}"),
            }
            assert!(Instant::now() < deadline, "job {id} never became terminal");
            thread::sleep(Duration::from_millis(20));
        }
    }

    fn drain(self) -> ServeStats {
        let response = self.client().call(&Request::Drain).expect("drain call");
        assert_eq!(response, Response::Drained);
        self.handle
            .join()
            .expect("serve thread panicked")
            .expect("serve returned an error")
    }
}

fn bell(id: &str, shots: u64) -> JobSpec {
    JobSpec {
        id: id.to_owned(),
        deadline_ms: None,
        kind: JobKind::Bell { shots },
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

#[test]
fn submit_query_duplicate_and_drain() {
    let dir = fresh_dir("roundtrip");
    let config = DaemonConfig::default();
    let seed = config.base_seed;
    let daemon = TestDaemon::start(&dir, config);
    let mut client = daemon.client();

    let spec = bell("bell-1", 4);
    assert_eq!(
        client.call(&Request::Submit(spec.clone())).unwrap(),
        Response::Accepted("bell-1".to_owned())
    );
    assert_eq!(
        client.call(&Request::Submit(spec.clone())).unwrap(),
        Response::Duplicate("bell-1".to_owned()),
        "an id is an idempotency key"
    );
    match client
        .call(&Request::Query("no-such-job".to_owned()))
        .unwrap()
    {
        Response::Rejected(reason) => assert_eq!(reason.code, RejectCode::UnknownJob),
        other => panic!("unknown-id query answered {other:?}"),
    }

    let JobState::Done(record) = daemon.wait_terminal("bell-1") else {
        panic!("bell-1 did not complete");
    };
    assert_eq!(record, golden(seed, &spec));

    let Response::Health(health) = client.call(&Request::Health).unwrap() else {
        panic!("no health snapshot");
    };
    assert!(health.accepting);
    assert_eq!(health.accepted, 1);
    assert_eq!(health.completed, 1);
    assert_eq!(health.duplicates, 1);

    let stats = daemon.drain();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.duplicates, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_completes_pending_and_never_reexecutes_done() {
    let dir = fresh_dir("recovery");
    let seed = DaemonConfig::default().base_seed;
    let done = bell("done-1", 3);
    let pending = bell("pending-1", 3);

    // Hand-build the journal a crashed daemon would leave behind: one
    // job completed (with a sentinel record no real execution could
    // produce) and one accepted but unfinished.
    {
        let (mut wal, _) =
            WriteAheadLog::open(&dir, WriteAheadLog::DEFAULT_MAX_SEGMENT_BYTES).unwrap();
        wal.append(&WalRecord::Accept(done.clone())).unwrap();
        wal.append(&WalRecord::Accept(pending.clone())).unwrap();
        wal.append(&WalRecord::Complete {
            id: done.id.clone(),
            outcome: JobOutcome::Done("sentinel-not-a-real-record".to_owned()),
        })
        .unwrap();
    }

    let daemon = TestDaemon::start(&dir, DaemonConfig::default());

    // The completed job answers from the journal, not a re-execution:
    // the sentinel would be replaced if it ran again.
    let JobState::Done(record) = daemon.wait_terminal("done-1") else {
        panic!("done-1 lost its terminal state");
    };
    assert_eq!(record, "sentinel-not-a-real-record");

    // The pending job re-executes deterministically.
    let JobState::Done(record) = daemon.wait_terminal("pending-1") else {
        panic!("pending-1 did not recover");
    };
    assert_eq!(record, golden(seed, &pending));

    // Resubmitting either deduplicates — accepted state survived.
    let mut client = daemon.client();
    assert_eq!(
        client.call(&Request::Submit(done)).unwrap(),
        Response::Duplicate("done-1".to_owned())
    );
    assert_eq!(
        client.call(&Request::Submit(pending)).unwrap(),
        Response::Duplicate("pending-1".to_owned())
    );

    let stats = daemon.drain();
    assert_eq!(stats.accepted, 2, "both journaled jobs count as accepted");
    assert_eq!(stats.completed, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn overload_sheds_when_the_queue_is_full() {
    let dir = fresh_dir("overload");
    let config = DaemonConfig {
        jobs: 1,
        queue_depth: 1,
        chaos_stall: Duration::from_millis(300),
        ..DaemonConfig::default()
    };
    let seed = config.base_seed;
    let daemon = TestDaemon::start(&dir, config);
    let mut client = daemon.client();

    let mut accepted = Vec::new();
    let mut shed = 0;
    for i in 0..6 {
        let spec = bell(&format!("burst-{i}"), 2);
        match client.call(&Request::Submit(spec.clone())).unwrap() {
            Response::Accepted(_) => accepted.push(spec),
            Response::Rejected(reason) => {
                assert_eq!(reason.code, RejectCode::Overloaded, "{reason:?}");
                shed += 1;
            }
            other => panic!("burst submit answered {other:?}"),
        }
    }
    assert!(shed >= 1, "a depth-1 queue must shed part of the burst");
    for spec in &accepted {
        let JobState::Done(record) = daemon.wait_terminal(&spec.id) else {
            panic!("{} did not complete", spec.id);
        };
        assert_eq!(record, golden(seed, spec));
    }
    let stats = daemon.drain();
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.completed, accepted.len() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deadlines_cancel_stalled_jobs() {
    let dir = fresh_dir("deadline");
    let config = DaemonConfig {
        jobs: 1,
        chaos_stall: Duration::from_millis(400),
        ..DaemonConfig::default()
    };
    let daemon = TestDaemon::start(&dir, config);
    let mut client = daemon.client();
    let spec = JobSpec {
        id: "late-1".to_owned(),
        deadline_ms: Some(80),
        kind: JobKind::Bell { shots: 2 },
    };
    assert_eq!(
        client.call(&Request::Submit(spec)).unwrap(),
        Response::Accepted("late-1".to_owned())
    );
    let JobState::Failed(error) = daemon.wait_terminal("late-1") else {
        panic!("late-1 must miss its deadline");
    };
    assert!(error.contains("deadline"), "{error:?}");
    let stats = daemon.drain();
    assert_eq!(stats.failed, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A job's deadline cancels that job alone: a long job and a
/// short-deadline job dispatched in the same round (a restart recovers
/// both, so the first round holds both) end with the long job `Done`
/// on its golden record after exactly one dispatch, and the other with
/// its deadline outcome. Every execution stalls far past the deadline,
/// so the deadline lands while both are running.
#[test]
fn a_deadline_cancels_only_its_own_job() {
    let dir = fresh_dir("own-deadline");
    let config = DaemonConfig {
        jobs: 2,
        chaos_stall: Duration::from_millis(300),
        ..DaemonConfig::default()
    };
    let seed = config.base_seed;
    let long = JobSpec {
        id: "long-1".to_owned(),
        deadline_ms: None,
        kind: JobKind::LerSurface {
            d: 5,
            per: 0.08,
            shots: 192,
        },
    };
    let short = JobSpec {
        id: "short-1".to_owned(),
        deadline_ms: Some(100),
        kind: JobKind::Bell { shots: 2 },
    };
    {
        let (mut wal, _) =
            WriteAheadLog::open(&dir, WriteAheadLog::DEFAULT_MAX_SEGMENT_BYTES).unwrap();
        wal.append(&WalRecord::Accept(long.clone())).unwrap();
        wal.append(&WalRecord::Accept(short.clone())).unwrap();
    }
    let daemon = TestDaemon::start(&dir, config);
    let JobState::Failed(error) = daemon.wait_terminal("short-1") else {
        panic!("short-1 must miss its deadline");
    };
    assert!(error.contains("deadline"), "{error:?}");
    let JobState::Done(record) = daemon.wait_terminal("long-1") else {
        panic!("long-1 did not complete");
    };
    assert_eq!(record, golden(seed, &long));
    daemon.drain();
    let recovered = qpdo_serve::wal::recover(&dir).unwrap();
    let job = |id: &str| {
        (recovered.jobs().iter())
            .find(|job| job.spec.id == id)
            .unwrap_or_else(|| panic!("{id} not in the journal"))
    };
    assert_eq!(job("long-1").dispatches, 1, "long-1 was dispatched again");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sliced_ler_job_completes_end_to_end() {
    let dir = fresh_dir("sliced");
    let config = DaemonConfig::default();
    let seed = config.base_seed;
    let daemon = TestDaemon::start(&dir, config);
    let mut client = daemon.client();

    let spec = JobSpec {
        id: "sliced-1".to_owned(),
        deadline_ms: None,
        kind: JobKind::LerSliced {
            per: 0.01,
            kind: qpdo_surface17::experiment::LogicalErrorKind::XL,
            with_pf: true,
            target: 1,
            max_windows: 60,
            // Rounds up to one full 64-lane pass.
            shots: 50,
        },
    };
    assert_eq!(
        client.call(&Request::Submit(spec.clone())).unwrap(),
        Response::Accepted("sliced-1".to_owned())
    );
    let JobState::Done(record) = daemon.wait_terminal("sliced-1") else {
        panic!("sliced-1 did not complete");
    };
    assert_eq!(record, golden(seed, &spec));
    assert!(
        record.starts_with("64 "),
        "executed shots round up to a lane multiple: {record}"
    );
    daemon.drain();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn surface_ler_job_completes_end_to_end() {
    let dir = fresh_dir("surface");
    let config = DaemonConfig::default();
    let seed = config.base_seed;
    let daemon = TestDaemon::start(&dir, config);
    let mut client = daemon.client();

    let spec = JobSpec {
        id: "surface-1".to_owned(),
        deadline_ms: None,
        kind: JobKind::LerSurface {
            d: 5,
            per: 0.08,
            shots: 192,
        },
    };
    assert_eq!(
        client.call(&Request::Submit(spec.clone())).unwrap(),
        Response::Accepted("surface-1".to_owned())
    );
    let JobState::Done(record) = daemon.wait_terminal("surface-1") else {
        panic!("surface-1 did not complete");
    };
    // Service-path record equals direct execution under the job-seed
    // policy, and the decoder actually saw syndromes.
    assert_eq!(record, golden(seed, &spec));
    let fields: Vec<u64> = record
        .split_whitespace()
        .map(|t| t.parse().expect("numeric record field"))
        .collect();
    assert_eq!(fields[0], 192, "all requested shots counted: {record}");
    assert!(fields[2] > 0, "p = 0.08 must fire checks: {record}");
    daemon.drain();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn connections_over_the_cap_are_shed_and_slots_recycle() {
    let dir = fresh_dir("conncap");
    let config = DaemonConfig {
        max_conns: 2,
        ..DaemonConfig::default()
    };
    let daemon = TestDaemon::start(&dir, config);

    // Two idle connections fill both of the event loop's connection
    // slots (each stays in its connection table, waiting for a
    // request); the third is shed at accept and answered `overloaded`
    // instead of getting a slot.
    let held: Vec<Client> = (0..2).map(|_| daemon.client()).collect();
    let mut third = daemon.client();
    match third.call(&Request::Health) {
        Ok(Response::Rejected(reason)) => {
            // The connection-level shed must answer `busy`, never the
            // post-dedup `overloaded`: no request was read, so no
            // dedup check ran (the router's failover keys on this).
            assert_eq!(reason.code, RejectCode::Busy, "{reason:?}");
            assert!(reason.detail.contains("overloaded"), "{reason:?}");
        }
        other => panic!("over-cap connection answered {other:?}"),
    }

    // Releasing a held connection frees its slot (the event loop reads
    // EOF on its next pass and drops the connection from its table
    // shortly after the close).
    drop(held);
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let mut retry = daemon.client();
        match retry.call(&Request::Health) {
            Ok(Response::Health(health)) => {
                assert!(health.accepting);
                break;
            }
            Ok(Response::Rejected(_)) if Instant::now() < deadline => {
                thread::sleep(Duration::from_millis(20));
            }
            other => panic!("recycled slot answered {other:?}"),
        }
    }

    let stats = daemon.drain();
    assert!(stats.shed >= 1, "the over-cap connection counts as shed");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn idle_connections_hit_the_server_side_timeout() {
    let dir = fresh_dir("iotimeout");
    let config = DaemonConfig {
        io_timeout: Duration::from_millis(100),
        ..DaemonConfig::default()
    };
    let daemon = TestDaemon::start(&dir, config);

    // A client that goes quiet past the timeout loses its stream …
    let mut idle = daemon.client();
    thread::sleep(Duration::from_millis(400));
    assert!(
        idle.call(&Request::Health).is_err(),
        "the server must have closed the idle stream"
    );

    // … while the daemon itself stays healthy for new connections.
    let mut fresh = daemon.client();
    match fresh.call(&Request::Health).unwrap() {
        Response::Health(health) => assert!(health.accepting),
        other => panic!("health after a timeout answered {other:?}"),
    }
    daemon.drain();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pruned_terminal_resubmit_is_answered_not_reexecuted() {
    let dir = fresh_dir("pruned-resubmit");
    // Tiny segments + retention of 1 so completions compact the first
    // job out of the journal almost immediately.
    let config = DaemonConfig {
        jobs: 1,
        max_segment_bytes: 64,
        retain_terminal: 1,
        ..DaemonConfig::default()
    };
    let daemon = TestDaemon::start(&dir, config);
    let mut client = daemon.client();

    // Submit → complete.
    let first = bell("pruned-1", 2);
    assert_eq!(
        client.call(&Request::Submit(first.clone())).unwrap(),
        Response::Accepted("pruned-1".to_owned())
    );
    let JobState::Done(_) = daemon.wait_terminal("pruned-1") else {
        panic!("pruned-1 did not complete");
    };

    // Compact past retention: more completions than the journal keeps.
    for i in 0..4 {
        let spec = bell(&format!("filler-{i}"), 2);
        assert_eq!(
            client.call(&Request::Submit(spec.clone())).unwrap(),
            Response::Accepted(spec.id.clone())
        );
        let JobState::Done(_) = daemon.wait_terminal(&spec.id) else {
            panic!("{} did not complete", spec.id);
        };
    }
    let stats = daemon.drain();
    assert_eq!(stats.completed, 5);

    // Restart on the compacted journal: the first job's record is gone,
    // but its id must still be recognized — resubmission is answered
    // deterministically, never silently re-executed.
    let recovery = qpdo_serve::wal::recover(&dir).expect("journal audit");
    assert!(recovery.is_consistent());
    assert!(
        recovery.was_pruned("pruned-1"),
        "retention never pruned the first job; drill setup is broken"
    );
    assert!(!recovery.jobs().iter().any(|j| j.spec.id == "pruned-1"));
    let recovered = recovery.jobs().len() as u64;

    let daemon = TestDaemon::start(&dir, DaemonConfig::default());
    let mut client = daemon.client();
    match client.call(&Request::Submit(first)).unwrap() {
        Response::Rejected(reason) => {
            assert_eq!(reason.code, RejectCode::Pruned, "{reason:?}");
            assert!(reason.detail.contains("terminal"), "{reason:?}");
        }
        other => panic!("pruned resubmit answered {other:?}"),
    }
    let stats = daemon.drain();
    assert_eq!(
        stats.accepted, recovered,
        "the pruned id must not re-enter (only journal-recovered jobs count)"
    );
    assert_eq!(stats.duplicates, 1, "the resubmit counts as a duplicate");

    // Final audit: still consistent, the pruned ledger intact.
    let recovery = qpdo_serve::wal::recover(&dir).expect("journal audit");
    assert!(recovery.is_consistent());
    assert!(recovery.was_pruned("pruned-1"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn drain_completes_inflight_and_rejects_new_with_draining() {
    let dir = fresh_dir("drain-semantics");
    let config = DaemonConfig {
        jobs: 1,
        chaos_stall: Duration::from_millis(300),
        ..DaemonConfig::default()
    };
    let seed = config.base_seed;
    let daemon = TestDaemon::start(&dir, config);
    let mut client = daemon.client();

    // Three in-flight jobs: one running into its stall, two queued.
    let inflight: Vec<JobSpec> = (0..3).map(|i| bell(&format!("infl-{i}"), 2)).collect();
    for spec in &inflight {
        assert_eq!(
            client.call(&Request::Submit(spec.clone())).unwrap(),
            Response::Accepted(spec.id.clone())
        );
    }

    // The drain waiter blocks on its own connection while the queue
    // finishes; the daemon keeps serving everyone else meanwhile.
    let addr = daemon.addr;
    let drainer = thread::spawn(move || {
        let mut drain_client = Client::connect(addr, Some(TIMEOUT)).expect("drain connection");
        drain_client.call(&Request::Drain).expect("drain call")
    });
    // Give the drain frame time to flip the state.
    thread::sleep(Duration::from_millis(100));

    // New work is refused with the typed post-dedup `draining` code …
    match client
        .call(&Request::Submit(bell("late-comer", 2)))
        .unwrap()
    {
        Response::Rejected(reason) => assert_eq!(reason.code, RejectCode::Draining, "{reason:?}"),
        other => panic!("submit during drain answered {other:?}"),
    }
    // … resubmitting an in-flight id still deduplicates (dedup runs
    // before the draining check — the router's rebind safety rides on
    // this order) …
    assert_eq!(
        client.call(&Request::Submit(inflight[0].clone())).unwrap(),
        Response::Duplicate(inflight[0].id.clone())
    );
    // … and queries keep answering mid-drain.
    match client
        .call(&Request::Query(inflight[2].id.clone()))
        .unwrap()
    {
        Response::State(..) => {}
        other => panic!("query during drain answered {other:?}"),
    }

    assert_eq!(
        drainer.join().expect("drain thread"),
        Response::Drained,
        "the drain waiter must be answered after the queue empties"
    );
    let stats = daemon
        .handle
        .join()
        .expect("serve thread panicked")
        .expect("serve returned an error");
    assert_eq!(stats.accepted, 3, "the late submission must not slip in");
    assert_eq!(stats.completed, 3, "drain must complete all in-flight jobs");
    let recovery = qpdo_serve::wal::recover(&dir).expect("journal audit");
    assert!(recovery.is_consistent());
    assert!(recovery.pending().is_empty(), "drain left pending jobs");
    for spec in &inflight {
        let journaled = recovery
            .jobs()
            .iter()
            .find(|j| j.spec.id == spec.id)
            .unwrap_or_else(|| panic!("{} missing from journal", spec.id));
        assert_eq!(
            journaled.outcome,
            Some(JobOutcome::Done(golden(seed, spec))),
            "{} must complete golden through the drain",
            spec.id
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_drain_waiter_is_answered_exactly_once() {
    let dir = fresh_dir("drain-waiters");
    let config = DaemonConfig {
        jobs: 1,
        chaos_stall: Duration::from_millis(200),
        ..DaemonConfig::default()
    };
    let daemon = TestDaemon::start(&dir, config);
    let mut client = daemon.client();
    for i in 0..2 {
        let spec = bell(&format!("dw-{i}"), 2);
        assert_eq!(
            client.call(&Request::Submit(spec.clone())).unwrap(),
            Response::Accepted(spec.id)
        );
    }

    // Four concurrent drain waiters on four connections: each must get
    // exactly one `drained` reply when the queue empties — `call`
    // fails loudly on both zero replies (EOF) and a second frame left
    // in the stream (the next read would see it).
    let addr = daemon.addr;
    let waiters: Vec<_> = (0..4)
        .map(|_| {
            thread::spawn(move || {
                let mut drain_client =
                    Client::connect(addr, Some(TIMEOUT)).expect("drain connection");
                let response = drain_client.call(&Request::Drain).expect("drain call");
                // The stream must close cleanly after the single reply:
                // a duplicate wake would surface as a second frame, a
                // lost wake as this call hanging until the timeout.
                let followup = drain_client.call(&Request::Health);
                (response, followup.is_err())
            })
        })
        .collect();
    for waiter in waiters {
        let (response, closed_after) = waiter.join().expect("drain waiter");
        assert_eq!(response, Response::Drained);
        assert!(closed_after, "the stream must close after the drain reply");
    }
    let stats = daemon
        .handle
        .join()
        .expect("serve thread panicked")
        .expect("serve returned an error");
    assert_eq!(stats.completed, 2, "drain completed the in-flight jobs");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A job whose every attempt fails is retried on its one backend until
/// `max_job_attempts` attempts have failed, then ends `failed`. A stall
/// far past the watchdog makes each attempt time out; each retry is
/// journaled as its own `dispatch` record with the next attempt number.
#[test]
fn failed_attempts_retry_then_fail_terminally() {
    const ATTEMPTS: u32 = 3;
    let dir = fresh_dir("retry");
    let config = DaemonConfig {
        jobs: 1,
        watchdog_ms: 50,
        chaos_stall: Duration::from_millis(1_000),
        max_job_attempts: ATTEMPTS,
        ..DaemonConfig::default()
    };
    let daemon = TestDaemon::start(&dir, config);
    let mut client = daemon.client();

    let spec = bell("retry-1", 4);
    assert_eq!(
        client.call(&Request::Submit(spec)).unwrap(),
        Response::Accepted("retry-1".to_owned())
    );
    let JobState::Failed(error) = daemon.wait_terminal("retry-1") else {
        panic!("retry-1 must fail once its attempts run out");
    };
    assert!(
        error.ends_with(&format!("(after {ATTEMPTS} attempts)")),
        "{error}"
    );
    let stats = daemon.drain();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 0);

    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "log"))
        .collect();
    segments.sort();
    let mut attempts = Vec::new();
    for path in segments {
        let mut file = std::io::BufReader::new(std::fs::File::open(path).unwrap());
        for payload in read_records(&mut file).unwrap() {
            let line = String::from_utf8(payload).unwrap();
            if let Ok(WalRecord::Dispatch {
                id,
                backend,
                attempt,
            }) = WalRecord::parse(&line)
            {
                assert_eq!((id.as_str(), backend), ("retry-1", Backend::Packed));
                attempts.push(attempt);
            }
        }
    }
    assert_eq!(attempts, (0..ATTEMPTS).collect::<Vec<_>>());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Tentpole (PR 10): a deadline landing mid shot-sweep ends the job as
/// a typed anytime `partial` — completed shots, target, failures, and
/// a Wilson interval — while the `progress` verb answers live batch
/// counts before the terminal and the cached partial after it.
#[test]
fn deadline_mid_sweep_delivers_an_anytime_partial() {
    let dir = fresh_dir("partial");
    let config = DaemonConfig {
        jobs: 1,
        ..DaemonConfig::default()
    };
    let daemon = TestDaemon::start(&dir, config);
    let mut client = daemon.client();

    // Far too many shots for the deadline: expiry is guaranteed.
    let spec = JobSpec {
        id: "anytime-1".to_owned(),
        deadline_ms: Some(500),
        kind: JobKind::LerSurface {
            d: 11,
            per: 0.05,
            shots: 1_000_000,
        },
    };
    assert_eq!(
        client.call(&Request::Submit(spec.clone())).unwrap(),
        Response::Accepted(spec.id.clone())
    );

    // The progress verb reports live completed-batch counts mid-run.
    let poll_deadline = Instant::now() + TIMEOUT;
    loop {
        match client
            .call(&Request::Progress(spec.id.clone()))
            .expect("progress call")
        {
            Response::Progress { batches, shots, .. } => {
                if batches > 0 {
                    assert!(shots > 0, "completed batches must carry shots");
                    break;
                }
            }
            Response::State(_, state) => panic!("job went terminal early: {state:?}"),
            other => panic!("progress answered {other:?}"),
        }
        assert!(
            Instant::now() < poll_deadline,
            "no progress before deadline"
        );
        thread::sleep(Duration::from_millis(5));
    }

    let JobState::Partial(detail) = daemon.wait_terminal(&spec.id) else {
        panic!("deadlined sweep must end as a partial");
    };
    let fields: Vec<&str> = detail.split_whitespace().collect();
    assert_eq!(fields.len(), 5, "partial detail {detail:?}");
    let done_shots: u64 = fields[0].parse().expect("completed shots");
    let target: u64 = fields[1].parse().expect("target shots");
    let failures: u64 = fields[2].parse().expect("failures");
    let lo: f64 = fields[3].parse().expect("ci low");
    let hi: f64 = fields[4].parse().expect("ci high");
    assert!(done_shots > 0 && done_shots < target, "{detail}");
    assert_eq!(target, 1_000_000);
    assert!(failures <= done_shots, "{detail}");
    assert!(
        (0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0,
        "{detail}"
    );

    // Post-terminal, progress answers with the cached partial state.
    match client
        .call(&Request::Progress(spec.id.clone()))
        .expect("post-terminal progress")
    {
        Response::State(_, JobState::Partial(cached)) => assert_eq!(cached, detail),
        other => panic!("post-terminal progress answered {other:?}"),
    }
    let Response::Health(health) = client.call(&Request::Health).unwrap() else {
        panic!("no health snapshot");
    };
    assert_eq!(health.partials, 1);

    let stats = daemon.drain();
    assert_eq!(stats.partials, 1);
    assert_eq!(stats.completed, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Tentpole (PR 10): a daemon started on a journal holding an accepted
/// sweep plus a progress checkpoint resumes after the checkpointed
/// batches instead of from scratch — the result is byte-identical to
/// an unfaulted full run, and the `batches` execution counter proves
/// only the unfinished suffix was re-executed.
#[test]
fn restart_resumes_a_checkpointed_sweep_from_its_durable_prefix() {
    use qpdo_core::Checkpoint;
    use qpdo_serve::job::execute_tracked;
    use qpdo_serve::wal::WriteAheadLog;

    let dir = fresh_dir("resume");
    let config = DaemonConfig {
        jobs: 1,
        ..DaemonConfig::default()
    };
    let seed = config.base_seed;
    let spec = JobSpec {
        id: "resume-1".to_owned(),
        deadline_ms: None,
        kind: JobKind::LerSurface {
            d: 9,
            per: 0.05,
            shots: 16384,
        },
    };
    let total_batches = 16384_u64.div_ceil(64);

    // Produce a genuine mid-run checkpoint: run the sweep in-process
    // and cancel after five batches.
    let cancel = CancelToken::new();
    let mut checkpoint: Option<Checkpoint> = None;
    let mut on_batch = |cp: &Checkpoint| {
        if cp.batches == 5 {
            cancel.cancel();
        }
        checkpoint = Some(cp.clone());
    };
    let execution = execute_tracked(
        &spec.kind,
        Backend::Packed,
        job_seed(seed, &spec.id),
        &cancel,
        None,
        &mut on_batch,
    )
    .expect("tracked prefix execution");
    assert!(
        matches!(execution, qpdo_serve::job::Execution::Stopped { .. }),
        "the cancel must stop the sweep mid-run"
    );
    let checkpoint = checkpoint.expect("five batches were reported");
    assert_eq!(checkpoint.batches, 5);

    // Hand-build the journal a crashed daemon would leave behind.
    {
        let (mut wal, _) =
            WriteAheadLog::open(&dir, WriteAheadLog::DEFAULT_MAX_SEGMENT_BYTES).unwrap();
        wal.append(&WalRecord::Accept(spec.clone())).unwrap();
        wal.append(&WalRecord::Progress {
            id: spec.id.clone(),
            checkpoint: checkpoint.clone(),
        })
        .unwrap();
    }

    let daemon = TestDaemon::start(&dir, config);
    let JobState::Done(record) = daemon.wait_terminal(&spec.id) else {
        panic!("checkpointed sweep did not complete after restart");
    };
    assert_eq!(
        record,
        golden(seed, &spec),
        "resume must be byte-identical to an unfaulted scratch run"
    );

    let stats = daemon.drain();
    assert_eq!(
        stats.batches,
        total_batches - checkpoint.batches,
        "only the suffix past the checkpoint may re-execute"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Tentpole (PR 10): a failed progress append (injected ENOSPC on the
/// very first checkpoint) degrades checkpointing to off — visible in
/// health — without touching execution: the running sweep and fresh
/// submissions keep completing golden.
#[test]
fn failed_progress_append_degrades_checkpointing_not_execution() {
    let dir = fresh_dir("ckpt-enospc");
    let config = DaemonConfig {
        jobs: 1,
        progress_batches: 2,
        chaos_progress_fail: Some(0),
        ..DaemonConfig::default()
    };
    let seed = config.base_seed;
    let daemon = TestDaemon::start(&dir, config);
    let mut client = daemon.client();

    let spec = JobSpec {
        id: "enospc-1".to_owned(),
        deadline_ms: None,
        kind: JobKind::LerSurface {
            d: 5,
            per: 0.08,
            shots: 4096,
        },
    };
    assert_eq!(
        client.call(&Request::Submit(spec.clone())).unwrap(),
        Response::Accepted(spec.id.clone())
    );
    let JobState::Done(record) = daemon.wait_terminal(&spec.id) else {
        panic!("sweep must survive losing its checkpoint stream");
    };
    assert_eq!(record, golden(seed, &spec));

    let Response::Health(health) = client.call(&Request::Health).unwrap() else {
        panic!("no health snapshot");
    };
    assert!(
        !health.checkpointing,
        "a failed progress append must flip checkpointing off"
    );
    assert!(
        health.accepting,
        "checkpoint degradation is advisory, not a refusal to work"
    );

    let fresh = bell("enospc-fresh", 4);
    assert_eq!(
        client.call(&Request::Submit(fresh.clone())).unwrap(),
        Response::Accepted(fresh.id.clone())
    );
    let JobState::Done(record) = daemon.wait_terminal(&fresh.id) else {
        panic!("fresh job did not complete");
    };
    assert_eq!(record, golden(seed, &fresh));

    let stats = daemon.drain();
    assert_eq!(stats.completed, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}
