//! Chaos drill for the shot service (`DESIGN.md` §9.5): spawns the
//! `qpdo_serve` daemon, hammers it with jobs while killing and
//! restarting it, and asserts the exactly-once contract — every
//! accepted job completes exactly once after recovery, byte-identical
//! to an unfaulted in-process execution of the same seed.
//!
//! Drills:
//!
//! 1. **Crash** — SIGKILL mid-load, restart on the same journal,
//!    resubmit everything (must all deduplicate), results golden, the
//!    journal audit clean.
//! 2. **Overload** — a depth-2 queue sheds a burst with `overloaded`
//!    rejections while every accepted job still completes.
//! 3. **Deadline** — a stalled execution blows a 100 ms job deadline
//!    and fails terminally with `deadline exceeded`.
//! 4. **Drain-deadline** — a graceful drain races the deadline watcher
//!    across a stalled queue: exactly one terminal record lands per
//!    job and the drain still completes.
//! 5. **Group-commit crash** — SIGKILL lands while the commit thread
//!    is folding concurrent submissions into shared fsync batches
//!    (`--commit-batch 32 --commit-interval-us 2000`); every acked id
//!    must survive the torn journal — WAL-before-ack holds across
//!    batching, not just per-record fsync.
//! 6. **Overload wave** — concurrent client waves against a depth-3
//!    queue on the event loop: sheds carry the typed `overloaded`
//!    code, health answers mid-wave, accepted jobs finish golden.
//! 7. **Mid-frame stall** — a slowloris client parks half a frame and
//!    goes silent; the read deadline reaps it while live traffic on
//!    the same loop completes unharmed.
//! 8. **Fsync failure** — injected journal fsync failures latch the
//!    daemon into a refuse-new-work degraded state (typed `journal` /
//!    `degraded` rejections, health stops advertising `accepting`);
//!    a restart without the fault completes every acked job golden.
//! 9. **Resume** — SIGKILL mid shot-sweep; the restarted daemon
//!    resumes from the last durable checkpoint, re-executes strictly
//!    fewer batches than a scratch run (proven by the execution
//!    counter), and the final record is byte-identical to the
//!    unfaulted golden execution.
//! 10. **Anytime partial** — a deadline landing mid-sweep yields a
//!     typed `partial` terminal carrying the completed shots and a
//!     Wilson interval instead of a bare failure; the `progress` verb
//!     reports live batch counts before and the cached partial after.
//! 11. **Checkpoint faults** — injected ENOSPC on progress appends
//!     degrades checkpointing to off (health flag) while jobs keep
//!     completing golden; injected checkpoint corruption is dropped at
//!     replay in favour of the previous valid checkpoint.
//!
//! `--smoke` runs a reduced configuration; `--seed N` changes the
//! deterministic workload. Exits non-zero on the first violated
//! invariant.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qpdo_core::journal::write_record;

use qpdo_core::CancelToken;
use qpdo_serve::job::{execute, job_seed, JobKind, JobSpec};
use qpdo_serve::protocol::{Client, JobState, RejectCode, Request, Response};
use qpdo_serve::wal::{recover, resumable, JobOutcome};
use qpdo_surface17::experiment::LogicalErrorKind;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);
const TERMINAL_TIMEOUT: Duration = Duration::from_secs(120);

struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns `qpdo_serve` (sibling binary in the same target dir) and
    /// waits for its `listening on <addr>` / `ready` banner.
    fn spawn(wal_dir: &Path, seed: u64, extra: &[&str]) -> Daemon {
        let daemon_path = std::env::current_exe()
            .expect("own path")
            .parent()
            .expect("binary dir")
            .join("qpdo_serve");
        let mut child = Command::new(&daemon_path)
            .arg("--wal-dir")
            .arg(wal_dir)
            .args(["--port", "0", "--seed", &seed.to_string()])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", daemon_path.display()));
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let mut addr = None;
        for line in &mut lines {
            let line = line.expect("daemon stdout");
            if let Some(rest) = line.strip_prefix("listening on ") {
                addr = Some(rest.parse().expect("daemon printed a socket address"));
            }
            if line == "ready" {
                break;
            }
        }
        // Keep draining stdout so the daemon never blocks on the pipe.
        std::thread::spawn(move || for _ in lines {});
        Daemon {
            child,
            addr: addr.expect("daemon printed its listening address"),
        }
    }

    fn client(&self) -> Client {
        let deadline = Instant::now() + CLIENT_TIMEOUT;
        loop {
            match Client::connect(self.addr, Some(CLIENT_TIMEOUT)) {
                Ok(client) => return client,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("cannot connect to daemon at {}: {e}", self.addr),
            }
        }
    }

    fn kill(&mut self) {
        self.child.kill().expect("SIGKILL the daemon");
        self.child.wait().expect("reap the killed daemon");
    }

    /// Drains the daemon and waits for a clean exit.
    fn drain(mut self) {
        let response = self.client().call(&Request::Drain).expect("drain call");
        assert_eq!(response, Response::Drained, "drain must report drained");
        let deadline = Instant::now() + CLIENT_TIMEOUT;
        loop {
            match self.child.try_wait().expect("poll daemon exit") {
                Some(status) => {
                    assert!(status.success(), "drained daemon exited with {status}");
                    return;
                }
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
                None => {
                    self.kill();
                    panic!("daemon did not exit after drain");
                }
            }
        }
    }
}

fn submit(client: &mut Client, spec: &JobSpec) -> Response {
    client
        .call(&Request::Submit(spec.clone()))
        .expect("submit call")
}

/// Polls a job until it reaches a terminal state, reconnecting as
/// needed (the daemon may be between lives during the crash drill).
fn wait_terminal(daemon: &Daemon, id: &str) -> JobState {
    let deadline = Instant::now() + TERMINAL_TIMEOUT;
    let mut client = daemon.client();
    loop {
        match client.call(&Request::Query(id.to_owned())) {
            Ok(Response::State(
                _,
                state @ (JobState::Done(_) | JobState::Failed(_) | JobState::Partial(_)),
            )) => {
                return state;
            }
            Ok(Response::State(..)) => {}
            Ok(other) => panic!("query {id} answered {other:?}"),
            Err(_) => client = daemon.client(),
        }
        assert!(
            Instant::now() < deadline,
            "job {id} not terminal within {TERMINAL_TIMEOUT:?}"
        );
        std::thread::sleep(Duration::from_millis(30));
    }
}

/// The unfaulted ground truth: the job executed in-process on its
/// backend with the deterministic daemon seed.
fn golden(base_seed: u64, spec: &JobSpec) -> String {
    execute(
        &spec.kind,
        spec.kind.backend(),
        job_seed(base_seed, &spec.id),
        &CancelToken::new(),
    )
    .unwrap_or_else(|e| panic!("golden execution of {} failed: {e}", spec.id))
}

fn job(id: &str, kind: JobKind) -> JobSpec {
    JobSpec {
        id: id.to_owned(),
        deadline_ms: None,
        kind,
    }
}

fn workload(wave: usize, count: usize) -> Vec<JobSpec> {
    (0..count)
        .map(|i| match i % 3 {
            0 => job(&format!("bell-{wave}-{i}"), JobKind::Bell { shots: 12 }),
            1 => job(
                &format!("rc-{wave}-{i}"),
                JobKind::RandomCircuit {
                    qubits: 4,
                    gates: 30,
                },
            ),
            _ => job(
                &format!("ler-{wave}-{i}"),
                JobKind::Ler {
                    per: 0.006,
                    kind: LogicalErrorKind::XL,
                    with_pf: true,
                    target: 2,
                    max_windows: 300,
                },
            ),
        })
        .collect()
}

fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear old drill directory");
    }
    dir
}

/// Drill 1: SIGKILL mid-load, restart, exactly-once recovery. Each
/// kill round submits a fresh wave of jobs first so the daemon always
/// dies with work in flight, not idle.
fn crash_drill(root: &Path, seed: u64, kills: usize, wave_size: usize) {
    println!("== crash drill: {kills} kill(s), {wave_size}-job wave per kill ==");
    let wal_dir = fresh_dir(root, "crash-wal");
    let mut specs: Vec<JobSpec> = Vec::new();
    let mut interrupted = 0;

    let mut daemon = Daemon::spawn(&wal_dir, seed, &["--jobs", "2", "--chaos-stall-ms", "150"]);
    for round in 0..kills {
        let wave = workload(round, wave_size);
        let mut client = daemon.client();
        for spec in &wave {
            assert_eq!(
                submit(&mut client, spec),
                Response::Accepted(spec.id.clone()),
                "submission of {} must be accepted",
                spec.id
            );
        }
        specs.extend(wave);
        // Let a couple of completions land, then yank the power cord
        // with most of the wave still queued or on the workers.
        std::thread::sleep(Duration::from_millis(120));
        daemon.kill();

        // Offline audit of the torn journal: consistent, every
        // accepted job present, and (usually) some still pending.
        let recovery = recover(&wal_dir).expect("torn journal still readable");
        assert!(
            recovery.is_consistent(),
            "torn journal audit: duplicates {:?}, orphans {:?}",
            recovery.duplicate_terminals,
            recovery.orphaned
        );
        assert_eq!(recovery.jobs().len(), specs.len(), "accepted jobs survive");
        interrupted += recovery.pending().len();
        println!(
            "   kill {}: {} of {} jobs caught unfinished",
            round + 1,
            recovery.pending().len(),
            specs.len()
        );

        let stall = if round + 1 == kills { "0" } else { "150" };
        daemon = Daemon::spawn(&wal_dir, seed, &["--jobs", "2", "--chaos-stall-ms", stall]);
        let mut client = daemon.client();
        for spec in &specs {
            // WAL-before-ack: every accepted job survived the crash.
            assert_eq!(
                submit(&mut client, spec),
                Response::Duplicate(spec.id.clone()),
                "{} was acked before the kill, so resubmission must deduplicate",
                spec.id
            );
        }
    }
    assert!(
        interrupted >= 1,
        "no kill ever interrupted a job: the drill timing is broken"
    );

    for spec in &specs {
        match wait_terminal(&daemon, &spec.id) {
            JobState::Done(record) => assert_eq!(
                record,
                golden(seed, spec),
                "{} must match the unfaulted execution byte-for-byte",
                spec.id
            ),
            JobState::Failed(error) => panic!("{} failed: {error}", spec.id),
            _ => unreachable!(),
        }
    }
    daemon.drain();

    // Offline journal audit: exactly one terminal record per job.
    let recovery = recover(&wal_dir).expect("journal readable after drain");
    assert!(
        recovery.is_consistent(),
        "journal audit: duplicates {:?}, orphans {:?}",
        recovery.duplicate_terminals,
        recovery.orphaned
    );
    assert_eq!(recovery.jobs().len(), specs.len(), "journal job count");
    assert!(recovery.pending().is_empty(), "no job may stay pending");
    for spec in &specs {
        let recovered = recovery
            .jobs()
            .iter()
            .find(|j| j.spec.id == spec.id)
            .unwrap_or_else(|| panic!("{} missing from journal", spec.id));
        match &recovered.outcome {
            Some(JobOutcome::Done(record)) => assert_eq!(record, &golden(seed, spec)),
            other => panic!("{} journaled as {other:?}", spec.id),
        }
    }
    println!("   exactly-once verified for all {} jobs", specs.len());
}

/// Drill 2: a tiny queue sheds a burst; accepted jobs still finish.
fn overload_drill(root: &Path, seed: u64, burst: usize) {
    println!("== overload drill: burst of {burst} into a depth-2 queue ==");
    let wal_dir = fresh_dir(root, "overload-wal");
    let daemon = Daemon::spawn(
        &wal_dir,
        seed,
        &[
            "--jobs",
            "1",
            "--queue-depth",
            "2",
            "--chaos-stall-ms",
            "250",
        ],
    );
    let mut accepted = Vec::new();
    let mut shed = 0;
    {
        let mut client = daemon.client();
        for i in 0..burst {
            let spec = job(&format!("burst-{i}"), JobKind::Bell { shots: 2 });
            match submit(&mut client, &spec) {
                Response::Accepted(_) => accepted.push(spec),
                Response::Rejected(reason) => {
                    assert_eq!(
                        reason.code,
                        RejectCode::Overloaded,
                        "shed rejection must carry the overloaded code, said {reason:?}"
                    );
                    shed += 1;
                }
                other => panic!("burst submit answered {other:?}"),
            }
        }
    }
    assert!(
        shed >= 1,
        "a depth-2 queue must shed part of a {burst} burst"
    );
    assert!(!accepted.is_empty(), "some of the burst must be admitted");
    for spec in &accepted {
        match wait_terminal(&daemon, &spec.id) {
            JobState::Done(record) => assert_eq!(record, golden(seed, spec)),
            JobState::Failed(error) => panic!("{} failed: {error}", spec.id),
            _ => unreachable!(),
        }
    }
    println!(
        "   {} accepted, {shed} shed, all accepted completed",
        accepted.len()
    );
    daemon.drain();
}

/// Drill 3: a stalled execution blows the job deadline.
fn deadline_drill(root: &Path, seed: u64) {
    println!("== deadline drill: 100 ms deadline against a 400 ms stall ==");
    let wal_dir = fresh_dir(root, "deadline-wal");
    let daemon = Daemon::spawn(&wal_dir, seed, &["--jobs", "1", "--chaos-stall-ms", "400"]);
    let spec = JobSpec {
        id: "late-1".to_owned(),
        deadline_ms: Some(100),
        kind: JobKind::Bell { shots: 2 },
    };
    let mut client = daemon.client();
    assert_eq!(
        submit(&mut client, &spec),
        Response::Accepted(spec.id.clone())
    );
    match wait_terminal(&daemon, &spec.id) {
        JobState::Failed(error) => assert!(
            error.contains("deadline"),
            "late job must fail on its deadline, failed with {error:?}"
        ),
        JobState::Done(record) => panic!("late job completed ({record}) despite its deadline"),
        _ => unreachable!(),
    }
    println!("   deadline enforced");
    daemon.drain();
}

/// Drill 4: graceful drain racing the deadline watcher — deadlines
/// fire while the daemon drains a stalled queue. Exactly one terminal
/// record per job must land (the serialized transition), and the drain
/// must still complete instead of wedging on a conflicting append.
fn drain_deadline_drill(root: &Path, seed: u64, jobs: usize) {
    println!("== drain-deadline drill: {jobs} deadlined jobs drained mid-flight ==");
    let wal_dir = fresh_dir(root, "drain-deadline-wal");
    let daemon = Daemon::spawn(&wal_dir, seed, &["--jobs", "2", "--chaos-stall-ms", "250"]);
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|i| JobSpec {
            id: format!("dd-{i}"),
            // The 250 ms stall guarantees the watcher fires on every
            // round the drain has to wait out.
            deadline_ms: Some(150),
            kind: JobKind::Bell { shots: 2 },
        })
        .collect();
    let mut client = daemon.client();
    for spec in &specs {
        assert_eq!(
            submit(&mut client, spec),
            Response::Accepted(spec.id.clone())
        );
    }
    // Drain immediately: every deadline expires while the queue drains.
    daemon.drain();

    let recovery = recover(&wal_dir).expect("journal readable after drain");
    assert!(
        recovery.is_consistent(),
        "drain/deadline race journaled duplicates {:?}, orphans {:?}",
        recovery.duplicate_terminals,
        recovery.orphaned
    );
    assert_eq!(recovery.jobs().len(), specs.len(), "accepted jobs survive");
    assert!(
        recovery.pending().is_empty(),
        "drain returned with jobs still pending"
    );
    let mut expired = 0;
    for job in recovery.jobs() {
        match &job.outcome {
            Some(JobOutcome::Failed(error)) => {
                assert!(
                    error.contains("deadline"),
                    "{} failed with {error:?}, not its deadline",
                    job.spec.id
                );
                expired += 1;
            }
            // A job that finished before its deadline fired keeps its
            // completion — but only one terminal record either way.
            Some(JobOutcome::Done(_)) => {}
            // Bell jobs never checkpoint, so an anytime partial here
            // would mean the daemon invented progress from nothing.
            Some(JobOutcome::Partial(detail)) => {
                panic!(
                    "{} journaled a partial ({detail}) without progress",
                    job.spec.id
                )
            }
            None => unreachable!("pending() was empty"),
        }
    }
    assert!(
        expired >= 1,
        "no deadline fired during the drain: the drill timing is broken"
    );
    println!(
        "   drain completed, {expired}/{} deadlines enforced, one terminal each",
        specs.len()
    );
}

/// Drill 5: SIGKILL during group commit. Eight submitter threads keep
/// the commit thread folding many records per fsync (batch 32, 2 ms
/// straggler window) when the kill lands, so acks in flight at death
/// were granted by *batched* syncs. Every acked id must still be in
/// the torn journal: the WAL-before-ack invariant has to survive
/// batching, not just the fsync-per-record discipline it replaced.
fn group_commit_crash_drill(root: &Path, seed: u64, jobs: usize) {
    println!("== group-commit crash drill: {jobs} jobs, SIGKILL mid-batch ==");
    let wal_dir = fresh_dir(root, "group-commit-wal");
    let mut daemon = Daemon::spawn(
        &wal_dir,
        seed,
        &[
            "--jobs",
            "2",
            "--queue-depth",
            "4096",
            "--chaos-stall-ms",
            "100",
            "--commit-batch",
            "32",
            "--commit-interval-us",
            "2000",
        ],
    );
    let addr = daemon.addr;
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|i| job(&format!("gc-{i}"), JobKind::Bell { shots: 4 }))
        .collect();
    let acked: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let threads = 8usize.min(jobs.max(1));
    std::thread::scope(|scope| {
        for chunk in specs.chunks(specs.len().div_ceil(threads)) {
            let acked = &acked;
            scope.spawn(move || {
                let Ok(mut client) = Client::connect(addr, Some(CLIENT_TIMEOUT)) else {
                    return; // the daemon died before we connected
                };
                for spec in chunk {
                    match client.call(&Request::Submit(spec.clone())) {
                        Ok(Response::Accepted(id)) => {
                            acked.lock().expect("acked lock").push(id);
                        }
                        Ok(other) => panic!("group-commit submit answered {other:?}"),
                        Err(_) => return, // the daemon died under us
                    }
                }
            });
        }
        // Let the batches start flowing, then kill mid-stream.
        std::thread::sleep(Duration::from_millis(30));
        daemon.kill();
    });
    let acked = acked.into_inner().expect("acked lock");
    assert!(
        !acked.is_empty(),
        "no submission was acked before the kill: the drill timing is broken"
    );

    let recovery = recover(&wal_dir).expect("torn journal still readable");
    assert!(
        recovery.is_consistent(),
        "torn journal audit: duplicates {:?}, orphans {:?}",
        recovery.duplicate_terminals,
        recovery.orphaned
    );
    for id in &acked {
        assert!(
            recovery.jobs().iter().any(|j| j.spec.id == *id),
            "{id} was acked through a group commit but is missing from the torn journal"
        );
    }
    println!(
        "   {} of {} acked before the kill, every ack durable",
        acked.len(),
        specs.len()
    );

    let daemon = Daemon::spawn(
        &wal_dir,
        seed,
        &[
            "--jobs",
            "2",
            "--queue-depth",
            "4096",
            "--commit-batch",
            "32",
            "--commit-interval-us",
            "2000",
        ],
    );
    let acked_set: HashSet<&String> = acked.iter().collect();
    let mut client = daemon.client();
    for spec in &specs {
        let response = submit(&mut client, spec);
        if acked_set.contains(&spec.id) {
            assert_eq!(
                response,
                Response::Duplicate(spec.id.clone()),
                "{} was acked before the kill, so resubmission must deduplicate",
                spec.id
            );
        } else {
            // An unacked submission may still have reached the journal
            // (written and synced, killed before the reply flushed).
            assert!(
                matches!(response, Response::Accepted(_) | Response::Duplicate(_)),
                "{} resubmission answered {response:?}",
                spec.id
            );
        }
    }
    for spec in &specs {
        match wait_terminal(&daemon, &spec.id) {
            JobState::Done(record) => assert_eq!(
                record,
                golden(seed, spec),
                "{} must match the unfaulted execution byte-for-byte",
                spec.id
            ),
            JobState::Failed(error) => panic!("{} failed: {error}", spec.id),
            _ => unreachable!(),
        }
    }
    daemon.drain();

    let recovery = recover(&wal_dir).expect("journal readable after drain");
    assert!(
        recovery.is_consistent(),
        "journal audit: duplicates {:?}, orphans {:?}",
        recovery.duplicate_terminals,
        recovery.orphaned
    );
    assert_eq!(recovery.jobs().len(), specs.len(), "journal job count");
    assert!(recovery.pending().is_empty(), "no job may stay pending");
    println!("   exactly-once verified for all {} jobs", specs.len());
}

/// Drill 6: overload waves against the event loop. Several client
/// threads hammer a depth-3 queue at once; the loop must answer every
/// one of them (typed `overloaded` sheds, never a stall), keep
/// answering health queries mid-wave, and finish every accepted job
/// golden.
fn overload_wave_drill(root: &Path, seed: u64, waves: usize, clients: usize) {
    println!("== overload wave drill: {waves} wave(s) x {clients} concurrent clients ==");
    let wal_dir = fresh_dir(root, "overload-wave-wal");
    let daemon = Daemon::spawn(
        &wal_dir,
        seed,
        &[
            "--jobs",
            "1",
            "--queue-depth",
            "3",
            "--chaos-stall-ms",
            "150",
        ],
    );
    let addr = daemon.addr;
    let accepted: Mutex<Vec<JobSpec>> = Mutex::new(Vec::new());
    let shed = std::sync::atomic::AtomicUsize::new(0);
    for wave in 0..waves {
        std::thread::scope(|scope| {
            for c in 0..clients {
                let accepted = &accepted;
                let shed = &shed;
                scope.spawn(move || {
                    let mut client =
                        Client::connect(addr, Some(CLIENT_TIMEOUT)).expect("wave client connects");
                    for i in 0..4 {
                        let spec = job(&format!("wave-{wave}-{c}-{i}"), JobKind::Bell { shots: 2 });
                        match client
                            .call(&Request::Submit(spec.clone()))
                            .expect("wave submit")
                        {
                            Response::Accepted(_) => {
                                accepted.lock().expect("accepted lock").push(spec);
                            }
                            Response::Rejected(reason) => {
                                assert_eq!(
                                    reason.code,
                                    RejectCode::Overloaded,
                                    "wave shed must carry the overloaded code, said {reason:?}"
                                );
                                shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            other => panic!("wave submit answered {other:?}"),
                        }
                    }
                });
            }
            // The loop must keep answering control traffic mid-wave.
            let mut health_client =
                Client::connect(addr, Some(CLIENT_TIMEOUT)).expect("health client connects");
            let Response::Health(health) = health_client
                .call(&Request::Health)
                .expect("health mid-wave")
            else {
                panic!("health request must answer with a snapshot");
            };
            assert!(health.accepting, "daemon must stay accepting mid-wave");
        });
        // Let the single worker make headway so the next wave is also
        // partially admitted, not shed wholesale.
        std::thread::sleep(Duration::from_millis(200));
    }
    let accepted = accepted.into_inner().expect("accepted lock");
    let shed = shed.into_inner();
    assert!(
        shed >= 1,
        "a depth-3 queue must shed part of {waves} wave(s) of {clients} clients"
    );
    assert!(!accepted.is_empty(), "some of each wave must be admitted");
    for spec in &accepted {
        match wait_terminal(&daemon, &spec.id) {
            JobState::Done(record) => assert_eq!(record, golden(seed, spec)),
            JobState::Failed(error) => panic!("{} failed: {error}", spec.id),
            _ => unreachable!(),
        }
    }
    daemon.drain();
    let recovery = recover(&wal_dir).expect("journal readable after drain");
    assert!(
        recovery.is_consistent(),
        "journal audit: duplicates {:?}, orphans {:?}",
        recovery.duplicate_terminals,
        recovery.orphaned
    );
    assert_eq!(recovery.jobs().len(), accepted.len(), "journal job count");
    println!(
        "   {} accepted, {shed} shed across {waves} wave(s), all accepted completed",
        accepted.len()
    );
}

/// Drill 7: a slowloris client sends half a frame and goes silent. The
/// per-connection read deadline must reap it — without it the stalled
/// parse state would pin its buffer forever — while a live client on
/// the same event loop completes a job unharmed.
fn stall_drill(root: &Path, seed: u64) {
    println!("== mid-frame stall drill: slowloris vs a 300 ms read deadline ==");
    let wal_dir = fresh_dir(root, "stall-wal");
    let daemon = Daemon::spawn(&wal_dir, seed, &["--jobs", "1", "--io-timeout-ms", "300"]);

    // Park half a valid frame on the wire and never send the rest.
    let mut framed = Vec::new();
    write_record(&mut framed, b"health").expect("frame a health line");
    let mut stalled = TcpStream::connect(daemon.addr).expect("slowloris connects");
    stalled
        .write_all(&framed[..framed.len() / 2])
        .expect("send half a frame");

    // Live traffic on the same loop is unaffected by the parked parse.
    let spec = job("stall-live", JobKind::Bell { shots: 4 });
    let mut client = daemon.client();
    assert_eq!(
        submit(&mut client, &spec),
        Response::Accepted(spec.id.clone())
    );
    match wait_terminal(&daemon, &spec.id) {
        JobState::Done(record) => assert_eq!(record, golden(seed, &spec)),
        JobState::Failed(error) => panic!("{} failed: {error}", spec.id),
        _ => unreachable!(),
    }

    // The read deadline must close the stalled connection; a server
    // that never reaps half-open peers hangs here until the drill's
    // own deadline calls it out.
    stalled
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("read timeout");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut buf = [0u8; 16];
    loop {
        match stalled.read(&mut buf) {
            Ok(0) => break, // clean close: reaped
            Ok(n) => panic!("server answered {n} bytes to half a frame"),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                assert!(
                    Instant::now() < deadline,
                    "stalled connection never reaped by the io deadline"
                );
            }
            Err(_) => break, // reset: also reaped
        }
    }
    println!("   slowloris reaped, live traffic completed");
    daemon.drain();
}

/// Drill 8: injected fsync failures. After the fault fires the daemon
/// must refuse new work with typed `journal` (the ambiguous in-batch
/// record) and `degraded` rejections and stop advertising `accepting`;
/// a restart without the fault completes every previously-acked job
/// golden and accepts fresh work again.
fn fsync_failure_drill(root: &Path, seed: u64) {
    println!("== fsync failure drill: degraded latch and clean recovery ==");
    let wal_dir = fresh_dir(root, "fsync-wal");
    let mut daemon = Daemon::spawn(
        &wal_dir,
        seed,
        &[
            "--jobs",
            "1",
            "--chaos-stall-ms",
            "50",
            "--chaos-fsync-fail",
            "3",
        ],
    );
    let mut client = daemon.client();
    let mut acked: Vec<JobSpec> = Vec::new();
    let mut ambiguous: Vec<JobSpec> = Vec::new();
    let mut degraded_rejections = 0usize;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut i = 0;
    while degraded_rejections == 0 {
        assert!(
            Instant::now() < deadline,
            "daemon never degraded despite --chaos-fsync-fail 3"
        );
        let spec = job(&format!("fs-{i}"), JobKind::Bell { shots: 2 });
        i += 1;
        match submit(&mut client, &spec) {
            Response::Accepted(_) => acked.push(spec),
            Response::Rejected(reason) => match reason.code {
                // The record sharing the failed batch: durability
                // unknown, parked as ambiguous.
                RejectCode::Journal => ambiguous.push(spec),
                RejectCode::Degraded => degraded_rejections += 1,
                other => panic!("degrading daemon rejected fs-{} with {other:?}", i - 1),
            },
            other => panic!("submit answered {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        !acked.is_empty(),
        "the first submit must be acked before the injected fsync failure"
    );
    // Degraded is sticky and visible: health stops advertising
    // `accepting`, and further submissions keep bouncing.
    let Response::Health(health) = client.call(&Request::Health).expect("health call") else {
        panic!("health request must answer with a snapshot");
    };
    assert!(
        !health.accepting,
        "a degraded daemon must not advertise accepting"
    );
    let probe = job("fs-probe", JobKind::Bell { shots: 2 });
    match submit(&mut client, &probe) {
        Response::Rejected(reason) => assert_eq!(
            reason.code,
            RejectCode::Degraded,
            "post-latch submit must carry the degraded code, said {reason:?}"
        ),
        other => panic!("degraded daemon answered a fresh submit with {other:?}"),
    }
    println!(
        "   degraded after {} ack(s), {} ambiguous, typed rejections observed",
        acked.len(),
        ambiguous.len()
    );
    daemon.kill();

    // Restart without the fault: acked jobs are durable and complete
    // golden; ambiguous ones resolve from whatever actually hit disk.
    let daemon = Daemon::spawn(&wal_dir, seed, &["--jobs", "1"]);
    let mut client = daemon.client();
    for spec in &acked {
        assert_eq!(
            submit(&mut client, spec),
            Response::Duplicate(spec.id.clone()),
            "{} was acked before degradation, so resubmission must deduplicate",
            spec.id
        );
    }
    for spec in &ambiguous {
        let response = submit(&mut client, spec);
        assert!(
            matches!(response, Response::Accepted(_) | Response::Duplicate(_)),
            "{} resubmission answered {response:?}",
            spec.id
        );
    }
    let fresh = job("fs-fresh", JobKind::Bell { shots: 2 });
    assert_eq!(
        submit(&mut client, &fresh),
        Response::Accepted(fresh.id.clone()),
        "a recovered daemon must accept fresh work"
    );
    for spec in acked.iter().chain(ambiguous.iter()).chain([&fresh]) {
        match wait_terminal(&daemon, &spec.id) {
            JobState::Done(record) => assert_eq!(
                record,
                golden(seed, spec),
                "{} must match the unfaulted execution byte-for-byte",
                spec.id
            ),
            JobState::Failed(error) => panic!("{} failed: {error}", spec.id),
            _ => unreachable!(),
        }
    }
    daemon.drain();
    let recovery = recover(&wal_dir).expect("journal readable after drain");
    assert!(
        recovery.is_consistent(),
        "journal audit: duplicates {:?}, orphans {:?}",
        recovery.duplicate_terminals,
        recovery.orphaned
    );
    assert!(recovery.pending().is_empty(), "no job may stay pending");
    println!("   recovered: acked jobs golden, fresh work accepted");
}

/// Polls the `progress` verb until the job reports at least `batches`
/// completed batches, panicking if the job goes terminal first (the
/// drill workload was sized too small for its machine).
fn wait_batches(client: &mut Client, id: &str, batches: u64) -> u64 {
    let deadline = Instant::now() + TERMINAL_TIMEOUT;
    loop {
        match client
            .call(&Request::Progress(id.to_owned()))
            .expect("progress call")
        {
            Response::Progress {
                batches: done,
                shots,
                ..
            } => {
                if done >= batches {
                    assert!(shots > 0, "{id}: completed batches must carry shots");
                    return done;
                }
            }
            Response::State(_, state) => {
                panic!("{id} went terminal ({state:?}) before {batches} batches; grow the workload")
            }
            other => panic!("progress {id} answered {other:?}"),
        }
        assert!(
            Instant::now() < deadline,
            "{id} never reached {batches} batches"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn health(client: &mut Client) -> qpdo_serve::protocol::HealthSnapshot {
    match client.call(&Request::Health).expect("health call") {
        Response::Health(health) => *health,
        other => panic!("health request answered {other:?}"),
    }
}

/// Drill 9: SIGKILL mid shot-sweep, resume from the durable
/// checkpoint. The restarted daemon must finish the job byte-identical
/// to an unfaulted scratch run while re-executing strictly fewer
/// batches — exactly the suffix past the checkpoint, proven by the
/// `batches` execution counter in its health snapshot.
fn resume_drill(root: &Path, seed: u64, d: usize, shots: u64, kill_after: u64) {
    println!(
        "== resume drill: SIGKILL a d={d} sweep of {shots} shots at >={kill_after} batches =="
    );
    let wal_dir = fresh_dir(root, "resume-wal");
    let total_batches = shots.div_ceil(64);
    assert!(kill_after < total_batches, "drill must kill mid-sweep");
    let mut daemon = Daemon::spawn(&wal_dir, seed, &["--jobs", "1", "--progress-batches", "4"]);
    let spec = job(
        "resume-1",
        JobKind::LerSurface {
            d,
            per: 0.05,
            shots,
        },
    );
    let mut client = daemon.client();
    assert_eq!(
        submit(&mut client, &spec),
        Response::Accepted(spec.id.clone())
    );
    let observed = wait_batches(&mut client, &spec.id, kill_after);
    daemon.kill();

    // Offline audit of the torn journal: the sweep is pending with a
    // plausible durable checkpoint strictly inside the run.
    let recovery = recover(&wal_dir).expect("torn journal still readable");
    assert!(
        recovery.is_consistent(),
        "torn journal audit: duplicates {:?}, orphans {:?}",
        recovery.duplicate_terminals,
        recovery.orphaned
    );
    let resumable = resumable(&recovery);
    assert!(
        resumable.iter().any(|(j, _)| j.spec.id == spec.id),
        "the killed sweep must be reported resumable, got {:?}",
        resumable
            .iter()
            .map(|(j, _)| &j.spec.id)
            .collect::<Vec<_>>()
    );
    let ckpt = recovery
        .jobs()
        .iter()
        .find(|j| j.spec.id == spec.id)
        .expect("killed sweep in the journal")
        .checkpoint
        .clone()
        .expect("a durable checkpoint survived the kill");
    assert!(ckpt.plausible(), "recovered checkpoint {ckpt:?}");
    assert!(
        ckpt.batches >= 4 && ckpt.batches < total_batches,
        "checkpoint at {} of {total_batches} batches",
        ckpt.batches
    );
    println!(
        "   killed at >={observed} batches, durable checkpoint at {} of {total_batches}",
        ckpt.batches
    );

    let daemon = Daemon::spawn(&wal_dir, seed, &["--jobs", "1", "--progress-batches", "4"]);
    match wait_terminal(&daemon, &spec.id) {
        JobState::Done(record) => assert_eq!(
            record,
            golden(seed, &spec),
            "the resumed run must be byte-identical to an unfaulted scratch run"
        ),
        other => panic!("resumed sweep ended as {other:?}"),
    }
    // The execution counter proves the checkpoint saved work: the
    // restarted daemon ran exactly the unfinished suffix, never the
    // whole sweep again.
    let mut client = daemon.client();
    let snapshot = health(&mut client);
    assert_eq!(
        snapshot.batches,
        total_batches - ckpt.batches,
        "resume must re-execute exactly the batches past the checkpoint"
    );
    assert!(
        snapshot.batches < total_batches,
        "resume re-executed the whole sweep from scratch"
    );
    daemon.drain();

    let recovery = recover(&wal_dir).expect("journal readable after drain");
    assert!(
        recovery.is_consistent(),
        "journal audit: duplicates {:?}, orphans {:?}",
        recovery.duplicate_terminals,
        recovery.orphaned
    );
    assert!(recovery.pending().is_empty(), "no job may stay pending");
    println!(
        "   resumed: {} of {total_batches} batches re-executed, result golden",
        total_batches - ckpt.batches
    );
}

/// Drill 10: a deadline landing mid-sweep ends the job as a typed
/// anytime `partial` — completed shots, target, failures, and a Wilson
/// interval — instead of a bare `deadline exceeded` failure. The
/// `progress` verb answers live batch counts while the sweep runs and
/// the cached partial after it lands.
fn partial_drill(root: &Path, seed: u64) {
    println!("== anytime partial drill: 600 ms deadline against a ~1M-shot sweep ==");
    let wal_dir = fresh_dir(root, "partial-wal");
    let daemon = Daemon::spawn(&wal_dir, seed, &["--jobs", "1"]);
    let spec = JobSpec {
        id: "anytime-1".to_owned(),
        deadline_ms: Some(600),
        kind: JobKind::LerSurface {
            d: 11,
            per: 0.05,
            shots: 1_000_000,
        },
    };
    let mut client = daemon.client();
    assert_eq!(
        submit(&mut client, &spec),
        Response::Accepted(spec.id.clone())
    );
    wait_batches(&mut client, &spec.id, 1);

    let JobState::Partial(detail) = wait_terminal(&daemon, &spec.id) else {
        panic!("deadlined sweep must end as an anytime partial");
    };
    // detail = "{shots} {target} {failures} {ci_lo} {ci_hi}"
    let fields: Vec<&str> = detail.split_whitespace().collect();
    assert_eq!(fields.len(), 5, "partial detail {detail:?}");
    let done_shots: u64 = fields[0].parse().expect("completed shots");
    let target: u64 = fields[1].parse().expect("target shots");
    let failures: u64 = fields[2].parse().expect("failures");
    let lo: f64 = fields[3].parse().expect("ci low");
    let hi: f64 = fields[4].parse().expect("ci high");
    assert!(
        done_shots > 0,
        "a partial must carry completed work: {detail}"
    );
    assert_eq!(target, 1_000_000, "{detail}");
    assert!(done_shots < target, "{detail}");
    assert!(failures <= done_shots, "{detail}");
    assert!(
        (0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0,
        "the Wilson interval must be a sane probability range: {detail}"
    );

    // After the terminal, `progress` answers with the cached partial.
    match client
        .call(&Request::Progress(spec.id.clone()))
        .expect("post-terminal progress call")
    {
        Response::State(_, JobState::Partial(cached)) => assert_eq!(cached, detail),
        other => panic!("post-terminal progress answered {other:?}"),
    }
    let snapshot = health(&mut client);
    assert_eq!(snapshot.partials, 1, "health must count the partial");
    daemon.drain();

    let recovery = recover(&wal_dir).expect("journal readable after drain");
    assert!(
        recovery.is_consistent(),
        "journal audit: duplicates {:?}, orphans {:?}",
        recovery.duplicate_terminals,
        recovery.orphaned
    );
    assert!(recovery.pending().is_empty(), "no job may stay pending");
    match &recovery.jobs()[0].outcome {
        Some(JobOutcome::Partial(journaled)) => assert_eq!(journaled, &detail),
        other => panic!("partial journaled as {other:?}"),
    }
    println!("   partial delivered: {done_shots} of {target} shots, CI [{lo}, {hi}]");
}

/// Drill 11: checkpoint-path fault injection.
///
/// Part A: progress appends start failing (injected ENOSPC) after two
/// successes. Checkpointing must degrade to off — visible in health —
/// while the running job and fresh submissions keep completing golden:
/// losing checkpoint durability must never take down execution.
///
/// Part B: every other journaled checkpoint is corrupted in flight.
/// After a SIGKILL, replay must drop the implausible records and fall
/// back to the newest valid checkpoint, and the resumed run must still
/// finish byte-identical to scratch.
fn checkpoint_fault_drill(root: &Path, seed: u64, d: usize, shots: u64, kill_after: u64) {
    println!("== checkpoint fault drill: ENOSPC degrade, then corrupt-checkpoint fallback ==");
    let wal_dir = fresh_dir(root, "ckpt-enospc-wal");
    let daemon = Daemon::spawn(
        &wal_dir,
        seed,
        &[
            "--jobs",
            "1",
            "--progress-batches",
            "4",
            "--chaos-progress-fail",
            "2",
        ],
    );
    let spec = job(
        "enospc-1",
        JobKind::LerSurface {
            d: 9,
            per: 0.05,
            shots: 16384,
        },
    );
    let mut client = daemon.client();
    assert_eq!(
        submit(&mut client, &spec),
        Response::Accepted(spec.id.clone())
    );
    match wait_terminal(&daemon, &spec.id) {
        JobState::Done(record) => assert_eq!(
            record,
            golden(seed, &spec),
            "a job must survive losing its checkpoint stream"
        ),
        other => panic!("{} ended as {other:?}", spec.id),
    }
    let snapshot = health(&mut client);
    assert!(
        !snapshot.checkpointing,
        "a failed progress append must degrade checkpointing to off"
    );
    assert!(
        snapshot.accepting,
        "checkpoint degradation is advisory: the daemon must keep accepting"
    );
    let fresh = job("enospc-fresh", JobKind::Bell { shots: 4 });
    assert_eq!(
        submit(&mut client, &fresh),
        Response::Accepted(fresh.id.clone())
    );
    match wait_terminal(&daemon, &fresh.id) {
        JobState::Done(record) => assert_eq!(record, golden(seed, &fresh)),
        other => panic!("{} ended as {other:?}", fresh.id),
    }
    daemon.drain();
    println!("   ENOSPC: checkpointing off, execution unharmed");

    // Part B: corrupted checkpoints are dropped at replay.
    let wal_dir = fresh_dir(root, "ckpt-corrupt-wal");
    let mut daemon = Daemon::spawn(
        &wal_dir,
        seed,
        &[
            "--jobs",
            "1",
            "--progress-batches",
            "4",
            "--chaos-corrupt-checkpoint",
        ],
    );
    let spec = job(
        "corrupt-1",
        JobKind::LerSurface {
            d,
            per: 0.05,
            shots,
        },
    );
    let mut client = daemon.client();
    assert_eq!(
        submit(&mut client, &spec),
        Response::Accepted(spec.id.clone())
    );
    wait_batches(&mut client, &spec.id, kill_after);
    daemon.kill();

    let recovery = recover(&wal_dir).expect("torn journal still readable");
    assert!(
        recovery.is_consistent(),
        "torn journal audit: duplicates {:?}, orphans {:?}",
        recovery.duplicate_terminals,
        recovery.orphaned
    );
    let ckpt = recovery
        .jobs()
        .iter()
        .find(|j| j.spec.id == spec.id)
        .expect("killed sweep in the journal")
        .checkpoint
        .clone()
        .expect("a valid checkpoint must survive the corrupted stream");
    // Every other append was corrupted (failures > shots); replay must
    // have fallen back to a plausible one, never surfaced the garbage.
    assert!(
        ckpt.plausible(),
        "replay surfaced an implausible checkpoint: {ckpt:?}"
    );
    println!(
        "   corruption: replay fell back to the valid checkpoint at batch {}",
        ckpt.batches
    );

    let daemon = Daemon::spawn(&wal_dir, seed, &["--jobs", "1", "--progress-batches", "4"]);
    match wait_terminal(&daemon, &spec.id) {
        JobState::Done(record) => assert_eq!(
            record,
            golden(seed, &spec),
            "resume from the fallback checkpoint must still be byte-identical"
        ),
        other => panic!("resumed sweep ended as {other:?}"),
    }
    daemon.drain();
    println!("   corruption: resumed golden from the fallback checkpoint");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut seed = 2016u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .expect("--seed expects an integer");
            }
            other => panic!("unknown flag {other:?} (serve_chaos takes --smoke and --seed N)"),
        }
        i += 1;
    }

    let root = std::env::temp_dir().join(format!("serve-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("create drill root");
    println!("serve_chaos: drill directory {}", root.display());

    let (kills, wave, burst) = if smoke { (1, 6, 8) } else { (3, 4, 12) };
    crash_drill(&root, seed, kills, wave);
    overload_drill(&root, seed, burst);
    deadline_drill(&root, seed);
    drain_deadline_drill(&root, seed, if smoke { 4 } else { 8 });
    group_commit_crash_drill(&root, seed, if smoke { 48 } else { 96 });
    overload_wave_drill(&root, seed, if smoke { 2 } else { 3 }, 8);
    stall_drill(&root, seed);
    fsync_failure_drill(&root, seed);
    // Shot-sweep sizes tuned so the kill lands mid-run on slow and
    // fast machines alike: the kill waits on observed batch counts,
    // not wall-clock guesses.
    if smoke {
        resume_drill(&root, seed, 9, 16384, 32);
        partial_drill(&root, seed);
        checkpoint_fault_drill(&root, seed, 9, 16384, 32);
    } else {
        resume_drill(&root, seed, 11, 65536, 256);
        partial_drill(&root, seed);
        checkpoint_fault_drill(&root, seed, 11, 65536, 64);
    }

    std::fs::remove_dir_all(&root).expect("clean drill root");
    println!("serve_chaos: all drills passed");
}
