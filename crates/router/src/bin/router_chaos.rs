//! Chaos drill for fleet mode (`DESIGN.md` §11.4): spawns a fleet of
//! `qpdo_serve` daemons behind a `qpdo_router`, hammers it with jobs
//! while SIGKILLing random members (and the router itself), and
//! asserts the fleet-wide exactly-once contract — every job acked to a
//! client lands exactly one result in exactly one member's journal,
//! byte-identical to an unfaulted in-process execution.
//!
//! Drills:
//!
//! 1. **Fleet crash** — SIGKILL a member mid-wave; the fleet keeps
//!    accepting (canary jobs reroute around the corpse), the member
//!    restarts on its own journal under a new port and rejoins under
//!    its name, and every pre-kill job resubmits as a duplicate.
//! 2. **Router restart** — SIGKILL the router mid-flight; the rebuilt
//!    router re-resolves its journaled bindings instead of
//!    double-executing, and every pre-kill job resubmits as a
//!    duplicate.
//! 3. **Join/leave** — a fourth member joins and takes ring ranges;
//!    leaving with bound jobs is refused; after a clean leave its
//!    former ranges complete on the survivors.
//!
//! Every drill ends with an offline cross-fleet audit: each member
//! journal is internally consistent, every job id was accepted by
//! exactly one member fleet-wide, every acked job is `done` with the
//! golden record, and the router journal's final binding names the
//! member that actually holds the job.
//!
//! `--smoke` runs a reduced configuration; `--seed N` changes the
//! deterministic workload. Exits non-zero on the first violated
//! invariant.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qpdo_core::CancelToken;
use qpdo_router::journal::{recover as recover_bindings, RouteState};
use qpdo_router::protocol::{FleetSnapshot, RouterClient, RouterRequest, RouterResponse};
use qpdo_router::ring::HashRing;
use qpdo_serve::job::{execute, job_seed, JobKind, JobSpec};
use qpdo_serve::protocol::{Client, JobState, RejectCode, Request, Response};
use qpdo_serve::wal::{recover as recover_wal, JobOutcome};
use qpdo_surface17::experiment::LogicalErrorKind;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);
const TERMINAL_TIMEOUT: Duration = Duration::from_secs(120);

/// A spawned sibling binary (same target directory) that announced
/// itself with the `listening on <addr>` / `ready` banner.
struct Proc {
    child: Child,
    addr: SocketAddr,
}

impl Proc {
    fn spawn(binary: &str, args: &[String]) -> Proc {
        let path = std::env::current_exe()
            .expect("own path")
            .parent()
            .expect("binary dir")
            .join(binary);
        let mut child = Command::new(&path)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", path.display()));
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let mut addr = None;
        for line in &mut lines {
            let line = line.expect("child stdout");
            if let Some(rest) = line.strip_prefix("listening on ") {
                addr = Some(rest.parse().expect("child printed a socket address"));
            }
            if line == "ready" {
                break;
            }
        }
        // Keep draining stdout so the child never blocks on the pipe.
        std::thread::spawn(move || for _ in lines {});
        Proc {
            child,
            addr: addr.expect("child printed its listening address"),
        }
    }

    fn kill(mut self) {
        self.child.kill().expect("SIGKILL the child");
        self.child.wait().expect("reap the killed child");
    }

    /// Waits for a clean voluntary exit after a drain request.
    fn wait_exit(mut self, what: &str) {
        let deadline = Instant::now() + CLIENT_TIMEOUT;
        loop {
            match self.child.try_wait().expect("poll child exit") {
                Some(status) => {
                    assert!(status.success(), "drained {what} exited with {status}");
                    return;
                }
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
                None => {
                    self.kill();
                    panic!("{what} did not exit after drain");
                }
            }
        }
    }
}

/// One fleet member: a `qpdo_serve` daemon with a journal directory
/// that survives kills and restarts (under fresh ephemeral ports).
struct Member {
    name: String,
    wal_dir: PathBuf,
    proc: Option<Proc>,
}

impl Member {
    fn new(root: &Path, drill: &str, index: usize) -> Member {
        let name = format!("d{index}");
        let wal_dir = fresh_dir(root, &format!("{drill}-{name}"));
        Member {
            name,
            wal_dir,
            proc: None,
        }
    }

    fn start(&mut self, seed: u64, stall_ms: u64) {
        assert!(self.proc.is_none(), "{} is already running", self.name);
        let args = vec![
            "--wal-dir".to_owned(),
            self.wal_dir.display().to_string(),
            "--port".to_owned(),
            "0".to_owned(),
            "--seed".to_owned(),
            seed.to_string(),
            "--jobs".to_owned(),
            "2".to_owned(),
            "--chaos-stall-ms".to_owned(),
            stall_ms.to_string(),
        ];
        self.proc = Some(Proc::spawn("qpdo_serve", &args));
    }

    fn addr(&self) -> SocketAddr {
        self.proc.as_ref().expect("member is running").addr
    }

    fn kill(&mut self) {
        self.proc.take().expect("member is running").kill();
    }

    /// Drains the daemon directly (not through the router) and waits
    /// for a clean exit.
    fn drain(&mut self) {
        let proc = self.proc.take().expect("member is running");
        let mut client =
            Client::connect(proc.addr, Some(CLIENT_TIMEOUT)).expect("connect for drain");
        let response = client.call(&Request::Drain).expect("drain call");
        assert_eq!(
            response,
            Response::Drained,
            "member drain must report drained"
        );
        proc.wait_exit(&self.name);
    }
}

/// The `qpdo_router` process over a persistent binding journal.
struct Router {
    journal_dir: PathBuf,
    proc: Option<Proc>,
}

impl Router {
    fn new(root: &Path, drill: &str) -> Router {
        Router {
            journal_dir: fresh_dir(root, &format!("{drill}-router")),
            proc: None,
        }
    }

    /// Starts the router. `backends` may be empty on a restart: the
    /// journal remembers every member it has ever routed to.
    fn start(&mut self, backends: &[(String, SocketAddr)]) {
        assert!(self.proc.is_none(), "router is already running");
        let mut args = vec![
            "--journal-dir".to_owned(),
            self.journal_dir.display().to_string(),
            "--port".to_owned(),
            "0".to_owned(),
            "--probe-interval-ms".to_owned(),
            "50".to_owned(),
            "--resolve-interval-ms".to_owned(),
            "50".to_owned(),
            "--breaker-threshold".to_owned(),
            "2".to_owned(),
            "--breaker-cooloff-ms".to_owned(),
            "200".to_owned(),
            "--io-timeout-ms".to_owned(),
            "2000".to_owned(),
        ];
        for (name, addr) in backends {
            args.push("--backend".to_owned());
            args.push(format!("{name}={addr}"));
        }
        self.proc = Some(Proc::spawn("qpdo_router", &args));
    }

    fn client(&self) -> RouterClient {
        let addr = self.proc.as_ref().expect("router is running").addr;
        let deadline = Instant::now() + CLIENT_TIMEOUT;
        loop {
            match RouterClient::connect(addr, Some(CLIENT_TIMEOUT)) {
                Ok(client) => return client,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("cannot connect to router at {addr}: {e}"),
            }
        }
    }

    fn kill(&mut self) {
        self.proc.take().expect("router is running").kill();
    }

    fn drain(&mut self) {
        let mut client = self.client();
        let response = client
            .call(&RouterRequest::Core(Request::Drain))
            .expect("router drain call");
        assert_eq!(
            response,
            RouterResponse::Core(Response::Drained),
            "router drain must report drained"
        );
        self.proc
            .take()
            .expect("router is running")
            .wait_exit("router");
    }
}

fn submit(client: &mut RouterClient, spec: &JobSpec) -> Response {
    match client
        .call(&RouterRequest::Core(Request::Submit(spec.clone())))
        .expect("submit call")
    {
        RouterResponse::Core(response) => response,
        other => panic!("submit of {} answered {other:?}", spec.id),
    }
}

fn fleet(client: &mut RouterClient) -> FleetSnapshot {
    match client.call(&RouterRequest::Fleet).expect("fleet call") {
        RouterResponse::Fleet(snapshot) => *snapshot,
        other => panic!("fleet request answered {other:?}"),
    }
}

/// Polls a job through the router until it reaches a terminal state,
/// reconnecting as needed (the router may be between lives).
fn wait_terminal(router: &Router, id: &str) -> JobState {
    let deadline = Instant::now() + TERMINAL_TIMEOUT;
    let mut client = router.client();
    loop {
        match client.call(&RouterRequest::Core(Request::Query(id.to_owned()))) {
            Ok(RouterResponse::Core(Response::State(
                _,
                state @ (JobState::Done(_) | JobState::Failed(_) | JobState::Partial(_)),
            ))) => return state,
            Ok(RouterResponse::Core(Response::State(..))) => {}
            Ok(other) => panic!("query {id} answered {other:?}"),
            Err(_) => client = router.client(),
        }
        assert!(
            Instant::now() < deadline,
            "job {id} not terminal within {TERMINAL_TIMEOUT:?} of the fleet"
        );
        std::thread::sleep(Duration::from_millis(30));
    }
}

/// The unfaulted ground truth: every member runs the same base seed,
/// so the golden record holds no matter which member executed the job.
fn golden(base_seed: u64, spec: &JobSpec) -> String {
    execute(
        &spec.kind,
        spec.kind.backend(),
        job_seed(base_seed, &spec.id),
        &CancelToken::new(),
    )
    .unwrap_or_else(|e| panic!("golden execution of {} failed: {e}", spec.id))
}

fn kind_for(i: usize) -> JobKind {
    match i % 3 {
        0 => JobKind::Bell { shots: 12 },
        1 => JobKind::RandomCircuit {
            qubits: 4,
            gates: 30,
        },
        _ => JobKind::Ler {
            per: 0.006,
            kind: LogicalErrorKind::XL,
            with_pf: true,
            target: 2,
            max_windows: 300,
        },
    }
}

fn job(id: String, kind: JobKind) -> JobSpec {
    JobSpec {
        id,
        deadline_ms: None,
        kind,
    }
}

fn workload(prefix: &str, wave: usize, count: usize) -> Vec<JobSpec> {
    (0..count)
        .map(|i| job(format!("{prefix}-{wave}-{i}"), kind_for(i)))
        .collect()
}

/// Generates jobs whose ids consistently hash to `target` on `ring` —
/// routing is a pure function of the id, so the drill can aim load at
/// a specific member deterministically.
fn specs_routed_to(ring: &HashRing, target: &str, prefix: &str, need: usize) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for i in 0.. {
        if specs.len() == need {
            break;
        }
        let id = format!("{prefix}-{i}");
        if ring.route(&id) == Some(target) {
            specs.push(job(id, kind_for(i)));
        }
    }
    specs
}

fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear old drill directory");
    }
    dir
}

/// The cross-fleet exactly-once audit, run offline after every drill:
///
/// * each member journal is internally consistent;
/// * every id found in any member journal came from this drill and
///   appears in exactly ONE member journal fleet-wide;
/// * every id acked to a client is `done` with the golden record;
/// * the router journal is consistent and its final binding for every
///   acked id names the member whose journal actually holds it;
/// * `banned` pairs `(member, ids)` must not appear in that member's
///   journal (e.g. jobs submitted after it left the fleet).
fn audit_fleet(
    router: &Router,
    members: &[&Member],
    seed: u64,
    specs: &[JobSpec],
    acked: &HashSet<String>,
    banned: &[(&str, &[JobSpec])],
) {
    let by_id: HashMap<&str, &JobSpec> = specs.iter().map(|s| (s.id.as_str(), s)).collect();
    let mut holders: HashMap<String, Vec<String>> = HashMap::new();
    let mut outcomes: HashMap<String, JobOutcome> = HashMap::new();
    for member in members {
        let recovery = recover_wal(&member.wal_dir)
            .unwrap_or_else(|e| panic!("journal of {} unreadable: {e}", member.name));
        assert!(
            recovery.is_consistent(),
            "journal of {}: duplicates {:?}, orphans {:?}",
            member.name,
            recovery.duplicate_terminals,
            recovery.orphaned
        );
        for recovered in recovery.jobs() {
            holders
                .entry(recovered.spec.id.clone())
                .or_default()
                .push(member.name.clone());
            if let Some(outcome) = &recovered.outcome {
                outcomes.insert(recovered.spec.id.clone(), outcome.clone());
            }
        }
    }

    for (id, owners) in &holders {
        assert!(
            by_id.contains_key(id.as_str()),
            "journal of {owners:?} holds a job this drill never submitted: {id}"
        );
        assert_eq!(
            owners.len(),
            1,
            "job {id} was accepted by {owners:?} — a fleet-wide duplicate execution"
        );
    }

    let bindings = recover_bindings(&router.journal_dir).expect("router journal readable");
    assert!(
        bindings.is_consistent(),
        "router journal: duplicate terminals {:?}, orphans {:?}",
        bindings.duplicate_terminals,
        bindings
            .pending()
            .iter()
            .map(|j| j.spec.id.as_str())
            .collect::<Vec<_>>()
    );

    for id in acked {
        let spec = by_id[id.as_str()];
        let owners = holders
            .get(id)
            .unwrap_or_else(|| panic!("acked job {id} is in no member journal — a lost job"));
        match outcomes.get(id) {
            Some(JobOutcome::Done(record)) => assert_eq!(
                record,
                &golden(seed, spec),
                "{id} must match the unfaulted execution byte-for-byte"
            ),
            other => panic!("acked job {id} journaled as {other:?}"),
        }
        let binding = bindings
            .jobs()
            .iter()
            .find(|j| j.spec.id == *id)
            .unwrap_or_else(|| panic!("acked job {id} has no router binding"));
        assert_eq!(
            binding.member, owners[0],
            "{id}: router binds {} but {} holds the job",
            binding.member, owners[0]
        );
        assert!(
            matches!(binding.state, RouteState::Acked | RouteState::Terminal(_)),
            "{id}: acked to the client but the binding is {:?}",
            binding.state
        );
    }

    for (member, ids) in banned {
        for spec in *ids {
            if let Some(owners) = holders.get(&spec.id) {
                assert!(
                    !owners.iter().any(|o| o == member),
                    "{} was routed to {member} after it left the fleet",
                    spec.id
                );
            }
        }
    }

    println!(
        "   audit: {} jobs fleet-wide, {} acked, exactly one holder each",
        holders.len(),
        acked.len()
    );
}

/// Drill 1: SIGKILL a member mid-wave. The fleet keeps accepting (the
/// dead member's ranges fail over), the member rejoins on its own
/// journal under a new port, and exactly-once holds across the kill.
fn fleet_crash_drill(root: &Path, seed: u64, kills: usize, wave_size: usize) {
    println!("== fleet crash drill: {kills} kill(s) across a 3-member fleet ==");
    let mut members: Vec<Member> = (0..3).map(|i| Member::new(root, "crash", i)).collect();
    for member in &mut members {
        member.start(seed, 150);
    }
    let mut router = Router::new(root, "crash");
    let backends: Vec<(String, SocketAddr)> =
        members.iter().map(|m| (m.name.clone(), m.addr())).collect();
    router.start(&backends);

    let mut specs: Vec<JobSpec> = Vec::new();
    let mut acked: HashSet<String> = HashSet::new();

    for round in 0..kills {
        let wave = workload("crash", round, wave_size);
        {
            let mut client = router.client();
            for spec in &wave {
                assert_eq!(
                    submit(&mut client, spec),
                    Response::Accepted(spec.id.clone()),
                    "submission of {} must be accepted",
                    spec.id
                );
                acked.insert(spec.id.clone());
            }
        }
        specs.extend(wave.iter().cloned());

        // Let a couple of completions land, then yank one member's
        // power cord with most of the wave still in flight.
        std::thread::sleep(Duration::from_millis(120));
        let victim = round % members.len();
        members[victim].kill();
        println!(
            "   kill {}: {} is down mid-wave",
            round + 1,
            members[victim].name
        );

        // Canary wave: the fleet must keep accepting during the
        // outage — the corpse's hash ranges fail over to live members.
        let canaries = workload("canary", round, wave_size.min(6));
        let mut accepted = 0;
        {
            let mut client = router.client();
            for spec in &canaries {
                match submit(&mut client, spec) {
                    Response::Accepted(_) => {
                        acked.insert(spec.id.clone());
                        accepted += 1;
                    }
                    // An attempt that died after transmission parks
                    // rather than risking a duplicate — allowed, rare.
                    Response::Rejected(reason) => assert_eq!(
                        reason.code,
                        RejectCode::Unavailable,
                        "canary {} rejected with {reason:?}",
                        spec.id
                    ),
                    other => panic!("canary {} answered {other:?}", spec.id),
                }
            }
        }
        specs.extend(canaries.iter().cloned());
        assert!(
            accepted >= 1,
            "the fleet stopped accepting while one member was down"
        );
        println!(
            "   {accepted}/{} canaries accepted during the outage",
            canaries.len()
        );

        // Restart on the same journal (new port), rejoin by name.
        members[victim].start(seed, 0);
        let mut client = router.client();
        let name = members[victim].name.clone();
        let addr = members[victim].addr().to_string();
        match client.call(&RouterRequest::Join {
            name: name.clone(),
            addr,
        }) {
            Ok(RouterResponse::Joined(joined)) => assert_eq!(joined, name),
            other => panic!("rejoin of {name} answered {other:?}"),
        }

        // Exactly-once across the kill: everything acked before the
        // kill must deduplicate, never re-execute.
        for spec in &wave {
            assert_eq!(
                submit(&mut client, spec),
                Response::Duplicate(spec.id.clone()),
                "{} was acked before the kill, so resubmission must deduplicate",
                spec.id
            );
        }
    }

    for spec in &specs {
        if !acked.contains(&spec.id) {
            continue; // parked canaries resolve in the background
        }
        match wait_terminal(&router, &spec.id) {
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

    let snapshot = fleet(&mut router.client());
    assert!(snapshot.accepting, "the fleet must still be accepting");
    assert_eq!(snapshot.members.len(), 3, "all three members registered");

    router.drain();
    for member in &mut members {
        member.drain();
    }
    let members: Vec<&Member> = members.iter().collect();
    audit_fleet(&router, &members, seed, &specs, &acked, &[]);
}

/// Drill 2: SIGKILL the router mid-flight. The rebuilt router recovers
/// its bindings from the journal — resubmissions deduplicate instead
/// of double-executing, and every in-flight job still completes.
fn router_restart_drill(root: &Path, seed: u64, wave_size: usize) {
    println!("== router restart drill: SIGKILL the router mid-flight ==");
    let mut members: Vec<Member> = (0..3).map(|i| Member::new(root, "restart", i)).collect();
    for member in &mut members {
        member.start(seed, 150);
    }
    let mut router = Router::new(root, "restart");
    let backends: Vec<(String, SocketAddr)> =
        members.iter().map(|m| (m.name.clone(), m.addr())).collect();
    router.start(&backends);

    let wave = workload("restart", 0, wave_size);
    {
        let mut client = router.client();
        for spec in &wave {
            assert_eq!(
                submit(&mut client, spec),
                Response::Accepted(spec.id.clone()),
                "submission of {} must be accepted",
                spec.id
            );
        }
    }
    std::thread::sleep(Duration::from_millis(100));
    router.kill();
    println!("   router killed with the wave in flight");

    // Restart on the same journal with NO --backend flags: the journal
    // alone must rebuild the fleet and every binding.
    router.start(&[]);
    let mut client = router.client();
    for spec in &wave {
        assert_eq!(
            submit(&mut client, spec),
            Response::Duplicate(spec.id.clone()),
            "{} was acked before the router died, so the rebuilt router must deduplicate it",
            spec.id
        );
    }
    for spec in &wave {
        match wait_terminal(&router, &spec.id) {
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
    let snapshot = fleet(&mut router.client());
    assert_eq!(
        snapshot.members.len(),
        3,
        "the journal must rebuild all three members"
    );
    println!("   rebuilt router deduplicated and completed the whole wave");

    router.drain();
    for member in &mut members {
        member.drain();
    }
    let acked: HashSet<String> = wave.iter().map(|s| s.id.clone()).collect();
    let members: Vec<&Member> = members.iter().collect();
    audit_fleet(&router, &members, seed, &wave, &acked, &[]);
}

/// Drill 3: live join and leave. A fourth member takes ring ranges on
/// join; a leave with bound jobs is refused; after a clean leave the
/// departed member's former ranges complete on the survivors.
fn join_leave_drill(root: &Path, seed: u64, wave_size: usize) {
    println!("== join/leave drill: rebalance a live fleet ==");
    let mut members: Vec<Member> = (0..4).map(|i| Member::new(root, "jl", i)).collect();
    for member in &mut members[..3] {
        member.start(seed, 150);
    }
    let mut router = Router::new(root, "jl");
    let backends: Vec<(String, SocketAddr)> = members[..3]
        .iter()
        .map(|m| (m.name.clone(), m.addr()))
        .collect();
    router.start(&backends);

    let mut specs: Vec<JobSpec> = Vec::new();
    let mut acked: HashSet<String> = HashSet::new();
    let submit_all = |router: &Router, wave: &[JobSpec]| {
        let mut client = router.client();
        for spec in wave {
            assert_eq!(
                submit(&mut client, spec),
                Response::Accepted(spec.id.clone()),
                "submission of {} must be accepted",
                spec.id
            );
        }
    };

    // The drill mirrors the router's ring to aim jobs at d3
    // deterministically: routing is a pure function of the id.
    let mut ring = HashRing::new(HashRing::DEFAULT_REPLICAS);
    for member in &members[..3] {
        ring.insert(&member.name);
    }

    members[3].start(seed, 150);
    let joined_addr = members[3].addr().to_string();
    match router.client().call(&RouterRequest::Join {
        name: "d3".to_owned(),
        addr: joined_addr,
    }) {
        Ok(RouterResponse::Joined(name)) => assert_eq!(name, "d3"),
        other => panic!("join of d3 answered {other:?}"),
    }
    ring.insert("d3");
    let snapshot = fleet(&mut router.client());
    assert_eq!(snapshot.members.len(), 4, "d3 must appear in the fleet");

    // Aim a wave at d3's new ranges, then try to evict it mid-flight:
    // the router must refuse to strand bound jobs.
    let aimed = specs_routed_to(&ring, "d3", "jl-aimed", wave_size.max(3));
    submit_all(&router, &aimed);
    for spec in &aimed {
        acked.insert(spec.id.clone());
    }
    specs.extend(aimed.iter().cloned());
    match router.client().call(&RouterRequest::Leave {
        name: "d3".to_owned(),
    }) {
        Ok(RouterResponse::Core(Response::Rejected(reason))) => assert!(
            reason.detail.contains("in-flight"),
            "mid-flight leave rejected with {reason:?}"
        ),
        other => panic!("mid-flight leave of d3 answered {other:?}"),
    }
    println!("   leave with bound jobs correctly refused");

    for spec in &aimed {
        match wait_terminal(&router, &spec.id) {
            JobState::Done(record) => assert_eq!(record, golden(seed, spec)),
            JobState::Failed(error) => panic!("{} failed: {error}", spec.id),
            _ => unreachable!(),
        }
    }

    // Now the clean leave, then prove its former ranges rebalance:
    // ids that WOULD have routed to d3 complete on the survivors.
    match router.client().call(&RouterRequest::Leave {
        name: "d3".to_owned(),
    }) {
        Ok(RouterResponse::Left(name)) => assert_eq!(name, "d3"),
        other => panic!("leave of d3 answered {other:?}"),
    }
    let snapshot = fleet(&mut router.client());
    assert_eq!(snapshot.members.len(), 3, "d3 must be gone from the fleet");

    let orphan_ranges = specs_routed_to(&ring, "d3", "jl-after", wave_size.max(3));
    submit_all(&router, &orphan_ranges);
    for spec in &orphan_ranges {
        acked.insert(spec.id.clone());
    }
    specs.extend(orphan_ranges.iter().cloned());
    for spec in &orphan_ranges {
        match wait_terminal(&router, &spec.id) {
            JobState::Done(record) => assert_eq!(record, golden(seed, spec)),
            JobState::Failed(error) => panic!("{} failed: {error}", spec.id),
            _ => unreachable!(),
        }
    }
    println!(
        "   {} jobs from d3's former ranges completed on the survivors",
        orphan_ranges.len()
    );

    router.drain();
    for member in &mut members {
        member.drain();
    }
    let members: Vec<&Member> = members.iter().collect();
    audit_fleet(
        &router,
        &members,
        seed,
        &specs,
        &acked,
        &[("d3", &orphan_ranges)],
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut seed = 2017u64;
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
            other => panic!("unknown flag {other:?} (router_chaos takes --smoke and --seed N)"),
        }
        i += 1;
    }
    let (kills, wave_size) = if smoke { (1, 6) } else { (3, 9) };

    let root = std::env::temp_dir().join(format!("router-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("create drill root");

    fleet_crash_drill(&root, seed, kills, wave_size);
    router_restart_drill(&root, seed, wave_size);
    join_leave_drill(&root, seed, wave_size);

    let _ = std::fs::remove_dir_all(&root);
    println!("all drills passed");
}
