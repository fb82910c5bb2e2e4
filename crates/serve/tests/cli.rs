//! The `qpdo_serve` command line, driven through the built binary:
//! flags outside the daemon's own vocabulary and out-of-range values
//! exit 2 before a port is bound, and the serving flags it parses
//! (`--queue-depth`, `--deadline-ms`) take effect.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use qpdo_serve::job::{JobKind, JobSpec};
use qpdo_serve::protocol::{Client, JobState, RejectCode, Request, Response};

const TIMEOUT: Duration = Duration::from_secs(60);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpdo-serve-cli-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    dir
}

fn daemon(dir: &std::path::Path, args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_qpdo_serve"))
        .arg("--wal-dir")
        .arg(dir)
        .args(["--port", "0"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn qpdo_serve")
}

/// Runs the daemon with `args` and returns its exit code and stdout,
/// failing the test if it is still running (i.e. it started serving).
fn exit_of(args: &[&str]) -> (Option<i32>, String) {
    let dir = fresh_dir("reject");
    let mut child = daemon(&dir, args);
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll qpdo_serve") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("qpdo_serve {args:?} is still running instead of exiting");
        }
        thread::sleep(Duration::from_millis(10));
    };
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)
        .expect("read stdout");
    std::fs::remove_dir_all(&dir).ok();
    (status.code(), stdout)
}

/// Spawns the daemon and waits for its `ready` line.
fn serving(dir: &std::path::Path, args: &[&str]) -> (Child, SocketAddr) {
    let mut child = daemon(dir, args);
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let mut addr = None;
    for line in &mut lines {
        let line = line.expect("daemon stdout");
        if let Some(rest) = line.strip_prefix("listening on ") {
            addr = Some(rest.parse().expect("listening address"));
        }
        if line == "ready" {
            break;
        }
    }
    // Keep draining stdout so the daemon never blocks on the pipe.
    thread::spawn(move || for _ in lines {});
    (child, addr.expect("daemon printed its address"))
}

fn drain(mut child: Child, addr: SocketAddr) {
    let mut client = Client::connect(addr, Some(TIMEOUT)).expect("connect");
    assert_eq!(client.call(&Request::Drain).unwrap(), Response::Drained);
    let status = child.wait().expect("wait for qpdo_serve");
    assert!(status.success(), "drained daemon exited with {status}");
}

fn bell(id: &str) -> JobSpec {
    JobSpec {
        id: id.to_owned(),
        deadline_ms: None,
        kind: JobKind::Bell { shots: 2 },
    }
}

fn wait_terminal(client: &mut Client, id: &str) -> JobState {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        match client.call(&Request::Query(id.to_owned())).unwrap() {
            Response::State(
                _,
                state @ (JobState::Done(_) | JobState::Failed(_) | JobState::Partial(_)),
            ) => return state,
            Response::State(..) => {}
            other => panic!("query {id} answered {other:?}"),
        }
        assert!(Instant::now() < deadline, "job {id} never became terminal");
        thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn unknown_and_out_of_range_flags_exit_2_without_binding() {
    for args in [
        &["--io-model", "threaded"][..],
        &["--full"],
        &["--out", "results"],
        &["--queue-depth", "0"],
        &["--queue-depth", "10000000"],
        &["--deadline-ms", "0"],
        &["--deadline-ms", "99999999999"],
        &["--deadline-ms"],
        &["--jobs", "0"],
        &["--seed", "-3"],
        // No per-backend breaker or backend fault flags: each job kind
        // runs on its one backend.
        &["--chaos-backend-fail", "packed:1"],
        &["--breaker-threshold", "2"],
        &["--breaker-cooloff-ms", "5"],
    ] {
        let (code, stdout) = exit_of(args);
        assert_eq!(code, Some(2), "qpdo_serve {args:?}");
        assert!(!stdout.contains("listening on"), "{args:?} bound a port");
    }
}

#[test]
fn defaults_accept_and_complete_without_a_deadline() {
    let dir = fresh_dir("defaults");
    let (child, addr) = serving(&dir, &[]);
    let mut client = Client::connect(addr, Some(TIMEOUT)).expect("connect");
    for i in 0..4 {
        let id = format!("plain-{i}");
        assert_eq!(
            client.call(&Request::Submit(bell(&id))).unwrap(),
            Response::Accepted(id.clone())
        );
    }
    for i in 0..4 {
        let state = wait_terminal(&mut client, &format!("plain-{i}"));
        assert!(matches!(state, JobState::Done(_)), "{state:?}");
    }
    drain(child, addr);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn queue_depth_and_deadline_flags_take_effect() {
    let dir = fresh_dir("serving-flags");
    let (child, addr) = serving(
        &dir,
        &[
            "--jobs",
            "1",
            "--queue-depth",
            "1",
            "--deadline-ms",
            "100",
            "--chaos-stall-ms",
            "400",
        ],
    );
    let mut client = Client::connect(addr, Some(TIMEOUT)).expect("connect");
    let mut accepted = Vec::new();
    let mut shed = 0;
    for i in 0..4 {
        let spec = bell(&format!("late-{i}"));
        match client.call(&Request::Submit(spec.clone())).unwrap() {
            Response::Accepted(_) => accepted.push(spec.id),
            Response::Rejected(reason) => {
                assert_eq!(reason.code, RejectCode::Overloaded, "{reason:?}");
                shed += 1;
            }
            other => panic!("submit answered {other:?}"),
        }
    }
    assert!(shed >= 1, "--queue-depth 1 must shed part of the burst");
    assert!(!accepted.is_empty());
    // The submissions carry no deadline, so `--deadline-ms` supplies
    // one, and the stalled executor misses it.
    for id in &accepted {
        let JobState::Failed(error) = wait_terminal(&mut client, id) else {
            panic!("{id} must miss the default deadline");
        };
        assert!(error.contains("deadline"), "{error:?}");
    }
    drain(child, addr);
    std::fs::remove_dir_all(&dir).unwrap();
}
