//! `serve_small`: the real `qpdo_serve` binary, default configuration, a
//! fresh write-ahead journal on disk, driven over loopback by a closed
//! loop of at most two connections.
//!
//! Each connection submits `ler_surface 5 0.05 640` under a unique id
//! derived from the workload seed, then polls `query` every 500 µs until
//! a terminal reply. A job computes for about 1 ms of a several-ms op;
//! the rest is the serving path (protocol, event loop, admission, WAL
//! group commit, dispatch, progress and terminal commits). Every `done`
//! record must equal, byte for byte, `job::execute` for the job's seed,
//! computed in-process after the daemon drained.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use qpdo_bench::supervisor::CancelToken;
use qpdo_serve::job::{execute, job_seed, Backend, JobSpec};
use qpdo_serve::protocol::{recv_line, send_line, JobState, Request, Response};
use qpdo_serve::wal::{WalRecord, WriteAheadLog};

use crate::measure::{median, peak_rss_mb, timed, OpLog, Setups};
use crate::trace::{finish_trace, OpTrace, Tracer};
use crate::{Args, Report};

const KIND: [&str; 4] = ["ler_surface", "5", "0.05", "640"];
/// `qpdo_serve`'s default `--seed`; job seeds derive from it and the id.
const BASE_SEED: u64 = 2016;
const MAX_CONNS: usize = 2;
const POLL: Duration = Duration::from_micros(500);
const OP_TIMEOUT: Duration = Duration::from_secs(10);
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Daemon spawns per set-up group (~1 ms to `ready` each).
const SPAWNS_PER_GROUP: usize = 3;
const WARMUP_JOBS: usize = 4;
const WAL_APPENDS: usize = 200;
/// The daemon's peak RSS is read once this many timed jobs completed: its
/// job table grows with every job, so a fixed point in the work keeps the
/// reading comparable between runs of different throughput.
const RSS_AFTER_JOBS: usize = 1000;

/// Reads a process's peak RSS once a closed loop completed a set number
/// of timed jobs.
struct RssProbe {
    pid: u32,
    completed: AtomicUsize,
    reading: OnceLock<Result<f64, String>>,
}

impl RssProbe {
    fn job_done(&self) {
        if self.completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_JOBS {
            let _ = self.reading.set(peak_rss_mb(Some(self.pid)));
        }
    }
}

/// A protocol client that sends each request frame in one write with
/// Nagle's algorithm off. `protocol::Client` writes a frame as three
/// writes (length, CRC, payload); on Linux loopback Nagle then holds the
/// later writes until the daemon's delayed ACK, adding ~40 ms to every
/// call and swamping the serving path this workload measures.
struct Conn {
    stream: TcpStream,
    frame: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let setup = || -> std::io::Result<()> {
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))
        };
        setup().map_err(|e| format!("socket options: {e}"))?;
        Ok(Conn {
            stream,
            frame: Vec::new(),
        })
    }

    fn call(&mut self, request: &Request) -> Result<Response, String> {
        self.frame.clear();
        send_line(&mut self.frame, &request.encode()).map_err(|e| e.to_string())?;
        self.stream
            .write_all(&self.frame)
            .map_err(|e| format!("send: {e}"))?;
        match recv_line(&mut self.stream) {
            Ok(Some(line)) => Response::parse(&line),
            Ok(None) => Err("daemon hung up before responding".to_owned()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A running daemon; killed and reaped on drop unless drained first.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    wal: PathBuf,
}

impl Daemon {
    /// Spawns the daemon on a fresh journal directory; returns it, its
    /// address and the seconds from spawn to its `ready` line.
    fn spawn(bin: &Path, wal: PathBuf) -> Result<(Daemon, SocketAddr, f64), String> {
        if wal.exists() {
            std::fs::remove_dir_all(&wal).map_err(|e| format!("clear {}: {e}", wal.display()))?;
        }
        std::fs::create_dir_all(&wal).map_err(|e| format!("create {}: {e}", wal.display()))?;
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("--wal-dir")
            .arg(&wal)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon { child, stdout, wal };
        let mut addr = None;
        loop {
            let mut line = String::new();
            match daemon.stdout.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("daemon exited before printing ready".to_owned()),
                Ok(_) => {}
            }
            if let Some(a) = line.trim().strip_prefix("listening on ") {
                addr = a.parse().ok();
            } else if line.trim() == "ready" {
                break;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let addr = addr.ok_or("daemon printed ready without an address")?;
        Ok((daemon, addr, secs))
    }

    /// Drains the daemon and waits for a clean exit.
    fn drain(mut self, addr: SocketAddr) -> Result<(), String> {
        match Conn::connect(addr)?.call(&Request::Drain) {
            Ok(Response::Drained) => {}
            other => return Err(format!("drain answered {other:?}")),
        }
        // Read the exit summary so the daemon never writes to a closed pipe.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.wal);
    }
}

/// One closed-loop job as the client saw it.
struct Job {
    id: String,
    submit: Instant,
    ack: Option<Instant>,
    done: Option<Instant>,
    /// The `done` record, or why the job failed or was refused.
    outcome: Result<String, String>,
    timed: bool,
    /// Round trip of a `query` on the finished job (traced phase only).
    probe: Option<Duration>,
}

fn spec(id: &str) -> Result<JobSpec, String> {
    let mut tokens = vec![id, "-"];
    tokens.extend(KIND);
    JobSpec::parse(&tokens)
}

/// Submits one job and polls until its terminal reply.
fn job(client: &mut Conn, id: String, timed: bool, probe: bool) -> Job {
    let submit = Instant::now();
    let mut job = Job {
        id,
        submit,
        ack: None,
        done: None,
        outcome: Err("not submitted".to_owned()),
        timed,
        probe: None,
    };
    let spec = match spec(&job.id) {
        Ok(spec) => spec,
        Err(e) => {
            job.outcome = Err(e);
            return job;
        }
    };
    match client.call(&Request::Submit(spec)) {
        Ok(Response::Accepted(_)) => job.ack = Some(Instant::now()),
        other => {
            job.outcome = Err(format!("submit answered {other:?}"));
            return job;
        }
    }
    job.outcome = loop {
        std::thread::sleep(POLL);
        if submit.elapsed() > OP_TIMEOUT {
            break Err("timed out".to_owned());
        }
        match client.call(&Request::Query(job.id.clone())) {
            Ok(Response::State(_, JobState::Queued | JobState::Running)) => {}
            Ok(Response::State(_, JobState::Done(record))) => break Ok(record),
            other => break Err(format!("query answered {other:?}")),
        }
    };
    job.done = Some(Instant::now());
    if probe && job.outcome.is_ok() {
        let start = Instant::now();
        match client.call(&Request::Query(job.id.clone())) {
            Ok(Response::State(_, JobState::Done(_))) => job.probe = Some(start.elapsed()),
            other => job.outcome = Err(format!("query of a finished job answered {other:?}")),
        }
    }
    job
}

/// Runs `conns` closed-loop connections for `budget` after `warmup`
/// untimed jobs each; returns every job and the common timed start.
fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    tag: &str,
    budget: Duration,
    warmup: usize,
    probe: bool,
    rss: Option<&RssProbe>,
) -> Result<(Vec<Job>, Instant), String> {
    let barrier = Barrier::new(conns);
    let t0 = OnceLock::new();
    let jobs = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                let (barrier, t0, jobs) = (&barrier, &t0, &jobs);
                scope.spawn(move || -> Result<(), String> {
                    let mut client = Conn::connect(addr);
                    let mut mine = Vec::new();
                    let id = |n: usize| format!("{tag}-c{conn}-{n}");
                    if let Ok(client) = &mut client {
                        for n in 0..warmup {
                            mine.push(job(client, id(n), false, false));
                        }
                    }
                    // Every connection reaches the barrier, even one that
                    // failed to connect, so none waits forever.
                    barrier.wait();
                    let mut client = client?;
                    let start = *t0.get_or_init(Instant::now);
                    let mut n = warmup;
                    while start.elapsed() < budget {
                        mine.push(job(&mut client, id(n), true, probe));
                        rss.inspect(|p| p.job_done());
                        n += 1;
                    }
                    jobs.lock().expect("no job-log holder panics").extend(mine);
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().map_err(|_| "client thread panicked".to_owned())?)
    })?;
    let t0 = *t0.get().ok_or("no client reached the timed phase")?;
    Ok((jobs.into_inner().expect("no job-log holder panics"), t0))
}

/// Jobs completed within the timed phase, per second of it.
fn jobs_per_s(jobs: &[Job], t0: Instant, budget: Duration) -> f64 {
    let end = t0 + budget;
    let completed = jobs
        .iter()
        .filter(|j| j.timed && j.outcome.is_ok())
        .filter(|j| j.done.is_some_and(|done| done <= end))
        .count();
    completed as f64 / budget.as_secs_f64()
}

fn latency_log(jobs: &[Job]) -> OpLog {
    let mut log = OpLog::default();
    for j in jobs.iter().filter(|j| j.timed && j.outcome.is_ok()) {
        if let Some(done) = j.done {
            log.push((done - j.submit).as_secs_f64(), 1.0);
        }
    }
    log
}

fn ms_p50(values: impl Iterator<Item = Duration>) -> f64 {
    let ms: Vec<f64> = values.map(|d| d.as_secs_f64() * 1e3).collect();
    median(&ms)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let conns = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(MAX_CONNS);
    let tag = format!("s{:x}", args.seed);
    let wal = |n: usize| {
        args.work_dir
            .join(format!("wal-{}-{n}", std::process::id()))
    };

    // Set-up: daemon spawn to `ready`, each on a fresh journal.
    if !args.trace {
        let setup = Setups::new(SPAWNS_PER_GROUP, |n| {
            let (daemon, addr, secs) = Daemon::spawn(&args.serve_bin, wal(n + 1))?;
            daemon.drain(addr)?;
            Ok(secs)
        })
        .finish()?;
        report.set("setup_s", setup);
    }
    let (daemon, addr, _) = Daemon::spawn(&args.serve_bin, wal(0))?;

    let mut tracer = Tracer::default();
    let (jobs, plain_log, traced_log) = if args.trace {
        // Alternate untraced and traced quarters so drift hits both alike.
        let quarter = args.budget / 4;
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for q in 0..4 {
            let warmup = if q == 0 { WARMUP_JOBS } else { 0 };
            let probe = q % 2 == 1;
            let (jobs, _) = closed_loop(
                addr,
                conns,
                &format!("{tag}q{q}"),
                quarter,
                warmup,
                probe,
                None,
            )?;
            if probe {
                traced.extend(jobs)
            } else {
                plain.extend(jobs)
            }
        }
        for j in traced.iter().filter(|j| j.timed) {
            let (Some(ack), Some(done)) = (j.ack, j.done) else {
                continue;
            };
            let mut op = OpTrace::start_at(j.submit);
            let s = op.span("serve.ack", None);
            op.record(s, j.submit, ack);
            let s = op.span("serve.result_wait", None);
            op.record(s, ack, done);
            let end = match j.probe {
                Some(rtt) => {
                    let s = op.span("serve.query_finished", None);
                    op.record(s, done, done + rtt);
                    done + rtt
                }
                None => done,
            };
            tracer.push(op.finish_at(end));
        }
        let ok = || traced.iter().filter(|j| j.timed && j.outcome.is_ok());
        report.set(
            "serve.ack_p50_ms",
            ms_p50(ok().filter_map(|j| Some(j.ack? - j.submit))),
        );
        report.set(
            "serve.result_wait_p50_ms",
            ms_p50(ok().filter_map(|j| Some(j.done? - j.ack?))),
        );
        report.set(
            "serve.query_rtt_p50_us",
            ms_p50(ok().filter_map(|j| j.probe)) * 1e3,
        );
        let (p, t) = (latency_log(&plain), latency_log(&traced));
        plain.extend(traced);
        (plain, Some(p), Some(t))
    } else {
        let rss = RssProbe {
            pid: daemon.child.id(),
            completed: AtomicUsize::new(0),
            reading: OnceLock::new(),
        };
        let (jobs, t0) = closed_loop(
            addr,
            conns,
            &tag,
            args.budget,
            WARMUP_JOBS,
            false,
            Some(&rss),
        )?;
        // A run too short to reach the probe point reads at its end.
        let rss = rss
            .reading
            .into_inner()
            .unwrap_or_else(|| peak_rss_mb(Some(daemon.child.id())))?;
        report.set("peak_rss_mb", rss);
        let log = latency_log(&jobs);
        report.set("work_per_s", jobs_per_s(&jobs, t0, args.budget));
        report.set("op_p50_ms", log.op_ms(0.5));
        report.set("op_p90_ms", log.op_ms(0.9));
        (jobs, None, None)
    };

    // The daemon's own counters, read before drain.
    let health = Conn::connect(addr)?.call(&Request::Health)?;
    let Response::Health(health) = health else {
        return Err(format!("health answered {health:?}"));
    };
    daemon.drain(addr)?;

    let execute_secs = check_results(&jobs, &mut report)?;
    report.set(
        "ok_frac",
        1.0 - report.failed as f64 / report.attempted as f64,
    );
    if let (Some(plain), Some(traced)) = (plain_log, traced_log) {
        report.set("serve.execute_ms", median(&execute_secs) * 1e3);
        report.set("serve.wal_append_sync_us", wal_append_us(&wal(1))?);
        report.set(
            "serve.batches_per_job",
            health.batches as f64 / health.completed as f64,
        );
        report.set("serve.shed", health.shed as f64);
        report.set("serve.duplicates", health.duplicates as f64);
        finish_trace(args, &mut report, &tracer, &plain, &traced)?;
        let op_p50 = plain.op_ms(0.5);
        let execute_ms = median(&execute_secs) * 1e3;
        report.notes.push(format!(
            "premise {}: execute {execute_ms:.3} ms vs op p50 {op_p50:.3} ms (must be under a third)",
            if execute_ms < op_p50 / 3.0 { "holds" } else { "FAILS" }
        ));
    }
    Ok(report)
}

/// Compares every job's `done` record with `job::execute` for the job's
/// seed, on two threads; returns each execution's wall time in seconds.
fn check_results(jobs: &[Job], report: &mut Report) -> Result<Vec<f64>, String> {
    let cancel = CancelToken::new();
    let chunks: Vec<&[Job]> = jobs.chunks(jobs.len().div_ceil(MAX_CONNS).max(1)).collect();
    let expected: Vec<Vec<(Result<String, String>, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let cancel = &cancel;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|j| {
                            let (out, secs) = timed(|| {
                                let kind = spec(&j.id)?.kind;
                                execute(&kind, Backend::Packed, job_seed(BASE_SEED, &j.id), cancel)
                                    .map_err(|e| e.to_string())
                            });
                            (out, secs)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "golden thread panicked".to_owned()))
            .collect::<Result<_, _>>()
    })?;
    let mut secs = Vec::with_capacity(jobs.len());
    for (j, (want, s)) in jobs.iter().zip(expected.into_iter().flatten()) {
        secs.push(s);
        let ok = matches!((&j.outcome, &want), (Ok(got), Ok(want)) if got == want);
        report.check(ok, || {
            format!("job {}: got {:?}, want {want:?}", j.id, j.outcome)
        });
    }
    Ok(secs)
}

/// Median microseconds of one synced `WriteAheadLog::append` on the
/// filesystem the daemon journals to.
fn wal_append_us(dir: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (mut wal, _) = WriteAheadLog::open(dir, WriteAheadLog::DEFAULT_MAX_SEGMENT_BYTES)
        .map_err(|e| format!("open journal: {e}"))?;
    let mut us = Vec::with_capacity(WAL_APPENDS);
    for n in 0..WAL_APPENDS {
        let record = WalRecord::Accept(spec(&format!("walbench-{n}"))?);
        let (out, secs) = timed(|| wal.append(&record));
        out.map_err(|e| format!("journal append: {e}"))?;
        us.push(secs * 1e6);
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);
    Ok(median(&us))
}
