//! `loadgen` — the serving-core load generator and regression gate.
//!
//! Spawns the `qpdo_serve` daemon (sibling binary in the same target
//! dir), drives 4× the baseline connection count with an **open-loop**
//! arrival schedule (seeded jitter around a fixed interarrival, so a
//! slow server cannot slow the offered load down — latency is measured
//! from the *scheduled* arrival, which makes the tail
//! coordinated-omission-proof), and writes
//! `<out>/BENCH_serve.json` (schema `qpdo-bench-serve-v1`).
//!
//! The report holds two scenarios:
//!
//! - `event_4x` — measured live: the event loop with group commit at
//!   its defaults, driven by **4x the connection count** of the
//!   baseline, against a stalled executor so the arrival wave
//!   genuinely overloads the queue.
//! - `threaded_baseline` — frozen: the thread-per-connection server
//!   with one fsync per journal record, measured at 1x the
//!   connections before that server was deleted. A run reads it from
//!   the report already at `<out>/BENCH_serve.json` and copies it into
//!   the new report unchanged.
//!
//! Each scenario carries throughput, p50/p99/p999 ack latency, and the
//! shed rate (typed `overloaded`/`busy` rejections over total
//! replies). A full run fails unless a frozen baseline measured under
//! the same workload is present and the event loop's p99 at 4x the
//! connections is equal or better than its p99
//! (`derived.event_p99_not_worse`). A `--smoke` run measures
//! `event_4x` on a tiny configuration and schema-checks the report; it
//! gates nothing against the baseline.
//!
//! This binary deliberately speaks the wire protocol through the
//! record frame of [`qpdo_core::journal`] alone (the serve crate's
//! manifest still lists this one, so its types are out of reach) — which doubles as an independent
//! check that the protocol is implementable from its documented
//! grammar: `submit <id> <deadline|-> bell <shots>` in, one-token-verb
//! replies out.
//!
//! Flags: `--out DIR` (default `results`), `--conns N` (baseline
//! connection count, default 12), `--ops N` (requests per connection,
//! default 40), `--seed N` (default 2016), `--smoke` (tiny
//! configuration + schema validation, for `scripts/verify.sh`).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qpdo_bench::json::{write_report, Json};
use qpdo_core::journal::{read_record, write_record};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};

const SCHEMA: &str = "qpdo-bench-serve-v1";
/// The report's file name under `--out`.
const REPORT: &str = "BENCH_serve.json";
/// The frozen scenario, carried forward from the previous report.
const THREADED: &str = "threaded_baseline";
/// The live scenario.
const EVENT: &str = "event_4x";
/// The live scenario's group commit, pinned at the daemon's defaults.
const COMMIT_BATCH: usize = 64;
const COMMIT_INTERVAL_US: u64 = 200;
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
const CALL_TIMEOUT: Duration = Duration::from_secs(30);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);

struct Args {
    out: PathBuf,
    conns: usize,
    ops: usize,
    seed: u64,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: PathBuf::from("results"),
        conns: 12,
        ops: 40,
        seed: 2016,
        smoke: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => {
                args.out = iter
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--out requires a directory")?;
            }
            "--conns" => {
                args.conns = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--conns requires a positive integer")?;
            }
            "--ops" => {
                args.ops = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--ops requires a positive integer")?;
            }
            "--seed" => {
                args.seed = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed requires an integer")?;
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.conns == 0 || args.ops == 0 {
        return Err("--conns and --ops must be at least 1".into());
    }
    Ok(args)
}

/// FNV-1a, for folding scenario names into per-connection rng seeds.
fn fnv(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A raw framed-line connection: the protocol as its grammar documents
/// it, no serve-crate types involved.
struct Wire {
    stream: TcpStream,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Result<Wire, String> {
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(CALL_TIMEOUT))
                        .and_then(|()| stream.set_write_timeout(Some(CALL_TIMEOUT)))
                        .map_err(|e| format!("socket timeouts: {e}"))?;
                    return Ok(Wire { stream });
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(format!("cannot connect to {addr}: {e}")),
            }
        }
    }

    /// One request/reply round trip; returns the reply line.
    fn call(&mut self, line: &str) -> std::io::Result<String> {
        write_record(&mut self.stream, line.as_bytes())?;
        self.stream.flush()?;
        match read_record(&mut self.stream)? {
            Some(payload) => String::from_utf8(payload)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())),
            None => Err(std::io::ErrorKind::UnexpectedEof.into()),
        }
    }
}

struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(wal_dir: &Path, flags: &[&str]) -> Result<Daemon, String> {
        let daemon_path = std::env::current_exe()
            .map_err(|e| format!("own path: {e}"))?
            .parent()
            .ok_or("binary dir")?
            .join("qpdo_serve");
        let mut child = Command::new(&daemon_path)
            .arg("--wal-dir")
            .arg(wal_dir)
            .args(["--port", "0"])
            .args(flags)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", daemon_path.display()))?;
        let stdout = child.stdout.take().ok_or("piped stdout")?;
        let mut lines = BufReader::new(stdout).lines();
        let mut addr = None;
        for line in &mut lines {
            let line = line.map_err(|e| format!("daemon stdout: {e}"))?;
            if let Some(rest) = line.strip_prefix("listening on ") {
                addr = Some(
                    rest.parse()
                        .map_err(|e| format!("daemon printed {rest:?} for its address: {e}"))?,
                );
            }
            if line == "ready" {
                break;
            }
        }
        // Keep draining stdout so the daemon never blocks on the pipe.
        std::thread::spawn(move || for _ in lines {});
        Ok(Daemon {
            child,
            addr: addr.ok_or("daemon never printed its listening address")?,
        })
    }

    /// Graceful drain; falls back to SIGKILL so a wedged daemon fails
    /// the run instead of hanging it.
    fn drain(mut self) -> Result<(), String> {
        let mut wire = Wire::connect(self.addr)?;
        let reply = wire.call("drain").map_err(|e| format!("drain call: {e}"))?;
        if reply != "drained" {
            self.child.kill().ok();
            return Err(format!("drain answered {reply:?}"));
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        loop {
            match self
                .child
                .try_wait()
                .map_err(|e| format!("poll daemon: {e}"))?
            {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("drained daemon exited with {status}")),
                None if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                None => {
                    self.child.kill().ok();
                    self.child.wait().ok();
                    return Err("daemon did not exit after drain".into());
                }
            }
        }
    }
}

struct ScenarioResult {
    conns: usize,
    ops_offered: u64,
    replies: u64,
    accepted: u64,
    shed: u64,
    errors: u64,
    elapsed_s: f64,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    shed_rate: f64,
}

/// Nearest-rank percentile over an already-sorted latency vector.
fn percentile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)] as f64
}

/// Runs the live scenario: spawn the daemon, drive `conns` open-loop
/// clients, drain, reduce to percentiles.
fn run_event_scenario(
    root: &Path,
    seed: u64,
    conns: usize,
    ops: usize,
    interarrival: Duration,
    stall_ms: u64,
) -> Result<ScenarioResult, String> {
    let wal_dir = root.join(format!("wal-{EVENT}"));
    if wal_dir.exists() {
        std::fs::remove_dir_all(&wal_dir)
            .map_err(|e| format!("clear {}: {e}", wal_dir.display()))?;
    }
    let batch = COMMIT_BATCH.to_string();
    let interval = COMMIT_INTERVAL_US.to_string();
    let stall = stall_ms.to_string();
    let seed_flag = seed.to_string();
    let daemon = Daemon::spawn(
        &wal_dir,
        &[
            "--commit-batch",
            &batch,
            "--commit-interval-us",
            &interval,
            "--jobs",
            "2",
            "--queue-depth",
            "32",
            "--chaos-stall-ms",
            &stall,
            "--seed",
            &seed_flag,
        ],
    )?;
    let addr = daemon.addr;

    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let accepted = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let replies = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..conns {
            let latencies = &latencies;
            let (accepted, shed, errors, replies) = (&accepted, &shed, &errors, &replies);
            let mut rng = StdRng::seed_from_u64(seed ^ fnv(EVENT) ^ c as u64);
            scope.spawn(move || {
                let Ok(mut wire) = Wire::connect(addr) else {
                    errors.fetch_add(ops as u64, Ordering::Relaxed);
                    return;
                };
                let mut local: Vec<u64> = Vec::with_capacity(ops);
                let mut scheduled = Instant::now();
                for k in 0..ops {
                    // Open loop: the next arrival is scheduled from the
                    // previous arrival, never from the reply.
                    scheduled += interarrival.mul_f64(rng.gen_range(0.5..1.5));
                    let now = Instant::now();
                    if now < scheduled {
                        std::thread::sleep(scheduled - now);
                    }
                    let line = format!("submit {EVENT}-{c}-{k} - bell 1");
                    match wire.call(&line) {
                        Ok(reply) => {
                            let lat = scheduled.elapsed().as_micros().max(1) as u64;
                            local.push(lat);
                            replies.fetch_add(1, Ordering::Relaxed);
                            match reply.split_whitespace().next() {
                                Some("accepted") => {
                                    accepted.fetch_add(1, Ordering::Relaxed);
                                }
                                Some("rejected") => {
                                    shed.fetch_add(1, Ordering::Relaxed);
                                }
                                _ => {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                latencies.lock().expect("latency lock").extend(local);
            });
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64().max(1e-9);
    daemon.drain()?;

    let mut sorted = latencies.into_inner().expect("latency lock");
    sorted.sort_unstable();
    let replies = replies.into_inner();
    let shed = shed.into_inner();
    Ok(ScenarioResult {
        conns,
        ops_offered: (conns * ops) as u64,
        replies,
        accepted: accepted.into_inner(),
        shed,
        errors: errors.into_inner(),
        elapsed_s,
        throughput_rps: replies as f64 / elapsed_s,
        p50_us: percentile(&sorted, 0.50),
        p99_us: percentile(&sorted, 0.99),
        p999_us: percentile(&sorted, 0.999),
        shed_rate: if replies == 0 {
            0.0
        } else {
            shed as f64 / replies as f64
        },
    })
}

fn scenario_entry(result: &ScenarioResult) -> Json {
    Json::object([
        ("name", Json::from(EVENT)),
        ("conns", Json::from(result.conns)),
        ("commit_batch", Json::from(COMMIT_BATCH)),
        ("ops_offered", Json::from(result.ops_offered)),
        ("replies", Json::from(result.replies)),
        ("accepted", Json::from(result.accepted)),
        ("shed", Json::from(result.shed)),
        ("errors", Json::from(result.errors)),
        ("elapsed_s", Json::from(result.elapsed_s)),
        ("throughput_rps", Json::from(result.throughput_rps)),
        ("p50_us", Json::from(result.p50_us)),
        ("p99_us", Json::from(result.p99_us)),
        ("p999_us", Json::from(result.p999_us)),
        ("shed_rate", Json::from(result.shed_rate)),
    ])
}

/// The report's entry for scenario `name`, if it has one.
fn scenario<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("scenarios")?
        .as_array()?
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
}

/// Validates the report against the `qpdo-bench-serve-v1` schema; the
/// smoke gate in `scripts/verify.sh` rides on this. A full report
/// needs both scenarios and the derived comparison; a smoke report
/// needs only `event_4x`.
fn validate_report(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("schema field must be {SCHEMA:?}"));
    }
    for field in ["seed", "ops_per_conn"] {
        doc.get(field)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric field {field:?}"))?;
    }
    let smoke = match doc.get("smoke") {
        Some(Json::Bool(smoke)) => *smoke,
        _ => return Err("missing boolean field \"smoke\"".into()),
    };
    for name in [THREADED, EVENT] {
        let Some(entry) = scenario(doc, name) else {
            if smoke && name == THREADED {
                continue;
            }
            return Err(format!("missing scenario entry {name:?}"));
        };
        for field in ["conns", "ops_offered", "replies", "throughput_rps"] {
            let v = entry
                .get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("scenario {name:?} missing field {field:?}"))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "scenario {name:?} field {field:?} must be positive"
                ));
            }
        }
        let p50 = entry.get("p50_us").and_then(Json::as_f64);
        let p99 = entry.get("p99_us").and_then(Json::as_f64);
        let p999 = entry.get("p999_us").and_then(Json::as_f64);
        match (p50, p99, p999) {
            (Some(p50), Some(p99), Some(p999))
                if p50 > 0.0 && p50 <= p99 && p99 <= p999 && p999.is_finite() => {}
            _ => {
                return Err(format!(
                    "scenario {name:?} percentiles must satisfy 0 < p50 <= p99 <= p999"
                ));
            }
        }
        let shed_rate = entry
            .get("shed_rate")
            .and_then(Json::as_f64)
            .ok_or(format!("scenario {name:?} missing shed_rate"))?;
        if !(0.0..=1.0).contains(&shed_rate) {
            return Err(format!("scenario {name:?} shed_rate must be in [0, 1]"));
        }
    }
    if smoke {
        return Ok(());
    }
    let derived = doc.get("derived").ok_or("missing derived object")?;
    let ratio = derived
        .get("conn_ratio")
        .and_then(Json::as_f64)
        .ok_or("missing derived.conn_ratio")?;
    if ratio < 4.0 {
        return Err(format!(
            "derived.conn_ratio is {ratio}, the event scenario must hold >= 4x the connections"
        ));
    }
    for field in ["p99_ratio_event_over_threaded", "throughput_ratio"] {
        let v = derived
            .get(field)
            .and_then(Json::as_f64)
            .ok_or(format!("missing derived.{field}"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("derived.{field} must be positive and finite"));
        }
    }
    if !matches!(derived.get("event_p99_not_worse"), Some(Json::Bool(_))) {
        return Err("missing derived.event_p99_not_worse".into());
    }
    Ok(())
}

/// Reads the frozen `threaded_baseline` entry from the report at
/// `path` and checks that it was measured under this run's workload.
fn frozen_baseline(
    path: &Path,
    ops: usize,
    interarrival: Duration,
    stall_ms: u64,
) -> Result<Json, String> {
    let missing = |why: String| {
        format!(
            "{why}; a full run gates against the frozen {THREADED:?} entry there \
             (the committed results/BENCH_serve.json holds one)"
        )
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| missing(format!("cannot read {}: {e}", path.display())))?;
    let doc = Json::parse(&text)
        .map_err(|e| missing(format!("{} is not valid JSON: {e}", path.display())))?;
    let entry = scenario(&doc, THREADED)
        .ok_or_else(|| missing(format!("{} has no {THREADED:?} entry", path.display())))?;
    let workload = [
        ("ops_per_conn", ops as f64),
        ("interarrival_us", interarrival.as_micros() as f64),
        ("stall_ms", stall_ms as f64),
    ];
    for (field, value) in workload {
        let frozen = doc.get(field).and_then(Json::as_f64);
        if frozen != Some(value) {
            return Err(format!(
                "the frozen baseline in {} was measured with {field} {frozen:?}, \
                 this run uses {value}",
                path.display()
            ));
        }
    }
    Ok(entry.clone())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("loadgen: {err}");
            eprintln!("usage: loadgen [--out DIR] [--conns N] [--ops N] [--seed N] [--smoke]");
            return ExitCode::FAILURE;
        }
    };
    if let Err(err) = run(&args) {
        eprintln!("loadgen: {err}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run(args: &Args) -> Result<(), String> {
    let (base_conns, ops, interarrival, stall_ms) = if args.smoke {
        (2, 6.min(args.ops), Duration::from_millis(5), 2)
    } else {
        (args.conns, args.ops, Duration::from_millis(20), 5)
    };
    // Read before measuring: a full run without its baseline fails fast.
    let baseline = if args.smoke {
        None
    } else {
        let path = args.out.join(REPORT);
        Some(frozen_baseline(&path, ops, interarrival, stall_ms)?)
    };
    let root = std::env::temp_dir().join(format!("loadgen-{}", std::process::id()));
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;

    let conns = base_conns * 4;
    println!("scenario {EVENT}: {conns} conns, commit batch {COMMIT_BATCH}");
    let event = run_event_scenario(&root, args.seed, conns, ops, interarrival, stall_ms);
    std::fs::remove_dir_all(&root).ok();
    let event = event?;
    println!(
        "   {:.0} rps, p50 {:.0} us, p99 {:.0} us, p999 {:.0} us, shed {:.1}%, errors {}",
        event.throughput_rps,
        event.p50_us,
        event.p99_us,
        event.p999_us,
        event.shed_rate * 100.0,
        event.errors
    );
    if event.replies == 0 {
        return Err("the event scenario completed zero requests".into());
    }

    // A full run gates against the frozen baseline and carries it
    // forward unchanged; a smoke run reports `event_4x` alone.
    let mut scenarios = Vec::new();
    let mut derived = None;
    if let Some(threaded) = baseline {
        let number = |field: &str| {
            threaded
                .get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("frozen {THREADED:?} entry lacks {field:?}"))
        };
        let (threaded_p99, threaded_conns) = (number("p99_us")?, number("conns")?);
        let threaded_rps = number("throughput_rps")?;
        println!(
            "frozen {THREADED}: {threaded_conns} conns, {threaded_rps:.0} rps, p99 {threaded_p99:.0} us"
        );
        let event_p99_not_worse = event.p99_us <= threaded_p99;
        if !event_p99_not_worse {
            // The full run is the regression gate proper: the event loop
            // holding 4x the connections must not cost tail latency.
            return Err(format!(
                "event loop p99 {:.0} us is worse than the frozen threaded baseline \
                 {threaded_p99:.0} us at 4x conns",
                event.p99_us
            ));
        }
        derived = Some(Json::object([
            ("conn_ratio", Json::from(conns as f64 / threaded_conns)),
            (
                "p99_ratio_event_over_threaded",
                Json::from(event.p99_us / threaded_p99.max(1.0)),
            ),
            (
                "throughput_ratio",
                Json::from(event.throughput_rps / threaded_rps),
            ),
            ("event_p99_not_worse", Json::from(event_p99_not_worse)),
        ]));
        scenarios.push(threaded);
    }
    scenarios.push(scenario_entry(&event));
    let report = Json::object(
        [
            ("schema", Json::from(SCHEMA)),
            ("seed", Json::from(args.seed)),
            ("smoke", Json::from(args.smoke)),
            ("ops_per_conn", Json::from(ops)),
            (
                "interarrival_us",
                Json::from(interarrival.as_micros() as u64),
            ),
            ("stall_ms", Json::from(stall_ms)),
            ("scenarios", Json::array(scenarios)),
        ]
        .into_iter()
        .chain(derived.map(|d| ("derived", d))),
    );

    let path = write_report(&report, &args.out, REPORT, validate_report)?;
    println!(
        "wrote {} ({})",
        path.display(),
        if args.smoke { "smoke" } else { "full" }
    );
    Ok(())
}
