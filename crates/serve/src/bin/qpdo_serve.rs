//! The shot-service daemon binary (`DESIGN.md` §9).
//!
//! Binds a TCP listener, prints `listening on <addr>` and `ready`, and
//! serves framed protocol requests until a client sends `drain`. The
//! write-ahead journal in `--wal-dir` makes accepted jobs survive
//! `kill -9`: restart the daemon on the same journal directory and
//! every accepted-but-incomplete job re-executes deterministically.
//!
//! Every flag is parsed here; anything else exits 2 with the usage.
//!
//! ```text
//! qpdo_serve --wal-dir results/wal [--port N] [--jobs N]
//!     [--watchdog-ms N] [--seed N] [--queue-depth N] [--deadline-ms N]
//!     [--commit-batch N] [--commit-interval-us N]
//!     [--max-inflight-bytes N] [--max-job-attempts N]
//!     [--retain-terminal N] [--max-conns N] [--io-timeout-ms N]
//!     [--progress-batches N]
//!     [--chaos-stall-ms N] [--chaos-fsync-fail N]
//!     [--chaos-progress-fail N]
//!     [--chaos-corrupt-checkpoint]
//! ```

use std::io::Write as _;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use qpdo_core::executor::{MAX_JOBS, MAX_MS_FLAG};
use qpdo_serve::daemon::{serve, DaemonConfig};

/// Upper bound accepted for `--queue-depth`: bounded admission is the
/// point; a million queued jobs is an unbounded queue in disguise.
const MAX_QUEUE_DEPTH: u64 = 1 << 20;

const SERVE_USAGE: &str = "\
usage: qpdo_serve --wal-dir DIR [options]
  --wal-dir DIR             write-ahead journal directory (required)
  --port N                  TCP port to bind on 127.0.0.1 (default 0 = ephemeral)
  --jobs N                  jobs per round, each on an executor helper (default: machine parallelism)
  --watchdog-ms N           per-batch watchdog deadline (default 30000)
  --seed N                  base RNG seed; job seeds derive from it and the id (default 2016)
  --queue-depth N           bounded admission-queue depth (default 256)
  --deadline-ms N           deadline for submissions that carry none (default: none)
  --max-job-attempts N      attempts before terminal failure (default 5)
  --retain-terminal N       terminal jobs kept through journal compaction (default 65536)
  --max-conns N             concurrent client connections before shedding (default 256)
  --io-timeout-ms N         read/write deadline on client streams, 0 = none (default 30000)
  --commit-batch N          max journal records folded into one fsync (default 64)
  --commit-interval-us N    wait for commit-batch stragglers, 0 = sync now (default 200)
  --max-inflight-bytes N    buffered bytes before reads pause (default 1048576)
  --progress-batches N      journal a resume checkpoint every N sweep batches, 0 = off (default 8)
  --chaos-stall-ms N        fault injection: stall every execution N ms
  --chaos-fsync-fail N      fault injection: journal fsync fails after N successes
  --chaos-progress-fail N   fault injection: progress appends fail (ENOSPC) after N successes
  --chaos-corrupt-checkpoint  fault injection: corrupt every other journaled checkpoint
";

fn usage_exit(code: i32) -> ! {
    eprint!("{SERVE_USAGE}");
    exit(code);
}

fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("error: {flag} requires a value");
        usage_exit(2);
    })
}

/// Parses an integer flag value in `0..=cap` (`1..=cap` unless
/// `allow_zero`), exiting 2 with the usage otherwise.
fn parse_capped(flag: &str, value: &str, allow_zero: bool, cap: u64) -> u64 {
    match value.parse::<u64>() {
        Ok(0) if !allow_zero => {
            eprintln!("error: {flag} must be positive");
            usage_exit(2);
        }
        Ok(n) if n <= cap => n,
        Ok(n) => {
            eprintln!("error: {flag} {n} exceeds the cap of {cap}");
            usage_exit(2);
        }
        Err(_) => {
            eprintln!("error: {flag} expects an integer, got {value:?}");
            usage_exit(2);
        }
    }
}

fn parse_ms(flag: &str, value: &str, allow_zero: bool) -> u64 {
    parse_capped(flag, value, allow_zero, MAX_MS_FLAG)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut wal_dir: Option<PathBuf> = None;
    let mut port: u16 = 0;
    let mut config = DaemonConfig {
        jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        ..DaemonConfig::default()
    };

    while let Some(flag) = args.next() {
        let mut value = || flag_value(&mut args, &flag);
        match flag.as_str() {
            "--wal-dir" => wal_dir = Some(PathBuf::from(value())),
            "--port" => {
                let v = value();
                port = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --port expects a port number, got {v:?}");
                    usage_exit(2);
                });
            }
            "--jobs" => {
                config.jobs = parse_capped(&flag, &value(), false, MAX_JOBS as u64) as usize;
            }
            "--watchdog-ms" => config.watchdog_ms = parse_ms(&flag, &value(), false),
            "--seed" => {
                let v = value();
                config.base_seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --seed expects an integer, got {v:?}");
                    usage_exit(2);
                });
            }
            "--queue-depth" => {
                config.queue_depth = parse_capped(&flag, &value(), false, MAX_QUEUE_DEPTH) as usize;
            }
            "--deadline-ms" => config.default_deadline_ms = Some(parse_ms(&flag, &value(), false)),
            "--max-job-attempts" => {
                config.max_job_attempts =
                    parse_ms(&flag, &value(), false).min(u64::from(u32::MAX)) as u32;
            }
            "--retain-terminal" => {
                config.retain_terminal =
                    parse_ms(&flag, &value(), false).min(usize::MAX as u64) as usize;
            }
            "--max-conns" => {
                config.max_conns = parse_ms(&flag, &value(), false).min(usize::MAX as u64) as usize;
            }
            "--io-timeout-ms" => {
                config.io_timeout = Duration::from_millis(parse_ms(&flag, &value(), true));
            }
            "--commit-batch" => {
                config.commit_batch =
                    parse_ms(&flag, &value(), false).min(usize::MAX as u64) as usize;
            }
            "--commit-interval-us" => config.commit_interval_us = parse_ms(&flag, &value(), true),
            "--max-inflight-bytes" => {
                config.max_inflight_bytes =
                    parse_ms(&flag, &value(), false).min(usize::MAX as u64) as usize;
            }
            "--progress-batches" => config.progress_batches = parse_ms(&flag, &value(), true),
            "--chaos-fsync-fail" => {
                config.chaos_fsync_fail = Some(parse_ms(&flag, &value(), true));
            }
            "--chaos-progress-fail" => {
                config.chaos_progress_fail = Some(parse_ms(&flag, &value(), true));
            }
            "--chaos-corrupt-checkpoint" => config.chaos_corrupt_checkpoint = true,
            "--chaos-stall-ms" => {
                config.chaos_stall = Duration::from_millis(parse_ms(&flag, &value(), true));
            }
            "--help" | "-h" => usage_exit(0),
            other => {
                eprintln!("error: unknown option {other:?}");
                usage_exit(2);
            }
        }
    }

    let Some(wal_dir) = wal_dir else {
        eprintln!("error: --wal-dir is required");
        usage_exit(2);
    };

    let listener = match TcpListener::bind(("127.0.0.1", port)) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("error: cannot bind 127.0.0.1:{port}: {e}");
            exit(1);
        }
    };
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    // The chaos harness scrapes these two lines; keep them stable.
    println!("listening on {addr}");
    println!("ready");
    std::io::stdout().flush().expect("stdout flush");

    match serve(listener, &wal_dir, config) {
        Ok(stats) => {
            println!(
                "drained: accepted={} completed={} failed={} partials={} shed={} \
                 duplicates={} batches={}",
                stats.accepted,
                stats.completed,
                stats.failed,
                stats.partials,
                stats.shed,
                stats.duplicates,
                stats.batches
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
}
