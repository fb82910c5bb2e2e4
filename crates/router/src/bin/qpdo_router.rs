//! The fleet router binary (`DESIGN.md` §11).
//!
//! Binds a TCP listener, prints `listening on <addr>` and `ready`, and
//! routes framed shot-service requests across a fleet of `qpdo_serve`
//! daemons until a client sends `drain`. The binding journal in
//! `--journal-dir` makes routed jobs survive `kill -9` of the router:
//! restart it on the same journal and every unresolved binding is
//! re-resolved against its bound member by idempotent resubmission.
//!
//! ```text
//! qpdo_router --journal-dir results/router \
//!     --backend d0=127.0.0.1:4100 --backend d1=127.0.0.1:4101 [options]
//! ```

use std::io::Write as _;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use qpdo_core::executor::MAX_MS_FLAG;
use qpdo_router::router::{run, RouterConfig};

const ROUTER_USAGE: &str = "\
usage: qpdo_router --journal-dir DIR [--backend NAME=ADDR]... [options]
  --journal-dir DIR         binding journal directory (required)
  --backend NAME=ADDR       seed fleet member (repeatable; the journal wins
                            for names it already knows — use `join` to move one)
  --port N                  TCP port to bind on 127.0.0.1 (default 0 = ephemeral)
  --probe-interval-ms N     member health-check interval (default 200)
  --resolve-interval-ms N   unresolved-binding revisit interval (default 100)
  --breaker-threshold N     failed probes that eject a member (default 2)
  --breaker-cooloff-ms N    cooloff before the half-open re-probe (default 400)
  --io-timeout-ms N         router-to-member I/O timeout (default 5000)
  --client-io-timeout-ms N  accepted-stream I/O timeout, 0 = none (default 30000)
  --max-inflight N          bound on non-terminal bindings (default 1024)
  --max-conns N             bound on concurrent client connections (default 256)
  --retain-terminal N       terminal bindings kept through compaction (default 65536)
";

fn usage_exit(code: i32) -> ! {
    eprint!("{ROUTER_USAGE}");
    exit(code);
}

fn flag_value(args: &mut Vec<String>, i: usize, flag: &str) -> String {
    if i + 1 >= args.len() {
        eprintln!("error: {flag} requires a value");
        usage_exit(2);
    }
    args.remove(i); // the flag
    args.remove(i) // its value
}

fn parse_count(flag: &str, value: &str, allow_zero: bool) -> u64 {
    match value.parse::<u64>() {
        Ok(0) if !allow_zero => {
            eprintln!("error: {flag} must be positive");
            usage_exit(2);
        }
        Ok(n) if n <= MAX_MS_FLAG => n,
        Ok(n) => {
            eprintln!("error: {flag} {n} exceeds the {MAX_MS_FLAG} cap");
            usage_exit(2);
        }
        Err(_) => {
            eprintln!("error: {flag} expects an integer, got {value:?}");
            usage_exit(2);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut journal_dir: Option<PathBuf> = None;
    let mut backends: Vec<(String, String)> = Vec::new();
    let mut port: u16 = 0;
    let mut config = RouterConfig::default();

    // Every arm either exits or removes its flag (and value) from the
    // front, so the loop always examines index 0.
    let i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => usage_exit(0),
            "--journal-dir" => {
                journal_dir = Some(PathBuf::from(flag_value(&mut args, i, "--journal-dir")));
            }
            "--backend" => {
                let v = flag_value(&mut args, i, "--backend");
                let Some((name, addr)) = v.split_once('=') else {
                    eprintln!("error: --backend expects NAME=ADDR, got {v:?}");
                    usage_exit(2);
                };
                backends.push((name.to_owned(), addr.to_owned()));
            }
            "--port" => {
                let v = flag_value(&mut args, i, "--port");
                port = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --port expects a port number, got {v:?}");
                    usage_exit(2);
                });
            }
            "--probe-interval-ms" => {
                let v = flag_value(&mut args, i, "--probe-interval-ms");
                config.probe_interval =
                    Duration::from_millis(parse_count("--probe-interval-ms", &v, false));
            }
            "--resolve-interval-ms" => {
                let v = flag_value(&mut args, i, "--resolve-interval-ms");
                config.resolve_interval =
                    Duration::from_millis(parse_count("--resolve-interval-ms", &v, false));
            }
            "--breaker-threshold" => {
                let v = flag_value(&mut args, i, "--breaker-threshold");
                config.breaker_threshold =
                    parse_count("--breaker-threshold", &v, false).min(u64::from(u32::MAX)) as u32;
            }
            "--breaker-cooloff-ms" => {
                let v = flag_value(&mut args, i, "--breaker-cooloff-ms");
                config.breaker_cooloff =
                    Duration::from_millis(parse_count("--breaker-cooloff-ms", &v, false));
            }
            "--io-timeout-ms" => {
                let v = flag_value(&mut args, i, "--io-timeout-ms");
                config.io_timeout =
                    Duration::from_millis(parse_count("--io-timeout-ms", &v, false));
            }
            "--client-io-timeout-ms" => {
                let v = flag_value(&mut args, i, "--client-io-timeout-ms");
                config.client_io_timeout =
                    Duration::from_millis(parse_count("--client-io-timeout-ms", &v, true));
            }
            "--max-inflight" => {
                let v = flag_value(&mut args, i, "--max-inflight");
                config.max_inflight =
                    parse_count("--max-inflight", &v, false).min(usize::MAX as u64) as usize;
            }
            "--max-conns" => {
                let v = flag_value(&mut args, i, "--max-conns");
                config.max_conns =
                    parse_count("--max-conns", &v, false).min(usize::MAX as u64) as usize;
            }
            "--retain-terminal" => {
                let v = flag_value(&mut args, i, "--retain-terminal");
                config.retain_terminal =
                    parse_count("--retain-terminal", &v, false).min(usize::MAX as u64) as usize;
            }
            other => {
                eprintln!("error: unknown flag {other:?}");
                usage_exit(2);
            }
        }
    }

    let Some(journal_dir) = journal_dir else {
        eprintln!("error: --journal-dir is required");
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

    match run(listener, &journal_dir, &backends, config) {
        Ok(stats) => {
            println!(
                "drained: routed={} acked={} completed={} failed={} partials={} shed={} \
                 duplicates={} rebinds={}",
                stats.routed,
                stats.acked,
                stats.completed,
                stats.failed,
                stats.partials,
                stats.shed,
                stats.duplicates,
                stats.rebinds
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
}
