//! `bench_decoder` — decode-latency trajectory for the surface-code
//! decoders.
//!
//! Times one full decode call (syndrome in, correction out) on pools of
//! seeded Bernoulli-error syndromes, and writes
//! `results/BENCH_decoder.json` (schema `qpdo-bench-decoder-v1`) so
//! every future PR can diff decoder latency against this one.
//!
//! Kernels:
//!
//! - `uf_decode_d{D}_p{P}` — [`UnionFindDecoder::decode`] at distance
//!   `D` on syndromes drawn at physical error rate `P` (`p01`/`p05`/
//!   `p10` are 1 %, 5 %, 10 %). Full mode sweeps d = 3…13, the same
//!   grid as `exp_distance_scaling`. Every mode also times
//!   `uf_decode_d5_p08` and `uf_decode_d13_p08`, the points of the
//!   repository benchmark's `surface_d5` and `surface_d13` workloads.
//! - `uf_parity_d5_p08`, `uf_parity_d13_p08`, `uf_parity_d13_p01` —
//!   [`UnionFindDecoder::decode_logical_parity`], the one bit a
//!   code-capacity sweep decodes per lane, on the same pools as the
//!   `uf_decode_*` rows of the same point (the p01 pool is the full
//!   grid's), in every mode.
//! - `matching_exact_d3_p05` — the exact matcher on the identical d = 3
//!   pool, the baseline `derived.uf_over_exact_d3_p05` compares against
//!   (at d = 3 every syndrome is below `EXACT_LIMIT`, so this is the
//!   pure exact path).
//!
//! Pools are conditioned on at least one fired check, so the numbers
//! measure decode work rather than the empty-syndrome early-out.
//!
//! Derived: `uf_over_exact_d3_p05` (union-find cost vs the exact
//! matcher on the same syndromes) and `uf_scaling_dmax_over_d3_p05`
//! (growth from d = 3 to the largest swept distance, `derived.dmax`).
//!
//! Flags: `--out DIR` (default `results`), `--samples N` (default 25),
//! `--seed N` (default 2016), `--smoke` (minimal iterations + schema
//! validation, for `scripts/verify.sh`).

use std::path::PathBuf;
use std::process::ExitCode;

use qpdo_bench::harness::{measure_batched_ns, Stats};
use qpdo_bench::json::Json;
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_surface::{CheckKind, MatchingDecoder, RotatedSurfaceCode, UnionFindDecoder};

const SCHEMA: &str = "qpdo-bench-decoder-v1";
/// Syndromes per (d, p) pool; iterations cycle through the pool so no
/// single syndrome's shape dominates the median.
const POOL: usize = 64;
/// The repository benchmark's surface workloads, `(d, p, tag)`, timed in
/// every mode beside the grid.
const BENCHMARK_POINTS: [(usize, f64, &str); 2] = [(5, 0.08, "p08"), (13, 0.08, "p08")];

struct Args {
    out: PathBuf,
    samples: usize,
    seed: u64,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: PathBuf::from("results"),
        samples: 25,
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
            "--samples" => {
                args.samples = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--samples requires a positive integer")?;
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
    if args.samples == 0 {
        return Err("--samples must be at least 1".into());
    }
    Ok(args)
}

/// A pool of syndromes from Bernoulli(p) error patterns, each with at
/// least one fired check.
fn syndrome_pool(code: &RotatedSurfaceCode, p: f64, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = Vec::with_capacity(POOL);
    while pool.len() < POOL {
        let errors: Vec<usize> = (0..code.num_data_qubits())
            .filter(|_| rng.gen_bool(p))
            .collect();
        let syndrome = code.syndrome_of(&errors, CheckKind::X);
        if syndrome.iter().any(|s| *s) {
            pool.push(syndrome);
        }
    }
    pool
}

/// Times `decode` on `samples` batches of `iters` syndromes, cycling
/// through `pool`, and prints the median as kernel `name`.
fn time_pool<O>(
    name: &str,
    samples: usize,
    iters: usize,
    pool: &[Vec<bool>],
    decode: impl Fn(&[bool]) -> O,
) -> Result<Stats, String> {
    let mut next = 0usize;
    let stats = measure_batched_ns(
        samples,
        iters,
        || {
            next = (next + 1) % POOL;
            next
        },
        |&mut i| decode(&pool[i]),
    )
    .map_err(|err| format!("kernel {name}: {err}"))?;
    println!("{name}: {:.1} ns", stats.median_ns);
    Ok(stats)
}

fn kernel_entry(name: &str, stats: &Stats) -> Json {
    Json::object([
        ("name", Json::from(name)),
        ("median_ns", Json::from(stats.median_ns)),
        ("min_ns", Json::from(stats.min_ns)),
        ("max_ns", Json::from(stats.max_ns)),
        ("samples", Json::from(stats.samples)),
        ("iters", Json::from(stats.iters_per_sample)),
    ])
}

/// Validates the report against the `qpdo-bench-decoder-v1` schema; the
/// smoke gate in `scripts/verify.sh` rides on this. Requires the
/// smoke-mode kernel subset (present in every mode) and well-formed
/// positive fields on every entry.
fn validate_report(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("schema field must be {SCHEMA:?}"));
    }
    for field in ["seed", "samples"] {
        doc.get(field)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric field {field:?}"))?;
    }
    let kernels = doc
        .get("kernels")
        .and_then(Json::as_array)
        .ok_or("missing kernels array")?;
    for name in [
        "uf_decode_d3_p05",
        "uf_decode_d5_p05",
        "uf_decode_d5_p08",
        "uf_decode_d13_p08",
        "uf_parity_d5_p08",
        "uf_parity_d13_p08",
        "uf_parity_d13_p01",
        "matching_exact_d3_p05",
    ] {
        if !kernels
            .iter()
            .any(|k| k.get("name").and_then(Json::as_str) == Some(name))
        {
            return Err(format!("missing kernel entry {name:?}"));
        }
    }
    for entry in kernels {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or("kernel entry missing name")?;
        for field in ["median_ns", "min_ns", "max_ns", "samples", "iters"] {
            let v = entry
                .get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("kernel {name:?} missing field {field:?}"))?;
            if v <= 0.0 {
                return Err(format!("kernel {name:?} field {field:?} must be positive"));
            }
        }
    }
    let derived = doc.get("derived").ok_or("missing derived object")?;
    for field in [
        "uf_over_exact_d3_p05",
        "uf_scaling_dmax_over_d3_p05",
        "dmax",
    ] {
        let v = derived
            .get(field)
            .and_then(Json::as_f64)
            .ok_or(format!("missing derived.{field}"))?;
        if v <= 0.0 {
            return Err(format!("derived.{field} must be positive"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("bench_decoder: {err}");
            eprintln!("usage: bench_decoder [--out DIR] [--samples N] [--seed N] [--smoke]");
            return ExitCode::FAILURE;
        }
    };
    if let Err(err) = run(&args) {
        eprintln!("bench_decoder: {err}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run(args: &Args) -> Result<(), String> {
    let (distances, pers, samples, iters): (&[usize], &[(f64, &str)], usize, usize) = if args.smoke
    {
        (&[3, 5], &[(0.05, "p05")], 3, 16)
    } else {
        (
            &[3, 5, 7, 9, 11, 13],
            &[(0.01, "p01"), (0.05, "p05"), (0.10, "p10")],
            args.samples,
            64,
        )
    };
    let dmax = *distances.last().expect("distance grid is non-empty");
    let mut kernels = Vec::new();
    // Medians needed for the derived ratios.
    let mut uf_d3_p05 = None;
    let mut uf_dmax_p05 = None;
    for &d in distances {
        let code = RotatedSurfaceCode::new(d);
        let decoder = UnionFindDecoder::new(&code, CheckKind::X);
        for (pi, &(p, tag)) in pers.iter().enumerate() {
            let name = format!("uf_decode_d{d}_{tag}");
            let pool = syndrome_pool(&code, p, args.seed + 1_000 * d as u64 + pi as u64);
            let stats = time_pool(&name, samples, iters, &pool, |s| decoder.decode(s))?;
            if tag == "p05" {
                if d == 3 {
                    uf_d3_p05 = Some(stats.median_ns);
                }
                if d == dmax {
                    uf_dmax_p05 = Some(stats.median_ns);
                }
            }
            kernels.push(kernel_entry(&name, &stats));
        }
    }
    for (d, p, tag) in BENCHMARK_POINTS {
        let code = RotatedSurfaceCode::new(d);
        let decoder = UnionFindDecoder::new(&code, CheckKind::X);
        // Seeds past the grid's (which add 0..3 to `1_000 * d`).
        let pool = syndrome_pool(&code, p, args.seed + 1_000 * d as u64 + 8);
        let name = format!("uf_decode_d{d}_{tag}");
        let stats = time_pool(&name, samples, iters, &pool, |s| decoder.decode(s))?;
        kernels.push(kernel_entry(&name, &stats));
        let name = format!("uf_parity_d{d}_{tag}");
        let stats = time_pool(&name, samples, iters, &pool, |s| {
            decoder.decode_logical_parity(s)
        })?;
        kernels.push(kernel_entry(&name, &stats));
    }
    // The parity path at a sparse point, on the full grid's
    // `uf_decode_d13_p01` pool (p01 is the grid's first rate).
    let code = RotatedSurfaceCode::new(13);
    let decoder = UnionFindDecoder::new(&code, CheckKind::X);
    let pool = syndrome_pool(&code, 0.01, args.seed + 13_000);
    let stats = time_pool("uf_parity_d13_p01", samples, iters, &pool, |s| {
        decoder.decode_logical_parity(s)
    })?;
    kernels.push(kernel_entry("uf_parity_d13_p01", &stats));

    // Baseline: the exact matcher on the identical d = 3, p = 5 % pool
    // (4 checks per family at d = 3, so every syndrome is exact-path).
    let code = RotatedSurfaceCode::new(3);
    let matching = MatchingDecoder::new(&code, CheckKind::X);
    let pool = syndrome_pool(&code, 0.05, args.seed + 3_000 + 3);
    let matching_stats = time_pool("matching_exact_d3_p05", samples, iters, &pool, |s| {
        matching.decode(s)
    })?;
    kernels.push(kernel_entry("matching_exact_d3_p05", &matching_stats));

    let uf_d3 = uf_d3_p05.expect("d=3 p=5% kernel ran");
    let uf_dmax = uf_dmax_p05.expect("largest-distance p=5% kernel ran");
    let over_exact = uf_d3 / matching_stats.median_ns;
    let scaling = uf_dmax / uf_d3;
    println!("derived: uf/exact at d=3 {over_exact:.2}x, d={dmax}/d=3 growth {scaling:.2}x");

    let report = Json::object([
        ("schema", Json::from(SCHEMA)),
        ("seed", Json::from(args.seed)),
        ("samples", Json::from(samples)),
        ("smoke", Json::from(args.smoke)),
        ("kernels", Json::array(kernels)),
        (
            "derived",
            Json::object([
                ("uf_over_exact_d3_p05", Json::from(over_exact)),
                ("uf_scaling_dmax_over_d3_p05", Json::from(scaling)),
                ("dmax", Json::from(dmax)),
            ]),
        ),
    ]);

    validate_report(&report)
        .map_err(|err| format!("generated report fails its own schema: {err}"))?;
    // Checked emission: a non-finite ratio (e.g. a zero-median divisor)
    // must abort here, not land in the report file.
    let text = report
        .try_pretty()
        .map_err(|err| format!("generated report is not emittable: {err}"))?;
    std::fs::create_dir_all(&args.out)
        .map_err(|err| format!("cannot create {}: {err}", args.out.display()))?;
    let path = args.out.join("BENCH_decoder.json");
    std::fs::write(&path, text).map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    // Round-trip the on-disk bytes so the smoke gate checks what future
    // readers will actually parse.
    std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
        .and_then(|doc| validate_report(&doc))
        .map_err(|err| format!("{} fails validation: {err}", path.display()))?;
    println!(
        "wrote {} ({})",
        path.display(),
        if args.smoke { "smoke" } else { "full" }
    );
    Ok(())
}
