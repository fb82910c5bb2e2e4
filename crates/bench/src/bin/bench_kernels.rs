//! `bench_kernels` — the stabilizer-kernel performance trajectory.
//!
//! Measures the hot kernels of the word-packed tableau engine against
//! the cell-per-entry reference, plus the Surface-17 steady-state
//! workloads built on top of them, and writes
//! `results/BENCH_stabilizer.json` (schema `qpdo-bench-stabilizer-v1`)
//! so every future PR can diff its numbers against this one.
//!
//! Kernels:
//!
//! - `rowsum_packed_n17` / `rowsum_reference_n17` — one random-measurement
//!   collapse on an identical seeded 17-qubit random-Clifford state. Both
//!   engines absorb the same pivot into the same anticommuting rows, so
//!   the ratio is the honest rowsum-kernel speedup
//!   (`derived.rowsum_speedup_n17`).
//! - `esm_round` — one Surface-17 ESM window on a warmed control stack.
//! - `measure_deterministic_n17` — a deterministic measurement on the
//!   tableau of that warmed stack, of a Z ancilla that has received the
//!   CNOTs of its check. Each measurement follows two CNOTs into the
//!   ancilla from one data qubit (together the identity, a few ns), so
//!   it is a fresh CNOT target the Z cache does not know and the sign
//!   kernel computes the outcome.
//! - `expectation_n17` — the expectation of the logical `Z_L` on the
//!   same warmed tableau, as the LER driver's logical readout takes it.
//! - `sc17_shot` — a full shot: build the stack, initialize `|0⟩_L`, run
//!   one window, evaluate the observable-error gate.
//! - `sc17_shot_sliced` — the same full-shot workload for 64 independent
//!   trajectories through one shared word-packed tableau
//!   ([`run_ler_sliced`]); `derived.sc17_sliced_amortized_ns` is its
//!   median divided by the 64 lanes and
//!   `derived.sc17_slicing_speedup` compares that against `sc17_shot`.
//! - `frame_merge` — word-parallel merge of two 17-qubit Pauli frames.
//! - `surface_batch_d13` — one warmed 64-shot [`run_ler_surface`] call at
//!   d = 13, p = 0.08: a 64-lane Pauli frame pushed through the 337-qubit
//!   ESM round against the cached noiseless reference, plus 64
//!   union-find decodes, all on the calling thread: a run with one
//!   batch never fans out to the helper pool.
//! - `surface_batch_d5` — the same warmed call at d = 5, p = 0.08: the
//!   12-bit syndromes mostly hit the sweep point's decoded-parity
//!   table, so the error draw and the frame push dominate.
//! - `frame_push_d5` — the frame-push layer of `surface_batch_d5`: one
//!   [`FrameSampler::sample`] of the d = 5 ESM round, a 64-lane frame
//!   of data errors pushed through its compiled steps.
//! - `error_draw_d5` — the error-draw layer of `surface_batch_d5`: one
//!   batch's 25 × 64 = 1,600 Bernoulli(0.08) draws, folded into lane
//!   words as the sweep draws them.
//! - `surface_setup_d13` — a 64-shot [`run_ler_surface`] call at d = 13
//!   on a freshly spawned thread: the cold sweep point every thread that
//!   runs d = 13 batches builds once (code, ESM circuit, the frame
//!   sampler's noiseless reference on the packed tableau, union-find
//!   decoder), then its first batch. The spawn and join are timed too.
//!
//! Flags: `--out DIR` (default `results`), `--samples N` (default 25),
//! `--seed N` (default 2016), `--smoke` (minimal iterations + schema
//! validation, for `scripts/verify.sh`).

use std::path::PathBuf;
use std::process::ExitCode;

use qpdo_bench::harness::{measure_batched_ns, Stats};
use qpdo_bench::json::Json;
use qpdo_bench::supervisor::sliced_lane_seeds;
use qpdo_core::{ChpCore, ControlStack, DepolarizingModel};
use qpdo_pauli::{LanePauliFrame, Pauli, PauliFrame, PauliString};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Bernoulli, Rng, RngCore, SeedableRng};
use qpdo_stabilizer::{ReferenceTableau, StabilizerSim, LANES};
use qpdo_surface::experiment::{run_ler_surface, SurfaceLerConfig};
use qpdo_surface::sampler::FrameSampler;
use qpdo_surface::{CheckKind, RotatedSurfaceCode};
use qpdo_surface17::experiment::{LerConfig, LogicalErrorKind};
use qpdo_surface17::{run_ler_sliced, NinjaStar, StarLayout};

const SCHEMA: &str = "qpdo-bench-stabilizer-v1";
const N: usize = 17;

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

/// One gate of the shared random-Clifford warm circuit.
#[derive(Clone, Copy)]
enum G {
    H(usize),
    S(usize),
    Cnot(usize, usize),
    Cz(usize, usize),
}

/// A seeded random Clifford circuit dense enough that most qubits have
/// several anticommuting rows at measurement time.
fn random_circuit(seed: u64, gates: usize) -> Vec<G> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..gates)
        .map(|_| {
            let a = rng.gen_range(0..N);
            let mut b = rng.gen_range(0..N - 1);
            if b >= a {
                b += 1;
            }
            match rng.gen_range(0..4u32) {
                0 => G::H(a),
                1 => G::S(a),
                2 => G::Cnot(a, b),
                _ => G::Cz(a, b),
            }
        })
        .collect()
}

fn build_packed(circuit: &[G]) -> StabilizerSim {
    let mut sim = StabilizerSim::new(N);
    for &g in circuit {
        match g {
            G::H(q) => sim.h(q),
            G::S(q) => sim.s(q),
            G::Cnot(a, b) => sim.cnot(a, b),
            G::Cz(a, b) => sim.cz(a, b),
        }
    }
    sim
}

fn build_reference(circuit: &[G]) -> ReferenceTableau {
    let mut sim = ReferenceTableau::new(N);
    for &g in circuit {
        match g {
            G::H(q) => sim.h(q),
            G::S(q) => sim.s(q),
            G::Cnot(a, b) => sim.cnot(a, b),
            G::Cz(a, b) => sim.cz(a, b),
        }
    }
    sim
}

/// Picks the measurement qubit with the most anticommuting rows, so the
/// rowsum kernels are timed on the heaviest collapse this state offers.
fn heaviest_qubit(sim: &ReferenceTableau) -> (usize, usize) {
    (0..N)
        .map(|q| {
            let mut probe = sim.clone();
            (q, probe.bench_collapse(q, false))
        })
        .max_by_key(|&(_, count)| count)
        .expect("register is non-empty")
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

/// Validates the report against the `qpdo-bench-stabilizer-v1` schema;
/// the smoke gate in `scripts/verify.sh` rides on this.
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
    let required = [
        "rowsum_packed_n17",
        "rowsum_reference_n17",
        "esm_round",
        "measure_deterministic_n17",
        "expectation_n17",
        "sc17_shot",
        "sc17_shot_sliced",
        "frame_merge",
        "surface_batch_d13",
        "surface_batch_d5",
        "frame_push_d5",
        "error_draw_d5",
        "surface_setup_d13",
    ];
    for name in required {
        let entry = kernels
            .iter()
            .find(|k| k.get("name").and_then(Json::as_str) == Some(name))
            .ok_or(format!("missing kernel entry {name:?}"))?;
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
    let speedup = derived
        .get("rowsum_speedup_n17")
        .and_then(Json::as_f64)
        .ok_or("missing derived.rowsum_speedup_n17")?;
    if speedup <= 0.0 {
        return Err("derived.rowsum_speedup_n17 must be positive".into());
    }
    derived
        .get("rowsum_targets_n17")
        .and_then(Json::as_f64)
        .ok_or("missing derived.rowsum_targets_n17")?;
    for field in ["sc17_sliced_amortized_ns", "sc17_slicing_speedup"] {
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
            eprintln!("bench_kernels: {err}");
            eprintln!("usage: bench_kernels [--out DIR] [--samples N] [--seed N] [--smoke]");
            return ExitCode::FAILURE;
        }
    };
    if let Err(err) = run(&args) {
        eprintln!("bench_kernels: {err}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run(args: &Args) -> Result<(), String> {
    let (samples, collapse_iters, window_iters, shot_iters, merge_iters) = if args.smoke {
        (3, 8, 1, 1, 64)
    } else {
        (args.samples, 256, 8, 4, 4096)
    };
    // A degenerate measurement (empty or non-finite samples) aborts the
    // whole run; a placeholder median would poison future report diffs.
    let measured = |name: &str, stats: Result<Stats, qpdo_bench::harness::HarnessError>| {
        stats.map_err(|err| format!("kernel {name}: {err}"))
    };

    // -- rowsum kernels: identical collapse workload on both engines.
    let circuit = random_circuit(args.seed, 300);
    let packed_state = build_packed(&circuit);
    let reference_state = build_reference(&circuit);
    let (q, targets) = heaviest_qubit(&reference_state);
    {
        // The engines must agree on the workload or the ratio is bogus.
        let (mut packed, mut reference) = (packed_state.clone(), reference_state.clone());
        packed.measure_forced(q, false);
        reference.bench_collapse(q, false);
        assert_eq!(
            packed.stabilizers(),
            reference.stabilizers(),
            "engines disagree on the collapse workload"
        );
    }
    let rowsum_packed = measured(
        "rowsum_packed_n17",
        measure_batched_ns(
            samples,
            collapse_iters,
            || packed_state.clone(),
            |sim| sim.measure_forced(q, false),
        ),
    )?;
    let rowsum_reference = measured(
        "rowsum_reference_n17",
        measure_batched_ns(
            samples,
            collapse_iters,
            || reference_state.clone(),
            |sim| sim.bench_collapse(q, false),
        ),
    )?;
    let speedup = rowsum_reference.median_ns / rowsum_packed.median_ns;
    println!(
        "rowsum n={N} q={q} targets={targets}: packed {:.1} ns, reference {:.1} ns, speedup {speedup:.2}x",
        rowsum_packed.median_ns, rowsum_reference.median_ns
    );

    // -- esm_round: steady-state window on a warmed Surface-17 stack.
    let mut stack = ControlStack::with_seed(ChpCore::new(), args.seed);
    stack.set_error_model(DepolarizingModel::try_new(1e-3).expect("valid rate"));
    stack.create_qubits(N).expect("17 qubits fit");
    let mut star = NinjaStar::new(StarLayout::standard(0));
    star.initialize_zero(&mut stack).expect("initialization");
    star.run_window(&mut stack).expect("warmup window");
    let esm_round = measured(
        "esm_round",
        measure_batched_ns(
            samples,
            window_iters,
            || (),
            |_| star.run_window(&mut stack).expect("window runs"),
        ),
    )?;
    println!("esm_round: {:.1} ns", esm_round.median_ns);

    // -- measure_deterministic_n17 / expectation_n17 on the warmed
    // tableau; the CNOT pair keeps the ancilla out of the Z cache.
    let mut warmed = stack.core().simulator().expect("qubits allocated").clone();
    let ancilla = star.layout().z_ancillas[0];
    let check = StarLayout::z_check_supports(star.properties().rotation)[0].clone();
    for &d in &check {
        warmed.cnot(star.layout().data[d], ancilla);
    }
    assert!(
        warmed.clone().peek_deterministic(ancilla).is_some(),
        "a Z check's ancilla must measure deterministically"
    );
    let control = star.layout().data[check[0]];
    let mut no_draws = StdRng::seed_from_u64(args.seed);
    let measure_deterministic = measured(
        "measure_deterministic_n17",
        measure_batched_ns(
            samples,
            collapse_iters,
            || (),
            |_| {
                warmed.cnot(control, ancilla);
                warmed.cnot(control, ancilla);
                warmed.measure(ancilla, &mut no_draws)
            },
        ),
    )?;
    println!(
        "measure_deterministic_n17: {:.1} ns",
        measure_deterministic.median_ns
    );
    let mut logical_z = PauliString::identity(N);
    for q in star.logical_z_qubits() {
        logical_z.set_op(q, Pauli::Z);
    }
    assert!(
        warmed.expectation(&logical_z).is_some(),
        "Z_L must be in the stabilizer group"
    );
    let expectation = measured(
        "expectation_n17",
        measure_batched_ns(
            samples,
            collapse_iters,
            || (),
            |_| warmed.expectation(&logical_z),
        ),
    )?;
    println!("expectation_n17: {:.1} ns", expectation.median_ns);

    // -- sc17_shot: stack construction + |0>_L + one window + gate.
    let mut shot_seed = args.seed;
    let sc17_shot = measured(
        "sc17_shot",
        measure_batched_ns(
            samples,
            shot_iters,
            || {
                shot_seed = shot_seed.wrapping_add(1);
                shot_seed
            },
            |&mut seed| {
                let mut stack = ControlStack::with_seed(ChpCore::new(), seed);
                stack.set_error_model(DepolarizingModel::try_new(1e-3).expect("valid rate"));
                stack.create_qubits(N).expect("17 qubits fit");
                let mut star = NinjaStar::new(StarLayout::standard(0));
                star.initialize_zero(&mut stack).expect("initialization");
                star.run_window(&mut stack).expect("window runs");
                star.has_observable_error(&mut stack).expect("gate runs")
            },
        ),
    )?;
    println!("sc17_shot: {:.1} ns", sc17_shot.median_ns);

    // -- sc17_shot_sliced: the same shot workload, 64 trajectories per
    // call through one shared word-packed tableau. One window per lane
    // (max_windows = 1) mirrors the scalar shot's build + init + window
    // + observable-gate shape.
    let sliced_config = LerConfig {
        physical_error_rate: 1e-3,
        kind: LogicalErrorKind::XL,
        with_pauli_frame: false,
        target_logical_errors: u64::MAX,
        max_windows: 1,
        seed: args.seed, // unused: each lane seeds from `sliced_lane_seeds`
    };
    let mut sliced_batch = 0u64;
    let sc17_shot_sliced = measured(
        "sc17_shot_sliced",
        measure_batched_ns(
            samples,
            shot_iters,
            || {
                sliced_batch = sliced_batch.wrapping_add(1);
                sliced_lane_seeds(args.seed, "bench", sliced_batch)
            },
            |lane_seeds| {
                run_ler_sliced(&sliced_config, lane_seeds, &|| false).expect("valid configuration")
            },
        ),
    )?;
    let sliced_amortized = sc17_shot_sliced.median_ns / LANES as f64;
    let slicing_speedup = sc17_shot.median_ns / sliced_amortized;
    println!(
        "sc17_shot_sliced: {:.1} ns/call, {sliced_amortized:.1} ns amortized per lane \
         ({slicing_speedup:.2}x vs sc17_shot)",
        sc17_shot_sliced.median_ns
    );

    // -- frame_merge: whole-register Pauli-frame merge.
    let mut pattern = PauliFrame::new(N);
    for q in 0..N {
        if q % 2 == 0 {
            pattern.apply_pauli(q, Pauli::X);
        }
        if q % 3 == 0 {
            pattern.apply_pauli(q, Pauli::Z);
        }
    }
    let mut target_frame = PauliFrame::new(N);
    let frame_merge = measured(
        "frame_merge",
        measure_batched_ns(
            samples,
            merge_iters,
            || (),
            |_| target_frame.merge(&pattern),
        ),
    )?;
    println!("frame_merge: {:.1} ns", frame_merge.median_ns);

    // -- surface_batch_d13: one 64-shot code-capacity batch. The
    // harness's untimed warm-up builds this thread's decoder and frame
    // reference, so samples time the steady-state batch only.
    let surface_batch = |name: &str, distance: usize| {
        let mut config = SurfaceLerConfig {
            distance,
            physical_error_rate: 0.08,
            error: CheckKind::X,
            shots: LANES as u64,
            seed: args.seed,
        };
        let stats = measured(
            name,
            measure_batched_ns(
                samples,
                window_iters,
                || {
                    config.seed = config.seed.wrapping_add(1);
                    config
                },
                |config| run_ler_surface(config).expect("valid configuration"),
            ),
        )?;
        println!("{name}: {:.1} ns", stats.median_ns);
        Ok::<_, String>(stats)
    };
    let surface_batch_d13 = surface_batch("surface_batch_d13", 13)?;
    // -- surface_batch_d5: the same at d = 5, after an untimed sweep
    // has filled most of the point's parity table, as any sweep long
    // enough to matter does.
    run_ler_surface(&SurfaceLerConfig {
        distance: 5,
        physical_error_rate: 0.08,
        error: CheckKind::X,
        shots: 80_000,
        seed: !args.seed,
    })
    .expect("valid configuration");
    let surface_batch_d5 = surface_batch("surface_batch_d5", 5)?;

    // -- frame_push_d5 / error_draw_d5: two layers of that batch. The
    // push runs the sampler the sweep builds for d = 5, X errors
    // (ancillas in |0>, data in |0>, observing Z_L) on a frame holding
    // one batch of data errors; each input brings its own gauge stream.
    let code = RotatedSurfaceCode::new(5);
    let data = code.num_data_qubits();
    let initial = vec![Pauli::Z; code.num_qubits()];
    let sampler = FrameSampler::new(&code.esm_circuit(), &initial, &[code.logical_z_string()]);
    let mut errors = LanePauliFrame::new(code.num_qubits());
    let mut rng = StdRng::seed_from_u64(args.seed);
    for q in 0..data {
        errors.apply_pauli_words(q, rng.next_u64() & rng.next_u64() & rng.next_u64(), 0);
    }
    let mut records = vec![0; sampler.measured().len()];
    let mut push_seed = args.seed;
    let frame_push_d5 = measured(
        "frame_push_d5",
        measure_batched_ns(
            samples,
            collapse_iters,
            || {
                push_seed = push_seed.wrapping_add(1);
                (errors.clone(), StdRng::seed_from_u64(push_seed))
            },
            |(frame, rng)| {
                sampler.sample(frame, rng, &mut records);
                records[0]
            },
        ),
    )?;
    println!("frame_push_d5: {:.1} ns", frame_push_d5.median_ns);
    let coin = Bernoulli::new(0.08);
    let mut err = vec![0u64; data];
    let mut draw_seed = args.seed;
    let error_draw_d5 = measured(
        "error_draw_d5",
        measure_batched_ns(
            samples,
            collapse_iters,
            || {
                draw_seed = draw_seed.wrapping_add(1);
                StdRng::seed_from_u64(draw_seed)
            },
            |rng| {
                for word in &mut err {
                    *word =
                        (0..LANES).fold(0, |word, lane| word | u64::from(coin.sample(rng)) << lane);
                }
                err[0]
            },
        ),
    )?;
    println!("error_draw_d5: {:.1} ns", error_draw_d5.median_ns);

    // -- surface_setup_d13: a cold d = 13 sweep point, as a thread pays
    // it on its first batch: each call runs on a fresh thread, whose
    // spawn and join are timed with it.
    let mut setup_seed = args.seed;
    let surface_setup_d13 = measured(
        "surface_setup_d13",
        measure_batched_ns(
            samples,
            window_iters,
            || {
                setup_seed = setup_seed.wrapping_add(1);
                SurfaceLerConfig {
                    distance: 13,
                    physical_error_rate: 0.08,
                    error: CheckKind::X,
                    shots: LANES as u64,
                    seed: setup_seed,
                }
            },
            |&mut config| {
                std::thread::spawn(move || run_ler_surface(&config))
                    .join()
                    .expect("set-up thread panicked")
                    .expect("valid configuration")
            },
        ),
    )?;
    println!("surface_setup_d13: {:.1} ns", surface_setup_d13.median_ns);

    let report = Json::object([
        ("schema", Json::from(SCHEMA)),
        ("seed", Json::from(args.seed)),
        ("samples", Json::from(samples)),
        ("smoke", Json::from(args.smoke)),
        (
            "kernels",
            Json::array([
                kernel_entry("rowsum_packed_n17", &rowsum_packed),
                kernel_entry("rowsum_reference_n17", &rowsum_reference),
                kernel_entry("esm_round", &esm_round),
                kernel_entry("measure_deterministic_n17", &measure_deterministic),
                kernel_entry("expectation_n17", &expectation),
                kernel_entry("sc17_shot", &sc17_shot),
                kernel_entry("sc17_shot_sliced", &sc17_shot_sliced),
                kernel_entry("frame_merge", &frame_merge),
                kernel_entry("surface_batch_d13", &surface_batch_d13),
                kernel_entry("surface_batch_d5", &surface_batch_d5),
                kernel_entry("frame_push_d5", &frame_push_d5),
                kernel_entry("error_draw_d5", &error_draw_d5),
                kernel_entry("surface_setup_d13", &surface_setup_d13),
            ]),
        ),
        (
            "derived",
            Json::object([
                ("rowsum_speedup_n17", Json::from(speedup)),
                ("rowsum_targets_n17", Json::from(targets)),
                ("sc17_sliced_amortized_ns", Json::from(sliced_amortized)),
                ("sc17_slicing_speedup", Json::from(slicing_speedup)),
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
    let path = args.out.join("BENCH_stabilizer.json");
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
