//! `surface_d13` and `surface_d5`: code-capacity LER points through
//! [`run_ler_surface`] — 64-lane error injection, the real ESM circuit on
//! `ShotSlicedSim`, one union-find decode per lane, and a packed
//! logical readout.
//!
//! d = 13 is the extraction workload (338 qubits of packed ESM per
//! batch); d = 5 near the union-find threshold is the decode workload.
//! Every op is checked against a classical recomputation from the seed:
//! the same injected errors, syndromes from the check supports, the same
//! decoder, and failures from the logical support — no sliced engine.
//!
//! The traced run rebuilds the batch loop from public calls, with a span
//! around each stage, and must reproduce the outcome exactly.

use std::time::Instant;

use qpdo_circuit::{Circuit, Gate, OperationKind};
use qpdo_core::CoreError;
use qpdo_pauli::PauliString;
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_stabilizer::{ShotSlicedSim, LANES};
use qpdo_surface::experiment::{run_ler_surface, SurfaceLerConfig, SurfaceLerOutcome};
use qpdo_surface::{CheckKind, RotatedSurfaceCode, UnionFindDecoder};

use crate::measure::{peak_rss_mb, quantile, run_for, run_for_with_setups, timed, OpLog, Setups};
use crate::trace::{finish_trace, OpTrace, Tracer};
use crate::{seed_pool, Args, Report};

/// One sweep point: distance, X-error rate, shots per op, and set-ups
/// per set-up group (~75 ms a group).
#[derive(Clone, Copy)]
pub struct Point {
    distance: usize,
    rate: f64,
    shots: u64,
    setups_per_group: usize,
}

// Ops take ~0.2 s on a 2-vCPU VM: longer than the host's ~0.1 s speed
// swings, so op times have one mode.

/// Packed extraction dominates: 16 batches of 64 shots.
pub const D13: Point = Point {
    distance: 13,
    rate: 0.08,
    shots: 1024,
    setups_per_group: 5,
};

/// Decode dominates near the union-find threshold (p_th ≈ 0.086):
/// 1250 batches.
pub const D5: Point = Point {
    distance: 5,
    rate: 0.08,
    shots: 80_000,
    setups_per_group: 300,
};

/// Distinct op seeds; each gets one classical golden outcome.
const POOL: usize = 8;
const WARMUP_OPS: usize = 2;
/// Cap on recorded per-lane decode times (memory stays under 8 MB).
const MAX_LANE_SAMPLES: usize = 2_000_000;

fn config(point: Point, seed: u64, shots: u64) -> SurfaceLerConfig {
    SurfaceLerConfig {
        distance: point.distance,
        physical_error_rate: point.rate,
        error: CheckKind::X,
        shots,
        seed,
    }
}

/// The batch RNG substream `run_ler_surface` documents: one per batch.
fn batch_rng(seed: u64, batch: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ (batch + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Draws one batch of i.i.d. X errors: one lane word per data qubit.
fn draw_errors(rng: &mut StdRng, rate: f64, err: &mut [u64]) {
    for word in err.iter_mut() {
        *word = 0;
        for lane in 0..LANES {
            if rng.gen_bool(rate) {
                *word |= 1 << lane;
            }
        }
    }
}

fn lane_mask(total: u64, batch: u64) -> (u64, u64) {
    let lanes = (total - batch * LANES as u64).min(LANES as u64);
    let mask = if lanes == LANES as u64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    };
    (lanes, mask)
}

/// The golden outcome, recomputed classically from the seed.
fn classical(point: Point, seed: u64) -> SurfaceLerOutcome {
    let code = RotatedSurfaceCode::new(point.distance);
    let decoder = UnionFindDecoder::new(&code, CheckKind::X);
    let checks: Vec<&[usize]> = code
        .checks_of(CheckKind::Z)
        .map(|c| c.support.as_slice())
        .collect();
    let logical = code.logical_z_support();
    let mut err = vec![0u64; code.num_data_qubits()];
    let mut syndrome = vec![false; checks.len()];
    let mut correction = Vec::new();
    let mut out = SurfaceLerOutcome {
        shots: 0,
        failures: 0,
        defects: 0,
    };
    for batch in 0..point.shots.div_ceil(LANES as u64) {
        draw_errors(&mut batch_rng(seed, batch), point.rate, &mut err);
        let (lanes, _) = lane_mask(point.shots, batch);
        for lane in 0..lanes as usize {
            let bit = |q: usize| (err[q] >> lane) & 1 == 1;
            for (s, support) in syndrome.iter_mut().zip(&checks) {
                *s = support.iter().fold(false, |acc, &q| acc ^ bit(q));
            }
            decoder.decode_into(&syndrome, &mut correction);
            let flipped = logical
                .iter()
                .fold(false, |acc, &q| acc ^ bit(q) ^ correction.contains(&q));
            out.defects += syndrome.iter().filter(|&&s| s).count() as u64;
            out.failures += u64::from(flipped);
        }
        out.shots += lanes;
    }
    out
}

pub fn run(args: &Args, point: Point) -> Result<Report, String> {
    let err = |e: CoreError| e.to_string();
    let seeds = seed_pool(args.seed, POOL);
    let mut report = Report::default();

    let mut results: Vec<(usize, Result<SurfaceLerOutcome, CoreError>)> = Vec::new();
    for i in 0..WARMUP_OPS {
        let out = run_ler_surface(&config(point, seeds[i % POOL], point.shots));
        results.push((i % POOL, out));
    }
    if args.trace {
        traced_run(args, point, &seeds, &mut report, &mut results)?;
    } else {
        // Set-up: the first one-batch call on a fresh thread, which builds
        // the code and the thread's union-find decoder.
        let setups = Setups::new(point.setups_per_group, |rep| {
            let cfg = config(point, seeds[rep % POOL], LANES as u64);
            let (out, secs) = std::thread::spawn(move || timed(|| run_ler_surface(&cfg)))
                .join()
                .map_err(|_| "set-up thread panicked".to_owned())?;
            out.map(|_| secs).map_err(err)
        });
        let mut log = OpLog::default();
        let setup = run_for_with_setups(
            args.budget,
            POOL,
            |i| {
                let cfg = config(point, seeds[i % POOL], point.shots);
                let (out, secs) = timed(|| run_ler_surface(&cfg));
                log.push(secs, point.shots as f64);
                results.push((i % POOL, out));
            },
            setups,
        )?;
        report.set("setup_s", setup);
        report.set("work_per_s", log.work_per_s());
        report.set("op_p50_ms", log.op_ms(0.5));
        report.set("op_p90_ms", log.op_ms(0.9));
        report.set("peak_rss_mb", peak_rss_mb(None)?);
    }

    let goldens: Vec<SurfaceLerOutcome> = seeds.iter().map(|&s| classical(point, s)).collect();
    for (idx, out) in &results {
        let ok = matches!(out, Ok(got) if *got == goldens[*idx]);
        report.check(ok, || {
            format!("seed {:#x}: {out:?}, want {:?}", seeds[*idx], goldens[*idx])
        });
    }
    report.set(
        "ok_frac",
        1.0 - report.failed as f64 / report.attempted as f64,
    );
    Ok(report)
}

/// The traced copy of `run_ler_surface`'s batch loop. Holds its decoder
/// across ops, as the library's per-thread decoder cache does.
struct TracedSweep {
    point: Point,
    decoder: UnionFindDecoder,
    lane_ns: Vec<u32>,
}

impl TracedSweep {
    fn op(&mut self, seed: u64, op: &mut OpTrace) -> SurfaceLerOutcome {
        let point = self.point;
        let (code, observable, ancillas, esm) = op.time("surface.prepare", None, || {
            let code = RotatedSurfaceCode::new(point.distance);
            let observable: PauliString = code.logical_z_string();
            let ancillas: Vec<usize> = code.checks_of(CheckKind::Z).map(|c| c.ancilla).collect();
            let esm = code.esm_circuit();
            (code, observable, ancillas, esm)
        });
        let mut err = vec![0u64; code.num_data_qubits()];
        let mut meas = vec![0u64; code.num_qubits()];
        let mut corr = vec![0u64; code.num_data_qubits()];
        let mut syndrome = vec![false; ancillas.len()];
        let mut correction = Vec::new();
        let mut out = SurfaceLerOutcome {
            shots: 0,
            failures: 0,
            defects: 0,
        };
        for batch in 0..point.shots.div_ceil(LANES as u64) {
            let (lanes, mask) = lane_mask(point.shots, batch);
            let mut rng = batch_rng(seed, batch);
            let mut sim = op.time("stabilizer.sliced_extract", None, || {
                ShotSlicedSim::new(code.num_qubits())
            });
            op.time("surface.inject", None, || {
                draw_errors(&mut rng, point.rate, &mut err);
                for (q, &word) in err.iter().enumerate() {
                    sim.x_masked(q, word);
                }
            });
            op.time("stabilizer.sliced_extract", None, || {
                meas.fill(0);
                run_circuit_sliced(&mut sim, &esm, &mut rng, &mut meas);
            });

            let decode = op.span("surface.uf_decode", None);
            let (start, mut calls_ns) = (Instant::now(), 0u64);
            corr.fill(0);
            for lane in 0..LANES {
                for (s, &anc) in syndrome.iter_mut().zip(&ancillas) {
                    *s = (meas[anc] >> lane) & 1 == 1;
                }
                let t = Instant::now();
                self.decoder.decode_into(&syndrome, &mut correction);
                let ns = t.elapsed().as_nanos() as u64;
                calls_ns += ns;
                if self.lane_ns.len() < MAX_LANE_SAMPLES {
                    self.lane_ns.push(ns.min(u64::from(u32::MAX)) as u32);
                }
                for &q in &correction {
                    corr[q] |= 1 << lane;
                }
            }
            op.record(decode, start, Instant::now());
            op.add_child("surface.uf_decode_call", decode, LANES as u64, calls_ns);

            op.time("surface.readout", None, || {
                for (q, &word) in corr.iter().enumerate() {
                    if word != 0 {
                        sim.x_masked(q, word);
                    }
                }
                let fail_word = sim
                    .expectation(&observable)
                    .expect("logical observable stays deterministic through ESM + correction");
                out.shots += lanes;
                out.failures += u64::from((fail_word & mask).count_ones());
                for &anc in &ancillas {
                    out.defects += u64::from((meas[anc] & mask).count_ones());
                }
            });
        }
        out
    }
}

/// Executes a Clifford circuit on the sliced engine, drawing random
/// prep/measure branches from `rng` per lane in circuit order, and keeps
/// the last measurement word per qubit — as `run_ler_surface` does.
fn run_circuit_sliced(
    sim: &mut ShotSlicedSim,
    circuit: &Circuit,
    rng: &mut StdRng,
    meas: &mut [u64],
) {
    for slot in circuit.slots() {
        for op in slot {
            let q = op.qubits();
            match op.kind() {
                OperationKind::Prep => sim.reset_with(q[0], |_| rng.gen::<bool>()),
                OperationKind::Measure => {
                    meas[q[0]] = sim.measure_with(q[0], |_| rng.gen::<bool>())
                }
                OperationKind::Gate(gate) => match gate {
                    Gate::I => {}
                    Gate::X => sim.x(q[0]),
                    Gate::Y => sim.y(q[0]),
                    Gate::Z => sim.z(q[0]),
                    Gate::H => sim.h(q[0]),
                    Gate::S => sim.s(q[0]),
                    Gate::Sdg => sim.sdg(q[0]),
                    Gate::Cnot => sim.cnot(q[0], q[1]),
                    Gate::Cz => sim.cz(q[0], q[1]),
                    Gate::Swap => sim.swap(q[0], q[1]),
                    Gate::T | Gate::Tdg | Gate::Toffoli => {
                        unreachable!("ESM schedules are Clifford-only")
                    }
                },
            }
        }
    }
}

/// Interleaves untraced and traced ops on the same seeds; the traced copy
/// must reproduce `run_ler_surface` exactly. Defect counts come from the
/// first `POOL` ops only, so they repeat exactly across runs.
fn traced_run(
    args: &Args,
    point: Point,
    seeds: &[u64],
    report: &mut Report,
    results: &mut Vec<(usize, Result<SurfaceLerOutcome, CoreError>)>,
) -> Result<(), String> {
    let code = RotatedSurfaceCode::new(point.distance);
    let mut sweep = TracedSweep {
        point,
        decoder: UnionFindDecoder::new(&code, CheckKind::X),
        lane_ns: Vec::new(),
    };
    let mut plain = OpLog::default();
    let mut traced = OpLog::default();
    let mut tracer = Tracer::default();
    let (mut defects, mut shots) = (0u64, 0u64);
    run_for(args.budget, POOL, |i| {
        let seed = seeds[i % POOL];
        let cfg = config(point, seed, point.shots);
        let mut run_plain = || {
            let (out, secs) = timed(|| run_ler_surface(&cfg));
            plain.push(secs, point.shots as f64);
            out
        };
        let mut run_traced = || {
            let mut op = OpTrace::start();
            let out = sweep.op(seed, &mut op);
            let finished = op.finish();
            traced.push(finished.wall_ns as f64 * 1e-9, point.shots as f64);
            tracer.push(finished);
            out
        };
        // Alternate the order so neither side always runs on a warm cache.
        let (p, t) = if i % 2 == 0 {
            let p = run_plain();
            (p, run_traced())
        } else {
            let t = run_traced();
            (run_plain(), t)
        };
        if !matches!(&p, Ok(p) if *p == t) {
            report.problem(format!(
                "traced copy diverged from run_ler_surface at seed {seed:#x}: {p:?} vs {t:?}"
            ));
        }
        if i < POOL {
            defects += t.defects;
            shots += t.shots;
        }
        results.push((i % POOL, p));
    });
    finish_trace(args, report, &tracer, &plain, &traced)?;
    let lane_us: Vec<f64> = sweep
        .lane_ns
        .iter()
        .map(|&ns| f64::from(ns) * 1e-3)
        .collect();
    let stages = [
        ("surface.inject", "surface.inject_share"),
        (
            "stabilizer.sliced_extract",
            "stabilizer.sliced_extract_share",
        ),
        ("surface.uf_decode", "surface.uf_decode_share"),
        ("surface.readout", "surface.readout_share"),
    ];
    for (stage, metric) in stages {
        report.set(metric, tracer.share(stage));
    }
    report.set("surface.uf_decode_p50_us", quantile(&lane_us, 0.5));
    report.set("surface.uf_decode_p90_us", quantile(&lane_us, 0.9));
    report.set("surface.defects_per_shot", defects as f64 / shots as f64);
    let largest = stages
        .map(|(stage, _)| stage)
        .into_iter()
        .max_by(|a, b| tracer.share(a).total_cmp(&tracer.share(b)))
        .expect("four stages");
    let expected = if point.distance >= 13 {
        "stabilizer.sliced_extract"
    } else {
        "surface.uf_decode"
    };
    report.notes.push(format!(
        "premise {}: largest stage is {largest} ({:.3}), expected {expected}",
        if largest == expected {
            "holds"
        } else {
            "FAILS"
        },
        tracer.share(largest)
    ));
    Ok(())
}
