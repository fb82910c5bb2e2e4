//! `sc17_stack`: the §5.3 logical-error-rate experiment on the Fig 5.8
//! stack (`ChpCore<StabilizerSim>`, depolarizing errors, two counter
//! layers around an optional Pauli frame, the Ninja-star LUT decoder).
//!
//! One op is a paired point, the paper's own design (§5.3.2): the same
//! seed run through [`run_ler`] with and without the Pauli frame, each
//! for a fixed number of windows. Every op is checked against the
//! reference-tableau engine's outcome for the same configuration.
//!
//! The traced run rebuilds the stack from public parts with wrappers at
//! the `Core` and `Layer` boundaries, and must reproduce [`run_ler`]'s
//! outcome exactly.

use std::any::Any;
use std::time::Instant;

use qpdo_circuit::{Circuit, Gate, Operation};
use qpdo_core::{
    ChpCore, ControlStack, Core, CoreError, CounterLayer, Counters, DepolarizingModel, Layer,
    LayerContext, PauliFrameLayer, QuantumState,
};
use qpdo_pauli::{Pauli, PauliString};
use qpdo_rng::RngCore;
use qpdo_stabilizer::StabilizerSim;
use qpdo_surface17::experiment::LogicalErrorKind;
use qpdo_surface17::experiment::{run_ler, run_ler_reference, LerConfig, LerOutcome};
use qpdo_surface17::{NinjaStar, StarLayout};

use crate::measure::{peak_rss_mb, run_for, run_for_with_setups, timed, OpLog, Setups};
use crate::trace::{finish_trace, OpTrace, Tracer};
use crate::{seed_pool, Args, Report};

const PHYSICAL_ERROR_RATE: f64 = 1e-3;
/// Windows per half of an op: an op takes ~0.2 s on a 2-vCPU VM, longer
/// than the host's ~0.1 s speed swings, so op times have one mode.
const WINDOWS: u64 = 2000;
/// Distinct op seeds; each gets one reference-engine golden pair.
const POOL: usize = 8;
/// Set-ups per group (~75 µs each).
const SETUPS_PER_GROUP: usize = 1000;
const WARMUP_OPS: usize = 2;

fn config(seed: u64, with_pauli_frame: bool) -> LerConfig {
    LerConfig {
        physical_error_rate: PHYSICAL_ERROR_RATE,
        kind: LogicalErrorKind::XL,
        with_pauli_frame,
        // Unbounded target: every half runs exactly WINDOWS windows.
        target_logical_errors: u64::MAX,
        max_windows: WINDOWS,
        seed,
    }
}

/// One op through the public entry point: frame on, then frame off.
fn pair(seed: u64) -> Result<[LerOutcome; 2], CoreError> {
    Ok([
        run_ler(&config(seed, true))?,
        run_ler(&config(seed, false))?,
    ])
}

fn golden(seed: u64) -> Result<[LerOutcome; 2], CoreError> {
    Ok([
        run_ler_reference(&config(seed, true))?,
        run_ler_reference(&config(seed, false))?,
    ])
}

/// Whether an op's outcome is the golden one and obeys the paired design:
/// full window count, and no saved operations without a frame.
fn outcome_ok(got: &[LerOutcome; 2], want: &[LerOutcome; 2]) -> bool {
    got == want
        && got.iter().all(|o| o.windows == WINDOWS)
        && got[1].ops_above_frame == got[1].ops_below_frame
        && got[0].ops_below_frame <= got[0].ops_above_frame
}

pub fn run(args: &Args) -> Result<Report, String> {
    let err = |e: CoreError| e.to_string();
    let seeds = seed_pool(args.seed, POOL);
    let mut report = Report::default();

    let mut results: Vec<(usize, Result<[LerOutcome; 2], CoreError>)> = Vec::new();
    for i in 0..WARMUP_OPS {
        results.push((i % POOL, pair(seeds[i % POOL])));
    }
    if args.trace {
        traced_run(args, &seeds, &mut report, &mut results)?;
    } else {
        // Set-up: stack assembly plus SC17 initialization, as run_ler does it.
        let setups = Setups::new(SETUPS_PER_GROUP, |rep| {
            let (built, secs) = timed(|| {
                assemble(
                    ChpCore::<StabilizerSim>::empty(),
                    seeds[rep % POOL],
                    CounterLayer::new(),
                    Some(PauliFrameLayer::new()),
                    CounterLayer::new(),
                )
            });
            built.map(|_| secs).map_err(err)
        });
        let mut log = OpLog::default();
        let setup = run_for_with_setups(
            args.budget,
            POOL,
            |i| {
                let (out, secs) = timed(|| pair(seeds[i % POOL]));
                log.push(secs, 2.0 * WINDOWS as f64);
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

    let goldens: Vec<[LerOutcome; 2]> = seeds
        .iter()
        .map(|&s| golden(s))
        .collect::<Result<_, _>>()
        .map_err(err)?;
    for (idx, out) in &results {
        let ok = matches!(out, Ok(got) if outcome_ok(got, &goldens[*idx]));
        report.check(ok, || format!("seed {:#x}: {out:?}", seeds[*idx]));
    }
    report.set(
        "ok_frac",
        1.0 - report.failed as f64 / report.attempted as f64,
    );
    Ok(report)
}

/// Builds the Fig 5.8 stack (counters below and above the optional frame)
/// and initializes the star to `|0⟩_L`, as `run_ler` does.
fn assemble<C: Core, L: Layer, F: Layer>(
    core: C,
    seed: u64,
    below: L,
    frame: Option<F>,
    above: L,
) -> Result<(ControlStack<C>, NinjaStar), CoreError> {
    let mut stack = ControlStack::with_seed(core, seed);
    stack.push_layer(below);
    if let Some(frame) = frame {
        stack.push_layer(frame);
    }
    stack.push_layer(above);
    stack.set_error_model(DepolarizingModel::try_new(PHYSICAL_ERROR_RATE)?);
    stack.create_qubits(17)?;
    let mut star = NinjaStar::new(StarLayout::standard(0));
    star.initialize_zero(&mut stack)?;
    Ok((stack, star))
}

/// Calls into a wrapped boundary: how many, and their summed nanoseconds.
#[derive(Clone, Copy, Default)]
struct Tally {
    calls: u64,
    ns: u64,
}

impl Tally {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }

    fn since(self, earlier: Tally) -> Tally {
        Tally {
            calls: self.calls - earlier.calls,
            ns: self.ns - earlier.ns,
        }
    }
}

/// A `Core` that times every `apply` of the core it wraps.
struct TimedCore<C> {
    inner: C,
    apply: Tally,
}

impl<C: Core> Core for TimedCore<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }
    fn create_qubits(&mut self, n: usize) -> Result<(), CoreError> {
        self.inner.create_qubits(n)
    }
    fn remove_all_qubits(&mut self) {
        self.inner.remove_all_qubits();
    }
    fn supports_gate(&self, gate: Gate) -> bool {
        self.inner.supports_gate(gate)
    }
    fn apply(&mut self, op: &Operation, rng: &mut dyn RngCore) -> Result<Option<bool>, CoreError> {
        let inner = &mut self.inner;
        self.apply.time(|| inner.apply(op, rng))
    }
    fn quantum_state(&self) -> Result<QuantumState, CoreError> {
        self.inner.quantum_state()
    }
}

/// A `Layer` that times every call into the layer it wraps.
struct TimedLayer<L> {
    inner: L,
    calls: Tally,
}

impl<L> TimedLayer<L> {
    fn new(inner: L) -> Self {
        TimedLayer {
            inner,
            calls: Tally::default(),
        }
    }
}

impl<L: Layer> Layer for TimedLayer<L> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_create_qubits(&mut self, n: usize) {
        self.inner.on_create_qubits(n);
    }
    fn process_circuit(&mut self, circuit: Circuit, ctx: &mut LayerContext<'_>) -> Circuit {
        let inner = &mut self.inner;
        self.calls.time(|| inner.process_circuit(circuit, ctx))
    }
    fn process_measurement(&mut self, qubit: usize, raw: bool) -> bool {
        let inner = &mut self.inner;
        self.calls.time(|| inner.process_measurement(qubit, raw))
    }
    fn drain_flush(&mut self) -> Option<Circuit> {
        let inner = &mut self.inner;
        self.calls.time(|| inner.drain_flush())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

type TracedStack = ControlStack<TimedCore<ChpCore<StabilizerSim>>>;

/// Wrapper tallies of a traced stack: core, frame, both counter layers.
fn tallies(stack: &TracedStack) -> [Tally; 3] {
    let top = stack.layer_count() - 1;
    let counter = |i| {
        stack
            .layer::<TimedLayer<CounterLayer>>(i)
            .expect("counter layers sit at the bottom and top")
            .calls
    };
    let frame = stack
        .find_layer::<TimedLayer<PauliFrameLayer>>()
        .map_or(Tally::default(), |l| l.calls);
    let (below, above) = (counter(0), counter(top));
    [
        stack.core().apply,
        frame,
        Tally {
            calls: below.calls + above.calls,
            ns: below.ns + above.ns,
        },
    ]
}

/// Runs `f` as one call of top-level span `name`, attributing the wrapper
/// time spent inside it to child spans.
fn step<T>(
    op: &mut OpTrace,
    stack: &mut TracedStack,
    name: &'static str,
    f: impl FnOnce(&mut TracedStack) -> T,
) -> T {
    let before = tallies(stack);
    let idx = op.span(name, None);
    let start = Instant::now();
    let out = f(stack);
    op.record(idx, start, Instant::now());
    let after = tallies(stack);
    for (child, (a, b)) in ["stabilizer.apply", "core.pauli_frame", "core.counters"]
        .into_iter()
        .zip(after.into_iter().zip(before))
    {
        let d = a.since(b);
        op.add_child(child, idx, d.calls, d.ns);
    }
    out
}

/// The frame-adjusted logical `Z_L` value, as `run_ler` reads it.
fn logical_value(stack: &mut TracedStack, star: &NinjaStar) -> Option<bool> {
    let support = star.logical_z_qubits();
    let mut observable = PauliString::identity(stack.num_qubits());
    let mut flip = false;
    let frame = stack.find_layer::<TimedLayer<PauliFrameLayer>>();
    for &q in &support {
        observable.set_op(q, Pauli::Z);
        if let Some(frame) = frame {
            flip ^= frame.inner.record(q).bits().0;
        }
    }
    let physical = stack
        .core_mut()
        .inner
        .simulator_mut()
        .expect("qubits allocated")
        .expectation(&observable)?;
    Some(physical ^ flip)
}

/// One half of a traced op: `run_ler`'s experiment body on the wrapped
/// stack.
fn traced_half(seed: u64, frame: bool, op: &mut OpTrace) -> Result<LerOutcome, CoreError> {
    let below = CounterLayer::new();
    let above = CounterLayer::new();
    let counts: [Counters; 2] = [below.counters(), above.counters()];
    let start = Instant::now();
    let (mut stack, mut star) = assemble(
        TimedCore {
            inner: ChpCore::<StabilizerSim>::empty(),
            apply: Tally::default(),
        },
        seed,
        TimedLayer::new(below),
        frame.then(|| TimedLayer::new(PauliFrameLayer::new())),
        TimedLayer::new(above),
    )?;
    counts.iter().for_each(Counters::reset);
    let mut reference = logical_value(&mut stack, &star)
        .expect("freshly initialized state has a deterministic logical value");
    let setup = op.span("sc17.setup", None);
    op.record(setup, start, Instant::now());
    let [core, frame_t, counters] = tallies(&stack);
    op.add_child("stabilizer.apply", setup, core.calls, core.ns);
    op.add_child("core.pauli_frame", setup, frame_t.calls, frame_t.ns);
    op.add_child("core.counters", setup, counters.calls, counters.ns);

    let mut logical_errors = 0;
    for _ in 0..WINDOWS {
        step(op, &mut stack, "surface17.window", |s| star.run_window(s))?;
        let value = step(op, &mut stack, "surface17.observable_check", |s| {
            Ok::<_, CoreError>(if star.has_observable_error(s)? {
                None
            } else {
                logical_value(s, &star)
            })
        })?;
        if let Some(value) = value {
            if value != reference {
                logical_errors += 1;
                reference = value;
            }
        }
    }
    Ok(LerOutcome {
        windows: WINDOWS,
        logical_errors,
        ops_above_frame: counts[1].operations(),
        slots_above_frame: counts[1].time_slots(),
        ops_below_frame: counts[0].operations(),
        slots_below_frame: counts[0].time_slots(),
        injected: stack.error_counts().expect("error model installed"),
    })
}

/// Interleaves untraced and traced ops on the same seeds; the traced copy
/// must reproduce `run_ler` exactly. Counts come from the first `POOL`
/// ops only, so they repeat exactly across runs with the same seed.
fn traced_run(
    args: &Args,
    seeds: &[u64],
    report: &mut Report,
    results: &mut Vec<(usize, Result<[LerOutcome; 2], CoreError>)>,
) -> Result<(), String> {
    let mut plain = OpLog::default();
    let mut traced = OpLog::default();
    let mut tracer = Tracer::default();
    let mut mismatches = Vec::new();
    let (mut applies, mut windows, mut above, mut below) = (0u64, 0u64, 0u64, 0u64);
    run_for(args.budget, POOL, |i| {
        let seed = seeds[i % POOL];
        let mut run_plain = || {
            let (out, secs) = timed(|| pair(seed));
            plain.push(secs, 2.0 * WINDOWS as f64);
            out
        };
        let mut run_traced = || {
            let mut op = OpTrace::start();
            let out = traced_half(seed, true, &mut op)
                .and_then(|on| Ok([on, traced_half(seed, false, &mut op)?]));
            let finished = op.finish();
            traced.push(finished.wall_ns as f64 * 1e-9, 2.0 * WINDOWS as f64);
            if i < POOL {
                applies += finished
                    .spans
                    .iter()
                    .filter(|s| s.name == "stabilizer.apply")
                    .map(|s| s.calls)
                    .sum::<u64>();
            }
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
        match (&p, &t) {
            (Ok(p), Ok(t)) if p == t => {
                if i < POOL {
                    windows += 2 * WINDOWS;
                    above += p[0].ops_above_frame;
                    below += p[0].ops_below_frame;
                }
            }
            _ => mismatches.push(format!(
                "traced copy diverged from run_ler at seed {seed:#x}: {p:?} vs {t:?}"
            )),
        }
        results.push((i % POOL, p));
    });
    for m in mismatches {
        report.problem(m);
    }
    finish_trace(args, report, &tracer, &plain, &traced)?;
    report.set("stabilizer.apply_share", tracer.share("stabilizer.apply"));
    report.set(
        "stabilizer.ns_per_op",
        tracer.ns_per_call("stabilizer.apply"),
    );
    report.set("stabilizer.ops_per_window", applies as f64 / windows as f64);
    report.set("core.pauli_frame_share", tracer.share("core.pauli_frame"));
    report.set("core.counters_share", tracer.share("core.counters"));
    report.set("core.stack_driver_share", tracer.top_level_self_share());
    report.set(
        "pauli.saved_ops_frac",
        (above - below) as f64 / above as f64,
    );
    let rest = tracer.top_level_self_share()
        + tracer.share("core.pauli_frame")
        + tracer.share("core.counters");
    report.notes.push(format!(
        "premise {}: stack/driver + frame + counters = {rest:.3} vs tableau {:.3}",
        if rest > tracer.share("stabilizer.apply") {
            "holds"
        } else {
            "FAILS"
        },
        tracer.share("stabilizer.apply")
    ));
    Ok(())
}
