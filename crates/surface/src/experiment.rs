//! The distance-scaling LER experiments.
//!
//! Two drivers live here:
//!
//! - [`run_distance_ler`] — the circuit-level ablation the paper's
//!   Chapter 6 calls for (does a Pauli frame change the logical error
//!   rate for `d > 3`?). The protocol follows Listing 5.7 with the
//!   natural `d`-generalizations: each window runs `d − 1` ESM rounds;
//!   stable two-round syndrome patterns decode through the matching
//!   decoder; the correction goes through the stack — where a
//!   Pauli-frame layer absorbs it without touching the qubits.
//! - [`run_ler_surface`] — the code-capacity Monte-Carlo sweep behind
//!   the d = 3…13 threshold workload, sampled with the paper's own Pauli
//!   frame (reference-sample frame sampling): the noiseless ESM round
//!   runs **once** per sweep point on [`ShotSlicedSim`], recording every
//!   measurement's reference outcome and the logical observable's
//!   reference sign; each 64-shot batch then only pushes a
//!   [`LanePauliFrame`] holding that batch's i.i.d. data errors through
//!   the same ESM circuit with the record maps of Tables 3.4–3.5.
//!   Syndrome words are `reference ⊕ measurement flip`, every live lane
//!   is decoded by the union-find decoder down to one bit, the parity
//!   of its correction on the logical support, and the failure word is
//!   the reference sign XOR the frame parity XOR that parity word: the
//!   rule `logical_z_value` applies to a stack's frame. Up to 16
//!   syndrome bits (d ≤ 5) a lazily filled syndrome → parity table sits
//!   in front of the decoder, so each distinct syndrome is decoded once
//!   per sweep point and worker thread. Above that (d ≥ 7) each batch's
//!   decodes fan out over the run's share of the cores (all of them
//!   when it is the process's only surface run): the calling thread and
//!   one scoped helper thread per further core claim lanes from a
//!   shared counter, and the caller gathers their bits. Each bit
//!   depends only on its lane's syndrome, so the outcome does not
//!   depend on the scheduling.
//!
//! The sweep has one loop, [`run_ler_surface_controlled`]: polled for
//! cancellation per batch, resumable from a [`Checkpoint`] and
//! reporting one after every batch (the shot service's crash-resume
//! and deadline path). [`run_ler_surface`] is its uncontrolled
//! one-line call.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use qpdo_core::{
    Checkpoint, ChpCore, ControlStack, CoreError, CounterLayer, DepolarizingModel, ErrorCounts,
    PauliFrameLayer,
};
use qpdo_pauli::{LanePauliFrame, Pauli, PauliString};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, RngCore, SeedableRng};
use qpdo_stabilizer::{ShotSlicedSim, LANES};

use crate::{CheckKind, MatchingDecoder, RotatedSurfaceCode, UnionFindDecoder};
use qpdo_circuit::{Circuit, Gate, Operation, OperationKind, TimeSlot};

/// Configuration of a distance-scaling LER run (always watches for
/// logical X errors on `|0⟩_L`, the representative case).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistanceLerConfig {
    /// Code distance (odd, ≥ 3).
    pub distance: usize,
    /// Physical error rate.
    pub physical_error_rate: f64,
    /// Whether the stack includes a Pauli-frame layer.
    pub with_pauli_frame: bool,
    /// Stop after this many logical errors.
    pub target_logical_errors: u64,
    /// Safety cap on windows.
    pub max_windows: u64,
    /// RNG seed.
    pub seed: u64,
}

/// The result of a distance-scaling LER run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistanceLerOutcome {
    /// Windows executed.
    pub windows: u64,
    /// Logical errors counted.
    pub logical_errors: u64,
    /// Operations entering the stack above the frame.
    pub ops_above_frame: u64,
    /// Operations reaching the core below the frame.
    pub ops_below_frame: u64,
    /// Time slots entering above the frame.
    pub slots_above_frame: u64,
    /// Time slots reaching below the frame.
    pub slots_below_frame: u64,
    /// Injected physical errors.
    pub injected: ErrorCounts,
}

impl DistanceLerOutcome {
    /// The logical error rate `m / R`.
    #[must_use]
    pub fn ler(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.logical_errors as f64 / self.windows as f64
        }
    }
}

/// Runs one distance-`d` LER experiment.
///
/// # Errors
///
/// Propagates stack errors.
///
/// # Panics
///
/// Panics on invalid distance or error rate.
pub fn run_distance_ler(config: &DistanceLerConfig) -> Result<DistanceLerOutcome, CoreError> {
    let code = RotatedSurfaceCode::new(config.distance);
    let x_decoder = MatchingDecoder::new(&code, CheckKind::X); // Z-check syndromes
    let z_decoder = MatchingDecoder::new(&code, CheckKind::Z); // X-check syndromes

    let below = CounterLayer::new();
    let below_counts = below.counters();
    let above = CounterLayer::new();
    let above_counts = above.counters();

    let mut stack = ControlStack::with_seed(ChpCore::new(), config.seed);
    stack.push_layer(below);
    if config.with_pauli_frame {
        stack.push_layer(PauliFrameLayer::new());
    }
    stack.push_layer(above);
    stack.set_error_model(DepolarizingModel::new(config.physical_error_rate));
    stack.create_qubits(code.num_qubits())?;

    // Built once; every round executes a clone.
    let esm = code.esm_circuit();
    initialize_zero(&mut stack, &code, &esm, &z_decoder)?;
    above_counts.reset();
    below_counts.reset();

    let mut reference =
        logical_z_value(&mut stack, &code).expect("fresh |0>_L has a deterministic logical value");
    let rounds = code.distance() - 1;
    let mut windows = 0u64;
    let mut logical_errors = 0u64;

    while logical_errors < config.target_logical_errors && windows < config.max_windows {
        // One window: d-1 rounds processed as (d-1)/2 decode cycles of
        // two rounds each — the SC17 scheme repeated. A syndrome pattern
        // is decoded only when it is identical in both rounds of a cycle
        // (whole-pattern stability — see qpdo-surface17's SyndromeTracker
        // for why per-check rules turn single mid-round faults into
        // logical errors); an unstable pattern defers to the next cycle.
        for _ in 0..rounds / 2 {
            let mut pair: Vec<(Vec<bool>, Vec<bool>)> = Vec::with_capacity(2);
            for _ in 0..2 {
                stack.execute_now(esm.clone())?;
                pair.push(read_syndromes(&stack, &code));
            }
            let stable = |a: &Vec<bool>, b: &Vec<bool>| -> Vec<bool> {
                if a == b {
                    a.clone()
                } else {
                    vec![false; a.len()]
                }
            };
            // Stable Z-check patterns (X errors) decode to X corrections,
            // stable X-check patterns to Z corrections.
            let x_corrections = x_decoder.decode(&stable(&pair[0].1, &pair[1].1));
            let z_corrections = z_decoder.decode(&stable(&pair[0].0, &pair[1].0));
            if let Some(slot) = correction_slot(&x_corrections, &z_corrections) {
                let mut circuit = Circuit::new();
                circuit.push_slot(slot);
                stack.execute_now(circuit)?;
            }
        }
        windows += 1;

        if !has_observable_error(&mut stack, &code, &esm)? {
            if let Some(value) = logical_z_value(&mut stack, &code) {
                if value != reference {
                    logical_errors += 1;
                    reference = value;
                }
            }
        }
    }

    Ok(DistanceLerOutcome {
        windows,
        logical_errors,
        ops_above_frame: above_counts.operations(),
        ops_below_frame: below_counts.operations(),
        slots_above_frame: above_counts.time_slots(),
        slots_below_frame: below_counts.time_slots(),
        injected: stack.error_counts().expect("error model installed"),
    })
}

/// Fault-tolerant `|0⟩_L` initialization (diagnostic mode): reset data,
/// one gauge-fixing ESM round decoded with the matching decoder, then
/// confirmation rounds.
fn initialize_zero(
    stack: &mut ControlStack<ChpCore>,
    code: &RotatedSurfaceCode,
    esm: &Circuit,
    z_decoder: &MatchingDecoder,
) -> Result<(), CoreError> {
    let mut circuit = Circuit::new();
    for q in 0..code.num_data_qubits() {
        circuit.prep(q);
    }
    stack.execute_diagnostic(circuit)?;

    stack.execute_diagnostic(esm.clone())?;
    let (x_synd, z_synd) = read_syndromes(stack, code);
    debug_assert!(
        z_synd.iter().all(|s| !s),
        "Z checks deterministic on |0..0>"
    );
    // Gauge-fix the random first-round X checks with Z chains.
    let corrections = z_decoder.decode(&x_synd);
    if !corrections.is_empty() {
        let mut slot = TimeSlot::new();
        for q in corrections {
            slot.push(Operation::gate(Gate::Z, &[q]));
        }
        let mut circuit = Circuit::new();
        circuit.push_slot(slot);
        stack.execute_diagnostic(circuit)?;
    }
    for _ in 0..code.distance() - 1 {
        stack.execute_diagnostic(esm.clone())?;
        let (x_synd, z_synd) = read_syndromes(stack, code);
        debug_assert!(x_synd.iter().all(|s| !s), "gauge fixed");
        debug_assert!(z_synd.iter().all(|s| !s), "error-free initialization");
    }
    Ok(())
}

/// Reads the `(x_checks, z_checks)` syndromes from the classical state.
fn read_syndromes(
    stack: &ControlStack<ChpCore>,
    code: &RotatedSurfaceCode,
) -> (Vec<bool>, Vec<bool>) {
    let read = |kind: CheckKind| -> Vec<bool> {
        code.checks_of(kind)
            .map(|ch| stack.state().bit(ch.ancilla).known().unwrap_or(false))
            .collect()
    };
    (read(CheckKind::X), read(CheckKind::Z))
}

fn has_observable_error(
    stack: &mut ControlStack<ChpCore>,
    code: &RotatedSurfaceCode,
    esm: &Circuit,
) -> Result<bool, CoreError> {
    stack.execute_diagnostic(esm.clone())?;
    let (x_synd, z_synd) = read_syndromes(stack, code);
    Ok(x_synd.iter().any(|s| *s) || z_synd.iter().any(|s| *s))
}

/// The logical Z value seen through the Pauli frame: the physical `Z_L`
/// expectation adjusted by tracked X components on its support.
fn logical_z_value(stack: &mut ControlStack<ChpCore>, code: &RotatedSurfaceCode) -> Option<bool> {
    let mut observable = PauliString::identity(stack.num_qubits());
    for q in code.logical_z_support() {
        observable.set_op(q, Pauli::Z);
    }
    let mut flip = false;
    if let Some(pf) = stack.find_layer::<PauliFrameLayer>() {
        for q in code.logical_z_support() {
            flip ^= pf.record(q).bits().0;
        }
    }
    let physical = stack
        .core_mut()
        .simulator_mut()
        .expect("qubits allocated")
        .expectation(&observable)?;
    Some(physical ^ flip)
}

/// One correction time slot from X- and Z-correction sets (merged to `Y`
/// where they overlap).
fn correction_slot(x_corrections: &[usize], z_corrections: &[usize]) -> Option<TimeSlot> {
    if x_corrections.is_empty() && z_corrections.is_empty() {
        return None;
    }
    let mut all: Vec<usize> = x_corrections.iter().chain(z_corrections).copied().collect();
    all.sort_unstable();
    all.dedup();
    let mut slot = TimeSlot::new();
    for q in all {
        let gate = match (x_corrections.contains(&q), z_corrections.contains(&q)) {
            (true, true) => Gate::Y,
            (true, false) => Gate::X,
            (false, true) => Gate::Z,
            (false, false) => unreachable!("q came from one of the sets"),
        };
        slot.push(Operation::gate(gate, &[q]));
    }
    Some(slot)
}

/// Configuration of a code-capacity LER sweep point, sampled 64 shots
/// per Pauli-frame word and decoded by the union-find decoder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SurfaceLerConfig {
    /// Code distance (odd, ≥ 3).
    pub distance: usize,
    /// Per-data-qubit, per-shot error probability.
    pub physical_error_rate: f64,
    /// The injected error kind: `X` errors are detected by Z checks and
    /// threaten `Z_L`, and vice versa.
    pub error: CheckKind,
    /// Monte-Carlo shots (rounded up to whole 64-lane words internally;
    /// failures are only counted on the first `shots` lanes).
    pub shots: u64,
    /// RNG seed.
    pub seed: u64,
}

/// The result of a code-capacity LER sweep point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SurfaceLerOutcome {
    /// Shots counted.
    pub shots: u64,
    /// Shots whose decoded correction produced a logical fault.
    pub failures: u64,
    /// Total defects decoded across all counted shots (a nonzero-sample
    /// witness for gates: at p > 0 a sweep that saw no defects measured
    /// nothing).
    pub defects: u64,
}

impl SurfaceLerOutcome {
    /// The logical error rate `failures / shots`.
    #[must_use]
    pub fn ler(&self) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.failures as f64 / self.shots as f64
        }
    }
}

/// Runs one code-capacity LER point by reference-sample frame sampling:
/// one noiseless ESM round on [`ShotSlicedSim`] per sweep point and
/// worker thread, then per 64-shot batch a [`LanePauliFrame`] of i.i.d.
/// data errors pushed through the same ESM circuit, union-find decoding
/// of every live lane (once per distinct syndrome at d ≤ 5, spread over
/// every core at d ≥ 7), and a packed logical-failure readout.
///
/// `(shots, failures, defects)` depend only on the error words, the
/// first draws of each batch's RNG substream, so they are identical to
/// re-executing the noisy round on the tableau every batch, and to
/// decoding every lane on one thread.
///
/// At d ≥ 7 a run uses every core of the host (see
/// [`run_ler_surface_controlled`]), so concurrent runs share them.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProbability`] unless
/// `physical_error_rate ∈ [0, 1]`.
///
/// # Panics
///
/// Panics unless the distance is odd and ≥ 3.
pub fn run_ler_surface(config: &SurfaceLerConfig) -> Result<SurfaceLerOutcome, CoreError> {
    run_ler_surface_controlled(config, None, &|| false, &mut |_| {}).map(|(outcome, _)| outcome)
}

/// The noiseless reference of one `(distance, error kind)` sweep point.
///
/// A noisy batch is this reference state times a 64-lane Pauli frame,
/// so the tableau runs once and every batch only tracks the frame: a
/// measurement reads `reference ⊕ flip` and the logical observable
/// `reference sign ⊕ frame parity` (Gidney's reference-sample frame
/// simulation, Stim).
struct FrameReference {
    code: RotatedSurfaceCode,
    error: CheckKind,
    esm: Circuit,
    /// Reference outcome word of each qubit's ESM measurement (every
    /// ancilla is measured exactly once per round).
    outcomes: Vec<u64>,
    /// Ancillas of the checks that detect `error`, in decoder order.
    ancillas: Vec<usize>,
    /// Support of the logical operator `error` threatens.
    logical: Vec<usize>,
    /// Per data qubit: whether it is in `logical`.
    on_logical: Vec<bool>,
    /// Reference sign word of that logical operator after the round.
    logical_sign: u64,
}

impl FrameReference {
    fn new(code: RotatedSurfaceCode, error: CheckKind) -> Self {
        let esm = code.esm_circuit();
        // X errors flip Z checks and threaten Z_L (its support crosses
        // their termination boundary); dually for Z errors, which are
        // watched on |+…+⟩ so that X_L starts deterministic.
        let (detecting, observable, logical) = match error {
            CheckKind::X => (
                CheckKind::Z,
                code.logical_z_string(),
                code.logical_z_support(),
            ),
            CheckKind::Z => (
                CheckKind::X,
                code.logical_x_string(),
                code.logical_x_support(),
            ),
        };
        let mut sim = ShotSlicedSim::new(code.num_qubits());
        if error == CheckKind::Z {
            for q in 0..code.num_data_qubits() {
                sim.h(q);
            }
        }
        // Random measurements collapse onto the all-zeros branch; the
        // frame's gauge words re-randomize them per lane.
        let mut outcomes = vec![0u64; code.num_qubits()];
        esm_on_tableau(&mut sim, &esm, |_| 0, &mut outcomes);
        // The observable commutes with every ESM measurement, so it
        // stays deterministic through the round.
        let logical_sign = sim
            .expectation(&observable)
            .expect("logical observable stays deterministic through ESM");
        let mut on_logical = vec![false; code.num_data_qubits()];
        for &q in &logical {
            on_logical[q] = true;
        }
        FrameReference {
            on_logical,
            ancillas: code.checks_of(detecting).map(|ch| ch.ancilla).collect(),
            code,
            error,
            esm,
            outcomes,
            logical,
            logical_sign,
        }
    }

    /// Loads one batch of error words into `frame` and pushes it through
    /// the ESM round, writing each measured qubit's outcome word to
    /// `meas`.
    ///
    /// Stabilizers of the reference state may join the frame freely, and
    /// they must, with a random lane word each, for measurements that are
    /// random in the reference to come out random per lane: the data
    /// qubits' initial stabilizers (`Z` on `|0⟩`, `X` on `|+⟩`) and `Z`
    /// on every freshly reset or measured qubit. A reset clears the
    /// record first; a measurement keeps its `X` part, since the lane's
    /// qubit stays in the flipped outcome state.
    fn sample(&self, frame: &mut LanePauliFrame, err: &[u64], rng: &mut StdRng, meas: &mut [u64]) {
        frame.reset_all();
        for (q, &word) in err.iter().enumerate() {
            let gauge = rng.next_u64();
            match self.error {
                CheckKind::X => frame.apply_pauli_words(q, word, gauge),
                CheckKind::Z => frame.apply_pauli_words(q, gauge, word),
            }
        }
        for slot in self.esm.slots() {
            for op in slot {
                let q = op.qubits();
                match op.kind() {
                    OperationKind::Prep => {
                        frame.reset(q[0]);
                        frame.apply_pauli_words(q[0], 0, rng.next_u64());
                    }
                    OperationKind::Measure => {
                        meas[q[0]] = self.outcomes[q[0]] ^ frame.measurement_flip_word(q[0]);
                        frame.apply_pauli_words(q[0], 0, rng.next_u64());
                    }
                    OperationKind::Gate(Gate::H) => frame.apply_h(q[0]),
                    OperationKind::Gate(Gate::Cnot) => frame.apply_cnot(q[0], q[1]),
                    kind => {
                        unreachable!("ESM rounds are resets, H, CNOT and measurements: {kind:?}")
                    }
                }
            }
        }
    }

    /// The per-lane logical failure word after corrections whose parity
    /// on the logical support is `parity`: the reference sign XOR the
    /// frame's parity there XOR `parity`. (The frame's gauge part
    /// commutes with the deterministic observable, so it cancels from
    /// the parity.)
    fn failure_word(&self, frame: &LanePauliFrame, parity: u64) -> u64 {
        self.logical
            .iter()
            .fold(self.logical_sign ^ parity, |acc, &q| {
                let (x, z) = frame.record_words(q);
                acc ^ match self.error {
                    CheckKind::X => x,
                    CheckKind::Z => z,
                }
            })
    }

    fn buffers(&self) -> BatchBuffers {
        BatchBuffers {
            frame: LanePauliFrame::new(self.code.num_qubits()),
            err: vec![0; self.code.num_data_qubits()],
            meas: vec![0; self.code.num_qubits()],
        }
    }

    /// Samples, extracts and decodes one 64-lane batch, of which the
    /// first `live` lanes count; returns the per-lane logical failure
    /// word. `decode` is a [`with_decode_pool`] lane decoder.
    fn sample_batch(
        &self,
        p: f64,
        live: usize,
        rng: &mut StdRng,
        buf: &mut BatchBuffers,
        decode: &mut dyn FnMut(usize, &[u64]) -> u64,
    ) -> u64 {
        // I.i.d. data errors, one lane word each: the batch substream's
        // first draws, so the outcome depends on nothing else.
        for word in &mut buf.err {
            *word = 0;
            for lane in 0..LANES {
                if rng.gen_bool(p) {
                    *word |= 1 << lane;
                }
            }
        }
        self.sample(&mut buf.frame, &buf.err, rng, &mut buf.meas);
        // Checks of the other kind detect the error.
        #[cfg(debug_assertions)]
        for ch in (self.code.checks().iter()).filter(|ch| ch.kind != self.error) {
            let expect = ch.support.iter().fold(0u64, |acc, &q| acc ^ buf.err[q]);
            debug_assert_eq!(
                buf.meas[ch.ancilla], expect,
                "packed syndrome plane disagrees with check supports (ancilla {})",
                ch.ancilla
            );
        }
        let parity = decode(live, &buf.meas);
        let fail_word = self.failure_word(&buf.frame, parity);
        // Cross-check against pure classical bookkeeping: a lane fails
        // iff error ⊕ correction overlaps the logical support oddly.
        debug_assert_eq!(
            fail_word,
            (self.logical.iter()).fold(parity, |acc, &q| acc ^ buf.err[q]),
            "frame and classical failure words differ"
        );
        fail_word
    }
}

/// Executes an ESM round on the sliced tableau, writing each measured
/// qubit's outcome word to `meas`. A measurement the tableau classifies
/// as random takes its outcome word from `random(qubit)`.
///
/// Qubits the round resets before any other operation (the ancillas)
/// must enter in `|0⟩`: that first reset is the identity and is
/// skipped, which halves the cost of the round on a fresh tableau.
fn esm_on_tableau(
    sim: &mut ShotSlicedSim,
    esm: &Circuit,
    mut random: impl FnMut(usize) -> u64,
    meas: &mut [u64],
) {
    let mut touched = vec![false; sim.num_qubits()];
    for slot in esm.slots() {
        for op in slot {
            let q = op.qubits();
            match op.kind() {
                OperationKind::Prep if !touched[q[0]] => {
                    debug_assert_eq!(
                        sim.peek_deterministic(q[0]),
                        Some(0),
                        "qubit {} entered the round outside |0>",
                        q[0]
                    );
                }
                OperationKind::Prep => sim.reset_with(q[0], |_| false),
                OperationKind::Measure => {
                    let word = if sim.is_random(q[0]) { random(q[0]) } else { 0 };
                    meas[q[0]] = sim.measure_with(q[0], |lane| (word >> lane) & 1 == 1);
                }
                OperationKind::Gate(Gate::H) => sim.h(q[0]),
                OperationKind::Gate(Gate::Cnot) => sim.cnot(q[0], q[1]),
                kind => unreachable!("ESM rounds are resets, H, CNOT and measurements: {kind:?}"),
            }
            for &q in q {
                touched[q] = true;
            }
        }
    }
}

/// Syndromes of at most this many bits get a parity table: d = 3 has
/// 4, d = 5 has 12 (a 4 KiB table); d = 7's 24 would need 16 MiB.
const PARITY_TABLE_MAX_BITS: usize = 16;

/// One warm sweep point: the frame reference, the decoded-parity table
/// and the lane decoders of a `(distance, error kind)` pair.
struct SweepPoint {
    reference: FrameReference,
    /// Entry `i` is the parity on the logical support of the union-find
    /// correction of packed syndrome `i` (bit `k` = detecting check
    /// `k`), the one bit of a decode the failure word needs; `None`
    /// until a lane first meets that syndrome. The decoder is a pure
    /// function of the syndrome, so an entry never goes stale across
    /// seeds, error rates or shot counts. Empty above
    /// [`PARITY_TABLE_MAX_BITS`] syndrome bits.
    table: Vec<Option<bool>>,
    /// One lane decoder per thread that decodes this point's batches,
    /// the calling thread's first. A point without a table grows one
    /// per decode helper thread the first time a run fans out, on the
    /// calling thread, and keeps them across runs and jobs: a helper
    /// allocates nothing.
    decoders: Vec<LaneDecoder>,
}

/// Per-run working buffers, allocated once per run and reused by every
/// batch.
struct BatchBuffers {
    frame: LanePauliFrame,
    /// Injected error word per data qubit.
    err: Vec<u64>,
    /// Outcome word per measured qubit.
    meas: Vec<u64>,
}

impl SweepPoint {
    fn new(distance: usize, error: CheckKind) -> Self {
        let reference = FrameReference::new(RotatedSurfaceCode::new(distance), error);
        let own = LaneDecoder::new(&reference);
        let len = own.decoder.syndrome_len();
        let entries = if len <= PARITY_TABLE_MAX_BITS {
            1 << len
        } else {
            0
        };
        SweepPoint {
            table: vec![None; entries],
            decoders: vec![own],
            reference,
        }
    }
}

/// The host's cores, asked once per process, up to one per lane.
fn decode_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS
        .get_or_init(|| thread::available_parallelism().map_or(1, |cores| cores.get().min(LANES)))
}

/// Surface runs in progress in this process, on any thread.
static RUNS: AtomicUsize = AtomicUsize::new(0);

/// A surface run's claim on the host's cores, held for the length of
/// the run. The runs in progress share the cores equally, so concurrent
/// jobs (a serving daemon runs one per core) decode on about as many
/// threads in total as there are cores instead of each taking them all.
struct RunShare;

impl RunShare {
    fn join() -> Self {
        RUNS.fetch_add(1, Ordering::Relaxed);
        RunShare
    }

    /// The threads this run may decode on now, its own included.
    fn threads(&self) -> usize {
        (decode_threads() / RUNS.load(Ordering::Relaxed).max(1)).max(1)
    }
}

impl Drop for RunShare {
    fn drop(&mut self) {
        RUNS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One decoding thread's union-find decoder and lane buffers, aligned
/// to its own cache lines so that neighbouring threads' decoders in a
/// sweep point do not share one.
#[repr(align(128))]
struct LaneDecoder {
    decoder: UnionFindDecoder,
    /// Outcome word of each detecting check, in decoder order: bit
    /// `lane` is that lane's syndrome bit.
    words: Vec<u64>,
    syndrome: Vec<bool>,
    correction: Vec<usize>,
}

impl LaneDecoder {
    /// A decoder with all its scratch allocated, on the calling thread.
    fn new(reference: &FrameReference) -> Self {
        let decoder = UnionFindDecoder::new(&reference.code, reference.error);
        let len = decoder.syndrome_len();
        LaneDecoder {
            decoder,
            words: vec![0; len],
            syndrome: vec![false; len],
            // A correction touches each data qubit at most once, so the
            // decode path never grows this buffer mid-run.
            correction: Vec::with_capacity(reference.code.num_data_qubits()),
        }
    }

    /// Loads `words` from a batch's outcome words.
    fn gather(&mut self, reference: &FrameReference, meas: &[u64]) {
        for (word, &anc) in self.words.iter_mut().zip(&reference.ancillas) {
            *word = meas[anc];
        }
    }

    /// Runs the decoder on lane `lane` of `words`; returns the parity of
    /// its correction on the logical support.
    fn decode(&mut self, reference: &FrameReference, lane: usize) -> bool {
        for (s, &word) in self.syndrome.iter_mut().zip(&self.words) {
            *s = (word >> lane) & 1 == 1;
        }
        self.decoder
            .decode_into(&self.syndrome, &mut self.correction);
        // The correction annihilates the lane's syndrome:
        // `code.syndrome_of(correction)` without its allocation, so debug
        // builds stay off the heap too.
        debug_assert!(
            reference
                .code
                .checks()
                .iter()
                .filter(|ch| ch.kind != reference.error)
                .zip(&self.syndrome)
                .all(|(ch, &s)| {
                    let hits = ch.support.iter().filter(|q| self.correction.contains(q));
                    (hits.count() % 2 == 1) == s
                }),
            "union-find correction does not annihilate its syndrome"
        );
        self.correction
            .iter()
            .filter(|&&q| reference.on_logical[q])
            .count()
            % 2
            == 1
    }

    /// The parity word of the first `live` lanes of `words`, decoded on
    /// this thread. A lane whose syndrome is in `table` reads its bit;
    /// any other lane runs the decoder and, if there is a table, records
    /// the result.
    fn decode_lanes(
        &mut self,
        reference: &FrameReference,
        table: &mut [Option<bool>],
        live: usize,
    ) -> u64 {
        let mut parity = 0u64;
        for lane in 0..live {
            let index = (!table.is_empty()).then(|| {
                (self.words.iter().enumerate()).fold(0, |index, (k, &word)| {
                    index | (((word >> lane) & 1) as usize) << k
                })
            });
            let bit = match index.and_then(|i| table[i]) {
                Some(bit) => bit,
                None => {
                    let bit = self.decode(reference, lane);
                    if let Some(i) = index {
                        table[i] = Some(bit);
                    }
                    bit
                }
            };
            parity |= u64::from(bit) << lane;
        }
        parity
    }
}

/// Runs `body` with the point's frame reference and a lane decoder
/// `decode(live, meas)` that returns the correction parity word of the
/// first `live` lanes of a batch's outcome words `meas`.
///
/// `threads()` is how many threads may decode now, the caller's
/// included; it is read once to spawn the helpers and again for every
/// batch, which wakes at most that many. With one thread the calling
/// thread decodes every lane through the parity table. With more, a
/// scope holds `threads() − 1` helper threads for the whole of `body`:
/// per batch the caller posts its syndrome words, every thread it
/// wakes, the caller included, claims lanes from one atomic counter,
/// and the caller ORs its own lanes' bits with those the helpers
/// record. Each bit depends only on its lane's syndrome, so the word
/// does not depend on which thread decoded which lane. The table is
/// left alone, which is why only table-less points fan out. The
/// helpers borrow their decoders from the point, so every exit path, a
/// panic included, leaves them there.
fn with_decode_pool<R>(
    point: &mut SweepPoint,
    threads: &dyn Fn() -> usize,
    body: impl FnOnce(&FrameReference, &mut dyn FnMut(usize, &[u64]) -> u64) -> R,
) -> R {
    let SweepPoint {
        reference,
        table,
        decoders,
    } = point;
    let reference = &*reference;
    let spawn = threads();
    if spawn <= 1 {
        let own = &mut decoders[0];
        return body(reference, &mut |live, meas| {
            own.gather(reference, meas);
            own.decode_lanes(reference, table, live)
        });
    }
    debug_assert!(table.is_empty(), "only table-less points fan out");
    while decoders.len() < spawn {
        decoders.push(LaneDecoder::new(reference));
    }
    let (own, helpers) = decoders.split_at_mut(1);
    let own = &mut own[0];
    let pool = DecodePool::new(own.words.len());
    thread::scope(|scope| {
        // Dropped before the scope joins the helpers, also if a spawn
        // or `body` panics.
        let mut handle = PoolHandle {
            pool: &pool,
            helpers: Vec::with_capacity(spawn - 1),
            threads,
            per_decode: YIELD_FOR,
        };
        for (index, helper) in helpers[..spawn - 1].iter_mut().enumerate() {
            let pool = &pool;
            let spawned = scope.spawn(move || pool.help(index, helper, reference));
            handle.helpers.push(spawned.thread().clone());
        }
        body(reference, &mut |live, meas| {
            own.gather(reference, meas);
            handle.decode(own, reference, live)
        })
    })
}

/// The hand-off between a run's calling thread and its decode helpers.
///
/// The caller never waits long for a helper: a helper descheduled in
/// the middle of a lane (by another process or the hypervisor) would
/// stall the whole batch, so after a short wait the caller decodes that
/// lane again itself. A decode depends only on the lane's syndrome, so
/// both give the same bit, and a helper's late result is told apart by
/// its batch number.
///
/// Orderings: the caller writes a batch (`words`, `live`, `helpers`)
/// and resets `claim` with `Relaxed` stores, then publishes them with a
/// `Release` store of `posted`, which a helper loads with `Acquire`
/// before it reads them. A helper may read a later batch's words mixed
/// in, so it decodes a lane only if its claim, an `AcqRel`
/// read-modify-write, returns the batch it read: that claim then
/// precedes the caller's last claim of the batch, which comes before
/// the caller writes the next one. `lanes` values carry their batch
/// number and bit in one word, so they are `Relaxed`; `closed` pairs
/// `Release` with `Acquire`.
struct DecodePool {
    /// The number of the posted batch (from 1).
    posted: AtomicU64,
    /// Set when the run is over; the helpers return.
    closed: AtomicBool,
    /// The posted batch: its live lane count, how many helpers (the
    /// first ones) decode it, and its syndrome words.
    live: AtomicUsize,
    helpers: AtomicUsize,
    words: Vec<AtomicU64>,
    /// The posted batch's number (mod 2^32) in the high half and its
    /// next unclaimed lane in the low half.
    claim: AtomicU64,
    /// Per lane, the last helper result: `batch << 1 | parity bit`.
    lanes: [AtomicU64; LANES],
}

/// How long an idle helper yields before it parks: a few times a
/// d = 13 batch's serial part. Unparking a thread can take longer than
/// that on a virtual machine, and yielding rather than spinning leaves
/// the core to other runnable threads on an oversubscribed host.
const YIELD_FOR: Duration = Duration::from_micros(200);

/// The calling thread's end of a decode pool: posts batches to the
/// helpers, and closes the pool when dropped, also on unwind, so that
/// the scope can join them.
struct PoolHandle<'a> {
    pool: &'a DecodePool,
    helpers: Vec<Thread>,
    /// The threads that may decode the next batch, the caller's
    /// included.
    threads: &'a dyn Fn() -> usize,
    /// The caller's last measured time per decode; until it has timed
    /// one, [`YIELD_FOR`], an overestimate.
    per_decode: Duration,
}

impl Drop for PoolHandle<'_> {
    fn drop(&mut self) {
        self.pool.closed.store(true, Ordering::Release);
        for helper in &self.helpers {
            helper.unpark();
        }
    }
}

impl PoolHandle<'_> {
    /// Decodes the first `live` lanes of `own.words` on the calling
    /// thread and as many helpers as `threads` allows now; returns their
    /// parity word.
    fn decode(&mut self, own: &mut LaneDecoder, reference: &FrameReference, live: usize) -> u64 {
        let helpers = (self.threads)().saturating_sub(1).min(self.helpers.len());
        if helpers == 0 {
            return own.decode_lanes(reference, &mut [], live);
        }
        let batch = self.pool.post(&own.words, live, helpers);
        for helper in &self.helpers[..helpers] {
            helper.unpark();
        }
        (self.pool).finish(own, reference, batch, live, &mut self.per_decode)
    }
}

impl DecodePool {
    fn new(checks: usize) -> Self {
        DecodePool {
            posted: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            helpers: AtomicUsize::new(0),
            words: (0..checks).map(|_| AtomicU64::new(0)).collect(),
            claim: AtomicU64::new(0),
            lanes: [const { AtomicU64::new(0) }; LANES],
        }
    }

    /// Claims the next lane of batch `batch`, if that batch is still
    /// the posted one and has a lane left below `live`.
    fn claim(&self, batch: u64, live: usize) -> Option<usize> {
        let claim = self.claim.fetch_add(1, Ordering::AcqRel);
        let lane = (claim & u64::from(u32::MAX)) as usize;
        (claim >> 32 == batch & u64::from(u32::MAX) && lane < live).then_some(lane)
    }

    /// Posts the next batch, the first `live` lanes of `words`, to the
    /// first `helpers` helpers; returns its number.
    fn post(&self, words: &[u64], live: usize, helpers: usize) -> u64 {
        let batch = self.posted.load(Ordering::Relaxed) + 1;
        for (posted, &word) in self.words.iter().zip(words) {
            posted.store(word, Ordering::Relaxed);
        }
        self.live.store(live, Ordering::Relaxed);
        self.helpers.store(helpers, Ordering::Relaxed);
        self.claim.store(batch << 32, Ordering::Relaxed);
        self.posted.store(batch, Ordering::Release);
        batch
    }

    /// The calling thread's part of posted batch `batch`: decodes the
    /// lanes it claims, then gathers the helpers' bits, waiting about
    /// two decode times for them before it decodes a straggler's lane
    /// itself. A decode time is `per_decode`, which this batch's own
    /// decodes update; a batch in which the helpers claimed every lane
    /// keeps the last one. Returns the batch's parity word.
    fn finish(
        &self,
        own: &mut LaneDecoder,
        reference: &FrameReference,
        batch: u64,
        live: usize,
        per_decode: &mut Duration,
    ) -> u64 {
        let start = Instant::now();
        let (mut parity, mut mine) = (0u64, 0u64);
        while let Some(lane) = self.claim(batch, live) {
            parity |= u64::from(own.decode(reference, lane)) << lane;
            mine |= 1 << lane;
        }
        if mine != 0 {
            *per_decode = start.elapsed() / mine.count_ones();
        }
        let deadline = Instant::now() + *per_decode * 2;
        for lane in (0..live).filter(|&lane| (mine >> lane) & 1 == 0) {
            let bit = loop {
                let result = self.lanes[lane].load(Ordering::Relaxed);
                if result >> 1 == batch {
                    break result & 1 == 1;
                }
                if Instant::now() >= deadline {
                    break own.decode(reference, lane);
                }
                thread::yield_now();
            };
            parity |= u64::from(bit) << lane;
        }
        parity
    }

    /// Helper thread `index`: decodes lanes of each posted batch that
    /// wakes it and records their bits in `lanes`, until the pool
    /// closes.
    fn help(&self, index: usize, decoder: &mut LaneDecoder, reference: &FrameReference) {
        let (mut seen, mut idle) = (0, Instant::now());
        loop {
            let posted = self.posted.load(Ordering::Acquire);
            if self.closed.load(Ordering::Acquire) {
                return;
            }
            if posted == seen || index >= self.helpers.load(Ordering::Relaxed) {
                seen = posted;
                if idle.elapsed() < YIELD_FOR {
                    thread::yield_now();
                } else {
                    thread::park();
                }
                continue;
            }
            seen = posted;
            for (word, posted) in decoder.words.iter_mut().zip(&self.words) {
                *word = posted.load(Ordering::Relaxed);
            }
            let live = self.live.load(Ordering::Relaxed);
            while let Some(lane) = self.claim(seen, live) {
                let bit = decoder.decode(reference, lane);
                self.lanes[lane].store(seen << 1 | u64::from(bit), Ordering::Relaxed);
            }
            idle = Instant::now();
        }
    }
}

thread_local! {
    // One warm sweep point per (distance, error kind) per worker thread:
    // the union-find scratch arrays inside its lane decoders survive
    // across decode calls *and* across jobs hitting the same sweep
    // point, the frame reference means the tableau runs once per point,
    // not once per batch, and the parity table keeps every syndrome
    // decoded so far — so the serving path pays decoder construction,
    // the reference ESM round, each distinct d ≤ 5 decode and
    // steady-state allocation once per worker (ROADMAP: decoder
    // throughput on the serving path). At d ≥ 7 the entry also holds
    // the decoders of the run's helper threads, which borrow them for
    // the run; they are not per-thread caches of their own. The entry
    // is taken out of the map for the duration of a run and put back
    // after, so the cache is never borrowed across user code.
    static DECODER_CACHE: RefCell<HashMap<(usize, CheckKind), SweepPoint>> =
        RefCell::new(HashMap::new());
}

/// The RNG substream of one 64-shot batch. Substreams are independent
/// per batch: results for a prefix of shots are unchanged when the total
/// grows, and a resumed run replays exactly the batches a scratch run
/// would have.
fn batch_rng(seed: u64, batch: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ (batch + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The controlled surface-code driver: [`run_ler_surface`] polled for
/// cancellation once per 64-shot batch, started from an optional
/// [`Checkpoint`], and reporting the accumulated checkpoint after every
/// completed batch through `on_batch`. Returns the outcome so far plus
/// whether the run stopped early.
///
/// A checkpoint counts completed batches, with the defect total in
/// `counters[0]`. `resume` restarts the sweep after `resume.batches`
/// batches with the recorded counters; `None` runs from scratch. A
/// checkpoint at or past the final batch returns the recorded counters
/// untouched. One without a defect counter (foreign or truncated)
/// resumes the defect total from zero, which only skews that
/// historical counter, never the failure estimate. Every batch draws
/// from its own RNG substream, so resuming from any recorded checkpoint
/// reproduces the uninterrupted outcome bit for bit
/// (`tests/resume_oracle.rs`).
///
/// Above [`PARITY_TABLE_MAX_BITS`] syndrome bits (d ≥ 7) a run with
/// batches left decodes on its share of the cores: the cores divided by
/// the surface runs in progress in the process, re-read every batch.
/// It starts one scoped helper thread per core of its share beyond the
/// first and joins them before it returns. Only the decodes fan out:
/// the error draw, the frame push, the cancellation poll, `on_batch`
/// and the defect count stay on the calling thread, in batch order, so
/// checkpoints and resume are unchanged. A single-core host, or a run
/// whose share is one core, decodes on the calling thread alone.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProbability`] unless
/// `physical_error_rate ∈ [0, 1]`.
///
/// # Panics
///
/// Panics unless the distance is odd and ≥ 3.
pub fn run_ler_surface_controlled(
    config: &SurfaceLerConfig,
    resume: Option<&Checkpoint>,
    cancelled: &dyn Fn() -> bool,
    on_batch: &mut dyn FnMut(&Checkpoint),
) -> Result<(SurfaceLerOutcome, bool), CoreError> {
    let p = config.physical_error_rate;
    if !(0.0..=1.0).contains(&p) {
        return Err(CoreError::InvalidProbability {
            value: format!("{p}"),
            context: "surface LER physical error rate",
        });
    }
    let key = (config.distance, config.error);
    let mut point = DECODER_CACHE
        .with(|cache| cache.borrow_mut().remove(&key))
        .unwrap_or_else(|| SweepPoint::new(config.distance, config.error));

    let batches = config.shots.div_ceil(LANES as u64);
    // The running position is the checkpoint `on_batch` observes: one
    // per run, updated in place, so the uncontrolled path allocates
    // nothing per batch.
    let mut progress = resume.cloned().unwrap_or_default();
    progress.counters.resize(1, 0);
    let start = progress.batches.min(batches);
    let share = RunShare::join();
    // A parity table, filled as lanes decode, serves most lanes at
    // d ≤ 5; only table-less points fan out.
    let fans_out = start < batches && point.table.is_empty();
    let threads = || if fans_out { share.threads() } else { 1 };
    let stopped = with_decode_pool(&mut point, &threads, |reference, decode| {
        let mut buf = reference.buffers();
        for batch in start..batches {
            if cancelled() {
                return true;
            }
            let lanes = (config.shots - batch * LANES as u64).min(LANES as u64);
            let mask = if lanes == LANES as u64 {
                u64::MAX
            } else {
                (1u64 << lanes) - 1
            };
            let fail_word = reference.sample_batch(
                p,
                lanes as usize,
                &mut batch_rng(config.seed, batch),
                &mut buf,
                decode,
            );
            let defects: u32 = (reference.ancillas.iter())
                .map(|&anc| (buf.meas[anc] & mask).count_ones())
                .sum();
            progress.batches = batch + 1;
            progress.shots += lanes;
            progress.failures += u64::from((fail_word & mask).count_ones());
            progress.counters[0] += u64::from(defects);
            on_batch(&progress);
        }
        false
    });
    DECODER_CACHE.with(|cache| {
        cache.borrow_mut().insert(key, point);
    });
    Ok((
        SurfaceLerOutcome {
            shots: progress.shots,
            failures: progress.failures,
            defects: progress.counters[0],
        },
        stopped,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::Barrier;

    fn quick(d: usize, p: f64, with_pf: bool, seed: u64) -> DistanceLerConfig {
        DistanceLerConfig {
            distance: d,
            physical_error_rate: p,
            with_pauli_frame: with_pf,
            target_logical_errors: 3,
            max_windows: 400,
            seed,
        }
    }

    #[test]
    fn noiseless_runs_stay_clean() {
        for d in [3, 5] {
            for with_pf in [false, true] {
                let mut config = quick(d, 0.0, with_pf, 1);
                config.max_windows = 10;
                let outcome = run_distance_ler(&config).unwrap();
                assert_eq!(outcome.windows, 10);
                assert_eq!(outcome.logical_errors, 0);
            }
        }
    }

    #[test]
    fn noisy_runs_produce_errors_at_high_p() {
        let outcome = run_distance_ler(&quick(3, 0.02, false, 2)).unwrap();
        assert!(outcome.logical_errors > 0);
        assert!(outcome.ler() > 0.0);
    }

    #[test]
    fn distance_five_runs_complete() {
        let outcome = run_distance_ler(&quick(5, 0.02, true, 3)).unwrap();
        assert!(outcome.windows > 0);
        // The frame filtered the corrections.
        assert!(outcome.ops_below_frame <= outcome.ops_above_frame);
    }

    #[test]
    fn frame_savings_respect_the_cycle_bound() {
        // The experiment decodes every two rounds, so each (d-1)/2-cycle
        // window can shed at most one slot per 17-slot cycle — the SC17
        // bound applies at every distance.
        for d in [3, 5] {
            let outcome = run_distance_ler(&quick(d, 0.03, true, 4)).unwrap();
            let saving = (outcome.slots_above_frame - outcome.slots_below_frame) as f64
                / outcome.slots_above_frame as f64;
            assert!(saving > 0.0, "d={d}: the frame saved nothing at p=0.03");
            assert!(
                saving <= 1.0 / 17.0 + 1e-9,
                "d={d}: saving {saving} above the per-cycle bound"
            );
        }
    }

    fn surface(d: usize, p: f64, kind: CheckKind, shots: u64, seed: u64) -> SurfaceLerConfig {
        SurfaceLerConfig {
            distance: d,
            physical_error_rate: p,
            error: kind,
            shots,
            seed,
        }
    }

    #[test]
    fn sliced_runs_are_clean_at_p_zero() {
        for kind in [CheckKind::X, CheckKind::Z] {
            let outcome = run_ler_surface(&surface(5, 0.0, kind, 130, 7)).unwrap();
            assert_eq!(outcome.shots, 130);
            assert_eq!(outcome.failures, 0);
            assert_eq!(outcome.defects, 0);
        }
    }

    #[test]
    fn sliced_runs_fail_above_threshold() {
        // p = 0.3 is far above any surface-code threshold: failures must
        // appear, and plenty of defects must have been decoded.
        let outcome = run_ler_surface(&surface(3, 0.3, CheckKind::X, 640, 11)).unwrap();
        assert!(outcome.failures > 0, "no failures at p=0.3");
        assert!(outcome.defects > 100, "defect sampling too thin");
    }

    #[test]
    fn sliced_runs_are_seed_deterministic_and_prefix_stable() {
        let a = run_ler_surface(&surface(5, 0.08, CheckKind::X, 512, 42)).unwrap();
        let b = run_ler_surface(&surface(5, 0.08, CheckKind::X, 512, 42)).unwrap();
        assert_eq!(a, b);
        let c = run_ler_surface(&surface(5, 0.08, CheckKind::X, 512, 43)).unwrap();
        assert_ne!(a, c, "different seeds produced identical outcomes");
        // Per-batch substreams: growing the shot count must not change
        // the failures attributed to the common prefix of whole batches.
        let big = run_ler_surface(&surface(5, 0.08, CheckKind::X, 1024, 42)).unwrap();
        assert!(big.failures >= a.failures);
    }

    #[test]
    fn sliced_runs_reject_bad_probability() {
        assert!(run_ler_surface(&surface(3, 1.5, CheckKind::X, 64, 1)).is_err());
        assert!(run_ler_surface(&surface(3, -0.1, CheckKind::X, 64, 1)).is_err());
    }

    #[test]
    fn sliced_cancellation_stops_between_batches() {
        let config = surface(3, 0.05, CheckKind::X, 6400, 3);
        let (outcome, stopped) =
            run_ler_surface_controlled(&config, None, &|| true, &mut |_| {}).unwrap();
        assert!(stopped);
        assert_eq!(outcome.shots, 0);
    }

    #[test]
    fn resume_from_midpoint_matches_scratch() {
        let config = surface(3, 0.08, CheckKind::X, 520, 9);
        let scratch = run_ler_surface(&config).unwrap();
        let mut checkpoints = Vec::new();
        run_ler_surface_controlled(&config, None, &|| false, &mut |c| {
            checkpoints.push(c.clone())
        })
        .unwrap();
        assert_eq!(checkpoints.len(), 9, "520 shots is 9 batches");
        let mid = &checkpoints[4];
        let mut replayed = 0u64;
        let (outcome, stopped) =
            run_ler_surface_controlled(&config, Some(mid), &|| false, &mut |_| replayed += 1)
                .unwrap();
        assert!(!stopped);
        assert_eq!(outcome, scratch, "resumed run diverged from scratch");
        assert_eq!(
            replayed, 4,
            "resume re-executed already-checkpointed batches"
        );
    }

    #[test]
    fn resume_at_or_past_the_end_returns_the_checkpoint() {
        let config = surface(3, 0.08, CheckKind::X, 128, 5);
        let scratch = run_ler_surface(&config).unwrap();
        let done = Checkpoint {
            batches: 99,
            shots: scratch.shots,
            failures: scratch.failures,
            counters: vec![scratch.defects],
        };
        let (outcome, stopped) =
            run_ler_surface_controlled(&config, Some(&done), &|| false, &mut |_| {
                panic!("no batch should run")
            })
            .unwrap();
        assert!(!stopped);
        assert_eq!(outcome, scratch);
    }

    /// The parity word of the first `live` lanes of `meas`, decoded on
    /// the calling thread.
    fn serial_decode(point: &mut SweepPoint, live: usize, meas: &[u64]) -> u64 {
        with_decode_pool(point, &|| 1, |_, decode| decode(live, meas))
    }

    /// The outcome words of `n` undecoded p = 0.08 batches.
    fn sampled_batches(point: &SweepPoint, seed: u64, n: u64) -> Vec<Vec<u64>> {
        let mut buf = point.reference.buffers();
        (0..n)
            .map(|batch| {
                let rng = &mut batch_rng(seed, batch);
                (point.reference).sample_batch(0.08, LANES, rng, &mut buf, &mut |_, _| 0);
                buf.meas.clone()
            })
            .collect()
    }

    /// A run borrows the helper decoders from the cached sweep point, so
    /// every exit path leaves them in `DECODER_CACHE` and the next run on
    /// the thread fans out again. The point is primed with four lane
    /// decoders, since a run's own share of the cores depends on the
    /// host and on the tests running beside it.
    #[test]
    fn helper_decoders_stay_cached_on_every_exit_path() {
        let key = (7, CheckKind::X);
        let mut point = SweepPoint::new(7, CheckKind::X);
        with_decode_pool(&mut point, &|| 4, |_, _| ());
        DECODER_CACHE.with(|cache| cache.borrow_mut().insert(key, point));
        let kept = || {
            DECODER_CACHE
                .with(|cache| (cache.borrow().get(&key)).is_some_and(|p| p.decoders.len() >= 4))
        };
        let config = surface(7, 0.08, CheckKind::X, 200, 3);
        let scratch = run_ler_surface(&config).unwrap();
        assert!(kept(), "a full run");

        let (outcome, stopped) =
            run_ler_surface_controlled(&config, None, &|| true, &mut |_| {}).unwrap();
        assert!(stopped && outcome.shots == 0);
        assert!(kept(), "cancelled before batch 0");

        let done = Checkpoint {
            batches: 4,
            shots: scratch.shots,
            failures: scratch.failures,
            counters: vec![scratch.defects],
        };
        let (outcome, _) = run_ler_surface_controlled(&config, Some(&done), &|| false, &mut |_| {
            panic!("no batch should run")
        })
        .unwrap();
        assert_eq!(outcome, scratch);
        assert!(kept(), "resumed at the end");

        let empty = run_ler_surface(&surface(7, 0.08, CheckKind::X, 0, 3)).unwrap();
        assert_eq!(empty.shots, 0);
        assert!(kept(), "no batches");

        assert_eq!(run_ler_surface(&config).unwrap(), scratch);
        assert!(kept(), "a full run after them");
    }

    /// The logical-support parity of a direct union-find decode.
    fn direct_parity(point: &SweepPoint, syndrome: &[bool]) -> bool {
        let correction = point.decoders[0].decoder.decode(syndrome);
        let logical = &point.reference.logical;
        correction.iter().filter(|q| logical.contains(q)).count() % 2 == 1
    }

    /// Frame-vs-tableau differential oracle: the frame sampler's batch
    /// must agree word for word with a tableau run of the same noisy ESM
    /// round — every ancilla word, and the failure word read as the
    /// tableau's `expectation` after each lane's union-find correction.
    /// Measurements the tableau classifies as random take the frame's
    /// outcome word, so both engines follow the same branch. Where the
    /// point has a parity table, every lane's entry must match its
    /// direct decode.
    #[test]
    fn frame_sampler_matches_the_tableau() {
        for d in [3, 5, 7, 13] {
            for kind in [CheckKind::X, CheckKind::Z] {
                let mut point = SweepPoint::new(d, kind);
                assert_eq!(!point.table.is_empty(), d <= 5, "d={d}: table cap");
                let mut buf = point.reference.buffers();
                for batch in 0..4 {
                    let fail_word = with_decode_pool(&mut point, &|| 1, |reference, decode| {
                        let rng = &mut batch_rng(d as u64, batch);
                        reference.sample_batch(0.08, LANES, rng, &mut buf, decode)
                    });
                    let reference = &point.reference;
                    let code = &reference.code;
                    let observable = match kind {
                        CheckKind::X => code.logical_z_string(),
                        CheckKind::Z => code.logical_x_string(),
                    };

                    let mut sim = ShotSlicedSim::new(code.num_qubits());
                    for (q, &word) in buf.err.iter().enumerate() {
                        match kind {
                            CheckKind::X => sim.x_masked(q, word),
                            CheckKind::Z => {
                                sim.h(q);
                                sim.z_masked(q, word);
                            }
                        }
                    }
                    let mut meas = vec![0u64; code.num_qubits()];
                    esm_on_tableau(&mut sim, &reference.esm, |q| buf.meas[q], &mut meas);
                    for ch in code.checks() {
                        assert_eq!(
                            meas[ch.ancilla], buf.meas[ch.ancilla],
                            "d={d} {kind:?} batch {batch}: ancilla {} diverged",
                            ch.ancilla
                        );
                    }
                    // Decode every lane here and apply the correction
                    // planes to the tableau.
                    let mut corr = vec![0u64; code.num_data_qubits()];
                    let mut syndrome = vec![false; reference.ancillas.len()];
                    for lane in 0..LANES {
                        for (s, &anc) in syndrome.iter_mut().zip(&reference.ancillas) {
                            *s = (buf.meas[anc] >> lane) & 1 == 1;
                        }
                        for q in point.decoders[0].decoder.decode(&syndrome) {
                            corr[q] |= 1 << lane;
                        }
                        if !point.table.is_empty() {
                            let index = (syndrome.iter().enumerate())
                                .fold(0, |index, (k, &s)| index | usize::from(s) << k);
                            assert_eq!(
                                point.table[index],
                                Some(direct_parity(&point, &syndrome)),
                                "d={d} {kind:?} batch {batch} lane {lane}: table entry"
                            );
                        }
                    }
                    for (q, &word) in corr.iter().enumerate() {
                        match kind {
                            CheckKind::X => sim.x_masked(q, word),
                            CheckKind::Z => sim.z_masked(q, word),
                        }
                    }
                    assert_eq!(
                        sim.expectation(&observable),
                        Some(fail_word),
                        "d={d} {kind:?} batch {batch}: failure word diverged"
                    );
                    // The gauge words make the non-detecting family random
                    // per lane rather than pinned to the reference branch.
                    // (The checks of the error's own kind do not detect it.)
                    if d == 5 {
                        for ch in code.checks_of(kind) {
                            let word = buf.meas[ch.ancilla];
                            assert!(
                                word != 0 && word != u64::MAX,
                                "d=5 {kind:?} batch {batch}: ancilla {} constant across lanes",
                                ch.ancilla
                            );
                        }
                    }
                }
            }
        }
    }

    /// The parity table is exact: every syndrome index, filled through
    /// the lane path (including syndromes the sampler never draws),
    /// holds the logical-support parity of a direct union-find decode,
    /// and a fresh point starts with nothing known.
    #[test]
    fn parity_table_matches_direct_decoding() {
        for d in [3, 5] {
            for kind in [CheckKind::X, CheckKind::Z] {
                let mut point = SweepPoint::new(d, kind);
                let len = point.decoders[0].decoder.syndrome_len();
                let entries = 1usize << len;
                assert_eq!(point.table.len(), entries, "d={d} {kind:?}: table size");
                assert!(
                    point.table.iter().all(Option::is_none),
                    "d={d} {kind:?}: a fresh table is pre-filled"
                );
                let mut buf = point.reference.buffers();
                for base in (0..entries).step_by(LANES) {
                    // Lane `l` carries syndrome index `base + l`.
                    let live = (entries - base).min(LANES);
                    for (k, &anc) in point.reference.ancillas.iter().enumerate() {
                        buf.meas[anc] = (0..live).fold(0, |word, lane| {
                            word | ((((base + lane) >> k) & 1) as u64) << lane
                        });
                    }
                    let mut serial = || serial_decode(&mut point, live, &buf.meas);
                    let (missed, hit) = (serial(), serial());
                    assert_eq!(missed, hit, "d={d} {kind:?}: lookup disagrees with fill");
                    for lane in 0..live {
                        let index = base + lane;
                        let syndrome: Vec<bool> = (0..len).map(|k| (index >> k) & 1 == 1).collect();
                        let expect = direct_parity(&point, &syndrome);
                        assert_eq!(
                            (missed >> lane) & 1 == 1,
                            expect,
                            "d={d} {kind:?}: syndrome {index:#x}"
                        );
                        assert_eq!(point.table[index], Some(expect));
                    }
                }
            }
        }
    }

    /// `(shots, failures, defects)` recorded from the tableau-per-batch
    /// sampler this one replaced, at p = 0.08 and 200 shots (three whole
    /// batches and one 8-lane partial batch); the d = 7 and 9 rows from
    /// the frame sampler while it still decoded every lane on one
    /// thread, the serial reference for the fan-out. The serve `done`
    /// records, the resume oracle and perfbench's classical golden check
    /// all rely on these counts never moving. The points run twice on
    /// one thread: cold, then with the d = 5 parity tables warmed by a
    /// p = 0.3 sweep.
    #[test]
    fn outcomes_match_the_recorded_goldens() {
        let goldens = [
            (3, CheckKind::X, 7, (200, 14, 168)),
            (3, CheckKind::X, 2016, (200, 16, 155)),
            (3, CheckKind::Z, 7, (200, 18, 163)),
            (3, CheckKind::Z, 2016, (200, 8, 157)),
            (5, CheckKind::X, 7, (200, 18, 510)),
            (5, CheckKind::X, 2016, (200, 15, 492)),
            (5, CheckKind::Z, 7, (200, 15, 523)),
            (5, CheckKind::Z, 2016, (200, 19, 490)),
            (7, CheckKind::X, 7, (200, 17, 1105)),
            (7, CheckKind::X, 2016, (200, 19, 1070)),
            (7, CheckKind::Z, 7, (200, 21, 1055)),
            (7, CheckKind::Z, 2016, (200, 18, 1053)),
            (9, CheckKind::X, 7, (200, 25, 1876)),
            (9, CheckKind::X, 2016, (200, 22, 1834)),
            (9, CheckKind::Z, 7, (200, 23, 1951)),
            (9, CheckKind::Z, 2016, (200, 25, 1815)),
            (13, CheckKind::X, 7, (200, 16, 3956)),
            (13, CheckKind::X, 2016, (200, 9, 3926)),
            (13, CheckKind::Z, 7, (200, 29, 3962)),
            (13, CheckKind::Z, 2016, (200, 18, 3861)),
        ];
        let run_all = || {
            goldens.map(|(d, kind, seed, _)| {
                run_ler_surface(&surface(d, 0.08, kind, 200, seed)).unwrap()
            })
        };
        let cold = run_all();
        for kind in [CheckKind::X, CheckKind::Z] {
            run_ler_surface(&surface(5, 0.3, kind, 6400, 1)).unwrap();
        }
        let warm = run_all();
        assert_eq!(cold, warm, "warm parity tables changed the outcomes");
        for ((d, kind, seed, (shots, failures, defects)), outcome) in goldens.into_iter().zip(cold)
        {
            assert_eq!(
                outcome,
                SurfaceLerOutcome {
                    shots,
                    failures,
                    defects
                },
                "d={d} {kind:?} seed {seed}"
            );
        }
    }

    /// Fanning a batch's decodes out over helper threads changes nothing:
    /// at every thread count, including more threads than live lanes,
    /// each parity word equals the calling thread's serial decode.
    #[test]
    fn fanned_out_decodes_match_the_serial_decode() {
        for d in [7, 13] {
            let mut point = SweepPoint::new(d, CheckKind::X);
            let batches = sampled_batches(&point, d as u64, 3);
            let lives = [1, 3, 8, 63, 64];
            let serial: Vec<u64> = (batches.iter())
                .flat_map(|meas| lives.map(|live| (live, meas)))
                .map(|(live, meas)| serial_decode(&mut point, live, meas))
                .collect();
            for (i, &word) in serial.iter().enumerate() {
                let live = lives[i % lives.len()];
                assert!(
                    live == LANES || word >> live == 0,
                    "d={d}: dead lane decoded"
                );
            }
            assert!(serial.iter().any(|&word| word != 0), "d={d}: vacuous");
            // More threads than cores too: helpers then wait for a core.
            let most = (decode_threads() + 2).max(4);
            for threads in (1..=4).chain([most]) {
                let fanned: Vec<u64> = with_decode_pool(&mut point, &|| threads, |_, decode| {
                    (batches.iter())
                        .flat_map(|meas| lives.map(|live| (live, meas)))
                        .map(|(live, meas)| decode(live, meas))
                        .collect()
                });
                assert_eq!(fanned, serial, "d={d}, {threads} threads");
            }
            // A run's share of the cores may shrink and grow between
            // batches: 4 threads to spawn, then 1, 3, 2, 4, ...
            let calls = Cell::new(0);
            let varying = || {
                calls.set(calls.get() + 1);
                [4, 1, 3, 2][(calls.get() - 1) % 4]
            };
            let fanned: Vec<u64> = with_decode_pool(&mut point, &varying, |_, decode| {
                (batches.iter())
                    .flat_map(|meas| lives.map(|live| (live, meas)))
                    .map(|(live, meas)| decode(live, meas))
                    .collect()
            });
            assert_eq!(fanned, serial, "d={d}, a varying share");
            assert_eq!(point.decoders.len(), most, "d={d}: helper decoders kept");
        }
    }

    /// Surface runs in progress share the cores: with as many runs as
    /// cores each decodes on its own thread alone, and two runs get at
    /// most half the cores each. Other tests' runs only lower a share.
    #[test]
    fn concurrent_runs_share_the_cores() {
        let cores = decode_threads();
        let all: Vec<RunShare> = (0..cores).map(|_| RunShare::join()).collect();
        assert!(all.iter().all(|share| share.threads() == 1));
        drop(all);
        let two = [RunShare::join(), RunShare::join()];
        assert!(two
            .iter()
            .all(|share| share.threads() <= (cores / 2).max(1)));
    }

    /// A helper stuck in the middle of a lane neither stalls its batch
    /// nor changes a parity word: the caller decodes that lane again
    /// itself, and the helper's late result, tagged with a finished
    /// batch, is ignored, as is the lane its stale claim used up.
    #[test]
    fn a_stuck_helper_neither_stalls_nor_changes_the_parity() {
        let mut point = SweepPoint::new(7, CheckKind::X);
        let batches = sampled_batches(&point, 11, 2);
        let serial: Vec<u64> = (batches.iter())
            .map(|meas| serial_decode(&mut point, LANES, meas))
            .collect();
        let SweepPoint {
            reference,
            decoders,
            ..
        } = &mut point;
        let (reference, own) = (&*reference, &mut decoders[0]);
        let pool = DecodePool::new(own.words.len());
        let step = Barrier::new(2);
        thread::scope(|scope| {
            scope.spawn(|| {
                // Batch 1 is posted: claim a lane, then hold it while the
                // caller finishes the batch.
                step.wait();
                let lane = pool.claim(1, LANES).expect("batch 1 has lanes left");
                step.wait();
                // Batch 2 is posted: a late bit for batch 1 that is wrong
                // for batch 2, then a claim for batch 1.
                step.wait();
                let wrong = !(serial[1] >> lane) & 1;
                pool.lanes[lane].store(1 << 1 | wrong, Ordering::Relaxed);
                let stale = pool.claim(1, LANES);
                step.wait();
                assert_eq!(stale, None, "a claim for a finished batch");
            });
            let mut per_decode = Duration::ZERO;
            let mut decode = |meas: &[u64], hold: &dyn Fn()| {
                own.gather(reference, meas);
                let batch = pool.post(&own.words, LANES, 1);
                hold();
                pool.finish(own, reference, batch, LANES, &mut per_decode)
            };
            let first = decode(&batches[0], &|| {
                step.wait();
                step.wait();
            });
            assert_eq!(first, serial[0], "batch 1");
            let second = decode(&batches[1], &|| {
                step.wait();
                step.wait();
            });
            assert_eq!(second, serial[1], "batch 2");
        });
    }

    /// When the helpers claim every lane of a batch, the caller has not
    /// timed a decode of its own in that batch; it waits for their bits
    /// for about two of its last measured decode times instead of
    /// decoding every lane again at once. The helper here reports after
    /// 20 ms, well inside a measured one second per decode, and reports
    /// every bit flipped, so a lane the caller decoded itself would show.
    #[test]
    fn a_caller_that_claimed_no_lane_waits_for_the_helpers() {
        let mut point = SweepPoint::new(7, CheckKind::X);
        let meas = &sampled_batches(&point, 5, 1)[0];
        let serial = serial_decode(&mut point, LANES, meas);
        let SweepPoint {
            reference,
            decoders,
            ..
        } = &mut point;
        let (reference, own) = (&*reference, &mut decoders[0]);
        let pool = DecodePool::new(own.words.len());
        own.gather(reference, meas);
        let batch = pool.post(&own.words, LANES, 1);
        while pool.claim(batch, LANES).is_some() {}
        let parity = thread::scope(|scope| {
            scope.spawn(|| {
                thread::sleep(Duration::from_millis(20));
                for (lane, result) in pool.lanes.iter().enumerate() {
                    let flipped = !(serial >> lane) & 1;
                    result.store(batch << 1 | flipped, Ordering::Relaxed);
                }
            });
            let mut per_decode = Duration::from_secs(1);
            pool.finish(own, reference, batch, LANES, &mut per_decode)
        });
        assert_eq!(parity, !serial, "the caller decoded a helper's lane");
    }

    #[test]
    fn sliced_ler_decreases_with_distance_below_threshold() {
        // The defining property of a working decoder: below threshold,
        // bigger codes fail less. p = 0.05 is well under the ~10%
        // code-capacity threshold.
        let small = run_ler_surface(&surface(3, 0.05, CheckKind::X, 4096, 5)).unwrap();
        let large = run_ler_surface(&surface(5, 0.05, CheckKind::X, 4096, 5)).unwrap();
        assert!(
            large.ler() < small.ler(),
            "d=5 LER {} not below d=3 LER {}",
            large.ler(),
            small.ler()
        );
    }
}
