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
//!   Syndrome words are `reference ⊕ measurement flip`, every lane is
//!   decoded by the union-find decoder, and the failure word is the
//!   reference sign XOR the frame-plus-correction parity on the logical
//!   support — the rule `logical_z_value` applies to a stack's frame.
//!
//! The sweep has one loop, [`run_ler_surface_controlled`]: polled for
//! cancellation per batch, resumable from a [`Checkpoint`] and
//! reporting one after every batch (the shot service's crash-resume
//! and deadline path). [`run_ler_surface`] is its uncontrolled
//! one-line call.

use std::cell::RefCell;
use std::collections::HashMap;

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

    initialize_zero(&mut stack, &code, &z_decoder)?;
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
                stack.execute_now(code.esm_circuit())?;
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

        if !has_observable_error(&mut stack, &code)? {
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
    z_decoder: &MatchingDecoder,
) -> Result<(), CoreError> {
    let mut circuit = Circuit::new();
    for q in 0..code.num_data_qubits() {
        circuit.prep(q);
    }
    stack.execute_diagnostic(circuit)?;

    stack.execute_diagnostic(code.esm_circuit())?;
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
        stack.execute_diagnostic(code.esm_circuit())?;
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
) -> Result<bool, CoreError> {
    stack.execute_diagnostic(code.esm_circuit())?;
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
/// of every lane, and a packed logical-failure readout.
///
/// `(shots, failures, defects)` depend only on the error words, the
/// first draws of each batch's RNG substream, so they are identical to
/// re-executing the noisy round on the tableau every batch.
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
        FrameReference {
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

    /// The per-lane logical failure word after the correction planes
    /// `corr`: the reference sign XOR the parity of frame ⊕ correction
    /// on the logical support. (The frame's gauge part commutes with the
    /// deterministic observable, so it cancels from the parity.)
    fn failure_word(&self, frame: &LanePauliFrame, corr: &[u64]) -> u64 {
        self.logical.iter().fold(self.logical_sign, |acc, &q| {
            let (x, z) = frame.record_words(q);
            let flip = match self.error {
                CheckKind::X => x,
                CheckKind::Z => z,
            };
            acc ^ flip ^ corr[q]
        })
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

/// One warm sweep point: the union-find decoder and the frame reference
/// of a `(distance, error kind)` pair.
struct SweepPoint {
    decoder: UnionFindDecoder,
    reference: FrameReference,
}

/// Per-run working buffers, allocated once per run and reused by every
/// batch.
struct BatchBuffers {
    frame: LanePauliFrame,
    /// Injected error word per data qubit.
    err: Vec<u64>,
    /// Outcome word per measured qubit.
    meas: Vec<u64>,
    /// Correction word per data qubit.
    corr: Vec<u64>,
    syndrome: Vec<bool>,
    correction: Vec<usize>,
}

impl SweepPoint {
    fn new(distance: usize, error: CheckKind) -> Self {
        let code = RotatedSurfaceCode::new(distance);
        SweepPoint {
            decoder: UnionFindDecoder::new(&code, error),
            reference: FrameReference::new(code, error),
        }
    }

    fn buffers(&self) -> BatchBuffers {
        let code = &self.reference.code;
        BatchBuffers {
            frame: LanePauliFrame::new(code.num_qubits()),
            err: vec![0; code.num_data_qubits()],
            meas: vec![0; code.num_qubits()],
            corr: vec![0; code.num_data_qubits()],
            syndrome: vec![false; self.reference.ancillas.len()],
            correction: Vec::new(),
        }
    }

    /// Samples, extracts and decodes one 64-lane batch; returns the
    /// per-lane logical failure word.
    fn sample_batch(&self, p: f64, rng: &mut StdRng, buf: &mut BatchBuffers) -> u64 {
        let reference = &self.reference;
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
        reference.sample(&mut buf.frame, &buf.err, rng, &mut buf.meas);
        // Checks of the other kind detect the error.
        #[cfg(debug_assertions)]
        for ch in reference
            .code
            .checks()
            .iter()
            .filter(|ch| ch.kind != reference.error)
        {
            let expect = ch.support.iter().fold(0u64, |acc, &q| acc ^ buf.err[q]);
            debug_assert_eq!(
                buf.meas[ch.ancilla], expect,
                "packed syndrome plane disagrees with check supports (ancilla {})",
                ch.ancilla
            );
        }
        // Decode each lane and accumulate the correction planes.
        buf.corr.fill(0);
        for lane in 0..LANES {
            for (s, &anc) in buf.syndrome.iter_mut().zip(&reference.ancillas) {
                *s = (buf.meas[anc] >> lane) & 1 == 1;
            }
            self.decoder.decode_into(&buf.syndrome, &mut buf.correction);
            for &q in &buf.correction {
                buf.corr[q] |= 1 << lane;
            }
        }
        let fail_word = reference.failure_word(&buf.frame, &buf.corr);
        // Cross-check against pure classical bookkeeping: a lane fails
        // iff error ⊕ correction overlaps the logical support oddly.
        debug_assert_eq!(
            fail_word,
            reference
                .logical
                .iter()
                .fold(0u64, |acc, &q| acc ^ buf.err[q] ^ buf.corr[q]),
            "frame and classical failure words differ"
        );
        fail_word
    }
}

thread_local! {
    // One warm sweep point per (distance, error kind) per worker thread:
    // the union-find scratch arrays inside the decoder survive across
    // decode calls *and* across jobs hitting the same sweep point, and
    // the frame reference means the tableau runs once per point, not
    // once per batch — so the serving path pays decoder construction,
    // the reference ESM round and steady-state allocation once per
    // worker (ROADMAP: decoder throughput on the serving path). The
    // entry is taken out of the map for the duration of a run and put
    // back after, so the cache is never borrowed across user code.
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
    let point = DECODER_CACHE
        .with(|cache| cache.borrow_mut().remove(&key))
        .unwrap_or_else(|| SweepPoint::new(config.distance, config.error));
    let mut buf = point.buffers();

    let batches = config.shots.div_ceil(LANES as u64);
    // The running position is the checkpoint `on_batch` observes: one
    // per run, updated in place, so the uncontrolled path allocates
    // nothing per batch.
    let mut progress = resume.cloned().unwrap_or_default();
    progress.counters.resize(1, 0);
    let start = progress.batches.min(batches);
    let mut stopped = false;
    for batch in start..batches {
        if cancelled() {
            stopped = true;
            break;
        }
        let lanes = (config.shots - batch * LANES as u64).min(LANES as u64);
        let mask = if lanes == LANES as u64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        let fail_word = point.sample_batch(p, &mut batch_rng(config.seed, batch), &mut buf);
        let defects: u32 = point
            .reference
            .ancillas
            .iter()
            .map(|&anc| (buf.meas[anc] & mask).count_ones())
            .sum();
        progress.batches = batch + 1;
        progress.shots += lanes;
        progress.failures += u64::from((fail_word & mask).count_ones());
        progress.counters[0] += u64::from(defects);
        on_batch(&progress);
    }
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

    /// Frame-vs-tableau differential oracle: the frame sampler's batch
    /// must agree word for word with a tableau run of the same noisy ESM
    /// round — every ancilla word, and the failure word read as the
    /// tableau's post-correction `expectation`. Measurements the tableau
    /// classifies as random take the frame's outcome word, so both
    /// engines follow the same branch.
    #[test]
    fn frame_sampler_matches_the_tableau() {
        for d in [3, 5, 7, 13] {
            for kind in [CheckKind::X, CheckKind::Z] {
                let point = SweepPoint::new(d, kind);
                let reference = &point.reference;
                let code = &reference.code;
                let observable = match kind {
                    CheckKind::X => code.logical_z_string(),
                    CheckKind::Z => code.logical_x_string(),
                };
                let mut buf = point.buffers();
                for batch in 0..4 {
                    let fail_word =
                        point.sample_batch(0.08, &mut batch_rng(d as u64, batch), &mut buf);

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
                    for (q, &word) in buf.corr.iter().enumerate() {
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

    /// `(shots, failures, defects)` recorded from the tableau-per-batch
    /// sampler this one replaced, at p = 0.08 and 200 shots (three whole
    /// batches and one 8-lane partial batch). The serve `done` records,
    /// the resume oracle and perfbench's classical golden check all rely
    /// on these counts never moving.
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
            (13, CheckKind::X, 7, (200, 16, 3956)),
            (13, CheckKind::X, 2016, (200, 9, 3926)),
            (13, CheckKind::Z, 7, (200, 29, 3962)),
            (13, CheckKind::Z, 2016, (200, 18, 3861)),
        ];
        for (d, kind, seed, (shots, failures, defects)) in goldens {
            let outcome = run_ler_surface(&surface(d, 0.08, kind, 200, seed)).unwrap();
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
