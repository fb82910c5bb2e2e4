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
//!   frame (reference-sample frame sampling, [`crate::sampler`]): the
//!   noiseless ESM round runs **once** per sweep point and thread, on the
//!   packed scalar tableau, recording every measurement's reference
//!   outcome and the logical observable's reference sign; each 64-shot
//!   batch then only pushes a [`LanePauliFrame`] holding that batch's
//!   i.i.d. data errors through the same ESM circuit by the one Table 3.1
//!   update. Syndrome words are `reference ⊕ measurement flip`, every live lane
//!   is decoded by the union-find decoder to one bit, the parity of its
//!   correction on the logical support, which
//!   [`UnionFindDecoder::decode_logical_parity`] finds without building
//!   the correction, and the failure word is the reference sign XOR the
//!   frame parity XOR that parity word: the rule `logical_z_value`
//!   applies to a stack's frame. Like the frame, the correction is only
//!   tracked, never applied. Up to 16
//!   syndrome bits (d ≤ 5) a lazily filled syndrome → parity table sits
//!   in front of the decoder, so each distinct syndrome is decoded once
//!   per sweep point and thread; one 64-lane transpose of the syndrome
//!   words builds every lane's table index at once. At every distance a
//!   run's batches fan
//!   out on the process's executor (`qpdo_core::executor`): the
//!   calling thread and whichever of its parked helpers are idle claim
//!   whole batches, and the caller commits their tallies in batch
//!   order. A batch depends only on the seed and its index, so the
//!   outcome does not depend on the scheduling.
//!
//! The sweep has one loop, [`run_ler_surface_controlled`]: polled for
//! cancellation per batch, resumable from a [`Checkpoint`] and
//! reporting one after every batch (the shot service's crash-resume
//! and deadline path). [`run_ler_surface`] is its uncontrolled
//! one-line call.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use qpdo_core::executor::{self, Batches, Claims, Executor, Run};
use qpdo_core::{
    Checkpoint, ChpCore, ControlStack, CoreError, CounterLayer, DepolarizingModel, ErrorCounts,
    PauliFrameLayer,
};
use qpdo_pauli::{LanePauliFrame, Pauli, PauliString};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Bernoulli, SeedableRng};
use qpdo_stabilizer::LANES;

use crate::sampler::FrameSampler;
use crate::{CheckKind, MatchingDecoder, RotatedSurfaceCode, UnionFindDecoder};
use qpdo_circuit::{Circuit, Gate, Operation, TimeSlot};

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
/// one noiseless ESM round on the packed tableau per sweep point and
/// thread ([`FrameSampler`]), then per 64-shot batch a
/// [`LanePauliFrame`] of i.i.d. data errors pushed through the same ESM
/// circuit, a union-find decode of every live lane down to the parity
/// of its correction on the logical support
/// ([`UnionFindDecoder::decode_logical_parity`]; once per distinct
/// syndrome and thread at d ≤ 5), and a packed logical-failure readout.
/// No correction is built, except beside the parity in debug builds.
///
/// `(shots, failures, defects)` depend only on the error words, the
/// first draws of each batch's RNG substream, so they are identical to
/// re-executing the noisy round on the tableau every batch, and to
/// running every batch on one thread.
///
/// A run of two or more batches uses every core of the host (see
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

/// Syndromes of at most this many bits get a parity table: d = 3 has
/// 4, d = 5 has 12 (a 4 KiB table); d = 7's 24 would need 16 MiB.
const PARITY_TABLE_MAX_BITS: usize = 16;

/// One thread's warm sweep point: the frame sampler of its ESM round,
/// the decoded-parity table, the union-find decoder and every buffer a
/// batch uses, for one `(distance, error kind)` pair. A lane's decode is
/// one bit, the correction's parity on the logical support. Every thread that
/// runs batches, a run's calling thread or a pool helper, keeps its own
/// in [`DECODER_CACHE`], so threads share none of it and a batch
/// allocates nothing.
struct SweepPoint {
    /// Read by the debug-build checks and the tests only.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    code: RotatedSurfaceCode,
    error: CheckKind,
    /// The ESM round from the data qubits' error-free state (`|0…0⟩`
    /// for X errors; `|+…+⟩` for Z errors, so that `X_L` starts
    /// deterministic), observing the logical operator `error` threatens.
    sampler: FrameSampler,
    /// Measurement record of each check that detects `error`, in
    /// decoder order.
    detectors: Vec<usize>,
    /// Support of the logical operator `error` threatens.
    logical: Vec<usize>,
    /// Entry `i` is the parity on the logical support of the union-find
    /// correction of packed syndrome `i` (bit `k` = detecting check
    /// `k`), the one bit of a decode the failure word needs; `None`
    /// until a lane first meets that syndrome. The decoder is a pure
    /// function of the syndrome, so an entry never goes stale across
    /// seeds, error rates or shot counts. Empty above
    /// [`PARITY_TABLE_MAX_BITS`] syndrome bits.
    table: Vec<Option<bool>>,
    decoder: UnionFindDecoder,
    frame: LanePauliFrame,
    /// Injected error word per data qubit.
    err: Vec<u64>,
    /// Outcome word of each measurement of the round, in circuit order.
    records: Vec<u64>,
    /// Outcome word of each detecting check, in decoder order: bit
    /// `lane` is that lane's syndrome bit.
    words: Vec<u64>,
    syndrome: Vec<bool>,
    /// Debug builds only: each lane's full correction, checked against
    /// its parity in [`SweepPoint::decode`].
    #[cfg(debug_assertions)]
    correction: Vec<usize>,
}

impl SweepPoint {
    fn new(distance: usize, error: CheckKind) -> Self {
        let code = RotatedSurfaceCode::new(distance);
        // X errors flip Z checks and threaten Z_L (its support crosses
        // their termination boundary); dually for Z errors.
        let (detecting, observable, logical, basis) = match error {
            CheckKind::X => (
                CheckKind::Z,
                code.logical_z_string(),
                code.logical_z_support(),
                Pauli::Z,
            ),
            CheckKind::Z => (
                CheckKind::X,
                code.logical_x_string(),
                code.logical_x_support(),
                Pauli::X,
            ),
        };
        // Every ancilla enters in |0>; the round resets it before use.
        let data = code.num_data_qubits();
        let initial: Vec<Pauli> = (0..code.num_qubits())
            .map(|q| if q < data { basis } else { Pauli::Z })
            .collect();
        // The observable commutes with every ESM measurement, so it
        // stays deterministic through the round.
        let sampler = FrameSampler::new(&code.esm_circuit(), &initial, &[observable]);
        let detectors = (code.checks_of(detecting))
            .map(|ch| {
                (sampler.measured().iter())
                    .position(|&q| q == ch.ancilla)
                    .expect("the ESM round measures every ancilla")
            })
            .collect();
        let decoder = UnionFindDecoder::new(&code, error);
        let checks = decoder.syndrome_len();
        let entries = if checks <= PARITY_TABLE_MAX_BITS {
            1 << checks
        } else {
            0
        };
        SweepPoint {
            table: vec![None; entries],
            decoder,
            frame: LanePauliFrame::new(code.num_qubits()),
            err: vec![0; data],
            records: vec![0; sampler.measured().len()],
            words: vec![0; checks],
            syndrome: vec![false; checks],
            // A correction touches each data qubit at most once, so the
            // decode path never grows this buffer mid-run.
            #[cfg(debug_assertions)]
            correction: Vec::with_capacity(data),
            code,
            error,
            sampler,
            detectors,
            logical,
        }
    }

    /// Draws one 64-lane batch of i.i.d. data errors from `rng`, pushes
    /// it through the ESM round and decodes its first `live` lanes;
    /// returns the per-lane logical failure word.
    fn failure_word(&mut self, coin: Bernoulli, live: usize, rng: &mut StdRng) -> u64 {
        // One lane word per data qubit: the batch substream's first
        // draws, so the outcome depends on nothing else.
        for word in &mut self.err {
            *word = (0..LANES).fold(0, |word, lane| word | u64::from(coin.sample(rng)) << lane);
        }
        // The batch's errors on the data qubits' initial state.
        self.frame.reset_all();
        for (q, &word) in self.err.iter().enumerate() {
            match self.error {
                CheckKind::X => self.frame.apply_pauli_words(q, word, 0),
                CheckKind::Z => self.frame.apply_pauli_words(q, 0, word),
            }
        }
        self.sampler.sample(&mut self.frame, rng, &mut self.records);
        // Checks of the other kind detect the error.
        #[cfg(debug_assertions)]
        for (ch, &k) in (self.code.checks().iter())
            .filter(|ch| ch.kind != self.error)
            .zip(&self.detectors)
        {
            let expect = ch.support.iter().fold(0u64, |acc, &q| acc ^ self.err[q]);
            debug_assert_eq!(
                self.records[k], expect,
                "packed syndrome plane disagrees with check supports (ancilla {})",
                ch.ancilla
            );
        }
        // The failure word: the logical observable's value after the
        // lanes' corrections, whose parity on its support is `parity`.
        let parity = self.decode_lanes(live);
        let fail_word = self.sampler.observable_word(0, &self.frame) ^ parity;
        // Cross-check against pure classical bookkeeping: a lane fails
        // iff error ⊕ correction overlaps the logical support oddly.
        debug_assert_eq!(
            fail_word,
            (self.logical.iter()).fold(parity, |acc, &q| acc ^ self.err[q]),
            "frame and classical failure words differ"
        );
        fail_word
    }

    /// The failures and defects of batch `batch` of a run, over its
    /// live lanes: a pure function of `(config, batch)`, whichever
    /// thread runs it.
    fn tally(&mut self, config: &SurfaceLerConfig, batch: u64) -> Tally {
        let lanes = config.lanes(batch);
        let mask = u64::MAX >> (LANES - lanes);
        let coin = Bernoulli::new(config.physical_error_rate);
        let fail_word = self.failure_word(coin, lanes, &mut batch_rng(config.seed, batch));
        Tally {
            failures: (fail_word & mask).count_ones(),
            defects: (self.detectors.iter())
                .map(|&k| (self.records[k] & mask).count_ones())
                .sum(),
        }
    }

    /// Runs the decoder on lane `lane` of `words`; returns the parity of
    /// its correction on the logical support, which
    /// [`UnionFindDecoder::decode_logical_parity`] finds without building
    /// the correction.
    ///
    /// Debug builds also decode the lane in full with
    /// [`UnionFindDecoder::decode_into`], and assert that the correction
    /// annihilates the syndrome and that its parity is the returned bit.
    fn decode(&mut self, lane: usize) -> bool {
        for (s, &word) in self.syndrome.iter_mut().zip(&self.words) {
            *s = (word >> lane) & 1 == 1;
        }
        let parity = self.decoder.decode_logical_parity(&self.syndrome);
        #[cfg(debug_assertions)]
        {
            self.decoder
                .decode_into(&self.syndrome, &mut self.correction);
            // `code.syndrome_of(correction)` without its allocation, so
            // debug builds stay off the heap too.
            debug_assert!(
                (self.code.checks().iter())
                    .filter(|ch| ch.kind != self.error)
                    .zip(&self.syndrome)
                    .all(|(ch, &s)| {
                        let hits = ch.support.iter().filter(|q| self.correction.contains(q));
                        (hits.count() % 2 == 1) == s
                    }),
                "union-find correction does not annihilate its syndrome"
            );
            let hits = (self.correction.iter()).filter(|q| self.logical.contains(q));
            debug_assert_eq!(
                hits.count() % 2 == 1,
                parity,
                "parity path disagrees with the full correction"
            );
        }
        parity
    }

    /// The parity word of the first `live` lanes of the detecting
    /// checks' outcome words. With a table, the lanes' indices come from
    /// one transpose of those words ([`lane_indices`]); a lane whose
    /// syndrome is in the table reads its bit, any other lane runs the
    /// decoder and records the result. Without one every lane decodes.
    fn decode_lanes(&mut self, live: usize) -> u64 {
        for (word, &k) in self.words.iter_mut().zip(&self.detectors) {
            *word = self.records[k];
        }
        if self.table.is_empty() {
            return (0..live).fold(0, |parity, lane| {
                parity | u64::from(self.decode(lane)) << lane
            });
        }
        let indices = lane_indices(&self.words);
        let mut parity = 0u64;
        for (lane, &index) in indices[..live].iter().enumerate() {
            let index = usize::from(index);
            let bit = match self.table[index] {
                Some(bit) => bit,
                None => {
                    let bit = self.decode(lane);
                    self.table[index] = Some(bit);
                    bit
                }
            };
            parity |= u64::from(bit) << lane;
        }
        parity
    }
}

/// Entry `v` spreads the four bits of nibble `v` to bits 0, 16, 32 and
/// 48: one bit into each of four lanes' 16-bit index fields.
const NIBBLE_SPREAD: [u64; 16] = {
    let mut spread = [0; 16];
    let mut v = 0;
    while v < 16 {
        let mut bit = 0;
        while bit < 4 {
            spread[v] |= ((v as u64 >> bit) & 1) << (16 * bit);
            bit += 1;
        }
        v += 1;
    }
    spread
};

/// The parity-table index of every lane of `words`, the transpose of at
/// most [`PARITY_TABLE_MAX_BITS`] syndrome words: bit `k` of lane
/// `lane`'s index is bit `lane` of `words[k]`. Accumulator `j` holds
/// lanes `4j … 4j + 3` in its four 16-bit fields, and each word ORs one
/// [`NIBBLE_SPREAD`] entry, shifted to bit `k`, into every accumulator.
fn lane_indices(words: &[u64]) -> [u16; LANES] {
    assert!(
        words.len() <= PARITY_TABLE_MAX_BITS,
        "too many syndrome bits"
    );
    let mut fields = [0u64; LANES / 4];
    for (k, &word) in words.iter().enumerate() {
        for (j, field) in fields.iter_mut().enumerate() {
            *field |= NIBBLE_SPREAD[(word >> (4 * j) & 0xF) as usize] << k;
        }
    }
    let mut indices = [0u16; LANES];
    for (lane, index) in indices.iter_mut().enumerate() {
        *index = (fields[lane / 4] >> (16 * (lane % 4))) as u16;
    }
    indices
}

impl SurfaceLerConfig {
    /// The counted lanes of batch `batch`.
    fn lanes(&self, batch: u64) -> usize {
        (self.shots - batch * LANES as u64).min(LANES as u64) as usize
    }
}

/// One batch's failures and defects over its live lanes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Tally {
    failures: u32,
    defects: u32,
}

thread_local! {
    // One warm sweep point per (distance, error kind) per thread that
    // runs batches, a run's calling thread or a pool helper: the
    // union-find scratch inside its decoder and its batch buffers
    // survive across batches *and* across jobs hitting the same sweep
    // point, the frame sampler means the tableau runs once per point,
    // not once per batch, and the parity table keeps every syndrome
    // decoded so far — so the serving path pays decoder construction,
    // the reference ESM round, each distinct d ≤ 5 decode and
    // steady-state allocation once per thread (ROADMAP: decoder
    // throughput on the serving path). The entry is taken out of the
    // map while the thread runs batches and put back after
    // (`with_sweep_point`), so the cache is never borrowed across user
    // code.
    static DECODER_CACHE: RefCell<HashMap<(usize, CheckKind), SweepPoint>> =
        RefCell::new(HashMap::new());
}

/// Runs `body` on this thread's sweep point for `(distance, error)`,
/// built on first use. The cache makes room for the point before
/// `body` runs, so putting it back allocates nothing: a helper that
/// has checked in allocates no more for its run, however late it
/// finishes. A panic in `body` drops the point; the thread's next run
/// builds it again.
fn with_sweep_point<R>(
    distance: usize,
    error: CheckKind,
    body: impl FnOnce(&mut SweepPoint) -> R,
) -> R {
    let key = (distance, error);
    let mut point = DECODER_CACHE
        .with(|cache| {
            let mut cache = cache.borrow_mut();
            cache.reserve(1);
            cache.remove(&key)
        })
        .unwrap_or_else(|| SweepPoint::new(distance, error));
    let result = body(&mut point);
    DECODER_CACHE.with(|cache| {
        cache.borrow_mut().insert(key, point);
    });
    result
}

/// The RNG substream of one 64-shot batch. Substreams are independent
/// per batch: results for a prefix of shots are unchanged when the total
/// grows, and a resumed run replays exactly the batches a scratch run
/// would have.
fn batch_rng(seed: u64, batch: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ (batch + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A surface run's batches as the process's executor runs them: each
/// helper the run recruits warms its own sweep point for the run (the
/// run waits for that), then tallies the batches it claims.
#[derive(Clone, Copy)]
struct Sweep(SurfaceLerConfig);

impl Batches for Sweep {
    type Output = Tally;

    fn work(&self, claims: &mut Claims<'_, Self>) {
        let config = &self.0;
        with_sweep_point(config.distance, config.error, |point| {
            while let Some(batch) = claims.claim() {
                claims.post(point.tally(config, batch));
            }
        });
    }
}

thread_local! {
    // The shared state of the runs this thread fans out, kept so that a
    // warm run allocates none. It is out of the cell while a run is
    // open, so a run nested in another on the same thread gets its own.
    static SWEEP_RUN: RefCell<Option<Arc<Run<Sweep>>>> = const { RefCell::new(None) };
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
/// A run with two or more batches left runs them on the process's
/// executor (`qpdo_core::executor`), at every distance. Before each
/// batch the calling thread recruits whichever helpers are idle, up to
/// one per core beyond its own; the helpers and the caller claim whole
/// batches and run them out of order, while the caller commits their
/// tallies strictly in batch order: it polls `cancelled`, adds the
/// tally and calls `on_batch` once per batch, as a serial run does, so
/// checkpoints and resume are unchanged. A batch a helper holds up is
/// rerun by the caller after about two of its own batch times. A
/// single-core host, a run that finds no helper idle, or a run with one
/// batch left runs on the calling thread alone; the first two leave
/// the pool untouched.
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
    let batches = config.shots.div_ceil(LANES as u64);
    // The running position is the checkpoint `on_batch` observes: one
    // per run, updated in place, so the uncontrolled path allocates
    // nothing per batch.
    let mut progress = resume.cloned().unwrap_or_default();
    progress.counters.resize(1, 0);
    let first = progress.batches.min(batches);
    let stopped = with_sweep_point(config.distance, config.error, |point| {
        // With one batch left there is nothing to run beside it, so a
        // fresh thread's one-batch set-up neither spawns nor wakes a
        // helper.
        let helpers = executor::cores() - 1;
        let run = (batches - first >= 2 && helpers > 0)
            .then(|| SWEEP_RUN.with(RefCell::take).unwrap_or_else(Run::new));
        let mut fan = (run.as_ref())
            .map(|run| Executor::global().fan(run, Sweep(*config), first..batches, helpers, true));
        let mut stopped = false;
        for batch in first..batches {
            if cancelled() {
                stopped = true;
                break;
            }
            let tally = match &mut fan {
                Some(fan) => (fan.next(batch, &mut |b| point.tally(config, b), None, &|| false))
                    .unwrap_or_else(|| point.tally(config, batch)),
                None => point.tally(config, batch),
            };
            progress.batches = batch + 1;
            progress.shots += config.lanes(batch) as u64;
            progress.failures += u64::from(tally.failures);
            progress.counters[0] += u64::from(tally.defects);
            on_batch(&progress);
        }
        drop(fan);
        if let Some(run) = run {
            SWEEP_RUN.with(|cell| cell.replace(Some(run)));
        }
        stopped
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
    use qpdo_circuit::OperationKind;
    use qpdo_rng::RngCore;
    use qpdo_stabilizer::ShotSlicedSim;

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

    /// The logical-support parity of a direct union-find decode.
    fn direct_parity(point: &SweepPoint, syndrome: &[bool]) -> bool {
        let correction = point.decoder.decode(syndrome);
        let logical = &point.logical;
        correction.iter().filter(|q| logical.contains(q)).count() % 2 == 1
    }

    /// The logical operator errors of `kind` threaten.
    fn observable(code: &RotatedSurfaceCode, kind: CheckKind) -> PauliString {
        match kind {
            CheckKind::X => code.logical_z_string(),
            CheckKind::Z => code.logical_x_string(),
        }
    }

    /// A sliced tableau holding `kind`'s error-free data state, `|0…0⟩`
    /// or `|+…+⟩`.
    fn sliced_initial(code: &RotatedSurfaceCode, kind: CheckKind) -> ShotSlicedSim {
        let mut sim = ShotSlicedSim::new(code.num_qubits());
        if kind == CheckKind::Z {
            for q in 0..code.num_data_qubits() {
                sim.h(q);
            }
        }
        sim
    }

    /// Executes an ESM round on the sliced tableau, the independent
    /// re-execution the frame sampler is checked against, writing each
    /// measurement's outcome word to `records`, in circuit order. A
    /// measurement the tableau classifies as random takes its outcome
    /// word from `random(record)`.
    ///
    /// Qubits the round resets before any other operation (the ancillas)
    /// must enter in `|0⟩`: that first reset is the identity and is
    /// skipped, which halves the cost of the round on a fresh tableau.
    fn esm_on_tableau(
        sim: &mut ShotSlicedSim,
        esm: &Circuit,
        mut random: impl FnMut(usize) -> u64,
        records: &mut [u64],
    ) {
        let mut touched = vec![false; sim.num_qubits()];
        let mut record = 0;
        for op in esm.operations() {
            let q = op.qubits();
            match op.kind() {
                OperationKind::Prep if !touched[q[0]] => {
                    assert_eq!(
                        sim.peek_deterministic(q[0]),
                        Some(0),
                        "qubit {} entered the round outside |0>",
                        q[0]
                    );
                }
                OperationKind::Prep => sim.reset_with(q[0], |_| false),
                OperationKind::Measure => {
                    let word = if sim.is_random(q[0]) {
                        random(record)
                    } else {
                        0
                    };
                    records[record] = sim.measure_with(q[0], |lane| (word >> lane) & 1 == 1);
                    record += 1;
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

    /// Reference oracle: the packed tableau's one reference run records
    /// what the sliced engine records for the same noiseless round with
    /// every random outcome collapsed onto 0, every outcome word and
    /// the logical sign, at every distance the sweeps use.
    #[test]
    fn reference_run_matches_the_sliced_engine() {
        for d in [3, 5, 7, 9, 11, 13] {
            for kind in [CheckKind::X, CheckKind::Z] {
                let point = SweepPoint::new(d, kind);
                let mut sim = sliced_initial(&point.code, kind);
                let mut records = vec![0u64; point.records.len()];
                esm_on_tableau(&mut sim, &point.code.esm_circuit(), |_| 0, &mut records);
                assert_eq!(
                    point.sampler.reference(),
                    records,
                    "d={d} {kind:?}: outcome words"
                );
                let empty = LanePauliFrame::new(point.code.num_qubits());
                assert_eq!(
                    sim.expectation(&observable(&point.code, kind)),
                    Some(point.sampler.observable_word(0, &empty)),
                    "d={d} {kind:?}: logical sign"
                );
            }
        }
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
                for batch in 0..4 {
                    let rng = &mut batch_rng(d as u64, batch);
                    let fail_word = point.failure_word(Bernoulli::new(0.08), LANES, rng);
                    let code = &point.code;
                    let measured = point.sampler.measured();

                    let mut sim = sliced_initial(code, kind);
                    for (q, &word) in point.err.iter().enumerate() {
                        match kind {
                            CheckKind::X => sim.x_masked(q, word),
                            CheckKind::Z => sim.z_masked(q, word),
                        }
                    }
                    let mut records = vec![0u64; point.records.len()];
                    let esm = code.esm_circuit();
                    esm_on_tableau(&mut sim, &esm, |k| point.records[k], &mut records);
                    for (k, &ancilla) in measured.iter().enumerate() {
                        assert_eq!(
                            records[k], point.records[k],
                            "d={d} {kind:?} batch {batch}: ancilla {ancilla} diverged"
                        );
                    }
                    // Decode every lane here and apply the correction
                    // planes to the tableau.
                    let mut corr = vec![0u64; code.num_data_qubits()];
                    let mut syndrome = vec![false; point.detectors.len()];
                    for lane in 0..LANES {
                        for (s, &k) in syndrome.iter_mut().zip(&point.detectors) {
                            *s = (point.records[k] >> lane) & 1 == 1;
                        }
                        for q in point.decoder.decode(&syndrome) {
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
                        sim.expectation(&observable(code, kind)),
                        Some(fail_word),
                        "d={d} {kind:?} batch {batch}: failure word diverged"
                    );
                    // The gauge words make the non-detecting family random
                    // per lane rather than pinned to the reference branch.
                    // (The checks of the error's own kind do not detect it.)
                    if d == 5 {
                        for ch in code.checks_of(kind) {
                            let k = measured.iter().position(|&q| q == ch.ancilla).unwrap();
                            let word = point.records[k];
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

    /// The 64-lane transpose builds the index the per-lane fold does, for
    /// 1 to 16 random words, all-zero and all-ones words, and a d = 3
    /// point's four detector words after a batch.
    #[test]
    fn lane_indices_match_the_per_lane_fold() {
        let fold = |words: &[u64], lane: usize| {
            (words.iter().enumerate()).fold(0u16, |index, (k, &word)| {
                index | (((word >> lane) & 1) as u16) << k
            })
        };
        let check = |words: &[u64]| {
            let indices = lane_indices(words);
            for (lane, &index) in indices.iter().enumerate() {
                assert_eq!(index, fold(words, lane), "lane {lane} of {words:x?}");
            }
        };
        let mut rng = StdRng::seed_from_u64(29);
        for len in 1..=PARITY_TABLE_MAX_BITS {
            for _ in 0..8 {
                let words: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
                check(&words);
            }
            check(&vec![0; len]);
            check(&vec![u64::MAX; len]);
        }
        let mut point = SweepPoint::new(3, CheckKind::X);
        assert_eq!(point.detectors.len(), 4, "d = 3 has 4-bit syndromes");
        point.failure_word(Bernoulli::new(0.2), LANES, &mut batch_rng(3, 0));
        assert!(point.words.iter().any(|&w| w != 0 && w != u64::MAX));
        check(&point.words);
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
                let len = point.decoder.syndrome_len();
                let entries = 1usize << len;
                assert_eq!(point.table.len(), entries, "d={d} {kind:?}: table size");
                assert!(
                    point.table.iter().all(Option::is_none),
                    "d={d} {kind:?}: a fresh table is pre-filled"
                );
                for base in (0..entries).step_by(LANES) {
                    // Lane `l` carries syndrome index `base + l`.
                    let live = (entries - base).min(LANES);
                    for (k, &r) in point.detectors.iter().enumerate() {
                        point.records[r] = (0..live).fold(0, |word, lane| {
                            word | ((((base + lane) >> k) & 1) as u64) << lane
                        });
                    }
                    let (missed, hit) = (point.decode_lanes(live), point.decode_lanes(live));
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
