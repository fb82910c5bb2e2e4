//! Shot-sliced LER experiment: 64 Monte-Carlo trajectories per tableau.
//!
//! [`run_ler_sliced`] advances 64 independent trajectories of the
//! Listing 5.7 logical-error-rate experiment through one shared Clifford
//! schedule. The operator half of a CHP tableau — gate conjugation,
//! pivot selection, the deterministic/random measurement classification —
//! depends only on the `x`/`z` bit-planes, never on the signs, and every
//! operation of the SC17 schedule that *could* diverge between
//! trajectories (random measurement outcomes, injected depolarizing
//! errors, decoder corrections, Pauli-frame records) is a Pauli, which
//! touches only signs. One [`ShotSlicedSim`] word operation therefore
//! serves all 64 lanes, while divergence is confined to per-lane `u64`
//! masks over the sign planes, the [`LanePauliFrame`], the classical
//! bit-state words, and the syndrome-tracker reference words.
//!
//! Lane `k` consumes its own RNG stream (`lane_seeds[k]`), with draws in
//! exactly the order the scalar control stack makes them — measurement
//! flips, then gate/prep errors, then idle errors, slot by slot — so its
//! [`LerOutcome`] is byte-identical to
//! [`run_ler`](crate::experiment::run_ler) with `seed = lane_seeds[k]`.
//! The differential oracle in this module's tests holds this equality
//! per lane, per field, with and without the Pauli frame.
//!
//! The lane frame is tracked by [`update_frame`], the same Table 3.1
//! update the scalar `PauliFrameLayer` runs, applied to all 64 lanes at
//! once; only the measurement-flip words are the lane stack's own.
//!
//! [`run_ler_sliced_controlled`] is the resumable sweep over it: any
//! number of 64-lane batches, each seeded from its own substream, with
//! a checkpoint after every batch.

use std::collections::VecDeque;

use qpdo_circuit::{Circuit, Gate, Operation, OperationKind, TimeSlot};
use qpdo_core::arch::{update_frame, FrameFlow};
use qpdo_core::{round_up_to_lanes, sliced_lane_seeds, Checkpoint, CoreError, DepolarizingModel};
use qpdo_pauli::{LanePauliFrame, Pauli, PauliString};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_stabilizer::{ShotSlicedSim, LANES};

use crate::experiment::{LerConfig, LerOutcome, LogicalErrorKind};
use crate::{esm_ancillas, esm_circuit, DanceMode, LutDecoder, Rotation, StarLayout};

/// The lane-sliced control stack: one shared operator tableau, with all
/// per-trajectory state held as lane words. Mirrors the scalar
/// `ControlStack` + `PauliFrameLayer` + `CounterLayer` +
/// `DepolarizingModel` tower exactly, per lane.
struct SlicedStack {
    sim: ShotSlicedSim,
    /// The Pauli-frame layer, when the configuration carries one.
    frame: Option<LanePauliFrame>,
    /// Per-qubit FIFO of pending measurement-flip words, captured at
    /// frame-track time (the lane analogue of the scalar layer's
    /// `pending_flips`).
    pending: Vec<VecDeque<u64>>,
    /// One generator per lane, stream-identical to the scalar stack's.
    rngs: Vec<StdRng>,
    /// One error model per lane — the scalar draw discipline *and* the
    /// scalar injection counters, for free.
    models: Vec<DepolarizingModel>,
    /// Per-qubit classical bit-state: `known` bit clear = `Unknown`.
    known: Vec<u64>,
    value: Vec<u64>,
    /// Lanes still running their window loop. Frozen lanes keep riding
    /// the shared word operations (their sign bits turn to garbage), but
    /// never draw RNG, never inject, and never accrue counters.
    active: u64,
    ops_above: [u64; LANES],
    slots_above: [u64; LANES],
    ops_below: [u64; LANES],
    slots_below: [u64; LANES],
}

impl SlicedStack {
    fn new(n: usize, lane_seeds: &[u64; LANES], config: &LerConfig) -> Result<Self, CoreError> {
        let mut models = Vec::with_capacity(LANES);
        for _ in 0..LANES {
            models.push(DepolarizingModel::try_new(config.physical_error_rate)?);
        }
        Ok(SlicedStack {
            sim: ShotSlicedSim::new(n),
            frame: config.with_pauli_frame.then(|| LanePauliFrame::new(n)),
            pending: vec![VecDeque::new(); n],
            rngs: lane_seeds
                .iter()
                .map(|&s| StdRng::seed_from_u64(s))
                .collect(),
            models,
            known: vec![0; n],
            value: vec![0; n],
            active: u64::MAX,
            ops_above: [0; LANES],
            slots_above: [0; LANES],
            ops_below: [0; LANES],
            slots_below: [0; LANES],
        })
    }

    /// Runs a lane-invariant circuit through the full stack: classical
    /// marking, frame transform, counters, then slot-by-slot execution
    /// with noise injection — the sliced `run_circuit_from`.
    fn run_shared(&mut self, circuit: &Circuit, bypass: bool) -> Result<(), CoreError> {
        // Mark classical state on the original circuit: gates
        // invalidate, preps zero, measurements are filled in after
        // result mapping.
        for op in circuit.operations() {
            match op.kind() {
                OperationKind::Prep => {
                    let q = op.qubits()[0];
                    self.known[q] = u64::MAX;
                    self.value[q] = 0;
                }
                OperationKind::Measure => {}
                OperationKind::Gate(_) => {
                    for &q in op.qubits() {
                        self.known[q] = 0;
                    }
                }
            }
        }

        // Downward pass: the frame transform (lane-invariant here —
        // per-lane correction slots never travel this path).
        let slots = self.frame_transform(circuit);

        // Counter layers record outside bypass only, above the frame on
        // the original circuit and below it on the transformed one.
        if !bypass {
            let above = (
                circuit.operation_count() as u64,
                circuit.slot_count() as u64,
            );
            let below = (
                slots.iter().map(TimeSlot::len).sum::<usize>() as u64,
                slots.len() as u64,
            );
            let mut mask = self.active;
            while mask != 0 {
                let k = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.ops_above[k] += above.0;
                self.slots_above[k] += above.1;
                self.ops_below[k] += below.0;
                self.slots_below[k] += below.1;
            }
        }

        for slot in &slots {
            self.execute_slot(slot, bypass)?;
        }
        Ok(())
    }

    /// The Pauli-frame downward pass on a lane-invariant circuit, through
    /// the same [`update_frame`] the scalar layer tracks with: Pauli
    /// gates are absorbed (all lanes at once), Cliffords map the frame
    /// and forward, preps reset it, measurements capture their pending
    /// flip word. Emptied slots are dropped — the schedule saving.
    fn frame_transform(&mut self, circuit: &Circuit) -> Vec<TimeSlot> {
        let Some(frame) = self.frame.as_mut() else {
            return circuit.slots().to_vec();
        };
        let mut out = Vec::with_capacity(circuit.slot_count());
        for slot in circuit.slots() {
            let mut fwd = TimeSlot::new();
            for op in slot {
                match update_frame(frame, op) {
                    FrameFlow::Absorbed => continue,
                    FrameFlow::Measure => {
                        let q = op.qubits()[0];
                        self.pending[q].push_back(frame.measurement_flip_word(q));
                    }
                    FrameFlow::NonClifford => {
                        unreachable!("the SC17 LER schedule is Clifford-only")
                    }
                    FrameFlow::Reset | FrameFlow::Mapped => {}
                }
                fwd.push(op.clone());
            }
            if !fwd.is_empty() {
                out.push(fwd);
            }
        }
        out
    }

    /// The sliced `execute_slot`: per op — measurement-flip error, core
    /// application, result mapping, gate/prep error — then idle errors
    /// on every untouched qubit, all per active lane.
    fn execute_slot(&mut self, slot: &TimeSlot, bypass: bool) -> Result<(), CoreError> {
        let inject = !bypass;
        for op in slot {
            if inject && op.is_measure() {
                // Measurement errors strike before the readout.
                let q = op.qubits()[0];
                let mut flip = 0u64;
                let mut mask = self.active;
                while mask != 0 {
                    let k = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    if self.models[k].sample_measurement_flip(&mut self.rngs[k]) {
                        flip |= 1u64 << k;
                    }
                }
                if flip != 0 {
                    self.sim.x_masked(q, flip);
                    self.known[q] &= !flip;
                }
            }
            match op.kind() {
                OperationKind::Prep => {
                    let q = op.qubits()[0];
                    let active = self.active;
                    let rngs = &mut self.rngs;
                    self.sim.reset_with(q, |lane| {
                        (active & (1u64 << lane)) != 0 && rngs[lane].gen::<bool>()
                    });
                }
                OperationKind::Measure => {
                    let q = op.qubits()[0];
                    let active = self.active;
                    let rngs = &mut self.rngs;
                    let raw = self.sim.measure_with(q, |lane| {
                        (active & (1u64 << lane)) != 0 && rngs[lane].gen::<bool>()
                    });
                    let mapped = if self.frame.is_some() {
                        raw ^ self.pending[q]
                            .pop_front()
                            .expect("every tracked measurement has a pending flip word")
                    } else {
                        raw
                    };
                    self.value[q] = mapped;
                    self.known[q] = u64::MAX;
                }
                OperationKind::Gate(gate) => {
                    let q = op.qubits();
                    match gate {
                        Gate::I => {}
                        Gate::X => self.sim.x(q[0]),
                        Gate::Y => self.sim.y(q[0]),
                        Gate::Z => self.sim.z(q[0]),
                        Gate::H => self.sim.h(q[0]),
                        Gate::S => self.sim.s(q[0]),
                        Gate::Sdg => self.sim.sdg(q[0]),
                        Gate::Cnot => self.sim.cnot(q[0], q[1]),
                        Gate::Cz => self.sim.cz(q[0], q[1]),
                        Gate::Swap => self.sim.swap(q[0], q[1]),
                        Gate::T | Gate::Tdg | Gate::Toffoli => {
                            return Err(CoreError::UnsupportedGate(gate))
                        }
                    }
                }
            }
            // Gate/prep errors strike after the operation.
            if inject && !op.is_measure() {
                match *op.qubits() {
                    [q] => self.inject_each(q, self.active, DepolarizingModel::sample_single),
                    [a, b] => self.inject_two(a, b),
                    ref qubits => {
                        let qubits = qubits.to_vec();
                        for q in qubits {
                            self.inject_each(q, self.active, DepolarizingModel::sample_single);
                        }
                    }
                }
            }
        }
        // Idle errors: every qubit not touched this slot idles.
        if inject {
            for q in 0..self.sim.num_qubits() {
                if !slot.uses_qubit(q) {
                    self.inject_each(q, self.active, DepolarizingModel::sample_idle);
                }
            }
        }
        Ok(())
    }

    /// Samples one error per lane in `lanes` and applies the hits as a
    /// masked Pauli on `q`. Errors are physical: they reach the sign
    /// planes directly, never the frame, and invalidate the classical
    /// bit of the lanes they strike.
    fn inject_each(
        &mut self,
        q: usize,
        lanes: u64,
        mut sample: impl FnMut(&mut DepolarizingModel, &mut StdRng) -> Option<Pauli>,
    ) {
        let mut xw = 0u64;
        let mut zw = 0u64;
        let mut hit = 0u64;
        let mut mask = lanes;
        while mask != 0 {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if let Some(p) = sample(&mut self.models[k], &mut self.rngs[k]) {
                let bit = 1u64 << k;
                hit |= bit;
                if matches!(p, Pauli::X | Pauli::Y) {
                    xw |= bit;
                }
                if matches!(p, Pauli::Z | Pauli::Y) {
                    zw |= bit;
                }
            }
        }
        if hit != 0 {
            self.sim.pauli_masked(q, xw, zw);
            self.known[q] &= !hit;
        }
    }

    /// Two-qubit correlated injection: one `sample_two` draw per lane,
    /// first component on `a`, second on `b` (identity components leave
    /// the lane untouched, exactly like the scalar `apply_error`).
    fn inject_two(&mut self, a: usize, b: usize) {
        let mut words = [[0u64; 3]; 2]; // per qubit: x, z, hit
        let mut mask = self.active;
        while mask != 0 {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if let Some((pa, pb)) = self.models[k].sample_two(&mut self.rngs[k]) {
                let bit = 1u64 << k;
                for (w, p) in words.iter_mut().zip([pa, pb]) {
                    if p == Pauli::I {
                        continue;
                    }
                    w[2] |= bit;
                    if matches!(p, Pauli::X | Pauli::Y) {
                        w[0] |= bit;
                    }
                    if matches!(p, Pauli::Z | Pauli::Y) {
                        w[1] |= bit;
                    }
                }
            }
        }
        for (q, w) in [a, b].into_iter().zip(words) {
            if w[2] != 0 {
                self.sim.pauli_masked(q, w[0], w[1]);
                self.known[q] &= !w[2];
            }
        }
    }

    /// Runs one per-lane correction slot (Pauli gates only). With a
    /// frame the slot is absorbed entirely — it empties, is dropped, and
    /// nothing reaches the core or the below-frame counters. Without
    /// one, the Paulis execute masked and draw that lane's gate and
    /// idle errors, exactly like the scalar frameless stack.
    fn run_lane_pauli_slot(&mut self, slot: &TimeSlot, lane: usize, bypass: bool) {
        let bit = 1u64 << lane;
        if !bypass {
            self.ops_above[lane] += slot.len() as u64;
            self.slots_above[lane] += 1;
        }
        // Classical marking: Pauli gates invalidate this lane's bits.
        for op in slot {
            self.known[op.qubits()[0]] &= !bit;
        }
        let pauli_of = |op: &Operation| match op.kind() {
            OperationKind::Gate(Gate::X) => Pauli::X,
            OperationKind::Gate(Gate::Y) => Pauli::Y,
            OperationKind::Gate(Gate::Z) => Pauli::Z,
            _ => unreachable!("correction slots are Pauli-only"),
        };
        if let Some(frame) = self.frame.as_mut() {
            for op in slot {
                frame.apply_pauli_masked(op.qubits()[0], pauli_of(op), bit);
            }
            return;
        }
        if !bypass {
            self.ops_below[lane] += slot.len() as u64;
            self.slots_below[lane] += 1;
        }
        for op in slot {
            let q = op.qubits()[0];
            match pauli_of(op) {
                Pauli::X => self.sim.x_masked(q, bit),
                Pauli::Y => self.sim.y_masked(q, bit),
                Pauli::Z => self.sim.z_masked(q, bit),
                Pauli::I => {}
            }
            if !bypass {
                self.inject_each(q, bit, DepolarizingModel::sample_single);
            }
        }
        if !bypass {
            for q in 0..self.sim.num_qubits() {
                if !slot.uses_qubit(q) {
                    self.inject_each(q, bit, DepolarizingModel::sample_idle);
                }
            }
        }
    }

    /// Reads the `(x_checks, z_checks)` syndrome lane words off the
    /// classical state: a lane's bit contributes only while `known`
    /// (the sliced `bit(a).known().unwrap_or(false)`).
    fn read_syndromes(&self, layout: &StarLayout) -> ([u64; 4], [u64; 4]) {
        let (x_ancillas, z_ancillas) = esm_ancillas(layout, Rotation::Normal);
        let read = |ancillas: [usize; 4]| {
            let mut out = [0u64; 4];
            for (word, &a) in out.iter_mut().zip(&ancillas) {
                *word = self.value[a] & self.known[a];
            }
            out
        };
        (read(x_ancillas), read(z_ancillas))
    }

    fn reset_counters(&mut self) {
        self.ops_above = [0; LANES];
        self.slots_above = [0; LANES];
        self.ops_below = [0; LANES];
        self.slots_below = [0; LANES];
    }
}

/// Per-check-family windowing state over all lanes: the shared LUT plus
/// a reference lane word per check (the sliced `SyndromeTracker`).
struct LaneTracker {
    decoder: LutDecoder,
    reference: [u64; 4],
}

impl LaneTracker {
    fn new(checks: &[Vec<usize>; 4]) -> Self {
        LaneTracker {
            decoder: LutDecoder::for_checks(checks),
            reference: [0; 4],
        }
    }

    /// Lane `lane`'s 4-bit deviation pattern of `round` against the
    /// reference.
    fn lane_deviation(&self, round: &[u64; 4], lane: usize) -> u8 {
        let mut pattern = 0u8;
        for (i, (word, reference)) in round.iter().zip(&self.reference).enumerate() {
            if ((word ^ reference) >> lane) & 1 == 1 {
                pattern |= 1 << i;
            }
        }
        pattern
    }

    /// Lanes whose round deviates from the reference on any check.
    fn deviation_lanes(&self, round: &[u64; 4]) -> u64 {
        round
            .iter()
            .zip(&self.reference)
            .fold(0, |acc, (word, reference)| acc | (word ^ reference))
    }

    /// The confirm-then-correct window rule for one lane: a deviation
    /// pattern stable across both rounds is decoded, anything else is
    /// deferred. The reference is untouched (the correction restores the
    /// physical syndrome to it).
    fn process_window_lane(&self, first: &[u64; 4], second: &[u64; 4], lane: usize) -> &[usize] {
        let dev1 = self.lane_deviation(first, lane);
        let dev2 = self.lane_deviation(second, lane);
        let confirmed = if dev1 == dev2 { dev1 } else { 0 };
        self.decoder.decode(confirmed)
    }

    /// The initialization decode for one lane: `-1` readings become
    /// detection events against an all-`+1` reference, which the decode
    /// then restores for this lane.
    fn decode_initialization_lane(&mut self, round: &[u64; 4], lane: usize) -> &[usize] {
        let mut pattern = 0u8;
        for (i, word) in round.iter().enumerate() {
            if (word >> lane) & 1 == 1 {
                pattern |= 1 << i;
            }
        }
        for reference in &mut self.reference {
            *reference &= !(1u64 << lane);
        }
        self.decoder.decode(pattern)
    }
}

/// The single correction time slot of the scalar star, rebuilt here for
/// per-lane use: X and Z corrections on virtual data qubits merged
/// (`X` + `Z` on the same qubit becomes `Y`), `None` when empty.
fn correction_slot(
    layout: &StarLayout,
    x_corrections: &[usize],
    z_corrections: &[usize],
) -> Option<TimeSlot> {
    if x_corrections.is_empty() && z_corrections.is_empty() {
        return None;
    }
    let mut slot = TimeSlot::new();
    for d in 0..9 {
        let x = x_corrections.contains(&d);
        let z = z_corrections.contains(&d);
        let gate = match (x, z) {
            (true, true) => Gate::Y,
            (true, false) => Gate::X,
            (false, true) => Gate::Z,
            (false, false) => continue,
        };
        slot.push(Operation::gate(gate, &[layout.data[d]]));
    }
    Some(slot)
}

/// The per-lane logical value seen through the frame: the physical
/// expectation lane word of the logical-state stabilizer, corrected by
/// the tracked record words on its support. `None` (lane-invariant, the
/// observable depends only on the shared operator planes) when the
/// observable is not deterministic.
fn logical_value_words(
    st: &mut SlicedStack,
    layout: &StarLayout,
    kind: LogicalErrorKind,
) -> Option<u64> {
    let (support, pauli) = match kind {
        LogicalErrorKind::XL => (StarLayout::logical_z_support(Rotation::Normal), Pauli::Z),
        LogicalErrorKind::ZL => (StarLayout::logical_x_support(Rotation::Normal), Pauli::X),
    };
    let support = support.map(|d| layout.data[d]);
    let mut observable = PauliString::identity(st.sim.num_qubits());
    for &q in &support {
        observable.set_op(q, pauli);
    }
    // Tracked X components flip Z-type readouts, tracked Z components
    // flip X-type readouts.
    let mut flip = 0u64;
    if let Some(frame) = st.frame.as_ref() {
        for &q in &support {
            let (x, z) = frame.record_words(q);
            flip ^= match pauli {
                Pauli::Z => x,
                Pauli::X => z,
                _ => unreachable!("logical observables are X- or Z-type"),
            };
        }
    }
    let physical = st.sim.expectation(&observable)?;
    Some(physical ^ flip)
}

/// Runs 64 independent LER trajectories through one shared tableau: the
/// shot-sliced [`run_ler`](crate::experiment::run_ler).
///
/// Lane `k`'s outcome is byte-identical to a scalar run with
/// `seed = lane_seeds[k]` (the `seed` field of `config` is unused —
/// every trajectory's stream comes from `lane_seeds`). The cooperative
/// `cancelled` check is consulted once per window round; when it fires,
/// the still-running lanes report the windows executed so far and the
/// returned flag is `true`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProbability`] when
/// `config.physical_error_rate` is outside `[0, 1]`, and propagates core
/// errors (none are expected for valid configurations).
pub fn run_ler_sliced(
    config: &LerConfig,
    lane_seeds: &[u64; LANES],
    cancelled: &dyn Fn() -> bool,
) -> Result<([LerOutcome; LANES], bool), CoreError> {
    let layout = StarLayout::standard(0);
    let mut st = SlicedStack::new(17, lane_seeds, config)?;
    let mut x_tracker = LaneTracker::new(&StarLayout::x_check_supports(Rotation::Normal));
    let mut z_tracker = LaneTracker::new(&StarLayout::z_check_supports(Rotation::Normal));
    let esm = esm_circuit(&layout, Rotation::Normal, DanceMode::All);

    // ---- initialization (diagnostic mode, Listing 5.7 step 1) ----
    // Reset all data qubits (plus the basis rotation for |+>_L).
    let mut prep = Circuit::new();
    for &d in &layout.data {
        prep.prep(d);
    }
    if config.kind == LogicalErrorKind::ZL {
        let mut slot = TimeSlot::new();
        for &d in &layout.data {
            slot.push(Operation::gate(Gate::H, &[d]));
        }
        prep.push_slot(slot);
    }
    st.run_shared(&prep, true)?;

    // First ESM round fixes the gauge — its X-check outcomes on |0..0>
    // (Z-check outcomes on |+..+>) are genuinely random, so this is
    // where the lanes first diverge.
    st.run_shared(&esm, true)?;
    let (x_round, z_round) = st.read_syndromes(&layout);
    for lane in 0..LANES {
        let z_corrections = x_tracker
            .decode_initialization_lane(&x_round, lane)
            .to_vec();
        let x_corrections = z_tracker
            .decode_initialization_lane(&z_round, lane)
            .to_vec();
        if let Some(slot) = correction_slot(&layout, &x_corrections, &z_corrections) {
            st.run_lane_pauli_slot(&slot, lane, true);
        }
    }
    // The remaining d-1 rounds confirm a clean state in every lane.
    for _ in 0..2 {
        st.run_shared(&esm, true)?;
        let (x_round, z_round) = st.read_syndromes(&layout);
        debug_assert_eq!(
            x_tracker.deviation_lanes(&x_round),
            0,
            "gauge fixed by initialization decode"
        );
        debug_assert_eq!(
            z_tracker.deviation_lanes(&z_round),
            0,
            "error-free initialization"
        );
    }
    // Counters cover exactly the counted windows (scalar parity: the
    // stack resets them after initialization).
    st.reset_counters();

    let mut reference = logical_value_words(&mut st, &layout, config.kind)
        .expect("freshly initialized state has a deterministic logical value");

    let mut window_count = 0u64;
    let mut windows = [0u64; LANES];
    let mut logical_errors = [0u64; LANES];
    let mut stopped = false;

    // The scalar loop condition, checked before the first window.
    if config.target_logical_errors == 0 || config.max_windows == 0 {
        st.active = 0;
    }

    while st.active != 0 {
        if cancelled() {
            stopped = true;
            break;
        }
        // run_window: two counted ESM rounds, then the window decision
        // and correction per lane.
        st.run_shared(&esm, false)?;
        let first = st.read_syndromes(&layout);
        st.run_shared(&esm, false)?;
        let second = st.read_syndromes(&layout);
        let mut mask = st.active;
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let z_corrections = x_tracker
                .process_window_lane(&first.0, &second.0, lane)
                .to_vec();
            let x_corrections = z_tracker
                .process_window_lane(&first.1, &second.1, lane)
                .to_vec();
            if let Some(slot) = correction_slot(&layout, &x_corrections, &z_corrections) {
                st.run_lane_pauli_slot(&slot, lane, false);
            }
        }
        window_count += 1;

        // The observable-error gate: one diagnostic ESM round shared by
        // every lane, compared per lane against the references.
        st.run_shared(&esm, true)?;
        let (x_round, z_round) = st.read_syndromes(&layout);
        let error_lanes = x_tracker.deviation_lanes(&x_round) | z_tracker.deviation_lanes(&z_round);
        let check = st.active & !error_lanes;
        if check != 0 {
            if let Some(value) = logical_value_words(&mut st, &layout, config.kind) {
                let changed = (value ^ reference) & check;
                reference ^= changed;
                let mut m = changed;
                while m != 0 {
                    let k = m.trailing_zeros() as usize;
                    m &= m - 1;
                    logical_errors[k] += 1;
                }
            }
        }

        // Freeze every lane that now meets the scalar exit condition.
        let mut frozen = 0u64;
        let mut m = st.active;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            m &= m - 1;
            if logical_errors[k] >= config.target_logical_errors
                || window_count >= config.max_windows
            {
                frozen |= 1u64 << k;
                windows[k] = window_count;
            }
        }
        st.active &= !frozen;
    }
    // Lanes still running when the loop stopped cooperatively.
    let mut m = st.active;
    while m != 0 {
        let k = m.trailing_zeros() as usize;
        m &= m - 1;
        windows[k] = window_count;
    }

    let outcomes = core::array::from_fn(|k| LerOutcome {
        windows: windows[k],
        logical_errors: logical_errors[k],
        ops_above_frame: st.ops_above[k],
        slots_above_frame: st.slots_above[k],
        ops_below_frame: st.ops_below[k],
        slots_below_frame: st.slots_below[k],
        injected: st.models[k].counts(),
    });
    Ok((outcomes, stopped))
}

/// What a [`run_ler_sliced_controlled`] sweep has run so far.
#[derive(Clone, Debug, PartialEq)]
pub struct SlicedLerOutcome {
    /// The field-wise sum of the completed trajectories' outcomes.
    pub total: LerOutcome,
    /// The last progress: the checkpoint resumed from, or the last one
    /// `on_batch` observed (`None` before either). Its `shots` counts
    /// the completed trajectories, 64 per batch.
    pub checkpoint: Option<Checkpoint>,
}

/// The controlled shot-sliced sweep: `shots` trajectories of the
/// [`run_ler`](crate::experiment::run_ler) experiment, rounded up to a
/// lane multiple and run 64 per batch through [`run_ler_sliced`],
/// started from an optional [`Checkpoint`] and reporting the
/// accumulated checkpoint after every completed batch through
/// `on_batch`. Returns the outcome so far plus whether `cancelled`
/// (polled once per window round) stopped the sweep.
///
/// Lane `k` of batch `b` seeds from the substream
/// `sliced_lane_seeds(config.seed, "lanes", b)[k]`, a pure function of
/// `(config.seed, b, k)`: each lane's trajectory equals the scalar run
/// with that seed, and resuming from a checkpoint's batch count replays
/// exactly the remaining batches, so a resumed sweep is byte-identical
/// to an uninterrupted one.
///
/// A checkpoint's `counters` hold the running [`LerOutcome::counters`]
/// sum and its `failures` count failed *trajectories* (at least one
/// logical error), not summed logical errors: a multi-error target
/// could push that sum past the shot count. A checkpoint without all
/// ten counters (foreign or truncated), or past the last batch, is
/// ignored and the sweep runs from scratch.
///
/// # Errors
///
/// Same contract as [`run_ler_sliced`].
pub fn run_ler_sliced_controlled(
    config: &LerConfig,
    shots: u64,
    resume: Option<&Checkpoint>,
    cancelled: &dyn Fn() -> bool,
    on_batch: &mut dyn FnMut(&Checkpoint),
) -> Result<(SlicedLerOutcome, bool), CoreError> {
    let batches = round_up_to_lanes(shots) / LANES as u64;
    let (checkpoint, total) = resume
        .filter(|c| c.batches <= batches)
        .and_then(|c| Some((Some(c.clone()), LerOutcome::from_counters(&c.counters)?)))
        .unwrap_or_default();
    let first = checkpoint.as_ref().map_or(0, |c| c.batches);
    let mut failed_shots = checkpoint.as_ref().map_or(0, |c| c.failures);
    let mut outcome = SlicedLerOutcome { total, checkpoint };
    for batch in first..batches {
        let lane_seeds = sliced_lane_seeds(config.seed, "lanes", batch);
        let (outcomes, stopped) = run_ler_sliced(config, &lane_seeds, cancelled)?;
        if stopped {
            return Ok((outcome, true));
        }
        for lane in outcomes {
            failed_shots += u64::from(lane.logical_errors > 0);
            outcome.total += lane;
        }
        let checkpoint = Checkpoint {
            batches: batch + 1,
            shots: (batch + 1) * LANES as u64,
            failures: failed_shots,
            counters: outcome.total.counters().to_vec(),
        };
        on_batch(&checkpoint);
        outcome.checkpoint = Some(checkpoint);
    }
    Ok((outcome, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_ler;

    fn seeds(base: u64) -> [u64; LANES] {
        core::array::from_fn(|k| base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k as u64 + 1))
    }

    fn quick(p: f64, with_pf: bool, kind: LogicalErrorKind) -> LerConfig {
        LerConfig {
            physical_error_rate: p,
            kind,
            with_pauli_frame: with_pf,
            target_logical_errors: 2,
            max_windows: 200,
            seed: 0,
        }
    }

    #[test]
    fn zero_noise_runs_all_lanes_to_the_window_cap() {
        for with_pf in [false, true] {
            let mut config = quick(0.0, with_pf, LogicalErrorKind::XL);
            config.max_windows = 10;
            let (outcomes, stopped) = run_ler_sliced(&config, &seeds(1), &|| false).unwrap();
            assert!(!stopped);
            for o in &outcomes {
                assert_eq!(o.windows, 10);
                assert_eq!(o.logical_errors, 0);
                assert_eq!(o.injected.total(), 0);
            }
        }
    }

    #[test]
    fn every_lane_matches_its_scalar_twin_with_frame() {
        let config = quick(0.01, true, LogicalErrorKind::XL);
        let lane_seeds = seeds(0x51CE_D001);
        let (outcomes, stopped) = run_ler_sliced(&config, &lane_seeds, &|| false).unwrap();
        assert!(!stopped);
        for (k, (outcome, &seed)) in outcomes.iter().zip(&lane_seeds).enumerate() {
            let scalar = run_ler(&LerConfig { seed, ..config }).unwrap();
            assert_eq!(*outcome, scalar, "lane {k} diverged from its twin");
        }
    }

    #[test]
    fn every_lane_matches_its_scalar_twin_without_frame() {
        let config = quick(0.008, false, LogicalErrorKind::ZL);
        let lane_seeds = seeds(0x51CE_D002);
        let (outcomes, _) = run_ler_sliced(&config, &lane_seeds, &|| false).unwrap();
        for (k, (outcome, &seed)) in outcomes.iter().zip(&lane_seeds).enumerate() {
            let scalar = run_ler(&LerConfig { seed, ..config }).unwrap();
            assert_eq!(*outcome, scalar, "lane {k} diverged from its twin");
        }
    }

    #[test]
    fn cancellation_reports_partial_windows() {
        let config = quick(0.005, true, LogicalErrorKind::XL);
        let (outcomes, stopped) = run_ler_sliced(&config, &seeds(3), &|| true).unwrap();
        assert!(stopped);
        assert!(outcomes.iter().all(|o| o.windows == 0));
    }

    #[test]
    fn controlled_sweep_sums_its_scalar_lane_twins() {
        let config = LerConfig {
            target_logical_errors: 1,
            max_windows: 100,
            seed: 0x51CE_D003,
            ..quick(0.01, true, LogicalErrorKind::XL)
        };
        let mut seen = Vec::new();
        // Ten shots round up to one full 64-lane batch.
        let (outcome, stopped) =
            run_ler_sliced_controlled(&config, 10, None, &|| false, &mut |c| {
                seen.push(c.clone());
            })
            .unwrap();
        assert!(!stopped);
        let mut expected = LerOutcome::default();
        for seed in sliced_lane_seeds(config.seed, "lanes", 0) {
            expected += run_ler(&LerConfig { seed, ..config }).unwrap();
        }
        assert_eq!(outcome.total, expected);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].shots, 64);
        assert_eq!(outcome.checkpoint.as_ref(), seen.last());
    }

    #[test]
    fn invalid_rate_is_an_error_not_a_panic() {
        let config = quick(1.5, false, LogicalErrorKind::XL);
        let err = run_ler_sliced(&config, &seeds(4), &|| false).unwrap_err();
        assert!(matches!(err, CoreError::InvalidProbability { .. }));
    }
}
