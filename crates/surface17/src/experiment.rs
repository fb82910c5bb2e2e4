//! The logical-error-rate experiment of Section 5.3 (Listing 5.7).
//!
//! An idling SC17 logical qubit is initialized, then error-correction
//! windows run until a target number of logical errors is counted:
//!
//! ```text
//! while logical_error_count < MAX_LOGICAL_ERROR:
//!     execute_window()
//!     window_count += 1
//!     if no_observable_errors():
//!         if logical_error_happened():
//!             logical_error_count += 1
//! logical_error_rate = logical_error_count / window_count
//! ```
//!
//! The control stack is the one of Fig 5.8: a CHP (stabilizer) core, the
//! symmetric depolarizing error layer, an optional Pauli-frame layer, and
//! counter layers around the frame so the experiment can report exactly
//! what the frame saved (Figs 5.25–5.26).
//!
//! One loop runs the experiment. [`run_ler_on`] is its controlled
//! driver: generic over the stabilizer engine, polled for cancellation
//! before every window, returning `(outcome, stopped)`. [`run_ler`]
//! (packed engine) and `run_ler_reference` (cell-per-entry reference
//! engine, the differential oracle) are the uncancelled one-line calls
//! into it; [`run_ler_classical`] swaps in the protected frame layer.

use std::ops::AddAssign;

use qpdo_core::fault::{FaultPlan, FaultRates};
use qpdo_core::{
    ChpCore, ControlStack, CoreError, CounterLayer, DepolarizingModel, ErrorCounts,
    FrameProtectionConfig, FrameProtectionStats, PauliFrameLayer, ProtectedPauliFrameLayer,
    ShotError, SvCore,
};
use qpdo_pauli::{Pauli, PauliString};
#[cfg(feature = "reference")]
use qpdo_stabilizer::ReferenceTableau;
use qpdo_stabilizer::{CliffordTableau, StabilizerSim};
use qpdo_statevector::Complex;

use crate::{NinjaStar, StarLayout};

/// Which logical error the experiment watches for — and hence which
/// state it prepares (`X_L` errors flip `|0⟩_L`; `Z_L` errors flip
/// `|+⟩_L`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LogicalErrorKind {
    /// Watch for logical X errors on `|0⟩_L` (tracks `Z0Z4Z8`).
    XL,
    /// Watch for logical Z errors on `|+⟩_L` (tracks `X2X4X6`).
    ZL,
}

/// Configuration of one LER run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LerConfig {
    /// The physical error rate `p` of the depolarizing model.
    pub physical_error_rate: f64,
    /// Which logical error to watch for.
    pub kind: LogicalErrorKind,
    /// Whether the stack includes a Pauli-frame layer.
    pub with_pauli_frame: bool,
    /// Stop after counting this many logical errors (50 in the paper).
    pub target_logical_errors: u64,
    /// Safety cap on windows (needed at very low `p`).
    pub max_windows: u64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl LerConfig {
    /// A configuration with the paper's stopping rule (50 logical
    /// errors) and a generous window cap.
    #[must_use]
    pub fn paper_default(
        physical_error_rate: f64,
        kind: LogicalErrorKind,
        with_pauli_frame: bool,
        seed: u64,
    ) -> Self {
        LerConfig {
            physical_error_rate,
            kind,
            with_pauli_frame,
            target_logical_errors: 50,
            max_windows: 50_000_000,
            seed,
        }
    }
}

/// The result of one LER run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LerOutcome {
    /// Windows executed (`R` in Eq 5.1).
    pub windows: u64,
    /// Logical errors counted (`m` in Eq 5.1).
    pub logical_errors: u64,
    /// Operations that entered the stack above the Pauli frame.
    pub ops_above_frame: u64,
    /// Time slots that entered the stack above the Pauli frame.
    pub slots_above_frame: u64,
    /// Operations that reached the error layer / core below the frame.
    pub ops_below_frame: u64,
    /// Time slots that reached the error layer / core below the frame.
    pub slots_below_frame: u64,
    /// Injected physical errors.
    pub injected: ErrorCounts,
}

impl LerOutcome {
    /// The logical error rate `P_L = m / R` (Eq 5.1).
    #[must_use]
    pub fn ler(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.logical_errors as f64 / self.windows as f64
        }
    }

    /// The fraction of gates the Pauli frame filtered out (Fig 5.25a).
    #[must_use]
    pub fn saved_operations(&self) -> f64 {
        if self.ops_above_frame == 0 {
            0.0
        } else {
            (self.ops_above_frame - self.ops_below_frame) as f64 / self.ops_above_frame as f64
        }
    }

    /// The fraction of time slots the Pauli frame removed (Fig 5.25b).
    #[must_use]
    pub fn saved_time_slots(&self) -> f64 {
        if self.slots_above_frame == 0 {
            0.0
        } else {
            (self.slots_above_frame - self.slots_below_frame) as f64 / self.slots_above_frame as f64
        }
    }

    /// The ten counters in record order: windows, logical errors, ops
    /// and slots above then below the frame, and the four injected
    /// error counts.
    #[must_use]
    pub fn counters(&self) -> [u64; 10] {
        let i = &self.injected;
        [
            self.windows,
            self.logical_errors,
            self.ops_above_frame,
            self.slots_above_frame,
            self.ops_below_frame,
            self.slots_below_frame,
            i.single_qubit,
            i.two_qubit,
            i.measurement,
            i.idle,
        ]
    }

    /// The inverse of [`counters`](Self::counters); `None` unless
    /// exactly ten counters are given.
    #[must_use]
    pub fn from_counters(counters: &[u64]) -> Option<Self> {
        let [windows, logical_errors, ops_above_frame, slots_above_frame, ops_below_frame, slots_below_frame, single_qubit, two_qubit, measurement, idle] =
            *counters
        else {
            return None;
        };
        Some(LerOutcome {
            windows,
            logical_errors,
            ops_above_frame,
            slots_above_frame,
            ops_below_frame,
            slots_below_frame,
            injected: ErrorCounts {
                single_qubit,
                two_qubit,
                measurement,
                idle,
            },
        })
    }

    /// Serializes the outcome as one whitespace-separated record line
    /// of its ten [`counters`](Self::counters) (the sweep-checkpoint
    /// format; see [`from_record`](Self::from_record)).
    #[must_use]
    pub fn to_record(&self) -> String {
        self.counters().map(|c| c.to_string()).join(" ")
    }

    /// Parses a record line produced by [`to_record`](Self::to_record).
    /// Returns `None` on any malformed field (a truncated checkpoint line
    /// must never crash a resuming sweep).
    #[must_use]
    pub fn from_record(line: &str) -> Option<Self> {
        Self::from_counters(&parse_counters(line)?)
    }
}

/// The field-wise sum: the ten counters of a batch of runs add up.
impl AddAssign for LerOutcome {
    fn add_assign(&mut self, other: Self) {
        let mut sum = self.counters();
        for (total, c) in sum.iter_mut().zip(other.counters()) {
            *total += c;
        }
        *self = Self::from_counters(&sum).expect("ten counters");
    }
}

/// Parses a whitespace-separated line of counters; `None` on any
/// malformed field.
fn parse_counters(line: &str) -> Option<Vec<u64>> {
    line.split_whitespace().map(|f| f.parse().ok()).collect()
}

/// Runs one LER experiment per Listing 5.7 on the Fig 5.8 stack.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProbability`] when `physical_error_rate`
/// is outside `[0, 1]`, and propagates stack errors (none are expected
/// for valid configurations).
pub fn run_ler(config: &LerConfig) -> Result<LerOutcome, CoreError> {
    run_ler_on::<StabilizerSim>(config, &|| false).map(|(outcome, _)| outcome)
}

/// Runs the identical LER experiment on the cell-per-entry
/// [`ReferenceTableau`] engine instead of the packed production engine.
///
/// Both engines draw from the stack RNG in the same order, so for any
/// `config` this must return an outcome whose
/// [`to_record`](LerOutcome::to_record) string is byte-identical to
/// [`run_ler`]'s — the full-stack leg of the differential test oracle
/// (`tests/engine_equivalence.rs`).
///
/// # Errors
///
/// Same contract as [`run_ler`].
#[cfg(feature = "reference")]
pub fn run_ler_reference(config: &LerConfig) -> Result<LerOutcome, CoreError> {
    run_ler_on::<ReferenceTableau>(config, &|| false).map(|(outcome, _)| outcome)
}

/// The controlled LER driver: the experiment of [`run_ler`] on the
/// stabilizer engine `T`, with a cooperative cancellation poll
/// consulted once before every window, so a deadline watcher (e.g. the
/// shot service's `CancelToken`) can stop a long run promptly.
///
/// Returns the outcome accumulated so far plus whether the window loop
/// stopped on `cancelled`. A stopped outcome's window count depends on
/// *when* the cancellation landed, so callers must treat it as an
/// anytime estimate, never as the record of the configured experiment
/// — the serving layer turns it into a typed `Partial` result.
///
/// # Errors
///
/// Same contract as [`run_ler`]; cancellation is not an error.
pub fn run_ler_on<T: CliffordTableau>(
    config: &LerConfig,
    cancelled: &dyn Fn() -> bool,
) -> Result<(LerOutcome, bool), CoreError> {
    let frame: Option<PauliFrameLayer> = config.with_pauli_frame.then(PauliFrameLayer::new);
    run_ler_stack::<T>(config, frame, cancelled).map(|(outcome, _, stopped)| (outcome, stopped))
}

/// Classical-fault configuration for [`run_ler_classical`]: the fault
/// rates driving the injection plan, the frame-protection mode under
/// test, and a seed for the plan's own RNG stream (kept separate from
/// the quantum-noise stream so zero-rate runs are bit-identical to
/// fault-free ones).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassicalFaultConfig {
    /// Rates of the injected classical faults.
    pub rates: FaultRates,
    /// How the frame layer defends itself.
    pub protection: FrameProtectionConfig,
    /// Seed of the fault plan's dedicated RNG.
    pub fault_seed: u64,
}

impl ClassicalFaultConfig {
    /// Frame-record bit flips at `rate` against the given protection.
    #[must_use]
    pub fn frame_flips(rate: f64, protection: FrameProtectionConfig, fault_seed: u64) -> Self {
        ClassicalFaultConfig {
            rates: FaultRates::frame_only(rate),
            protection,
            fault_seed,
        }
    }
}

/// The result of one classical-fault LER run: the ordinary LER outcome
/// plus the protection state machine's counters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassicalLerOutcome {
    /// The quantum-side outcome (windows, logical errors, savings).
    pub ler: LerOutcome,
    /// The frame-protection counters (injected/detected/recovered/…).
    pub protection: FrameProtectionStats,
    /// Classical-fault events reported by the layer during the run.
    pub fault_events: u64,
}

impl ClassicalLerOutcome {
    /// Serializes the outcome as one whitespace-separated record line
    /// (the sweep-checkpoint format): the [`LerOutcome`] record followed
    /// by the eight protection counters and the fault-event count.
    #[must_use]
    pub fn to_record(&self) -> String {
        let p = &self.protection;
        format!(
            "{} {} {} {} {} {} {} {} {} {}",
            self.ler.to_record(),
            p.injected,
            p.detected,
            p.recovered,
            p.missed,
            p.scrubs,
            p.checkpoints,
            p.rollbacks,
            p.degraded_flushes,
            self.fault_events,
        )
    }

    /// Parses a record line produced by [`to_record`](Self::to_record).
    /// Returns `None` on any malformed field.
    #[must_use]
    pub fn from_record(line: &str) -> Option<Self> {
        let fields = parse_counters(line)?;
        let (ler, tail) = fields.split_at_checked(10)?;
        let [injected, detected, recovered, missed, scrubs, checkpoints, rollbacks, degraded_flushes, fault_events] =
            *tail
        else {
            return None;
        };
        Some(ClassicalLerOutcome {
            ler: LerOutcome::from_counters(ler)?,
            protection: FrameProtectionStats {
                injected,
                detected,
                recovered,
                missed,
                scrubs,
                checkpoints,
                rollbacks,
                degraded_flushes,
            },
            fault_events,
        })
    }
}

/// The outcome of one cross-backend redundancy check (see
/// [`run_cross_backend_check`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrossCheckOutcome {
    /// ESM windows executed on each back-end.
    pub windows: u64,
    /// Whether the two back-ends agreed on every compared quantity.
    pub agreed: bool,
    /// Description of the first disagreement (empty when `agreed`).
    pub detail: String,
}

impl CrossCheckOutcome {
    /// Converts a disagreement into the supervisor's first-class
    /// [`ShotError::Divergence`] outcome; agreement maps to `Ok`.
    ///
    /// # Errors
    ///
    /// Returns [`ShotError::Divergence`] when the back-ends disagreed.
    pub fn into_result(self) -> Result<(), ShotError> {
        if self.agreed {
            Ok(())
        } else {
            Err(ShotError::Divergence {
                detail: self.detail,
            })
        }
    }
}

/// Cross-backend redundancy oracle: runs the same Clifford-only,
/// fault-free ESM workload — initialization to `|0⟩_L` followed by
/// `windows` error-correction windows — on both the stabilizer (CHP) and
/// the state-vector back-end, and compares:
///
/// - every per-window [`WindowReport`](crate::WindowReport) (confirmed
///   detection events, corrections issued),
/// - the observable-error gate after the final window,
/// - the final quantum state, by checking that every canonical
///   stabilizer generator of the CHP tableau holds with expectation `+1`
///   on the state vector.
///
/// The two simulators share no code beyond the Pauli algebra, so
/// agreement here is the platform's end-to-end correctness oracle for
/// the tracking logic (in the spirit of Paler & Devitt's software Pauli
/// tracking validation). The supervised execution engine samples batches
/// of a sweep through this check and votes: divergence is reported as a
/// first-class supervisor outcome rather than a panic.
///
/// # Errors
///
/// Returns [`ShotError::Core`] for stack-level failures; disagreement is
/// reported in the outcome, not as an error.
pub fn run_cross_backend_check(seed: u64, windows: u64) -> Result<CrossCheckOutcome, ShotError> {
    let mut chp = ControlStack::with_seed(ChpCore::new(), seed);
    chp.create_qubits(17).map_err(ShotError::Core)?;
    let mut chp_star = NinjaStar::new(StarLayout::standard(0));
    chp_star.initialize_zero(&mut chp)?;

    let mut sv = ControlStack::with_seed(SvCore::new(), seed);
    sv.create_qubits(17).map_err(ShotError::Core)?;
    let mut sv_star = NinjaStar::new(StarLayout::standard(0));
    sv_star.initialize_zero(&mut sv)?;

    let disagree = |detail: String| CrossCheckOutcome {
        windows,
        agreed: false,
        detail,
    };

    for w in 0..windows {
        let a = chp_star.run_window(&mut chp)?;
        let b = sv_star.run_window(&mut sv)?;
        if a != b {
            return Ok(disagree(format!(
                "window {w}: chp {a:?} vs statevector {b:?}"
            )));
        }
    }
    let chp_err = chp_star.has_observable_error(&mut chp)?;
    let sv_err = sv_star.has_observable_error(&mut sv)?;
    if chp_err != sv_err {
        return Ok(disagree(format!(
            "observable-error gate: chp {chp_err} vs statevector {sv_err}"
        )));
    }

    let stabilizers = chp
        .core()
        .simulator()
        .ok_or(ShotError::Core(CoreError::NoQubits))?
        .canonical_stabilizers();
    let sv_sim = sv
        .core()
        .simulator()
        .ok_or(ShotError::Core(CoreError::NoQubits))?;
    for s in &stabilizers {
        let e = sv_sim.pauli_expectation(s);
        if !e.approx_eq(Complex::ONE, 1e-6) {
            return Ok(disagree(format!(
                "stabilizer {s}: statevector expectation {e} (want +1)"
            )));
        }
    }
    Ok(CrossCheckOutcome {
        windows,
        agreed: true,
        detail: String::new(),
    })
}

/// Runs the LER experiment with a [`ProtectedPauliFrameLayer`] in place
/// of the plain frame layer, injecting classical faults from
/// `classical.rates`. `config.with_pauli_frame` is ignored — the frame
/// layer is always present; its *protection* is what varies.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProbability`] for out-of-range rates and
/// propagates stack errors.
pub fn run_ler_classical(
    config: &LerConfig,
    classical: &ClassicalFaultConfig,
) -> Result<ClassicalLerOutcome, CoreError> {
    classical.rates.validate()?;
    let mut frame = ProtectedPauliFrameLayer::with_config(classical.protection);
    frame.set_fault_plan(FaultPlan::new(classical.rates, classical.fault_seed)?);
    let (ler, protection, _) = run_ler_stack::<StabilizerSim>(config, Some(frame), &|| false)?;
    let (protection, fault_events) = protection.unwrap_or_default();
    Ok(ClassicalLerOutcome {
        ler,
        protection,
        fault_events,
    })
}

/// The shared experiment body. Returns the LER outcome plus, when the
/// stack carried a protected frame layer, its protection counters and
/// drained fault-event count, plus whether the window loop stopped on
/// the cooperative cancellation check (consulted once per window).
#[allow(clippy::type_complexity)]
fn run_ler_stack<T: CliffordTableau>(
    config: &LerConfig,
    frame: Option<impl qpdo_core::Layer>,
    cancelled: &dyn Fn() -> bool,
) -> Result<(LerOutcome, Option<(FrameProtectionStats, u64)>, bool), CoreError> {
    let below = CounterLayer::new();
    let below_counts = below.counters();
    let above = CounterLayer::new();
    let above_counts = above.counters();

    let mut stack = ControlStack::with_seed(ChpCore::<T>::empty(), config.seed);
    stack.push_layer(below);
    if let Some(frame) = frame {
        stack.push_layer(frame);
    }
    stack.push_layer(above);
    stack.set_error_model(DepolarizingModel::try_new(config.physical_error_rate)?);
    stack.create_qubits(17)?;

    let mut star = NinjaStar::new(StarLayout::standard(0));
    match config.kind {
        LogicalErrorKind::XL => star.initialize_zero(&mut stack)?,
        LogicalErrorKind::ZL => star.initialize_plus(&mut stack)?,
    }
    // Initialization runs in bypass mode but frame-filtered gauge fixes
    // may have registered on the counters' bypass-exempt paths; reset so
    // the statistics cover exactly the counted windows.
    above_counts.reset();
    below_counts.reset();

    let mut reference = logical_value(&mut stack, &star, config.kind)
        .expect("freshly initialized state has a deterministic logical value");
    let mut windows = 0u64;
    let mut logical_errors = 0u64;
    let mut stopped = false;

    while logical_errors < config.target_logical_errors && windows < config.max_windows {
        if cancelled() {
            stopped = true;
            break;
        }
        star.run_window(&mut stack)?;
        windows += 1;
        if !star.has_observable_error(&mut stack)? {
            if let Some(value) = logical_value(&mut stack, &star, config.kind) {
                if value != reference {
                    logical_errors += 1;
                    reference = value;
                }
            }
        }
    }

    let protection = stack
        .find_layer_mut::<ProtectedPauliFrameLayer>()
        .map(|pf| (pf.protection_stats(), pf.drain_fault_events().len() as u64));

    Ok((
        LerOutcome {
            windows,
            logical_errors,
            ops_above_frame: above_counts.operations(),
            slots_above_frame: above_counts.time_slots(),
            ops_below_frame: below_counts.operations(),
            slots_below_frame: below_counts.time_slots(),
            injected: stack.error_counts().expect("error model installed"),
        },
        protection,
        stopped,
    ))
}

/// The current logical value seen through the Pauli frame: the physical
/// expectation of the logical-state stabilizer (Table 2.2), corrected by
/// the tracked records on its support.
///
/// Returns `None` when the observable is not deterministic (an
/// uncorrected error chain crosses it) — such windows are skipped, which
/// the observable-error gate in the caller already guarantees.
fn logical_value<T: CliffordTableau>(
    stack: &mut ControlStack<ChpCore<T>>,
    star: &NinjaStar,
    kind: LogicalErrorKind,
) -> Option<bool> {
    let n = stack.num_qubits();
    let (support, pauli) = match kind {
        LogicalErrorKind::XL => (star.logical_z_qubits(), Pauli::Z),
        LogicalErrorKind::ZL => (star.logical_x_qubits(), Pauli::X),
    };
    let mut observable = PauliString::identity(n);
    for &q in &support {
        observable.set_op(q, pauli);
    }
    // The frame adjustment: tracked X components flip Z-type readouts,
    // tracked Z components flip X-type readouts.
    let mut flip = false;
    let records: Option<Vec<_>> = if let Some(pf) = stack.find_layer::<PauliFrameLayer>() {
        Some(support.iter().map(|&q| pf.record(q)).collect())
    } else {
        stack
            .find_layer::<ProtectedPauliFrameLayer>()
            .map(|pf| support.iter().map(|&q| pf.record(q)).collect())
    };
    if let Some(records) = records {
        for record in records {
            let (x, z) = record.bits();
            flip ^= match pauli {
                Pauli::Z => x,
                Pauli::X => z,
                _ => unreachable!("logical observables are X- or Z-type"),
            };
        }
    }
    let physical = stack
        .core_mut()
        .simulator_mut()
        .expect("qubits allocated")
        .expectation(&observable)?;
    Some(physical ^ flip)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(p: f64, with_pf: bool, kind: LogicalErrorKind, seed: u64) -> LerConfig {
        LerConfig {
            physical_error_rate: p,
            kind,
            with_pauli_frame: with_pf,
            target_logical_errors: 4,
            max_windows: 3000,
            seed,
        }
    }

    #[test]
    fn zero_noise_never_errs() {
        for with_pf in [false, true] {
            let mut config = quick(0.0, with_pf, LogicalErrorKind::XL, 1);
            config.max_windows = 50;
            let outcome = run_ler(&config).unwrap();
            assert_eq!(outcome.windows, 50);
            assert_eq!(outcome.logical_errors, 0);
            assert_eq!(outcome.ler(), 0.0);
            assert_eq!(outcome.injected.total(), 0);
        }
    }

    #[test]
    fn high_noise_produces_logical_errors() {
        for kind in [LogicalErrorKind::XL, LogicalErrorKind::ZL] {
            let outcome = run_ler(&quick(0.02, false, kind, 2)).unwrap();
            assert!(outcome.logical_errors > 0, "{kind:?}: no logical errors");
            assert!(outcome.ler() > 0.0);
            assert!(outcome.injected.total() > 0);
        }
    }

    #[test]
    fn frame_filters_corrections_only() {
        let with_pf = run_ler(&quick(0.02, true, LogicalErrorKind::XL, 3)).unwrap();
        // Something was filtered...
        assert!(with_pf.ops_below_frame < with_pf.ops_above_frame);
        assert!(with_pf.saved_operations() > 0.0);
        // ...but bounded by the correction-slot budget (1 of 17 slots,
        // Section 5.3.2).
        assert!(with_pf.saved_time_slots() <= 1.0 / 17.0 + 1e-9);

        let without = run_ler(&quick(0.02, false, LogicalErrorKind::XL, 3)).unwrap();
        assert_eq!(without.ops_above_frame, without.ops_below_frame);
        assert_eq!(without.saved_operations(), 0.0);
    }

    #[test]
    fn ler_comparable_with_and_without_frame() {
        // Not a statistical claim at this scale — just that both stacks
        // complete and produce sane rates.
        let a = run_ler(&quick(0.01, false, LogicalErrorKind::XL, 4)).unwrap();
        let b = run_ler(&quick(0.01, true, LogicalErrorKind::XL, 4)).unwrap();
        for outcome in [a, b] {
            assert!(outcome.windows > 0);
            assert!(outcome.ler() <= 1.0);
        }
    }

    #[test]
    fn window_cap_respected() {
        let mut config = quick(1e-4, false, LogicalErrorKind::XL, 5);
        config.max_windows = 40;
        let outcome = run_ler(&config).unwrap();
        assert!(outcome.windows <= 40);
    }

    #[test]
    fn controlled_run_matches_plain_run_when_never_cancelled() {
        let config = quick(0.01, true, LogicalErrorKind::XL, 12);
        let plain = run_ler(&config).unwrap();
        let controlled = run_ler_on::<StabilizerSim>(&config, &|| false).unwrap();
        assert_eq!((plain, false), controlled);
    }

    #[test]
    fn cancellation_stops_the_window_loop() {
        let config = quick(0.01, true, LogicalErrorKind::XL, 13);
        let (outcome, stopped) = run_ler_on::<StabilizerSim>(&config, &|| true).unwrap();
        assert!(stopped);
        assert_eq!(outcome.windows, 0);

        // Mid-run: cancel once three windows have been admitted.
        let windows = std::cell::Cell::new(0u64);
        let (outcome, stopped) = run_ler_on::<StabilizerSim>(&config, &|| {
            windows.set(windows.get() + 1);
            windows.get() > 3
        })
        .unwrap();
        assert!(stopped);
        assert_eq!(outcome.windows, 3);
    }

    #[test]
    fn paper_default_stopping_rule() {
        let config = LerConfig::paper_default(0.001, LogicalErrorKind::XL, true, 6);
        assert_eq!(config.target_logical_errors, 50);
        assert!(config.with_pauli_frame);
    }

    #[test]
    fn invalid_rate_is_an_error_not_a_panic() {
        let config = quick(1.5, false, LogicalErrorKind::XL, 7);
        let err = run_ler(&config).unwrap_err();
        assert!(matches!(err, CoreError::InvalidProbability { .. }));
    }

    #[test]
    fn outcome_record_round_trips() {
        let outcome = LerOutcome {
            windows: 12345,
            logical_errors: 42,
            ops_above_frame: 999,
            slots_above_frame: 888,
            ops_below_frame: 777,
            slots_below_frame: 666,
            injected: ErrorCounts {
                single_qubit: 1,
                two_qubit: 2,
                measurement: 3,
                idle: 4,
            },
        };
        let line = outcome.to_record();
        assert_eq!(LerOutcome::from_record(&line), Some(outcome));
        // Malformed lines never parse.
        assert_eq!(LerOutcome::from_record(""), None);
        assert_eq!(LerOutcome::from_record("1 2 3"), None);
        assert_eq!(LerOutcome::from_record("1 2 3 4 5 6 7 8 9 x"), None);
        assert_eq!(LerOutcome::from_record("1 2 3 4 5 6 7 8 9 10 11"), None);
    }

    #[test]
    fn zero_fault_protected_run_matches_plain_frame_run() {
        let config = quick(0.008, true, LogicalErrorKind::XL, 8);
        let plain = run_ler(&config).unwrap();
        let classical =
            ClassicalFaultConfig::frame_flips(0.0, FrameProtectionConfig::protected(), 1);
        let protected = run_ler_classical(&config, &classical).unwrap();
        // Bit-identical: same windows, errors, counters, injections.
        assert_eq!(protected.ler, plain);
        assert_eq!(protected.protection.injected, 0);
        assert_eq!(protected.fault_events, 0);
    }

    #[test]
    fn zero_fault_unprotected_run_also_matches() {
        let config = quick(0.008, true, LogicalErrorKind::ZL, 9);
        let plain = run_ler(&config).unwrap();
        let classical =
            ClassicalFaultConfig::frame_flips(0.0, FrameProtectionConfig::unprotected(), 1);
        let unprotected = run_ler_classical(&config, &classical).unwrap();
        assert_eq!(unprotected.ler, plain);
    }

    #[test]
    fn frame_faults_hurt_unprotected_more() {
        let config = quick(0.002, true, LogicalErrorKind::XL, 10);
        let rate = 5e-3;
        let unprotected = run_ler_classical(
            &config,
            &ClassicalFaultConfig::frame_flips(rate, FrameProtectionConfig::unprotected(), 2),
        )
        .unwrap();
        let protected = run_ler_classical(
            &config,
            &ClassicalFaultConfig::frame_flips(rate, FrameProtectionConfig::protected(), 2),
        )
        .unwrap();
        assert!(unprotected.protection.injected > 0);
        assert!(protected.protection.injected > 0);
        assert!(
            protected.protection.recovery_fraction() >= 0.9,
            "recovered {}/{}",
            protected.protection.recovered,
            protected.protection.injected
        );
        assert!(
            unprotected.ler.ler() > protected.ler.ler(),
            "unprotected {} vs protected {}",
            unprotected.ler.ler(),
            protected.ler.ler()
        );
    }

    #[test]
    fn invalid_fault_rates_rejected() {
        let config = quick(0.002, true, LogicalErrorKind::XL, 11);
        let classical =
            ClassicalFaultConfig::frame_flips(1.5, FrameProtectionConfig::protected(), 0);
        assert!(run_ler_classical(&config, &classical).is_err());
    }

    #[test]
    fn classical_outcome_record_round_trips() {
        let outcome = ClassicalLerOutcome {
            ler: LerOutcome {
                windows: 100,
                logical_errors: 3,
                ops_above_frame: 50,
                slots_above_frame: 40,
                ops_below_frame: 30,
                slots_below_frame: 20,
                injected: ErrorCounts {
                    single_qubit: 4,
                    two_qubit: 5,
                    measurement: 6,
                    idle: 7,
                },
            },
            protection: FrameProtectionStats {
                injected: 11,
                detected: 10,
                recovered: 9,
                missed: 1,
                scrubs: 8,
                checkpoints: 7,
                rollbacks: 2,
                degraded_flushes: 0,
            },
            fault_events: 11,
        };
        let line = outcome.to_record();
        assert_eq!(ClassicalLerOutcome::from_record(&line), Some(outcome));
        assert_eq!(ClassicalLerOutcome::from_record(""), None);
        assert_eq!(ClassicalLerOutcome::from_record("1 2 3"), None);
        // Right width, bad field.
        let mut fields: Vec<String> = line.split_whitespace().map(String::from).collect();
        fields[18] = "x".to_string();
        assert_eq!(ClassicalLerOutcome::from_record(&fields.join(" ")), None);
    }

    #[test]
    fn cross_backend_check_agrees_on_fault_free_windows() {
        for seed in [0, 1] {
            let outcome = run_cross_backend_check(seed, 3).unwrap();
            assert_eq!(outcome.windows, 3);
            assert!(outcome.agreed, "divergence: {}", outcome.detail);
            assert!(outcome.detail.is_empty());
            assert!(outcome.into_result().is_ok());
        }
    }

    #[test]
    fn cross_check_disagreement_becomes_divergence_error() {
        let outcome = CrossCheckOutcome {
            windows: 2,
            agreed: false,
            detail: "window 0: mismatch".to_string(),
        };
        let err = outcome.into_result().unwrap_err();
        assert!(matches!(err, ShotError::Divergence { .. }));
        assert!(err.to_string().contains("window 0"));
    }
}
