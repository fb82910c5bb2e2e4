//! The fault-tolerant Pauli-frame layer.
//!
//! [`ProtectedPauliFrameLayer`] holds a plain
//! [`PauliFrameLayer`](crate::PauliFrameLayer) and tracks through it, so
//! its Table 3.1 decisions, flush slots, measurement mapping and
//! counters are the plain layer's by construction. Around that tracker it
//! keeps only what protection adds: a parity bit per record, scrubbing,
//! fault injection from a [`FaultPlan`], a checkpoint with a journal of
//! the operations that changed the frame since (rollback replays them
//! through [`update_frame`] on the checkpoint), and degradation to a
//! flush when a fault cannot be recovered.

use std::any::Any;

use qpdo_circuit::{Circuit, Gate, Operation, TimeSlot};
use qpdo_pauli::{PauliFrame, PauliRecord};

use crate::arch::{update_frame, FrameFlow};
use crate::fault::{ClassicalFaultKind, FaultPlan, FrameBit};
use crate::{CoreError, Layer, LayerContext, PauliFrameLayer};

/// Protection configuration for a [`ProtectedPauliFrameLayer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameProtectionConfig {
    /// Store a parity bit (x ⊕ z) per record and scrub against it.
    pub parity: bool,
    /// Checkpoint the frame at every circuit (ESM-round) boundary and
    /// roll back + replay the journal when a scrub detects corruption.
    /// Without this, a detected fault is unrecoverable and degrades to a
    /// flush of the whole frame as physical Pauli gates.
    pub checkpoint: bool,
    /// Scrub every this many time slots (`0` = only at circuit
    /// boundaries).
    pub scrub_interval_slots: u64,
}

impl FrameProtectionConfig {
    /// Full protection: parity + per-slot scrubbing + checkpoint/rollback.
    #[must_use]
    pub fn protected() -> Self {
        FrameProtectionConfig {
            parity: true,
            checkpoint: true,
            scrub_interval_slots: 1,
        }
    }

    /// No protection at all: faults corrupt the frame silently. This is
    /// the comparison baseline for the classical-fault experiments — the
    /// tracking semantics are identical to the protected mode.
    #[must_use]
    pub fn unprotected() -> Self {
        FrameProtectionConfig {
            parity: false,
            checkpoint: false,
            scrub_interval_slots: 0,
        }
    }

    /// Detection without recovery: parity scrubbing, but no checkpoint.
    /// Detected faults degrade to a flush of the frame as gates.
    #[must_use]
    pub fn detect_only() -> Self {
        FrameProtectionConfig {
            parity: true,
            checkpoint: false,
            scrub_interval_slots: 1,
        }
    }
}

impl Default for FrameProtectionConfig {
    fn default() -> Self {
        FrameProtectionConfig::protected()
    }
}

/// Counters of the protection state machine of a
/// [`ProtectedPauliFrameLayer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameProtectionStats {
    /// Faults injected into the stored frame by the fault plan.
    pub injected: u64,
    /// Records whose parity mismatched during a scrub.
    pub detected: u64,
    /// Injected faults undone by a checkpoint rollback.
    pub recovered: u64,
    /// Injected faults that escaped recovery (silent even-weight
    /// corruption, or no checkpoint to roll back to).
    pub missed: u64,
    /// Scrub passes executed.
    pub scrubs: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Rollback + journal replays performed.
    pub rollbacks: u64,
    /// Unrecoverable events degraded to a flush of the frame as gates.
    pub degraded_flushes: u64,
}

impl FrameProtectionStats {
    /// The fraction of injected faults that were recovered. `1.0` when
    /// nothing was injected.
    #[must_use]
    pub fn recovery_fraction(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.recovered as f64 / self.injected as f64
        }
    }
}

fn record_parity(r: PauliRecord) -> bool {
    let (x, z) = r.bits();
    x ^ z
}

/// A fault-tolerant variant of
/// [`PauliFrameLayer`](crate::PauliFrameLayer): identical Table 3.1
/// tracking semantics, plus
///
/// - an optional [`FaultPlan`] injecting bit flips into the stored
///   records at every time slot,
/// - a parity bit per record and periodic **scrubbing** that detects
///   single-bit corruption,
/// - a **checkpoint** of the frame at every circuit (ESM-round) boundary
///   with a journal of the operations that changed the frame since, so a
///   detected corruption rolls back and replays instead of persisting,
/// - graceful **degradation**: an unrecoverable fault flushes the frame
///   as physical Pauli gates (the paper's flush semantics, Table 3.5)
///   instead of panicking, and is reported through
///   [`CoreError::ClassicalFault`] events drained with
///   [`drain_fault_events`](ProtectedPauliFrameLayer::drain_fault_events).
///
/// Under a zero-fault plan (or no plan) the layer is bit-identical to
/// `PauliFrameLayer`: same output circuits, same measurement mappings,
/// same saved-gate counters. The fault plan owns its own RNG stream, so
/// fault sampling never perturbs the stack's quantum-noise stream.
#[derive(Debug, Default)]
pub struct ProtectedPauliFrameLayer {
    /// The tracker: frame, pending measurement flips, saved-gate counters.
    inner: PauliFrameLayer,
    /// Stored parity bit per record (x ⊕ z at last legitimate update).
    parity: Vec<bool>,
    config: FrameProtectionConfig,
    plan: Option<FaultPlan>,
    checkpoint: PauliFrame,
    /// The operations that changed the frame since `checkpoint`, in order.
    journal: Vec<Operation>,
    slots_since_scrub: u64,
    /// Injected faults not yet reconciled as recovered or missed.
    outstanding: u64,
    stats: FrameProtectionStats,
    events: Vec<CoreError>,
}

impl ProtectedPauliFrameLayer {
    /// A fully protected layer (parity + scrub + checkpoint), no faults.
    #[must_use]
    pub fn new() -> Self {
        ProtectedPauliFrameLayer::default()
    }

    /// A layer with the given protection configuration.
    #[must_use]
    pub fn with_config(config: FrameProtectionConfig) -> Self {
        ProtectedPauliFrameLayer {
            config,
            ..ProtectedPauliFrameLayer::default()
        }
    }

    /// Installs (or replaces) the fault plan driving injection.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.plan = Some(plan);
        self
    }

    /// The protection configuration.
    #[must_use]
    pub fn config(&self) -> FrameProtectionConfig {
        self.config
    }

    /// The current Pauli frame (for inspection and reporting).
    #[must_use]
    pub fn frame(&self) -> &PauliFrame {
        self.inner.frame()
    }

    /// The record currently tracked for qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn record(&self, q: usize) -> PauliRecord {
        self.inner.record(q)
    }

    /// Pauli gates absorbed into the frame instead of being executed.
    #[must_use]
    pub fn filtered_gates(&self) -> u64 {
        self.inner.filtered_gates()
    }

    /// Time slots removed because every operation in them was absorbed.
    #[must_use]
    pub fn filtered_slots(&self) -> u64 {
        self.inner.filtered_slots()
    }

    /// Pauli gates emitted to flush records ahead of non-Clifford gates.
    #[must_use]
    pub fn flush_gates_emitted(&self) -> u64 {
        self.inner.flush_gates_emitted()
    }

    /// The protection state-machine counters.
    #[must_use]
    pub fn protection_stats(&self) -> FrameProtectionStats {
        self.stats
    }

    /// Faults injected by the plan so far (zero without a plan).
    #[must_use]
    pub fn injected_faults(&self) -> u64 {
        self.stats.injected
    }

    /// Drains the accumulated [`CoreError::ClassicalFault`] events. The
    /// [`Layer`] interface has no error path, so detection events queue
    /// here instead of aborting execution.
    pub fn drain_fault_events(&mut self) -> Vec<CoreError> {
        std::mem::take(&mut self.events)
    }

    /// Tracks one operation through the plain layer and returns whether
    /// it is forwarded; flush slots go onto `before`. An operation that
    /// changed records refreshes their parity from what it left behind
    /// (masking any fault stored in them) and is journaled; `I` and
    /// measurements change nothing and leave parity alone.
    fn track(&mut self, op: &Operation, before: &mut Vec<TimeSlot>) -> bool {
        let flow = self.inner.track(op, before);
        if flow != FrameFlow::Measure && op.as_gate() != Some(Gate::I) {
            for &q in op.qubits() {
                self.parity[q] = record_parity(self.inner.frame.record(q));
            }
            if self.config.checkpoint {
                self.journal.push(op.clone());
            }
        }
        flow != FrameFlow::Absorbed
    }

    /// Bookkeeping after the whole frame was flushed: every record is now
    /// `I`, so every parity bit is clear, and the checkpoint moves to the
    /// all-`I` frame any replay would reach from here.
    fn flushed_all(&mut self) {
        self.parity.fill(false);
        if self.config.checkpoint {
            self.checkpoint.reset_all();
            self.journal.clear();
        }
    }

    /// Injects this slot's frame faults from the plan (never in bypass).
    fn inject_slot_faults(&mut self) {
        let Some(plan) = self.plan.as_mut() else {
            return;
        };
        let frame = &mut self.inner.frame;
        for q in 0..frame.len() {
            let Some(mut bit) = plan.sample_frame_bit_flip() else {
                continue;
            };
            // An unprotected frame stores no parity bit: remap so every
            // injected fault hits a real stored bit there.
            if !self.config.parity && bit == FrameBit::Parity {
                bit = FrameBit::X;
            }
            self.stats.injected += 1;
            self.outstanding += 1;
            match bit {
                FrameBit::X => {
                    let (x, z) = frame.record(q).bits();
                    frame.set_record(q, PauliRecord::from_bits(!x, z));
                }
                FrameBit::Z => {
                    let (x, z) = frame.record(q).bits();
                    frame.set_record(q, PauliRecord::from_bits(x, !z));
                }
                FrameBit::Parity => self.parity[q] = !self.parity[q],
            }
        }
    }

    /// Scrubs the frame against the stored parity bits. Returns the
    /// degradation slots to execute when corruption was detected but no
    /// checkpoint exists to roll back to (empty otherwise).
    fn scrub(&mut self) -> Vec<TimeSlot> {
        if !self.config.parity {
            return Vec::new();
        }
        self.stats.scrubs += 1;
        let frame = &self.inner.frame;
        let corrupt: Vec<usize> = (0..frame.len())
            .filter(|&q| record_parity(frame.record(q)) != self.parity[q])
            .collect();
        if corrupt.is_empty() {
            return Vec::new();
        }
        self.stats.detected += corrupt.len() as u64;
        for &q in &corrupt {
            self.events.push(CoreError::ClassicalFault {
                kind: ClassicalFaultKind::FrameBitFlip,
                qubit: Some(q),
            });
        }
        if self.config.checkpoint {
            self.rollback();
            Vec::new()
        } else {
            self.degrade()
        }
    }

    /// Restores the checkpoint and replays the journal through the same
    /// update the layer tracks with, flushing a non-Clifford gate's
    /// qubits (their gates already executed): the frame is exactly what
    /// legitimate tracking would have produced, undoing every fault
    /// injected since the checkpoint (detected or not).
    fn rollback(&mut self) {
        self.stats.rollbacks += 1;
        let frame = &mut self.inner.frame;
        frame.clone_from(&self.checkpoint);
        for op in &self.journal {
            if update_frame(frame, op) == FrameFlow::NonClifford {
                for &q in op.qubits() {
                    frame.reset(q);
                }
            }
        }
        for (q, p) in self.parity.iter_mut().enumerate() {
            *p = record_parity(frame.record(q));
        }
        self.stats.recovered += self.outstanding;
        self.outstanding = 0;
    }

    /// Unrecoverable degradation: flush the whole (best-effort) frame as
    /// physical Pauli gates so execution continues from a clean, known
    /// frame state instead of panicking.
    fn degrade(&mut self) -> Vec<TimeSlot> {
        self.stats.degraded_flushes += 1;
        self.stats.missed += self.outstanding;
        self.outstanding = 0;
        let gates = self.inner.frame.flush_all();
        let mut slots = Vec::new();
        self.inner.flush_slots(gates, &mut slots);
        self.flushed_all();
        slots
    }

    /// Circuit (ESM-round) boundary: scrub, reconcile, checkpoint.
    fn begin_round(&mut self) -> Vec<TimeSlot> {
        let degradation = self.scrub();
        // Faults still outstanding after the scrub were silent (an even
        // number of flips per record): once the checkpoint re-snapshots
        // they are baked in for good.
        self.stats.missed += self.outstanding;
        self.outstanding = 0;
        if self.config.checkpoint {
            self.checkpoint = self.inner.frame.clone();
            self.journal.clear();
            self.stats.checkpoints += 1;
        }
        self.slots_since_scrub = 0;
        degradation
    }

    /// End-of-slot bookkeeping: periodic scrub per the configured
    /// interval. Returns degradation slots, if any.
    fn end_slot(&mut self) -> Vec<TimeSlot> {
        if self.config.scrub_interval_slots == 0 {
            return Vec::new();
        }
        self.slots_since_scrub += 1;
        if self.slots_since_scrub >= self.config.scrub_interval_slots {
            self.slots_since_scrub = 0;
            self.scrub()
        } else {
            Vec::new()
        }
    }
}

impl Layer for ProtectedPauliFrameLayer {
    fn name(&self) -> &str {
        "protected-pauli-frame"
    }

    fn on_create_qubits(&mut self, n: usize) {
        self.inner.on_create_qubits(n);
        self.checkpoint.grow(n);
        self.parity.resize(self.parity.len() + n, false);
    }

    fn process_circuit(&mut self, circuit: Circuit, ctx: &mut LayerContext<'_>) -> Circuit {
        let mut out = Circuit::new();
        // Each circuit entering the layer is one ESM round (or a
        // diagnostic): checkpoint at its boundary.
        for pre in self.begin_round() {
            out.push_slot(pre);
        }
        for slot in circuit.slots() {
            let mut out_slot = TimeSlot::new();
            let mut pre_slots: Vec<TimeSlot> = Vec::new();
            for op in slot {
                if self.track(op, &mut pre_slots) {
                    out_slot.push(op.clone());
                }
            }
            for pre in pre_slots {
                out.push_slot(pre);
            }
            if out_slot.is_empty() {
                self.inner.filtered_slots += 1;
            } else {
                out.push_slot(out_slot);
            }
            // Faults strike the stored records *between* updates (storage
            // at rest); a legitimate update rewrites record and parity
            // together and would mask anything injected before it.
            // Diagnostic (bypass) circuits are the experimenter's
            // scaffolding, not the machine under test: no injection.
            if !ctx.bypass {
                self.inject_slot_faults();
            }
            for degradation in self.end_slot() {
                out.push_slot(degradation);
            }
        }
        out
    }

    fn process_measurement(&mut self, qubit: usize, raw: bool) -> bool {
        self.inner.process_measurement(qubit, raw)
    }

    fn drain_flush(&mut self) -> Option<Circuit> {
        let flush = self.inner.drain_flush();
        self.flushed_all();
        flush
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRates;
    use qpdo_rng::rngs::StdRng;
    use qpdo_rng::SeedableRng;

    fn process(layer: &mut ProtectedPauliFrameLayer, circuit: Circuit) -> Circuit {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = LayerContext {
            rng: &mut rng,
            bypass: false,
        };
        layer.process_circuit(circuit, &mut ctx)
    }

    fn layer(n: usize) -> ProtectedPauliFrameLayer {
        let mut layer = ProtectedPauliFrameLayer::new();
        layer.on_create_qubits(n);
        layer
    }

    fn faulty_layer(
        n: usize,
        config: FrameProtectionConfig,
        rate: f64,
    ) -> ProtectedPauliFrameLayer {
        let mut layer = ProtectedPauliFrameLayer::with_config(config);
        layer.set_fault_plan(FaultPlan::new(FaultRates::frame_only(rate), 99).unwrap());
        layer.on_create_qubits(n);
        layer
    }

    #[test]
    fn tracks_like_the_unprotected_layer() {
        let mut pf = layer(2);
        let mut c = Circuit::new();
        c.x(0).z(1).y(0);
        let out = process(&mut pf, c);
        assert_eq!(out.operation_count(), 0);
        assert_eq!(pf.record(0), PauliRecord::Z);
        assert_eq!(pf.record(1), PauliRecord::Z);
        assert_eq!(pf.filtered_gates(), 3);
    }

    #[test]
    fn clean_runs_detect_nothing() {
        let mut pf = layer(3);
        let mut c = Circuit::new();
        c.x(0).h(0).cnot(0, 1).t(2).measure(0);
        let _ = process(&mut pf, c);
        let stats = pf.protection_stats();
        assert_eq!(stats.injected, 0);
        assert_eq!(stats.detected, 0);
        assert_eq!(stats.rollbacks, 0);
        assert!(stats.scrubs > 0);
        assert!(stats.checkpoints > 0);
        assert!(pf.drain_fault_events().is_empty());
        assert_eq!(stats.recovery_fraction(), 1.0);
    }

    #[test]
    fn injected_flips_are_detected_and_rolled_back() {
        let mut pf = faulty_layer(4, FrameProtectionConfig::protected(), 1.0);
        let mut c = Circuit::new();
        c.x(0).h(1);
        let _ = process(&mut pf, c);
        let stats = pf.protection_stats();
        assert!(stats.injected > 0);
        assert!(stats.detected > 0);
        assert!(stats.rollbacks > 0);
        assert!(stats.recovered > 0);
        // After rollback + replay, the frame holds exactly the tracked X.
        assert_eq!(pf.record(0), PauliRecord::X);
        for q in 1..4 {
            assert_eq!(pf.record(q), PauliRecord::I);
        }
        assert!(!pf.drain_fault_events().is_empty());
    }

    #[test]
    fn unprotected_mode_corrupts_silently() {
        let mut pf = faulty_layer(4, FrameProtectionConfig::unprotected(), 1.0);
        let mut c = Circuit::new();
        c.h(0);
        let _ = process(&mut pf, c);
        let stats = pf.protection_stats();
        assert!(stats.injected > 0);
        assert_eq!(stats.detected, 0);
        assert_eq!(stats.recovered, 0);
        assert_eq!(stats.scrubs, 0);
        // With a per-record hit every slot, something is corrupted.
        assert!((0..4).any(|q| pf.record(q) != PauliRecord::I));
    }

    #[test]
    fn detect_only_mode_degrades_to_flush() {
        let mut pf = faulty_layer(2, FrameProtectionConfig::detect_only(), 1.0);
        let mut c = Circuit::new();
        c.h(0).h(1);
        let out = process(&mut pf, c);
        let stats = pf.protection_stats();
        assert!(stats.detected > 0);
        assert_eq!(stats.rollbacks, 0);
        assert!(stats.degraded_flushes > 0);
        // Degradation emitted the corrupted records as physical gates and
        // reset the frame to a clean, known state.
        assert!(out.operation_count() >= 2);
        let events = pf.drain_fault_events();
        assert!(events
            .iter()
            .all(|e| matches!(e, CoreError::ClassicalFault { .. })));
    }

    #[test]
    fn bypass_circuits_are_never_faulted() {
        let mut pf = faulty_layer(2, FrameProtectionConfig::protected(), 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = LayerContext {
            rng: &mut rng,
            bypass: true,
        };
        let mut c = Circuit::new();
        c.x(0).h(1);
        let _ = pf.process_circuit(c, &mut ctx);
        assert_eq!(pf.protection_stats().injected, 0);
        assert_eq!(pf.record(0), PauliRecord::X);
    }

    #[test]
    fn rollback_replays_flushes_too() {
        // A non-Clifford flush inside the journaled window must survive
        // a rollback: the flushed record stays I after replay.
        let mut pf = faulty_layer(1, FrameProtectionConfig::protected(), 0.0);
        let mut c = Circuit::new();
        c.x(0).t(0);
        let out = process(&mut pf, c);
        assert_eq!(out.operation_count(), 2); // flush X + T
        pf.stats.detected = 0;
        // Corrupt manually, then scrub: replay must land on I.
        pf.inner.frame.set_record(0, PauliRecord::Z);
        let degradation = pf.scrub();
        assert!(degradation.is_empty());
        assert_eq!(pf.record(0), PauliRecord::I);
    }

    #[test]
    fn rollback_after_drain_flush_keeps_the_flush() {
        // The flush emptied the frame after the checkpoint was taken: a
        // rollback must land on the flushed frame, not on the
        // checkpoint's records replayed without it.
        let mut pf = layer(1);
        let mut c = Circuit::new();
        c.x(0);
        let _ = process(&mut pf, c);
        assert_eq!(pf.drain_flush().unwrap().operation_count(), 1);
        pf.inner.frame.set_record(0, PauliRecord::Z);
        assert!(pf.scrub().is_empty());
        assert_eq!(pf.protection_stats().rollbacks, 1);
        assert_eq!(pf.record(0), PauliRecord::I);
    }

    #[test]
    fn measurement_mapping_matches_record_at_measure_time() {
        let mut pf = layer(1);
        let mut c = Circuit::new();
        c.x(0).measure(0).x(0);
        let _ = process(&mut pf, c);
        assert!(pf.process_measurement(0, false));
        assert_eq!(pf.record(0), PauliRecord::I);
    }

    #[test]
    fn drain_flush_returns_pending_gates() {
        let mut pf = layer(2);
        let mut c = Circuit::new();
        c.x(0).z(0).y(1);
        let _ = process(&mut pf, c);
        let flush = pf.drain_flush().unwrap();
        assert_eq!(flush.operation_count(), 4);
        assert!(pf.drain_flush().is_none());
        assert_eq!(pf.record(0), PauliRecord::I);
    }
}
