use qpdo_circuit::{Gate, Operation, OperationKind};

use super::{pauli_gate, PauliFrameUnit, PfuOutcome};
use crate::fault::FaultPlan;
use crate::CoreError;

/// A command emitted by the [`PauliArbiter`] to the Physical Execution
/// Layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PelCommand {
    /// Execute this operation on the physical qubits.
    Execute(Operation),
}

/// Counters of how the arbiter dispatched its operation stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Reset operations (forwarded to PFU **and** PEL).
    pub resets: u64,
    /// Measurement operations (forwarded to PEL; result path via PFU).
    pub measurements: u64,
    /// Pauli gates absorbed by the PFU (never reach the PEL).
    pub tracked_paulis: u64,
    /// Clifford gates (records mapped, gate forwarded).
    pub cliffords: u64,
    /// Non-Clifford gates (stream stalled, records flushed first).
    pub non_cliffords: u64,
    /// Pauli gates emitted by flushes.
    pub flush_gates: u64,
    /// Real-time deadline misses (budget exhausted or unrecovered
    /// transient overrun): the PFU was bypassed for that operation.
    pub deadline_misses: u64,
    /// Retry attempts made after an overrun was observed.
    pub deadline_retries: u64,
    /// Transient overruns that the single retry recovered.
    pub deadline_recovered: u64,
    /// Pauli gates emitted by deadline-miss flushes.
    pub deadline_flush_gates: u64,
    /// Pauli gates forwarded raw (untracked) because of a deadline miss.
    pub deadline_forwarded_paulis: u64,
}

impl ArbiterStats {
    /// Total operations received from the execution controller.
    #[must_use]
    pub fn received(&self) -> u64 {
        self.resets
            + self.measurements
            + self.tracked_paulis
            + self.cliffords
            + self.non_cliffords
            + self.deadline_forwarded_paulis
    }

    /// Total operations forwarded to the PEL.
    #[must_use]
    pub fn forwarded(&self) -> u64 {
        self.resets
            + self.measurements
            + self.cliffords
            + self.non_cliffords
            + self.flush_gates
            + self.deadline_flush_gates
            + self.deadline_forwarded_paulis
    }
}

/// The Pauli arbiter of Figs 3.11–3.12: sits between the execution
/// controller and the Physical Execution Layer, consulting the
/// [`PauliFrameUnit`] to decide which operations are executed physically
/// and which are tracked classically.
///
/// # Real-time budget
///
/// Tracking is classical work that must finish before the quantum machine
/// needs the next operation. [`set_slot_budget`](Self::set_slot_budget)
/// caps the classical work units spent per time slot
/// ([`begin_time_slot`](Self::begin_time_slot) opens a slot; every
/// dispatch charges one unit). On an overrun — structural, or transient
/// via a [`FaultPlan`] — the arbiter retries once, then **misses**: it
/// flushes the affected records as physical Pauli gates and forwards the
/// operation untracked, reporting [`CoreError::DeadlineMissed`] through
/// [`drain_fault_events`](Self::drain_fault_events). Execution always
/// continues with correct quantum semantics; only the tracking advantage
/// is lost.
///
/// # Example
///
/// ```
/// use qpdo_core::arch::PauliArbiter;
/// use qpdo_circuit::{Gate, Operation};
///
/// let mut arbiter = PauliArbiter::new(17);
/// // A Pauli gate produces no PEL traffic at all:
/// assert!(arbiter
///     .dispatch(&Operation::gate(Gate::Z, &[4]))
///     .unwrap()
///     .is_empty());
/// // A Clifford gate is forwarded:
/// assert_eq!(
///     arbiter.dispatch(&Operation::gate(Gate::H, &[4])).unwrap().len(),
///     1
/// );
/// assert_eq!(arbiter.stats().tracked_paulis, 1);
/// ```
#[derive(Clone, Debug)]
pub struct PauliArbiter {
    pfu: PauliFrameUnit,
    stats: ArbiterStats,
    slot_budget: Option<u64>,
    slot_used: u64,
    fault_plan: Option<FaultPlan>,
    events: Vec<CoreError>,
}

impl PauliArbiter {
    /// An arbiter (with embedded PFU) over `n` physical qubits.
    #[must_use]
    pub fn new(n: usize) -> Self {
        PauliArbiter {
            pfu: PauliFrameUnit::new(n),
            stats: ArbiterStats::default(),
            slot_budget: None,
            slot_used: 0,
            fault_plan: None,
            events: Vec::new(),
        }
    }

    /// The embedded Pauli Frame Unit.
    #[must_use]
    pub fn pfu(&self) -> &PauliFrameUnit {
        &self.pfu
    }

    /// Dispatch statistics so far.
    #[must_use]
    pub fn stats(&self) -> ArbiterStats {
        self.stats
    }

    /// Caps the classical work units per time slot (`None` = unlimited).
    /// A budget of zero forces every operation onto the deadline-miss
    /// path: the arbiter degenerates to a pass-through and the PFU
    /// records stay `I`.
    pub fn set_slot_budget(&mut self, budget: Option<u64>) -> &mut Self {
        self.slot_budget = budget;
        self
    }

    /// The configured per-slot budget.
    #[must_use]
    pub fn slot_budget(&self) -> Option<u64> {
        self.slot_budget
    }

    /// Installs a fault plan whose `deadline_overrun` rate injects
    /// transient overruns on top of the structural budget.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Opens a new time slot: the per-slot work counter restarts.
    pub fn begin_time_slot(&mut self) {
        self.slot_used = 0;
    }

    /// Drains the accumulated [`CoreError::DeadlineMissed`] events.
    pub fn drain_fault_events(&mut self) -> Vec<CoreError> {
        std::mem::take(&mut self.events)
    }

    /// Charges one unit of classical work and decides whether the
    /// deadline holds: retry-then-flush on overrun.
    fn deadline_ok(&mut self) -> bool {
        self.slot_used += 1;
        let structural = self.slot_budget.is_some_and(|b| self.slot_used > b);
        let transient = self
            .fault_plan
            .as_mut()
            .is_some_and(FaultPlan::sample_deadline_overrun);
        if !structural && !transient {
            return true;
        }
        self.stats.deadline_retries += 1;
        // A structural overrun cannot succeed on retry — the budget is
        // genuinely exhausted. A transient glitch is re-sampled once.
        if !structural
            && !self
                .fault_plan
                .as_mut()
                .is_some_and(FaultPlan::sample_deadline_overrun)
        {
            self.stats.deadline_recovered += 1;
            return true;
        }
        self.stats.deadline_misses += 1;
        self.events.push(CoreError::DeadlineMissed {
            used: self.slot_used,
            budget: self.slot_budget.unwrap_or(0),
        });
        false
    }

    /// Processes one operation from the execution controller, returning
    /// the PEL commands it generates, in execution order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::QubitOutOfRange`] when the operation
    /// references qubits outside the unit.
    pub fn dispatch(&mut self, op: &Operation) -> Result<Vec<PelCommand>, CoreError> {
        let allocated = self.pfu.num_qubits();
        if let Some(&qubit) = op.qubits().iter().find(|&&q| q >= allocated) {
            return Err(CoreError::QubitOutOfRange { qubit, allocated });
        }
        if !self.deadline_ok() {
            return Ok(self.dispatch_deadline_miss(op));
        }
        Ok(match self.pfu.process(op) {
            PfuOutcome::Reset => {
                self.stats.resets += 1;
                vec![PelCommand::Execute(op.clone())]
            }
            PfuOutcome::Measure { .. } => {
                self.stats.measurements += 1;
                vec![PelCommand::Execute(op.clone())]
            }
            PfuOutcome::Tracked => {
                self.stats.tracked_paulis += 1;
                Vec::new()
            }
            PfuOutcome::Mapped => {
                self.stats.cliffords += 1;
                vec![PelCommand::Execute(op.clone())]
            }
            PfuOutcome::Flushed { pauli_gates } => {
                self.stats.non_cliffords += 1;
                self.stats.flush_gates += pauli_gates.len() as u64;
                let mut commands: Vec<PelCommand> = pauli_gates
                    .into_iter()
                    .map(|(q, p)| PelCommand::Execute(Operation::gate(pauli_gate(p), &[q])))
                    .collect();
                commands.push(PelCommand::Execute(op.clone()));
                commands
            }
        })
    }

    /// The deadline-miss fallback: tracking could not complete in time,
    /// so the affected records are flushed as physical gates and the
    /// operation executes raw. Quantum semantics are preserved — the
    /// stream is exactly what a frameless controller would emit once the
    /// records are caught up.
    fn dispatch_deadline_miss(&mut self, op: &Operation) -> Vec<PelCommand> {
        let mut commands = Vec::new();
        for &q in op.qubits() {
            for p in self.pfu.flush_qubit(q) {
                self.stats.deadline_flush_gates += 1;
                commands.push(PelCommand::Execute(Operation::gate(pauli_gate(p), &[q])));
            }
        }
        let is_pauli = matches!(
            op.kind(),
            OperationKind::Gate(Gate::I | Gate::X | Gate::Y | Gate::Z)
        );
        if is_pauli {
            // The one flow that normally produces no PEL traffic: with
            // tracking unavailable, the gate must execute physically.
            self.stats.deadline_forwarded_paulis += 1;
            commands.push(PelCommand::Execute(op.clone()));
        } else {
            // Records are now I, so re-processing is semantically inert
            // (maps identities, measures uninverted) but keeps the PFU
            // and the stats coherent.
            match self.pfu.process(op) {
                PfuOutcome::Reset => self.stats.resets += 1,
                PfuOutcome::Measure { .. } => self.stats.measurements += 1,
                PfuOutcome::Mapped => self.stats.cliffords += 1,
                PfuOutcome::Flushed { pauli_gates } => {
                    debug_assert!(pauli_gates.is_empty());
                    self.stats.non_cliffords += 1;
                }
                // invariant: Pauli gates were routed to the raw branch above.
                PfuOutcome::Tracked => unreachable!("pauli handled above"),
            }
            commands.push(PelCommand::Execute(op.clone()));
        }
        commands
    }

    /// Maps a raw measurement result arriving from the PEL (step 4–5 of
    /// Fig 3.12b).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn map_measurement(&self, q: usize, raw: bool) -> bool {
        self.pfu.map_measurement(q, raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRates;
    use qpdo_pauli::PauliRecord;

    #[test]
    fn pauli_gates_produce_no_pel_traffic() {
        let mut arb = PauliArbiter::new(2);
        assert!(arb
            .dispatch(&Operation::gate(Gate::X, &[0]))
            .unwrap()
            .is_empty());
        assert!(arb
            .dispatch(&Operation::gate(Gate::Y, &[1]))
            .unwrap()
            .is_empty());
        assert_eq!(arb.stats().tracked_paulis, 2);
        assert_eq!(arb.stats().forwarded(), 0);
    }

    #[test]
    fn reset_and_measure_forwarded() {
        let mut arb = PauliArbiter::new(1);
        assert_eq!(arb.dispatch(&Operation::prep(0)).unwrap().len(), 1);
        assert_eq!(arb.dispatch(&Operation::measure(0)).unwrap().len(), 1);
        assert_eq!(arb.stats().resets, 1);
        assert_eq!(arb.stats().measurements, 1);
    }

    #[test]
    fn non_clifford_stalls_and_flushes() {
        let mut arb = PauliArbiter::new(1);
        arb.dispatch(&Operation::gate(Gate::X, &[0])).unwrap();
        let commands = arb.dispatch(&Operation::gate(Gate::T, &[0])).unwrap();
        assert_eq!(
            commands,
            vec![
                PelCommand::Execute(Operation::gate(Gate::X, &[0])),
                PelCommand::Execute(Operation::gate(Gate::T, &[0])),
            ]
        );
        assert_eq!(arb.pfu().record(0), PauliRecord::I);
        assert_eq!(arb.stats().flush_gates, 1);
    }

    #[test]
    fn measurement_mapping_via_record() {
        let mut arb = PauliArbiter::new(1);
        arb.dispatch(&Operation::gate(Gate::X, &[0])).unwrap();
        assert!(arb.map_measurement(0, false));
    }

    #[test]
    fn out_of_range_is_an_error_not_a_panic() {
        let mut arb = PauliArbiter::new(2);
        let err = arb.dispatch(&Operation::gate(Gate::H, &[5])).unwrap_err();
        assert_eq!(
            err,
            CoreError::QubitOutOfRange {
                qubit: 5,
                allocated: 2
            }
        );
    }

    #[test]
    fn stats_accounting() {
        let mut arb = PauliArbiter::new(2);
        arb.dispatch(&Operation::prep(0)).unwrap();
        arb.dispatch(&Operation::gate(Gate::Z, &[0])).unwrap();
        arb.dispatch(&Operation::gate(Gate::H, &[0])).unwrap();
        arb.dispatch(&Operation::gate(Gate::T, &[0])).unwrap();
        arb.dispatch(&Operation::measure(0)).unwrap();
        let s = arb.stats();
        assert_eq!(s.received(), 5);
        // prep + h + t + flush(1: the Z mapped to X by H... still one
        // record) + measure
        assert_eq!(s.non_cliffords, 1);
        assert!(s.forwarded() >= 4);
    }

    #[test]
    fn zero_budget_bypasses_tracking() {
        let mut arb = PauliArbiter::new(1);
        arb.set_slot_budget(Some(0));
        arb.begin_time_slot();
        // The Pauli is forced through raw; the record never moves.
        let commands = arb.dispatch(&Operation::gate(Gate::X, &[0])).unwrap();
        assert_eq!(
            commands,
            vec![PelCommand::Execute(Operation::gate(Gate::X, &[0]))]
        );
        assert_eq!(arb.pfu().record(0), PauliRecord::I);
        let s = arb.stats();
        assert_eq!(s.deadline_misses, 1);
        assert_eq!(s.deadline_forwarded_paulis, 1);
        assert_eq!(s.deadline_recovered, 0);
        let events = arb.drain_fault_events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], CoreError::DeadlineMissed { .. }));
        assert!(arb.drain_fault_events().is_empty());
    }

    #[test]
    fn deadline_miss_flushes_pending_records() {
        let mut arb = PauliArbiter::new(1);
        arb.begin_time_slot();
        arb.dispatch(&Operation::gate(Gate::X, &[0])).unwrap();
        assert_eq!(arb.pfu().record(0), PauliRecord::X);
        // The budget collapses mid-stream: the pending record is emitted
        // as a physical gate before the raw H.
        arb.set_slot_budget(Some(0));
        arb.begin_time_slot();
        let commands = arb.dispatch(&Operation::gate(Gate::H, &[0])).unwrap();
        assert_eq!(
            commands,
            vec![
                PelCommand::Execute(Operation::gate(Gate::X, &[0])),
                PelCommand::Execute(Operation::gate(Gate::H, &[0])),
            ]
        );
        assert_eq!(arb.pfu().record(0), PauliRecord::I);
        assert_eq!(arb.stats().deadline_flush_gates, 1);
    }

    #[test]
    fn budget_counts_work_within_a_slot() {
        let mut arb = PauliArbiter::new(1);
        arb.set_slot_budget(Some(2));
        arb.begin_time_slot();
        assert!(arb
            .dispatch(&Operation::gate(Gate::X, &[0]))
            .unwrap()
            .is_empty());
        assert!(arb
            .dispatch(&Operation::gate(Gate::X, &[0]))
            .unwrap()
            .is_empty());
        // Third unit of work in a 2-unit slot: miss.
        arb.dispatch(&Operation::gate(Gate::X, &[0])).unwrap();
        assert_eq!(arb.stats().deadline_misses, 1);
        // A fresh slot restores the budget.
        arb.begin_time_slot();
        assert!(arb
            .dispatch(&Operation::gate(Gate::X, &[0]))
            .unwrap()
            .is_empty());
        assert_eq!(arb.stats().deadline_misses, 1);
    }

    #[test]
    fn transient_overruns_retry_then_flush() {
        let mut rates = FaultRates::zero();
        rates.deadline_overrun = 1.0;
        let mut arb = PauliArbiter::new(1);
        arb.set_fault_plan(FaultPlan::new(rates, 7).unwrap());
        arb.begin_time_slot();
        // Overrun fires on both the first attempt and the retry.
        arb.dispatch(&Operation::gate(Gate::X, &[0])).unwrap();
        let s = arb.stats();
        assert_eq!(s.deadline_retries, 1);
        assert_eq!(s.deadline_misses, 1);
        assert_eq!(s.deadline_recovered, 0);
    }

    #[test]
    fn transient_overrun_can_recover_on_retry() {
        let mut rates = FaultRates::zero();
        rates.deadline_overrun = 0.5;
        let mut arb = PauliArbiter::new(1);
        arb.set_fault_plan(FaultPlan::new(rates, 21).unwrap());
        for _ in 0..200 {
            arb.begin_time_slot();
            arb.dispatch(&Operation::gate(Gate::X, &[0])).unwrap();
        }
        let s = arb.stats();
        // At rate 0.5 over 200 ops, both outcomes of the retry occur.
        assert!(s.deadline_recovered > 0, "{s:?}");
        assert!(s.deadline_misses > 0, "{s:?}");
        assert_eq!(s.deadline_retries, s.deadline_recovered + s.deadline_misses);
    }
}
