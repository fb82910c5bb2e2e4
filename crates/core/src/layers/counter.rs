use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qpdo_circuit::{Circuit, GateKind, OperationKind};

use crate::{Layer, LayerContext};

/// Shared counters recorded by a [`CounterLayer`].
///
/// Handles are cheap clones around atomics, so an experiment can keep one
/// and read it while (or after) the layer sits boxed inside a stack.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    inner: Arc<[AtomicU64; CELLS]>,
}

/// Cell indices, shared by the atomics and the per-circuit tally.
const TIME_SLOTS: usize = 0;
const OPERATIONS: usize = 1;
const PREPS: usize = 2;
const MEASURES: usize = 3;
const PAULI_GATES: usize = 4;
const CLIFFORD_GATES: usize = 5;
const NON_CLIFFORD_GATES: usize = 6;
const CELLS: usize = 7;

impl Counters {
    /// A fresh zeroed handle.
    #[must_use]
    pub fn new() -> Self {
        Counters::default()
    }

    fn get(&self, cell: usize) -> u64 {
        self.inner[cell].load(Ordering::Relaxed)
    }

    /// Time slots that passed the layer.
    #[must_use]
    pub fn time_slots(&self) -> u64 {
        self.get(TIME_SLOTS)
    }

    /// Total operations that passed the layer.
    #[must_use]
    pub fn operations(&self) -> u64 {
        self.get(OPERATIONS)
    }

    /// Qubit initializations.
    #[must_use]
    pub fn preps(&self) -> u64 {
        self.get(PREPS)
    }

    /// Measurements.
    #[must_use]
    pub fn measures(&self) -> u64 {
        self.get(MEASURES)
    }

    /// Pauli-group gates.
    #[must_use]
    pub fn pauli_gates(&self) -> u64 {
        self.get(PAULI_GATES)
    }

    /// Clifford (non-Pauli) gates.
    #[must_use]
    pub fn clifford_gates(&self) -> u64 {
        self.get(CLIFFORD_GATES)
    }

    /// Non-Clifford gates.
    #[must_use]
    pub fn non_clifford_gates(&self) -> u64 {
        self.get(NON_CLIFFORD_GATES)
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for cell in self.inner.iter() {
            cell.store(0, Ordering::Relaxed);
        }
    }

    /// Tallies the whole circuit locally, then publishes the tally with
    /// at most one atomic add per counter.
    fn record(&self, circuit: &Circuit) {
        let mut tally = [0u64; CELLS];
        for slot in circuit.slots() {
            tally[TIME_SLOTS] += 1;
            tally[OPERATIONS] += slot.len() as u64;
            for op in slot {
                let cell = match op.kind() {
                    OperationKind::Prep => PREPS,
                    OperationKind::Measure => MEASURES,
                    OperationKind::Gate(g) => match g.kind() {
                        GateKind::Pauli => PAULI_GATES,
                        GateKind::Clifford => CLIFFORD_GATES,
                        GateKind::NonClifford => NON_CLIFFORD_GATES,
                    },
                };
                tally[cell] += 1;
            }
        }
        for (cell, n) in self.inner.iter().zip(tally) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// A diagnostic layer that counts every time slot and operation flowing
/// past its position in the stack without modifying anything — the
/// instrumentation of Fig 5.8 used to measure what the Pauli frame saves
/// (Figs 5.25–5.26).
///
/// Diagnostic circuits in bypass mode are not counted, exactly as the
/// paper requires.
///
/// # Example
///
/// ```
/// use qpdo_core::{ChpCore, ControlStack, CounterLayer};
/// use qpdo_circuit::Circuit;
///
/// let counter = CounterLayer::new();
/// let counts = counter.counters();
/// let mut stack = ControlStack::with_seed(ChpCore::new(), 1);
/// stack.push_layer(counter);
/// stack.create_qubits(1).unwrap();
/// let mut c = Circuit::new();
/// c.h(0).measure(0);
/// stack.add(c).unwrap();
/// stack.execute().unwrap();
/// assert_eq!(counts.operations(), 2);
/// assert_eq!(counts.time_slots(), 2);
/// ```
#[derive(Debug, Default)]
pub struct CounterLayer {
    counters: Counters,
}

impl CounterLayer {
    /// A counter layer with fresh counters.
    #[must_use]
    pub fn new() -> Self {
        CounterLayer::default()
    }

    /// A cheap handle to the counters that stays valid after the layer is
    /// pushed onto a stack.
    #[must_use]
    pub fn counters(&self) -> Counters {
        self.counters.clone()
    }
}

impl Layer for CounterLayer {
    fn name(&self) -> &str {
        "counter"
    }

    fn process_circuit(&mut self, circuit: Circuit, ctx: &mut LayerContext<'_>) -> Circuit {
        if !ctx.bypass {
            self.counters.record(&circuit);
        }
        circuit
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
    use qpdo_rng::rngs::StdRng;
    use qpdo_rng::SeedableRng;

    fn ctx(rng: &mut StdRng, bypass: bool) -> LayerContext<'_> {
        LayerContext { rng, bypass }
    }

    #[test]
    fn counts_by_category() {
        let mut layer = CounterLayer::new();
        let counts = layer.counters();
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Circuit::new();
        c.prep(0).x(0).h(0).t(0).measure(0);
        let out = layer.process_circuit(c.clone(), &mut ctx(&mut rng, false));
        assert_eq!(out, c); // untouched
        assert_eq!(counts.time_slots(), 5);
        assert_eq!(counts.operations(), 5);
        assert_eq!(counts.preps(), 1);
        assert_eq!(counts.pauli_gates(), 1);
        assert_eq!(counts.clifford_gates(), 1);
        assert_eq!(counts.non_clifford_gates(), 1);
        assert_eq!(counts.measures(), 1);
    }

    #[test]
    fn bypass_mode_not_counted() {
        let mut layer = CounterLayer::new();
        let counts = layer.counters();
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Circuit::new();
        c.h(0);
        layer.process_circuit(c, &mut ctx(&mut rng, true));
        assert_eq!(counts.operations(), 0);
        assert_eq!(counts.time_slots(), 0);
    }

    #[test]
    fn tallies_accumulate_across_circuits_and_handles_are_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Counters>();
        let mut layer = CounterLayer::new();
        let counts = layer.counters();
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Circuit::new();
        c.prep(0).cnot(0, 1).measure(1);
        for _ in 0..3 {
            layer.process_circuit(c.clone(), &mut ctx(&mut rng, false));
        }
        assert_eq!(counts.time_slots(), 9);
        assert_eq!(counts.operations(), 9);
        assert_eq!(counts.preps(), 3);
        assert_eq!(counts.clifford_gates(), 3);
        assert_eq!(counts.measures(), 3);
        assert_eq!(counts.pauli_gates(), 0);
    }

    #[test]
    fn reset_zeroes() {
        let mut layer = CounterLayer::new();
        let counts = layer.counters();
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Circuit::new();
        c.h(0).h(1);
        layer.process_circuit(c, &mut ctx(&mut rng, false));
        assert!(counts.operations() > 0);
        counts.reset();
        assert_eq!(counts.operations(), 0);
    }
}
