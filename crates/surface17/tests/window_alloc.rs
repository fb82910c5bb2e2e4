//! Steady-state allocation audit for the SC17 error-correction window.
//!
//! A window sends about 150 operations down the Fig 5.8 stack (two
//! counted ESM rounds plus the diagnostic round of the observable
//! check), through counters, the optional Pauli frame, error injection
//! and the tableau. Operations hold their qubits inline, each ESM round
//! is built once per star and cloned, the frame filters the circuit it
//! owns in place, and the counters tally per circuit. So a warm window
//! allocates per circuit and per time slot, never per operation: its
//! marginal allocations stay within the time slots it runs plus a small
//! per-window allowance, far below its operation count. A counting
//! global allocator proves it, for runs with and without the frame.
//!
//! This file deliberately holds a single `#[test]`: Rust runs tests in
//! threads sharing one global allocator, so any sibling test's
//! allocations would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use qpdo_surface17::experiment::{run_ler, LerConfig, LerOutcome, LogicalErrorKind};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The paper's p = 1e-3 point, run for exactly `windows` windows.
fn config(with_pauli_frame: bool, windows: u64) -> LerConfig {
    LerConfig {
        physical_error_rate: 1e-3,
        kind: LogicalErrorKind::XL,
        with_pauli_frame,
        target_logical_errors: u64::MAX,
        max_windows: windows,
        seed: 7,
    }
}

/// Runs one experiment and returns its outcome with the allocations it
/// made.
fn counted(config: &LerConfig) -> (LerOutcome, usize) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let outcome = run_ler(config).expect("valid configuration");
    (outcome, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

#[test]
fn warm_windows_allocate_per_slot_not_per_operation() {
    const SHORT: u64 = 200;
    const LONG: u64 = 2000;
    for with_pauli_frame in [false, true] {
        // Warm this thread: lazily grown buffers reach their high-water
        // marks before anything is counted.
        run_ler(&config(with_pauli_frame, LONG)).expect("valid configuration");

        let (_, short) = counted(&config(with_pauli_frame, SHORT));
        let (outcome, long) = counted(&config(with_pauli_frame, LONG));
        assert_eq!(outcome.windows, LONG);
        let per_window = (long - short) as f64 / (LONG - SHORT) as f64;
        // Every time slot the window sends down the stack: the counted
        // slots above the frame plus the 8-slot diagnostic round of the
        // observable check. Operations outnumber them ~6:1.
        let slots = outcome.slots_above_frame as f64 / LONG as f64 + 8.0;
        let ops = outcome.ops_above_frame as f64 / LONG as f64 + 48.0;
        // A prebuilt round costs one allocation per slot plus one for the
        // circuit when cloned (three circuits a window, and the rare
        // correction slot), and the logical readout builds its observable
        // string and frame records (the tableau's expectation itself
        // allocates nothing): at most 8 beyond the slot count.
        let bound = slots + 8.0;
        assert!(
            per_window <= bound,
            "frame {with_pauli_frame}: a warm window allocated {per_window:.2} times \
             for {slots:.2} time slots and {ops:.2} operations — an operation is allocating"
        );
    }
}
