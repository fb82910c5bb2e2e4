//! Steady-state allocation audit for the surface-code sweep.
//!
//! `run_ler_surface` allocates its working buffers once per run; every
//! 64-shot batch after that (error draw, frame push, parity-table
//! lookups, and union-find decodes on table misses) must stay off the
//! heap. On a warmed thread, a one-batch run and a 1250-batch run must
//! therefore allocate exactly as often. The long run reaches syndromes
//! the warm-up never drew, so both the table-hit and the decode path
//! are exercised. A counting global allocator proves it.
//!
//! This file deliberately holds a single `#[test]`: Rust runs tests in
//! threads sharing one global allocator, so any sibling test's
//! allocations would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use qpdo_surface::experiment::{run_ler_surface, SurfaceLerConfig, SurfaceLerOutcome};
use qpdo_surface::CheckKind;

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

fn d5(shots: u64, seed: u64) -> SurfaceLerConfig {
    SurfaceLerConfig {
        distance: 5,
        physical_error_rate: 0.08,
        error: CheckKind::X,
        shots,
        seed,
    }
}

/// Runs one sweep and returns its outcome with the allocations it made.
fn counted(config: &SurfaceLerConfig) -> (SurfaceLerOutcome, usize) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let outcome = run_ler_surface(config).expect("valid configuration");
    (outcome, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

#[test]
fn warm_sweeps_allocate_the_same_at_any_length() {
    // Warm this thread's sweep point: decoder, frame reference, parity
    // table and the decoder scratch's high-water marks.
    run_ler_surface(&d5(80_000, 1)).expect("valid configuration");

    let (_, short) = counted(&d5(64, 2));
    let (outcome, long) = counted(&d5(80_000, 2));
    assert_eq!(
        short, long,
        "a 1250-batch warm sweep allocated more than a one-batch sweep"
    );
    assert!(outcome.defects > 0, "the long sweep decoded nothing");
}
