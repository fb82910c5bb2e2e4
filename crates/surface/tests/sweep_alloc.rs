//! Steady-state allocation audit for the surface-code sweep.
//!
//! Every thread that runs batches keeps a warm sweep point (decoder,
//! frame reference, parity table and batch buffers) per distance and
//! error kind, so once warm a 64-shot batch (error draw, frame push,
//! parity-table lookups, and union-find decodes on table misses) must
//! stay off the heap, and a run allocates only its checkpoint. On a
//! warmed thread, a one-batch run and a 1250-batch run must therefore
//! allocate exactly as often. The long run reaches syndromes the
//! warm-up never drew, so both the table-hit and the decode path are
//! exercised. A run of two or more batches also fans its batches out
//! over the process's pool of helper threads, each with its own sweep
//! point, while a one-batch run stays on the calling thread; so the
//! equality also shows that the pool, its ring and every helper's
//! state allocate nothing per run once warm. The warm-up run leaves
//! every helper it recruited warm, even one that claimed no batch,
//! since a run returns only after its helpers have built their points.
//! The same holds at d = 13, where every lane runs the decoder. A
//! counting global allocator proves it; being global, it sees the
//! helper threads too.
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

fn at(distance: usize, shots: u64, seed: u64) -> SurfaceLerConfig {
    SurfaceLerConfig {
        distance,
        physical_error_rate: 0.08,
        error: CheckKind::X,
        shots,
        seed,
    }
}

fn d5(shots: u64, seed: u64) -> SurfaceLerConfig {
    at(5, shots, seed)
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

    // d = 13: every batch's decodes fan out over helper threads, each
    // with its own lane decoder. One warm-up run gives every decoder its
    // scratch; a decoder allocates only on its first decode, whichever
    // syndromes it meets later.
    run_ler_surface(&at(13, 64 * 4, 1)).expect("valid configuration");
    let (_, short) = counted(&at(13, 64, 2));
    let (outcome, long) = counted(&at(13, 64 * 64, 2));
    assert_eq!(
        short, long,
        "a 64-batch warm d = 13 sweep allocated more than a one-batch sweep"
    );
    assert!(outcome.defects > 0, "the long d = 13 sweep decoded nothing");
}
