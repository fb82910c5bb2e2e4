//! Steady-state allocation audit for the union-find decoder.
//!
//! ROADMAP's "decoder throughput on the serving path" item: the decoder
//! used to rebuild its parent/size/frontier arrays on every `decode`
//! call. The scratch now lives inside the decoder, sized for the graph
//! when the decoder is built, so a decoder driven through
//! `decode_into` with a warmed output buffer must not touch the heap.
//! A counting global allocator proves it.
//!
//! This file deliberately holds a single `#[test]`: Rust runs tests in
//! threads sharing one global allocator, so any sibling test's
//! allocations would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_surface::{CheckKind, RotatedSurfaceCode, UnionFindDecoder};

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

#[test]
fn warmed_decoder_decodes_without_allocating() {
    let code = RotatedSurfaceCode::new(9);
    let decoder = UnionFindDecoder::new(&code, CheckKind::X);
    let n = decoder.syndrome_len();

    // A fixed syndrome workload, dense enough to exercise growth, merges
    // and peeling. The scratch is sized for the graph at construction;
    // the warm-up only grows the output buffer.
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    let workload: Vec<Vec<bool>> = (0..32)
        .map(|_| (0..n).map(|_| rng.gen_bool(0.12)).collect())
        .collect();

    let mut correction = Vec::new();
    let mut warm = 0usize;
    for syndrome in &workload {
        decoder.decode_into(syndrome, &mut correction);
        warm += correction.len();
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut measured = 0usize;
    for syndrome in &workload {
        decoder.decode_into(syndrome, &mut correction);
        measured += correction.len();
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "warmed union-find decode window allocated on the heap"
    );
    // A fresh decoder's scratch is full-size from construction: even
    // its first decodes stay off the heap.
    let fresh = UnionFindDecoder::new(&code, CheckKind::X);
    let mut first = 0usize;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for syndrome in &workload {
        fresh.decode_into(syndrome, &mut correction);
        first += correction.len();
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "a fresh decoder's first decodes allocated"
    );

    // So is a clone's, though the decoder it copies has decoded.
    let clone = decoder.clone();
    let mut cloned = 0usize;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for syndrome in &workload {
        clone.decode_into(syndrome, &mut correction);
        cloned += correction.len();
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "a cloned decoder's first decodes allocated"
    );

    // Keep the corrections observable so the loops cannot be optimized
    // away wholesale, and check the workload was not vacuous.
    assert_eq!(warm, measured);
    assert_eq!(warm, first);
    assert_eq!(warm, cloned);
    assert!(warm > 0, "workload decoded no corrections at all");
}
