//! Steady-state allocation audit for the packed engine.
//!
//! The measurement path used to allocate a scratch row per call; the
//! packed `StabilizerSim` pre-allocates all collapse scratch inside the
//! struct, so a warmed-up simulator must run gates, measurements,
//! resets and expectation values without touching the heap. A counting
//! global allocator proves it.
//!
//! This file deliberately holds a single `#[test]`: Rust runs tests in
//! threads sharing one global allocator, so any sibling test's
//! allocations would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use qpdo_pauli::{Pauli, PauliString, Phase};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::SeedableRng;
use qpdo_stabilizer::StabilizerSim;

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
fn steady_state_tableau_ops_do_not_allocate() {
    let n = 17;
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let mut sim = StabilizerSim::new(n);
    // Every window ends in |0…0⟩, where -Z⊗…⊗Z has expectation -1.
    let observable = PauliString::new(Phase::MinusOne, vec![Pauli::Z; n]);

    // Warm-up window: same op mix as the measured window, so any lazily
    // created state exists before counting starts.
    let window = |sim: &mut StabilizerSim, rng: &mut StdRng| {
        for q in 0..n {
            sim.h(q);
            sim.s(q);
            sim.cnot(q, (q + 5) % n);
            sim.cz(q, (q + 3) % n);
            sim.x(q);
            sim.swap(q, (q + 7) % n);
        }
        let mut acc = 0usize;
        for q in 0..n {
            acc += usize::from(sim.measure(q, rng));
            sim.h(q);
            acc += usize::from(sim.measure(q, rng));
            sim.reset(q, rng);
            acc += usize::from(sim.peek_deterministic(q) == Some(false));
        }
        acc + usize::from(sim.expectation(&observable) == Some(true))
    };

    let warm = window(&mut sim, &mut rng);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let measured = window(&mut sim, &mut rng);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state gate/measure/reset/expectation window allocated on the heap"
    );
    // Keep the window results observable so the loop cannot be optimized
    // away wholesale.
    assert!(warm <= 3 * n + 1 && measured <= 3 * n + 1);
}
