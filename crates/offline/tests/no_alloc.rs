//! Proves the scratch-based offline DP is allocation-free on the hot path:
//! after a warm-up solve has sized the scratch buffers, further solves of
//! same-or-smaller instances — every DP layer, the argmax, reconstruction
//! and the replay — perform zero heap allocations.
//!
//! Lives in its own integration-test binary so the counting global
//! allocator cannot interfere with any other test suite.

use abr_offline::{OfflineConfig, OfflineScratch};
use abr_trace::Trace;
use abr_video::envivio_video;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Wraps the system allocator, counting every allocation per thread, so
/// set-up work in concurrently running tests never lands in another
/// test's measured section.
struct CountingAlloc;

// SAFETY: every call forwards unchanged to `System`; the counter is a
// const-initialized thread-local that never allocates, and `try_with`
// skips counting during thread teardown instead of panicking.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on the calling thread (no measured section
/// leaves its thread).
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn traces() -> Vec<Trace> {
    vec![
        Trace::constant(1500.0, 60.0).unwrap(),
        Trace::new(vec![(30.0, 300.0), (30.0, 5000.0)]).unwrap(),
        Trace::new(vec![(8.0, 2000.0), (8.0, 600.0), (10.0, 1500.0), (5.0, 0.0)]).unwrap(),
        Trace::constant(200.0, 60.0).unwrap(),
    ]
}

#[test]
fn offline_solves_do_not_allocate_after_warmup() {
    let video = envivio_video();
    let cfg = OfflineConfig::paper_default();
    let ts = traces();
    let mut scratch = OfflineScratch::new();
    // Warm-up: one solve per trace sizes every buffer.
    for t in &ts {
        scratch.optimal_qoe(t, &video, &cfg);
    }

    let (allocs, qoe_sum) = allocations(|| {
        let mut acc = 0.0_f64;
        for _ in 0..3 {
            for t in &ts {
                acc += scratch.optimal_qoe(t, &video, &cfg).qoe;
            }
        }
        acc
    });
    assert!(qoe_sum.is_finite());
    assert_eq!(allocs, 0, "steady-state offline solves must not allocate");
}

#[test]
fn discrete_solves_do_not_allocate_after_warmup() {
    let video = envivio_video();
    let cfg = OfflineConfig::paper_default();
    let ts = traces();
    let mut scratch = OfflineScratch::new();
    // The continuous grid (24 rates) warms buffers larger than the 5-level
    // ladder needs, so discrete solves after one continuous warm-up stay
    // allocation-free too.
    scratch.optimal_qoe(&ts[0], &video, &cfg);
    for t in &ts {
        scratch.optimal_qoe_discrete(t, &video, &cfg);
    }

    let (allocs, qoe_sum) = allocations(|| {
        let mut acc = 0.0_f64;
        for t in &ts {
            acc += scratch.optimal_qoe_discrete(t, &video, &cfg).qoe;
        }
        acc
    });
    assert!(qoe_sum.is_finite());
    assert_eq!(allocs, 0, "steady-state discrete solves must not allocate");
}
