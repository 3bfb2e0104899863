//! Proves the rewritten horizon search is allocation-free on the hot path:
//! after a warm-up solve has sized the scratch buffers, further solves —
//! including the `Mpc` controller's steady-state decisions — perform zero
//! heap allocations.
//!
//! Lives in its own integration-test binary so the counting global
//! allocator cannot interfere with any other test suite.

use abr_core::{optimize_first_with, BitrateController, ControllerContext, HorizonScratch, Mpc};
use abr_video::{envivio_video, LevelIdx, QoeWeights};
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

#[test]
fn horizon_solves_do_not_allocate_after_warmup() {
    let video = envivio_video();
    let weights = QoeWeights::balanced();
    let mut scratch = HorizonScratch::new();
    // Warm-up at the largest horizon used below sizes every buffer.
    optimize_first_with(&mut scratch, &video, 0, 9, 10.0, 30.0, None, 1500.0, &weights);

    let (allocs, _) = allocations(|| {
        let mut acc = 0usize;
        for i in 0..200 {
            for horizon in [5usize, 9] {
                let (level, _) = optimize_first_with(
                    &mut scratch,
                    &video,
                    i % 40,
                    horizon,
                    (i % 30) as f64,
                    30.0,
                    Some(LevelIdx(i % 5)),
                    300.0 + (i % 60) as f64 * 100.0,
                    &weights,
                );
                acc += level.get();
            }
        }
        acc
    });
    assert_eq!(allocs, 0, "steady-state horizon solves must not allocate");
}

#[test]
fn mpc_controller_decisions_do_not_allocate_after_warmup() {
    let video = envivio_video();
    let mut mpc = Mpc::paper_default();
    let ctx = |i: usize| ControllerContext {
        chunk_index: 10 + (i % 40),
        buffer_secs: (i % 30) as f64,
        prev_level: Some(LevelIdx(i % 5)),
        prediction_kbps: Some(400.0 + (i % 50) as f64 * 60.0),
        robust_lower_kbps: Some(350.0 + (i % 50) as f64 * 50.0),
        last_throughput_kbps: Some(1000.0),
        recent_low_buffer: false,
        startup: false,
        video: &video,
        buffer_max_secs: 30.0,
        live: None,
    };
    mpc.decide(&ctx(0)); // warm-up sizes the controller's scratch

    let (allocs, _) = allocations(|| {
        let mut acc = 0usize;
        for i in 0..500 {
            acc += mpc.decide(&ctx(i)).level.get();
        }
        acc
    });
    assert_eq!(allocs, 0, "steady-state MPC decisions must not allocate");
}
