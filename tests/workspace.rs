//! Allocation accounting for the warm execution path — the tentpole's
//! proof obligation: once a `Workspace` is grown to a plan's layout,
//! `run_planned_into` performs zero heap allocations *inside the block
//! loop*.
//!
//! The scheduler makes a handful of bookkeeping allocations per
//! `run_tasks` call (the caller collects its task list eagerly), so "zero"
//! cannot mean "zero for the whole call". What it does mean, and what this
//! test pins down:
//!
//! 1. the steady-state per-call allocation count is a constant — repeated
//!    warm calls allocate exactly the same amount;
//! 2. that constant is *trip-count independent* — a batch-3 problem runs
//!    3× as many block-loop iterations as batch-1 yet allocates exactly
//!    the same number of times, so the loop body itself allocates nothing;
//! 3. the engine's own witness, `MemoryFootprint::hot_loop_allocs`
//!    (scratch-pool overflows), is zero.
//!
//! This must stay the ONLY test in this file: the `#[global_allocator]`
//! counter is process-wide, and a sibling test on another thread would
//! pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use winrs::conv::ConvShape;
use winrs::core::fallback::{run_planned_into, NumericGuard};
use winrs::core::{Precision, WinRsPlan, Workspace};
use winrs::gpu::RTX_4090;
use winrs::tensor::Tensor4;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter is the only
// addition and has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// One warm guarded execution; returns the allocation count it cost.
fn warm_call(
    plan: &WinRsPlan,
    x: &Tensor4<f32>,
    dy: &Tensor4<f32>,
    ws: &mut Workspace,
    dw: &mut Tensor4<f32>,
) -> u64 {
    let before = allocs();
    let report = run_planned_into(plan, x, dy, NumericGuard::Ignore, ws, dw)
        .expect("in-envelope plan executes");
    assert_eq!(report.mem.hot_loop_allocs, 0, "scratch pool overflowed");
    allocs() - before
}

#[test]
fn warm_run_planned_block_loop_allocates_nothing() {
    // Small single-tile shapes: every `run_tasks` call in the engine and the
    // reduce sees one task and takes the scheduler's inline path, so no
    // worker threads (and their stacks) muddy the counts. Ẑ = 1 keeps the
    // bucket region at |∇W| and the whole arena under a page.
    let setup = |n: usize| {
        let conv = ConvShape::new(n, 12, 12, 4, 4, 3, 3, 1, 1);
        let plan =
            WinRsPlan::with_z_hat(&conv, &RTX_4090, Precision::Fp32, 1).expect("in-envelope shape");
        let x = Tensor4::<f32>::random_uniform([conv.n, conv.ih, conv.iw, conv.ic], 3, 1.0);
        let dy = Tensor4::<f32>::random_uniform([conv.n, conv.oh(), conv.ow(), conv.oc], 4, 1.0);
        let dw = Tensor4::<f32>::zeros([conv.oc, conv.fh, conv.fw, conv.ic]);
        (plan, x, dy, dw)
    };

    let (plan1, x1, dy1, mut dw1) = setup(1);
    let (plan3, x3, dy3, mut dw3) = setup(3);
    let mut ws1 = Workspace::new();
    let mut ws3 = Workspace::new();

    // Cold calls: grow the arenas, settle one-time lazy state (layout
    // OnceLock, transform tables).
    warm_call(&plan1, &x1, &dy1, &mut ws1, &mut dw1);
    warm_call(&plan3, &x3, &dy3, &mut ws3, &mut dw3);

    // (1) Steady state: every warm call costs exactly the same.
    let per_call_1: Vec<u64> = (0..3)
        .map(|_| warm_call(&plan1, &x1, &dy1, &mut ws1, &mut dw1))
        .collect();
    assert!(
        per_call_1.windows(2).all(|w| w[0] == w[1]),
        "warm batch-1 calls not steady: {per_call_1:?}"
    );

    // (2) Trip-count independence: 3× the block-loop iterations, same
    // allocation count — the loop body allocates nothing.
    let per_call_3: Vec<u64> = (0..3)
        .map(|_| warm_call(&plan3, &x3, &dy3, &mut ws3, &mut dw3))
        .collect();
    assert!(
        per_call_3.windows(2).all(|w| w[0] == w[1]),
        "warm batch-3 calls not steady: {per_call_3:?}"
    );
    assert_eq!(
        per_call_1[0], per_call_3[0],
        "per-call allocations scale with trip count: batch-1 {} vs batch-3 {}",
        per_call_1[0], per_call_3[0]
    );
}
