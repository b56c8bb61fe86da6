//! Exhaustive concurrency models for the engine's shared-state types,
//! checked with the vendored `loom` model checker (every interleaving at
//! atomic/mutex granularity, sequential consistency).
//!
//! Compiled and run only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p winrs-core --test loom_models --release
//! ```
//!
//! (`scripts/ci.sh` runs exactly that, with a separate target dir so the
//! flag doesn't thrash the main build cache.) Under this cfg,
//! `winrs-core`'s `crate::sync` shim swaps `std::sync` for the model
//! checker, so [`winrs_core::TimingSink`] and
//! [`winrs_core::ScratchPool`] are explored through exactly the code
//! production runs; `winrs-gemm`'s scheduler imports loom's `Mutex` under
//! the same cfg, so its `StealQueues` handoff is modelled as well. The
//! per-shape store sits behind the
//! [`winrs_core::WorkspacePool`]'s tuner lock, so its model drives the
//! pool's public lookups and the shim's `loom` mutex does the rest.

#![cfg(loom)]

use loom::sync::Arc;
use winrs_core::workspace::ScratchPool;
use winrs_core::{PoolConfig, Precision, TimingSink, TunerConfig, WorkspacePool};
use winrs_gpu_sim::RTX_4090;

use winrs_conv::ConvShape;

/// TimingSink per-column flush: two concurrent `record_block` calls (the
/// per-block-column flush of thread-local phase counters) must never lose
/// or tear an update — every counter's final value is the exact sum, and
/// the min/max track both columns' totals. Explores all C(16,8) = 12870
/// interleavings of the 2 × 8 atomic RMWs.
#[test]
fn timing_sink_flush_is_lossless_under_interleaving() {
    loom::model(|| {
        let sink = Arc::new(TimingSink::new());
        let handles: Vec<_> = [(1u64, 2, 3, 4, 10u64), (5, 6, 7, 8, 30)]
            .into_iter()
            .map(|(ft, it, ewmm, ot, total)| {
                let sink = Arc::clone(&sink);
                loom::thread::spawn(move || sink.record_block(ft, it, ewmm, ot, total))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.blocks(), 2);
        assert_eq!(sink.ft_ns(), 6);
        assert_eq!(sink.it_ns(), 8);
        assert_eq!(sink.ewmm_ns(), 10);
        assert_eq!(sink.ot_ns(), 12);
        assert_eq!(sink.busy_ns(), 40);
        assert_eq!(sink.min_ns(), 10);
        assert_eq!(sink.max_ns(), 30);
    });
}

/// ScratchPool slot exclusivity: two concurrent `with_slot_at` callers
/// pinned to the same slot (two workers sharing a slot when the pool has
/// fewer slots than workers) — the slot mutex must still give each
/// exclusive use (no observed interference while holding the slot), and
/// no caller may fall onto the counted heap path when its request fits a
/// slot.
#[test]
fn scratch_pool_slots_are_exclusive_under_interleaving() {
    const SLOT_ELEMS: usize = 4;
    const SLOTS: usize = 2;
    loom::model(|| {
        // Leaked per-execution arena: `loom::thread::spawn` needs
        // `'static` borrows and the model arena is 64 bytes.
        let arena: &'static mut [f32] =
            Box::leak(vec![0.0f32; ScratchPool::region_elems(SLOT_ELEMS, SLOTS)].into_boxed_slice());
        let pool = Arc::new(ScratchPool::new(arena, SLOT_ELEMS));
        let handles: Vec<_> = (1..=2u32)
            .map(|tag| {
                let pool = Arc::clone(&pool);
                loom::thread::spawn(move || {
                    pool.with_slot_at(0, SLOT_ELEMS, |buf| {
                        assert_eq!(buf.len(), SLOT_ELEMS);
                        buf.fill(tag as f32);
                        // Exclusive use: nobody scribbles while we hold it.
                        assert!(buf.iter().all(|&v| v == tag as f32));
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.hot_loop_allocs(), 0, "fitting requests must not heap-allocate");
    });
}

/// ScratchPool overflow accounting: an oversized request takes the counted
/// heap path in every interleaving, and fitting requests never do.
#[test]
fn scratch_pool_overflow_is_counted_exactly_once() {
    const SLOT_ELEMS: usize = 4;
    loom::model(|| {
        let arena: &'static mut [f32] =
            Box::leak(vec![0.0f32; ScratchPool::region_elems(SLOT_ELEMS, 1)].into_boxed_slice());
        let pool = Arc::new(ScratchPool::new(arena, SLOT_ELEMS));
        let big = {
            let pool = Arc::clone(&pool);
            loom::thread::spawn(move || pool.with_slot_at(0, SLOT_ELEMS * 2, |buf| buf.len()))
        };
        let fit = {
            let pool = Arc::clone(&pool);
            loom::thread::spawn(move || pool.with_slot_at(0, SLOT_ELEMS, |buf| buf.len()))
        };
        assert_eq!(big.join().unwrap(), SLOT_ELEMS * 2);
        assert_eq!(fit.join().unwrap(), SLOT_ELEMS);
        assert_eq!(pool.hot_loop_allocs(), 1);
    });
}

/// The per-shape store's LRU hit/miss/eviction counters under concurrent
/// plan lookups through the pool (capacity 1 forces evictions): in every
/// interleaving, `hits + misses` equals the number of lookups, every miss
/// either evicted something or grew the store (`misses == evictions +
/// len`), and an evicted entry's `Arc` stays usable.
#[test]
fn plan_store_counters_stay_consistent_under_interleaving() {
    loom::model(|| {
        let pool = WorkspacePool::new(PoolConfig {
            tuner: TunerConfig { capacity: 1 },
            ..PoolConfig::default()
        });
        let shapes = [
            ConvShape::square(1, 8, 1, 1, 2),
            ConvShape::square(1, 8, 1, 1, 3),
        ];
        let handles: Vec<_> = shapes
            .into_iter()
            .map(|shape| {
                let pool = std::sync::Arc::clone(&pool);
                loom::thread::spawn(move || {
                    let mut last = None;
                    for _ in 0..2 {
                        let plan = pool
                            .cached_plan(&shape, &RTX_4090, Precision::Fp32)
                            .expect("tiny fp32 plan always builds");
                        // The Arc outlives any eviction by the other thread.
                        assert!(plan.shape().fw >= 2);
                        last = Some(plan);
                    }
                    last.expect("two lookups ran")
                })
            })
            .collect();
        let last: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let (hits, misses) = pool.plan_stats();
        assert_eq!(hits + misses, 4, "every lookup is a hit or a miss");
        // A resident plan is shared by the store and its thread's last
        // lookup; an evicted one only by the thread.
        let len = last
            .iter()
            .filter(|plan| std::sync::Arc::strong_count(plan) == 2)
            .count() as u64;
        assert_eq!(
            misses,
            pool.tuner_counters().evictions + len,
            "every miss inserted: still resident or since evicted"
        );
        assert!(len <= 1, "capacity 1");
    });
}

/// Work-stealing deque handoff: two workers drain a `StealQueues`
/// concurrently — worker 1's queue is empty so every task it gets is a
/// steal from worker 0's tail. In every interleaving, each task is popped
/// exactly once (no double-pop) and no task is lost: the union of both
/// workers' pops is exactly the initial task set.
#[test]
fn steal_queue_handoff_no_double_pop_no_lost_task() {
    use winrs_core::engine::sched::StealQueues;
    loom::model(|| {
        // 4 tasks, 2 workers → contiguous split gives each worker 2; the
        // model sends worker 1 back for more after its own run dry, so
        // both the own-queue pop and the steal-half path are explored.
        let q = Arc::new(StealQueues::new(vec![0usize, 1, 2, 3], 2));
        let handles: Vec<_> = (0..2)
            .map(|w| {
                let q = Arc::clone(&q);
                loom::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(task) = q.pop(w) {
                        got.push(task);
                    }
                    got
                })
            })
            .collect();
        let mut seen = Vec::new();
        for h in handles {
            seen.extend(h.join().unwrap());
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            vec![0, 1, 2, 3],
            "every task exactly once, none lost, none doubled"
        );
    });
}
