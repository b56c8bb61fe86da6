//! Locality-aware work-stealing scheduler: the one thread pool of the
//! workspace. Every parallel loop — the WinRS engine's block groups, the
//! reduce, the baselines (direct, GEMM, FFT, WinNF, 3-D) and the
//! forward and 3-D WinRS paths — runs its tasks through [`run_tasks`],
//! sized by [`workers`].
//!
//! Handing every task to a flat global fan-out would let consecutive
//! engine tasks of one bucket — which share a scratch slot's
//! ĝ/d̂/accumulator tiles and write neighbouring bucket rows — land on
//! different cores and evict each other's L2 lines. Here the task list is
//! cut into **contiguous chunks, one deque per worker**: worker `w` owns a
//! consecutive run of tasks, pops from its own deque's *front* (preserving
//! the locality order the caller emitted) and, only when dry, steals
//! **half of a victim's remainder from the tail** — the far, coldest end
//! of the victim's run — so both threads keep working on disjoint,
//! still-contiguous stretches.
//!
//! Determinism contract: the scheduler decides only *which worker* runs a
//! task and *when*, never what the task writes. Every caller hands each
//! task a disjoint output (an engine block group's bucket rows, one `∇W`
//! output channel, one GEMM row panel, one spectrum slot) and the
//! per-element arithmetic inside a task is schedule-independent, so
//! results are bitwise identical for every worker count and every steal
//! order. `tests/engine_sched.rs` asserts this for the engine across
//! worker counts and repeated runs; the loom model in
//! `crates/core/tests/loom_models.rs` checks the deque handoff itself
//! (no double-pop, no lost task).
//!
//! A panicking task reaches the caller of [`run_tasks`]: the scoped
//! threads are joined and the panic resumes on the calling thread, which
//! is what `ExecHandle`'s `catch_unwind` quarantine relies on.
//!
//! The queues go through loom's `Mutex` under `--cfg loom`, so the loom
//! leg exhaustively models the handoff with the exact production code. A
//! mutex-per-deque is not a throughput concern at this granularity: every
//! task (a block group, an output channel, a row panel, a transformed
//! tile) amortises many multiply-adds per lock acquisition, and one
//! worker runs its list inline with no queues at all.

#[cfg(loom)]
use loom::sync::{Mutex, MutexGuard};
use std::collections::VecDeque;
#[cfg(not(loom))]
use std::sync::{Mutex, MutexGuard};

/// Default worker count of every parallel loop: one per hardware thread.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Per-worker deques over a deterministically distributed task list.
pub struct StealQueues<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
}

/// Poison-tolerant lock: a panicking sibling worker (fault injection,
/// `should_panic` tests) must not wedge the scheduler — the deque itself
/// is always structurally valid.
fn lock<T>(m: &Mutex<VecDeque<T>>) -> MutexGuard<'_, VecDeque<T>> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl<T> StealQueues<T> {
    /// Distribute `items` over `workers` deques in contiguous chunks:
    /// worker `w` starts with items `[w·⌈n/workers⌉, (w+1)·⌈n/workers⌉)`.
    /// The split is a pure function of `(items, workers)`, so the initial
    /// ownership map is deterministic run to run.
    pub fn new(items: Vec<T>, workers: usize) -> StealQueues<T> {
        let workers = workers.max(1);
        let per = items.len().div_ceil(workers);
        let mut iter = items.into_iter();
        let queues = (0..workers)
            .map(|_| Mutex::new(iter.by_ref().take(per).collect::<VecDeque<T>>()))
            .collect();
        StealQueues { queues }
    }

    /// Number of worker deques.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Next task for `worker`: its own deque's front, or — once dry —
    /// the first of `⌈len/2⌉` tasks stolen from the tail of the nearest
    /// non-empty victim (scanning `worker+1, worker+2, …` cyclically).
    /// The remainder of the stolen batch is appended to the thief's own
    /// deque *after* the victim's lock is dropped, so no call ever holds
    /// two locks. Returns `None` only when every deque was observed
    /// empty, at which point this worker is done (another worker may
    /// still be draining tasks it already owns).
    pub fn pop(&self, worker: usize) -> Option<T> {
        if let Some(item) = lock(&self.queues[worker]).pop_front() {
            return Some(item);
        }
        let n = self.queues.len();
        for off in 1..n {
            let victim = (worker + off) % n;
            let mut stolen = {
                let mut vq = lock(&self.queues[victim]);
                let len = vq.len();
                if len == 0 {
                    continue;
                }
                // Steal half, rounded up so a 1-task victim still yields.
                vq.split_off(len - len.div_ceil(2))
                // Victim lock drops here, before the thief's own lock
                // below — steals never hold two deque locks at once.
            };
            let first = stolen.pop_front();
            if !stolen.is_empty() {
                lock(&self.queues[worker]).append(&mut stolen);
            }
            // `first` is always `Some`: the batch had ≥ 1 task and the
            // thief executes it itself, so no stolen task is ever lost
            // to a racing third worker.
            return first;
        }
        None
    }
}

/// Run every task of `items` exactly once across `workers` threads with
/// the steal policy above, calling `f(worker_index, task)`. Worker 0 runs
/// on the calling thread; `workers ≤ 1` (or a trivially small list)
/// degenerates to a plain in-order loop with no queues or threads at all
/// — the common single-core path stays allocation- and synchronisation-
/// free.
pub fn run_tasks<T, F>(items: Vec<T>, workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        for item in items {
            f(0, item);
        }
        return;
    }
    let workers = workers.min(items.len());
    let queues = StealQueues::new(items, workers);
    std::thread::scope(|scope| {
        for w in 1..workers {
            let queues = &queues;
            let f = &f;
            scope.spawn(move || {
                while let Some(item) = queues.pop(w) {
                    f(w, item);
                }
            });
        }
        while let Some(item) = queues.pop(0) {
            f(0, item);
        }
    });
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn distribution_is_contiguous_and_deterministic() {
        let q = StealQueues::new((0..10).collect(), 3);
        assert_eq!(q.workers(), 3);
        // ⌈10/3⌉ = 4: worker 0 gets 0..4, worker 1 gets 4..8, worker 2
        // the tail 8..10.
        let drain = |w: usize| {
            let mut got = Vec::new();
            while let Some(v) = lock(&q.queues[w]).pop_front() {
                got.push(v);
            }
            got
        };
        assert_eq!(drain(0), vec![0, 1, 2, 3]);
        assert_eq!(drain(1), vec![4, 5, 6, 7]);
        assert_eq!(drain(2), vec![8, 9]);
    }

    #[test]
    fn steal_takes_half_from_the_tail() {
        let q = StealQueues::new((0..8).collect(), 2);
        // Worker 1's own deque holds 4..8. Drain it, then steal: half of
        // worker 0's untouched 0..4 is its tail [2, 3].
        for want in 4..8 {
            assert_eq!(q.pop(1), Some(want));
        }
        assert_eq!(q.pop(1), Some(2), "steal returns the batch head");
        assert_eq!(q.pop(1), Some(3), "batch remainder lands on own deque");
        // The victim keeps its head...
        assert_eq!(q.pop(0), Some(0));
        assert_eq!(q.pop(0), Some(1));
        // ...and both sides drain to completion with nothing lost.
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn every_task_runs_exactly_once_any_worker_count() {
        for workers in [1usize, 2, 3, 8] {
            for n in [0usize, 1, 7, 64, 257] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                run_tasks((0..n).collect(), workers, |_w, i: usize| {
                    // ORDERING: independent per-task counters checked
                    // after the scope joins; Relaxed suffices.
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        1,
                        "task {i} of {n} ran != once at {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn a_task_panic_reaches_the_caller() {
        const N: usize = 16;
        for workers in [1usize, 2, 4] {
            // First task of the calling thread's range, then of the last
            // spawned worker's range (the split is ⌈N/workers⌉ per worker).
            for bad in [0, (workers - 1) * N.div_ceil(workers)] {
                let hits: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
                let caught = std::panic::catch_unwind(|| {
                    run_tasks((0..N).collect(), workers, |_w, i: usize| {
                        assert_ne!(i, bad, "injected task panic");
                        // ORDERING: per-task counters read after the join.
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    });
                });
                assert!(
                    caught.is_err(),
                    "panic in task {bad} at {workers} workers was lost"
                );
                if workers >= 2 {
                    for (i, h) in hits.iter().enumerate().filter(|&(i, _)| i != bad) {
                        assert_eq!(
                            h.load(Ordering::Relaxed),
                            1,
                            "task {i} ran != once after task {bad} panicked at {workers} workers"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn worker_indices_stay_in_range() {
        let seen = AtomicUsize::new(0);
        run_tasks((0..100).collect(), 4, |w, _i: usize| {
            assert!(w < 4);
            // ORDERING: max-tracking for a post-join assertion only.
            seen.fetch_max(w, Ordering::Relaxed);
        });
        assert!(seen.load(Ordering::Relaxed) < 4);
    }
}
