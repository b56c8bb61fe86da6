//! The dispatcher's synchronisation core: a bounded, budgeted,
//! key-coalescing job queue.
//!
//! [`DispatchQueue`] is the piece of the serve dispatcher that was
//! previously inlined in `server.rs`: a `Mutex<VecDeque>` + `Condvar`
//! pair where connection handlers admit jobs and a single dispatcher
//! thread drains same-key batches after holding a coalescing window open.
//! Extracting it behind the [`crate::sync`] shim lets the loom leg
//! (`tests/loom_dispatch.rs`) exhaustively model the exact production
//! handoff: no admitted job is lost, no wakeup miss can strand the
//! dispatcher, and a `max_jobs` budget drains to termination. The queue
//! also counts admitted jobs out once their responses are written
//! ([`DispatchQueue::settle`]), so teardown can wait for every response
//! ([`DispatchQueue::wait_settled`]).
//!
//! One deliberate strengthening over the inlined version: the shutdown
//! flag lives *inside* the mutex-protected state, not in a separate
//! atomic. With an outside flag, `shutdown()` could set the flag and
//! notify between the dispatcher's flag check and its `wait` — a missed
//! wakeup that only the 50 ms re-poll tick papered over. Under the lock
//! that window is gone, which is exactly what the loom model checks
//! (loom's `wait_timeout` never times out, so any wait that *needs* the
//! tick to make progress is reported as a deadlock).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::sync::{Condvar, Mutex, MutexGuard};

/// Idle re-poll tick while the queue is empty. Correctness never depends
/// on it (every `admit`/`shutdown` notifies under the lock); it only
/// bounds recovery time if a notification is lost to a crashed peer.
const IDLE_TICK: Duration = Duration::from_millis(50);

/// Why [`DispatchQueue::admit`] refused a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// [`DispatchQueue::shutdown`] was already requested. Refusing here
    /// (under the same lock the consumer's final empty-check takes) is
    /// what makes "no admitted job is ever lost" hold: without it a job
    /// could slip in after the consumer drained and exited, stranding its
    /// submitter forever.
    ShuttingDown,
    /// The `budget` admissions were already granted; the queue is
    /// draining toward termination and accepts nothing further.
    BudgetExhausted,
    /// `cap` jobs are already pending — backpressure, retry later.
    QueueFull,
}

struct Inner<K, T> {
    pending: VecDeque<(K, T)>,
    admitted: u64,
    /// Admitted jobs counted out by [`DispatchQueue::settle`].
    settled: u64,
    shutdown: bool,
}

/// A bounded multi-producer, single-consumer queue with admission budget
/// and same-key batch coalescing. `K` is the coalescing identity (jobs
/// with equal keys may share one dispatch); `T` is the job payload.
pub struct DispatchQueue<K, T> {
    inner: Mutex<Inner<K, T>>,
    work: Condvar,
    cap: usize,
    budget: Option<u64>,
}

impl<K: PartialEq + Copy, T> DispatchQueue<K, T> {
    /// A queue holding at most `cap` pending jobs that admits at most
    /// `budget` jobs over its lifetime (`None` = unbounded).
    pub fn new(cap: usize, budget: Option<u64>) -> DispatchQueue<K, T> {
        DispatchQueue {
            inner: Mutex::new(Inner {
                pending: VecDeque::new(),
                admitted: 0,
                settled: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            cap,
            budget,
        }
    }

    fn lock_inner(&self) -> MutexGuard<'_, Inner<K, T>> {
        // A producer that panicked mid-`admit` cannot leave the deque
        // structurally torn (push_back is the last statement under the
        // lock), so recovering the poisoned guard keeps the service up.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn wait_inner<'a>(
        &self,
        g: MutexGuard<'a, Inner<K, T>>,
        d: Duration,
    ) -> MutexGuard<'a, Inner<K, T>> {
        match self.work.wait_timeout(g, d) {
            Ok((g, _)) => g,
            Err(poisoned) => poisoned.into_inner().0,
        }
    }

    /// Admit one job, or refuse it with the reason. Checks run in
    /// severity order — shutdown, then budget, then capacity — so a
    /// budget-exhausted queue reports `BudgetExhausted` even when it also
    /// happens to be full.
    pub fn admit(&self, key: K, item: T) -> Result<(), AdmitError> {
        {
            let mut q = self.lock_inner();
            if q.shutdown {
                return Err(AdmitError::ShuttingDown);
            }
            if let Some(max) = self.budget {
                if q.admitted >= max {
                    return Err(AdmitError::BudgetExhausted);
                }
            }
            if q.pending.len() >= self.cap {
                return Err(AdmitError::QueueFull);
            }
            q.admitted += 1;
            q.pending.push_back((key, item));
        }
        self.work.notify_all();
        Ok(())
    }

    /// Jobs admitted so far (monotone; includes already-collected jobs).
    pub fn admitted(&self) -> u64 {
        self.lock_inner().admitted
    }

    /// Count one admitted job out: its response has been written, or the
    /// write failed. [`DispatchQueue::wait_settled`] waits for these.
    pub fn settle(&self) {
        self.lock_inner().settled += 1;
        self.work.notify_all();
    }

    /// Block until every admitted job has been counted out by
    /// [`DispatchQueue::settle`], or until `bound` has passed. Returns
    /// whether every admitted job settled.
    pub fn wait_settled(&self, bound: Duration) -> bool {
        let deadline = Instant::now() + bound;
        let mut q = self.lock_inner();
        while q.settled < q.admitted {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            q = self.wait_inner(q, left);
        }
        true
    }

    /// Request shutdown. Pending jobs still drain: [`DispatchQueue::collect`]
    /// keeps returning batches until the queue is empty and only then
    /// returns `None`.
    pub fn shutdown(&self) {
        self.lock_inner().shutdown = true;
        self.work.notify_all();
    }

    /// Block until work arrives, hold the coalescing `window` open for
    /// same-key arrivals, then drain every job sharing the head job's key
    /// (in admission order; different-key jobs keep their queue order).
    /// Returns `None` only when the queue is empty *and* shutdown was
    /// requested. Single-consumer: only one thread may call this.
    pub fn collect(&self, window: Duration) -> Option<Vec<T>> {
        let mut q = self.lock_inner();
        while q.pending.is_empty() {
            if q.shutdown {
                return None;
            }
            q = self.wait_inner(q, IDLE_TICK);
        }
        if !window.is_zero() {
            let opened = Instant::now();
            loop {
                let elapsed = opened.elapsed();
                // Shutdown merely closes the window early so queued jobs
                // drain promptly; it never drops them.
                if elapsed >= window || q.shutdown {
                    break;
                }
                q = self.wait_inner(q, window - elapsed);
            }
        }
        // Only the single consumer pops, so the queue is still non-empty.
        let head_key = q.pending.front()?.0;
        let mut batch = Vec::new();
        let mut rest = VecDeque::with_capacity(q.pending.len());
        for (key, item) in q.pending.drain(..) {
            if key == head_key {
                batch.push(item);
            } else {
                rest.push_back((key, item));
            }
        }
        q.pending = rest;
        Some(batch)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    const NOW: Duration = Duration::ZERO;

    #[test]
    fn coalesces_same_key_and_preserves_order() {
        let q: DispatchQueue<u8, &str> = DispatchQueue::new(16, None);
        assert_eq!(q.admit(1, "a1"), Ok(()));
        assert_eq!(q.admit(2, "b1"), Ok(()));
        assert_eq!(q.admit(1, "a2"), Ok(()));
        assert_eq!(q.admit(2, "b2"), Ok(()));
        assert_eq!(q.collect(NOW), Some(vec!["a1", "a2"]));
        assert_eq!(q.collect(NOW), Some(vec!["b1", "b2"]));
    }

    #[test]
    fn cap_refuses_with_queue_full() {
        let q: DispatchQueue<u8, u32> = DispatchQueue::new(2, None);
        assert_eq!(q.admit(0, 1), Ok(()));
        assert_eq!(q.admit(0, 2), Ok(()));
        assert_eq!(q.admit(0, 3), Err(AdmitError::QueueFull));
        // Draining frees capacity again.
        assert_eq!(q.collect(NOW), Some(vec![1, 2]));
        assert_eq!(q.admit(0, 3), Ok(()));
    }

    #[test]
    fn budget_refuses_before_cap_and_counts_admissions() {
        let q: DispatchQueue<u8, u32> = DispatchQueue::new(1, Some(2));
        assert_eq!(q.admit(0, 1), Ok(()));
        // Queue is full (cap 1) *and* budget has room: capacity wins.
        assert_eq!(q.admit(0, 2), Err(AdmitError::QueueFull));
        assert_eq!(q.collect(NOW), Some(vec![1]));
        assert_eq!(q.admit(0, 2), Ok(()));
        // Budget exhausted now dominates even though the queue is full.
        assert_eq!(q.admit(0, 3), Err(AdmitError::BudgetExhausted));
        assert_eq!(q.admitted(), 2);
    }

    #[test]
    fn shutdown_drains_pending_then_returns_none() {
        let q: DispatchQueue<u8, u32> = DispatchQueue::new(8, None);
        assert_eq!(q.admit(1, 10), Ok(()));
        assert_eq!(q.admit(2, 20), Ok(()));
        q.shutdown();
        // Nothing new gets in, but the queued jobs drain before `None`.
        assert_eq!(q.admit(3, 30), Err(AdmitError::ShuttingDown));
        assert_eq!(q.collect(NOW), Some(vec![10]));
        assert_eq!(q.collect(NOW), Some(vec![20]));
        assert_eq!(q.collect(NOW), None);
    }

    #[test]
    fn wait_settled_counts_admitted_jobs_out() {
        let q: Arc<DispatchQueue<u8, u32>> = Arc::new(DispatchQueue::new(8, None));
        assert!(q.wait_settled(NOW), "nothing admitted, nothing owed");
        assert_eq!(q.admit(1, 10), Ok(()));
        assert_eq!(q.admit(1, 11), Ok(()));
        assert_eq!(q.collect(NOW), Some(vec![10, 11]));
        q.settle();
        // One response is still owed: the wait gives up at its bound.
        assert!(!q.wait_settled(Duration::from_millis(20)));
        let writer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                q.settle();
            })
        };
        assert!(q.wait_settled(Duration::from_secs(10)));
        let _ = writer.join();
    }

    #[test]
    fn collect_blocks_until_an_admit_arrives() {
        let q: Arc<DispatchQueue<u8, u32>> = Arc::new(DispatchQueue::new(8, None));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                let _ = q.admit(7, 42);
            })
        };
        // Blocks across the producer's sleep, then returns its job.
        assert_eq!(q.collect(NOW), Some(vec![42]));
        let _ = producer.join();
    }

    #[test]
    fn window_waits_for_late_same_key_arrivals() {
        let q: Arc<DispatchQueue<u8, u32>> = Arc::new(DispatchQueue::new(8, None));
        assert_eq!(q.admit(3, 1), Ok(()));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(10));
                let _ = q.admit(3, 2);
            })
        };
        let batch = q.collect(Duration::from_millis(250));
        let _ = producer.join();
        assert_eq!(batch, Some(vec![1, 2]));
    }
}
