//! Exhaustive concurrency models for the serve dispatcher's queue core,
//! checked with the vendored `loom` model checker.
//!
//! Compiled and run only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p winrs-serve --test loom_dispatch --release
//! ```
//!
//! (`scripts/ci.sh` runs exactly that, alongside the pool/steal-queue
//! models.) Under this cfg `winrs-serve`'s `crate::sync` shim swaps
//! `std::sync` for the model checker, so [`winrs_serve::DispatchQueue`]
//! is explored through exactly the code production runs.
//!
//! The models pin the four properties the coalescing dispatcher needs:
//!
//! * **No lost jobs** — every successfully admitted job comes out of
//!   exactly one collected batch, across every producer/consumer
//!   interleaving.
//! * **No wakeup-miss deadlock** — the shutdown flag lives inside the
//!   queue's mutex, so `shutdown()` can never slip between the
//!   dispatcher's empty-check and its wait. Loom's `wait_timeout` never
//!   times out, so any schedule that *needs* the production re-poll tick
//!   to make progress is reported as a stranded-waiter deadlock.
//! * **Budget drain terminates** — with `max_jobs` set, admissions beyond
//!   the budget are refused and the dispatcher reaches `None` once the
//!   budget has drained.
//! * **Teardown waits for every response** — `wait_settled`, which
//!   `Server::join` calls, returns once every admitted job is counted out
//!   and never strands its waiter.

#![cfg(loom)]

use std::time::Duration;

use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::Arc;
use loom::thread;
use winrs_serve::{AdmitError, DispatchQueue};

/// Two producers race the consumer: every admitted job is collected
/// exactly once, same-key jobs may coalesce, and the post-shutdown drain
/// loses nothing. The coalescing window is zero in the model — wall-clock
/// windows are not explorable, and the window only *extends* a batch.
#[test]
fn no_lost_jobs_across_interleavings() {
    loom::model(|| {
        let q: Arc<DispatchQueue<u8, u32>> = Arc::new(DispatchQueue::new(4, None));
        let producers: Vec<_> = [(0u8, 1u32), (0u8, 2u32)]
            .into_iter()
            .map(|(key, val)| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.admit(key, val).is_ok())
            })
            .collect();

        let mut seen: Vec<u32> = Vec::new();
        // Collect until both producers' jobs surfaced, then shut down and
        // drain. Bounded: each iteration either collects ≥ 1 job or the
        // queue was empty after a join — no unbounded spinning for loom.
        for h in producers {
            let admitted = h.join().unwrap();
            assert!(admitted, "cap 4 can never refuse 2 jobs");
        }
        while seen.len() < 2 {
            let batch = q.collect(Duration::ZERO).expect("jobs admitted, not shut down");
            assert!(!batch.is_empty());
            seen.extend(batch);
        }
        q.shutdown();
        assert_eq!(q.collect(Duration::ZERO), None, "drained queue ends the dispatcher");
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2], "every admitted job collected exactly once");
    });
}

/// The wakeup-miss schedule: the consumer blocks on an *empty* queue
/// while one producer admits and another thread requests shutdown. Every
/// interleaving must end with the consumer holding the job and then
/// observing `None` — a missed notification would strand the consumer in
/// `wait` and loom would report the deadlock.
#[test]
fn shutdown_races_cannot_strand_the_dispatcher() {
    loom::model(|| {
        let q: Arc<DispatchQueue<u8, u32>> = Arc::new(DispatchQueue::new(2, None));
        let producer = {
            let q = Arc::clone(&q);
            // Racing the stopper, admission either lands before the
            // shutdown flag (and then MUST be dispatched) or is refused
            // with `ShuttingDown` — silent loss is the bug being modelled.
            thread::spawn(move || q.admit(0, 7).is_ok())
        };
        let stopper = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.shutdown())
        };
        // The consumer drains to `None`; a missed notification here is a
        // stranded `wait` that loom reports as a deadlock.
        let mut seen = 0u32;
        while let Some(batch) = q.collect(Duration::ZERO) {
            seen += batch.len() as u32;
        }
        let admitted = producer.join().unwrap();
        stopper.join().unwrap();
        assert_eq!(
            seen,
            u32::from(admitted),
            "an admitted job is dispatched; a refused one never appears"
        );
        assert_eq!(q.collect(Duration::ZERO), None);
    });
}

/// Budget semantics under contention: with `max_jobs = 1`, exactly one of
/// two racing producers is admitted, the loser sees `BudgetExhausted`
/// (never a lost wakeup, never a phantom admission), and the dispatcher
/// terminates after draining the single budgeted job.
#[test]
fn budget_drain_terminates() {
    loom::model(|| {
        let q: Arc<DispatchQueue<u8, u32>> = Arc::new(DispatchQueue::new(2, Some(1)));
        let producers: Vec<_> = [10u32, 20u32]
            .into_iter()
            .map(|val| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.admit(0, val))
            })
            .collect();
        let outcomes: Vec<_> = producers.into_iter().map(|h| h.join().unwrap()).collect();
        let admitted = outcomes.iter().filter(|r| r.is_ok()).count();
        assert_eq!(admitted, 1, "budget 1 admits exactly one of two producers");
        assert!(
            outcomes.contains(&Err(AdmitError::BudgetExhausted)),
            "the refused producer sees the budget, not the cap"
        );
        let batch = q.collect(Duration::ZERO).expect("one job was admitted");
        assert_eq!(batch.len(), 1);
        q.shutdown();
        assert_eq!(q.collect(Duration::ZERO), None, "budget drained: dispatcher exits");
    });
}

/// Teardown: `Server::join` waits in `wait_settled` while the handler of
/// the last of two drained jobs counts it out after writing. Every
/// interleaving must wake the waiter once both are counted out — loom
/// never times a wait out, so a missed notification is a reported
/// deadlock — and one settled job of two must not end the wait.
#[test]
fn settled_wait_wakes_once_every_admitted_job_is_counted_out() {
    loom::model(|| {
        let q: Arc<DispatchQueue<u8, u32>> = Arc::new(DispatchQueue::new(2, Some(2)));
        assert_eq!(q.admit(0, 1), Ok(()));
        assert_eq!(q.admit(0, 2), Ok(()));
        assert_eq!(q.collect(Duration::ZERO), Some(vec![1, 2]));
        q.shutdown();
        q.settle(); // the first job's handler has written
        let written = Arc::new(AtomicBool::new(false));
        let second = {
            let (q, written) = (Arc::clone(&q), Arc::clone(&written));
            thread::spawn(move || {
                written.store(true, Ordering::SeqCst);
                q.settle();
            })
        };
        assert!(q.wait_settled(Duration::from_secs(60)));
        assert!(written.load(Ordering::SeqCst), "wait ended before the last write");
        second.join().unwrap();
    });
}
