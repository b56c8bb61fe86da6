//! Exhaustive concurrency models for the leasing [`winrs_core::pool::WorkspacePool`],
//! checked with the vendored `loom` model checker.
//!
//! Compiled and run only under `RUSTFLAGS="--cfg loom"` (scripts/ci.sh
//! step 14 runs them next to `loom_models.rs`, sharing the separate
//! `target/loom` build cache):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p winrs-core --test pool_models --release
//! ```
//!
//! Under this cfg the pool's `crate::sync` shim swaps `std::sync::{Mutex,
//! Condvar}` for the model checker's, so every interleaving of
//! lease/wait/release/poison is explored through exactly the code
//! production runs. The three properties the chaos suite relies on:
//!
//! 1. **No double-lease** — two concurrent leaseholders of a one-slot
//!    pool never overlap (the slot is exclusive in every schedule).
//! 2. **Poisoned never re-issued without rebuild** — a slot poisoned by
//!    its holder reaches the next holder with a bumped rebuild
//!    generation (fresh arena), in every schedule.
//! 3. **Waiters observe returned slots** — a lease blocked on a full
//!    pool is woken by the release and completes; a stranded waiter
//!    would be reported by loom as a deadlock.
//!
//! The models use an `accounting` layout (no arena elements) so the
//! in-model `ensure` is free and the state space stays tractable. Real
//! in-model panics would fail the model, so the poison path is driven by
//! the explicit [`Lease::poison`] switch — production's unwind path sets
//! exactly the same flag from `Drop` (see `pool.rs`), and the chaos suite
//! covers the real-panic route.

#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use winrs_core::pool::{PoolConfig, WorkspacePool};
use winrs_core::{TunerConfig, WorkspaceLayout};

fn model_pool() -> Arc<WorkspacePool> {
    WorkspacePool::new(PoolConfig {
        slots: 1,
        // In-model waits never time out (wall time is not explorable);
        // the bound only has to be non-zero so the wait path is taken.
        max_wait: Duration::from_secs(3600),
        tuner: TunerConfig { capacity: 1 },
        ..PoolConfig::default()
    })
}

fn layout() -> WorkspaceLayout {
    WorkspaceLayout::winrs(0, 1, 0, 0, 0)
}

/// Properties 1 and 3: the sole slot is exclusive in every interleaving,
/// and the loser of the race is woken by the winner's release (a lost
/// wakeup would strand the waiter and trip loom's deadlock detection).
#[test]
fn one_slot_pool_is_exclusive_and_wakes_waiters() {
    loom::model(|| {
        let pool = model_pool();
        let held = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let held = Arc::clone(&held);
                loom::thread::spawn(move || {
                    let lease = pool.lease(&layout()).expect("in-model lease cannot time out");
                    // ORDERING: the lease's mutex already orders the two
                    // critical sections; the flag is a probe, not a lock.
                    // load/store (not an RMW) suffices: if two leases ever
                    // overlapped, some explored schedule interleaves one
                    // holder's load between the other's store(true) and
                    // store(false) and the assert fires.
                    assert!(
                        !held.load(Ordering::Relaxed),
                        "two live leases of a one-slot pool"
                    );
                    held.store(true, Ordering::Relaxed);
                    held.store(false, Ordering::Relaxed);
                    drop(lease);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let st = pool.stats();
        assert_eq!(st.leases, 2, "{st}");
        assert_eq!(st.in_use, 0, "every lease returned: {st}");
        assert_eq!(st.poisonings, 0, "{st}");
    });
}

/// Property 2: whatever order the two holders run in, a poisoned slot is
/// discarded and rebuilt (generation bump) before it is ever re-issued —
/// and the pool ends fully leasable with coherent counters.
#[test]
fn poisoned_slot_is_rebuilt_before_reissue() {
    loom::model(|| {
        let pool = model_pool();
        let poisoner = {
            let pool = Arc::clone(&pool);
            loom::thread::spawn(move || {
                let mut lease = pool.lease(&layout()).expect("lease");
                let gen = lease.generation();
                lease.poison();
                gen
            })
        };
        let bystander = {
            let pool = Arc::clone(&pool);
            loom::thread::spawn(move || {
                let lease = pool.lease(&layout()).expect("lease");
                lease.generation()
            })
        };
        let poisoned_gen = poisoner.join().unwrap();
        let seen_gen = bystander.join().unwrap();
        // The bystander ran either before the poisoning (same generation)
        // or after it (bumped) — never a stale in-between.
        assert!(
            seen_gen == poisoned_gen || seen_gen == poisoned_gen + 1,
            "bystander saw generation {seen_gen}, poisoner held {poisoned_gen}"
        );
        // After both holders are done the rebuild is definitely visible.
        let lease = pool.lease(&layout()).expect("pool stays leasable");
        assert_eq!(
            lease.generation(),
            poisoned_gen + 1,
            "poisoned slot re-issued without rebuild"
        );
        drop(lease);
        let st = pool.stats();
        assert_eq!((st.poisonings, st.rebuilds), (1, 1), "{st}");
        assert_eq!(st.leases, 3, "{st}");
        assert_eq!(st.in_use, 0, "{st}");
    });
}
