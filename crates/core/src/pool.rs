//! Resilient shared execution layer: a leasing [`WorkspacePool`] with one
//! shared per-shape cache, panic isolation, admission control, and per-call
//! deadlines — and [`ExecHandle`], the one way to dispatch a BFC.
//!
//! The paper's tiny-workspace property — `(Z−1)·|∇W|` per problem — makes
//! BFC state small enough to *pool*: a handful of [`Workspace`] arenas can
//! serve every layer of a training loop, or every request of a serving
//! process, instead of one arena per caller. This module is that shared
//! layer, built so shared state survives the three things that kill naive
//! pools:
//!
//! * **Panics** — [`ExecHandle::run`] executes the planned BFC under
//!   `catch_unwind`. A panic inside the fused block loop (the scheduler,
//!   `winrs_gemm::sched::run_tasks`, resumes worker panics on the caller)
//!   becomes a typed [`WinrsError::ExecutionPanicked`]; the half-written
//!   `∇W` is dropped during unwind and the leased workspace is
//!   **poisoned**: discarded and rebuilt fresh before the slot is leasable
//!   again, so no later caller can observe a partial write. Lease return
//!   is panic-driven too — [`Lease`]'s `Drop` detects unwinding and
//!   self-poisons, so even a panic *between* lease and execution cannot
//!   leak a dirty arena.
//! * **Exhaustion** — the pool holds a fixed number of slots. A lease
//!   request waits on a condvar up to a configurable budget, then fails
//!   with typed [`WinrsError::PoolExhausted`] backpressure instead of
//!   queueing unboundedly.
//! * **Slowness** — an optional deadline turns an over-budget call into
//!   [`WinrsError::DeadlineExceeded`], which the dispatcher degrades down
//!   the ladder WinRS → GEMM-BFC → direct. Every rung — the lease wait
//!   included — is charged against the *one* budget opened when the call
//!   entered [`ExecHandle::run`] (or, for a batched job, when the job was
//!   enqueued): a rung may start only while that window is still open, so
//!   a call can overrun its deadline by at most the runtime of the rung in
//!   flight (there is no mid-run cancellation) — never by rungs× the
//!   window. A budget that expires before a substitute rung starts
//!   surfaces as `DeadlineExceeded` naming the rung reached, so a serving
//!   caller gets a fast typed refusal instead of a late answer.
//!
//! Pool health (leases, waits, poisonings, rebuilds, exhaustions,
//! degradations) is a [`PoolStats`] snapshot stamped into every
//! [`ExecutionReport`], flowing through the same observability path as
//! [`crate::metrics::PhaseTimings`].
//!
//! The whole layer is driven by the seeded chaos harness in
//! [`crate::faults`]: deterministic campaigns inject panics, feigned slot
//! exhaustion, allocation-budget failures and artificial slowness at named
//! sites, and the chaos suite asserts every campaign ends in either a
//! bitwise-correct `∇W` or a typed error with the pool back to a clean,
//! fully-leasable state. Interleaving-level properties (no double-lease,
//! no dirty re-issue, waiter wakeup) are checked exhaustively by the loom
//! models in `tests/pool_models.rs`.

use crate::config::Precision;
use crate::engine::{apply_forced_width, operand_violations};
use crate::error::WinrsError;
use crate::fallback::{self, Algorithm, ExecutionReport, FallbackPolicy, NumericGuard};
use crate::metrics::PoolStats;
use crate::plan::WinRsPlan;
use crate::sync::{Condvar, Mutex};
use crate::tuner::{TuneDbWarning, Tuner, TunerConfig, TunerCounters, TunerDecision};
use crate::workspace::{Workspace, WorkspaceLayout};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use winrs_conv::ConvShape;
use winrs_gpu_sim::DeviceSpec;
use winrs_tensor::Tensor4;

/// Configuration for a [`WorkspacePool`].
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Number of workspace slots (concurrent leases). Clamped to ≥ 1.
    pub slots: usize,
    /// How long a lease request may wait for a slot before failing with
    /// [`WinrsError::PoolExhausted`].
    pub max_wait: Duration,
    /// The capacity of the pool's per-shape store, which holds each key's
    /// ranking, choice and plan.
    pub tuner: TunerConfig,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            // One lease per concurrent BFC *call* (each call parallelises
            // internally); four covers a training loop plus a couple of
            // background verifiers without over-provisioning arenas.
            slots: 4,
            max_wait: Duration::from_millis(100),
            tuner: TunerConfig::default(),
        }
    }
}

/// One pooled workspace plus its rebuild generation (bumped every time the
/// slot is poisoned and rebuilt — lets tests prove a dirty arena was
/// discarded, not recycled).
struct Slot {
    ws: Workspace,
    generation: u64,
}

/// Mutable pool state, all under one mutex. The counters are plain
/// integers rather than atomics on purpose: every update already happens
/// inside the state lock, and keeping them there makes the loom models
/// tractable (no extra scheduling points) while guaranteeing snapshot
/// consistency.
struct PoolState {
    free: Vec<Slot>,
    in_use: usize,
    leases: u64,
    waits: u64,
    poisonings: u64,
    rebuilds: u64,
    exhausted: u64,
    degradations: u64,
    cache_poisonings: u64,
}

/// A process-wide pool of reusable [`Workspace`] arenas with lease
/// semantics, plus the shared tuner whose per-key store caches the plans
/// the leased executions use.
///
/// [`WorkspacePool::lease`] hands out an *exclusive* workspace sized by
/// `Workspace::ensure`; the [`Lease`] returns it on drop, rebuilding it
/// fresh first if the leaseholder panicked (or called [`Lease::poison`]).
/// See the module docs for the full resilience model.
pub struct WorkspacePool {
    state: Mutex<PoolState>,
    /// Signalled whenever a slot returns to `free`.
    available: Condvar,
    cfg: PoolConfig,
    /// The dispatch authority and the one per-shape cache: ranks WinRS
    /// against its substitutes per shape/precision/device and keeps the
    /// ranking, the choice and the plan. Never taken while
    /// holding `state`.
    tuner: Mutex<Tuner>,
}

impl WorkspacePool {
    /// Build a pool with `cfg.slots` fresh workspaces.
    pub fn new(cfg: PoolConfig) -> Arc<WorkspacePool> {
        // Warm the one-time SIMD width probe here, off the hot path, so the
        // first leased execution never pays for CPUID sniffing and the
        // tuner's `device_key` sees a settled detection result.
        let _ = winrs_gemm::micro::detected_width();
        let slots = cfg.slots.max(1);
        let free = (0..slots)
            .map(|_| Slot {
                ws: Workspace::new(),
                generation: 0,
            })
            .collect();
        Arc::new(WorkspacePool {
            state: Mutex::new(PoolState {
                free,
                in_use: 0,
                leases: 0,
                waits: 0,
                poisonings: 0,
                rebuilds: 0,
                exhausted: 0,
                degradations: 0,
                cache_poisonings: 0,
            }),
            available: Condvar::new(),
            cfg: PoolConfig { slots, ..cfg },
            tuner: Mutex::new(Tuner::new(cfg.tuner)),
        })
    }

    /// Convenience constructor: `slots` slots, default wait budget.
    pub fn with_slots(slots: usize) -> Arc<WorkspacePool> {
        WorkspacePool::new(PoolConfig {
            slots,
            ..PoolConfig::default()
        })
    }

    /// The process-wide default pool (what [`crate::pool::ExecHandle`] and
    /// `winrs-nn` layers use unless given a private pool).
    pub fn global() -> &'static Arc<WorkspacePool> {
        static GLOBAL: OnceLock<Arc<WorkspacePool>> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkspacePool::new(PoolConfig::default()))
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    fn lock_state(&self) -> crate::sync::MutexGuard<'_, PoolState> {
        // A panic while holding the state lock cannot leave the counters
        // torn (every critical section is a handful of integer updates
        // with no unwind point), so recovering the poisoned guard is
        // sound — and required: the pool must stay serviceable after a
        // leaseholder dies.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Snapshot the pool counters, plan-cache hits and misses included.
    /// The tuner is read and released before the state lock is taken, so
    /// the tuner → state lock order holds.
    pub fn stats(&self) -> PoolStats {
        let (plan_hits, plan_misses) = self.plan_stats();
        let st = self.lock_state();
        PoolStats {
            slots: self.cfg.slots,
            in_use: st.in_use,
            leases: st.leases,
            waits: st.waits,
            poisonings: st.poisonings,
            rebuilds: st.rebuilds,
            exhausted: st.exhausted,
            degradations: st.degradations,
            cache_poisonings: st.cache_poisonings,
            plan_hits,
            plan_misses,
        }
    }

    /// Cumulative (hits, misses) of plan fetches from the per-shape store.
    /// The first fetch of a key is its miss; a re-fetch after eviction
    /// misses again.
    pub fn plan_stats(&self) -> (u64, u64) {
        self.lock_tuner().plan_stats()
    }

    /// Fetch a plan from the per-shape store. A cold key is ranked first,
    /// which builds its plan once. An FP16/BF16 key whose filter width has
    /// no reduced-precision kernel gets its FP32-tile plan (check
    /// [`WinRsPlan::tile_mode`]); a key outside the WinRS envelope returns
    /// its rejection.
    pub fn cached_plan(
        &self,
        shape: &ConvShape,
        device: &DeviceSpec,
        precision: Precision,
    ) -> Result<Arc<WinRsPlan>, WinrsError> {
        self.lock_tuner().plan(shape, device, precision)
    }

    fn lock_tuner(&self) -> crate::sync::MutexGuard<'_, Tuner> {
        match self.tuner.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                // The store's LRU bookkeeping has multi-step updates; a
                // store abandoned mid-update is discarded wholesale and
                // rebuilt by future lookups (counters and the tuning
                // database survive).
                let mut g = poisoned.into_inner();
                g.clear();
                // Lock order: tuner → state. No path takes state → tuner,
                // so holding both here cannot deadlock.
                self.lock_state().cache_poisonings += 1;
                g
            }
        }
    }

    /// Snapshot the tuner counters (decisions, db hits/misses, evictions).
    pub fn tuner_counters(&self) -> TunerCounters {
        self.lock_tuner().counters()
    }

    /// The tuner's standing database warning, delivered at most once per
    /// occurrence (see [`Tuner::warning_once`]) — what per-request pollers
    /// (the serve layer) use so one bad file logs one line.
    pub fn tuner_warning_once(&self) -> Option<TuneDbWarning> {
        self.lock_tuner().warning_once()
    }

    /// Attach a persistent tuning database at `path`, loading any existing
    /// entries. Returns the load warning, if the file was unreadable or
    /// malformed (dispatch continues from the cost model alone).
    pub fn attach_tune_db(&self, path: &std::path::Path) -> Option<TuneDbWarning> {
        self.lock_tuner().attach_db(path)
    }

    /// Persist the tuner's database to the attached tuning-database file.
    pub fn save_tune_db(&self) -> Result<(), TuneDbWarning> {
        self.lock_tuner().save()
    }

    /// Run `f` with exclusive access to the pool's tuner — the escape
    /// hatch for tooling (the CLI's `tune` subcommand) that needs richer
    /// access than the narrow accessors above.
    pub fn with_tuner<R>(&self, f: impl FnOnce(&mut Tuner) -> R) -> R {
        f(&mut self.lock_tuner())
    }

    /// Lease a workspace sized for `layout`, waiting up to the pool's
    /// configured budget. See [`WorkspacePool::lease_for`].
    pub fn lease(self: &Arc<Self>, layout: &WorkspaceLayout) -> Result<Lease, WinrsError> {
        self.lease_for(layout, self.cfg.max_wait)
    }

    /// Lease a workspace sized for `layout`, waiting up to `max_wait` for
    /// a free slot.
    ///
    /// Errors:
    /// * [`WinrsError::PoolExhausted`] — every slot stayed leased for the
    ///   whole wait (admission-control backpressure).
    /// * [`WinrsError::ExecutionRejected`] with
    ///   [`crate::Violation::WorkspaceTooSmall`] — the chaos harness's
    ///   allocation-budget site refused the arena growth; the untouched
    ///   slot is returned to the pool.
    pub fn lease_for(
        self: &Arc<Self>,
        layout: &WorkspaceLayout,
        max_wait: Duration,
    ) -> Result<Lease, WinrsError> {
        let start = Instant::now();
        let mut waited = false;
        let mut timed_out = false;
        let mut st = self.lock_state();
        loop {
            // The chaos site feigns "every slot leased" even when slots
            // are free, driving the exhaustion path deterministically.
            #[cfg(feature = "faults")]
            let feigned_full = crate::faults::fire_if_armed(crate::faults::Site::PoolSlotExhausted);
            #[cfg(not(feature = "faults"))]
            let feigned_full = false;

            if !feigned_full {
                if let Some(mut slot) = st.free.pop() {
                    st.in_use += 1;
                    st.leases += 1;
                    if waited {
                        st.waits += 1;
                    }
                    drop(st);
                    // Size the arena OUTSIDE the pool lock: `ensure` may
                    // allocate megabytes and must not serialise admission.
                    #[cfg(feature = "faults")]
                    if crate::faults::fire_if_armed(crate::faults::Site::AllocBudget) {
                        // Growth refused: hand the untouched slot straight
                        // back (not poisoned — nothing was written).
                        self.release(slot, false);
                        // The refusal fires before any growth, so the
                        // budget's view is "nothing was granted".
                        return Err(WinrsError::ExecutionRejected(vec![
                            crate::Violation::WorkspaceTooSmall {
                                needed_elems: layout.arena_elems(),
                                got_elems: 0,
                            },
                        ]));
                    }
                    slot.ws.ensure(layout);
                    return Ok(Lease {
                        pool: Arc::clone(self),
                        slot: Some(slot),
                        poisoned: false,
                    });
                }
            }

            // Re-derive the budget from the wall clock *after every*
            // wakeup: condvar wakeups may be spurious, so neither the
            // exhaustion check nor the remaining-wait computation may
            // reuse a stale `elapsed`. `checked_sub` (never bare `-`)
            // keeps a wakeup landing exactly on — or a hair past — the
            // deadline from underflowing the subtraction, and a wait
            // that *reported* timing out ends the attempt even if the
            // clock claims a sliver remains: retrying with a near-zero
            // budget would busy-spin the condvar past `max_wait`.
            let elapsed = start.elapsed();
            let remaining = max_wait.checked_sub(elapsed).unwrap_or(Duration::ZERO);
            if timed_out || remaining.is_zero() {
                st.exhausted += 1;
                drop(st);
                return Err(WinrsError::PoolExhausted {
                    slots: self.cfg.slots,
                    waited_ms: elapsed.as_millis() as u64,
                });
            }
            waited = true;
            // Inside a loom model `wait_timeout` never times out (wall
            // clocks are not explorable) — models must return slots to
            // wake their waiters, and a stranded waiter is reported as a
            // deadlock, which is exactly the bug it would be.
            st = match self.available.wait_timeout(st, remaining) {
                Ok((g, t)) => {
                    timed_out = t.timed_out();
                    g
                }
                Err(poisoned) => {
                    let (g, t) = poisoned.into_inner();
                    timed_out = t.timed_out();
                    g
                }
            };
        }
    }

    /// Return a slot to the free list, rebuilding it first when poisoned.
    /// Never panics (runs from [`Lease`]'s `Drop`, possibly mid-unwind).
    fn release(&self, mut slot: Slot, poison: bool) {
        if poison {
            // Discard the dirty arena wholesale. A fresh `Workspace` has
            // an empty arena and `ensure` zero-fills growth, so nothing a
            // panicking holder half-wrote can reach the next leaseholder.
            slot.ws = Workspace::new();
            slot.generation += 1;
        }
        let mut st = self.lock_state();
        if poison {
            st.poisonings += 1;
            st.rebuilds += 1;
        }
        st.in_use -= 1;
        st.free.push(slot);
        drop(st);
        // notify_all, not notify_one: a woken waiter can lose the race to
        // a barging new arrival and must re-wait; waking everyone makes
        // that starvation-free (and keeps the loom model free of lost-
        // wakeup corner cases).
        self.available.notify_all();
    }

    /// Count one rung taken on the degradation ladder.
    pub(crate) fn note_degradation(&self) {
        self.lock_state().degradations += 1;
    }
}

/// An exclusive lease on one pooled [`Workspace`].
///
/// Dropping the lease returns the workspace to the pool. If the thread is
/// unwinding when the drop runs — the leaseholder panicked — the lease
/// self-poisons: the workspace is discarded and rebuilt fresh before the
/// slot becomes leasable again. [`Lease::poison`] forces the same
/// treatment explicitly (used by [`ExecHandle`], which catches the panic
/// and therefore drops the lease from non-unwinding code, and by loom
/// models, where real in-model panics would fail the whole model).
pub struct Lease {
    pool: Arc<WorkspacePool>,
    slot: Option<Slot>,
    poisoned: bool,
}

impl Lease {
    /// The leased workspace.
    pub fn workspace(&mut self) -> &mut Workspace {
        match self.slot.as_mut() {
            Some(s) => &mut s.ws,
            // The slot is vacated only by Drop, which consumes the lease.
            // winrs-audit: allow(error-hygiene) — structurally unreachable.
            None => unreachable!("lease slot vacated before drop"),
        }
    }

    /// Rebuild generation of the leased slot (bumps on every poisoning —
    /// proof that a poisoned arena was discarded, not recycled).
    pub fn generation(&self) -> u64 {
        self.slot.as_ref().map_or(0, |s| s.generation)
    }

    /// Mark the leased workspace as corrupt: on drop it will be discarded
    /// and rebuilt fresh instead of returned as-is.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            // `thread::panicking()` catches holders that never had the
            // chance to call `poison()` — the unwind itself is the signal.
            let poison = self.poisoned || std::thread::panicking();
            self.pool.release(slot, poison);
        }
    }
}

/// A Send-safe batched BFC job descriptor: owned operand tensors plus the
/// admission bookkeeping a serving layer needs. Jobs with the same
/// `(ConvShape, Precision)` key can be coalesced into one
/// [`ExecHandle::run_batch`] dispatch, amortising shape validation, the
/// tuner decision, the plan fetch and the workspace lease across the
/// whole batch while every job keeps its own operands, deadline and
/// report.
pub struct BfcJob {
    /// Input feature maps `X`, `[n, ih, iw, ic]`.
    pub x: Tensor4<f32>,
    /// Output gradients `∇Y`, `[n, oh, ow, oc]`.
    pub dy: Tensor4<f32>,
    /// When the job entered the system. Queue wait is charged against the
    /// job's deadline from this instant, so time spent coalescing counts.
    pub enqueued: Instant,
    /// Per-job deadline measured from [`enqueued`]: a job whose budget has
    /// already expired when its turn comes is refused with
    /// [`WinrsError::DeadlineExceeded`] instead of executed late, and the
    /// rest of the budget bounds its lease wait and degradation rungs.
    ///
    /// [`enqueued`]: BfcJob::enqueued
    pub deadline: Option<Duration>,
}

impl BfcJob {
    /// A job entering the system now, with no deadline.
    pub fn new(x: Tensor4<f32>, dy: Tensor4<f32>) -> BfcJob {
        BfcJob {
            x,
            dy,
            enqueued: Instant::now(),
            deadline: None,
        }
    }

    /// Set (or clear) the per-job deadline.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> BfcJob {
        self.deadline = deadline;
        self
    }

    fn budget(&self) -> Budget {
        Budget {
            start: self.enqueued,
            deadline: self.deadline,
        }
    }
}

/// The deadline window one job draws from: opened at `start` and shared
/// by every rung the job visits (lease wait included).
#[derive(Clone, Copy)]
struct Budget {
    start: Instant,
    deadline: Option<Duration>,
}

impl Budget {
    /// Fail once the window has closed. `rung` names the degradation rung
    /// about to run (None on the primary path), surfaced on the error so
    /// callers see how far the ladder got.
    fn check(&self, rung: Option<&'static str>) -> Result<(), WinrsError> {
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        let elapsed = self.start.elapsed();
        if elapsed >= deadline {
            Err(WinrsError::DeadlineExceeded {
                deadline_ms: deadline.as_millis() as u64,
                elapsed_ms: elapsed.as_millis() as u64,
                rung,
            })
        } else {
            Ok(())
        }
    }

    /// The longest a lease may wait: the pool's budget, capped at what
    /// remains of the window.
    fn lease_wait(&self, max_wait: Duration) -> Duration {
        match self.deadline {
            Some(d) => max_wait.min(d.saturating_sub(self.start.elapsed())),
            None => max_wait,
        }
    }
}

/// What the jobs of one dispatch share: the setup's wall time (charged to
/// the job that fetches the plan — on a cold key the tuner's ranking built
/// it), the WinRS plan (fetched by the first job to reach the WinRS rung)
/// and the workspace lease (re-acquired only after a panic poisoned it).
struct Shared {
    setup_s: f64,
    plan: Option<Result<Arc<WinRsPlan>, WinrsError>>,
    lease: Option<Lease>,
}

/// A Send + Sync handle that runs planned BFC executions over pool leases
/// with panic isolation, deadlines and the degradation ladder.
///
/// Cloning is cheap (one `Arc` bump); clones share the pool and its
/// per-shape cache, so a serving layer can hand one handle to every worker
/// thread.
#[derive(Clone)]
pub struct ExecHandle {
    pool: Arc<WorkspacePool>,
    device: DeviceSpec,
    precision: Precision,
    policy: FallbackPolicy,
    guard: NumericGuard,
    deadline: Option<Duration>,
}

impl ExecHandle {
    /// A handle over `pool` for the given device and precision, with the
    /// default policy (`Auto`), guard (`Warn`) and no deadline.
    pub fn new(pool: Arc<WorkspacePool>, device: DeviceSpec, precision: Precision) -> ExecHandle {
        ExecHandle {
            pool,
            device,
            precision,
            policy: FallbackPolicy::default(),
            guard: NumericGuard::default(),
            deadline: None,
        }
    }

    /// Set the fallback policy.
    pub fn with_policy(mut self, policy: FallbackPolicy) -> ExecHandle {
        self.policy = policy;
        self
    }

    /// Set the numeric guard.
    pub fn with_guard(mut self, guard: NumericGuard) -> ExecHandle {
        self.guard = guard;
        self
    }

    /// Set (or clear) the per-call deadline of [`ExecHandle::run`]. The
    /// window opens when `run` is entered and is shared by the lease wait
    /// and *every* rung of the degradation ladder: once it expires no
    /// further rung may start, and the call fails with
    /// [`WinrsError::DeadlineExceeded`] naming the rung reached. Batched
    /// jobs carry their own [`BfcJob::deadline`] instead.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> ExecHandle {
        self.deadline = deadline;
        self
    }

    /// The pool this handle leases from.
    pub fn pool(&self) -> &Arc<WorkspacePool> {
        &self.pool
    }

    /// Dispatch one BFC problem through a pool lease: panics surface as
    /// [`WinrsError::ExecutionPanicked`], pool pressure as
    /// [`WinrsError::PoolExhausted`], deadline expiry as
    /// [`WinrsError::DeadlineExceeded`] — and under the `Auto` policy all
    /// three degrade down the tuner's ranked ladder (WinRS → GEMM-BFC →
    /// direct) instead of surfacing. The report carries [`PoolStats`] (the
    /// per-shape cache's counters included) and the tuner's dispatch stats.
    ///
    /// Which algorithm runs is decided by the pool's shared [`Tuner`]:
    /// under `Auto` the full ranked candidate list is in play (the tuner
    /// may pick a substitute outright when the host cost model, the tuning
    /// database or a committed measurement says WinRS is slower); `Strict`
    /// filters the list down to WinRS alone; `Force` replaces it with one
    /// pinned entry (`Force(WinRs)` runs exactly like `Strict`). The policy
    /// layer never reorders candidates. All three run the key's one WinRS
    /// plan — FP32 tiles for an FP16/BF16 key with no reduced-precision
    /// kernel.
    pub fn run(
        &self,
        conv: &ConvShape,
        x: &Tensor4<f32>,
        dy: &Tensor4<f32>,
    ) -> Result<(Tensor4<f32>, ExecutionReport), WinrsError> {
        // The deadline window opens here and is shared by every rung the
        // call may visit — planning, the lease wait and every degradation
        // draw from this one budget.
        let budget = Budget {
            start: Instant::now(),
            deadline: self.deadline,
        };
        let (decision, mut shared) = self.setup(conv)?;
        let out = self.run_job(conv, x, dy, budget, decision.as_ref(), &mut shared);
        // Return the lease before the pool snapshot is taken.
        drop(shared);
        out.map(|done| self.stamp(done))
    }

    /// Dispatch a coalesced batch of same-shape jobs through *one* shared
    /// setup: shape validation, the tuner decision, the plan fetch and the
    /// workspace lease each happen once for the whole batch — the
    /// serving-side analogue of Winograd's batch reuse of transformed
    /// operands. Every job keeps its own operands, deadline and
    /// [`ExecutionReport`], and runs the same per-job routine as
    /// [`ExecHandle::run`], so numerics are identical to single dispatch.
    ///
    /// Two batch-specific notes: a job whose deadline expired while it
    /// waited (coalescing window, queue) is refused with
    /// [`WinrsError::DeadlineExceeded`] before any work, and the setup and
    /// plan fetch are charged to the `plan_s` of the job that fetched the
    /// plan. A panic poisons the shared lease exactly like the single-job
    /// path; the batch re-leases for the remaining jobs.
    pub fn run_batch(
        &self,
        conv: &ConvShape,
        jobs: Vec<BfcJob>,
    ) -> Vec<Result<(Tensor4<f32>, ExecutionReport), WinrsError>> {
        let (decision, mut shared) = match self.setup(conv) {
            Ok(setup) => setup,
            Err(err) => return jobs.iter().map(|_| Err(err.clone())).collect(),
        };
        jobs.iter()
            .map(|job| {
                let budget = job.budget();
                budget.check(None)?;
                self.run_job(
                    conv,
                    &job.x,
                    &job.dy,
                    budget,
                    decision.as_ref(),
                    &mut shared,
                )
                .map(|done| self.stamp(done))
            })
            .collect()
    }

    /// The per-dispatch setup: reject ill-formed shapes (fatal for every
    /// rung) before touching the pool, then ask the tuner — only `Auto`
    /// consults it: `Strict` and `Force(WinRs)` pin WinRS regardless of
    /// ranking and `Force` pins its substitute otherwise, so skipping the
    /// call keeps their dispatch free of decision and trial churn.
    fn setup(&self, conv: &ConvShape) -> Result<(Option<TunerDecision>, Shared), WinrsError> {
        let t_setup = Instant::now();
        WinrsError::check_shape(conv)?;
        let decision = (self.policy == FallbackPolicy::Auto).then(|| {
            self.pool
                .lock_tuner()
                .decide(conv, &self.device, self.precision)
        });
        let shared = Shared {
            setup_s: t_setup.elapsed().as_secs_f64(),
            plan: None,
            lease: None,
        };
        Ok((decision, shared))
    }

    /// One job: the operand and width-pin check, the Force branch, the
    /// tuner's choice, the WinRS rung and the degrade rung. `decision` is
    /// present exactly under `Auto`. Mis-shaped operands and an
    /// unavailable `WINRS_FORCE_WIDTH` pin are refused before any rung
    /// runs, so no policy leases, degrades or computes on them, and a
    /// valid pin reaches the substitutes' GEMM tiles too.
    fn run_job(
        &self,
        conv: &ConvShape,
        x: &Tensor4<f32>,
        dy: &Tensor4<f32>,
        budget: Budget,
        decision: Option<&TunerDecision>,
        shared: &mut Shared,
    ) -> Result<(Tensor4<f32>, ExecutionReport), WinrsError> {
        let mut violations = operand_violations(conv, x, dy);
        violations.extend(apply_forced_width().err());
        if !violations.is_empty() {
            return Err(WinrsError::ExecutionRejected(violations));
        }
        // Forced by the caller — not a fallback, so no reason recorded.
        // `Force(WinRs)` is not a substitute: it takes the WinRS rung below
        // with no tuner decision, exactly like `Strict`.
        if let FallbackPolicy::Force(
            alg @ (Algorithm::GemmBfc | Algorithm::FftBfc | Algorithm::Direct),
        ) = self.policy
        {
            return Ok(fallback::run_substitute(
                alg,
                conv,
                x,
                dy,
                self.precision,
                self.guard,
            ));
        }
        if let Some(d) = decision.filter(|d| d.chosen != Algorithm::WinRs) {
            return Ok(self.run_chosen_substitute(conv, x, dy, d));
        }
        let outcome = self.try_winrs(conv, x, dy, budget, shared);
        // Strict and Force(WinRs): WinRS or the typed error, nothing
        // substituted.
        let Some(decision) = decision else {
            return outcome;
        };
        match outcome {
            Ok((dw, mut report)) => {
                report.chosen = decision.chosen;
                report.tuner = Some(decision.stats);
                Ok((dw, report))
            }
            Err(err) if err.recoverable_by_fallback() || err.recoverable_by_degradation() => {
                self.run_degraded(conv, x, dy, err, decision, budget)
            }
            Err(err) => Err(err),
        }
    }

    /// The tuner chose a substitute over WinRS. If WinRS was *rejected*
    /// (outside its envelope) this is a fallback: it counts as a
    /// degradation and records the rejection as the report's reason. If
    /// WinRS was viable but predicted (or measured) slower, it is a pure
    /// performance choice — no degradation, no fallback reason.
    fn run_chosen_substitute(
        &self,
        conv: &ConvShape,
        x: &Tensor4<f32>,
        dy: &Tensor4<f32>,
        decision: &TunerDecision,
    ) -> (Tensor4<f32>, ExecutionReport) {
        if decision.winrs_rejection.is_some() {
            self.pool.note_degradation();
        }
        let (dw, mut report) =
            fallback::run_substitute(decision.chosen, conv, x, dy, self.precision, self.guard);
        report.tuner = Some(decision.stats);
        report.fallback_reason = decision.winrs_rejection.clone();
        (dw, report)
    }

    /// Rung 1: the WinRS engine over a pool lease, under `catch_unwind`.
    /// The plan and the lease come from `shared` when an earlier job of
    /// the dispatch already fetched them.
    fn try_winrs(
        &self,
        conv: &ConvShape,
        x: &Tensor4<f32>,
        dy: &Tensor4<f32>,
        budget: Budget,
        shared: &mut Shared,
    ) -> Result<(Tensor4<f32>, ExecutionReport), WinrsError> {
        // Standing chaos slowness lands here, ahead of the deadline check,
        // exactly like a slow dependency would.
        #[cfg(feature = "faults")]
        crate::faults::maybe_slow(crate::faults::Site::SlowBlockLoop);
        budget.check(None)?;

        let t_plan = Instant::now();
        let plan = shared
            .plan
            .get_or_insert_with(|| self.pool.cached_plan(conv, &self.device, self.precision))
            .clone()?;
        let plan_s = t_plan.elapsed().as_secs_f64() + std::mem::take(&mut shared.setup_s);

        let lease = match shared.lease.take() {
            Some(lease) => lease,
            None => self.pool.lease_for(
                plan.workspace_layout(),
                budget.lease_wait(self.pool.config().max_wait),
            )?,
        };
        let lease = shared.lease.insert(lease);
        budget.check(None)?;

        // The panic boundary. `AssertUnwindSafe` is sound here because
        // nothing crossing the boundary is reused on the panic path: the
        // half-written ∇W is allocated inside and dropped by the unwind,
        // and the leased workspace is poisoned (discarded + rebuilt), so
        // no broken invariant can be observed afterwards.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut dw = Tensor4::<f32>::zeros([conv.oc, conv.fh, conv.fw, conv.ic]);
            fallback::run_planned_into(&plan, x, dy, self.guard, lease.workspace(), &mut dw)
                .map(|report| (dw, report))
        }));
        match outcome {
            Ok(Ok((dw, mut report))) => {
                // The plan may run FP32 tiles for an FP16/BF16 request; the
                // report names the caller's precision and, in `tiles`, the
                // mode that ran.
                report.requested_precision = self.precision;
                report.timing.plan_s = plan_s;
                report.timing.total_s += plan_s;
                Ok((dw, report))
            }
            // Typed rejections leave the arena no dirtier than a normal
            // run (each execution stores into the buckets it owns before
            // anything reads them), so the lease stays clean and shared.
            Ok(Err(err)) => Err(err),
            Err(payload) => {
                if let Some(mut poisoned) = shared.lease.take() {
                    poisoned.poison();
                }
                Err(WinrsError::ExecutionPanicked {
                    site: panic_site(payload),
                })
            }
        }
    }

    /// The lower rungs: WinRS started (or was chosen) but failed, so take
    /// the first rung of the tuner's ranked substitute ladder. The rung is
    /// charged against the job's *shared* budget: it may begin only while
    /// that window is still open. A budget that has already expired
    /// refuses the rung with [`WinrsError::DeadlineExceeded`] naming it —
    /// degradation may overrun the deadline by one rung's runtime (there
    /// is no mid-run cancellation), never by rungs× the window.
    fn run_degraded(
        &self,
        conv: &ConvShape,
        x: &Tensor4<f32>,
        dy: &Tensor4<f32>,
        reason: WinrsError,
        decision: &TunerDecision,
        budget: Budget,
    ) -> Result<(Tensor4<f32>, ExecutionReport), WinrsError> {
        self.pool.note_degradation();
        let choice = decision
            .degradation_ladder()
            .first()
            .copied()
            .unwrap_or(Algorithm::Direct);
        // Admission before work: the budget check precedes the rung's
        // standing chaos slowness, so a rung that would start late is
        // refused instead of paying its (possibly slow) execution only to
        // deliver past the deadline anyway.
        budget.check(Some(choice.name()))?;
        // Standing slowness delays the surviving rung too, exactly like a
        // slow substitute kernel would.
        #[cfg(feature = "faults")]
        crate::faults::maybe_slow(crate::faults::Site::SlowBlockLoop);
        let (dw, mut report) =
            fallback::run_substitute(choice, conv, x, dy, self.precision, self.guard);
        report.chosen = decision.chosen;
        report.tuner = Some(decision.stats);
        // The recorded reason is the *first* cause — why WinRS did not
        // deliver; the degradations counter says how far the ladder ran.
        report.fallback_reason = Some(reason);
        Ok((dw, report))
    }

    /// Stamp the pool snapshot (the per-shape cache's counters included)
    /// into a report, whatever path produced it.
    fn stamp(
        &self,
        (dw, mut report): (Tensor4<f32>, ExecutionReport),
    ) -> (Tensor4<f32>, ExecutionReport) {
        report.pool = Some(self.pool.stats());
        (dw, report)
    }
}

/// Best-effort human-readable panic location/payload for the typed error.
fn panic_site(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "fused block loop (non-string panic payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::ChoiceSource;
    use winrs_conv::direct;
    use winrs_gpu_sim::RTX_4090;
    use winrs_tensor::mare;

    fn small_layout() -> WorkspaceLayout {
        WorkspaceLayout::winrs(0, 1, 16, 1, 0)
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExecHandle>();
        assert_send_sync::<WorkspacePool>();
        fn assert_send<T: Send>() {}
        assert_send::<BfcJob>();
    }

    #[test]
    fn run_batch_amortises_setup_and_matches_single_runs_bitwise() {
        // Three same-shape jobs through one batched dispatch: one tuner
        // decision, one plan miss, ONE lease for the whole batch — and
        // every job's ∇W bit-identical to its own single-job dispatch.
        let conv = ConvShape::square(1, 16, 8, 8, 3);
        let jobs: Vec<BfcJob> = (0..3)
            .map(|i| {
                BfcJob::new(
                    Tensor4::<f32>::random_uniform([1, 16, 16, 8], 200 + i, 1.0),
                    Tensor4::<f32>::random_uniform([1, 16, 16, 8], 300 + i, 1.0),
                )
            })
            .collect();
        let singles: Vec<Tensor4<f32>> = jobs
            .iter()
            .map(|j| {
                let handle =
                    ExecHandle::new(WorkspacePool::with_slots(1), RTX_4090, Precision::Fp32);
                handle.run(&conv, &j.x, &j.dy).unwrap().0
            })
            .collect();

        let pool = WorkspacePool::with_slots(2);
        let handle = ExecHandle::new(Arc::clone(&pool), RTX_4090, Precision::Fp32);
        let results = handle.run_batch(&conv, jobs);
        assert_eq!(results.len(), 3);
        for (res, reference) in results.into_iter().zip(&singles) {
            let (dw, report) = res.unwrap();
            assert_eq!(report.algorithm, Algorithm::WinRs);
            assert_eq!(&dw, reference, "batched dispatch changed the numerics");
            assert!(report.pool.is_some(), "per-job pool stats");
        }
        let st = pool.stats();
        assert_eq!(st.leases, 1, "one lease amortised over the batch: {st}");
        let (hits, misses) = pool.plan_stats();
        assert_eq!((hits, misses), (0, 1), "one plan fetch for the batch");
        assert_eq!(pool.tuner_counters().decisions, 1, "one decision for the batch");
    }

    #[test]
    fn run_batch_refuses_expired_jobs_and_delivers_the_rest() {
        let conv = ConvShape::square(1, 16, 8, 8, 3);
        let x = Tensor4::<f32>::random_uniform([1, 16, 16, 8], 210, 1.0);
        let dy = Tensor4::<f32>::random_uniform([1, 16, 16, 8], 211, 1.0);
        let expired = BfcJob::new(x.clone(), dy.clone())
            .with_deadline(Some(Duration::ZERO));
        let healthy = BfcJob::new(x, dy).with_deadline(Some(Duration::from_secs(30)));
        let handle = ExecHandle::new(WorkspacePool::with_slots(1), RTX_4090, Precision::Fp32);
        let mut results = handle.run_batch(&conv, vec![expired, healthy]).into_iter();
        let first = results.next().unwrap();
        assert!(
            matches!(first, Err(WinrsError::DeadlineExceeded { rung: None, .. })),
            "queue-expired job refused before any work"
        );
        let (_, report) = results.next().unwrap().unwrap();
        assert_eq!(report.algorithm, Algorithm::WinRs, "healthy job unaffected");
    }

    #[test]
    fn lease_round_trip_updates_counters() {
        let pool = WorkspacePool::with_slots(2);
        let layout = small_layout();
        {
            let mut lease = pool.lease(&layout).unwrap();
            assert!(lease.workspace().fits(&layout));
            let st = pool.stats();
            assert_eq!((st.in_use, st.leases), (1, 1));
        }
        let st = pool.stats();
        assert_eq!(st.in_use, 0);
        assert_eq!(st.leases, 1);
        assert_eq!(st.poisonings, 0);
    }

    #[test]
    fn exhausted_pool_reports_typed_backpressure() {
        let pool = WorkspacePool::new(PoolConfig {
            slots: 1,
            max_wait: Duration::from_millis(5),
            ..PoolConfig::default()
        });
        let layout = small_layout();
        let _held = pool.lease(&layout).unwrap();
        let err = match pool.lease(&layout) {
            Err(e) => e,
            Ok(_) => panic!("second lease must be refused"),
        };
        assert!(matches!(err, WinrsError::PoolExhausted { slots: 1, .. }), "{err}");
        assert_eq!(pool.stats().exhausted, 1);
    }

    #[test]
    fn waiter_acquires_after_release() {
        let pool = WorkspacePool::new(PoolConfig {
            slots: 1,
            max_wait: Duration::from_secs(5),
            ..PoolConfig::default()
        });
        let layout = small_layout();
        let lease = pool.lease(&layout).unwrap();
        let p2 = Arc::clone(&pool);
        let waiter = std::thread::spawn(move || {
            let layout = WorkspaceLayout::winrs(0, 1, 16, 1, 0);
            p2.lease(&layout).map(|_| ()).is_ok()
        });
        // Give the waiter time to park, then release.
        std::thread::sleep(Duration::from_millis(20));
        drop(lease);
        assert!(waiter.join().unwrap(), "waiter must get the returned slot");
        let st = pool.stats();
        assert_eq!(st.leases, 2);
        assert_eq!(st.in_use, 0);
        assert!(st.waits >= 1, "the second lease should have waited: {st}");
    }

    #[test]
    fn explicit_poison_rebuilds_the_slot() {
        let pool = WorkspacePool::with_slots(1);
        let layout = small_layout();
        let gen_before;
        {
            let mut lease = pool.lease(&layout).unwrap();
            gen_before = lease.generation();
            lease.workspace().ensure(&layout);
            lease.poison();
        }
        let st = pool.stats();
        assert_eq!((st.poisonings, st.rebuilds), (1, 1));
        let lease = pool.lease(&layout).unwrap();
        assert_eq!(lease.generation(), gen_before + 1, "rebuilt, not recycled");
    }

    #[test]
    fn panicking_holder_poisons_on_unwind() {
        let pool = WorkspacePool::with_slots(1);
        let layout = small_layout();
        let p2 = Arc::clone(&pool);
        let result = std::thread::spawn(move || {
            let layout = WorkspaceLayout::winrs(0, 1, 16, 1, 0);
            let _lease = p2.lease(&layout).unwrap();
            // winrs-audit: allow(error-hygiene) — deliberate test panic.
            panic!("holder dies with the lease live");
        })
        .join();
        assert!(result.is_err());
        let st = pool.stats();
        assert_eq!((st.in_use, st.poisonings, st.rebuilds), (0, 1, 1));
        // The pool is fully leasable again.
        drop(pool.lease(&layout).unwrap());
    }

    #[test]
    fn exec_handle_matches_run_planned_into_bitwise() {
        // The pool lease must not change numerics: the WinRS rung runs the
        // store's plan through the guarded executor, bit-identical to
        // calling it directly with a private workspace.
        let conv = ConvShape::square(2, 16, 4, 4, 3);
        let x64 = Tensor4::<f64>::random_uniform([2, 16, 16, 4], 71, 1.0);
        let dy64 = Tensor4::<f64>::random_uniform([2, 16, 16, 4], 72, 1.0);
        let (x, dy): (Tensor4<f32>, Tensor4<f32>) = (x64.cast(), dy64.cast());
        let pool = WorkspacePool::with_slots(2);
        let handle = ExecHandle::new(Arc::clone(&pool), RTX_4090, Precision::Fp32);
        let (dw, report) = handle.run(&conv, &x, &dy).unwrap();
        assert_eq!(report.algorithm, Algorithm::WinRs);
        let plan = pool.cached_plan(&conv, &RTX_4090, Precision::Fp32).unwrap();
        let mut dw_ref = Tensor4::<f32>::zeros([conv.oc, conv.fh, conv.fw, conv.ic]);
        fallback::run_planned_into(
            &plan,
            &x,
            &dy,
            NumericGuard::Warn,
            &mut Workspace::new(),
            &mut dw_ref,
        )
        .unwrap();
        assert_eq!(dw, dw_ref, "pool lease changed the numerics");
        let exact = direct::bfc_direct(&conv, &x64, &dy64);
        assert!(mare(&dw, &exact) < 1e-5);
        // The report carries the pool snapshot and shared-cache counters.
        let stats = report.pool.unwrap();
        assert_eq!((stats.leases, stats.in_use), (1, 0));
        assert_eq!((stats.plan_hits, stats.plan_misses), (0, 1));
        assert!(report.summary_line().contains("pool["), "{}", report.summary_line());
    }

    #[test]
    fn substitute_dispatch_matches_the_conv_kernel_bitwise() {
        let conv = ConvShape::square(1, 12, 2, 3, 3);
        let x = Tensor4::<f32>::random_uniform([1, 12, 12, 2], 73, 1.0);
        let dy = Tensor4::<f32>::random_uniform([1, 12, 12, 3], 74, 1.0);
        let handle = ExecHandle::new(WorkspacePool::with_slots(1), RTX_4090, Precision::Fp32);
        for (alg, reference) in [
            (
                Algorithm::GemmBfc,
                winrs_conv::gemm_bfc::bfc_gemm_f32(
                    winrs_conv::gemm_bfc::GemmAlgo::Algo1,
                    &conv,
                    &x,
                    &dy,
                ),
            ),
            (
                Algorithm::FftBfc,
                winrs_conv::fft_bfc::bfc_fft(&conv, &x, &dy),
            ),
            (Algorithm::Direct, direct::bfc_direct(&conv, &x, &dy)),
        ] {
            let (dw, report) = handle
                .clone()
                .with_policy(FallbackPolicy::Force(alg))
                .run(&conv, &x, &dy)
                .unwrap();
            assert_eq!(report.algorithm, alg);
            assert_eq!(
                dw,
                reference,
                "{} dispatch changed the numerics",
                alg.name()
            );
        }
    }

    #[test]
    fn parsed_policies_and_guards_drive_the_handle() {
        let conv = ConvShape::square(1, 12, 8, 8, 3);
        let x = Tensor4::<f32>::random_uniform([1, 12, 12, 8], 75, 1.0);
        let dy = Tensor4::<f32>::random_uniform([1, 12, 12, 8], 76, 1.0);
        for (policy, want) in [
            ("strict", Algorithm::WinRs),
            ("auto", Algorithm::WinRs),
            ("force-winrs", Algorithm::WinRs),
            ("force-gemm", Algorithm::GemmBfc),
            ("force-fft", Algorithm::FftBfc),
            ("force-direct", Algorithm::Direct),
        ] {
            let handle = ExecHandle::new(WorkspacePool::with_slots(1), RTX_4090, Precision::Fp32)
                .with_policy(policy.parse().unwrap())
                .with_guard("promote-retry".parse().unwrap());
            let (_, report) = handle.run(&conv, &x, &dy).unwrap();
            assert_eq!(report.algorithm, want, "policy {policy}");
            assert_eq!(report.guard, NumericGuard::PromoteAndRetry);
        }
        // One spelling per guard: the short form is refused.
        let err = "promote".parse::<NumericGuard>().unwrap_err();
        assert!(err.contains("ignore | warn | promote-retry"), "{err}");
        assert!("gibberish".parse::<FallbackPolicy>().is_err());
        assert!("gibberish".parse::<NumericGuard>().is_err());
    }

    /// Binary16 overflow on real data: ∇Y magnitudes near f16's max blow up
    /// in the filter transform.
    fn overflowing_fp16_problem() -> (ConvShape, Tensor4<f64>, Tensor4<f64>) {
        let conv = ConvShape::square(1, 12, 2, 2, 3);
        let x64 = Tensor4::<f64>::random_uniform([1, 12, 12, 2], 51, 1.0);
        let dy64 = Tensor4::<f64>::random_uniform([1, 12, 12, 2], 52, 6.0e4);
        (conv, x64, dy64)
    }

    #[test]
    fn warn_guard_counts_natural_fp16_overflow() {
        let (conv, x64, dy64) = overflowing_fp16_problem();
        // Strict pins WinRS: on this micro shape the host model prefers a
        // substitute, which has no FP16 tiles to overflow.
        let handle = ExecHandle::new(WorkspacePool::with_slots(1), RTX_4090, Precision::Fp16)
            .with_policy(FallbackPolicy::Strict);
        let (dw, report) = handle.run(&conv, &x64.cast(), &dy64.cast()).unwrap();
        assert_eq!(report.algorithm, Algorithm::WinRs);
        assert!(report.saturated > 0);
        assert!(report.non_finite > 0);
        assert!(report.tainted(), "Warn counts but does not repair");
        assert!(dw.as_slice().iter().any(|v| !v.is_finite()));
    }

    #[test]
    fn promote_and_retry_repairs_natural_fp16_overflow() {
        let (conv, x64, dy64) = overflowing_fp16_problem();
        let exact = direct::bfc_direct(&conv, &x64, &dy64);
        let handle = ExecHandle::new(WorkspacePool::with_slots(1), RTX_4090, Precision::Fp16)
            .with_policy(FallbackPolicy::Strict)
            .with_guard(NumericGuard::PromoteAndRetry);
        let (dw, report) = handle.run(&conv, &x64.cast(), &dy64.cast()).unwrap();
        assert_eq!(report.algorithm, Algorithm::WinRs);
        assert!(report.saturated > 0, "test needs real overflow");
        assert!(report.promoted_buckets > 0);
        assert!(!report.tainted());
        assert!(dw.as_slice().iter().all(|v| v.is_finite()));
        // Promoted buckets ran at FP32 on FP32 inputs; any bucket left at
        // FP16 stays inside the Table 4 FP16 accuracy band.
        let m = mare(&dw, &exact);
        assert!(m < 5e-3, "MARE {m}");
        assert!(
            report.summary_line().contains("promoted="),
            "{}",
            report.summary_line()
        );
    }

    #[test]
    fn exec_handle_zero_allocation_warm_path() {
        // PR 2's zero-allocation guarantee must survive the lease layer:
        // after the first call warms the slot, later calls grow nothing.
        let conv = ConvShape::square(1, 16, 2, 2, 3);
        let x = Tensor4::<f32>::random_uniform([1, 16, 16, 2], 81, 1.0);
        let dy = Tensor4::<f32>::random_uniform([1, 16, 16, 2], 82, 1.0);
        // Strict pins WinRS, which the host model does not pick this small.
        let handle = ExecHandle::new(WorkspacePool::with_slots(1), RTX_4090, Precision::Fp32)
            .with_policy(FallbackPolicy::Strict);
        let (_, r1) = handle.run(&conv, &x, &dy).unwrap();
        assert_eq!(r1.mem.hot_loop_allocs, 0);
        let mut lease = handle.pool().lease(&small_layout()).unwrap();
        let grows_after_warmup = lease.workspace().grows();
        drop(lease);
        let (_, r2) = handle.run(&conv, &x, &dy).unwrap();
        assert_eq!(r2.mem.hot_loop_allocs, 0);
        let mut lease = handle.pool().lease(&small_layout()).unwrap();
        assert_eq!(
            lease.workspace().grows(),
            grows_after_warmup,
            "warm path must not grow the pooled arena"
        );
        let pool = r2.pool.unwrap();
        assert_eq!((pool.plan_hits, pool.plan_misses), (1, 1));
    }

    /// An FP16 request whose filter width has no FP16 kernel runs WinRS on
    /// FP32 tiles under every WinRS-running policy: the store's one plan
    /// for the key, handed out by `cached_plan` too, with no degradation.
    #[test]
    fn exec_handle_unported_fp16_width_runs_fp32_tiles() {
        use crate::engine::TileMode;
        let conv = ConvShape::square(1, 16, 3, 3, 4); // no FP16 kernel
        let x = Tensor4::<f32>::random_uniform([1, conv.ih, conv.iw, conv.ic], 91, 1.0);
        let dy = Tensor4::<f32>::random_uniform([1, conv.oh(), conv.ow(), conv.oc], 92, 0.01);
        let pool = WorkspacePool::with_slots(1);
        for policy in [
            FallbackPolicy::Auto,
            FallbackPolicy::Strict,
            FallbackPolicy::Force(Algorithm::WinRs),
        ] {
            let handle =
                ExecHandle::new(Arc::clone(&pool), RTX_4090, Precision::Fp16).with_policy(policy);
            let (_, report) = handle.run(&conv, &x, &dy).unwrap();
            assert_eq!(report.algorithm, Algorithm::WinRs, "{policy:?}");
            assert_eq!(report.requested_precision, Precision::Fp16);
            assert_eq!(report.tiles, Some(TileMode::Fp32));
            assert!(report.fallback_reason.is_none());
            assert_eq!(report.pool.unwrap().degradations, 0);
        }
        let plan = pool.cached_plan(&conv, &RTX_4090, Precision::Fp16).unwrap();
        assert_eq!(plan.tile_mode(), TileMode::Fp32);
        assert_eq!(pool.plan_stats(), (3, 1), "one plan for the key");
    }

    /// Strict surfaces a runtime failure as its typed error: with the
    /// pool's only slot held, the WinRS rung's lease is refused and nothing
    /// is substituted.
    #[test]
    fn strict_policy_propagates_runtime_errors() {
        let conv = ConvShape::square(1, 16, 3, 3, 4);
        let x = Tensor4::<f32>::random_uniform([1, conv.ih, conv.iw, conv.ic], 93, 1.0);
        let dy = Tensor4::<f32>::random_uniform([1, conv.oh(), conv.ow(), conv.oc], 94, 0.01);
        let pool = WorkspacePool::new(PoolConfig {
            slots: 1,
            max_wait: Duration::from_millis(5),
            ..PoolConfig::default()
        });
        let _held = pool.lease(&small_layout()).unwrap();
        let handle = ExecHandle::new(Arc::clone(&pool), RTX_4090, Precision::Fp16)
            .with_policy(FallbackPolicy::Strict);
        let err = handle.run(&conv, &x, &dy).unwrap_err();
        assert!(matches!(err, WinrsError::PoolExhausted { .. }), "{err}");
        assert!(err.recoverable_by_degradation(), "{err}");
        assert_eq!(pool.stats().degradations, 0, "Strict substitutes nothing");
    }

    #[test]
    fn zero_deadline_refuses_every_rung_with_shared_budget() {
        // Regression (PR 8): pre-fix, each ladder rung opened a *fresh*
        // deadline window, so a zero deadline still delivered via direct
        // after burning rungs× the budget. With one shared budget the
        // expired window refuses degradation outright, naming the rung
        // that could not start.
        let conv = ConvShape::square(1, 12, 8, 8, 3);
        let x = Tensor4::<f32>::random_uniform([1, 12, 12, 8], 95, 1.0);
        let dy = Tensor4::<f32>::random_uniform([1, 12, 12, 8], 96, 1.0);
        let pool = WorkspacePool::with_slots(1);
        let handle = ExecHandle::new(Arc::clone(&pool), RTX_4090, Precision::Fp32)
            .with_deadline(Some(Duration::ZERO));
        let err = handle.run(&conv, &x, &dy).unwrap_err();
        match err {
            WinrsError::DeadlineExceeded { rung, .. } => {
                assert!(rung.is_some(), "the refused degradation names its rung");
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        // The ladder was *entered* (counted) but the rung never ran.
        assert_eq!(pool.stats().degradations, 1);

        // Strict policy surfaces the typed error from the primary path,
        // before any ladder rung is in play.
        let strict = ExecHandle::new(WorkspacePool::with_slots(1), RTX_4090, Precision::Fp32)
            .with_policy(FallbackPolicy::Strict)
            .with_deadline(Some(Duration::ZERO));
        let err = strict.run(&conv, &x, &dy).unwrap_err();
        assert!(
            matches!(err, WinrsError::DeadlineExceeded { rung: None, .. }),
            "{err}"
        );

        // A generous deadline still delivers WinRS untouched.
        let relaxed = ExecHandle::new(WorkspacePool::with_slots(1), RTX_4090, Precision::Fp32)
            .with_deadline(Some(Duration::from_secs(30)));
        let (dw, report) = relaxed.run(&conv, &x, &dy).unwrap();
        assert_eq!(report.algorithm, Algorithm::WinRs);
        let x64: Tensor4<f64> = x.cast();
        let dy64: Tensor4<f64> = dy.cast();
        let exact = direct::bfc_direct(&conv, &x64, &dy64);
        assert!(mare(&dw, &exact) < 1e-5);
    }

    #[test]
    fn contended_wait_neither_underflows_nor_spins_past_budget() {
        // Regression (PR 8): a wakeup landing near the deadline used to
        // feed an unclamped `max_wait - elapsed` back into `wait_timeout`
        // and ignored the timed-out flag, so a barging releaser could keep
        // a loser re-waiting on slivers past its budget. The waiter must
        // come back with typed backpressure in ~max_wait even while the
        // slot churns.
        let max_wait = Duration::from_millis(40);
        let pool = WorkspacePool::new(PoolConfig {
            slots: 1,
            max_wait,
            ..PoolConfig::default()
        });
        let layout = small_layout();

        // Churner: grab-and-drop the sole slot in a tight loop. Every drop
        // notifies the parked waiter, who races the churner's immediate
        // re-lease and usually loses — a stream of wakeups with (almost)
        // nothing to take, each of which re-derives the waiter's remaining
        // budget.
        let p2 = Arc::clone(&pool);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let churner = std::thread::spawn(move || {
            let layout = WorkspaceLayout::winrs(0, 1, 16, 1, 0);
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                if let Ok(l) = p2.lease_for(&layout, Duration::ZERO) {
                    drop(l);
                }
            }
        });

        // Whether a given attempt wins a slot or exhausts is a race; the
        // invariant is that *every* attempt comes back within its budget
        // (plus scheduler slack), and typed exhaustion never claims to
        // have waited much longer than asked.
        for _ in 0..5 {
            let t0 = Instant::now();
            let res = pool.lease_for(&layout, max_wait);
            let waited = t0.elapsed();
            assert!(
                waited < max_wait * 3,
                "lease attempt spun past its wait budget: {waited:?}"
            );
            if let Err(err) = res {
                match err {
                    WinrsError::PoolExhausted { waited_ms, .. } => assert!(
                        waited_ms <= max_wait.as_millis() as u64 + 40,
                        "over-reported wait: {waited_ms} ms"
                    ),
                    other => panic!("expected PoolExhausted, got {other}"),
                }
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        churner.join().unwrap();
    }

    #[test]
    fn exec_handle_honours_pure_tuner_choice() {
        // On this micro shape the host model prefers direct convolution
        // (the smallest fixed cost per call) even though WinRS is
        // perfectly viable: dispatch must follow the tuner as a pure
        // performance choice — the substitute runs, nothing "degrades".
        let conv = ConvShape::square(1, 8, 2, 2, 3);
        let x = Tensor4::<f32>::random_uniform([1, conv.ih, conv.iw, conv.ic], 97, 1.0);
        let dy = Tensor4::<f32>::random_uniform([1, conv.oh(), conv.ow(), conv.oc], 98, 0.1);
        let handle = ExecHandle::new(WorkspacePool::with_slots(1), RTX_4090, Precision::Fp32);
        let (dw, report) = handle.run(&conv, &x, &dy).unwrap();
        assert_eq!(report.algorithm, Algorithm::Direct);
        assert_eq!(report.chosen, Algorithm::Direct);
        assert!(report.fallback_reason.is_none(), "a choice is not a fallback");
        assert_eq!(report.pool.as_ref().unwrap().degradations, 0);
        let stats = report.tuner.unwrap();
        assert_eq!(stats.source, ChoiceSource::Model);
        assert!(
            report.summary_line().contains("tuner[chosen=direct"),
            "{}",
            report.summary_line()
        );
        let x64: Tensor4<f64> = x.cast();
        let dy64: Tensor4<f64> = dy.cast();
        let exact = direct::bfc_direct(&conv, &x64, &dy64);
        assert!(mare(&dw, &exact) < 1e-5);
    }

    #[test]
    fn one_store_holds_choice_and_plan_at_the_tuner_capacity() {
        // One LRU per pool: three distinct shapes through a 2-deep store
        // evict once, and the evicted key's plan misses again.
        let pool = WorkspacePool::new(PoolConfig {
            tuner: TunerConfig { capacity: 2 },
            ..PoolConfig::default()
        });
        let handle = ExecHandle::new(Arc::clone(&pool), RTX_4090, Precision::Fp32);
        let shape = |res| ConvShape::square(1, res, 8, 8, 3);
        for res in [12usize, 14, 16] {
            let conv = shape(res);
            let x = Tensor4::<f32>::random_uniform([1, res, res, 8], 99, 1.0);
            let dy = Tensor4::<f32>::random_uniform([1, conv.oh(), conv.ow(), 8], 100, 1.0);
            let (_, report) = handle.run(&conv, &x, &dy).unwrap();
            assert_eq!(report.algorithm, Algorithm::WinRs);
        }
        let c = pool.tuner_counters();
        assert_eq!(c.decisions, 3);
        assert_eq!(c.evictions, 1, "3 shapes through a 2-deep store");
        assert_eq!(pool.plan_stats(), (0, 3));
        // The survivors hit; the evicted key is ranked and planned afresh.
        pool.cached_plan(&shape(16), &RTX_4090, Precision::Fp32)
            .unwrap();
        assert_eq!(pool.plan_stats(), (1, 3));
        pool.cached_plan(&shape(12), &RTX_4090, Precision::Fp32)
            .unwrap();
        assert_eq!(pool.plan_stats(), (1, 4));
        assert_eq!(pool.tuner_counters().evictions, 2);
    }

    #[test]
    fn poisoned_store_is_cleared_and_counted() {
        let pool = WorkspacePool::with_slots(1);
        let conv = ConvShape::square(1, 12, 2, 2, 3);
        let first = pool.cached_plan(&conv, &RTX_4090, Precision::Fp32).unwrap();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.with_tuner(|_| {
                // winrs-audit: allow(error-hygiene) — deliberate test panic.
                panic!("holder dies with the store lock held")
            })
        }))
        .is_err());
        let again = pool.cached_plan(&conv, &RTX_4090, Precision::Fp32).unwrap();
        assert!(
            !Arc::ptr_eq(&first, &again),
            "the poisoned store was rebuilt"
        );
        assert_eq!(pool.plan_stats(), (0, 2), "the cleared key misses again");
        assert!(pool.stats().cache_poisonings >= 1);
    }

    #[test]
    fn run_batch_lease_wait_honours_the_job_deadline() {
        // Regression: batched jobs leased with the pool's full `max_wait`
        // whatever their deadline, so a 20 ms job waited 2 s for a slot.
        let pool = WorkspacePool::new(PoolConfig {
            slots: 1,
            max_wait: Duration::from_secs(2),
            ..PoolConfig::default()
        });
        let _held = pool.lease(&small_layout()).unwrap();
        let conv = ConvShape::square(1, 16, 8, 8, 3);
        let job = BfcJob::new(
            Tensor4::<f32>::random_uniform([1, 16, 16, 8], 212, 1.0),
            Tensor4::<f32>::random_uniform([1, 16, 16, 8], 213, 1.0),
        )
        .with_deadline(Some(Duration::from_millis(20)));
        let handle = ExecHandle::new(Arc::clone(&pool), RTX_4090, Precision::Fp32);
        let t0 = Instant::now();
        let result = handle.run_batch(&conv, vec![job]).pop().unwrap();
        let elapsed = t0.elapsed();
        assert!(
            matches!(result, Err(WinrsError::DeadlineExceeded { .. })),
            "{:?}",
            result.map(|(_, r)| r.algorithm)
        );
        assert!(elapsed < Duration::from_millis(500), "waited {elapsed:?}");
    }

    /// An entry like the one `winrs tune --measure 3` writes — the measured
    /// argmin, its mean and `trials = 3` — on a key the model gives to
    /// WinRS decides a fresh pool's dispatch: the stored algorithm runs,
    /// with `source = db` and the entry's `measured_s`.
    #[test]
    fn fresh_pool_dispatches_a_measured_database_entry() {
        let path = std::env::temp_dir().join(format!(
            "winrs-pool-measured-db-{}.json",
            std::process::id()
        ));
        let conv = ConvShape::square(1, 16, 8, 8, 3);
        let x = Tensor4::<f32>::random_uniform([1, conv.ih, conv.iw, conv.ic], 101, 1.0);
        let dy = Tensor4::<f32>::random_uniform([1, conv.oh(), conv.ow(), conv.oc], 102, 1.0);
        let model = crate::tuner::rank(&conv, &RTX_4090, Precision::Fp32);
        assert_eq!(model[0].algo, Algorithm::WinRs, "the model's pick");
        let mut db = crate::tuner::TuneDb::new();
        db.insert(
            &crate::tuner::device_key(&RTX_4090),
            &conv,
            Precision::Fp32,
            crate::tuner::TunedEntry {
                algo: Algorithm::GemmBfc,
                predicted_s: 1.0e-4,
                measured_s: Some(2.5e-4),
                trials: 3,
            },
        );
        db.save(&path).unwrap();

        let pool = WorkspacePool::with_slots(1);
        assert!(pool.attach_tune_db(&path).is_none());
        let handle = ExecHandle::new(Arc::clone(&pool), RTX_4090, Precision::Fp32);
        for _ in 0..3 {
            let (_, report) = handle.run(&conv, &x, &dy).unwrap();
            assert_eq!(report.algorithm, Algorithm::GemmBfc);
            assert!(report.fallback_reason.is_none(), "not a fallback");
            let stats = report.tuner.unwrap();
            assert_eq!(stats.source, ChoiceSource::Database);
            assert_eq!(stats.measured_s, Some(2.5e-4));
            let line = report.summary_line();
            assert!(line.contains("src=db pred=") && line.contains("meas=0.250ms]"), "{line}");
        }
        let c = pool.tuner_counters();
        assert_eq!((c.decisions, c.db_hits, c.db_misses), (3, 1, 0));
        let _ = std::fs::remove_file(&path);
    }
}
