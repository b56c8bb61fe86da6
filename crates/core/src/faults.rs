//! Deterministic fault injection for the engine (feature `faults`).
//!
//! Robustness claims need reproducible faults: "an FP16 overflow in
//! segment 3" must mean the *same* overflow every run, on every machine.
//! This module gives tests a process-global injector with two layers:
//!
//! * **Numeric faults** — the engine polls [`maybe_inject`] once per
//!   filter-tile load (between the FP32 transform and the
//!   reduced-precision re-rounding — exactly where a real overflow is
//!   born): arm it with a set of segment indices, and the *first* tile
//!   each armed segment loads gets one element replaced by `10³⁰`, which
//!   saturates the binary16/E4M3 grid to Inf/NaN and poisons that
//!   segment's bucket. One-shot per segment, and a no-op in `Fp32` mode —
//!   FP32 re-rounding is the identity, so there is no rounding step to
//!   corrupt and the FP32 retry of a poisoned bucket must come out clean.
//!
//! * **Chaos faults** — named [`Site`]s in the resilient execution layer
//!   ([`crate::pool`]): an injected panic inside the fused block loop, a
//!   feigned slot-exhausted pool, a failed workspace allocation budget,
//!   and artificial slowness for deadline pressure. Armed sites stay armed
//!   until disarmed (a persistent condition, not a single event); each
//!   site's first firing is recorded so a failure report can name exactly
//!   which faults materialised.
//!
//! [`campaign`] derives a whole fault scenario deterministically from one
//! `u64` seed via a splitmix64 stream, so any chaos-test failure is
//! replayable from a single integer (`winrs verify --fault-seed N`).
//!
//! The state is process-global, so tests that use it must serialise on
//! [`serial_guard`] — and every test that arms it lives in the `chaos`
//! integration binary (`crates/core/tests/chaos.rs`), never among this
//! crate's unit tests, whose engine and pool tests poll the hooks without
//! holding the guard. Nothing in this module exists unless the `faults`
//! feature is enabled, and even when compiled in, every hook first checks
//! one relaxed atomic and returns immediately while nothing is armed.

use crate::engine::TileMode;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// A named chaos-injection site in the resilient execution layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Site {
    /// Panic raised from inside the fused block loop, on the first tile a
    /// worker processes after arming — exercises the `catch_unwind`
    /// boundary and lease poisoning in [`crate::pool::ExecHandle`].
    HotLoopPanic,
    /// Pool admission pretends every slot is leased, so `lease` waits out
    /// its budget and reports `PoolExhausted` — exercises backpressure.
    PoolSlotExhausted,
    /// Workspace sizing inside the lease fails its allocation budget —
    /// exercises the typed `WorkspaceTooSmall` rejection path.
    AllocBudget,
    /// Artificial latency injected ahead of the block loop — exercises
    /// deadline expiry and the degradation ladder.
    SlowBlockLoop,
    /// Tuning-database writes emit a torn (truncated) document — exercises
    /// the loader's corrupt-file path: the next process must fall back to
    /// pure cost-model dispatch with a typed [`crate::TuneDbWarning`].
    TuneDbTorn,
    /// Tuning-database writes leave a zero-byte file, modelling a crash
    /// between `create` and the first write — exercises the loader's
    /// empty-file path: warn-and-continue, repaired by the next save.
    TuneDbEmpty,
}

impl Site {
    /// All chaos sites, in declaration order (the chaos-site inventory).
    pub const ALL: [Site; 6] = [
        Site::HotLoopPanic,
        Site::PoolSlotExhausted,
        Site::AllocBudget,
        Site::SlowBlockLoop,
        Site::TuneDbTorn,
        Site::TuneDbEmpty,
    ];

    /// The sites a seeded campaign may select as its primary injection:
    /// the execution-path sites only. The `TuneDb*` sites fire on a
    /// database *save*, which a campaign's execute-and-verify run never
    /// performs, so including them would yield no-op campaigns — and
    /// keeping them out preserves the historical seed → scenario mapping
    /// (`winrs verify --fault-seed N` replays from before the site existed).
    pub const EXECUTION: [Site; 4] = [
        Site::HotLoopPanic,
        Site::PoolSlotExhausted,
        Site::AllocBudget,
        Site::SlowBlockLoop,
    ];
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Site::HotLoopPanic => "hot-loop-panic",
            Site::PoolSlotExhausted => "pool-slot-exhausted",
            Site::AllocBudget => "alloc-budget",
            Site::SlowBlockLoop => "slow-block-loop",
            Site::TuneDbTorn => "tune-db-torn",
            Site::TuneDbEmpty => "tune-db-empty",
        })
    }
}

#[derive(Default)]
struct State {
    /// Segment indices still awaiting their numeric fault.
    armed: BTreeSet<usize>,
    /// Segment indices whose numeric fault has fired.
    fired: BTreeSet<usize>,
    /// Chaos sites currently armed (persistent until disarmed).
    sites: BTreeSet<Site>,
    /// Chaos sites that have fired at least once since arming.
    fired_sites: BTreeSet<Site>,
    /// Injected latency for [`Site::SlowBlockLoop`], in milliseconds.
    slow_ms: u64,
}

/// Fast-path gate: true only while *something* (segments or sites) is
/// armed. Lets the per-tile engine hook skip the mutex entirely in the
/// overwhelmingly common disarmed case, so compiling the feature in does
/// not tax the hot loop.
// ORDERING: Relaxed — the flag is a monotone hint; the mutex acquired on
// the slow path is the actual synchronisation point, and a stale `false`
// read can only occur for arming performed concurrently with the hook,
// which the serial_guard discipline already forbids.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::default()))
}

fn lock() -> MutexGuard<'static, State> {
    state().lock().unwrap_or_else(|e| e.into_inner())
}

fn refresh_active(st: &State) {
    // ORDERING: Relaxed — see ACTIVE.
    ACTIVE.store(!st.armed.is_empty() || !st.sites.is_empty(), Ordering::Relaxed);
}

/// Arm the numeric injector for the given segment indices, clearing any
/// previous numeric state. Each armed segment receives exactly one fault.
pub fn arm<I: IntoIterator<Item = usize>>(segments: I) {
    let mut st = lock();
    st.armed = segments.into_iter().collect();
    st.fired.clear();
    refresh_active(&st);
}

/// Disarm the numeric injector, returning the segments whose fault fired.
pub fn disarm() -> Vec<usize> {
    let mut st = lock();
    st.armed.clear();
    refresh_active(&st);
    st.fired.iter().copied().collect()
}

/// Segments whose numeric fault has fired so far.
pub fn fired() -> Vec<usize> {
    lock().fired.iter().copied().collect()
}

/// Arm the given chaos sites (replacing the previous site set and firing
/// record). Sites stay armed until [`disarm_sites`] — they model standing
/// conditions (a wedged pool, a slow dependency), not single events.
pub fn arm_sites<I: IntoIterator<Item = Site>>(sites: I) {
    let mut st = lock();
    st.sites = sites.into_iter().collect();
    st.fired_sites.clear();
    refresh_active(&st);
}

/// Set the latency injected each time [`Site::SlowBlockLoop`] fires.
pub fn set_slow_ms(ms: u64) {
    lock().slow_ms = ms;
}

/// Disarm every chaos site, returning the sites that fired at least once.
pub fn disarm_sites() -> Vec<Site> {
    let mut st = lock();
    st.sites.clear();
    refresh_active(&st);
    st.fired_sites.iter().copied().collect()
}

/// Chaos sites that have fired at least once since the last arming.
pub fn fired_sites() -> Vec<Site> {
    lock().fired_sites.iter().copied().collect()
}

/// Pool/engine hook: is `site` armed? Records the firing when it is.
pub fn fire_if_armed(site: Site) -> bool {
    // ORDERING: Relaxed — see ACTIVE.
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    let mut st = lock();
    if st.sites.contains(&site) {
        st.fired_sites.insert(site);
        true
    } else {
        false
    }
}

/// Engine hook: panic at `site` if it is armed. The panic is raised from
/// library code on purpose — the whole point of the site is proving the
/// `catch_unwind` boundary in [`crate::pool::ExecHandle`] converts it
/// into a typed `WinrsError::ExecutionPanicked` with the lease poisoned.
pub fn maybe_panic(site: Site) {
    if fire_if_armed(site) {
        // winrs-audit: allow(error-hygiene) — deliberate injected fault.
        panic!("chaos: injected panic at {site}");
    }
}

/// Pool hook: sleep for the configured latency if `site` is armed.
pub fn maybe_slow(site: Site) {
    if fire_if_armed(site) {
        let ms = lock().slow_ms;
        if ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
}

/// Engine hook: corrupt `tile[0]` once if `seg` is armed and the mode has
/// a reduced-precision rounding step to saturate.
// BOUNDS(tile): len
pub fn maybe_inject(seg: usize, mode: TileMode, tile: &mut [f32]) {
    // ORDERING: Relaxed — see ACTIVE.
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    if mode == TileMode::Fp32 || tile.is_empty() {
        return;
    }
    let mut st = lock();
    if st.armed.remove(&seg) {
        st.fired.insert(seg);
        refresh_active(&st);
        drop(st);
        tile[0] = 1.0e30;
    }
}

/// The splitmix64 PRNG step (public-domain constants), the whole of the
/// chaos harness's randomness: one u64 of state, one u64 out per step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic fault scenario derived from a single seed. Identical
/// seeds produce identical campaigns on every platform — a chaos failure
/// is reproducible from one integer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Campaign {
    /// The seed this campaign was derived from.
    pub seed: u64,
    /// Chaos sites the campaign arms.
    pub sites: Vec<Site>,
    /// Segment indices armed for numeric faults (may be empty).
    pub segments: Vec<usize>,
    /// Latency for [`Site::SlowBlockLoop`] firings, in milliseconds.
    pub slow_ms: u64,
}

impl Campaign {
    /// Arm the global injector with this campaign's faults (replacing any
    /// previous arming). Pair with [`Campaign::disarm`].
    pub fn arm(&self) {
        arm(self.segments.iter().copied());
        arm_sites(self.sites.iter().copied());
        set_slow_ms(self.slow_ms);
    }

    /// Disarm everything, returning the (sites, segments) that fired.
    pub fn disarm(&self) -> (Vec<Site>, Vec<usize>) {
        (disarm_sites(), disarm())
    }
}

impl fmt::Display for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={} sites=[", self.seed)?;
        for (i, s) in self.sites.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "] segments={:?} slow_ms={}", self.segments, self.slow_ms)
    }
}

/// Derive the deterministic fault [`Campaign`] for `seed`.
///
/// The first draw picks the primary scenario (one of the chaos sites), a
/// second decides whether a numeric fault rides along (one in
/// four campaigns also poisons a low-index segment, crossing the chaos
/// layer with the PR 1 numeric guard), and slow campaigns draw a small
/// latency. The stream is pure splitmix64, so the mapping never changes
/// behind a test's back.
pub fn campaign(seed: u64) -> Campaign {
    let mut s = seed;
    let primary =
        Site::EXECUTION[(splitmix64(&mut s) % Site::EXECUTION.len() as u64) as usize];
    let segments = if splitmix64(&mut s).is_multiple_of(4) {
        vec![(splitmix64(&mut s) % 4) as usize]
    } else {
        Vec::new()
    };
    let slow_ms = if primary == Site::SlowBlockLoop {
        2 + splitmix64(&mut s) % 8
    } else {
        0
    };
    Campaign {
        seed,
        sites: vec![primary],
        segments,
        slow_ms,
    }
}

/// Global lock serialising tests that arm the injector (the test harness
/// runs tests on parallel threads; injector state is process-wide).
pub fn serial_guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaigns_replay_bit_identically_from_their_seed() {
        for seed in [0u64, 1, 7, 42, 0xDEAD_BEEF, u64::MAX] {
            let a = campaign(seed);
            let b = campaign(seed);
            assert_eq!(a, b, "campaign(seed) must be a pure function");
            assert_eq!(a.sites.len(), 1);
            if a.slow_ms > 0 {
                assert_eq!(a.sites[0], Site::SlowBlockLoop);
            }
        }
    }

    #[test]
    fn campaign_space_covers_every_primary_site() {
        let mut seen = BTreeSet::new();
        for seed in 0..64u64 {
            seen.insert(campaign(seed).sites[0]);
        }
        assert_eq!(seen.len(), Site::EXECUTION.len(), "every scenario reachable");
    }
}
