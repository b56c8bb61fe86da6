//! The workspace arena: one pre-negotiated buffer for every scratch byte
//! an execution needs.
//!
//! The paper's headline claim is that WinRS keeps the BFC workspace *tiny*
//! — exactly `(Z−1)·|∇W|` — and both Lavin & Gray's Winograd kernels and
//! cuDNN's `get_workspace_size` treat workspace as a caller-visible,
//! pre-negotiated quantity. This module makes the repo match that
//! contract: a plan describes every scratch region it will ever need in a
//! [`WorkspaceLayout`], a caller-owned [`Workspace`] arena is checked (or
//! grown) against that layout once, and the hot block loop then runs with
//! **zero** heap allocations, carving per-task tiles out of the arena
//! through a [`ScratchPool`] instead of `vec!`-ing them per block.
//!
//! Arena layout (f32 elements, in order):
//!
//! ```text
//! ┌─────────────┬──────────────────────────┬───────────────────────────┐
//! │  dw-bucket  │     overflow-buckets     │      thread-scratch       │
//! │   |∇W|      │      (Z−1) · |∇W|        │   slots × slot_elems      │
//! │  (output)   │  the paper's workspace   │  FT/IT/accumulator tiles  │
//! └─────────────┴──────────────────────────┴───────────────────────────┘
//! ```
//!
//! Bucket 0 logically aliases `∇W` (paper §3 phase 1: the workspace is
//! "logically concatenated with `∇W` into `Z` buckets"), so only the
//! overflow region counts as workspace in the paper's accounting. The
//! thread-scratch region is the CPU substrate's stand-in for on-chip
//! SMEM/registers: per-block `ĝ`/`d̂`/`v` tiles that a GPU kernel would
//! never allocate from DRAM. Numeric-guard counters ([`HealthSink`]) live
//! beside the arena (they are atomics, not f32s) and appear in the layout
//! for accounting only.

use crate::engine::HealthSink;
use crate::error::{Violation, WinrsError};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;

/// Slot alignment quantum in f32 elements: 16 f32s = one 64-byte cache
/// line. [`ScratchPool`] rounds slot strides up to this and skips the
/// region's unaligned lead, so every slot starts on a cache-line boundary
/// and the engine's 8-lane loads never split lines.
pub const SLOT_ALIGN_ELEMS: usize = 16;

/// Slot stride for a requested slot size: the next multiple of the
/// alignment quantum.
fn slot_stride(slot_elems: usize) -> usize {
    slot_elems.next_multiple_of(SLOT_ALIGN_ELEMS)
}

/// What a [`Region`] of the layout is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionKind {
    /// `∇W` bucket 0 — aliases the output, free in the paper's accounting.
    Output,
    /// The `(Z−1)·|∇W|` overflow buckets — the paper's DRAM workspace.
    Workspace,
    /// Per-task FT/IT/accumulator tiles — the on-chip (SMEM) analogue.
    Scratch,
    /// Numeric-guard counters (atomics beside the arena).
    Guard,
}

impl RegionKind {
    /// Short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            RegionKind::Output => "output",
            RegionKind::Workspace => "workspace",
            RegionKind::Scratch => "scratch",
            RegionKind::Guard => "guard",
        }
    }
}

/// One named region of a [`WorkspaceLayout`].
#[derive(Clone, Copy, Debug)]
pub struct Region {
    /// Stable region name (`"overflow-buckets"`, `"thread-scratch"`, …).
    pub name: &'static str,
    /// What the region is for.
    pub kind: RegionKind,
    /// Size in f32 elements when the region is arena-resident, 0 otherwise.
    pub elems: usize,
    /// Size in bytes (arena regions: `4 · elems`; accounting-only regions
    /// such as guard counters or fallback-owned buffers: their real size).
    pub bytes: usize,
}

/// A complete description of every scratch byte one execution path needs.
///
/// Produced by [`crate::WinRsPlan::workspace_layout`] (and by the fallback
/// dispatcher for its substitute algorithms); consumed by [`Workspace`] to
/// size the arena and by reports to account for memory.
#[derive(Clone, Debug)]
pub struct WorkspaceLayout {
    regions: Vec<Region>,
    bucket_elems: usize,
    slot_elems: usize,
    slots: usize,
    segments: usize,
}

impl WorkspaceLayout {
    /// Layout for a WinRS plan: `z` buckets of `dw_elems` f32s (bucket 0
    /// is the output alias, buckets `1..z` the paper workspace), `slots`
    /// scratch slots of `slot_elems` f32s, and guard counters for
    /// `segments` segments.
    pub fn winrs(
        dw_elems: usize,
        z: usize,
        slot_elems: usize,
        slots: usize,
        segments: usize,
    ) -> WorkspaceLayout {
        let scratch_elems = ScratchPool::region_elems(slot_elems, slots);
        let regions = vec![
            Region {
                name: "dw-bucket",
                kind: RegionKind::Output,
                elems: dw_elems,
                bytes: dw_elems * 4,
            },
            Region {
                name: "overflow-buckets",
                kind: RegionKind::Workspace,
                elems: (z - 1) * dw_elems,
                bytes: (z - 1) * dw_elems * 4,
            },
            Region {
                name: "thread-scratch",
                kind: RegionKind::Scratch,
                elems: scratch_elems,
                bytes: scratch_elems * 4,
            },
            Region {
                name: "guard-counters",
                kind: RegionKind::Guard,
                elems: 0,
                bytes: segments * std::mem::size_of::<[AtomicU64; 2]>(),
            },
        ];
        WorkspaceLayout {
            regions,
            bucket_elems: z * dw_elems,
            slot_elems,
            slots,
            segments,
        }
    }

    /// Layout with only a thread-scratch region — used by the forward/BDC
    /// and N-D paths, which have no buckets (Z = 1 folds into the output).
    pub fn scratch_only(slot_elems: usize, slots: usize) -> WorkspaceLayout {
        let scratch_elems = ScratchPool::region_elems(slot_elems, slots);
        WorkspaceLayout {
            regions: vec![Region {
                name: "thread-scratch",
                kind: RegionKind::Scratch,
                elems: scratch_elems,
                bytes: scratch_elems * 4,
            }],
            bucket_elems: 0,
            slot_elems,
            slots,
            segments: 0,
        }
    }

    /// Accounting-only layout for a fallback algorithm that owns its
    /// buffers internally (GEMM panel buffers, direct convolution's
    /// nothing). Not arena-resident; exists so fallback workspace is
    /// reported through the same machinery as WinRS workspace.
    pub fn accounting(name: &'static str, bytes: usize) -> WorkspaceLayout {
        WorkspaceLayout {
            regions: vec![Region {
                name,
                kind: RegionKind::Workspace,
                elems: 0,
                bytes,
            }],
            bucket_elems: 0,
            slot_elems: 0,
            slots: 0,
            segments: 0,
        }
    }

    /// All regions, in arena order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Total f32 elements the arena must hold (bucket + scratch regions,
    /// the latter including slot-alignment padding).
    pub fn arena_elems(&self) -> usize {
        self.bucket_elems + self.scratch_elems()
    }

    /// Scratch region length in f32 elements: aligned slot strides plus
    /// one alignment quantum of lead padding (see [`SLOT_ALIGN_ELEMS`]).
    pub fn scratch_elems(&self) -> usize {
        ScratchPool::region_elems(self.slot_elems, self.slots)
    }

    /// Bucket region length in f32 elements (`Z · |∇W|`).
    pub fn bucket_elems(&self) -> usize {
        self.bucket_elems
    }

    /// Scratch slot size in f32 elements.
    pub fn slot_elems(&self) -> usize {
        self.slot_elems
    }

    /// Number of scratch slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of segments the guard counters cover.
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Bytes of `Workspace`-kind regions — for WinRS exactly the paper's
    /// `(Z−1)·|∇W|`.
    pub fn workspace_bytes(&self) -> usize {
        self.regions
            .iter()
            .filter(|r| r.kind == RegionKind::Workspace)
            .map(|r| r.bytes)
            .sum()
    }

    /// Total bytes across every region (arena + accounting-only).
    pub fn total_bytes(&self) -> usize {
        self.regions.iter().map(|r| r.bytes).sum()
    }
}

/// A pool of fixed-size scratch slots carved from the arena.
///
/// Tasks borrow a slot for the duration of one block task via
/// [`ScratchPool::with_slot_at`], keyed by their scheduler worker index,
/// so with `slots ≥` workers it is contention-free; a smaller pool makes
/// extra workers block briefly on a slot mutex, which is exactly the
/// behaviour of oversubscribed SMEM on a GPU. Slot contents are handed
/// out *dirty* — callers must initialise what they read (the engine's
/// tile loaders already overwrite/zero-fill).
///
/// A request larger than the slot size falls back to a counted heap
/// allocation; that counter is the `hot_loop_allocs` metric reported by
/// [`crate::ExecutionReport`], and it staying at zero is the proof that
/// the layout pre-sized every hot-loop buffer.
pub struct ScratchPool<'a> {
    slots: Vec<Mutex<&'a mut [f32]>>,
    slot_elems: usize,
    overflow_allocs: AtomicU64,
}

impl<'a> ScratchPool<'a> {
    /// Region length (f32 elements) that yields exactly `slots` slots of
    /// `slot_elems` under [`ScratchPool::new`]'s alignment rules: strides
    /// round up to [`SLOT_ALIGN_ELEMS`] and one quantum is reserved for
    /// the lead trim. Layout constructors and transient pools size their
    /// buffers with this so slot counts are deterministic regardless of
    /// where the allocator placed the region.
    pub fn region_elems(slot_elems: usize, slots: usize) -> usize {
        if slot_elems == 0 || slots == 0 {
            return 0;
        }
        slot_stride(slot_elems) * slots + SLOT_ALIGN_ELEMS
    }

    /// Partition `region` into 64-byte-aligned slots of `slot_elems` f32s
    /// each. The unaligned lead of the region is skipped and slot strides
    /// round up to [`SLOT_ALIGN_ELEMS`], so 8-lane vector loads inside a
    /// slot never straddle cache lines. The slot count is the
    /// deterministic `(len − SLOT_ALIGN_ELEMS) / stride` — independent of
    /// the actual lead trim — so a region sized by
    /// [`ScratchPool::region_elems`] always yields exactly `slots` slots.
    pub fn new(region: &'a mut [f32], slot_elems: usize) -> ScratchPool<'a> {
        let slots = if slot_elems == 0 {
            Vec::new()
        } else {
            let stride = slot_stride(slot_elems);
            let count = region.len().saturating_sub(SLOT_ALIGN_ELEMS) / stride;
            let lead = region
                .as_ptr()
                .align_offset(SLOT_ALIGN_ELEMS * std::mem::size_of::<f32>())
                .min(region.len());
            region[lead..]
                .chunks_exact_mut(stride)
                .take(count)
                .map(Mutex::new)
                .collect()
        };
        ScratchPool {
            slots,
            slot_elems,
            overflow_allocs: AtomicU64::new(0),
        }
    }

    /// Slot size in f32 elements.
    pub fn slot_elems(&self) -> usize {
        self.slot_elems
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Run `f` with a scratch buffer of `need` f32s (dirty — initialise
    /// before reading) from slot `idx % slots`. Callers pass their
    /// scheduler worker index, so a worker's ĝ/d̂/accumulator tiles stay in
    /// the same cache-resident lines across every task it runs.
    /// Allocation-free whenever `need ≤ slot_elems`; otherwise falls back
    /// to a counted heap allocation.
    pub fn with_slot_at<R>(&self, idx: usize, need: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
        if need <= self.slot_elems && !self.slots.is_empty() {
            let mut guard = match self.slots[idx % self.slots.len()].lock() {
                Ok(g) => g,
                // A poisoning panic elsewhere doesn't invalidate f32
                // scratch (callers initialise before reading).
                Err(poisoned) => poisoned.into_inner(),
            };
            f(&mut guard[..need])
        } else {
            // ORDERING: diagnostic counter, read after the run completes.
            self.overflow_allocs.fetch_add(1, Ordering::Relaxed);
            let mut buf = vec![0.0f32; need];
            f(&mut buf)
        }
    }

    /// Heap allocations that escaped the pool so far.
    pub fn hot_loop_allocs(&self) -> u64 {
        self.overflow_allocs.load(Ordering::Relaxed) // ORDERING: post-run read
    }
}

/// Everything one execution borrows from a [`Workspace`]: the bucket
/// region, the scratch pool, and the health counters.
pub struct ExecCtx<'w> {
    /// The `Z · |∇W|` bucket region (bucket 0 first).
    pub buckets: &'w mut [f32],
    /// Per-task scratch slots.
    pub scratch: ScratchPool<'w>,
    /// Numeric-guard counters, reset for this run.
    pub health: &'w HealthSink,
}

/// A reusable execution arena: one f32 buffer plus guard counters, grown
/// to a plan's [`WorkspaceLayout`] once and reused across
/// [`crate::fallback::run_planned_into`] calls without further heap
/// traffic.
///
/// Ownership contract: the *owner* — a [`crate::WorkspacePool`] slot, or
/// the caller of `run_planned_into` — may share it across plans and
/// training steps (it grows monotonically to the largest layout seen);
/// each execution borrows it exclusively through [`Workspace::ctx`].
#[derive(Debug, Default)]
pub struct Workspace {
    arena: Vec<f32>,
    health: HealthSink,
    grows: usize,
}

impl Workspace {
    /// An empty workspace; grows on first [`Workspace::ensure`].
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// A workspace pre-sized for `layout`.
    pub fn for_layout(layout: &WorkspaceLayout) -> Workspace {
        let mut ws = Workspace::new();
        ws.ensure(layout);
        ws
    }

    /// True when the arena and guard counters already satisfy `layout`.
    pub fn fits(&self, layout: &WorkspaceLayout) -> bool {
        self.arena.len() >= layout.arena_elems() && self.health.len() >= layout.segments()
    }

    /// Grow (never shrink) the arena and guard counters to fit `layout`.
    pub fn ensure(&mut self, layout: &WorkspaceLayout) {
        if self.arena.len() < layout.arena_elems() {
            self.arena.resize(layout.arena_elems(), 0.0);
            self.grows += 1;
        }
        if self.health.len() < layout.segments() {
            self.health = HealthSink::new(layout.segments());
        }
    }

    /// Borrow the workspace for one execution, checked against `layout`.
    ///
    /// Fails with [`Violation::WorkspaceTooSmall`] when the arena was not
    /// [`Workspace::ensure`]d for this layout — the strict cuDNN-style
    /// contract for callers that manage sizing themselves.
    pub fn ctx<'w>(&'w mut self, layout: &WorkspaceLayout) -> Result<ExecCtx<'w>, WinrsError> {
        if !self.fits(layout) {
            return Err(WinrsError::ExecutionRejected(vec![
                Violation::WorkspaceTooSmall {
                    needed_elems: layout.arena_elems(),
                    got_elems: self.arena.len(),
                },
            ]));
        }
        let Workspace { arena, health, .. } = self;
        health.reset();
        let (buckets, rest) = arena.split_at_mut(layout.bucket_elems());
        let scratch_len = layout.scratch_elems();
        let scratch = ScratchPool::new(&mut rest[..scratch_len], layout.slot_elems());
        Ok(ExecCtx {
            buckets,
            scratch,
            health,
        })
    }

    /// Current arena capacity in bytes.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len() * 4
    }

    /// Times the arena actually grew. A warm training loop should hold
    /// this at 1 (the first step); every further growth is a layout the
    /// caller didn't anticipate — the observability hook for the
    /// grow-only reuse contract.
    pub fn grows(&self) -> usize {
        self.grows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn winrs_layout_matches_paper_formula() {
        let (dw, z) = (144, 5);
        let layout = WorkspaceLayout::winrs(dw, z, 100, 4, 6);
        assert_eq!(layout.workspace_bytes(), (z - 1) * dw * 4);
        assert_eq!(layout.bucket_elems(), z * dw);
        // Scratch: 4 slots of 100 elems, strides rounded to 112 (the
        // 16-elem alignment quantum) plus one quantum of lead padding.
        assert_eq!(layout.scratch_elems(), 112 * 4 + 16);
        assert_eq!(layout.arena_elems(), z * dw + 464);
        let overflow = layout
            .regions()
            .iter()
            .find(|r| r.name == "overflow-buckets")
            .unwrap();
        assert_eq!(overflow.kind, RegionKind::Workspace);
        assert_eq!(overflow.bytes, (z - 1) * dw * 4);
        // Guard counters are accounted but not arena-resident.
        let guard = layout
            .regions()
            .iter()
            .find(|r| r.kind == RegionKind::Guard)
            .unwrap();
        assert_eq!(guard.elems, 0);
        assert_eq!(guard.bytes, 6 * 16);
    }

    #[test]
    fn z1_layout_has_zero_workspace() {
        let layout = WorkspaceLayout::winrs(100, 1, 50, 2, 1);
        assert_eq!(layout.workspace_bytes(), 0);
        assert_eq!(layout.bucket_elems(), 100);
    }

    #[test]
    fn workspace_grows_and_reuses() {
        let small = WorkspaceLayout::winrs(10, 2, 8, 2, 2);
        let big = WorkspaceLayout::winrs(10, 4, 8, 2, 4);
        let mut ws = Workspace::new();
        assert!(!ws.fits(&small));
        ws.ensure(&small);
        assert!(ws.fits(&small));
        assert!(!ws.fits(&big));
        let cap = ws.arena_bytes();
        ws.ensure(&small); // no-op
        assert_eq!(ws.arena_bytes(), cap);
        ws.ensure(&big);
        assert!(ws.fits(&big) && ws.fits(&small));
    }

    #[test]
    fn ctx_rejects_undersized_workspace() {
        let layout = WorkspaceLayout::winrs(10, 2, 8, 2, 2);
        let mut ws = Workspace::new();
        let err = match ws.ctx(&layout) {
            Err(e) => e,
            Ok(_) => panic!("empty workspace must be rejected"),
        };
        // 20 bucket elems + 2 aligned slots (8 → stride 16) + 16 lead pad.
        assert!(matches!(
            err.violations()[0],
            Violation::WorkspaceTooSmall {
                needed_elems: 68,
                got_elems: 0
            }
        ));
        ws.ensure(&layout);
        let Ok(ctx) = ws.ctx(&layout) else {
            panic!("sized workspace must be accepted");
        };
        assert_eq!(ctx.buckets.len(), 20);
        assert_eq!(ctx.scratch.slots(), 2);
    }

    #[test]
    fn scratch_pool_hands_out_slots_without_allocating() {
        let mut region = vec![0.0f32; ScratchPool::region_elems(8, 4)];
        let pool = ScratchPool::new(&mut region, 8);
        assert_eq!(pool.slots(), 4);
        let total: f32 = pool.with_slot_at(0, 8, |buf| {
            buf.fill(1.0);
            buf.iter().sum()
        });
        assert_eq!(total, 8.0);
        assert_eq!(pool.hot_loop_allocs(), 0);
    }

    #[test]
    fn scratch_slots_are_cache_line_aligned() {
        let mut region = vec![0.0f32; ScratchPool::region_elems(20, 3)];
        let pool = ScratchPool::new(&mut region, 20);
        assert_eq!(pool.slots(), 3);
        for idx in 0..3 {
            pool.with_slot_at(idx, 20, |buf| {
                assert_eq!(buf.as_ptr() as usize % 64, 0, "slot start not 64B-aligned");
            });
        }
        assert_eq!(pool.hot_loop_allocs(), 0);
    }

    #[test]
    fn oversized_request_falls_back_and_is_counted() {
        let mut region = vec![0.0f32; 16];
        let pool = ScratchPool::new(&mut region, 8);
        let len = pool.with_slot_at(0, 100, |buf| buf.len());
        assert_eq!(len, 100);
        assert_eq!(pool.hot_loop_allocs(), 1);
    }

    #[test]
    fn scratch_pool_is_safe_under_parallel_contention() {
        // 2 slots for 8 threads: four workers share each slot's mutex.
        let mut region = vec![0.0f32; ScratchPool::region_elems(2, 2)];
        let pool = ScratchPool::new(&mut region, 2);
        assert_eq!(pool.slots(), 2);
        std::thread::scope(|s| {
            for t in 0..8 {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..100 {
                        pool.with_slot_at(t, 2, |buf| {
                            buf.fill(t as f32);
                            assert_eq!(buf[0], buf[1]);
                        });
                    }
                });
            }
        });
        assert_eq!(pool.hot_loop_allocs(), 0);
    }

    #[test]
    fn accounting_layout_reports_fallback_bytes() {
        let layout = WorkspaceLayout::accounting("gemm-panels", 12345);
        assert_eq!(layout.workspace_bytes(), 12345);
        assert_eq!(layout.arena_elems(), 0);
        assert_eq!(layout.total_bytes(), 12345);
    }
}
