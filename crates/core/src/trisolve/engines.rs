//! Parallel triangular-solve engines (paper Fig. 12), generic over the
//! RHS panel width.
//!
//! * `CSR-LS` ([`forward_barrier`] / [`backward_barrier`]): the
//!   traditional level-set solve with a spin barrier between levels —
//!   the baseline the paper measures against;
//! * `LS` ([`forward_p2p`] / [`backward_p2p`] with
//!   `LowerTiles::Off`): point-to-point level scheduling with pruned
//!   waits — same schedule machinery as the factorization;
//! * `LS + Lower` (`LowerTiles::On`): the trailing-block rows are
//!   evaluated as a tiled segmented gather (the spmv-like update the SR
//!   layout was designed for) before the small corner solve.
//!
//! Solution storage is the shared-memory [`LuVals`]: threads check out
//! exclusive column-window slices of the rows they own and shared
//! slices of already-retired rows (`numeric/kernel.rs` documents the
//! ownership protocol); ordering comes from the progress counters /
//! barriers. In the column-split trailing stages different threads own
//! different column windows of the *same* row, so every view here is
//! clipped to the thread's window — never the whole row.
//!
//! ## Panels and lanes
//!
//! Every engine retires a whole **panel** of `k` right-hand sides per
//! schedule walk: a row's retirement updates all `k` columns before the
//! row's progress counter is bumped (or its level barrier is crossed),
//! so the wait/barrier protocol runs **once per panel, not once per
//! column** — the schedule traversal the paper's level machinery pays
//! is amortized across the whole block of vectors. The in-place solve
//! buffer `xbuf` stores the panel *row-interleaved* through the lane
//! layer ([`javelin_sparse::lanes`]): entry `(r, c)` lives at
//! [`Lanes::idx`]`(r, c) = r·k + c`, keeping the `k` columns of a row
//! contiguous for the per-entry inner loops (callers see the
//! column-major [`Panel`]/[`PanelMut`] layout; `SolveScratch::load_cols`
//! / `SolveScratch::store_cols` transpose at the region boundary).
//!
//! Every engine entry point is **width-generic over [`Lanes`]**: the
//! scalar protocol is literally the `FixedLanes<1>` instantiation of
//! the panel protocol, `FixedLanes<4>`/`FixedLanes<8>` monomorphize the
//! per-lane inner loops with compile-time trip counts (the
//! SIMD-friendly form), and [`javelin_sparse::DynLanes`] runs the same
//! code at any other width. Column arithmetic is fully independent —
//! column `c` of a panel solve is bit-identical to a single-RHS solve
//! of that column through **any** lane instantiation, and `k = 1` is
//! bit-identical to the historical single-vector path.
//!
//! The trailing-block combination and the corner solve, serial on
//! thread 0 in the single-RHS path, are **column-split** across the
//! team for panels (`javelin_sync::col_range`): columns are independent
//! there, so each thread owns a contiguous column range and narrow
//! panels leave trailing threads idle instead of racing.
//!
//! All engines are **allocation-free per call**: every buffer they
//! touch (progress counters, barrier, tiled-gather partials, the
//! combination buffer) lives in a [`SolveScratch`] built once per
//! factorization and resized grow-only when a wider panel first
//! arrives ([`SolveScratch::ensure_width`]). The parallel region runs
//! on whatever [`Exec`] the plan was built with — a persistent team in
//! the steady state. The scratch is reset at engine entry, so one
//! scratch serves any number of solves at any widths (caller guarantees
//! solves on one scratch are not concurrent; `IluFactors` does so with
//! a mutex).
//!
//! The hot path is the *fused* pair [`solve_p2p_fused`] /
//! [`solve_barrier_fused`]: forward and backward substitution in one
//! parallel region, so a full preconditioner apply costs a single team
//! wake-up instead of two. The separate forward/backward entry points
//! remain for callers that interleave other work between the sweeps.

#![allow(unsafe_code)] // LuVals views; protocol documented in numeric/kernel.rs.

use crate::factors::SolvePlan;
use crate::numeric::LuVals;
use javelin_level::LevelSets;
use javelin_sparse::lanes::{for_each_chunk, Lanes, LANE_CHUNK};
use javelin_sparse::{CsrMatrix, Panel, PanelMut, Scalar};
use javelin_sync::{col_range, Exec, ProgressCounters, SpinBarrier};
use std::ops::Range;

/// Whether the point-to-point engines use the tiled lower-stage path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LowerTiles {
    /// Trailing rows solved serially by thread 0 (the paper's plain
    /// "LS" configuration; exact when the factors have no lower stage).
    Off,
    /// Trailing-block gather runs tiled across all threads ("LS+Lower").
    On,
}

/// Reusable per-factorization scratch for the parallel solve engines:
/// everything `forward_p2p`/`backward_p2p`/`*_barrier` previously
/// allocated per call, built once from the [`SolvePlan`].
///
/// * forward/backward progress counters and the barrier, reset per
///   engine entry;
/// * the tiled trailing-block gather layout: tiles are runs of whole
///   trailing-row segments, cut only at segment boundaries, so each
///   row's gather sum is one in-order sum and lands in its own slot of
///   one flat partial buffer;
/// * `xbuf`, the bit-packed in-place solution panel the engines operate
///   on, loaded/stored by the caller.
///
/// The value buffers carry a **panel width**: `xbuf` holds `n × width`
/// entries (row-interleaved), `partials` gains the same column
/// dimension. [`SolveScratch::ensure_width`] resizes them grow-only —
/// the first `k = 8` solve allocates once, every later solve at width
/// `≤ 8` (including `k = 1`) reuses the high-water-mark buffers.
#[derive(Debug)]
pub struct SolveScratch<T> {
    nthreads: usize,
    tile: usize,
    /// Factor dimension (rows per panel column).
    n: usize,
    /// Trailing (lower-stage) row count.
    n_lower: usize,
    /// Current panel width `k`; governs the interleaved indexing.
    width: usize,
    /// High-water-mark width the buffers are sized for.
    width_cap: usize,
    progress: ProgressCounters,
    /// Separate counters for the backward schedule so the fused
    /// forward+backward region never resets counters mid-flight.
    bwd_progress: ProgressCounters,
    barrier: SpinBarrier,
    /// Tile `t` gathers trailing-row segments
    /// `tile_seg_ptr[t]..tile_seg_ptr[t + 1]`.
    tile_seg_ptr: Vec<usize>,
    /// Per-trailing-row gather sums (`n_lower × width`): segment `s`,
    /// column `c` at `s·width + c`, written by the segment's tile.
    partials: LuVals<T>,
    /// The in-place solve panel (`n × width`, row-interleaved).
    pub(crate) xbuf: LuVals<T>,
}

impl<T: Scalar> SolveScratch<T> {
    /// Builds scratch for solving factors of dimension `n` under `plan`
    /// with `nthreads` workers and `tile_size`-entry gather tiles. The
    /// initial panel width is 1; wider solves grow the buffers on first
    /// use via [`SolveScratch::ensure_width`].
    pub fn new(plan: &SolvePlan, n: usize, nthreads: usize, tile_size: usize) -> Self {
        Self::new_on(plan, n, nthreads, tile_size, None)
    }

    /// Like [`SolveScratch::new`], but when `exec` is given, the value
    /// buffers (`partials`, `z`, `xbuf`) are zero-filled *inside a
    /// parallel region* on `exec`'s own threads — first-touch page
    /// placement for pinned teams (see [`LuVals::zeroed_on`]). Width
    /// regrowth via [`SolveScratch::ensure_width`] reallocates without
    /// first-touch; size panels up front when placement matters.
    pub fn new_on(
        plan: &SolvePlan,
        n: usize,
        nthreads: usize,
        tile_size: usize,
        exec: Option<&Exec>,
    ) -> Self {
        let zeroed = |len: usize| match exec {
            Some(exec) => LuVals::zeroed_on(len, exec),
            None => LuVals::zeroed(len),
        };
        let tile = tile_size.max(1);
        let n_lower = n - plan.n_upper;
        let seg_ptr = &plan.block_seg_ptr;
        // Close a tile once it holds `tile` entries: a long segment gets
        // a tile of its own rather than being split.
        let mut tile_seg_ptr = vec![0usize];
        if *seg_ptr.last().unwrap_or(&0) > 0 {
            for seg in 0..n_lower {
                let start = seg_ptr[*tile_seg_ptr.last().expect("nonempty")];
                if seg_ptr[seg + 1] - start >= tile || seg + 1 == n_lower {
                    tile_seg_ptr.push(seg + 1);
                }
            }
        }
        SolveScratch {
            nthreads,
            tile,
            n,
            n_lower: n - plan.n_upper,
            width: 1,
            width_cap: 1,
            progress: ProgressCounters::new(nthreads),
            bwd_progress: ProgressCounters::new(nthreads),
            barrier: SpinBarrier::new(nthreads),
            tile_seg_ptr,
            partials: zeroed(n_lower),
            xbuf: zeroed(n),
        }
    }

    /// Threads the scratch was sized for.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Gather tile size in entries.
    pub fn tile_size(&self) -> usize {
        self.tile
    }

    /// Number of trailing-block gather tiles (0 without a lower stage).
    pub fn n_tiles(&self) -> usize {
        self.tile_seg_ptr.len() - 1
    }

    /// Current panel width `k`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sets the panel width for subsequent engine calls, growing the
    /// value buffers if `width` exceeds every width seen so far
    /// (grow-only: narrowing back is free and keeps the wider buffers
    /// for the next wide solve).
    pub fn ensure_width(&mut self, width: usize) {
        let width = width.max(1);
        if width > self.width_cap {
            self.partials = LuVals::zeroed(self.n_lower * width);
            self.xbuf = LuVals::zeroed(self.n * width);
            self.width_cap = width;
        }
        self.width = width;
    }

    /// [`SolveScratch::ensure_width`] through a lane value: sizes the
    /// value buffers for `lanes.width()` so the engines can be invoked
    /// with that lane instantiation.
    pub fn ensure_lanes<L: Lanes>(&mut self, lanes: L) {
        self.ensure_width(lanes.width());
    }

    /// Loads a column-major panel into the row-interleaved `xbuf`.
    /// The panel must have `n` rows and exactly [`SolveScratch::width`]
    /// columns.
    pub(crate) fn load_cols(&self, src: Panel<'_, T>) {
        let k = self.width;
        debug_assert_eq!(src.nrows(), self.n, "panel rows vs factor dim");
        debug_assert_eq!(src.ncols(), k, "panel width vs scratch width");
        // Safety: the caller holds the scratch exclusively outside any
        // parallel region (IluFactors guards the scratch with a mutex).
        let xb = unsafe { self.xbuf.view_mut(0..self.n * k) };
        for c in 0..k {
            for (r, &v) in src.col(c).iter().enumerate() {
                xb[r * k + c] = v;
            }
        }
    }

    /// Stores the row-interleaved `xbuf` back into a column-major panel.
    pub(crate) fn store_cols(&self, dst: &mut PanelMut<'_, T>) {
        let k = self.width;
        debug_assert_eq!(dst.nrows(), self.n, "panel rows vs factor dim");
        debug_assert_eq!(dst.ncols(), k, "panel width vs scratch width");
        // Safety: as in `load_cols` — exclusive, outside any region.
        let xb = unsafe { self.xbuf.view(0..self.n * k) };
        for c in 0..k {
            for (r, v) in dst.col_mut(c).iter_mut().enumerate() {
                *v = xb[r * k + c];
            }
        }
    }
}

/// Retires the strictly-lower part of row `r` for panel lanes `cols`:
/// `x[r, c] ← x[r, c] − Σ_{j<r} L[r, j] · x[j, c]`. Lane chunks of
/// [`LANE_CHUNK`] keep the accumulators on the stack (one constant-trip
/// block at a fixed width ≤ 8); per lane the entry order (and therefore
/// the bits) matches the single-RHS kernel — which *is* this function
/// at `FixedLanes<1>`.
#[inline(always)]
fn retire_row_lower<T: Scalar, L: Lanes>(
    lanes: L,
    lu: &CsrMatrix<T>,
    diag_pos: &[usize],
    x: &LuVals<T>,
    cols: Range<usize>,
    r: usize,
) {
    let vals = lu.vals();
    let colidx = lu.colidx();
    for_each_chunk(cols, |c0, cw| {
        let mut sums = [T::ZERO; LANE_CHUNK];
        for e in lu.rowptr()[r]..diag_pos[r] {
            let v = vals[e];
            let xb = lanes.idx(colidx[e], c0);
            // Safety: row colidx[e] retired before this row was released
            // (schedule order), and the view stays inside this thread's
            // column window.
            let xs = unsafe { x.view(xb..xb + cw) };
            for (s, &xv) in sums[..cw].iter_mut().zip(xs) {
                *s += v * xv;
            }
        }
        let xb = lanes.idx(r, c0);
        // Safety: this thread owns row `r`'s `cols` window until its
        // retire-signal (counter bump / barrier / region join).
        let xr = unsafe { x.view_mut(xb..xb + cw) };
        for (xv, s) in xr.iter_mut().zip(&sums[..cw]) {
            *xv -= *s;
        }
    });
}

/// Retires the upper part of row `r` for panel lanes `cols`:
/// `x[r, c] ← (x[r, c] − Σ_{j>r} U[r, j] · x[j, c]) / U[r, r]`.
#[inline(always)]
fn retire_row_upper<T: Scalar, L: Lanes>(
    lanes: L,
    lu: &CsrMatrix<T>,
    diag_pos: &[usize],
    x: &LuVals<T>,
    cols: Range<usize>,
    r: usize,
) {
    let vals = lu.vals();
    let colidx = lu.colidx();
    let d = vals[diag_pos[r]];
    for_each_chunk(cols, |c0, cw| {
        let mut sums = [T::ZERO; LANE_CHUNK];
        for e in (diag_pos[r] + 1)..lu.rowptr()[r + 1] {
            let v = vals[e];
            let xb = lanes.idx(colidx[e], c0);
            // Safety: row colidx[e] retired first (backward schedule
            // order); the view stays inside this thread's column window.
            let xs = unsafe { x.view(xb..xb + cw) };
            for (s, &xv) in sums[..cw].iter_mut().zip(xs) {
                *s += v * xv;
            }
        }
        let xb = lanes.idx(r, c0);
        // Safety: exclusive `cols` window of row `r` (as in the lower
        // retire).
        let xr = unsafe { x.view_mut(xb..xb + cw) };
        for (xv, s) in xr.iter_mut().zip(&sums[..cw]) {
            *xv = (*xv - *s) / d;
        }
    });
}

/// One thread's share of the barriered forward level sweep.
#[inline]
#[allow(clippy::too_many_arguments)]
fn forward_barrier_phase<T: Scalar, L: Lanes>(
    lanes: L,
    lu: &CsrMatrix<T>,
    diag_pos: &[usize],
    levels: &LevelSets,
    scratch: &SolveScratch<T>,
    nthreads: usize,
    tid: usize,
    x: &LuVals<T>,
) {
    let k = lanes.width();
    for l in 0..levels.n_levels() {
        let rows = levels.level(l);
        let mut i = tid;
        while i < rows.len() {
            retire_row_lower(lanes, lu, diag_pos, x, 0..k, rows[i]);
            i += nthreads;
        }
        scratch.barrier.wait();
    }
}

/// One thread's share of the barriered backward level sweep.
#[inline]
#[allow(clippy::too_many_arguments)]
fn backward_barrier_phase<T: Scalar, L: Lanes>(
    lanes: L,
    lu: &CsrMatrix<T>,
    diag_pos: &[usize],
    levels: &LevelSets,
    scratch: &SolveScratch<T>,
    nthreads: usize,
    tid: usize,
    x: &LuVals<T>,
) {
    let k = lanes.width();
    for l in 0..levels.n_levels() {
        let rows = levels.level(l);
        let mut i = tid;
        while i < rows.len() {
            retire_row_upper(lanes, lu, diag_pos, x, 0..k, rows[i]);
            i += nthreads;
        }
        scratch.barrier.wait();
    }
}

/// Chaos hook: fires the `trisolve.region` failpoint from inside a
/// parallel region (only `Panic` is meaningful here — the site produces
/// no value). Compiles to nothing without the `fault-injection`
/// feature.
#[inline]
fn region_failpoint(tid: usize) {
    if javelin_sparse::fault::fire("trisolve.region").is_some() {
        panic!("fault injected at trisolve.region (tid {tid})");
    }
}

/// Barriered level-set forward solve (CSR-LS baseline), in place.
/// Width-generic: `lanes.width()` must equal the scratch's current
/// panel width.
pub fn forward_barrier<T: Scalar, L: Lanes>(
    lanes: L,
    lu: &CsrMatrix<T>,
    diag_pos: &[usize],
    levels: &LevelSets,
    scratch: &SolveScratch<T>,
    exec: &Exec,
    x: &LuVals<T>,
) {
    let nthreads = exec.nthreads();
    debug_assert_eq!(nthreads, scratch.nthreads);
    debug_assert_eq!(lanes.width(), scratch.width, "lanes vs scratch width");
    scratch.barrier.reset();
    exec.run(|tid| {
        region_failpoint(tid);
        forward_barrier_phase(lanes, lu, diag_pos, levels, scratch, nthreads, tid, x);
    });
}

/// Barriered level-set backward solve (CSR-LS baseline), in place.
/// Width-generic like [`forward_barrier`].
pub fn backward_barrier<T: Scalar, L: Lanes>(
    lanes: L,
    lu: &CsrMatrix<T>,
    diag_pos: &[usize],
    levels: &LevelSets,
    scratch: &SolveScratch<T>,
    exec: &Exec,
    x: &LuVals<T>,
) {
    let nthreads = exec.nthreads();
    debug_assert_eq!(nthreads, scratch.nthreads);
    debug_assert_eq!(lanes.width(), scratch.width, "lanes vs scratch width");
    scratch.barrier.reset();
    exec.run(|tid| {
        region_failpoint(tid);
        backward_barrier_phase(lanes, lu, diag_pos, levels, scratch, nthreads, tid, x);
    });
}

/// Fused CSR-LS solve: forward then backward level sweeps in a single
/// parallel region (the per-level barriers already order the
/// transition), halving the region count of the barriered baseline.
/// One barrier protocol per panel: a level costs the same wait count
/// whether it retires 1 or `k` columns — and one kernel body serves
/// every width through `lanes`.
#[allow(clippy::too_many_arguments)]
pub fn solve_barrier_fused<T: Scalar, L: Lanes>(
    lanes: L,
    lu: &CsrMatrix<T>,
    diag_pos: &[usize],
    fwd_levels: &LevelSets,
    bwd_levels: &LevelSets,
    scratch: &SolveScratch<T>,
    exec: &Exec,
    x: &LuVals<T>,
) {
    let nthreads = exec.nthreads();
    debug_assert_eq!(nthreads, scratch.nthreads);
    debug_assert_eq!(lanes.width(), scratch.width, "lanes vs scratch width");
    scratch.barrier.reset();
    exec.run(|tid| {
        region_failpoint(tid);
        forward_barrier_phase(lanes, lu, diag_pos, fwd_levels, scratch, nthreads, tid, x);
        // The barrier after the last forward level orders every forward
        // write before the first backward read.
        backward_barrier_phase(lanes, lu, diag_pos, bwd_levels, scratch, nthreads, tid, x);
    });
}

/// One thread's share of the point-to-point forward solve: upper stage
/// through the pruned-wait schedule, then (under `use_tiles`) the tiled
/// trailing-block gather, then the column-split combination + trailing
/// rows. Ends with every thread past the trailing stage; the caller
/// decides what synchronization follows.
#[inline]
#[allow(clippy::too_many_arguments)]
fn forward_p2p_phase<T: Scalar, L: Lanes>(
    lanes: L,
    lu: &CsrMatrix<T>,
    diag_pos: &[usize],
    plan: &SolvePlan,
    scratch: &SolveScratch<T>,
    nthreads: usize,
    use_tiles: bool,
    tid: usize,
    x: &LuVals<T>,
) {
    let k = lanes.width();
    let n = lu.nrows();
    let n_upper = plan.n_upper;
    // Upper stage: point-to-point. A row's counter is bumped once per
    // panel — after all k columns retire — so the wait protocol is
    // amortized across the panel.
    for &row in plan.fwd.thread_tasks(tid) {
        scratch.progress.wait_all(plan.fwd.waits(row));
        retire_row_lower(lanes, lu, diag_pos, x, 0..k, row);
        scratch.progress.bump(tid);
    }
    if n_upper == n {
        return;
    }
    scratch.barrier.wait();
    if use_tiles {
        // Tiled segmented gather over the trailing block: each tile sums
        // its segments, each from zero in column order, into the
        // segments' own slots (tile layout precomputed in the scratch —
        // no searches, no allocation). Lane chunks re-walk the tile so
        // accumulators stay on the stack.
        let mut t = tid;
        while t < scratch.n_tiles() {
            let segs = scratch.tile_seg_ptr[t]..scratch.tile_seg_ptr[t + 1];
            // Safety: tile `t` is processed by exactly one thread, and
            // the tiles partition the segments, hence the slots.
            let pt = unsafe { scratch.partials.view_mut(segs.start * k..segs.end * k) };
            for_each_chunk(0..k, |c0, cw| {
                for (slot, seg) in segs.clone().enumerate() {
                    let (k_lo, k_hi) = plan.block_rows[seg];
                    let mut accs = [T::ZERO; LANE_CHUNK];
                    for e in k_lo..k_hi {
                        let val = lu.vals()[e];
                        let xb = lanes.idx(lu.colidx()[e], c0);
                        // Safety: the gathered columns are upper-stage
                        // rows, all retired before the barrier above.
                        let xs = unsafe { x.view(xb..xb + cw) };
                        for (acc, &xv) in accs[..cw].iter_mut().zip(xs) {
                            *acc += val * xv;
                        }
                    }
                    pt[slot * k + c0..slot * k + c0 + cw].copy_from_slice(&accs[..cw]);
                }
            });
            t += nthreads;
        }
        scratch.barrier.wait();
    }
    // Trailing stage, column-split: panel columns are independent from
    // here on, so each thread owns a contiguous column range (narrow
    // panels leave trailing tids an empty range — `col_range` never
    // hands out degenerate work). At k = 1 this degenerates to tid 0
    // performing exactly the single-RHS serial combination.
    let cols = col_range(k, nthreads, tid);
    if cols.is_empty() {
        return;
    }
    if use_tiles {
        // Finish each trailing row from its gather sum with its corner
        // part: the same in-order sum the untiled retire computes.
        for off in 0..n - n_upper {
            let r = n_upper + off;
            let (_, k_hi) = plan.block_rows[off];
            for_each_chunk(cols.clone(), |c0, cw| {
                let mut sums = [T::ZERO; LANE_CHUNK];
                // Safety: the partials are quiescent after the gather
                // barrier.
                let ps = unsafe {
                    scratch
                        .partials
                        .view(lanes.idx(off, c0)..lanes.idx(off, c0) + cw)
                };
                sums[..cw].copy_from_slice(ps);
                for e in k_hi..diag_pos[r] {
                    let v = lu.vals()[e];
                    let xb = lanes.idx(lu.colidx()[e], c0);
                    // Safety: corner columns are upper-stage rows,
                    // retired before the gather barrier.
                    let xs = unsafe { x.view(xb..xb + cw) };
                    for (s, &xv) in sums[..cw].iter_mut().zip(xs) {
                        *s += v * xv;
                    }
                }
                let xb = lanes.idx(r, c0);
                // Safety: trailing row `r`'s `cols` window is ours.
                let xr = unsafe { x.view_mut(xb..xb + cw) };
                for (xv, s) in xr.iter_mut().zip(&sums[..cw]) {
                    *xv -= *s;
                }
            });
        }
    } else {
        for r in n_upper..n {
            retire_row_lower(lanes, lu, diag_pos, x, cols.clone(), r);
        }
    }
}

/// Backward solve of the trailing corner restricted to panel columns
/// `cols` (self-contained: trailing rows only reference corner columns
/// in their U parts, and panel columns are mutually independent).
#[inline]
fn corner_backward_cols<T: Scalar, L: Lanes>(
    lanes: L,
    lu: &CsrMatrix<T>,
    diag_pos: &[usize],
    n_upper: usize,
    x: &LuVals<T>,
    cols: Range<usize>,
) {
    if cols.is_empty() {
        return;
    }
    for r in (n_upper..lu.nrows()).rev() {
        retire_row_upper(lanes, lu, diag_pos, x, cols.clone(), r);
    }
}

/// One thread's share of the backward point-to-point upper stage.
#[inline]
fn backward_p2p_phase<T: Scalar, L: Lanes>(
    lanes: L,
    lu: &CsrMatrix<T>,
    diag_pos: &[usize],
    plan: &SolvePlan,
    scratch: &SolveScratch<T>,
    tid: usize,
    x: &LuVals<T>,
) {
    let k = lanes.width();
    for &task in plan.bwd.thread_tasks(tid) {
        scratch.bwd_progress.wait_all(plan.bwd.waits(task));
        retire_row_upper(lanes, lu, diag_pos, x, 0..k, plan.bwd_row_of_task[task]);
        scratch.bwd_progress.bump(tid);
    }
}

/// Point-to-point forward solve, in place: upper-stage rows through the
/// pruned-wait schedule, trailing rows column-split (`LowerTiles::Off`)
/// or via the tiled segmented gather plus corner solve
/// (`LowerTiles::On`). Width-generic over `lanes`.
#[allow(clippy::too_many_arguments)]
pub fn forward_p2p<T: Scalar, L: Lanes>(
    lanes: L,
    lu: &CsrMatrix<T>,
    diag_pos: &[usize],
    plan: &SolvePlan,
    scratch: &SolveScratch<T>,
    exec: &Exec,
    tiles: LowerTiles,
    x: &LuVals<T>,
) {
    let nthreads = exec.nthreads();
    debug_assert_eq!(nthreads, scratch.nthreads);
    debug_assert_eq!(lanes.width(), scratch.width, "lanes vs scratch width");
    scratch.progress.reset();
    scratch.barrier.reset();
    let use_tiles = tiles == LowerTiles::On && scratch.n_tiles() > 0;
    exec.run(|tid| {
        region_failpoint(tid);
        forward_p2p_phase(
            lanes, lu, diag_pos, plan, scratch, nthreads, use_tiles, tid, x,
        );
        // Region join publishes the trailing writes to the caller.
    });
}

/// Point-to-point backward solve, in place: corner first (on the
/// caller, all columns), then upper-stage rows through the backward
/// pruned-wait schedule. Width-generic over `lanes`.
pub fn backward_p2p<T: Scalar, L: Lanes>(
    lanes: L,
    lu: &CsrMatrix<T>,
    diag_pos: &[usize],
    plan: &SolvePlan,
    scratch: &SolveScratch<T>,
    exec: &Exec,
    x: &LuVals<T>,
) {
    let n_upper = plan.n_upper;
    debug_assert_eq!(exec.nthreads(), scratch.nthreads);
    debug_assert_eq!(lanes.width(), scratch.width, "lanes vs scratch width");
    let k = lanes.width();
    corner_backward_cols(lanes, lu, diag_pos, n_upper, x, 0..k);
    scratch.bwd_progress.reset();
    exec.run(|tid| {
        region_failpoint(tid);
        backward_p2p_phase(lanes, lu, diag_pos, plan, scratch, tid, x);
    });
}

/// Fused point-to-point solve: forward substitution, corner, and
/// backward substitution in **one** parallel region — the Krylov
/// hot-loop entry point. One team wake-up per preconditioner apply,
/// zero allocations, no `partition_point` searches; the whole panel
/// rides a single schedule walk through one width-generic kernel body
/// (`FixedLanes<1>` *is* the scalar protocol).
#[allow(clippy::too_many_arguments)]
pub fn solve_p2p_fused<T: Scalar, L: Lanes>(
    lanes: L,
    lu: &CsrMatrix<T>,
    diag_pos: &[usize],
    plan: &SolvePlan,
    scratch: &SolveScratch<T>,
    exec: &Exec,
    tiles: LowerTiles,
    x: &LuVals<T>,
) {
    let n = lu.nrows();
    let n_upper = plan.n_upper;
    let nthreads = exec.nthreads();
    debug_assert_eq!(nthreads, scratch.nthreads);
    debug_assert_eq!(lanes.width(), scratch.width, "lanes vs scratch width");
    scratch.progress.reset();
    scratch.bwd_progress.reset();
    scratch.barrier.reset();
    let use_tiles = tiles == LowerTiles::On && scratch.n_tiles() > 0;
    let k = lanes.width();
    exec.run(|tid| {
        region_failpoint(tid);
        forward_p2p_phase(
            lanes, lu, diag_pos, plan, scratch, nthreads, use_tiles, tid, x,
        );
        if n_upper < n {
            // The trailing forward rows finish above (column-split);
            // the corner backward solve is column-split the same way.
            // The barrier pair publishes the forward solution to
            // everyone and the corner to the backward stage.
            scratch.barrier.wait();
            corner_backward_cols(lanes, lu, diag_pos, n_upper, x, col_range(k, nthreads, tid));
            scratch.barrier.wait();
        } else {
            // Order every forward write before any backward read: the
            // forward and backward schedules may place the same row on
            // different threads.
            scratch.barrier.wait();
        }
        backward_p2p_phase(lanes, lu, diag_pos, plan, scratch, tid, x);
    });
}

#[cfg(test)]
mod tests {
    //! Engine equivalence is exercised end-to-end in `factors.rs` tests
    //! (every engine × thread count × panel width against serial
    //! substitution); the unit tests here cover the pieces with no
    //! factor pipeline.
    use super::*;

    #[test]
    fn lower_tiles_flag_equality() {
        assert_eq!(LowerTiles::Off, LowerTiles::Off);
        assert_ne!(LowerTiles::Off, LowerTiles::On);
    }

    #[test]
    fn lane_chunk_handles_all_issue_widths() {
        // Chunking must cover every width the proptests exercise in at
        // most two passes (allocation-free stack accumulators), and the
        // monomorphized widths in exactly one.
        for k in [1usize, 2, 3, 4, 5, 8, 9, 16] {
            let chunks = k.div_ceil(LANE_CHUNK);
            assert!(chunks <= 2, "width {k} needs {chunks} chunks");
        }
        for k in [1usize, 4, 8] {
            assert_eq!(k.div_ceil(LANE_CHUNK), 1, "fixed width {k} chunks once");
        }
    }
}
