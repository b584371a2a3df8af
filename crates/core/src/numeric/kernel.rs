//! The up-looking row kernel and its workspaces.
//!
//! ## `LuVals` and the row-ownership protocol
//!
//! `LuVals` stores factor values in plain (`UnsafeCell`) memory that
//! several threads access concurrently — on **disjoint entries**. The
//! engines' synchronization protocols guarantee race freedom (see
//! `docs/ARCHITECTURE.md` §7 "Memory model"):
//!
//! * every entry belongs to exactly one row, and a row's values are
//!   written only by the worker that currently *owns* the row;
//! * ownership is handed off through a release-bump of a progress
//!   counter (or barrier arrival / task-graph edge / team-region join)
//!   after the row's last write, and acquired through the matching
//!   acquire-wait before any dependent read — the same happens-before
//!   edges that previously ordered the relaxed-atomic accesses;
//! * Segmented-Rows tiles that share a row write disjoint entry
//!   subranges, chained per block, so exclusivity holds at entry
//!   granularity there too.
//!
//! Under that protocol the hot kernels can check out a whole row (or a
//! tile of one) as an exclusive `&mut [T]` via [`LuVals::view_mut`] and
//! read finalized rows as `&[T]` via [`LuVals::view`] — contiguous
//! loads/stores the compiler can vectorize, instead of per-element
//! atomic round-trips that block coalescing. This is what an earlier
//! revision's bit-packed `AtomicU64` representation (all `Relaxed`)
//! could not offer: atomics pessimize vectorization even though they
//! compile to plain moves on x86, and bit-packing made `&mut [f32]`
//! views impossible.
//!
//! The safe `get`/`set` accessors remain for cold paths; they are plain
//! reads/writes bound by the same protocol.

#![allow(unsafe_code)] // LuVals views; soundness argument in the module docs above.

use crate::numeric::NumericCtx;
use crate::options::ZeroPivotPolicy;
use javelin_sparse::Scalar;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::Ordering;

/// One factor value in engine-shared plain memory.
///
/// `#[repr(transparent)]` guarantees a `[ValCell<T>]` has exactly the
/// layout of `[T]`, which is what lets [`LuVals::view`] /
/// [`LuVals::view_mut`] hand out real value slices.
#[repr(transparent)]
struct ValCell<T>(UnsafeCell<T>);

// Safety: cross-thread access to a cell is externally synchronized by
// the engines' row-ownership protocol (module docs): concurrent
// accesses always target disjoint entries, and same-entry accesses are
// ordered by a release/acquire edge.
unsafe impl<T: Send + Sync> Sync for ValCell<T> {}

/// Concurrently accessible factor values (see the module docs for the
/// ownership protocol that makes the shared-reference API race-free).
pub struct LuVals<T> {
    cells: Vec<ValCell<T>>,
}

impl<T> std::fmt::Debug for LuVals<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LuVals")
            .field("len", &self.cells.len())
            .finish()
    }
}

impl<T: Scalar> LuVals<T> {
    /// Copies in a value slice.
    pub fn from_values(vals: &[T]) -> Self {
        LuVals {
            cells: vals.iter().map(|&v| ValCell(UnsafeCell::new(v))).collect(),
        }
    }

    /// `n` zero-valued entries — the shape used by reusable plan/
    /// workspace buffers, which are loaded per call instead of built
    /// from a value slice.
    pub fn zeroed(n: usize) -> Self {
        LuVals {
            cells: (0..n).map(|_| ValCell(UnsafeCell::new(T::ZERO))).collect(),
        }
    }

    /// Like [`LuVals::zeroed`], but the zero-fill (the pages'
    /// first touch) is performed by the participants of `exec`, each
    /// initializing a contiguous chunk — so on first-touch NUMA systems
    /// a buffer's pages land near the workers that will stream it.
    pub fn zeroed_on(n: usize, exec: &javelin_sync::Exec) -> Self {
        let nthreads = exec.nthreads();
        if nthreads <= 1 || n == 0 {
            return Self::zeroed(n);
        }
        let mut cells: Vec<ValCell<T>> = Vec::with_capacity(n);
        let base = cells.as_mut_ptr();
        let chunk = n.div_ceil(nthreads);
        // Wrap the raw pointer so the region closure can share it (the
        // method keeps the 2021-edition closure capturing the whole
        // Sync wrapper, not the non-Sync pointer field).
        struct Ptr<T>(*mut ValCell<T>);
        unsafe impl<T> Sync for Ptr<T> {}
        impl<T> Ptr<T> {
            fn get(&self) -> *mut ValCell<T> {
                self.0
            }
        }
        let ptr = Ptr(base);
        exec.run(|tid| {
            let lo = (tid * chunk).min(n);
            let hi = ((tid + 1) * chunk).min(n);
            for i in lo..hi {
                // Safety: chunks are disjoint per tid and lie within the
                // reserved capacity; every index is written exactly once.
                unsafe { ptr.get().add(i).write(ValCell(UnsafeCell::new(T::ZERO))) };
            }
        });
        // Safety: all `n` elements were initialized in the region above,
        // and the region join happens-before this call.
        unsafe { cells.set_len(n) };
        LuVals { cells }
    }

    /// Overwrites every entry from `vals` (lengths must match). Caller
    /// must guarantee quiescence; used to load a reused workspace
    /// buffer without reallocating.
    pub fn load_from(&self, vals: &[T]) {
        assert_eq!(vals.len(), self.cells.len(), "LuVals::load_from length");
        for (i, &v) in vals.iter().enumerate() {
            self.set(i, v);
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Reads entry `i`. A plain load; the caller must not race a
    /// concurrent write of the same entry (the ownership protocol
    /// guarantees this everywhere the engines call it).
    #[inline(always)]
    pub fn get(&self, i: usize) -> T {
        // Safety: in-bounds (indexing the Vec checks), and same-entry
        // write/read pairs are ordered per the module docs.
        unsafe { *self.cells[i].0.get() }
    }

    /// Writes entry `i`. A plain store; same contract as [`LuVals::get`].
    #[inline(always)]
    pub fn set(&self, i: usize, v: T) {
        // Safety: see `get`.
        unsafe { *self.cells[i].0.get() = v }
    }

    /// A shared view of `range`.
    ///
    /// # Safety
    /// No entry in `range` may be written by any thread for the
    /// lifetime of the returned slice (the entries must be finalized or
    /// otherwise quiescent under the row-ownership protocol).
    #[inline(always)]
    pub unsafe fn view(&self, range: Range<usize>) -> &[T] {
        debug_assert!(range.end <= self.cells.len());
        std::slice::from_raw_parts(
            self.cells.as_ptr().cast::<T>().add(range.start),
            range.len(),
        )
    }

    /// An exclusive view of `range`.
    ///
    /// # Safety
    /// The caller must exclusively own every entry in `range` for the
    /// lifetime of the returned slice: no other thread may read *or*
    /// write them (the row-ownership window between a row's ready- and
    /// retire-signal).
    #[inline(always)]
    #[allow(clippy::mut_from_ref)] // checked-out row ownership; see Safety
    pub unsafe fn view_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.end <= self.cells.len());
        std::slice::from_raw_parts_mut(
            self.cells.as_ptr().cast::<T>().cast_mut().add(range.start),
            range.len(),
        )
    }

    /// Unpacks into a plain vector.
    pub fn into_values(self) -> Vec<T> {
        self.cells.into_iter().map(|c| c.0.into_inner()).collect()
    }
}

/// Per-thread sparse-accumulator workspace: an epoch-stamped map from
/// column to entry index of the currently loaded row. Loading is O(row
/// length); clearing is free (epoch bump).
pub struct RowWorkspace {
    pos: Vec<usize>,
    epoch: Vec<u64>,
    cur: u64,
}

impl RowWorkspace {
    /// Workspace for matrices of dimension `n`.
    pub fn new(n: usize) -> Self {
        RowWorkspace {
            pos: vec![0; n],
            epoch: vec![0; n],
            cur: 0,
        }
    }

    /// Loads the column→entry map of row `r`.
    #[inline]
    pub fn load_row(&mut self, rowptr: &[usize], colidx: &[usize], r: usize) {
        self.cur += 1;
        for k in rowptr[r]..rowptr[r + 1] {
            let c = colidx[k];
            self.pos[c] = k;
            self.epoch[c] = self.cur;
        }
    }

    /// Entry index of column `c` in the loaded row, if present.
    #[inline(always)]
    pub fn entry_of(&self, c: usize) -> Option<usize> {
        (self.epoch[c] == self.cur).then(|| self.pos[c])
    }
}

/// Processes the L-columns of row `r` with `col_lo <= c < min(col_hi, r)`
/// — the up-looking elimination steps of the paper's Fig. 1, restricted
/// to a column window so the two-stage engines can split a row's work.
///
/// Requires `ws` to hold row `r` (see [`RowWorkspace::load_row`]) and
/// every row `c` in the window to be finalized. The caller must own row
/// `r` exclusively (all engines call this only inside the row's
/// ownership window; tiles that share a row use their own subrange
/// kernels instead).
#[inline]
pub fn eliminate_columns<T: Scalar>(
    ctx: &NumericCtx<'_, T>,
    ws: &RowWorkspace,
    r: usize,
    col_lo: usize,
    col_hi: usize,
) {
    let hi = col_hi.min(r);
    let dropping = !ctx.drop_thresh.is_empty();
    let range = ctx.row_range(r);
    let base = range.start;
    // Safety: row `r` is exclusively owned by this worker between its
    // ready- and retire-signal (function contract above).
    let vr = unsafe { ctx.vals.view_mut(range.clone()) };
    let cols = &ctx.colidx[range];
    for (kr, &c) in cols.iter().enumerate() {
        if c >= hi {
            break;
        }
        if c < col_lo {
            continue;
        }
        let piv = ctx.vals.get(ctx.diag_pos[c]);
        let l = vr[kr] / piv;
        if dropping && l.abs() < ctx.drop_thresh[r] {
            // Treat as zero immediately: skip the update sweep. The
            // position stays in the pattern so schedules remain valid.
            vr[kr] = T::ZERO;
            ctx.dropped.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        vr[kr] = l;
        // a[r, j] -= l * u[c, j] for every j > c stored in both rows.
        let u_lo = ctx.diag_pos[c] + 1;
        // Safety: row `c < r` is finalized (function contract), hence
        // quiescent for the remainder of the factorization.
        let uc = unsafe { ctx.vals.view(u_lo..ctx.rowptr[c + 1]) };
        for (off, &ucv) in uc.iter().enumerate() {
            let j = ctx.colidx[u_lo + off];
            if let Some(p) = ws.entry_of(j) {
                vr[p - base] -= l * ucv;
            }
        }
    }
}

/// Finalizes row `r`: applies the τ drop rule to the strict U part,
/// MILU compensation, and the pivot breakdown policy. Must be called
/// exactly once per row, after its last elimination step and before any
/// dependent row reads it.
#[inline]
pub fn finalize_row<T: Scalar>(ctx: &NumericCtx<'_, T>, r: usize) {
    let range = ctx.row_range(r);
    let dp = ctx.diag_pos[r] - range.start;
    // Safety: finalize runs exactly once, inside row `r`'s exclusive
    // ownership window, before any dependent row reads it.
    let vr = unsafe { ctx.vals.view_mut(range) };
    let mut dropped_sum = T::ZERO;
    if !ctx.drop_thresh.is_empty() {
        let thresh = ctx.drop_thresh[r];
        for v in vr[dp + 1..].iter_mut() {
            if *v != T::ZERO && v.abs() < thresh {
                dropped_sum += *v;
                *v = T::ZERO;
                ctx.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let mut d = vr[dp];
    if ctx.milu_omega != T::ZERO {
        d += ctx.milu_omega * dropped_sum;
    }
    match javelin_sparse::fault::fire("numeric.pivot") {
        Some(javelin_sparse::fault::FaultAction::Zero) => d = T::ZERO,
        Some(javelin_sparse::fault::FaultAction::Nan) => d = T::from_f64(f64::NAN),
        Some(javelin_sparse::fault::FaultAction::Panic) => {
            panic!("fault injected at numeric.pivot")
        }
        None => {}
    }
    // A non-finite pivot is a breakdown too: NaN/Inf compares false
    // against the threshold but would poison every dependent row.
    if d.abs() < ctx.pivot_threshold || !d.is_finite() {
        match ctx.zero_pivot {
            // ShiftRetry attempts run with Error semantics per sweep;
            // the retry loop above the engines applies the shifts.
            ZeroPivotPolicy::Error | ZeroPivotPolicy::ShiftRetry { .. } => ctx.record_failure(r),
            ZeroPivotPolicy::Replace { replacement } => {
                let rep = T::from_f64(replacement);
                d = if d < T::ZERO { -rep } else { rep };
                ctx.replaced.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    vr[dp] = d;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn luvals_roundtrip_f64() {
        let v = LuVals::<f64>::from_values(&[1.5, -2.25, 0.0]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert_eq!(v.get(1), -2.25);
        v.set(1, 7.0);
        assert_eq!(v.into_values(), vec![1.5, 7.0, 0.0]);
    }

    #[test]
    fn luvals_roundtrip_f32() {
        let v = LuVals::<f32>::from_values(&[0.5, 3.5]);
        v.set(0, -1.25);
        assert_eq!(v.into_values(), vec![-1.25f32, 3.5]);
    }

    #[test]
    fn workspace_maps_current_row_only() {
        let rowptr = vec![0, 2, 4];
        let colidx = vec![0, 1, 0, 1];
        let mut ws = RowWorkspace::new(2);
        ws.load_row(&rowptr, &colidx, 0);
        assert_eq!(ws.entry_of(0), Some(0));
        assert_eq!(ws.entry_of(1), Some(1));
        ws.load_row(&rowptr, &colidx, 1);
        assert_eq!(ws.entry_of(0), Some(2));
        assert_eq!(ws.entry_of(1), Some(3));
    }

    /// 2x2 dense: A = [[4, 2], [1, 3]]; LU: l21 = 1/4, u22 = 3 - 2/4.
    #[test]
    fn eliminates_a_2x2_row() {
        let rowptr = vec![0, 2, 4];
        let colidx = vec![0, 1, 0, 1];
        let diag_pos = vec![0, 3];
        let vals = LuVals::from_values(&[4.0, 2.0, 1.0, 3.0]);
        let replaced = AtomicUsize::new(0);
        let dropped = AtomicUsize::new(0);
        let failed = AtomicUsize::new(usize::MAX);
        let ctx = NumericCtx {
            rowptr: &rowptr,
            colidx: &colidx,
            diag_pos: &diag_pos,
            vals: &vals,
            drop_thresh: &[],
            milu_omega: 0.0,
            pivot_threshold: 1e-14,
            zero_pivot: ZeroPivotPolicy::Error,
            replaced: &replaced,
            dropped: &dropped,
            failed_row: &failed,
        };
        let mut ws = RowWorkspace::new(2);
        finalize_row(&ctx, 0);
        ws.load_row(&rowptr, &colidx, 1);
        eliminate_columns(&ctx, &ws, 1, 0, 2);
        finalize_row(&ctx, 1);
        let out = vals.into_values();
        assert_eq!(out, vec![4.0, 2.0, 0.25, 2.5]);
        assert_eq!(failed.load(Ordering::Relaxed), usize::MAX);
    }

    #[test]
    fn window_split_equals_full_sweep() {
        // Row 2 of a dense 3x3 processed as [0,1) then [1,2) must equal
        // one [0,2) sweep.
        let a = [[4.0, 1.0, 2.0], [1.0, 5.0, 1.0], [2.0, 1.0, 6.0]];
        let build = || {
            let rowptr = vec![0, 3, 6, 9];
            let colidx = vec![0, 1, 2, 0, 1, 2, 0, 1, 2];
            let diag_pos = vec![0, 4, 8];
            let flat: Vec<f64> = a.iter().flatten().copied().collect();
            (rowptr, colidx, diag_pos, LuVals::from_values(&flat))
        };
        let run = |windows: &[(usize, usize)]| -> Vec<f64> {
            let (rowptr, colidx, diag_pos, vals) = build();
            let replaced = AtomicUsize::new(0);
            let dropped = AtomicUsize::new(0);
            let failed = AtomicUsize::new(usize::MAX);
            let ctx = NumericCtx {
                rowptr: &rowptr,
                colidx: &colidx,
                diag_pos: &diag_pos,
                vals: &vals,
                drop_thresh: &[],
                milu_omega: 0.0,
                pivot_threshold: 1e-14,
                zero_pivot: ZeroPivotPolicy::Error,
                replaced: &replaced,
                dropped: &dropped,
                failed_row: &failed,
            };
            let mut ws = RowWorkspace::new(3);
            for r in 0..3 {
                ws.load_row(&rowptr, &colidx, r);
                if r < 2 {
                    eliminate_columns(&ctx, &ws, r, 0, 3);
                } else {
                    for &(lo, hi) in windows {
                        eliminate_columns(&ctx, &ws, r, lo, hi);
                    }
                }
                finalize_row(&ctx, r);
            }
            vals.into_values()
        };
        let full = run(&[(0, 3)]);
        let split = run(&[(0, 1), (1, 3)]);
        assert_eq!(full, split);
    }

    #[test]
    fn pivot_replacement_policy() {
        // Diagonal becomes exactly zero: 1x1 matrix with value 0.
        let rowptr = vec![0, 1];
        let colidx = vec![0];
        let diag_pos = vec![0];
        let vals = LuVals::from_values(&[0.0]);
        let replaced = AtomicUsize::new(0);
        let dropped = AtomicUsize::new(0);
        let failed = AtomicUsize::new(usize::MAX);
        let ctx = NumericCtx {
            rowptr: &rowptr,
            colidx: &colidx,
            diag_pos: &diag_pos,
            vals: &vals,
            drop_thresh: &[],
            milu_omega: 0.0,
            pivot_threshold: 1e-14,
            zero_pivot: ZeroPivotPolicy::Replace { replacement: 1e-6 },
            replaced: &replaced,
            dropped: &dropped,
            failed_row: &failed,
        };
        finalize_row(&ctx, 0);
        assert_eq!(replaced.load(Ordering::Relaxed), 1);
        assert_eq!(vals.get(0), 1e-6);
    }

    #[test]
    fn pivot_error_policy_records_row() {
        let rowptr = vec![0, 1];
        let colidx = vec![0];
        let diag_pos = vec![0];
        let vals = LuVals::from_values(&[0.0f64]);
        let replaced = AtomicUsize::new(0);
        let dropped = AtomicUsize::new(0);
        let failed = AtomicUsize::new(usize::MAX);
        let ctx = NumericCtx {
            rowptr: &rowptr,
            colidx: &colidx,
            diag_pos: &diag_pos,
            vals: &vals,
            drop_thresh: &[],
            milu_omega: 0.0,
            pivot_threshold: 1e-14,
            zero_pivot: ZeroPivotPolicy::Error,
            replaced: &replaced,
            dropped: &dropped,
            failed_row: &failed,
        };
        finalize_row(&ctx, 0);
        assert_eq!(failed.load(Ordering::Relaxed), 1); // row 0 + 1
    }

    #[test]
    fn dropping_zeroes_small_u_entries_and_milu_compensates() {
        // Row 0: diag 2.0 with tiny U neighbour 1e-9.
        let rowptr = vec![0, 2, 3];
        let colidx = vec![0, 1, 1];
        let diag_pos = vec![0, 2];
        let vals = LuVals::from_values(&[2.0, 1e-9, 1.0]);
        let replaced = AtomicUsize::new(0);
        let dropped = AtomicUsize::new(0);
        let failed = AtomicUsize::new(usize::MAX);
        let thresh = vec![1e-6, 1e-6];
        let ctx = NumericCtx {
            rowptr: &rowptr,
            colidx: &colidx,
            diag_pos: &diag_pos,
            vals: &vals,
            drop_thresh: &thresh,
            milu_omega: 1.0,
            pivot_threshold: 1e-14,
            zero_pivot: ZeroPivotPolicy::Error,
            replaced: &replaced,
            dropped: &dropped,
            failed_row: &failed,
        };
        finalize_row(&ctx, 0);
        assert_eq!(dropped.load(Ordering::Relaxed), 1);
        assert_eq!(vals.get(1), 0.0);
        // MILU: diag absorbed the dropped value.
        assert_eq!(vals.get(0), 2.0 + 1e-9);
    }
}
