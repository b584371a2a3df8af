//! Batched numeric factorization: `k` value-sets through **one**
//! schedule walk.
//!
//! The scenario workloads of the paper's motivating domain (circuit
//! parameter sweeps, Monte-Carlo corners) produce many
//! *pattern-identical* matrices. Factoring them one by one repeats the
//! part that does not depend on the values at all: the level-schedule
//! walk, the point-to-point waits, the counter resets, the team
//! regions and the per-row pattern walk. The batch kernels
//! here run that pattern machinery **once** and loop the per-row
//! arithmetic over the `k` value-sets through the
//! [`Lanes`] layer — `FixedLanes<K>`
//! monomorphizations for `k ∈ {1, 4, 8}`, the bit-identical `DynLanes`
//! fallback otherwise.
//!
//! Layout: factor values are **row-interleaved** per entry — scenario
//! `c` of LU entry `e` lives at `e·k + c` (the [`Lanes::idx`]
//! convention), so one entry's `k` scenarios are contiguous for the
//! inner per-lane loops. Per-scenario drop thresholds use the same
//! interleaving over rows (`r·k + c`).
//!
//! Determinism: lane arithmetic touches only lane-`c` positions and
//! lane-`c` counters, and within a lane the operations run in exactly
//! the scalar kernel's order. Scenario `c` of any batch engine is
//! therefore **bit-identical** to the scalar engines run on matrix `c`
//! alone — the contract the differential proptests in
//! `crates/core/tests/batch_differential.rs` enforce.

#![allow(unsafe_code)] // LuVals row views; protocol documented in kernel.rs.

use crate::numeric::kernel::{l_window, LuVals, RowWorkspace};
use crate::numeric::plan::{updates, UpdatePlan};
use crate::options::ZeroPivotPolicy;
use javelin_level::P2PSchedule;
use javelin_sparse::lanes::{lane_fnma, Lanes};
use javelin_sparse::Scalar;
use javelin_sync::{Exec, ProgressCounters};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Shared mutable state of a batched numeric run: the interleaved
/// value buffer plus **per-scenario** counters, so one scenario's
/// breakdown or drop statistics never bleed into its neighbours.
pub struct BatchNumericCtx<'a, T: Scalar> {
    /// Combined-LU pattern row pointers (permuted).
    pub rowptr: &'a [usize],
    /// Combined-LU pattern column indices (permuted).
    pub colidx: &'a [usize],
    /// Diagonal entry position of each row.
    pub diag_pos: &'a [usize],
    /// The pattern's update plan (`None` above its size rule; see
    /// [`crate::numeric::plan`]).
    pub plan: Option<&'a UpdatePlan>,
    /// Interleaved bit-packed values: scenario `c` of entry `e` at
    /// `e·k + c`.
    pub vals: &'a LuVals<T>,
    /// Interleaved per-scenario τ drop thresholds (`r·k + c`); an empty
    /// slice disables dropping for every scenario.
    pub drop_thresh: &'a [T],
    /// MILU compensation factor ω (shared: an options knob, not data).
    pub milu_omega: T,
    /// Pivot breakdown threshold.
    pub pivot_threshold: T,
    /// Breakdown policy.
    pub zero_pivot: ZeroPivotPolicy,
    /// Per-scenario replaced-pivot counters.
    pub replaced: &'a [AtomicUsize],
    /// Per-scenario dropped-entry counters.
    pub dropped: &'a [AtomicUsize],
    /// Per-scenario breakdown flags: `usize::MAX` = ok, else the
    /// smallest failing row + 1 of that scenario.
    pub failed_row: &'a [AtomicUsize],
}

impl<'a, T: Scalar> BatchNumericCtx<'a, T> {
    /// Entry range of a row.
    #[inline(always)]
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.rowptr[r]..self.rowptr[r + 1]
    }

    /// Records a pivot breakdown of scenario `lane` at `row`.
    #[inline]
    pub fn record_failure(&self, lane: usize, row: usize) {
        // Keep the smallest failing row for a deterministic error.
        self.failed_row[lane].fetch_min(row + 1, Ordering::AcqRel);
    }
}

/// Batched [`eliminate_columns`](crate::numeric::kernel::eliminate_columns):
/// the up-looking elimination steps of row `r` restricted to the column
/// window, with the per-entry arithmetic looped over the `k` scenario
/// lanes. The pattern walk (window clipping, the plan's hits or the
/// fallback scan through `ws`) runs once and serves every lane; within
/// a lane the operations follow exactly the scalar kernel's order.
#[inline]
pub fn eliminate_columns_lanes<T: Scalar, L: Lanes>(
    lanes: L,
    ctx: &BatchNumericCtx<'_, T>,
    ws: &mut RowWorkspace,
    r: usize,
    col_lo: usize,
    col_hi: usize,
) {
    let k = lanes.width();
    let dropping = !ctx.drop_thresh.is_empty();
    let erange = ctx.row_range(r);
    let base = erange.start;
    let window = l_window(ctx.rowptr, ctx.colidx, ctx.diag_pos, r, col_lo, col_hi);
    if ctx.plan.is_none() {
        ws.load_row(ctx.rowptr, ctx.colidx, r);
    }
    // Safety: the batch engines call this only while row `r` is
    // exclusively owned by this worker (between its ready- and
    // retire-signal), so its `k` interleaved lanes are private.
    let vr = unsafe { ctx.vals.view_mut(base * k..erange.end * k) };
    for e in window {
        let (piv, ups) = updates(ctx.plan, ws, ctx.rowptr, ctx.colidx, ctx.diag_pos, r, e);
        // Safety: row `c < r` is finalized, hence quiescent; its lanes
        // from the pivot through the last U entry the updates read are
        // read-only for the rest of the run.
        let uc = unsafe { ctx.vals.view(piv * k..(piv + ups.span()) * k) };
        let le = (e - base) * k;
        if dropping {
            // τ-dropping is per-lane control flow (each lane decides
            // independently whether to zero the entry and skip its
            // sweep), so keep the scalar lane-major walk.
            for lane in 0..k {
                let l = vr[le + lane] / uc[lane];
                if l.abs() < ctx.drop_thresh[lanes.idx(r, lane)] {
                    // This lane treats the entry as zero: skip its update
                    // sweep. The position stays in the (shared) pattern.
                    vr[le + lane] = T::ZERO;
                    ctx.dropped[lane].fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                vr[le + lane] = l;
                // a[r, j] -= l * u[c, j] for every j > c stored in both rows.
                ups.for_each(|u, p| vr[p * k + lane] -= l * uc[u * k + lane]);
            }
        } else {
            // Fused path: no lane can drop, so compute every lane's
            // multiplier first, then retire the updates one entry at a
            // time through the k-lane `lane_fnma` micro-op.
            // Entry-major vs lane-major is bit-identical: each
            // (entry, lane) location is updated exactly once per
            // eliminated column, in the same per-location order, with
            // the same multiply-then-subtract expression.
            //
            // Columns are sorted within a row, so every update position
            // `p` lies strictly past entry `e`; splitting at the end of
            // `e`'s lane block lets the stored multipliers serve as
            // `lane_fnma`'s per-lane coefficients.
            let (head, tail) = vr.split_at_mut(le + k);
            let lrow = &mut head[le..];
            for (lv, &piv) in lrow.iter_mut().zip(&uc[..k]) {
                *lv /= piv;
            }
            ups.for_each(|u, p| {
                let pe = p * k - (le + k);
                lane_fnma(lanes, lrow, &uc[u * k..(u + 1) * k], &mut tail[pe..pe + k]);
            });
        }
    }
}

/// Batched [`finalize_row`](crate::numeric::kernel::finalize_row):
/// τ-drop on the strict U part, MILU compensation and the pivot
/// breakdown policy, per scenario lane. A collapsing pivot marks (or,
/// under [`ZeroPivotPolicy::Replace`], repairs) **only its own lane**;
/// neighbours finalize untouched. The `numeric.pivot` failpoint fires
/// once per lane, so chaos tests can poison a single scenario column.
#[inline]
pub fn finalize_row_lanes<T: Scalar, L: Lanes>(lanes: L, ctx: &BatchNumericCtx<'_, T>, r: usize) {
    let k = lanes.width();
    let dp = ctx.diag_pos[r];
    let dropping = !ctx.drop_thresh.is_empty();
    // Safety: finalize runs exactly once per row, inside row `r`'s
    // exclusive ownership window, before any dependent row reads it.
    let vr = unsafe { ctx.vals.view_mut(dp * k..ctx.rowptr[r + 1] * k) };
    for lane in 0..k {
        let mut dropped_sum = T::ZERO;
        if dropping {
            let thresh = ctx.drop_thresh[lanes.idx(r, lane)];
            for e in 1..vr.len() / k {
                let v = vr[e * k + lane];
                if v != T::ZERO && v.abs() < thresh {
                    vr[e * k + lane] = T::ZERO;
                    dropped_sum += v;
                    ctx.dropped[lane].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let mut d = vr[lane];
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
        if d.abs() < ctx.pivot_threshold || !d.is_finite() {
            match ctx.zero_pivot {
                ZeroPivotPolicy::Error | ZeroPivotPolicy::ShiftRetry { .. } => {
                    ctx.record_failure(lane, r)
                }
                ZeroPivotPolicy::Replace { replacement } => {
                    let rep = T::from_f64(replacement);
                    d = if d < T::ZERO { -rep } else { rep };
                    ctx.replaced[lane].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        vr[lane] = d;
    }
}

/// Batched serial up-looking factorization of rows `lo..hi` against
/// columns `col_lo..` — one pattern walk per row serves all `k` lanes.
pub fn factor_batch_rows_serial_ws<T: Scalar, L: Lanes>(
    lanes: L,
    ctx: &BatchNumericCtx<'_, T>,
    lo: usize,
    hi: usize,
    col_lo: usize,
    ws: &mut RowWorkspace,
) {
    let n = ctx.rowptr.len() - 1;
    for r in lo..hi {
        eliminate_columns_lanes(lanes, ctx, ws, r, col_lo, n);
        finalize_row_lanes(lanes, ctx, r);
    }
}

/// Batched serial sweep over all rows — the reference the parallel
/// batch engines must match bit-for-bit per lane.
pub fn factor_batch_serial_ws<T: Scalar, L: Lanes>(
    lanes: L,
    ctx: &BatchNumericCtx<'_, T>,
    ws: &mut RowWorkspace,
) {
    let n = ctx.rowptr.len() - 1;
    factor_batch_rows_serial_ws(lanes, ctx, 0, n, 0, ws);
}

/// Batched
/// [`factor_upper_p2p_planned`](crate::numeric::parallel::factor_upper_p2p_planned):
/// the point-to-point upper stage on pre-built execution state, with
/// every row's waits, pattern walk and release-bump performed once
/// for all `k` scenario lanes — the walk amortization of the batch. A
/// zero-allocation, zero-spawn region on the persistent team.
pub fn factor_batch_upper_p2p_planned<T: Scalar, L: Lanes>(
    lanes: L,
    ctx: &BatchNumericCtx<'_, T>,
    schedule: &P2PSchedule,
    exec: &Exec,
    progress: &ProgressCounters,
    workspaces: &[Mutex<RowWorkspace>],
) {
    let nthreads = schedule.nthreads();
    debug_assert_eq!(exec.nthreads(), nthreads);
    debug_assert_eq!(progress.len(), nthreads);
    debug_assert_eq!(workspaces.len(), nthreads);
    if nthreads == 1 {
        factor_batch_rows_serial_ws(
            lanes,
            ctx,
            0,
            schedule.n_tasks(),
            0,
            &mut workspaces[0].lock(),
        );
        return;
    }
    progress.reset();
    let n = ctx.rowptr.len() - 1;
    exec.run(|tid| {
        let mut ws = workspaces[tid].lock();
        for &row in schedule.thread_tasks(tid) {
            progress.wait_all(schedule.waits(row));
            eliminate_columns_lanes(lanes, ctx, &mut ws, row, 0, n);
            finalize_row_lanes(lanes, ctx, row);
            progress.bump(tid);
        }
    });
}

/// Batched
/// [`factor_lower_er_planned`](crate::numeric::lower::factor_lower_er_planned):
/// the Even-Rows `FACTOR_L` sweep over trailing rows as one region on
/// the persistent team, then the serial corner — all `k` lanes retired
/// per row under one chunking and one pattern walk.
pub fn factor_batch_lower_er_planned<T: Scalar, L: Lanes>(
    lanes: L,
    ctx: &BatchNumericCtx<'_, T>,
    n_upper: usize,
    exec: &Exec,
    workspaces: &[Mutex<RowWorkspace>],
) {
    let n = ctx.rowptr.len() - 1;
    let n_lower = n - n_upper;
    if n_lower == 0 {
        return;
    }
    let nthreads = exec.nthreads();
    debug_assert_eq!(workspaces.len(), nthreads);
    let chunk = n_lower.div_ceil(nthreads.max(1)).max(1);
    exec.run(|tid| {
        let start = (tid * chunk).min(n_lower);
        let end = ((tid + 1) * chunk).min(n_lower);
        if start >= end {
            return;
        }
        let mut ws = workspaces[tid].lock();
        for off in start..end {
            eliminate_columns_lanes(lanes, ctx, &mut ws, n_upper + off, 0, n_upper);
        }
    });
    factor_batch_rows_serial_ws(lanes, ctx, n_upper, n, n_upper, &mut workspaces[0].lock());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::kernel::{eliminate_columns, finalize_row};
    use crate::numeric::NumericCtx;
    use javelin_sparse::lanes::{DynLanes, FixedLanes};

    /// Dense 4x4 nonsymmetric matrix as CSR parts.
    fn dense4(scale: f64) -> (Vec<usize>, Vec<usize>, Vec<usize>, Vec<f64>) {
        let a = [
            [10.0, 1.0, 2.0, 0.5],
            [1.5, 9.0, 0.5, 1.0],
            [2.0, 0.5, 8.0, 1.5],
            [0.5, 1.0, 1.5, 7.0],
        ];
        let rowptr = (0..=4).map(|i| i * 4).collect();
        let colidx = (0..4).flat_map(|_| 0..4).collect();
        let diag_pos = (0..4).map(|i| i * 4 + i).collect();
        let vals = a
            .iter()
            .flatten()
            .enumerate()
            .map(|(i, v)| v * scale + i as f64 * 0.01 * (scale - 1.0))
            .collect();
        (rowptr, colidx, diag_pos, vals)
    }

    fn scalar_reference(flat: &[f64]) -> Vec<u64> {
        let (rowptr, colidx, diag_pos, _) = dense4(1.0);
        let vals = LuVals::from_values(flat);
        let replaced = AtomicUsize::new(0);
        let dropped = AtomicUsize::new(0);
        let failed = AtomicUsize::new(usize::MAX);
        let ctx = NumericCtx {
            rowptr: &rowptr,
            colidx: &colidx,
            diag_pos: &diag_pos,
            plan: None,
            vals: &vals,
            drop_thresh: &[],
            milu_omega: 0.0,
            pivot_threshold: 1e-14,
            zero_pivot: ZeroPivotPolicy::Error,
            replaced: &replaced,
            dropped: &dropped,
            failed_row: &failed,
        };
        let mut ws = RowWorkspace::new(4);
        for r in 0..4 {
            eliminate_columns(&ctx, &mut ws, r, 0, 4);
            finalize_row(&ctx, r);
        }
        vals.into_values().iter().map(|v| v.to_bits()).collect()
    }

    /// Runs the batch serially, with the update plan and through the
    /// scanning fallback; the two must agree bit for bit.
    fn run_batch<L: Lanes>(lanes: L, scenarios: &[Vec<f64>]) -> Vec<Vec<u64>> {
        let k = lanes.width();
        assert_eq!(scenarios.len(), k);
        let (rowptr, colidx, diag_pos, _) = dense4(1.0);
        let plan = UpdatePlan::build(&rowptr, &colidx, &diag_pos, usize::MAX).unwrap();
        let nnz = colidx.len();
        let run = |plan: Option<&UpdatePlan>| {
            let vals = LuVals::<f64>::zeroed(nnz * k);
            for (c, s) in scenarios.iter().enumerate() {
                for (e, v) in s.iter().enumerate() {
                    vals.set(e * k + c, *v);
                }
            }
            let replaced: Vec<AtomicUsize> = (0..k).map(|_| AtomicUsize::new(0)).collect();
            let dropped: Vec<AtomicUsize> = (0..k).map(|_| AtomicUsize::new(0)).collect();
            let failed: Vec<AtomicUsize> = (0..k).map(|_| AtomicUsize::new(usize::MAX)).collect();
            let ctx = BatchNumericCtx {
                rowptr: &rowptr,
                colidx: &colidx,
                diag_pos: &diag_pos,
                plan,
                vals: &vals,
                drop_thresh: &[],
                milu_omega: 0.0,
                pivot_threshold: 1e-14,
                zero_pivot: ZeroPivotPolicy::Error,
                replaced: &replaced,
                dropped: &dropped,
                failed_row: &failed,
            };
            let mut ws = RowWorkspace::new(if plan.is_some() { 0 } else { 4 });
            factor_batch_serial_ws(lanes, &ctx, &mut ws);
            for f in &failed {
                assert_eq!(f.load(Ordering::Relaxed), usize::MAX);
            }
            (0..k)
                .map(|c| (0..nnz).map(|e| vals.get(e * k + c).to_bits()).collect())
                .collect::<Vec<Vec<u64>>>()
        };
        let scanned = run(None);
        assert_eq!(run(Some(&plan)), scanned, "planned vs scanned");
        scanned
    }

    #[test]
    fn batch_lane_matches_scalar_kernel_bitwise() {
        let scenarios: Vec<Vec<f64>> = [1.0, 1.25, 0.8, 2.0].iter().map(|&s| dense4(s).3).collect();
        let got = run_batch(FixedLanes::<4>, &scenarios);
        for (c, s) in scenarios.iter().enumerate() {
            assert_eq!(got[c], scalar_reference(s), "scenario {c}");
        }
    }

    #[test]
    fn fixed_and_dyn_batch_agree_bitwise() {
        let scenarios: Vec<Vec<f64>> = [1.0, 1.25, 0.8, 2.0].iter().map(|&s| dense4(s).3).collect();
        assert_eq!(
            run_batch(FixedLanes::<4>, &scenarios),
            run_batch(DynLanes(4), &scenarios)
        );
    }

    #[test]
    fn width_one_batch_is_the_scalar_path() {
        let s = dense4(1.3).3;
        let got = run_batch(FixedLanes::<1>, std::slice::from_ref(&s));
        assert_eq!(got[0], scalar_reference(&s));
    }

    #[test]
    fn one_singular_lane_fails_without_perturbing_neighbours() {
        // Scenario 1's diagonal is zeroed at row 2; the other lanes'
        // factors and counters must be exactly those of a clean run.
        let clean: Vec<Vec<f64>> = [1.0, 1.25, 0.8].iter().map(|&s| dense4(s).3).collect();
        let reference = run_batch(DynLanes(3), &clean);
        let mut poisoned = clean.clone();
        // Make row 2 of scenario 1 exactly dependent on rows 0/1 so the
        // pivot collapses: easiest is a zero row scaled into the diag.
        for e in 8..12 {
            poisoned[1][e] = 0.0;
        }
        let (rowptr, colidx, diag_pos, _) = dense4(1.0);
        let k = 3;
        let nnz = colidx.len();
        let vals = LuVals::<f64>::zeroed(nnz * k);
        for (c, s) in poisoned.iter().enumerate() {
            for (e, v) in s.iter().enumerate() {
                vals.set(e * k + c, *v);
            }
        }
        let replaced: Vec<AtomicUsize> = (0..k).map(|_| AtomicUsize::new(0)).collect();
        let dropped: Vec<AtomicUsize> = (0..k).map(|_| AtomicUsize::new(0)).collect();
        let failed: Vec<AtomicUsize> = (0..k).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let ctx = BatchNumericCtx {
            rowptr: &rowptr,
            colidx: &colidx,
            diag_pos: &diag_pos,
            plan: None,
            vals: &vals,
            drop_thresh: &[],
            milu_omega: 0.0,
            pivot_threshold: 1e-14,
            zero_pivot: ZeroPivotPolicy::Error,
            replaced: &replaced,
            dropped: &dropped,
            failed_row: &failed,
        };
        let mut ws = RowWorkspace::new(4);
        factor_batch_serial_ws(DynLanes(3), &ctx, &mut ws);
        assert_eq!(failed[0].load(Ordering::Relaxed), usize::MAX);
        assert_eq!(failed[1].load(Ordering::Relaxed), 3); // row 2 + 1
        assert_eq!(failed[2].load(Ordering::Relaxed), usize::MAX);
        for c in [0usize, 2] {
            let bits: Vec<u64> = (0..nnz).map(|e| vals.get(e * k + c).to_bits()).collect();
            assert_eq!(bits, reference[c], "lane {c}");
        }
    }
}
