//! Engine orchestration: serial sweep and the point-to-point upper
//! stage.

use crate::numeric::kernel::{eliminate_columns, finalize_row, RowWorkspace};
use crate::numeric::NumericCtx;
use javelin_level::P2PSchedule;
use javelin_sparse::Scalar;
use javelin_sync::{pool, Exec, ProgressCounters};
use parking_lot::Mutex;

/// Serial up-looking factorization of rows `0..n` — the reference every
/// parallel engine must match bit-for-bit.
pub fn factor_serial<T: Scalar>(ctx: &NumericCtx<'_, T>) {
    factor_serial_ws(ctx, &mut ctx.workspace());
}

/// [`factor_serial`] with a caller-owned workspace — the allocation-free
/// form the numeric-refactorization path uses.
pub fn factor_serial_ws<T: Scalar>(ctx: &NumericCtx<'_, T>, ws: &mut RowWorkspace) {
    let n = ctx.rowptr.len() - 1;
    factor_rows_serial_ws(ctx, 0, n, 0, ws);
}

/// Serial up-looking factorization restricted to rows `lo..hi`
/// (used for the lower-stage corner).
pub fn factor_rows_serial<T: Scalar>(ctx: &NumericCtx<'_, T>, lo: usize, hi: usize, col_lo: usize) {
    factor_rows_serial_ws(ctx, lo, hi, col_lo, &mut ctx.workspace());
}

/// [`factor_rows_serial`] with a caller-owned workspace.
pub fn factor_rows_serial_ws<T: Scalar>(
    ctx: &NumericCtx<'_, T>,
    lo: usize,
    hi: usize,
    col_lo: usize,
    ws: &mut RowWorkspace,
) {
    let n = ctx.rowptr.len() - 1;
    for r in lo..hi {
        eliminate_columns(ctx, ws, r, col_lo, n);
        finalize_row(ctx, r);
    }
}

/// Point-to-point upper-stage factorization: each thread walks its
/// static task sequence, spin-waits on the pruned `(thread, progress)`
/// list, factors the row, and release-bumps its counter — the paper's
/// replacement for inter-level barriers (§III-A).
///
/// Rows are the first `schedule.n_tasks()` rows of the permuted matrix
/// (execution index = row index).
pub fn factor_upper_p2p<T: Scalar>(ctx: &NumericCtx<'_, T>, schedule: &P2PSchedule) {
    let nthreads = schedule.nthreads();
    if nthreads == 1 {
        // Degenerate single-thread run: plain sweep over the upper rows.
        factor_rows_serial(ctx, 0, schedule.n_tasks(), 0);
        return;
    }
    let n = ctx.rowptr.len() - 1;
    let progress = ProgressCounters::new(nthreads);
    pool::run_on_threads(nthreads, |tid| {
        // Workspace allocated inside the worker: first-touch local, as
        // the paper's copy-fill-in phase recommends.
        let mut ws = ctx.workspace();
        for &row in schedule.thread_tasks(tid) {
            progress.wait_all(schedule.waits(row));
            eliminate_columns(ctx, &mut ws, row, 0, n);
            finalize_row(ctx, row);
            progress.bump(tid);
        }
    });
}

/// [`factor_upper_p2p`] on pre-built execution state: the region runs on
/// `exec` (a persistent worker team by default), the progress counters
/// are reset and reused, and each participant borrows its preallocated
/// [`RowWorkspace`] — zero heap allocations and zero thread spawns. This
/// is the numeric-refactorization path; results are bit-identical to
/// [`factor_upper_p2p`].
///
/// `exec`, `progress` and `workspaces` must all carry
/// `schedule.nthreads()` participants.
pub fn factor_upper_p2p_planned<T: Scalar>(
    ctx: &NumericCtx<'_, T>,
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
        factor_rows_serial_ws(ctx, 0, schedule.n_tasks(), 0, &mut workspaces[0].lock());
        return;
    }
    progress.reset();
    let n = ctx.rowptr.len() - 1;
    exec.run(|tid| {
        let mut ws = workspaces[tid].lock();
        for &row in schedule.thread_tasks(tid) {
            progress.wait_all(schedule.waits(row));
            eliminate_columns(ctx, &mut ws, row, 0, n);
            finalize_row(ctx, row);
            progress.bump(tid);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::kernel::LuVals;
    use crate::options::ZeroPivotPolicy;
    use std::sync::atomic::AtomicUsize;

    /// Dense 4x4 SPD-ish matrix stored as CSR.
    fn dense4() -> (Vec<usize>, Vec<usize>, Vec<usize>, Vec<f64>) {
        let a = [
            [10.0, 1.0, 2.0, 0.5],
            [1.0, 9.0, 0.5, 1.0],
            [2.0, 0.5, 8.0, 1.5],
            [0.5, 1.0, 1.5, 7.0],
        ];
        let rowptr = (0..=4).map(|i| i * 4).collect();
        let colidx = (0..4).flat_map(|_| 0..4).collect();
        let diag_pos = (0..4).map(|i| i * 4 + i).collect();
        let vals = a.iter().flatten().copied().collect();
        (rowptr, colidx, diag_pos, vals)
    }

    fn ctx_parts() -> (AtomicUsize, AtomicUsize, AtomicUsize) {
        (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(usize::MAX),
        )
    }

    #[test]
    fn serial_dense4_matches_dense_lu() {
        let (rowptr, colidx, diag_pos, flat) = dense4();
        let vals = LuVals::from_values(&flat);
        let (replaced, dropped, failed) = ctx_parts();
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
        factor_serial(&ctx);
        let lu = vals.into_values();
        // Dense Doolittle reference.
        let mut a = [
            [10.0, 1.0, 2.0, 0.5],
            [1.0, 9.0, 0.5, 1.0],
            [2.0, 0.5, 8.0, 1.5],
            [0.5, 1.0, 1.5, 7.0],
        ];
        for i in 1..4 {
            for c in 0..i {
                let l = a[i][c] / a[c][c];
                a[i][c] = l;
                for j in (c + 1)..4 {
                    a[i][j] -= l * a[c][j];
                }
            }
        }
        let reference: Vec<f64> = a.iter().flatten().copied().collect();
        for (got, want) in lu.iter().zip(reference.iter()) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn p2p_matches_serial_bitwise() {
        let (rowptr, colidx, diag_pos, flat) = dense4();
        let run_serial = {
            let vals = LuVals::from_values(&flat);
            let (replaced, dropped, failed) = ctx_parts();
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
            factor_serial(&ctx);
            vals.into_values()
        };
        for nthreads in [1, 2, 3] {
            let vals = LuVals::from_values(&flat);
            let (replaced, dropped, failed) = ctx_parts();
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
            // Dense lower triangle: each row is its own level.
            let level_ptr: Vec<usize> = (0..=4).collect();
            let deps = |r: usize, out: &mut Vec<usize>| out.extend(0..r);
            let schedule = P2PSchedule::build(4, nthreads, &level_ptr, deps);
            factor_upper_p2p(&ctx, &schedule);
            let lu = vals.into_values();
            let same: Vec<u64> = lu.iter().map(|v| v.to_bits()).collect();
            let expect: Vec<u64> = run_serial.iter().map(|v| v.to_bits()).collect();
            assert_eq!(same, expect, "nthreads = {nthreads}");
        }
    }
}
