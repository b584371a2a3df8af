//! The lower-stage factorization methods (paper §III-B).
//!
//! Both methods exploit the same structural fact: a row demoted to the
//! lower stage depends only on (finished) upper-stage rows until its
//! columns cross into the corner, so all trailing rows' sub-corner work
//! is mutually independent.
//!
//! * **Even-Rows** ([`factor_lower_er`], Figs. 7–8): threads take
//!   contiguous chunks of whole trailing rows and run `FACTOR_L` against
//!   the finished upper stage; good when there are clearly more demoted
//!   rows than threads.
//! * **Segmented-Rows** ([`factor_lower_sr`], Figs. 5–6): each trailing
//!   row's sub-corner entries are segmented into per-level *blocks*
//!   (contiguous column ranges, independent within a block thanks to the
//!   `lower(A+Aᵀ)` level order), blocks are optionally split into
//!   *tiles* whose updates accumulate into private delta buffers, and
//!   the whole thing runs as a DAG on the lightweight task graph —
//!   DIVIDE_COLUMNS / UPDATE_BLOCK in the paper's terms. Chosen when
//!   the demoted rows are few but heavy.
//!
//! Both finish with `FACTOR_LU` on the corner ([`factor_corner`]),
//! serial by default ("for most matrices, serial seems to be good
//! enough" — §III-B), optionally point-to-point parallel.
//!
//! Every path preserves the serial within-row operation order, so
//! results are bit-identical to the serial sweep.

// SR tiles take `LuVals` row views over their exclusively-owned entry
// subranges; the ownership protocol is documented in `kernel.rs`.
#![allow(unsafe_code)]

use crate::numeric::kernel::{eliminate_columns, finalize_row, RowWorkspace};
use crate::numeric::parallel::{factor_rows_serial, factor_rows_serial_ws};
use crate::numeric::plan::updates;
use crate::numeric::NumericCtx;
use javelin_sparse::Scalar;
use javelin_sync::{pool, Exec, TaskGraph};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;

/// Even-Rows: factors trailing rows `n_upper..n` against the finished
/// upper stage, then the corner.
pub fn factor_lower_er<T: Scalar>(
    ctx: &NumericCtx<'_, T>,
    n_upper: usize,
    nthreads: usize,
    parallel_corner: bool,
) {
    let n = ctx.rowptr.len() - 1;
    let n_lower = n - n_upper;
    if n_lower == 0 {
        return;
    }
    pool::parallel_chunks(nthreads, n_lower, |_tid, range| {
        let mut ws = ctx.workspace();
        for off in range {
            // FACTOR_L: everything left of the corner.
            eliminate_columns(ctx, &mut ws, n_upper + off, 0, n_upper);
        }
    });
    if parallel_corner {
        factor_corner_parallel(ctx, n_upper, nthreads);
    } else {
        factor_corner(ctx, n_upper);
    }
}

/// Even-Rows on pre-built execution state: the `FACTOR_L` sweep over
/// trailing rows runs as one region on `exec` (a persistent worker team
/// by default) with each participant borrowing its preallocated
/// [`RowWorkspace`], then the corner is factored serially through
/// participant 0's workspace — zero heap allocations, zero thread
/// spawns. The numeric-refactorization path; bit-identical to
/// [`factor_lower_er`] (and, by the engines' determinism contract, to
/// Segmented-Rows and the parallel corner).
pub fn factor_lower_er_planned<T: Scalar>(
    ctx: &NumericCtx<'_, T>,
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
            eliminate_columns(ctx, &mut ws, n_upper + off, 0, n_upper);
        }
    });
    factor_rows_serial_ws(ctx, n_upper, n, n_upper, &mut workspaces[0].lock());
}

/// One Segmented-Rows work item.
enum SrNode {
    /// Small segment: divide + update directly (entry range `k_lo..k_hi`
    /// of `row`, all columns inside one level block).
    Seg {
        row: usize,
        k_lo: usize,
        k_hi: usize,
    },
    /// Tile of a large segment: divide its entries and collect update
    /// deltas into `buf`.
    Tile {
        row: usize,
        k_lo: usize,
        k_hi: usize,
        buf: usize,
    },
    /// Applies the delta buffers `bufs` (in order) to `row`.
    Apply { bufs: std::ops::Range<usize> },
}

/// Segmented-Rows: factors trailing rows via per-(row, level-block)
/// segments with tiled updates on the task graph, then the corner.
///
/// Requires the factorization to have been scheduled on the
/// `lower(A+Aᵀ)` pattern (columns within one level block are then
/// mutually independent — the observation of §III-B).
pub fn factor_lower_sr<T: Scalar>(
    ctx: &NumericCtx<'_, T>,
    n_upper: usize,
    upper_level_ptr: &[usize],
    nthreads: usize,
    tile_size: usize,
    parallel_corner: bool,
) {
    let n = ctx.rowptr.len() - 1;
    let n_lower = n - n_upper;
    if n_lower == 0 {
        return;
    }
    let tile_size = tile_size.max(4);

    // Enumerate nodes row by row, chaining each row's blocks.
    let mut nodes: Vec<SrNode> = Vec::new();
    let mut deps: Vec<(usize, usize)> = Vec::new();
    let mut n_bufs = 0usize;
    for r in n_upper..n {
        let (rs, re) = (ctx.rowptr[r], ctx.rowptr[r + 1]);
        // Sub-corner entries: columns < n_upper form a sorted prefix.
        let sub_end = rs + ctx.colidx[rs..re].partition_point(|&c| c < n_upper);
        let mut k = rs;
        let mut prev_last: Option<usize> = None; // last node of previous block
        let mut lvl = 0usize;
        while k < sub_end {
            // Find this block: the maximal run of columns within one
            // upper level.
            while upper_level_ptr[lvl + 1] <= ctx.colidx[k] {
                lvl += 1;
            }
            let block_col_end = upper_level_ptr[lvl + 1];
            let seg_end = rs + ctx.colidx[rs..re].partition_point(|&c| c < block_col_end);
            debug_assert!(seg_end > k);
            let seg_len = seg_end - k;
            let first_node = nodes.len();
            let last_node;
            if seg_len <= tile_size {
                nodes.push(SrNode::Seg {
                    row: r,
                    k_lo: k,
                    k_hi: seg_end,
                });
                last_node = first_node;
            } else {
                // DIVIDE_COLUMNS over tiles, then one UPDATE apply.
                let buf_lo = n_bufs;
                let mut t = k;
                while t < seg_end {
                    let t_hi = (t + tile_size).min(seg_end);
                    nodes.push(SrNode::Tile {
                        row: r,
                        k_lo: t,
                        k_hi: t_hi,
                        buf: n_bufs,
                    });
                    n_bufs += 1;
                    t = t_hi;
                }
                let apply = nodes.len();
                nodes.push(SrNode::Apply {
                    bufs: buf_lo..n_bufs,
                });
                for tile_node in first_node..apply {
                    deps.push((tile_node, apply));
                }
                last_node = apply;
            }
            if let Some(p) = prev_last {
                // Chain: previous block of this row must fully finish
                // first (its updates feed this block's values).
                for node in first_node..=last_node {
                    if matches!(nodes[node], SrNode::Apply { .. }) {
                        continue; // already chained through its tiles
                    }
                    deps.push((p, node));
                }
            }
            prev_last = Some(last_node);
            k = seg_end;
        }
    }

    let bufs: Vec<Mutex<Vec<(usize, T)>>> = (0..n_bufs).map(|_| Mutex::new(Vec::new())).collect();
    let graph = TaskGraph::new(nodes.len(), &deps);
    let workspaces: Vec<Mutex<RowWorkspace>> =
        (0..nthreads).map(|_| Mutex::new(ctx.workspace())).collect();
    let dropping = !ctx.drop_thresh.is_empty();
    graph.execute_with_tid(nthreads, |tid, node| {
        match &nodes[node] {
            SrNode::Seg { row, k_lo, k_hi } => {
                let col_lo = ctx.colidx[*k_lo];
                let col_hi = ctx.colidx[*k_hi - 1] + 1;
                eliminate_columns(ctx, &mut workspaces[tid].lock(), *row, col_lo, col_hi);
            }
            SrNode::Tile {
                row,
                k_lo,
                k_hi,
                buf,
            } => {
                // DIVIDE_COLUMNS + delta collection (race-free: each
                // tile writes only its own entries and its own buffer).
                let mut ws = workspaces[tid].lock();
                if ctx.plan.is_none() {
                    ws.load_row(ctx.rowptr, ctx.colidx, *row);
                }
                let base = ctx.rowptr[*row];
                let mut deltas: Vec<(usize, T)> = Vec::new();
                // Safety: concurrent tiles of one block own disjoint
                // entry subranges, and same-row blocks are chained
                // through the task graph — `k_lo..k_hi` is exclusively
                // this tile's until its graph successors run.
                let vt = unsafe { ctx.vals.view_mut(*k_lo..*k_hi) };
                for (i, e) in (*k_lo..*k_hi).enumerate() {
                    let (piv, ups) =
                        updates(ctx.plan, &ws, ctx.rowptr, ctx.colidx, ctx.diag_pos, *row, e);
                    // Safety: row `c` is an upper-stage row, finalized
                    // before the lower stage started; the view spans its
                    // pivot through the last U entry the updates read.
                    let uc = unsafe { ctx.vals.view(piv..piv + ups.span()) };
                    let l = vt[i] / uc[0];
                    if dropping && l.abs() < ctx.drop_thresh[*row] {
                        vt[i] = T::ZERO;
                        ctx.dropped.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    vt[i] = l;
                    ups.for_each(|u, p| deltas.push((base + p, l * uc[u])));
                }
                *bufs[*buf].lock() = deltas;
            }
            SrNode::Apply { bufs: range } => {
                // UPDATE_BLOCK: apply deltas in tile order — exactly the
                // serial left-to-right accumulation.
                for b in range.clone() {
                    let deltas = bufs[b].lock();
                    for &(p, d) in deltas.iter() {
                        ctx.vals.set(p, ctx.vals.get(p) - d);
                    }
                }
            }
        }
    });
    if parallel_corner {
        factor_corner_parallel(ctx, n_upper, nthreads);
    } else {
        factor_corner(ctx, n_upper);
    }
}

/// FACTOR_LU on the corner: up-looking over trailing rows restricted to
/// corner columns, in row order.
pub fn factor_corner<T: Scalar>(ctx: &NumericCtx<'_, T>, n_upper: usize) {
    let n = ctx.rowptr.len() - 1;
    factor_rows_serial(ctx, n_upper, n, n_upper);
}

/// Point-to-point parallel FACTOR_LU on the corner — the paper's
/// optional variant ("the factorization of the corner can be done in
/// serial or parallel"; §III-B). Levels are computed on the corner's
/// own dependency sub-pattern, then the standard pruned-wait machinery
/// runs. Bit-identical to [`factor_corner`].
pub fn factor_corner_parallel<T: Scalar>(ctx: &NumericCtx<'_, T>, n_upper: usize, nthreads: usize) {
    use javelin_level::P2PSchedule;
    use javelin_sync::ProgressCounters;

    let n = ctx.rowptr.len() - 1;
    let m = n - n_upper;
    if m == 0 {
        return;
    }
    if nthreads <= 1 || m < 2 {
        factor_corner(ctx, n_upper);
        return;
    }
    // Corner levels: dep = corner column c (n_upper <= c < r).
    let mut level_of = vec![0usize; m];
    let mut n_levels = 1usize;
    for e in 0..m {
        let r = n_upper + e;
        let mut lev = 0usize;
        for k in ctx.rowptr[r]..ctx.diag_pos[r] {
            let c = ctx.colidx[k];
            if c >= n_upper {
                lev = lev.max(level_of[c - n_upper] + 1);
            }
        }
        level_of[e] = lev;
        n_levels = n_levels.max(lev + 1);
    }
    // Group rows by level (stable): exec order stays topological.
    let mut level_ptr = vec![0usize; n_levels + 1];
    for &l in &level_of {
        level_ptr[l + 1] += 1;
    }
    for l in 0..n_levels {
        level_ptr[l + 1] += level_ptr[l];
    }
    let mut row_of_task = vec![0usize; m];
    let mut next = level_ptr.clone();
    for (e, &l) in level_of.iter().enumerate() {
        row_of_task[next[l]] = n_upper + e;
        next[l] += 1;
    }
    let mut task_of_row = vec![0usize; m];
    for (t, &r) in row_of_task.iter().enumerate() {
        task_of_row[r - n_upper] = t;
    }
    let schedule = P2PSchedule::build(m, nthreads, &level_ptr, |task, out| {
        let r = row_of_task[task];
        for k in ctx.rowptr[r]..ctx.diag_pos[r] {
            let c = ctx.colidx[k];
            if c >= n_upper {
                out.push(task_of_row[c - n_upper]);
            }
        }
    });
    let progress = ProgressCounters::new(nthreads);
    pool::run_on_threads(nthreads, |tid| {
        let mut ws = ctx.workspace();
        for &task in schedule.thread_tasks(tid) {
            progress.wait_all(schedule.waits(task));
            let r = row_of_task[task];
            eliminate_columns(ctx, &mut ws, r, n_upper, n);
            finalize_row(ctx, r);
            progress.bump(tid);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::kernel::LuVals;
    use crate::numeric::parallel::factor_serial;
    use crate::options::ZeroPivotPolicy;
    use std::sync::atomic::AtomicUsize;

    /// Builds a small system with a wide level-0 block (cols 0..6) and
    /// two heavy trailing rows (6, 7) that depend on all of it.
    fn two_stage_case() -> (Vec<usize>, Vec<usize>, Vec<usize>, Vec<f64>, Vec<usize>) {
        // Rows 0..6: diagonal only (level 0). Rows 6..8: full lower
        // coupling + corner 2x2.
        let n = 8;
        let mut rowptr = vec![0usize];
        let mut colidx = Vec::new();
        let mut vals = Vec::new();
        for r in 0..6 {
            colidx.push(r);
            vals.push(4.0 + r as f64);
            rowptr.push(colidx.len());
        }
        for r in 6..n {
            for c in 0..6 {
                colidx.push(c);
                vals.push(1.0 + (r * 7 + c) as f64 * 0.1);
            }
            if r == 7 {
                colidx.push(6);
                vals.push(0.5);
            }
            colidx.push(r);
            vals.push(20.0 + r as f64);
            rowptr.push(colidx.len());
        }
        let diag_pos = (0..n)
            .map(|r| {
                let lo = rowptr[r];
                lo + colidx[lo..rowptr[r + 1]].binary_search(&r).unwrap()
            })
            .collect();
        // Upper level structure: single level covering cols 0..6.
        let upper_level_ptr = vec![0, 6];
        (rowptr, colidx, diag_pos, vals, upper_level_ptr)
    }

    fn run_engine(which: &str, nthreads: usize, tile: usize) -> Vec<u64> {
        let (rowptr, colidx, diag_pos, flat, upper_level_ptr) = two_stage_case();
        let vals = LuVals::from_values(&flat);
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
        match which {
            "serial" => factor_serial(&ctx),
            "er" => {
                // Upper stage: rows 0..6 are diagonal-only; finalize them.
                factor_rows_serial(&ctx, 0, 6, 0);
                factor_lower_er(&ctx, 6, nthreads, false);
            }
            "sr" => {
                factor_rows_serial(&ctx, 0, 6, 0);
                factor_lower_sr(&ctx, 6, &upper_level_ptr, nthreads, tile, false);
            }
            other => panic!("unknown engine {other}"),
        }
        vals.into_values().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn er_matches_serial_bitwise() {
        let reference = run_engine("serial", 1, 4);
        for nthreads in [1, 2, 4] {
            assert_eq!(
                run_engine("er", nthreads, 4),
                reference,
                "nthreads={nthreads}"
            );
        }
    }

    #[test]
    fn sr_matches_serial_bitwise_across_tiles_and_threads() {
        let reference = run_engine("serial", 1, 4);
        for nthreads in [1, 2, 3] {
            for tile in [4, 5, 64] {
                assert_eq!(
                    run_engine("sr", nthreads, tile),
                    reference,
                    "nthreads={nthreads} tile={tile}"
                );
            }
        }
    }

    #[test]
    fn empty_lower_stage_is_noop() {
        let (rowptr, colidx, diag_pos, flat, upper_level_ptr) = two_stage_case();
        let vals = LuVals::from_values(&flat);
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
        let n = rowptr.len() - 1;
        factor_lower_er(&ctx, n, 2, false);
        factor_lower_sr(&ctx, n, &upper_level_ptr, 2, 8, false);
        // Values untouched.
        assert_eq!(vals.into_values(), flat);
    }
}
