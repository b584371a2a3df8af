//! The symbolic half of the two-phase factorization API.
//!
//! The paper's pipeline is explicitly phased: ordering, the ILU(k) fill
//! pattern, level analysis, the two-stage split and the point-to-point
//! schedules depend only on the *sparsity pattern* of `A`, while the
//! up-looking elimination depends on its *values*. [`SymbolicIlu`]
//! captures everything pattern-dependent — the production handle split
//! of SuperLU/KLU-style interfaces — so time-stepping and transient
//! workloads pay the symbolic cost once:
//!
//! ```
//! use javelin_core::{IluOptions, SymbolicIlu};
//! use javelin_sparse::CooMatrix;
//!
//! let mut coo = CooMatrix::new(3, 3);
//! for i in 0..3 {
//!     coo.push(i, i, 4.0).unwrap();
//! }
//! let a = coo.to_csr();
//! let sym = SymbolicIlu::analyze(&a, &IluOptions::default()).unwrap();
//! let mut factors = sym.factor(&a).unwrap(); // numeric phase
//! // ... values change, pattern does not:
//! factors.refactor(&a).unwrap(); // numeric-only, zero allocations
//! ```
//!
//! `SymbolicIlu` is a cheaply cloneable handle (`Arc` inside); every
//! [`IluFactors`] produced by [`SymbolicIlu::factor`] keeps one, so the
//! solve plan, the persistent worker team and the grow-only scratch
//! buffers are shared by all factor objects of one analysis.

use crate::factors::{IluFactors, SolvePlan};
use crate::numeric::kernel::{LuVals, RowWorkspace};
use crate::numeric::{lower, parallel, plan, NumericCtx, UpdatePlan};
use crate::options::{IluOptions, LowerMethod, SolveEngine, ZeroPivotPolicy};
use crate::stats::FactorStats;
use crate::symbolic;
use crate::trisolve::engines::SolveScratch;
use crate::trisolve::serial::{index_u32, SweepPattern, SweepVals};
use javelin_level::{split_levels, LevelSets, P2PSchedule};
use javelin_sparse::pattern::{
    level_pattern_of, lower_of_pattern, upper_of_pattern, LevelPattern, SparsityPattern,
};
use javelin_sparse::{CsrMatrix, Perm, Scalar, SparseError};
use javelin_sync::{Exec, ProgressCounters};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Marks an LU position with no corresponding entry in `A` (fill).
/// Never a real source index: `A`'s entries are fewer than the LU
/// pattern's, which analysis keeps below 2³².
pub(crate) const FILL: u32 = u32::MAX;

/// Bytes of a combined LU factor with `n` rows and `nnz` entries:
/// values, `usize` column indices and row pointers. The update plan's
/// size rule: a plan is built only if it needs no more than this.
fn lu_bytes<T>(n: usize, nnz: usize) -> usize {
    let idx = std::mem::size_of::<usize>();
    nnz * (std::mem::size_of::<T>() + idx) + (n + 1) * idx
}

/// Reusable working state of the numeric phase, sized at analysis time
/// so a steady-state [`IluFactors::refactor`] allocates nothing: the
/// value buffer, the τ thresholds, one sparse-accumulator workspace per
/// participant (full-size only when the pattern has no update plan) and
/// the resettable progress counters of the planned point-to-point upper
/// stage.
pub(crate) struct NumericScratch<T> {
    lu_vals: LuVals<T>,
    drop_thresh: Vec<T>,
    /// Shared with the batched-refactor engines (`crate::batch_factor`):
    /// the sparse-accumulator scans are pattern-only, so one workspace
    /// set serves the scalar path and every lane width.
    pub(crate) row_ws: Vec<Mutex<RowWorkspace>>,
    pub(crate) progress: ProgressCounters,
}

/// Everything pattern-dependent, computed once (see module docs).
pub(crate) struct SymCore<T> {
    pub(crate) n: usize,
    pub(crate) nthreads: usize,
    pub(crate) tile_size: usize,
    pub(crate) opts: IluOptions,
    pub(crate) lower_method: LowerMethod,
    pub(crate) engine_hint: SolveEngine,
    /// Pattern of the analyzed `A`, kept to validate refactor inputs.
    a_rowptr: Vec<usize>,
    a_colidx: Vec<usize>,
    /// Structural fingerprint of the analyzed `A` pattern (the cheap
    /// cache key of pattern-keyed symbolic caches; see
    /// [`javelin_sparse::pattern::pattern_fingerprint`]).
    a_fingerprint: u64,
    /// Permuted combined-LU pattern.
    pub(crate) rowptr: Vec<usize>,
    pub(crate) colidx: Vec<usize>,
    pub(crate) diag_pos: Vec<usize>,
    /// Per LU entry: source index into `A.vals()`, or [`FILL`].
    pub(crate) a_src: Vec<u32>,
    /// The updates of the numeric phase, found once (see
    /// [`crate::numeric::plan`]); `None` above the plan's size rule.
    pub(crate) update_plan: Option<UpdatePlan>,
    pub(crate) perm: Perm,
    /// The serial engine's copy of the LU pattern (see
    /// [`crate::trisolve::serial`]).
    pub(crate) sweep: SweepPattern,
    pub(crate) plan: SolvePlan,
    /// Symbolic/analysis statistics — the template every numeric phase
    /// completes with its own counters and timing.
    pub(crate) stats: FactorStats,
    pub(crate) exec: Exec,
    pub(crate) scratch: Mutex<SolveScratch<T>>,
    pub(crate) numeric: Mutex<NumericScratch<T>>,
}

/// The pattern-dependent phase of an incomplete factorization: ordering,
/// ILU(k) fill pattern, level schedule, two-stage split decision,
/// trisolve/spmv execution plans and all reusable scratch (see module
/// docs). Produce numeric factors with [`SymbolicIlu::factor`]; redo the
/// numeric phase in place with [`IluFactors::refactor`].
///
/// Cloning is cheap (an `Arc` bump) and shares the underlying plans,
/// worker team and scratch.
pub struct SymbolicIlu<T> {
    core: Arc<SymCore<T>>,
}

impl<T> Clone for SymbolicIlu<T> {
    fn clone(&self) -> Self {
        SymbolicIlu {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T> std::fmt::Debug for SymbolicIlu<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolicIlu")
            .field("n", &self.core.n)
            .field("nnz_lu", &self.core.colidx.len())
            .field("nthreads", &self.core.nthreads)
            .field("lower_method", &self.core.lower_method)
            .finish()
    }
}

/// Resolves `LowerMethod::Auto` per the paper's guidance: SR when the
/// demoted rows are too few for row-level parallelism (and the
/// symmetrized level pattern makes SR's block independence valid),
/// otherwise ER.
fn resolve_lower_method(opts: &IluOptions, n_lower: usize, nthreads: usize) -> LowerMethod {
    let sr_ok = opts.level_pattern == LevelPattern::LowerSymmetrized;
    match opts.lower_method {
        LowerMethod::SegmentedRows if sr_ok => LowerMethod::SegmentedRows,
        LowerMethod::SegmentedRows => LowerMethod::EvenRows, // lower(A): SR invalid
        LowerMethod::EvenRows => LowerMethod::EvenRows,
        LowerMethod::Auto => {
            if sr_ok && n_lower < opts.sr_thread_mult * nthreads {
                LowerMethod::SegmentedRows
            } else {
                LowerMethod::EvenRows
            }
        }
    }
}

impl<T: Scalar> SymbolicIlu<T> {
    /// Runs the symbolic phase of the pipeline on the *pattern* of `a`:
    /// ILU(k) fill, level analysis, two-stage split, permutation, the
    /// forward/backward point-to-point schedules, the trailing-block
    /// layout, the execution context (persistent worker team by
    /// default) and all reusable numeric/solve scratch.
    ///
    /// The values of `a` are not read; [`SymbolicIlu::factor`] accepts
    /// any matrix with this exact pattern.
    ///
    /// # Errors
    /// * [`SparseError::NotSquare`] for rectangular inputs;
    /// * [`SparseError::MissingDiagonal`] when a structural diagonal
    ///   entry is absent;
    /// * [`SparseError::DimensionMismatch`] when a shared worker team's
    ///   participant count disagrees with `opts.nthreads`;
    /// * [`SparseError::IndexOverflow`] when the dimension or the factor's
    ///   entry count reaches 2³² (the serial solve layout uses `u32`
    ///   indices).
    pub fn analyze(a: &CsrMatrix<T>, opts: &IluOptions) -> Result<Self, SparseError> {
        if !a.is_square() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let n = a.nrows();
        let nthreads = opts.nthreads.max(1);
        if let Some(team) = &opts.shared_team {
            if team.nthreads() != nthreads {
                return Err(SparseError::DimensionMismatch(format!(
                    "shared worker team has {} participants, options request nthreads = {}",
                    team.nthreads(),
                    nthreads
                )));
            }
        }
        let mut stats = FactorStats {
            n,
            nnz_a: a.nnz(),
            ..Default::default()
        };

        // ---- Symbolic: the ILU(k) pattern (paper: "predetermining the
        // sparsity pattern"). -------------------------------------------
        let t0 = Instant::now();
        let s: SparsityPattern = if opts.parallel_symbolic {
            symbolic::iluk_pattern_parallel(a, opts.fill_level, nthreads)?
        } else {
            symbolic::iluk_pattern_serial(a, opts.fill_level)?
        };
        stats.t_symbolic = t0.elapsed();
        stats.nnz_lu = s.nnz();

        // ---- Analysis: levels, two-stage split, permutation, schedules.
        let t1 = Instant::now();
        let lvl_pattern = level_pattern_of(&s, opts.level_pattern);
        let levels0 = LevelSets::compute_lower(&lvl_pattern);
        stats.n_levels = levels0.n_levels();
        let row_nnz: Vec<usize> = (0..n).map(|r| s.rowptr()[r + 1] - s.rowptr()[r]).collect();
        let plan0 = split_levels(&levels0, &row_nnz, &opts.split);
        stats.n_upper_levels = plan0.n_upper_levels();
        stats.n_lower_rows = plan0.n_lower();
        let perm = plan0.perm.clone();
        let n_upper = plan0.n_upper;

        // Permute the pattern and record, for every LU position, which
        // entry of `A` seeds it (fill positions start at zero) — the
        // paper's "copy-fill-in phase" reduced to an index map so the
        // numeric phase can reload values from any pattern-identical
        // matrix without re-merging.
        let old_to_new = perm.old_to_new();
        let new_to_old = perm.new_to_old();
        let mut rowptr = vec![0usize; n + 1];
        let mut colidx: Vec<usize> = Vec::with_capacity(s.nnz());
        let mut a_src: Vec<u32> = Vec::with_capacity(s.nnz());
        {
            let mut merge: Vec<(usize, u32)> = Vec::new();
            for new_r in 0..n {
                let old_r = new_to_old[new_r];
                merge.clear();
                // Merge: S row ⊇ A row, both sorted by old column.
                let a_cols = a.row_cols(old_r);
                let a_lo = a.rowptr()[old_r];
                let mut ai = 0usize;
                for &old_c in s.row_cols(old_r) {
                    let src = if ai < a_cols.len() && a_cols[ai] == old_c {
                        ai += 1;
                        index_u32(a_lo + ai - 1, "nnz_a")?
                    } else {
                        FILL
                    };
                    merge.push((old_to_new[old_c], src));
                }
                debug_assert_eq!(ai, a_cols.len(), "A row not contained in pattern row");
                merge.sort_unstable_by_key(|&(c, _)| c);
                for &(c, src) in merge.iter() {
                    colidx.push(c);
                    a_src.push(src);
                }
                rowptr[new_r + 1] = colidx.len();
            }
        }
        let diag_pos: Vec<usize> = (0..n)
            .map(|r| {
                rowptr[r]
                    + colidx[rowptr[r]..rowptr[r + 1]]
                        .binary_search(&r)
                        .expect("diagonal survives symmetric permutation")
            })
            .collect();
        let sweep = SweepPattern::new(&rowptr, &colidx, &diag_pos, new_to_old)?;
        let update_plan =
            UpdatePlan::build(&rowptr, &colidx, &diag_pos, lu_bytes::<T>(n, colidx.len()));

        // Forward schedule over the upper stage. Dependencies are the
        // strictly-lower columns of the *permuted* pattern — always
        // sound, even when `lower(A)` levels let same-level dependencies
        // appear (the point-to-point runtime only needs execution-index
        // order).
        let mut raw_deps = 0usize;
        let fwd = P2PSchedule::build(n_upper, nthreads, &plan0.upper_level_ptr, |r, out| {
            for k in rowptr[r]..rowptr[r + 1] {
                let c = colidx[k];
                if c >= r {
                    break;
                }
                debug_assert!(c < n_upper, "upper-stage row depends on trailing row");
                out.push(c);
            }
            raw_deps += out.len();
        });
        stats.n_raw_deps = raw_deps;
        stats.n_waits = fwd.n_waits();

        // Backward schedule over the upper stage (upper-pattern deps
        // restricted to columns < n_upper; corner columns are solved
        // before the parallel region starts).
        let bwd_levels_upper = {
            let mut bp = vec![0usize; n_upper + 1];
            let mut bc = Vec::new();
            for r in 0..n_upper {
                for k in (diag_pos[r] + 1)..rowptr[r + 1] {
                    let c = colidx[k];
                    if c < n_upper {
                        bc.push(c);
                    }
                }
                bp[r + 1] = bc.len();
            }
            LevelSets::compute_upper(&SparsityPattern::from_raw(n_upper, n_upper, bp, bc))
        };
        let bwd_row_of_task: Vec<usize> = bwd_levels_upper.rows_in_level_order().to_vec();
        let mut bwd_task_of_row = vec![0usize; n_upper];
        for (t, &r) in bwd_row_of_task.iter().enumerate() {
            bwd_task_of_row[r] = t;
        }
        let bwd = P2PSchedule::build(
            n_upper,
            nthreads,
            bwd_levels_upper.level_ptr(),
            |task, out| {
                let r = bwd_row_of_task[task];
                for k in (diag_pos[r] + 1)..rowptr[r + 1] {
                    let c = colidx[k];
                    if c < n_upper {
                        out.push(bwd_task_of_row[c]);
                    }
                }
            },
        );

        // Full-matrix levels for the CSR-LS baseline engine.
        let permuted_pattern = SparsityPattern::from_raw(n, n, rowptr.clone(), colidx.clone());
        let fwd_levels = LevelSets::compute_lower(&lower_of_pattern(&permuted_pattern));
        let bwd_levels = LevelSets::compute_upper(&upper_of_pattern(&permuted_pattern));

        // Trailing-block segment structure for the tiled solve.
        let n_lower = n - n_upper;
        let mut block_rows = Vec::with_capacity(n_lower);
        let mut block_seg_ptr = Vec::with_capacity(n_lower + 1);
        block_seg_ptr.push(0usize);
        for r in n_upper..n {
            let lo = rowptr[r];
            let hi = lo + colidx[lo..rowptr[r + 1]].partition_point(|&c| c < n_upper);
            block_rows.push((lo, hi));
            block_seg_ptr.push(block_seg_ptr.last().expect("nonempty") + (hi - lo));
        }

        let lower_method = resolve_lower_method(opts, n_lower, nthreads);
        stats.lower_method = lower_method;

        let plan = SolvePlan {
            n_upper,
            upper_level_ptr: plan0.upper_level_ptr,
            fwd,
            bwd,
            bwd_row_of_task,
            bwd_level_ptr: bwd_levels_upper.level_ptr().to_vec(),
            fwd_levels,
            bwd_levels,
            block_rows,
            block_seg_ptr,
        };

        // Solve/refactor execution state, built once: a caller-shared
        // team if one was provided, else a persistent team (or the
        // scoped spawn fallback), plus the allocation-free engine and
        // numeric scratch.
        let exec = if let Some(team) = &opts.shared_team {
            Exec::with_team(Arc::clone(team))
        } else if nthreads == 1 || !opts.persistent_team {
            Exec::spawn(nthreads)
        } else if opts.pin_threads {
            Exec::team_pinned(nthreads)
        } else {
            Exec::team(nthreads)
        };
        // Oversubscription-aware default engine, picked at plan time
        // (the only moment the whole execution state is in hand): when
        // the requested thread count exceeds the machine's cores, the
        // point-to-point engines' spin waits churn against each other on
        // shared cores and lose to plain serial substitution, so the
        // unnamed-engine path falls back. Explicit engines remain
        // available through `solve_with` for measurements.
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        let engine_hint = if nthreads == 1 || nthreads > cores {
            SolveEngine::Serial
        } else {
            SolveEngine::PointToPointLower
        };
        let scratch = Mutex::new(SolveScratch::new_on(
            &plan,
            n,
            nthreads,
            opts.tile_size,
            Some(&exec),
        ));
        let numeric = Mutex::new(NumericScratch {
            // First-touch: the team's own threads fault the value pages
            // in (chunked by tid) so page placement matches the workers
            // that later fill and solve with them.
            lu_vals: LuVals::zeroed_on(colidx.len(), &exec),
            drop_thresh: if opts.drop_tol > 0.0 {
                vec![T::ZERO; n]
            } else {
                Vec::new()
            },
            row_ws: (0..nthreads)
                .map(|_| Mutex::new(plan::workspace(update_plan.as_ref(), n)))
                .collect(),
            progress: ProgressCounters::new(nthreads),
        });
        stats.t_analysis = t1.elapsed();

        Ok(SymbolicIlu {
            core: Arc::new(SymCore {
                n,
                nthreads,
                tile_size: opts.tile_size,
                opts: opts.clone(),
                lower_method,
                engine_hint,
                a_fingerprint: javelin_sparse::pattern::fingerprint_parts(
                    a.nrows(),
                    a.ncols(),
                    a.rowptr(),
                    a.colidx(),
                ),
                a_rowptr: a.rowptr().to_vec(),
                a_colidx: a.colidx().to_vec(),
                rowptr,
                colidx,
                diag_pos,
                a_src,
                update_plan,
                perm,
                sweep,
                plan,
                stats,
                exec,
                scratch,
                numeric,
            }),
        })
    }

    /// Matrix dimension the analysis was built for.
    pub fn n(&self) -> usize {
        self.core.n
    }

    /// Stored entries of the combined LU pattern (incl. fill).
    pub fn nnz(&self) -> usize {
        self.core.colidx.len()
    }

    /// Bytes of the numeric update plan, or `None` when the pattern is
    /// above the plan's size rule and the numeric phase scans instead
    /// (see [`crate::numeric::plan`]).
    pub fn update_plan_bytes(&self) -> Option<usize> {
        self.core.update_plan.as_ref().map(UpdatePlan::bytes)
    }

    /// Threads the plans were built for.
    pub fn nthreads(&self) -> usize {
        self.core.nthreads
    }

    /// The two-stage level permutation `P` (`LU ≈ P·A·Pᵀ`).
    pub fn perm(&self) -> &Perm {
        &self.core.perm
    }

    /// The solve plan (schedules, levels, trailing-block layout).
    pub fn plan(&self) -> &SolvePlan {
        &self.core.plan
    }

    /// The options the analysis was built with.
    pub fn options(&self) -> &IluOptions {
        &self.core.opts
    }

    /// Lower-stage method a fresh [`SymbolicIlu::factor`] uses
    /// (`Auto` resolved at analysis time).
    pub fn lower_method(&self) -> LowerMethod {
        self.core.lower_method
    }

    /// The engine used by solves when none is named.
    pub fn default_engine(&self) -> SolveEngine {
        self.core.engine_hint
    }

    /// The execution context numeric refactorizations and solves run on
    /// (persistent team by default).
    pub fn exec(&self) -> &Exec {
        &self.core.exec
    }

    /// Symbolic/analysis statistics (numeric fields are zero; each
    /// [`IluFactors`] carries the completed statistics).
    pub fn stats(&self) -> &FactorStats {
        &self.core.stats
    }

    pub(crate) fn core(&self) -> &SymCore<T> {
        &self.core
    }

    /// Structural fingerprint of the analyzed pattern — the cheap cache
    /// key used by pattern-keyed symbolic caches. Equal to
    /// [`javelin_sparse::pattern::pattern_fingerprint`] of the analyzed
    /// matrix. A fingerprint match is a fast filter, not proof of
    /// pattern identity; pair it with [`SymbolicIlu::check_pattern`].
    pub fn pattern_fingerprint(&self) -> u64 {
        self.core.a_fingerprint
    }

    /// Verifies that `a` has exactly the sparsity pattern this analysis
    /// was built for.
    ///
    /// # Errors
    /// [`SparseError::PatternMismatch`] otherwise.
    pub fn check_pattern(&self, a: &CsrMatrix<T>) -> Result<(), SparseError> {
        let c = &*self.core;
        if a.nrows() != c.n || a.ncols() != c.n {
            return Err(SparseError::PatternMismatch(format!(
                "matrix is {}x{}, analysis was built for {}x{}",
                a.nrows(),
                a.ncols(),
                c.n,
                c.n
            )));
        }
        if a.rowptr() != c.a_rowptr.as_slice() || a.colidx() != c.a_colidx.as_slice() {
            return Err(SparseError::PatternMismatch(
                "matrix sparsity differs from the analyzed pattern \
                 (re-run SymbolicIlu::analyze for a new pattern)"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// Numeric factorization of `a` through the precomputed symbolic
    /// analysis: the full engine set of the paper (point-to-point upper
    /// stage, Even-Rows or Segmented-Rows lower stage, serial or
    /// parallel corner). `a` must have exactly the analyzed pattern —
    /// only its values are read.
    ///
    /// The returned factors share this handle's plans, worker team and
    /// scratch; call [`IluFactors::refactor`] on them for subsequent
    /// value sets.
    ///
    /// # Errors
    /// * [`SparseError::PatternMismatch`] when `a`'s pattern differs
    ///   from the analyzed one;
    /// * [`SparseError::ZeroPivot`] under
    ///   [`crate::ZeroPivotPolicy::Error`] when a pivot collapses.
    pub fn factor(&self, a: &CsrMatrix<T>) -> Result<IluFactors<T>, SparseError> {
        self.check_pattern(a)?;
        let c = &*self.core;
        let mut stats = c.stats.clone();
        let t2 = Instant::now();
        let mut vals = vec![T::ZERO; c.colidx.len()];
        let mut sweep = SweepVals::zeroed(&c.sweep);
        {
            let mut num = self.core.numeric.lock();
            let outcome = self.run_numeric_policy(a, &mut num, NumericPath::Fresh)?;
            stats.replaced_pivots = outcome.replaced;
            stats.dropped_entries = outcome.dropped;
            stats.shift_attempts = outcome.attempts;
            stats.diag_shift = outcome.shift;
            sweep.commit(c, num.lu_vals.as_mut_slice(), 1, 0, &mut vals);
        }
        stats.t_numeric = t2.elapsed();
        let lu = CsrMatrix::from_raw_unchecked(c.n, c.n, c.rowptr.clone(), c.colidx.clone(), vals);
        Ok(IluFactors::from_parts(self.clone(), lu, sweep, stats))
    }

    /// Redoes the numeric phase for a pattern-identical `a`, committing
    /// the factor values into `lu` and `sweep` — the engine behind
    /// [`IluFactors::refactor`]. Runs the planned allocation-free path:
    /// point-to-point upper stage on the persistent execution context,
    /// Even-Rows lower sweep, serial corner — bit-identical to
    /// [`SymbolicIlu::factor`] by the engines' determinism contract.
    ///
    /// # Errors
    /// See [`IluFactors::refactor`].
    pub(crate) fn refactor_into(
        &self,
        a: &CsrMatrix<T>,
        lu: &mut [T],
        sweep: &mut SweepVals<T>,
        stats: &mut FactorStats,
    ) -> Result<(), SparseError> {
        self.check_pattern(a)?;
        let t2 = Instant::now();
        {
            let mut num = self.core.numeric.lock();
            // Counters are committed only on success: a failed refactor
            // leaves both the factor values and their stats untouched.
            let outcome = self.run_numeric_policy(a, &mut num, NumericPath::Planned)?;
            stats.replaced_pivots = outcome.replaced;
            stats.dropped_entries = outcome.dropped;
            stats.shift_attempts = outcome.attempts;
            stats.diag_shift = outcome.shift;
            sweep.commit(&self.core, num.lu_vals.as_mut_slice(), 1, 0, lu);
        }
        stats.t_numeric = t2.elapsed();
        Ok(())
    }

    /// Loads `a`'s values into the reusable value buffer through the
    /// precomputed source map (fill positions get zero) and recomputes
    /// the τ drop thresholds in place. Allocation-free.
    fn load_values(&self, a: &CsrMatrix<T>, num: &mut NumericScratch<T>) {
        let c = &*self.core;
        let a_vals = a.vals();
        for (v, &src) in num.lu_vals.as_mut_slice().iter_mut().zip(&c.a_src) {
            *v = if src == FILL {
                T::ZERO
            } else {
                a_vals[src as usize]
            };
        }
        // τ drop thresholds, relative to the original row norms (Saad's
        // ILUT convention).
        if c.opts.drop_tol > 0.0 {
            let new_to_old = c.perm.new_to_old();
            for (new_r, thresh) in num.drop_thresh.iter_mut().enumerate() {
                let old_r = new_to_old[new_r];
                let norm = a.row_vals(old_r).iter().map(|&v| v * v).sum::<T>().sqrt();
                *thresh = T::from_f64(c.opts.drop_tol) * norm;
            }
        }
    }

    /// Loads `a`'s values and runs the numeric engines under the
    /// configured breakdown policy. For [`ZeroPivotPolicy::ShiftRetry`]
    /// this is the retry loop of the graceful-degradation layer: each
    /// failed sweep reloads the values (allocation-free), boosts the
    /// diagonal by the escalating relative shift and re-runs on the
    /// planned zero-allocation path, until the factorization succeeds
    /// or the attempt budget is exhausted.
    ///
    /// # Errors
    /// * [`SparseError::ZeroPivot`] under [`ZeroPivotPolicy::Error`];
    /// * [`SparseError::Breakdown`] when `ShiftRetry` runs out of
    ///   attempts.
    fn run_numeric_policy(
        &self,
        a: &CsrMatrix<T>,
        num: &mut NumericScratch<T>,
        path: NumericPath,
    ) -> Result<NumericOutcome, SparseError> {
        let c = &*self.core;
        self.load_values(a, num);
        let first = self.run_numeric(num, path);
        let ZeroPivotPolicy::ShiftRetry {
            initial,
            growth,
            max_attempts,
        } = c.opts.zero_pivot
        else {
            let (replaced, dropped) = first?;
            return Ok(NumericOutcome {
                replaced,
                dropped,
                attempts: 1,
                shift: 0.0,
            });
        };
        let mut last_row = match first {
            Ok((replaced, dropped)) => {
                return Ok(NumericOutcome {
                    replaced,
                    dropped,
                    attempts: 1,
                    shift: 0.0,
                })
            }
            Err(SparseError::ZeroPivot { row }) => row,
            Err(e) => return Err(e),
        };
        let mut shift = 0.0f64;
        for attempt in 1..=max_attempts {
            // Reload through the precomputed source map — the failed
            // sweep left the buffer partially factored — then boost the
            // diagonal away from zero. Both steps are allocation-free,
            // as is the planned numeric path below.
            self.load_values(a, num);
            shift = self.apply_diag_shift(num, initial * growth.powi(attempt as i32 - 1));
            match self.run_numeric(num, NumericPath::Planned) {
                Ok((replaced, dropped)) => {
                    return Ok(NumericOutcome {
                        replaced,
                        dropped,
                        attempts: attempt + 1,
                        shift,
                    })
                }
                Err(SparseError::ZeroPivot { row }) => last_row = row,
                Err(e) => return Err(e),
            }
        }
        Err(SparseError::Breakdown {
            row: last_row,
            attempts: max_attempts + 1,
            shift,
        })
    }

    /// Boosts every diagonal away from zero by
    /// `relative_shift · max|aᵢᵢ|` (falling back to an absolute shift
    /// when the diagonal is entirely zero), signed to move each entry
    /// away from the origin. Operates on the loaded value buffer;
    /// allocation-free. Returns the absolute shift applied.
    fn apply_diag_shift(&self, num: &mut NumericScratch<T>, relative_shift: f64) -> f64 {
        let c = &*self.core;
        let mut scale = 0.0f64;
        for &k in c.diag_pos.iter() {
            scale = scale.max(num.lu_vals.get(k).abs().to_f64());
        }
        if scale == 0.0 {
            scale = 1.0;
        }
        let shift = relative_shift * scale;
        let shift_t = T::from_f64(shift);
        for &k in c.diag_pos.iter() {
            let d = num.lu_vals.get(k);
            num.lu_vals.set(
                k,
                if d < T::ZERO {
                    d - shift_t
                } else {
                    d + shift_t
                },
            );
        }
        shift
    }

    /// Like [`SymbolicIlu::refactor_into`], but unconditionally boosts
    /// the diagonal by `relative_shift · max|aᵢᵢ|` before the numeric
    /// sweep — the engine behind breakdown-aware solve retries, which
    /// need a *more* stable (if slightly less accurate) preconditioner
    /// even when the unshifted factorization completed without a zero
    /// pivot. Runs the planned allocation-free path; the applied shift
    /// is recorded in `stats.diag_shift`.
    ///
    /// # Errors
    /// See [`IluFactors::refactor`].
    pub(crate) fn refactor_shifted_into(
        &self,
        a: &CsrMatrix<T>,
        lu: &mut [T],
        sweep: &mut SweepVals<T>,
        stats: &mut FactorStats,
        relative_shift: f64,
    ) -> Result<(), SparseError> {
        self.check_pattern(a)?;
        let t2 = Instant::now();
        {
            let mut num = self.core.numeric.lock();
            self.load_values(a, &mut num);
            let shift = self.apply_diag_shift(&mut num, relative_shift);
            let (replaced, dropped) = self.run_numeric(&num, NumericPath::Planned)?;
            stats.replaced_pivots = replaced;
            stats.dropped_entries = dropped;
            stats.shift_attempts = 1;
            stats.diag_shift = shift;
            sweep.commit(&self.core, num.lu_vals.as_mut_slice(), 1, 0, lu);
        }
        stats.t_numeric = t2.elapsed();
        Ok(())
    }

    /// Runs the numeric engines over the loaded value buffer, returning
    /// the `(replaced_pivots, dropped_entries)` outcome counters.
    fn run_numeric(
        &self,
        num: &NumericScratch<T>,
        path: NumericPath,
    ) -> Result<(usize, usize), SparseError> {
        let c = &*self.core;
        let replaced = AtomicUsize::new(0);
        let dropped = AtomicUsize::new(0);
        let failed = AtomicUsize::new(usize::MAX);
        let ctx = NumericCtx {
            rowptr: &c.rowptr,
            colidx: &c.colidx,
            diag_pos: &c.diag_pos,
            plan: c.update_plan.as_ref(),
            vals: &num.lu_vals,
            drop_thresh: &num.drop_thresh,
            milu_omega: T::from_f64(c.opts.milu_omega),
            pivot_threshold: T::from_f64(c.opts.pivot_threshold),
            zero_pivot: c.opts.zero_pivot,
            replaced: &replaced,
            dropped: &dropped,
            failed_row: &failed,
        };
        let n_upper = c.plan.n_upper;
        let n_lower = c.n - n_upper;
        if c.nthreads == 1 {
            parallel::factor_serial_ws(&ctx, &mut num.row_ws[0].lock());
        } else {
            match path {
                NumericPath::Fresh => {
                    parallel::factor_upper_p2p(&ctx, &c.plan.fwd);
                    if n_lower > 0 {
                        match c.lower_method {
                            LowerMethod::SegmentedRows => lower::factor_lower_sr(
                                &ctx,
                                n_upper,
                                &c.plan.upper_level_ptr,
                                c.nthreads,
                                c.tile_size,
                                c.opts.parallel_corner,
                            ),
                            LowerMethod::EvenRows => lower::factor_lower_er(
                                &ctx,
                                n_upper,
                                c.nthreads,
                                c.opts.parallel_corner,
                            ),
                            LowerMethod::Auto => unreachable!("resolved at analysis"),
                        }
                    }
                }
                NumericPath::Planned => {
                    parallel::factor_upper_p2p_planned(
                        &ctx,
                        &c.plan.fwd,
                        &c.exec,
                        &num.progress,
                        &num.row_ws,
                    );
                    if n_lower > 0 {
                        lower::factor_lower_er_planned(&ctx, n_upper, &c.exec, &num.row_ws);
                    }
                }
            }
        }
        let failed_row = failed.load(Ordering::Relaxed);
        if failed_row != usize::MAX {
            return Err(SparseError::ZeroPivot {
                row: failed_row - 1,
            });
        }
        Ok((
            replaced.load(Ordering::Relaxed),
            dropped.load(Ordering::Relaxed),
        ))
    }
}

/// Outcome of a (possibly retried) numeric phase.
struct NumericOutcome {
    replaced: usize,
    dropped: usize,
    /// Numeric sweeps performed (1 = no retry needed).
    attempts: usize,
    /// Absolute diagonal shift of the successful sweep.
    shift: f64,
}

/// Which numeric execution shape to run (see [`SymbolicIlu::factor`] /
/// [`SymbolicIlu::refactor_into`]). Both are bit-identical; they differ
/// only in who allocates and who spawns.
#[derive(Clone, Copy, PartialEq, Eq)]
enum NumericPath {
    /// The full paper engine set (may allocate per-call state and spawn
    /// scoped threads for SR/ER/parallel-corner).
    Fresh,
    /// The preplanned allocation-free, spawn-free path for refactor.
    Planned,
}
