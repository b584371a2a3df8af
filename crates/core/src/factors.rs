//! Numeric factor objects — the value-carrying half of the two-phase
//! symbolic/numeric API (see [`crate::symbolic_ilu`]) — plus the legacy
//! one-shot pipeline entry.

use crate::options::SolveEngine;
use crate::stats::FactorStats;
use crate::symbolic_ilu::SymbolicIlu;
use crate::trisolve::engines;
use crate::trisolve::serial::{self, SweepVals};
use javelin_level::{LevelSets, P2PSchedule};
use javelin_sparse::lanes::{DynLanes, Lanes};
use javelin_sparse::{with_lanes, CsrMatrix, Panel, PanelMut, Perm, Scalar, SparseError};
use javelin_sync::Exec;

/// Everything the triangular-solve engines need, precomputed once at
/// analysis time — the co-design the paper stresses: the factor
/// layout *is* the solve layout.
#[derive(Debug)]
pub struct SolvePlan {
    /// Rows in the upper (point-to-point) stage.
    pub n_upper: usize,
    /// Level boundaries of the upper stage (new row indices).
    pub upper_level_ptr: Vec<usize>,
    /// Forward p2p schedule (execution index = row index).
    pub fwd: P2PSchedule,
    /// Backward p2p schedule over upper-stage rows (execution indices
    /// mapped through [`SolvePlan::bwd_row_of_task`]).
    pub bwd: P2PSchedule,
    /// Row solved by each backward execution index.
    pub bwd_row_of_task: Vec<usize>,
    /// Level boundaries of the backward upper-stage schedule (execution
    /// indices) — kept so simulators can rebuild the schedule for any
    /// thread count.
    pub bwd_level_ptr: Vec<usize>,
    /// Full-matrix lower-pattern levels (the CSR-LS baseline).
    pub fwd_levels: LevelSets,
    /// Full-matrix upper-pattern levels (the CSR-LS baseline).
    pub bwd_levels: LevelSets,
    /// Per trailing row: entry range `(k_lo, k_hi)` of its sub-corner
    /// prefix (columns `< n_upper`) inside the LU arrays.
    pub block_rows: Vec<(usize, usize)>,
    /// Cumulative sub-corner entry counts (`n_lower + 1` entries) — the
    /// segment pointer of the tiled trailing-block gather.
    pub block_seg_ptr: Vec<usize>,
}

/// An incomplete LU factorization `P·A·Pᵀ ≈ L·U` packaged for fast
/// repeated triangular solves.
///
/// Beyond the factor values, this holds a [`SymbolicIlu`] handle — the
/// pattern-dependent execution state shared by every factor object of
/// one analysis: the [`SolvePlan`] (schedules, levels, the
/// trailing-block layout), a reusable solve scratch (counters, barrier,
/// tiled-gather partials, the in-place solve buffer) and an
/// [`Exec`] — by default a persistent worker team — so that after the
/// numeric phase returns, every solve runs with zero heap allocations
/// and zero thread spawns. The scratch is mutex-guarded: concurrent
/// applies from different threads serialize instead of racing.
///
/// The factor values are stored twice, both copies written by one
/// commit at the end of every numeric phase: the combined LU CSR
/// ([`IluFactors::lu`]) that the parallel engines read, and the sweep
/// layout that [`SolveEngine::Serial`] streams (split L/U in sweep
/// order with `u32` indices, the permutation folded into the sweeps —
/// see [`crate::trisolve::serial`]). Both layouts hold the same values,
/// and the serial sweeps do the arithmetic of the parallel engines' row
/// retirement.
///
/// For time-stepping workloads, [`IluFactors::refactor`] redoes only
/// the numeric phase in place when the values change but the pattern
/// does not.
pub struct IluFactors<T> {
    sym: SymbolicIlu<T>,
    lu: CsrMatrix<T>,
    sweep: SweepVals<T>,
    stats: FactorStats,
}

/// Runs the full pipeline in one call: symbolic analysis plus numeric
/// factorization (see crate docs). Prefer the explicit two-phase form —
/// [`SymbolicIlu::analyze`] then [`SymbolicIlu::factor`] — whenever the
/// same pattern is factored more than once.
///
/// # Errors
/// Everything [`SymbolicIlu::analyze`] and [`SymbolicIlu::factor`] can
/// return.
pub fn factorize<T: Scalar>(
    a: &CsrMatrix<T>,
    opts: &crate::options::IluOptions,
) -> Result<IluFactors<T>, SparseError> {
    SymbolicIlu::analyze(a, opts)?.factor(a)
}

/// The legacy fused entry point (symbolic + numeric in one call,
/// no refactorization).
///
/// # Errors
/// See [`factorize`].
#[deprecated(
    since = "0.1.0",
    note = "use `SymbolicIlu::analyze` + `SymbolicIlu::factor` (or the one-shot \
            `factorize`) so pattern-stable workloads can call `IluFactors::refactor`; \
            applications should prefer the `javelin::Session` façade"
)]
pub fn compute<T: Scalar>(
    a: &CsrMatrix<T>,
    opts: &crate::options::IluOptions,
) -> Result<IluFactors<T>, SparseError> {
    factorize(a, opts)
}

impl<T: Scalar> IluFactors<T> {
    /// Assembles a factor object (numeric-phase internal constructor).
    pub(crate) fn from_parts(
        sym: SymbolicIlu<T>,
        lu: CsrMatrix<T>,
        sweep: SweepVals<T>,
        stats: FactorStats,
    ) -> Self {
        IluFactors {
            sym,
            lu,
            sweep,
            stats,
        }
    }

    /// The symbolic analysis these factors were produced from. Cloning
    /// the handle is cheap and shares the plans, worker team and
    /// scratch.
    pub fn symbolic(&self) -> &SymbolicIlu<T> {
        &self.sym
    }

    /// Redoes the **numeric phase only**, in place, for a matrix with
    /// exactly the analyzed sparsity pattern but new values — the
    /// time-stepping entry point. The symbolic analysis, level
    /// schedules, trisolve/spmv plans, permutation, worker team and all
    /// scratch buffers are reused verbatim: in the steady state this
    /// performs **zero heap allocations and zero thread spawns** (the
    /// planned engines run as regions on the persistent team).
    ///
    /// The resulting factor values are **bit-identical** to a fresh
    /// [`SymbolicIlu::factor`] of the same matrix — the engines'
    /// determinism contract, enforced by the test suite.
    ///
    /// # Errors
    /// * [`SparseError::PatternMismatch`] when `a`'s pattern differs
    ///   from the analyzed one (the factors are left untouched);
    /// * [`SparseError::ZeroPivot`] under
    ///   [`crate::ZeroPivotPolicy::Error`] when a pivot collapses — the
    ///   factor values and statistics then keep the previous successful
    ///   factorization, so the old preconditioner stays usable.
    pub fn refactor(&mut self, a: &CsrMatrix<T>) -> Result<(), SparseError> {
        self.sym
            .refactor_into(a, self.lu.vals_mut(), &mut self.sweep, &mut self.stats)
    }

    /// Like [`IluFactors::refactor`], but unconditionally boosts the
    /// diagonal by `relative_shift · max|aᵢᵢ|` before the numeric sweep,
    /// trading a little preconditioner accuracy for stability — the
    /// engine behind breakdown-aware solve retries, where the unshifted
    /// factorization completed but produced factors too ill-conditioned
    /// to apply. Same zero-allocation planned path as `refactor`; the
    /// applied absolute shift lands in `stats().diag_shift`.
    ///
    /// # Errors
    /// See [`IluFactors::refactor`].
    pub fn refactor_with_shift(
        &mut self,
        a: &CsrMatrix<T>,
        relative_shift: f64,
    ) -> Result<(), SparseError> {
        self.sym.refactor_shifted_into(
            a,
            self.lu.vals_mut(),
            &mut self.sweep,
            &mut self.stats,
            relative_shift,
        )
    }

    /// Commits lane `lane` of the `k`-interleaved value buffer `src` —
    /// the batched-refactor path (`crate::batch_factor`) de-interleaves
    /// scenario lanes through it.
    pub(crate) fn commit(&mut self, src: &[T], k: usize, lane: usize) {
        self.sweep
            .commit(self.sym.core(), src, k, lane, self.lu.vals_mut());
    }

    /// Mutable statistics — completed per scenario by the batched
    /// numeric phase.
    pub(crate) fn stats_mut(&mut self) -> &mut FactorStats {
        &mut self.stats
    }

    /// Pre-grows the internal solve scratch to panel width `k`, so the
    /// first width-`k` panel solve is already allocation-free. Widths
    /// are grow-only; narrower panels reuse the wide buffers.
    pub fn reserve_panel_width(&self, k: usize) {
        if k > 1 {
            self.sym.core().scratch.lock().ensure_width(k);
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.lu.nrows()
    }

    /// The combined LU factor (unit L diagonal implicit) in the
    /// permuted ordering.
    pub fn lu(&self) -> &CsrMatrix<T> {
        &self.lu
    }

    /// Diagonal entry positions within the LU arrays.
    pub fn diag_positions(&self) -> &[usize] {
        &self.sym.core().diag_pos
    }

    /// The two-stage level permutation `P` (`LU ≈ P·A·Pᵀ`).
    pub fn perm(&self) -> &Perm {
        &self.sym.core().perm
    }

    /// Factorization statistics.
    pub fn stats(&self) -> &FactorStats {
        &self.stats
    }

    /// The solve plan (schedules, levels, trailing-block layout).
    pub fn plan(&self) -> &SolvePlan {
        &self.sym.core().plan
    }

    /// Threads the factors were built for.
    pub fn nthreads(&self) -> usize {
        self.sym.core().nthreads
    }

    /// Tile size used by Segmented-Rows and the tiled solve kernels.
    pub fn tile_size(&self) -> usize {
        self.sym.core().tile_size
    }

    /// Splits the combined factor into `(L, U)` with L's unit diagonal
    /// stored explicitly.
    pub fn split_lu(&self) -> (CsrMatrix<T>, CsrMatrix<T>) {
        let n = self.n();
        let mut l = self.lu.lower_triangular(false);
        // Add the unit diagonal to L.
        let (nr, nc, rp, ci, vs) = l.into_parts();
        let mut rowptr = vec![0usize; n + 1];
        let mut colidx = Vec::with_capacity(ci.len() + n);
        let mut vals = Vec::with_capacity(vs.len() + n);
        for r in 0..n {
            for k in rp[r]..rp[r + 1] {
                colidx.push(ci[k]);
                vals.push(vs[k]);
            }
            colidx.push(r);
            vals.push(T::ONE);
            rowptr[r + 1] = colidx.len();
        }
        l = CsrMatrix::from_raw_unchecked(nr, nc, rowptr, colidx, vals);
        let u = self.lu.upper_triangular(true);
        (l, u)
    }

    /// The engine used when none is named: LS+Lower when threaded and
    /// the machine actually has the cores, serial otherwise — including
    /// the oversubscribed case (`nthreads` above
    /// `std::thread::available_parallelism()` at plan time), where the
    /// point-to-point spin waits would churn against each other on
    /// shared cores.
    pub fn default_engine(&self) -> SolveEngine {
        self.sym.core().engine_hint
    }

    /// Solves `A·x ≈ b` through the factors with the default engine
    /// (see [`IluFactors::default_engine`]).
    ///
    /// # Errors
    /// [`SparseError::DimensionMismatch`] on length mismatches.
    pub fn solve_into(&self, b: &[T], x: &mut [T]) -> Result<(), SparseError> {
        self.solve_with(self.default_engine(), b, x)
    }

    /// Solves `A·x ≈ b` with an explicit engine.
    ///
    /// # Errors
    /// [`SparseError::DimensionMismatch`] on length mismatches.
    pub fn solve_with(&self, engine: SolveEngine, b: &[T], x: &mut [T]) -> Result<(), SparseError> {
        self.solve_with_buffer(engine, &mut Vec::new(), b, x)
    }

    /// Like [`IluFactors::solve_with`], but the permutation buffer is
    /// caller-provided (resized on first use, reused after): together
    /// with the internal scratch this makes the whole solve
    /// allocation-free in the steady state — the path
    /// [`crate::Preconditioner::apply_with`] takes inside Krylov loops.
    /// The serial engine uses the buffer for its permuted intermediate
    /// and needs no other pass; the parallel engines permute `b` into
    /// it and the solution out of it.
    ///
    /// # Errors
    /// [`SparseError::DimensionMismatch`] on length mismatches.
    pub fn solve_with_buffer(
        &self,
        engine: SolveEngine,
        perm_buf: &mut Vec<T>,
        b: &[T],
        x: &mut [T],
    ) -> Result<(), SparseError> {
        let n = self.n();
        if b.len() != n || x.len() != n {
            return Err(SparseError::DimensionMismatch(format!(
                "solve: rhs/solution lengths ({}, {}) != {}",
                b.len(),
                x.len(),
                n
            )));
        }
        perm_buf.resize(n, T::ZERO);
        if engine == SolveEngine::Serial {
            serial::solve_fused(&self.sym.core().sweep, &self.sweep, b, perm_buf, x);
            return Ok(());
        }
        let old_to_new = self.perm().old_to_new();
        for (o, &bo) in b.iter().enumerate() {
            perm_buf[old_to_new[o]] = bo;
        }
        self.solve_permuted_inplace(engine, perm_buf);
        for (i, &o) in self.perm().new_to_old().iter().enumerate() {
            x[o] = perm_buf[i];
        }
        Ok(())
    }

    /// The execution context solves run on (persistent team by default).
    pub fn exec(&self) -> &Exec {
        &self.sym.core().exec
    }

    /// Runs forward + backward substitution on an already-permuted
    /// buffer (in place). Exposed for benchmarking `stri` without
    /// permutation overhead, mirroring the paper's Fig. 12 measurement.
    ///
    /// Allocation-free: the parallel engines run through the reusable
    /// solve scratch on the analysis's [`Exec`] (a persistent team by
    /// default). Concurrent callers serialize on the scratch mutex.
    pub fn solve_permuted_inplace(&self, engine: SolveEngine, z: &mut [T]) {
        match engine {
            SolveEngine::Serial => {
                serial::solve_permuted_inplace(&self.sym.core().sweep, &self.sweep, z);
            }
            _ => {
                let mut scratch = self.sym.core().scratch.lock();
                scratch.ensure_width(1);
                scratch.load_cols(Panel::from_col(z));
                self.run_parallel_engine(engine, &scratch);
                scratch.store_cols(&mut PanelMut::from_col(z));
            }
        }
    }

    /// Dispatches a non-serial engine over the scratch's loaded `xbuf`
    /// at its current panel width: `k ∈ {1, 4, 8}` route to the
    /// monomorphized fixed-lane kernels, everything else to the
    /// bit-identical dynamic-width fallback (the lane layer's dispatch
    /// table).
    fn run_parallel_engine(
        &self,
        engine: SolveEngine,
        scratch: &crate::trisolve::engines::SolveScratch<T>,
    ) {
        with_lanes!(scratch.width(), lanes => self.run_engine_lanes(lanes, engine, scratch));
    }

    /// The lane-generic engine dispatch behind
    /// [`IluFactors::run_parallel_engine`].
    fn run_engine_lanes<L: Lanes>(
        &self,
        lanes: L,
        engine: SolveEngine,
        scratch: &crate::trisolve::engines::SolveScratch<T>,
    ) {
        let core = self.sym.core();
        match engine {
            SolveEngine::Serial => unreachable!("serial substitution has no parallel scratch"),
            SolveEngine::BarrierLevel => engines::solve_barrier_fused(
                lanes,
                &self.lu,
                &core.diag_pos,
                &core.plan.fwd_levels,
                &core.plan.bwd_levels,
                scratch,
                &core.exec,
                &scratch.xbuf,
            ),
            SolveEngine::PointToPoint | SolveEngine::PointToPointLower => {
                let tiles = if engine == SolveEngine::PointToPointLower {
                    engines::LowerTiles::On
                } else {
                    engines::LowerTiles::Off
                };
                engines::solve_p2p_fused(
                    lanes,
                    &self.lu,
                    &core.diag_pos,
                    &core.plan,
                    scratch,
                    &core.exec,
                    tiles,
                    &scratch.xbuf,
                );
            }
        }
    }

    /// Solves `A·X ≈ B` for a whole panel of right-hand sides with the
    /// default engine: one schedule walk retires all `k` columns (see
    /// [`IluFactors::solve_permuted_panel_inplace`]).
    ///
    /// # Errors
    /// [`SparseError::DimensionMismatch`] on shape mismatches.
    pub fn solve_panel_into(&self, b: Panel<'_, T>, x: PanelMut<'_, T>) -> Result<(), SparseError> {
        self.solve_panel_with(self.default_engine(), b, x)
    }

    /// Panel solve with an explicit engine (allocates the permutation
    /// buffer; repeated callers should use
    /// [`IluFactors::solve_panel_with_buffer`]).
    ///
    /// # Errors
    /// [`SparseError::DimensionMismatch`] on shape mismatches.
    pub fn solve_panel_with(
        &self,
        engine: SolveEngine,
        b: Panel<'_, T>,
        x: PanelMut<'_, T>,
    ) -> Result<(), SparseError> {
        let mut perm_buf = Vec::new();
        self.solve_panel_with_buffer(engine, &mut perm_buf, b, x)
    }

    /// Panel analogue of [`IluFactors::solve_with_buffer`]: permutes a
    /// whole `n × k` RHS panel into the caller-provided buffer (grown to
    /// `n·k` on first use, reused after), runs one panel solve through
    /// the chosen engine, and un-permutes into `x`. In the steady state
    /// — buffer and internal scratch warmed at this width — the entire
    /// panel solve is allocation-free.
    ///
    /// Column `c` of the result is bit-identical to a single-RHS
    /// [`IluFactors::solve_with_buffer`] of column `c`.
    ///
    /// # Errors
    /// [`SparseError::DimensionMismatch`] on shape mismatches.
    pub fn solve_panel_with_buffer(
        &self,
        engine: SolveEngine,
        perm_buf: &mut Vec<T>,
        b: Panel<'_, T>,
        x: PanelMut<'_, T>,
    ) -> Result<(), SparseError> {
        self.solve_panel_buffered_impl(engine, perm_buf, b, x, false)
    }

    /// [`IluFactors::solve_panel_with_buffer`] pinned to the
    /// dynamic-width lane fallback regardless of `k` — a measurement
    /// aid so benchmarks can quantify what the fixed-width lane
    /// monomorphizations buy at `k ∈ {4, 8}`. Bit-identical to the
    /// dispatched path.
    ///
    /// # Errors
    /// [`SparseError::DimensionMismatch`] on shape mismatches.
    pub fn solve_panel_dynwidth_with_buffer(
        &self,
        engine: SolveEngine,
        perm_buf: &mut Vec<T>,
        b: Panel<'_, T>,
        x: PanelMut<'_, T>,
    ) -> Result<(), SparseError> {
        self.solve_panel_buffered_impl(engine, perm_buf, b, x, true)
    }

    fn solve_panel_buffered_impl(
        &self,
        engine: SolveEngine,
        perm_buf: &mut Vec<T>,
        b: Panel<'_, T>,
        mut x: PanelMut<'_, T>,
        dynwidth: bool,
    ) -> Result<(), SparseError> {
        let n = self.n();
        let k = b.ncols();
        if b.nrows() != n || x.nrows() != n || x.ncols() != k {
            return Err(SparseError::DimensionMismatch(format!(
                "panel solve: rhs {}x{} / solution {}x{} against factors of dimension {}",
                b.nrows(),
                b.ncols(),
                x.nrows(),
                x.ncols(),
                n
            )));
        }
        if k == 0 {
            return Ok(());
        }
        if perm_buf.len() < n * k {
            perm_buf.resize(n * k, T::ZERO);
        }
        if engine == SolveEngine::Serial {
            let (pattern, y) = (&self.sym.core().sweep, &mut perm_buf[..n]);
            for c in 0..k {
                serial::solve_fused(pattern, &self.sweep, b.col(c), y, x.col_mut(c));
            }
            return Ok(());
        }
        let old_to_new = self.perm().old_to_new();
        let new_to_old = self.perm().new_to_old();
        let mut z = PanelMut::new(&mut perm_buf[..n * k], n, k);
        for c in 0..k {
            let bc = b.col(c);
            let zc = z.col_mut(c);
            for (o, &bo) in bc.iter().enumerate() {
                zc[old_to_new[o]] = bo;
            }
        }
        if dynwidth {
            self.solve_permuted_panel_lanes(engine, DynLanes(k), &mut z);
        } else {
            self.solve_permuted_panel_inplace(engine, &mut z);
        }
        for c in 0..k {
            let zc = z.col(c);
            let xc = x.col_mut(c);
            for (i, &o) in new_to_old.iter().enumerate() {
                xc[o] = zc[i];
            }
        }
        Ok(())
    }

    /// Runs forward + backward substitution on an already-permuted
    /// panel, in place: the multi-RHS analogue of
    /// [`IluFactors::solve_permuted_inplace`]. The parallel engines
    /// retire all `k` columns per row under **one** counter/barrier
    /// protocol, so the schedule walk is paid once per panel; the
    /// internal scratch grows (grow-only) to the widest panel seen.
    /// Widths `k ∈ {1, 4, 8}` run the monomorphized fixed-lane
    /// kernels; every other width the bit-identical dynamic fallback.
    pub fn solve_permuted_panel_inplace(&self, engine: SolveEngine, z: &mut PanelMut<'_, T>) {
        let k = z.ncols();
        if k == 0 {
            return;
        }
        with_lanes!(k, lanes => self.solve_permuted_panel_lanes(engine, lanes, z));
    }

    /// The lane-generic body of
    /// [`IluFactors::solve_permuted_panel_inplace`].
    fn solve_permuted_panel_lanes<L: Lanes>(
        &self,
        engine: SolveEngine,
        lanes: L,
        z: &mut PanelMut<'_, T>,
    ) {
        match engine {
            SolveEngine::Serial => {
                let pattern = &self.sym.core().sweep;
                for c in 0..z.ncols() {
                    serial::solve_permuted_inplace(pattern, &self.sweep, z.col_mut(c));
                }
            }
            _ => {
                let mut scratch = self.sym.core().scratch.lock();
                scratch.ensure_lanes(lanes);
                scratch.load_cols(z.as_panel());
                self.run_engine_lanes(lanes, engine, &scratch);
                scratch.store_cols(z);
            }
        }
    }

    /// Extracts the incomplete-Cholesky factor `L_c = L·D^{1/2}` for
    /// symmetric positive definite inputs, so `L_c·L_cᵀ ≈ P·A·Pᵀ` on the
    /// pattern — the `M = L·Lᵀ` form that IC-preconditioned CG uses
    /// (the paper's §II motivating case: "preconditioned CG using
    /// incomplete Cholesky ... spends up to 70% of its execution time in
    /// forward and backward stri").
    ///
    /// For a symmetric matrix, ILU(0) produces `U = D·Lᵀ` exactly, so no
    /// separate IC factorization is needed.
    ///
    /// # Errors
    /// [`SparseError::ZeroPivot`] when a pivot is not strictly positive
    /// (input not SPD, or dropping destroyed definiteness).
    pub fn to_incomplete_cholesky(&self) -> Result<CsrMatrix<T>, SparseError> {
        let n = self.n();
        let diag_pos = self.diag_positions();
        // sqrt of pivots, validated.
        let mut sqrt_d = Vec::with_capacity(n);
        for (r, &dp) in diag_pos.iter().enumerate() {
            let d = self.lu.vals()[dp];
            if !(d > T::ZERO) {
                return Err(SparseError::ZeroPivot { row: r });
            }
            sqrt_d.push(d.sqrt());
        }
        let mut rowptr = vec![0usize; n + 1];
        let mut colidx = Vec::new();
        let mut vals = Vec::new();
        for r in 0..n {
            for k in self.lu.rowptr()[r]..diag_pos[r] {
                let c = self.lu.colidx()[k];
                colidx.push(c);
                vals.push(self.lu.vals()[k] * sqrt_d[c]);
            }
            colidx.push(r);
            vals.push(sqrt_d[r]);
            rowptr[r + 1] = colidx.len();
        }
        Ok(CsrMatrix::from_raw_unchecked(n, n, rowptr, colidx, vals))
    }

    /// Pivot extrema `(min |uᵢᵢ|, max |uᵢᵢ|)` — the cheap local health
    /// indicator the paper alludes to ("up-looking LU allows for local
    /// estimates of resilience from soft-errors and the convergence
    /// rate"): a collapsing minimum signals an unstable preconditioner
    /// before any Krylov iteration is spent on it.
    pub fn pivot_extrema(&self) -> (T, T) {
        let mut lo = T::from_f64(f64::INFINITY);
        let mut hi = T::ZERO;
        for &dp in self.diag_positions() {
            let d = self.lu.vals()[dp].abs();
            lo = lo.min(d);
            hi = hi.max(d);
        }
        (lo, hi)
    }

    /// Ratio `max |uᵢᵢ| / min |uᵢᵢ|` — a one-number conditioning proxy
    /// for the factors (∞ when a pivot was replaced by ~0).
    pub fn pivot_spread(&self) -> f64 {
        let (lo, hi) = self.pivot_extrema();
        if lo == T::ZERO {
            f64::INFINITY
        } else {
            (hi / lo).to_f64()
        }
    }

    /// Maximum absolute deviation of `(L·U)ᵢⱼ` from `(P·A·Pᵀ)ᵢⱼ` over the
    /// factor pattern — the defining identity of ILU (zero up to
    /// roundoff for ILU(k) without dropping). Test/diagnostic helper,
    /// O(Σ nnz(L row) · nnz(U row)).
    pub fn product_error_on_pattern(&self, a: &CsrMatrix<T>) -> T {
        let n = self.n();
        let diag_pos = self.diag_positions();
        let pa = a.permute_sym(self.perm()).expect("factor perm fits A");
        let mut acc: Vec<T> = vec![T::ZERO; n];
        let mut touched: Vec<usize> = Vec::new();
        let mut worst = T::ZERO;
        for i in 0..n {
            // (LU)(i, :) = Σ_{c < i} L[i,c]·U(c,:) + U(i,:)
            for k in self.lu.rowptr()[i]..diag_pos[i] {
                let c = self.lu.colidx()[k];
                let lic = self.lu.vals()[k];
                for kk in diag_pos[c]..self.lu.rowptr()[c + 1] {
                    let j = self.lu.colidx()[kk];
                    if acc[j] == T::ZERO {
                        touched.push(j);
                    }
                    acc[j] += lic * self.lu.vals()[kk];
                }
            }
            for kk in diag_pos[i]..self.lu.rowptr()[i + 1] {
                let j = self.lu.colidx()[kk];
                if acc[j] == T::ZERO {
                    touched.push(j);
                }
                acc[j] += self.lu.vals()[kk];
            }
            // Compare on the pattern of row i only.
            for k in self.lu.rowptr()[i]..self.lu.rowptr()[i + 1] {
                let j = self.lu.colidx()[k];
                let aij = pa.get(i, j).unwrap_or(T::ZERO);
                worst = worst.max((acc[j] - aij).abs());
            }
            for &j in &touched {
                acc[j] = T::ZERO;
            }
            touched.clear();
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{IluOptions, LowerMethod, ZeroPivotPolicy};
    use javelin_sparse::pattern::LevelPattern;
    use javelin_sparse::CooMatrix;

    fn laplace_2d(nx: usize, ny: usize) -> CsrMatrix<f64> {
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * ny + j;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..nx {
            for j in 0..ny {
                let r = idx(i, j);
                coo.push(r, r, 4.0).unwrap();
                if i + 1 < nx {
                    coo.push(r, idx(i + 1, j), -1.0).unwrap();
                    coo.push(idx(i + 1, j), r, -1.0).unwrap();
                }
                if j + 1 < ny {
                    coo.push(r, idx(i, j + 1), -1.0).unwrap();
                    coo.push(idx(i, j + 1), r, -1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    /// Irregular nonsymmetric-pattern matrix with a structural diagonal.
    fn irregular(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 8.0 + i as f64 * 0.01).unwrap();
            if i >= 1 {
                coo.push(i, i - 1, -1.0).unwrap();
            }
            if i >= 7 {
                coo.push(i, i - 7, -0.5).unwrap();
            }
            if i + 3 < n {
                coo.push(i, i + 3, -0.25).unwrap();
            }
            if i % 5 == 0 && i + 11 < n {
                coo.push(i, i + 11, -0.125).unwrap();
            }
        }
        coo.to_csr()
    }

    /// Same pattern as the input, deterministically different values.
    fn revalue(a: &CsrMatrix<f64>, seed: f64) -> CsrMatrix<f64> {
        javelin_synth::util::revalue(a, seed, 0.01)
    }

    #[test]
    fn ilu0_product_identity_on_pattern() {
        let a = laplace_2d(8, 8);
        let f = compute_factors(&a, &IluOptions::default());
        assert!(f.product_error_on_pattern(&a) < 1e-12);
    }

    fn compute_factors(a: &CsrMatrix<f64>, o: &IluOptions) -> IluFactors<f64> {
        factorize(a, o).expect("factorization succeeds")
    }

    #[test]
    fn deprecated_compute_still_works() {
        // The legacy fused entry stays available (deprecated, not
        // removed) and produces the same factors.
        let a = laplace_2d(6, 6);
        #[allow(deprecated)]
        let old = compute(&a, &IluOptions::default()).unwrap();
        let new = compute_factors(&a, &IluOptions::default());
        let ob: Vec<u64> = old.lu().vals().iter().map(|v| v.to_bits()).collect();
        let nb: Vec<u64> = new.lu().vals().iter().map(|v| v.to_bits()).collect();
        assert_eq!(ob, nb);
    }

    #[test]
    fn refactor_is_bit_identical_to_fresh_factor() {
        // The tentpole contract: refactor(a2) == analyze-once,
        // factor(a2), for every engine family and thread count.
        for a in [laplace_2d(9, 7), irregular(150)] {
            for nthreads in [1usize, 2, 4] {
                for method in [
                    LowerMethod::Auto,
                    LowerMethod::EvenRows,
                    LowerMethod::SegmentedRows,
                ] {
                    let mut opts = IluOptions::ilu0(nthreads);
                    opts.lower_method = method;
                    opts.split.min_rows_per_level = 8;
                    opts.split.location_frac = 0.0;
                    opts.split.max_lower_frac = 0.4;
                    let sym = SymbolicIlu::analyze(&a, &opts).unwrap();
                    let mut f = sym.factor(&a).unwrap();
                    let a2 = revalue(&a, 0.37);
                    let fresh = sym.factor(&a2).unwrap();
                    f.refactor(&a2).unwrap();
                    let rb: Vec<u64> = f.lu().vals().iter().map(|v| v.to_bits()).collect();
                    let fb: Vec<u64> = fresh.lu().vals().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(rb, fb, "nthreads={nthreads} method={method}");
                }
            }
        }
    }

    #[test]
    fn refactor_with_dropping_and_milu_matches_fresh() {
        let a = irregular(120);
        let opts = IluOptions::ilu0(3)
            .with_fill(1)
            .with_drop_tol(0.02)
            .with_milu(1.0);
        let sym = SymbolicIlu::analyze(&a, &opts).unwrap();
        let mut f = sym.factor(&a).unwrap();
        let a2 = revalue(&a, 0.71);
        let fresh = sym.factor(&a2).unwrap();
        f.refactor(&a2).unwrap();
        assert_eq!(
            f.lu()
                .vals()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            fresh
                .lu()
                .vals()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        assert!(f.stats().dropped_entries > 0, "τ should drop entries");
        assert_eq!(f.stats().dropped_entries, fresh.stats().dropped_entries);
        assert_eq!(f.stats().replaced_pivots, fresh.stats().replaced_pivots);
    }

    #[test]
    fn refactor_rejects_pattern_mismatch_and_leaves_factors_intact() {
        let a = laplace_2d(8, 8);
        let sym = SymbolicIlu::analyze(&a, &IluOptions::ilu0(2)).unwrap();
        let mut f = sym.factor(&a).unwrap();
        let before: Vec<u64> = f.lu().vals().iter().map(|v| v.to_bits()).collect();
        // Different dimension.
        let small = laplace_2d(4, 4);
        assert!(matches!(
            f.refactor(&small),
            Err(SparseError::PatternMismatch(_))
        ));
        // Same dimension, different pattern.
        let other = irregular(64);
        assert!(matches!(
            f.refactor(&other),
            Err(SparseError::PatternMismatch(_))
        ));
        // And factor() checks too.
        assert!(matches!(
            sym.factor(&other),
            Err(SparseError::PatternMismatch(_))
        ));
        let after: Vec<u64> = f.lu().vals().iter().map(|v| v.to_bits()).collect();
        assert_eq!(before, after, "failed refactor must not corrupt factors");
    }

    #[test]
    fn refactor_then_solve_matches_fresh_solve_bitwise() {
        let a = irregular(150);
        let n = a.nrows();
        let mut opts = IluOptions::ilu0(3);
        opts.split.min_rows_per_level = 8;
        opts.split.location_frac = 0.0;
        let sym = SymbolicIlu::analyze(&a, &opts).unwrap();
        let mut f = sym.factor(&a).unwrap();
        let a2 = revalue(&a, 1.3);
        f.refactor(&a2).unwrap();
        let fresh = compute_factors(&a2, &opts);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin()).collect();
        for engine in [
            crate::options::SolveEngine::Serial,
            crate::options::SolveEngine::BarrierLevel,
            crate::options::SolveEngine::PointToPoint,
            crate::options::SolveEngine::PointToPointLower,
        ] {
            let mut xr = vec![0.0; n];
            let mut xf = vec![0.0; n];
            f.solve_with(engine, &b, &mut xr).unwrap();
            fresh.solve_with(engine, &b, &mut xf).unwrap();
            let rb: Vec<u64> = xr.iter().map(|v| v.to_bits()).collect();
            let fb: Vec<u64> = xf.iter().map(|v| v.to_bits()).collect();
            assert_eq!(rb, fb, "engine={engine}");
        }
    }

    #[test]
    fn symbolic_handle_is_shared_and_cheap_to_clone() {
        let a = laplace_2d(7, 7);
        let sym = SymbolicIlu::analyze(&a, &IluOptions::ilu0(2)).unwrap();
        let f1 = sym.factor(&a).unwrap();
        let f2 = sym.factor(&revalue(&a, 0.5)).unwrap();
        // Same plan object behind both factor objects.
        assert!(std::ptr::eq(f1.plan(), f2.plan()));
        assert!(std::ptr::eq(f1.plan(), sym.plan()));
        assert_eq!(sym.n(), 49);
        assert_eq!(sym.nnz(), a.nnz());
        assert_eq!(sym.nthreads(), 2);
        assert!(!format!("{sym:?}").is_empty());
    }

    #[test]
    fn parallel_matches_serial_bitwise_all_engines() {
        for a in [laplace_2d(9, 7), irregular(120)] {
            let serial = compute_factors(&a, &IluOptions::default());
            for nthreads in [2, 4] {
                for method in [
                    LowerMethod::Auto,
                    LowerMethod::EvenRows,
                    LowerMethod::SegmentedRows,
                ] {
                    let mut opts = IluOptions::ilu0(nthreads);
                    opts.lower_method = method;
                    // Aggressive split so the lower stage actually runs.
                    opts.split.min_rows_per_level = 8;
                    opts.split.location_frac = 0.0;
                    opts.split.max_lower_frac = 0.4;
                    let f = compute_factors(&a, &opts);
                    // Same permutation => directly comparable values.
                    assert_eq!(serial_perm(&serial), serial_perm(&f));
                    let sb: Vec<u64> = serial.lu().vals().iter().map(|v| v.to_bits()).collect();
                    let fb: Vec<u64> = f.lu().vals().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(sb, fb, "nthreads={nthreads} method={method}");
                }
            }
        }
    }

    fn serial_perm(f: &IluFactors<f64>) -> Vec<usize> {
        f.perm().new_to_old().to_vec()
    }

    #[test]
    fn solve_engines_agree_with_serial() {
        let a = irregular(150);
        let mut opts = IluOptions::ilu0(3);
        opts.split.min_rows_per_level = 8;
        opts.split.location_frac = 0.0;
        let f = compute_factors(&a, &opts);
        let b: Vec<f64> = (0..150).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut x_ref = vec![0.0; 150];
        f.solve_with(SolveEngine::Serial, &b, &mut x_ref).unwrap();
        for engine in [
            SolveEngine::BarrierLevel,
            SolveEngine::PointToPoint,
            SolveEngine::PointToPointLower,
        ] {
            let mut x = vec![0.0; 150];
            f.solve_with(engine, &b, &mut x).unwrap();
            for (g, w) in x.iter().zip(x_ref.iter()) {
                assert!(
                    (g - w).abs() <= 1e-12 * w.abs().max(1.0),
                    "{engine}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn workspace_reuse_is_bitwise_identical_to_fresh_path() {
        // Repeated solves through one factorization reuse its scratch
        // (progress counters, barrier, gather partials, xbuf); a second
        // factorization's first solve is the fresh-allocation path.
        // Both must produce identical bits, for every engine and with
        // the persistent team on or off.
        let a = irregular(150);
        let b: Vec<f64> = (0..150).map(|i| (i as f64 * 0.31).cos()).collect();
        for persistent in [true, false] {
            let mut opts = IluOptions::ilu0(3);
            opts.split.min_rows_per_level = 8;
            opts.split.location_frac = 0.0;
            opts.persistent_team = persistent;
            let reused = compute_factors(&a, &opts);
            let fresh = compute_factors(&a, &opts);
            for engine in [
                SolveEngine::BarrierLevel,
                SolveEngine::PointToPoint,
                SolveEngine::PointToPointLower,
            ] {
                let fresh_bits = {
                    let mut x = vec![0.0; 150];
                    fresh.solve_with(engine, &b, &mut x).unwrap();
                    x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                for rep in 0..4 {
                    let mut x = vec![0.0; 150];
                    reused.solve_with(engine, &b, &mut x).unwrap();
                    let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        bits, fresh_bits,
                        "engine={engine} rep={rep} persistent={persistent}"
                    );
                }
            }
        }
    }

    #[test]
    fn team_and_spawn_execution_agree_bitwise() {
        let a = laplace_2d(12, 11);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 23) as f64) - 11.0).collect();
        let mut team_opts = IluOptions::ilu0(4);
        team_opts.split.min_rows_per_level = 8;
        team_opts.split.location_frac = 0.0;
        let mut spawn_opts = team_opts.clone();
        spawn_opts.persistent_team = false;
        let ft = compute_factors(&a, &team_opts);
        let fs = compute_factors(&a, &spawn_opts);
        for engine in [SolveEngine::PointToPoint, SolveEngine::PointToPointLower] {
            let mut xt = vec![0.0; n];
            let mut xs = vec![0.0; n];
            ft.solve_with(engine, &b, &mut xt).unwrap();
            fs.solve_with(engine, &b, &mut xs).unwrap();
            let bt: Vec<u64> = xt.iter().map(|v| v.to_bits()).collect();
            let bs: Vec<u64> = xs.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bt, bs, "engine={engine}");
        }
    }

    #[test]
    fn panel_solve_matches_single_rhs_bitwise_all_engines() {
        // One panel solve retires k columns under one schedule walk;
        // every column must carry exactly the bits of a single-RHS
        // solve of that column, for every engine and width — including
        // width changes against one reused scratch (8 → 1 exercises the
        // grow-only narrowing path).
        let a = irregular(150);
        let n = a.nrows();
        let mut opts = IluOptions::ilu0(3);
        opts.split.min_rows_per_level = 8;
        opts.split.location_frac = 0.0;
        let f = compute_factors(&a, &opts);
        // Fixed-lane widths (1, 4, 8) and DynLanes widths (2, 3, 5, 7),
        // wide-first so 8 → 1 exercises the grow-only narrowing path.
        for k in [8usize, 1, 2, 3, 4, 5, 7] {
            let b: Vec<f64> = (0..n * k)
                .map(|i| ((i * 29 % 41) as f64 - 20.0) * 0.21)
                .collect();
            for engine in [
                SolveEngine::Serial,
                SolveEngine::BarrierLevel,
                SolveEngine::PointToPoint,
                SolveEngine::PointToPointLower,
            ] {
                let mut xp = vec![0.0; n * k];
                f.solve_panel_with(engine, Panel::new(&b, n, k), PanelMut::new(&mut xp, n, k))
                    .unwrap();
                for c in 0..k {
                    let mut x = vec![0.0; n];
                    f.solve_with(engine, &b[c * n..(c + 1) * n], &mut x)
                        .unwrap();
                    let pb: Vec<u64> = xp[c * n..(c + 1) * n].iter().map(|v| v.to_bits()).collect();
                    let sb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(pb, sb, "engine={engine} k={k} col={c}");
                }
                // The forced dynamic-width fallback is bit-identical to
                // whatever the dispatch table picked.
                let mut xd = vec![0.0; n * k];
                let mut dbuf = Vec::new();
                f.solve_panel_dynwidth_with_buffer(
                    engine,
                    &mut dbuf,
                    Panel::new(&b, n, k),
                    PanelMut::new(&mut xd, n, k),
                )
                .unwrap();
                let pb: Vec<u64> = xp.iter().map(|v| v.to_bits()).collect();
                let db: Vec<u64> = xd.iter().map(|v| v.to_bits()).collect();
                assert_eq!(pb, db, "dynwidth engine={engine} k={k}");
            }
        }
    }

    #[test]
    fn panel_solve_reuses_buffer_and_rejects_bad_shapes() {
        let a = laplace_2d(9, 9);
        let n = a.nrows();
        let f = compute_factors(&a, &IluOptions::ilu0(2));
        f.reserve_panel_width(2);
        let b: Vec<f64> = (0..n * 2).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut perm_buf = Vec::new();
        let mut x = vec![0.0; n * 2];
        f.solve_panel_with_buffer(
            SolveEngine::Serial,
            &mut perm_buf,
            Panel::new(&b, n, 2),
            PanelMut::new(&mut x, n, 2),
        )
        .unwrap();
        assert_eq!(perm_buf.len(), n * 2);
        let cap = perm_buf.capacity();
        // Narrower reuse keeps the wide buffer (grow-only).
        f.solve_panel_with_buffer(
            SolveEngine::Serial,
            &mut perm_buf,
            Panel::new(&b[..n], n, 1),
            PanelMut::new(&mut x[..n], n, 1),
        )
        .unwrap();
        assert_eq!(perm_buf.capacity(), cap);
        // Shape mismatches are reported, not panicked.
        let short = vec![0.0; n];
        let mut xs = vec![0.0; n * 2];
        assert!(f
            .solve_panel_into(Panel::new(&short, n, 1), PanelMut::new(&mut xs, n, 2))
            .is_err());
        // Zero-width panels are a no-op.
        let empty: [f64; 0] = [];
        let mut empty_x: [f64; 0] = [];
        f.solve_panel_into(Panel::new(&empty, n, 0), PanelMut::new(&mut empty_x, n, 0))
            .unwrap();
    }

    #[test]
    fn shared_team_serves_many_factorizations() {
        use javelin_sync::WorkerTeam;
        use std::sync::Arc;
        let a = irregular(140);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 29) as f64) - 14.0).collect();
        let mut owned = IluOptions::ilu0(3);
        owned.split.min_rows_per_level = 8;
        owned.split.location_frac = 0.0;
        let team = Arc::new(WorkerTeam::new(3));
        let shared = owned.clone().with_shared_team(Arc::clone(&team));
        let f_owned = compute_factors(&a, &owned);
        let f1 = compute_factors(&a, &shared);
        let f2 = compute_factors(&a, &shared.clone());
        for engine in [
            SolveEngine::BarrierLevel,
            SolveEngine::PointToPoint,
            SolveEngine::PointToPointLower,
        ] {
            let mut x0 = vec![0.0; n];
            let mut x1 = vec![0.0; n];
            let mut x2 = vec![0.0; n];
            f_owned.solve_with(engine, &b, &mut x0).unwrap();
            f1.solve_with(engine, &b, &mut x1).unwrap();
            f2.solve_with(engine, &b, &mut x2).unwrap();
            let b0: Vec<u64> = x0.iter().map(|v| v.to_bits()).collect();
            let b1: Vec<u64> = x1.iter().map(|v| v.to_bits()).collect();
            let b2: Vec<u64> = x2.iter().map(|v| v.to_bits()).collect();
            assert_eq!(b0, b1, "engine={engine}");
            assert_eq!(b1, b2, "engine={engine}");
        }
        // Both factorizations hold the same team, not copies.
        assert!(Arc::strong_count(&team) >= 3);
        // A team whose participant count disagrees with nthreads is
        // rejected up front.
        let mut bad = owned.clone();
        bad.shared_team = Some(Arc::new(WorkerTeam::new(2)));
        assert!(matches!(
            factorize(&a, &bad),
            Err(SparseError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn oversubscription_falls_back_to_serial_default_engine() {
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        let a = irregular(100);
        let n = a.nrows();
        // Requesting more threads than the machine has cores must flip
        // the unnamed-engine path to serial substitution at plan time.
        let f = compute_factors(&a, &IluOptions::ilu0(cores + 1));
        assert_eq!(f.default_engine(), SolveEngine::Serial);
        // The default path still solves correctly (and explicit engines
        // remain available for measurements).
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 17) as f64) - 8.0).collect();
        let mut x_def = vec![0.0; n];
        let mut x_ser = vec![0.0; n];
        f.solve_into(&b, &mut x_def).unwrap();
        f.solve_with(SolveEngine::Serial, &b, &mut x_ser).unwrap();
        assert_eq!(x_def, x_ser);
        let mut x_p2p = vec![0.0; n];
        f.solve_with(SolveEngine::PointToPointLower, &b, &mut x_p2p)
            .unwrap();
        for (g, w) in x_p2p.iter().zip(x_ser.iter()) {
            assert!((g - w).abs() <= 1e-12 * w.abs().max(1.0));
        }
        // Within the core budget the threaded default survives.
        if cores > 1 {
            let f2 = compute_factors(&a, &IluOptions::ilu0(2));
            assert_eq!(f2.default_engine(), SolveEngine::PointToPointLower);
        }
        assert_eq!(
            compute_factors(&a, &IluOptions::default()).default_engine(),
            SolveEngine::Serial
        );
    }

    #[test]
    fn solve_actually_preconditions() {
        // For ILU(0) of a diagonally dominant matrix, ||x - A^{-1}b||
        // through the factors is a decent approximation: check the
        // preconditioned residual is much smaller than the raw rhs.
        let a = laplace_2d(10, 10);
        let f = compute_factors(&a, &IluOptions::default());
        let n = a.nrows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        f.solve_into(&b, &mut x).unwrap();
        // r = b - A x should be noticeably smaller than b for a useful
        // preconditioner.
        let ax = a.spmv(&x);
        let r_norm: f64 = b
            .iter()
            .zip(ax.iter())
            .map(|(bi, axi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt();
        let b_norm = (n as f64).sqrt();
        assert!(r_norm < 0.8 * b_norm, "residual {r_norm} vs rhs {b_norm}");
    }

    #[test]
    fn split_lu_multiplies_back() {
        let a = laplace_2d(6, 6);
        let f = compute_factors(&a, &IluOptions::default());
        let (l, u) = f.split_lu();
        // L has unit diagonal.
        for r in 0..l.nrows() {
            assert_eq!(l.get(r, r), Some(1.0));
        }
        // L strictly lower + diag; U upper incl diag.
        for (r, c, _) in l.iter() {
            assert!(c <= r);
        }
        for (r, c, _) in u.iter() {
            assert!(c >= r);
        }
        // nnz(L) + nnz(U) = nnz(LU) + n (unit diagonal added).
        assert_eq!(l.nnz() + u.nnz(), f.lu().nnz() + a.nrows());
    }

    #[test]
    fn iluk_reduces_product_error_off_pattern() {
        // With k = n the factorization becomes exact: product error on
        // the (full) pattern stays ~0 and the solve is a direct solve.
        let a = irregular(40);
        let mut exact_opts = IluOptions::default();
        exact_opts.fill_level = 40;
        let f = compute_factors(&a, &exact_opts);
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let b = a.spmv(&x_true);
        let mut x = vec![0.0; n];
        f.solve_into(&b, &mut x).unwrap();
        for (g, w) in x.iter().zip(x_true.iter()) {
            assert!((g - w).abs() < 1e-8, "{g} vs {w}");
        }
    }

    #[test]
    fn drop_tolerance_drops_and_milu_compensates() {
        let a = irregular(100);
        let base = compute_factors(&a, &IluOptions::default());
        let tau = compute_factors(&a, &IluOptions::default().with_fill(1).with_drop_tol(0.02));
        assert!(tau.stats().dropped_entries > 0, "τ should drop entries");
        assert_eq!(base.stats().dropped_entries, 0);
        let milu = compute_factors(
            &a,
            &IluOptions::default()
                .with_fill(1)
                .with_drop_tol(0.02)
                .with_milu(1.0),
        );
        // MILU shifts diagonals; factors must differ from plain τ.
        assert!(milu.stats().dropped_entries > 0);
    }

    #[test]
    fn zero_pivot_error_policy_reports_row() {
        // Second row becomes exactly zero after elimination:
        // A = [[1, 1], [1, 1]].
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        let a = coo.to_csr();
        let mut opts = IluOptions::default();
        opts.zero_pivot = ZeroPivotPolicy::Error;
        match factorize(&a, &opts) {
            Err(SparseError::ZeroPivot { row }) => assert_eq!(row, 1),
            Err(other) => panic!("expected zero pivot, got {other:?}"),
            Ok(_) => panic!("expected zero pivot, got a factorization"),
        }
        // Replace policy succeeds and counts the replacement.
        let mut opts2 = IluOptions::default();
        opts2.zero_pivot = ZeroPivotPolicy::Replace { replacement: 1e-8 };
        let f = factorize(&a, &opts2).unwrap();
        assert_eq!(f.stats().replaced_pivots, 1);
    }

    #[test]
    fn rejects_bad_inputs() {
        // Rectangular.
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        assert!(factorize(&coo.to_csr(), &IluOptions::default()).is_err());
        // Missing diagonal.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        assert!(matches!(
            factorize(&coo.to_csr(), &IluOptions::default()),
            Err(SparseError::MissingDiagonal { row: 1 })
        ));
    }

    #[test]
    fn solve_rejects_bad_lengths() {
        let a = laplace_2d(4, 4);
        let f = compute_factors(&a, &IluOptions::default());
        let b = vec![1.0; 16];
        let mut x = vec![0.0; 15];
        assert!(f.solve_into(&b, &mut x).is_err());
    }

    #[test]
    fn stats_are_populated() {
        let a = laplace_2d(12, 12);
        let mut opts = IluOptions::ilu0(2);
        opts.split.min_rows_per_level = 6;
        opts.split.location_frac = 0.0;
        let f = compute_factors(&a, &opts);
        let s = f.stats();
        assert_eq!(s.n, 144);
        assert_eq!(s.nnz_a, a.nnz());
        assert_eq!(s.nnz_lu, a.nnz()); // ILU(0): same pattern
        assert!(s.n_levels > 1);
        assert!(s.n_upper_levels <= s.n_levels);
        assert!(s.n_waits <= s.n_raw_deps);
        assert_eq!(s.fill_ratio(), 1.0);
    }

    #[test]
    fn level_scheduling_only_has_no_lower_rows() {
        let a = laplace_2d(10, 10);
        let f = compute_factors(&a, &IluOptions::level_scheduling_only(2));
        assert_eq!(f.stats().n_lower_rows, 0);
        assert_eq!(f.plan().n_upper, 100);
    }

    #[test]
    fn lower_a_pattern_falls_back_to_er() {
        let a = irregular(140);
        let mut opts = IluOptions::ilu0(2);
        opts.level_pattern = LevelPattern::LowerA;
        opts.lower_method = LowerMethod::SegmentedRows;
        opts.split.min_rows_per_level = 8;
        opts.split.location_frac = 0.0;
        let f = compute_factors(&a, &opts);
        assert_eq!(f.stats().lower_method, LowerMethod::EvenRows);
        // Still bit-identical to serial.
        let s = compute_factors(
            &a,
            &IluOptions {
                level_pattern: LevelPattern::LowerA,
                split: opts.split,
                ..IluOptions::default()
            },
        );
        let sb: Vec<u64> = s.lu().vals().iter().map(|v| v.to_bits()).collect();
        let fb: Vec<u64> = f.lu().vals().iter().map(|v| v.to_bits()).collect();
        assert_eq!(sb, fb);
    }

    #[test]
    fn incomplete_cholesky_reconstructs_spd_matrix() {
        let a = laplace_2d(7, 7);
        let f = compute_factors(&a, &IluOptions::default());
        let lc = f.to_incomplete_cholesky().expect("SPD input");
        // L_c is lower triangular with positive diagonal.
        for (r, c, _) in lc.iter() {
            assert!(c <= r);
        }
        for r in 0..lc.nrows() {
            assert!(lc.get(r, r).unwrap() > 0.0);
        }
        // L_c·L_cᵀ == P·A·Pᵀ on the pattern (ILU(0) identity in IC form).
        let pa = a.permute_sym(f.perm()).unwrap();
        for (r, c, want) in pa.iter() {
            // (L_c L_cᵀ)[r][c] = Σ_k L_c[r][k]·L_c[c][k]: sparse dot of
            // two rows of L_c.
            let (ra, rb) = (lc.row_cols(r), lc.row_cols(c));
            let (va, vb) = (lc.row_vals(r), lc.row_vals(c));
            let mut i = 0;
            let mut j = 0;
            let mut got = 0.0;
            while i < ra.len() && j < rb.len() {
                use std::cmp::Ordering::*;
                match ra[i].cmp(&rb[j]) {
                    Less => i += 1,
                    Greater => j += 1,
                    Equal => {
                        got += va[i] * vb[j];
                        i += 1;
                        j += 1;
                    }
                }
            }
            assert!((got - want).abs() < 1e-10, "({r},{c}): {got} vs {want}");
        }
    }

    #[test]
    fn incomplete_cholesky_rejects_indefinite() {
        // A symmetric indefinite matrix: negative pivot appears.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 1, 2.0).unwrap();
        coo.push(1, 0, 2.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        let a = coo.to_csr();
        let f = compute_factors(&a, &IluOptions::default());
        assert!(matches!(
            f.to_incomplete_cholesky(),
            Err(SparseError::ZeroPivot { .. })
        ));
    }

    #[test]
    fn pivot_diagnostics() {
        let a = laplace_2d(8, 8);
        let f = compute_factors(&a, &IluOptions::default());
        let (lo, hi) = f.pivot_extrema();
        assert!(lo > 0.0 && hi >= lo);
        assert!(hi <= 4.0 + 1e-12, "pivots bounded by the diagonal of A");
        let spread = f.pivot_spread();
        assert!((1.0..100.0).contains(&spread), "spread = {spread}");
    }

    #[test]
    fn parallel_corner_matches_serial_corner() {
        let a = irregular(160);
        let mut base = IluOptions::ilu0(3);
        base.split.min_rows_per_level = 10;
        base.split.location_frac = 0.1;
        let mut pc = base.clone();
        pc.parallel_corner = true;
        let f1 = compute_factors(&a, &base);
        let f2 = compute_factors(&a, &pc);
        let b1: Vec<u64> = f1.lu().vals().iter().map(|v| v.to_bits()).collect();
        let b2: Vec<u64> = f2.lu().vals().iter().map(|v| v.to_bits()).collect();
        assert_eq!(b1, b2);
        // And refactor through the parallel-corner analysis matches too
        // (the planned path substitutes the serial corner — identical
        // bits by the determinism contract).
        let sym = SymbolicIlu::analyze(&a, &pc).unwrap();
        let mut f3 = sym.factor(&a).unwrap();
        f3.refactor(&a).unwrap();
        let b3: Vec<u64> = f3.lu().vals().iter().map(|v| v.to_bits()).collect();
        assert_eq!(b1, b3);
    }

    #[test]
    fn f32_factorization_works() {
        let n = 30;
        let mut coo = CooMatrix::<f32>::new(n, n);
        for i in 0..n {
            coo.push(i, i, 3.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let sym = SymbolicIlu::analyze(&a, &IluOptions::ilu0(2)).unwrap();
        let mut f = sym.factor(&a).unwrap();
        f.refactor(&a).unwrap();
        let b = vec![1.0f32; n];
        let mut x = vec![0.0f32; n];
        f.solve_into(&b, &mut x).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::options::{IluOptions, LowerMethod, SolveEngine};
    use javelin_sparse::CooMatrix;
    use proptest::prelude::*;

    /// Random diagonally dominant square matrix with full diagonal.
    fn arb_matrix(n_max: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
        (4..n_max).prop_flat_map(|n| {
            proptest::collection::vec((0..n, 0..n, 0.05..1.0f64), n..n * 4).prop_map(move |trips| {
                let mut coo = CooMatrix::new(n, n);
                let mut rowsum = vec![0.0f64; n];
                for (r, c, v) in &trips {
                    if r != c {
                        coo.push(*r, *c, -*v).unwrap();
                        rowsum[*r] += v;
                    }
                }
                for (r, item) in rowsum.iter().enumerate() {
                    coo.push(r, r, item + 1.0).unwrap();
                }
                coo.to_csr()
            })
        })
    }

    /// Same pattern, deterministically perturbed values (still
    /// diagonally dominant enough to factor).
    fn revalue(a: &CsrMatrix<f64>, seed: f64) -> CsrMatrix<f64> {
        javelin_synth::util::revalue(a, seed, 0.05)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The defining ILU(0) identity on random matrices.
        #[test]
        fn ilu0_identity_on_random_matrices(a in arb_matrix(28)) {
            let f = factorize(&a, &IluOptions::default()).unwrap();
            prop_assert!(f.product_error_on_pattern(&a) < 1e-9);
        }

        /// Parallel == serial, bitwise, on random matrices and random
        /// engine/thread choices.
        #[test]
        fn engines_bitwise_equal_on_random_matrices(
            a in arb_matrix(28),
            nthreads in 2usize..5,
            use_sr in proptest::bool::ANY,
        ) {
            let mut opts = IluOptions::ilu0(nthreads);
            opts.lower_method = if use_sr {
                LowerMethod::SegmentedRows
            } else {
                LowerMethod::EvenRows
            };
            opts.split.min_rows_per_level = 4;
            opts.split.location_frac = 0.0;
            let mut serial = opts.clone();
            serial.nthreads = 1;
            let fp = factorize(&a, &opts).unwrap();
            let fs = factorize(&a, &serial).unwrap();
            let bp: Vec<u64> = fp.lu().vals().iter().map(|v| v.to_bits()).collect();
            let bs: Vec<u64> = fs.lu().vals().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(bp, bs);
        }

        /// The refactor satellite contract: `symbolic.factor(&a2)` and
        /// `factors.refactor(&a2)` (same pattern, new values) are
        /// bit-identical — across lower-stage engines, thread counts and
        /// panel widths (the refactored factors' panel solves must carry
        /// exactly the fresh factors' bits too).
        #[test]
        fn refactor_bitwise_equals_fresh_factor(
            a in arb_matrix(24),
            nthreads in 1usize..4,
            use_sr in proptest::bool::ANY,
            k_idx in 0usize..4,
            seed in 0.1..2.0f64,
        ) {
            let k = [1usize, 2, 3, 8][k_idx];
            let n = a.nrows();
            let mut opts = IluOptions::ilu0(nthreads);
            opts.lower_method = if use_sr {
                LowerMethod::SegmentedRows
            } else {
                LowerMethod::EvenRows
            };
            opts.split.min_rows_per_level = 4;
            opts.split.location_frac = 0.0;
            let sym = SymbolicIlu::analyze(&a, &opts).unwrap();
            let mut f = sym.factor(&a).unwrap();
            let a2 = revalue(&a, seed);
            let fresh = sym.factor(&a2).unwrap();
            f.refactor(&a2).unwrap();
            let rb: Vec<u64> = f.lu().vals().iter().map(|v| v.to_bits()).collect();
            let fb: Vec<u64> = fresh.lu().vals().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(rb, fb);
            // Panel solves through refactored vs fresh factors agree
            // bitwise at every width.
            let b: Vec<f64> = (0..n * k)
                .map(|i| ((i * 31 % 23) as f64 - 11.0) * 0.17)
                .collect();
            let mut xr = vec![0.0; n * k];
            let mut xf = vec![0.0; n * k];
            f.solve_panel_into(
                javelin_sparse::Panel::new(&b, n, k),
                javelin_sparse::PanelMut::new(&mut xr, n, k),
            )
            .unwrap();
            fresh
                .solve_panel_into(
                    javelin_sparse::Panel::new(&b, n, k),
                    javelin_sparse::PanelMut::new(&mut xf, n, k),
                )
                .unwrap();
            let xrb: Vec<u64> = xr.iter().map(|v| v.to_bits()).collect();
            let xfb: Vec<u64> = xf.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(xrb, xfb, "panel width {}", k);
        }

        /// Panel trisolves are column-for-column bit-identical to `k`
        /// independent single-RHS solves — the panel contract, over
        /// random matrices, widths, thread counts and tile sizes, for
        /// every engine.
        #[test]
        fn panel_solves_bitwise_match_looped_single_rhs(
            a in arb_matrix(24),
            nthreads in 1usize..4,
            k_idx in 0usize..4,
            tile_idx in 0usize..3,
        ) {
            let k = [1usize, 2, 3, 8][k_idx];
            let n = a.nrows();
            let mut opts = IluOptions::ilu0(nthreads);
            opts.tile_size = [1usize, 3, 64][tile_idx];
            opts.split.min_rows_per_level = 4;
            opts.split.location_frac = 0.0;
            let f = factorize(&a, &opts).unwrap();
            let b: Vec<f64> = (0..n * k)
                .map(|i| ((i * 31 % 23) as f64 - 11.0) * 0.17)
                .collect();
            for engine in [
                SolveEngine::Serial,
                SolveEngine::BarrierLevel,
                SolveEngine::PointToPoint,
                SolveEngine::PointToPointLower,
            ] {
                let mut xp = vec![0.0; n * k];
                f.solve_panel_with(
                    engine,
                    javelin_sparse::Panel::new(&b, n, k),
                    javelin_sparse::PanelMut::new(&mut xp, n, k),
                )
                .unwrap();
                for c in 0..k {
                    let mut x = vec![0.0; n];
                    f.solve_with(engine, &b[c * n..(c + 1) * n], &mut x).unwrap();
                    let pb: Vec<u64> =
                        xp[c * n..(c + 1) * n].iter().map(|v| v.to_bits()).collect();
                    let sb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(pb, sb, "engine={} k={} col={}", engine, k, c);
                }
            }
        }

        /// Forward+backward substitution through any engine equals the
        /// serial reference.
        #[test]
        fn solves_agree_on_random_matrices(a in arb_matrix(24), nthreads in 2usize..4) {
            let n = a.nrows();
            let opts = IluOptions::ilu0(nthreads);
            let f = factorize(&a, &opts).unwrap();
            let b: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
            let mut x_ref = vec![0.0; n];
            f.solve_with(SolveEngine::Serial, &b, &mut x_ref).unwrap();
            for engine in [
                SolveEngine::BarrierLevel,
                SolveEngine::PointToPoint,
                SolveEngine::PointToPointLower,
            ] {
                let mut x = vec![0.0; n];
                f.solve_with(engine, &b, &mut x).unwrap();
                for (g, w) in x.iter().zip(x_ref.iter()) {
                    prop_assert!((g - w).abs() <= 1e-10 * w.abs().max(1.0));
                }
            }
        }
    }
}
