//! Batched refactorization: `k` pattern-identical value-sets through
//! **one** schedule walk.
//!
//! [`SymbolicIlu::factor_batch`] turns `k` pattern-identical matrices
//! (the scenario corners of a parameter sweep) into a [`FactorsBatch`]:
//! `k` independent [`IluFactors`] produced by a single pass of the
//! numeric engines in which the level-schedule / point-to-point walk,
//! the counter resets, the team regions and the per-row pattern walk
//! (update-plan hits or the fallback scan) are shared, and only the per-entry
//! arithmetic loops over the `k` value-sets (through the
//! [`Lanes`](javelin_sparse::lanes::Lanes) layer — see
//! [`crate::numeric::batch`]). [`FactorsBatch::refactor_batch`] redoes
//! the numeric phase for the next sweep step with **zero heap
//! allocations and zero thread spawns** on the persistent team.
//!
//! Per-scenario breakdown semantics: every scenario carries its own
//! [`ZeroPivotPolicy`] state. Under
//! `ShiftRetry`, a singular corner escalates **its own** sticky
//! diagonal shift across full re-runs of the batch while never-failed
//! neighbours rerun unshifted — and because the engines are
//! deterministic, those neighbours reproduce bit-identical factors on
//! every sweep, so one bad corner cannot perturb the others. A corner
//! that exhausts its attempt budget (or fails under `Error`) gets a
//! **typed per-scenario error** in [`FactorsBatch::statuses`] and keeps
//! its previous factors, exactly like the scalar
//! [`IluFactors::refactor`] contract.
//!
//! Bit-identity: scenario `c` of any batch run is bit-identical to the
//! scalar `refactor` of matrix `c` alone — per lane, the kernels
//! execute the scalar operation order on lane-`c` data only, and the
//! retry loop applies the same reload + shift sequence the scalar
//! policy would. The differential proptests in
//! `crates/core/tests/batch_differential.rs` enforce this across
//! engines × threads × k × pivot policies.

use crate::factors::IluFactors;
use crate::numeric::batch::{
    factor_batch_lower_er_planned, factor_batch_serial_ws, factor_batch_upper_p2p_planned,
    BatchNumericCtx,
};
use crate::numeric::kernel::LuVals;
use crate::options::ZeroPivotPolicy;
use crate::precond::ScenarioPrecond;
use crate::symbolic_ilu::{NumericScratch, SymCore, SymbolicIlu, FILL};
use crate::trisolve::serial::SweepVals;
use crate::SolveEngine;
use javelin_sparse::{with_lanes, CsrMatrix, Scalar, SparseError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// `k` scenario factorizations of one symbolic analysis, produced and
/// refreshed as a batch (see module docs). Obtain with
/// [`SymbolicIlu::factor_batch`]; refresh each sweep step with
/// [`FactorsBatch::refactor_batch`]; feed panel solves with
/// [`FactorsBatch::precond`].
pub struct FactorsBatch<T: Scalar> {
    sym: SymbolicIlu<T>,
    k: usize,
    /// Interleaved batch value buffer: scenario `c` of LU entry `e` at
    /// `e·k + c`.
    lu_vals: LuVals<T>,
    /// Interleaved per-scenario τ thresholds (`r·k + c`); empty when
    /// dropping is off.
    drop_thresh: Vec<T>,
    replaced: Vec<AtomicUsize>,
    dropped: Vec<AtomicUsize>,
    failed: Vec<AtomicUsize>,
    /// Failed sweeps per scenario (ShiftRetry bookkeeping).
    failures: Vec<usize>,
    /// Last failing row per scenario.
    fail_rows: Vec<usize>,
    /// Last absolute diagonal shift applied per scenario.
    shifts: Vec<f64>,
    factors: Vec<IluFactors<T>>,
    statuses: Vec<Result<(), SparseError>>,
}

impl<T: Scalar> SymbolicIlu<T> {
    /// Numeric factorization of `k` pattern-identical matrices in one
    /// batched pass of the engines (see [`FactorsBatch`]). Every matrix
    /// must have exactly the analyzed pattern.
    ///
    /// Scenario breakdowns are **per-scenario**, reported through
    /// [`FactorsBatch::statuses`]; this only errs globally.
    ///
    /// # Errors
    /// * [`SparseError::DimensionMismatch`] when `mats` is empty;
    /// * [`SparseError::PatternMismatch`] when any matrix's pattern
    ///   differs from the analyzed one.
    pub fn factor_batch(&self, mats: &[&CsrMatrix<T>]) -> Result<FactorsBatch<T>, SparseError> {
        let k = mats.len();
        if k == 0 {
            return Err(SparseError::DimensionMismatch(
                "factor_batch needs at least one scenario matrix".to_string(),
            ));
        }
        for a in mats {
            self.check_pattern(a)?;
        }
        let c = self.core();
        let nnz = c.colidx.len();
        // Seed every scenario with an identity-safe factor (unit
        // diagonal, zero off-diagonal): a corner that breaks down on
        // the very first batch still leaves a usable — if weak —
        // preconditioner, mirroring the scalar keep-previous contract.
        let mut seed_vals = vec![T::ZERO; nnz];
        for &dp in c.diag_pos.iter() {
            seed_vals[dp] = T::from_f64(1.0);
        }
        let factors = (0..k)
            .map(|_| {
                let mut vals = vec![T::ZERO; nnz];
                let mut sweep = SweepVals::zeroed(&c.sweep);
                sweep.commit(c, &seed_vals, 1, 0, &mut vals);
                let lu = CsrMatrix::from_raw_unchecked(
                    c.n,
                    c.n,
                    c.rowptr.clone(),
                    c.colidx.clone(),
                    vals,
                );
                IluFactors::from_parts(self.clone(), lu, sweep, c.stats.clone())
            })
            .collect();
        let mut batch = FactorsBatch {
            sym: self.clone(),
            k,
            // First-touch on the factorization's own threads (see
            // `LuVals::zeroed_on`) — the batch buffer is k× the scalar
            // one, so placement matters most here.
            lu_vals: LuVals::zeroed_on(nnz * k, self.exec()),
            drop_thresh: if c.opts.drop_tol > 0.0 {
                vec![T::ZERO; c.n * k]
            } else {
                Vec::new()
            },
            replaced: (0..k).map(|_| AtomicUsize::new(0)).collect(),
            dropped: (0..k).map(|_| AtomicUsize::new(0)).collect(),
            failed: (0..k).map(|_| AtomicUsize::new(usize::MAX)).collect(),
            failures: vec![0; k],
            fail_rows: vec![0; k],
            shifts: vec![0.0; k],
            factors,
            statuses: (0..k).map(|_| Ok(())).collect(),
        };
        batch.refactor_batch(mats)?;
        Ok(batch)
    }
}

impl<T: Scalar> FactorsBatch<T> {
    /// Scenario count (the lane width of the batch).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The symbolic analysis shared by every scenario factor.
    pub fn symbolic(&self) -> &SymbolicIlu<T> {
        &self.sym
    }

    /// The `k` scenario factors, in input order.
    pub fn factors(&self) -> &[IluFactors<T>] {
        &self.factors
    }

    /// Scenario `c`'s factors.
    pub fn factor(&self, c: usize) -> &IluFactors<T> {
        &self.factors[c]
    }

    /// Per-scenario outcome of the latest batch: `Ok` when the
    /// scenario factored (possibly shift-retried — see its
    /// `stats().shift_attempts`), [`SparseError::ZeroPivot`] under the
    /// `Error` policy, [`SparseError::Breakdown`] when `ShiftRetry`
    /// exhausted its budget. Failed scenarios keep their previous
    /// factors.
    pub fn statuses(&self) -> &[Result<(), SparseError>] {
        &self.statuses
    }

    /// Whether every scenario of the latest batch factored.
    pub fn all_ok(&self) -> bool {
        self.statuses.iter().all(|s| s.is_ok())
    }

    /// A per-scenario panel preconditioner: column `c` of a batched
    /// Krylov solve is preconditioned by scenario `c`'s factors.
    pub fn precond(&self, engine: SolveEngine) -> ScenarioPrecond<'_, T> {
        ScenarioPrecond::new(&self.factors, engine)
    }

    /// Redoes the numeric phase of **all** `k` scenarios in one batched
    /// pass — the sweep-stepping entry point. The schedule walk, team
    /// regions, counter resets and row loads run once; the per-row
    /// arithmetic loops over the scenario lanes. In the steady state
    /// this performs **zero heap allocations and zero thread spawns**
    /// (enforced by `tests/refactor_alloc.rs`).
    ///
    /// Scenario breakdowns are per-scenario: consult
    /// [`FactorsBatch::statuses`] (or [`FactorsBatch::all_ok`]) after
    /// the call. A failed scenario keeps its previous factors and
    /// statistics; its neighbours are bit-identical to a run without
    /// the bad corner.
    ///
    /// # Errors
    /// * [`SparseError::DimensionMismatch`] when `mats.len() != k`;
    /// * [`SparseError::PatternMismatch`] when any matrix's pattern
    ///   differs from the analyzed one. In both cases no factor is
    ///   touched.
    pub fn refactor_batch(&mut self, mats: &[&CsrMatrix<T>]) -> Result<(), SparseError> {
        if mats.len() != self.k {
            return Err(SparseError::DimensionMismatch(format!(
                "refactor_batch got {} matrices, batch was built for k = {}",
                mats.len(),
                self.k
            )));
        }
        for a in mats {
            self.sym.check_pattern(a)?;
        }
        let t2 = Instant::now();
        let Self {
            sym,
            k,
            lu_vals,
            drop_thresh,
            replaced,
            dropped,
            failed,
            failures,
            fail_rows,
            shifts,
            factors,
            statuses,
        } = self;
        let k = *k;
        let c = sym.core();
        {
            let mut num = c.numeric.lock();
            for lane in 0..k {
                failures[lane] = 0;
                fail_rows[lane] = 0;
                shifts[lane] = 0.0;
                statuses[lane] = Ok(());
                replaced[lane].store(0, Ordering::Relaxed);
                dropped[lane].store(0, Ordering::Relaxed);
            }
            let (initial, growth, max_attempts) = match c.opts.zero_pivot {
                ZeroPivotPolicy::ShiftRetry {
                    initial,
                    growth,
                    max_attempts,
                } => (initial, growth, max_attempts),
                _ => (0.0, 0.0, 0),
            };
            // Sweep loop. Non-ShiftRetry policies run exactly one
            // sweep; ShiftRetry re-runs the whole batch while any
            // non-exhausted scenario still fails, with per-scenario
            // sticky shifts. Deterministic engines make re-runs of
            // already-succeeding scenarios bit-identical, so the loop
            // cannot perturb them.
            loop {
                load_batch(c, k, lu_vals, drop_thresh, mats);
                for lane in 0..k {
                    if failures[lane] > 0 && failures[lane] <= max_attempts {
                        // Same escalation the scalar retry loop applies
                        // on its `failures[lane]`-th retry.
                        let rel = initial * growth.powi(failures[lane] as i32 - 1);
                        shifts[lane] = shift_lane(c, k, lu_vals, lane, rel);
                    }
                    failed[lane].store(usize::MAX, Ordering::Relaxed);
                }
                run_batch_engines(
                    c,
                    &mut num,
                    k,
                    &*lu_vals,
                    drop_thresh,
                    replaced,
                    dropped,
                    failed,
                );
                let mut retry = false;
                for lane in 0..k {
                    let f = failed[lane].load(Ordering::Relaxed);
                    if f == usize::MAX || statuses[lane].is_err() {
                        continue;
                    }
                    let row = f - 1;
                    failures[lane] += 1;
                    fail_rows[lane] = row;
                    match c.opts.zero_pivot {
                        ZeroPivotPolicy::ShiftRetry { .. } => {
                            if failures[lane] > max_attempts {
                                // Budget exhausted: typed per-scenario
                                // breakdown, factors stay as they were.
                                statuses[lane] = Err(SparseError::Breakdown {
                                    row: fail_rows[lane],
                                    attempts: max_attempts + 1,
                                    shift: shifts[lane],
                                });
                            } else {
                                retry = true;
                            }
                        }
                        _ => statuses[lane] = Err(SparseError::ZeroPivot { row }),
                    }
                }
                if !retry {
                    break;
                }
            }
        }
        // Commit phase: de-interleave every successful scenario into
        // its factor object and complete its statistics; failed
        // scenarios keep the previous factorization.
        let t_numeric = t2.elapsed();
        let src = lu_vals.as_mut_slice();
        for lane in 0..k {
            if statuses[lane].is_err() {
                continue;
            }
            factors[lane].commit(src, k, lane);
            let stats = factors[lane].stats_mut();
            stats.replaced_pivots = replaced[lane].load(Ordering::Relaxed);
            stats.dropped_entries = dropped[lane].load(Ordering::Relaxed);
            stats.shift_attempts = failures[lane] + 1;
            stats.diag_shift = shifts[lane];
            stats.t_numeric = t_numeric;
        }
        Ok(())
    }
}

/// Loads every scenario's values into the interleaved batch buffer
/// through the precomputed source map (fill positions get zero) and
/// recomputes the per-scenario τ thresholds — the batched
/// `load_values`. Allocation-free.
fn load_batch<T: Scalar>(
    c: &SymCore<T>,
    k: usize,
    lu_vals: &mut LuVals<T>,
    drop_thresh: &mut [T],
    mats: &[&CsrMatrix<T>],
) {
    let dst = lu_vals.as_mut_slice().chunks_exact_mut(k);
    for (lanes, &src) in dst.zip(&c.a_src) {
        for (v, a) in lanes.iter_mut().zip(mats) {
            *v = if src == FILL {
                T::ZERO
            } else {
                a.vals()[src as usize]
            };
        }
    }
    if c.opts.drop_tol > 0.0 {
        let new_to_old = c.perm.new_to_old();
        for new_r in 0..c.n {
            let old_r = new_to_old[new_r];
            for (lane, a) in mats.iter().enumerate() {
                let norm = a.row_vals(old_r).iter().map(|&v| v * v).sum::<T>().sqrt();
                drop_thresh[new_r * k + lane] = T::from_f64(c.opts.drop_tol) * norm;
            }
        }
    }
}

/// Boosts scenario `lane`'s diagonal away from zero by
/// `relative_shift · max|aᵢᵢ|` of **that scenario's** freshly loaded
/// diagonal — the per-lane `apply_diag_shift`, bit-identical to the
/// scalar one run on matrix `lane` alone. Returns the absolute shift.
fn shift_lane<T: Scalar>(
    c: &SymCore<T>,
    k: usize,
    lu_vals: &LuVals<T>,
    lane: usize,
    relative_shift: f64,
) -> f64 {
    let mut scale = 0.0f64;
    for &dp in c.diag_pos.iter() {
        scale = scale.max(lu_vals.get(dp * k + lane).abs().to_f64());
    }
    if scale == 0.0 {
        scale = 1.0;
    }
    let shift = relative_shift * scale;
    let shift_t = T::from_f64(shift);
    for &dp in c.diag_pos.iter() {
        let d = lu_vals.get(dp * k + lane);
        lu_vals.set(
            dp * k + lane,
            if d < T::ZERO {
                d - shift_t
            } else {
                d + shift_t
            },
        );
    }
    shift
}

/// One batched numeric sweep over the loaded interleaved buffer on the
/// planned engines: serial when single-threaded, otherwise the
/// point-to-point upper stage plus the Even-Rows lower stage as regions
/// on the persistent team — the batch analogue of the scalar
/// `NumericPath::Planned`. Breakdown policy inside the kernels is
/// forced to flag-only (`record_failure`); the retry/error policy is
/// applied per scenario by the caller.
#[allow(clippy::too_many_arguments)]
fn run_batch_engines<T: Scalar>(
    c: &SymCore<T>,
    num: &mut NumericScratch<T>,
    k: usize,
    lu_vals: &LuVals<T>,
    drop_thresh: &[T],
    replaced: &[AtomicUsize],
    dropped: &[AtomicUsize],
    failed: &[AtomicUsize],
) {
    let ctx = BatchNumericCtx {
        rowptr: &c.rowptr,
        colidx: &c.colidx,
        diag_pos: &c.diag_pos,
        plan: c.update_plan.as_ref(),
        vals: lu_vals,
        drop_thresh,
        milu_omega: T::from_f64(c.opts.milu_omega),
        pivot_threshold: T::from_f64(c.opts.pivot_threshold),
        zero_pivot: match c.opts.zero_pivot {
            ZeroPivotPolicy::Replace { replacement } => ZeroPivotPolicy::Replace { replacement },
            // Error and ShiftRetry both record per-lane failure flags;
            // the caller turns them into errors or retries.
            _ => ZeroPivotPolicy::Error,
        },
        replaced,
        dropped,
        failed_row: failed,
    };
    let n_upper = c.plan.n_upper;
    let n_lower = c.n - n_upper;
    with_lanes!(k, lanes => {
        if c.nthreads == 1 {
            factor_batch_serial_ws(lanes, &ctx, &mut num.row_ws[0].lock());
        } else {
            factor_batch_upper_p2p_planned(
                lanes,
                &ctx,
                &c.plan.fwd,
                &c.exec,
                &num.progress,
                &num.row_ws,
            );
            if n_lower > 0 {
                factor_batch_lower_er_planned(lanes, &ctx, n_upper, &c.exec, &num.row_ws);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use crate::options::IluOptions;
    use crate::symbolic_ilu::SymbolicIlu;
    use javelin_sparse::{CsrMatrix, SparseError};
    use javelin_synth::grid::laplace_2d;
    use javelin_synth::util::revalue;

    fn corners(a: &CsrMatrix<f64>, k: usize) -> Vec<CsrMatrix<f64>> {
        (0..k)
            .map(|c| revalue(a, 0.3 + c as f64 * 0.77, 0.05))
            .collect()
    }

    fn bits(f: &crate::IluFactors<f64>) -> Vec<u64> {
        f.lu().vals().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn factor_batch_matches_looped_refactor_bitwise() {
        let a = laplace_2d(13, 13);
        for nthreads in [1usize, 2] {
            let sym = SymbolicIlu::analyze(&a, &IluOptions::ilu0(nthreads)).unwrap();
            let mats = corners(&a, 4);
            let refs: Vec<&CsrMatrix<f64>> = mats.iter().collect();
            let batch = sym.factor_batch(&refs).unwrap();
            assert!(batch.all_ok());
            for (c, m) in mats.iter().enumerate() {
                let mut scalar = sym.factor(&a).unwrap();
                scalar.refactor(m).unwrap();
                assert_eq!(
                    bits(batch.factor(c)),
                    bits(&scalar),
                    "scenario {c}, nthreads {nthreads}"
                );
            }
        }
    }

    #[test]
    fn refactor_batch_steps_match_scalar() {
        let a = laplace_2d(11, 11);
        let sym = SymbolicIlu::analyze(&a, &IluOptions::ilu0(2)).unwrap();
        let mats0 = corners(&a, 3);
        let refs0: Vec<&CsrMatrix<f64>> = mats0.iter().collect();
        let mut batch = sym.factor_batch(&refs0).unwrap();
        let mats1: Vec<CsrMatrix<f64>> = mats0.iter().map(|m| revalue(m, 1.5, 0.1)).collect();
        let refs1: Vec<&CsrMatrix<f64>> = mats1.iter().collect();
        batch.refactor_batch(&refs1).unwrap();
        assert!(batch.all_ok());
        for (c, m) in mats1.iter().enumerate() {
            let mut scalar = sym.factor(&a).unwrap();
            scalar.refactor(m).unwrap();
            assert_eq!(bits(batch.factor(c)), bits(&scalar), "scenario {c}");
        }
    }

    #[test]
    fn wrong_k_and_wrong_pattern_are_global_errors() {
        let a = laplace_2d(9, 9);
        let sym = SymbolicIlu::analyze(&a, &IluOptions::ilu0(1)).unwrap();
        let mats = corners(&a, 2);
        let refs: Vec<&CsrMatrix<f64>> = mats.iter().collect();
        let mut batch = sym.factor_batch(&refs).unwrap();
        let before: Vec<Vec<u64>> = batch.factors().iter().map(super::tests::bits).collect();
        assert!(matches!(
            batch.refactor_batch(&refs[..1]),
            Err(SparseError::DimensionMismatch(_))
        ));
        let other = laplace_2d(10, 10);
        assert!(matches!(
            batch.refactor_batch(&[&other, &other]),
            Err(SparseError::PatternMismatch(_))
        ));
        let after: Vec<Vec<u64>> = batch.factors().iter().map(super::tests::bits).collect();
        assert_eq!(before, after, "global errors must leave factors untouched");
        assert!(sym.factor_batch(&[]).is_err());
    }
}
