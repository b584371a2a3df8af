//! Numeric up-looking incomplete factorization (paper Fig. 1, §III).
//!
//! All engines execute the *same* per-row kernel in the *same*
//! within-row operation order, so the serial, point-to-point,
//! Even-Rows and Segmented-Rows paths produce **bit-identical**
//! factors — a property the test suite enforces. Engine choice affects
//! only who executes which row when.

pub mod batch;
pub mod kernel;
pub mod lower;
pub mod parallel;
pub mod plan;

pub use kernel::{LuVals, RowWorkspace};
pub use plan::UpdatePlan;

use crate::options::ZeroPivotPolicy;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Shared mutable state of a numeric factorization run: the bit-packed
/// values plus the counters every engine updates.
pub struct NumericCtx<'a, T: javelin_sparse::Scalar> {
    /// Combined-LU pattern row pointers (permuted).
    pub rowptr: &'a [usize],
    /// Combined-LU pattern column indices (permuted).
    pub colidx: &'a [usize],
    /// Diagonal entry position of each row.
    pub diag_pos: &'a [usize],
    /// The pattern's update plan; `None` above its size rule, where the
    /// kernels scan through a [`RowWorkspace`] instead.
    pub plan: Option<&'a UpdatePlan>,
    /// Bit-packed values (initialized from `A`, overwritten in place).
    pub vals: &'a LuVals<T>,
    /// Per-row τ drop thresholds (empty slice disables dropping).
    pub drop_thresh: &'a [T],
    /// MILU compensation factor ω.
    pub milu_omega: T,
    /// Pivot breakdown threshold.
    pub pivot_threshold: T,
    /// Breakdown policy.
    pub zero_pivot: ZeroPivotPolicy,
    /// Replaced-pivot counter (all engines).
    pub replaced: &'a AtomicUsize,
    /// Dropped-entry counter.
    pub dropped: &'a AtomicUsize,
    /// Breakdown flag for [`ZeroPivotPolicy::Error`]: initialized to
    /// `usize::MAX` (= ok), lowered to `row + 1` of the smallest failing
    /// row.
    pub failed_row: &'a AtomicUsize,
}

impl<'a, T: javelin_sparse::Scalar> NumericCtx<'a, T> {
    /// Entry range of a row.
    #[inline(always)]
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.rowptr[r]..self.rowptr[r + 1]
    }

    /// A row workspace for one worker of this run: full-size only when
    /// the kernels scan (no plan), empty otherwise.
    pub fn workspace(&self) -> RowWorkspace {
        plan::workspace(self.plan, self.rowptr.len() - 1)
    }

    /// Records a pivot breakdown at `row`.
    #[inline]
    pub fn record_failure(&self, row: usize) {
        // Keep the smallest failing row for a deterministic error.
        self.failed_row.fetch_min(row + 1, Ordering::AcqRel);
    }
}
