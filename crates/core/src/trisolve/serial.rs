//! Serial forward/backward substitution on the **sweep layout**.
//!
//! The numeric phase and the parallel engines work on the combined LU
//! CSR (`usize` indices, L and U interleaved row by row). The serial
//! engine instead streams a private copy of the factor arranged the way
//! its two sweeps read it:
//!
//! * `SweepPattern`, built once per analysis and shared by every
//!   factor object of it: strict-L rows in forward order, strict-U rows
//!   in **descending** row order (so the backward sweep also walks
//!   memory front to back), all with `u32` row pointers and column
//!   indices, plus the permutation's `new_to_old` map as `u32`;
//! * `SweepVals`, one per factor object: the L values, the U values
//!   and the pivots in a separate array.
//!
//! Each sweep therefore touches only the half of the factor it needs,
//! at 12 bytes per off-diagonal entry instead of 16. The permutation is
//! folded into the sweeps: the forward sweep reads `b[new_to_old[r]]`
//! directly and the backward sweep writes `x[new_to_old[r]]` as each row
//! retires, so a solve makes two passes instead of four.
//!
//! The arithmetic is that of the parallel engines' row retirement: each
//! row sums its off-diagonal products in ascending column order starting
//! from zero, subtracts the sum from its right-hand side and, in U,
//! divides by the pivot. The serial engine is therefore bit-identical to
//! `BarrierLevel` and `PointToPoint`, which read the combined CSR, and to
//! `PointToPointLower` except where that engine's tiled gather splits a
//! trailing row's sum across tiles and so reassociates it.

use crate::symbolic_ilu::SymCore;
use javelin_sparse::{Scalar, SparseError};
use std::ops::Range;

// The sweeps widen their `u32` indices with `as usize`.
const _: () = assert!(usize::BITS >= 32);

/// Converts a size or index of the factor storage to the sweep layout's
/// `u32`, or reports which quantity does not fit.
///
/// # Errors
/// [`SparseError::IndexOverflow`] when `value ≥ 2³²`.
pub(crate) fn index_u32(value: usize, what: &'static str) -> Result<u32, SparseError> {
    u32::try_from(value).map_err(|_| SparseError::IndexOverflow { what, value })
}

/// The pattern half of the sweep layout (see module docs).
#[derive(Debug)]
pub(crate) struct SweepPattern {
    l_ptr: Vec<u32>,
    l_col: Vec<u32>,
    /// Slot `i` holds row `n - 1 - i`.
    u_ptr: Vec<u32>,
    u_col: Vec<u32>,
    new_to_old: Vec<u32>,
}

impl SweepPattern {
    /// Splits the combined LU pattern (`rowptr`, `colidx`, `diag_pos`,
    /// permuted ordering) into the sweep layout.
    ///
    /// # Errors
    /// [`SparseError::IndexOverflow`] when the dimension or the entry
    /// count reaches 2³².
    pub(crate) fn new(
        rowptr: &[usize],
        colidx: &[usize],
        diag_pos: &[usize],
        new_to_old: &[usize],
    ) -> Result<Self, SparseError> {
        let n = diag_pos.len();
        index_u32(n, "n")?;
        index_u32(colidx.len(), "nnz_lu")?;
        let nnz_l: usize = (0..n).map(|r| diag_pos[r] - rowptr[r]).sum();
        let nnz_u = colidx.len() - n - nnz_l;
        let mut p = SweepPattern {
            l_ptr: Vec::with_capacity(n + 1),
            l_col: Vec::with_capacity(nnz_l),
            u_ptr: Vec::with_capacity(n + 1),
            u_col: Vec::with_capacity(nnz_u),
            new_to_old: Vec::with_capacity(n),
        };
        p.l_ptr.push(0);
        p.u_ptr.push(0);
        for r in 0..n {
            for &c in &colidx[rowptr[r]..diag_pos[r]] {
                p.l_col.push(index_u32(c, "column")?);
            }
            p.l_ptr.push(index_u32(p.l_col.len(), "nnz_l")?);
            let r_up = n - 1 - r;
            for &c in &colidx[diag_pos[r_up] + 1..rowptr[r_up + 1]] {
                p.u_col.push(index_u32(c, "column")?);
            }
            p.u_ptr.push(index_u32(p.u_col.len(), "nnz_u")?);
            p.new_to_old.push(index_u32(new_to_old[r], "row")?);
        }
        Ok(p)
    }

    fn n(&self) -> usize {
        self.new_to_old.len()
    }

    /// Position of row `r`'s strict-L entries in the L arrays.
    fn l_range(&self, r: usize) -> Range<usize> {
        self.l_ptr[r] as usize..self.l_ptr[r + 1] as usize
    }

    /// Position of row `r`'s strict-U entries in the U arrays.
    fn u_range(&self, r: usize) -> Range<usize> {
        let slot = self.n() - 1 - r;
        self.u_ptr[slot] as usize..self.u_ptr[slot + 1] as usize
    }
}

/// The value half of the sweep layout, one per factor object (see
/// module docs).
#[derive(Debug)]
pub(crate) struct SweepVals<T> {
    l: Vec<T>,
    u: Vec<T>,
    diag: Vec<T>,
}

impl<T: Scalar> SweepVals<T> {
    /// All-zero values for `p`.
    pub(crate) fn zeroed(p: &SweepPattern) -> Self {
        SweepVals {
            l: vec![T::ZERO; p.l_col.len()],
            u: vec![T::ZERO; p.u_col.len()],
            diag: vec![T::ZERO; p.n()],
        }
    }

    /// Writes every factor value `get(e)` (`e` indexing the combined LU
    /// arrays of `core`) into `lu` and into this layout, in one pass —
    /// the commit of every numeric phase.
    pub(crate) fn commit(&mut self, core: &SymCore<T>, get: impl Fn(usize) -> T, lu: &mut [T]) {
        let p = &core.sweep;
        for r in 0..core.n {
            let (lo, d, hi) = (core.rowptr[r], core.diag_pos[r], core.rowptr[r + 1]);
            for (e, v) in lu[lo..hi].iter_mut().enumerate() {
                *v = get(lo + e);
            }
            self.l[p.l_range(r)].copy_from_slice(&lu[lo..d]);
            self.diag[r] = lu[d];
            self.u[p.u_range(r)].copy_from_slice(&lu[d + 1..hi]);
        }
    }
}

/// Forward substitution `L·y = rhs` with implicit unit diagonal; row
/// `r`'s right-hand side is `rhs(r, y)`, read after the row's sum.
#[inline(always)]
fn forward<T: Scalar>(
    p: &SweepPattern,
    v: &SweepVals<T>,
    y: &mut [T],
    rhs: impl Fn(usize, &[T]) -> T,
) {
    for (r, w) in p.l_ptr.windows(2).enumerate() {
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        let mut s = T::ZERO;
        for (&lv, &c) in v.l[lo..hi].iter().zip(&p.l_col[lo..hi]) {
            s += lv * y[c as usize];
        }
        y[r] = rhs(r, y) - s;
    }
}

/// Backward substitution `U·y = y` in place; `retire(r, y_r)` sees
/// each row's final value as the row retires.
#[inline(always)]
fn backward<T: Scalar>(
    p: &SweepPattern,
    v: &SweepVals<T>,
    y: &mut [T],
    mut retire: impl FnMut(usize, T),
) {
    let n = p.n();
    for (slot, w) in p.u_ptr.windows(2).enumerate() {
        let r = n - 1 - slot;
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        let mut s = T::ZERO;
        for (&uv, &c) in v.u[lo..hi].iter().zip(&p.u_col[lo..hi]) {
            s += uv * y[c as usize];
        }
        let yr = (y[r] - s) / v.diag[r];
        y[r] = yr;
        retire(r, yr);
    }
}

/// Solves `L·U·z = z` in place on an already-permuted buffer (the
/// paper's Fig. 12 `stri` measurement, without permutation).
pub(crate) fn solve_permuted_inplace<T: Scalar>(p: &SweepPattern, v: &SweepVals<T>, z: &mut [T]) {
    forward(p, v, z, |r, z| z[r]);
    backward(p, v, z, |_, _| {});
}

/// Solves `A·x ≈ b` in original ordering: the forward sweep gathers `b`
/// through the permutation, the backward sweep scatters into `x`, and
/// `y` (length `n`) holds the permuted intermediate.
pub(crate) fn solve_fused<T: Scalar>(
    p: &SweepPattern,
    v: &SweepVals<T>,
    b: &[T],
    y: &mut [T],
    x: &mut [T],
) {
    let n2o = &p.new_to_old;
    forward(p, v, y, |r, _| b[n2o[r] as usize]);
    backward(p, v, y, |r, yr| x[n2o[r] as usize] = yr);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{factorize, IluOptions, SolveEngine};
    use javelin_sparse::{CooMatrix, CsrMatrix};

    /// Textbook substitution over the combined LU CSR.
    fn reference(lu: &CsrMatrix<f64>, dp: &[usize], z: &mut [f64]) {
        let (rp, ci, v) = (lu.rowptr(), lu.colidx(), lu.vals());
        for r in 0..lu.nrows() {
            let s: f64 = (rp[r]..dp[r]).fold(0.0, |s, e| s + v[e] * z[ci[e]]);
            z[r] -= s;
        }
        for r in (0..lu.nrows()).rev() {
            let s: f64 = (dp[r] + 1..rp[r + 1]).fold(0.0, |s, e| s + v[e] * z[ci[e]]);
            z[r] = (z[r] - s) / v[dp[r]];
        }
    }

    /// Nonsymmetric, level-split-friendly fixture.
    fn fixture(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 5.0 + (i % 4) as f64).unwrap();
            if i >= 1 {
                coo.push(i, i - 1, -1.5).unwrap();
            }
            if i >= 6 {
                coo.push(i, i - 6, 0.25).unwrap();
            }
            if i + 3 < n {
                coo.push(i, i + 3, -0.75).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn sweeps_match_reference_substitution_bitwise() {
        let a = fixture(60);
        let f = factorize(&a, &IluOptions::ilu0(1).with_fill(1)).unwrap();
        let n = f.n();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 1.5).collect();

        let mut want = f.perm().apply_vec(&b);
        reference(f.lu(), f.diag_positions(), &mut want);
        let mut z = f.perm().apply_vec(&b);
        f.solve_permuted_inplace(SolveEngine::Serial, &mut z);
        assert_eq!(z, want, "in-place sweeps");

        let mut x = vec![0.0; n];
        f.solve_with(SolveEngine::Serial, &b, &mut x).unwrap();
        for (i, &o) in f.perm().new_to_old().iter().enumerate() {
            assert_eq!(x[o].to_bits(), want[i].to_bits(), "fused sweep row {i}");
        }
    }

    #[test]
    fn u_rows_are_stored_in_descending_order() {
        // Rows 0 and 1 of a 3×3 upper bidiagonal: row 2 has no strict-U
        // entries, so slot 0 is empty and row 1 precedes row 0.
        let rowptr = [0, 2, 4, 5];
        let colidx = [0, 1, 1, 2, 2];
        let diag_pos = [0, 2, 4];
        let p = SweepPattern::new(&rowptr, &colidx, &diag_pos, &[2, 0, 1]).unwrap();
        assert_eq!(p.u_ptr, vec![0, 0, 1, 2]);
        assert_eq!(p.u_col, vec![2, 1]);
        assert_eq!(p.u_range(1), 0..1);
        assert_eq!(p.u_range(0), 1..2);
        assert_eq!(p.l_ptr, vec![0, 0, 0, 0]);
        assert_eq!(p.new_to_old, vec![2, 0, 1]);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn index_conversion_boundary() {
        let max = u32::MAX as usize;
        assert_eq!(index_u32(max, "n"), Ok(u32::MAX));
        assert_eq!(index_u32(0, "n"), Ok(0));
        assert_eq!(
            index_u32(max + 1, "nnz_lu"),
            Err(SparseError::IndexOverflow {
                what: "nnz_lu",
                value: max + 1
            })
        );
    }
}
