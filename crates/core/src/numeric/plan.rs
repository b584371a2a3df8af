//! The numeric update plan: the updates of the up-looking elimination
//! that land in the pattern, found once from the pattern alone.
//!
//! Eliminating L-entry `(r, c)` subtracts `l · U(c, j)` from `a[r, j]`
//! for every strict-U column `j` of row `c` that row `r` also stores.
//! Which pairs `(U(c, j), a[r, j])` those are depends only on the
//! combined LU pattern, so [`UpdatePlan::build`] records them at
//! analysis time:
//!
//! * per row: the index of its first L-entry (`l_ptr`, `n + 1` × `u32`);
//! * per L-entry, in row order: the LU position of its column's pivot
//!   (`piv`) and the end of its hit range (`hit_ptr`), 8 bytes;
//! * per hit: `[u, p]`, the offset of the U entry from the pivot and the
//!   offset of the updated entry from the start of row `r`, 8 bytes.
//!
//! The kernels then stream the hits instead of scanning every entry of
//! `U(c)` through a column → position map. Hits are stored in ascending
//! `U(c)` order, the order of that scan, so the arithmetic — operand for
//! operand and in the same order — is unchanged and every engine stays
//! bit-identical to the serial reference.
//!
//! **Size rule.** The plan is built only when its bytes do not exceed
//! the bytes of the combined LU factor (values, `usize` column indices
//! and row pointers), and when every index fits in `u32`. Above the rule
//! (heavy fill, where updates outnumber entries many times over) the
//! numeric phase falls back to the scan through a [`RowWorkspace`].
//! Both sources reach the kernels through [`updates`] as an
//! [`Updates`] value, so the kernels' arithmetic is written once and
//! only the loop that produces `(u, p)` pairs differs.

use crate::numeric::kernel::RowWorkspace;

/// One update of an L-entry `(r, c)`: `[u, p]` — the entry of row `c`
/// at offset `u` from its pivot updates the entry of row `r` at offset
/// `p` from the row start.
pub type Hit = [u32; 2];

/// The updates of one L-entry `(r, c)`: each is a pair `(u, p)` — the
/// entry of row `c` at offset `u` from its pivot updates the entry of
/// row `r` at offset `p` from the row start — visited in ascending `u`.
pub enum Updates<'a> {
    /// Recorded by the plan.
    Plan(&'a [Hit]),
    /// Found by scanning `U(c)` — `cols` is row `c`'s column slice from
    /// its pivot on — against the row `ws` has loaded.
    Scan {
        /// Columns of row `c` from the pivot to the row end.
        cols: &'a [usize],
        /// Workspace holding row `r`.
        ws: &'a RowWorkspace,
    },
}

impl Updates<'_> {
    /// Entries of row `c`, counted from its pivot, a kernel must view
    /// to read the pivot and every U entry the updates use.
    #[inline(always)]
    pub fn span(&self) -> usize {
        match self {
            Updates::Plan(hits) => hits.last().map_or(1, |h| h[0] as usize + 1),
            Updates::Scan { cols, .. } => cols.len(),
        }
    }

    /// Calls `f(u, p)` for every update, in ascending `u`.
    #[inline(always)]
    pub fn for_each(&self, mut f: impl FnMut(usize, usize)) {
        match self {
            Updates::Plan(hits) => {
                for &[u, p] in hits.iter() {
                    f(u as usize, p as usize);
                }
            }
            Updates::Scan { cols, ws } => {
                for (u, &j) in cols.iter().enumerate().skip(1) {
                    if let Some(p) = ws.entry_of(j) {
                        f(u, p);
                    }
                }
            }
        }
    }
}

/// A row workspace for one worker of a numeric run on `n` rows:
/// full-size only when the kernels scan (no `plan`), empty otherwise.
pub fn workspace(plan: Option<&UpdatePlan>, n: usize) -> RowWorkspace {
    RowWorkspace::new(if plan.is_some() { 0 } else { n })
}

/// The LU position of the pivot of L-entry `e` of row `r` and its
/// updates: from `plan` when there is one, otherwise by scanning
/// against `ws`, which must hold row `r` ([`RowWorkspace::load_row`]).
#[inline(always)]
pub fn updates<'a>(
    plan: Option<&'a UpdatePlan>,
    ws: &'a RowWorkspace,
    rowptr: &'a [usize],
    colidx: &'a [usize],
    diag_pos: &'a [usize],
    r: usize,
    e: usize,
) -> (usize, Updates<'a>) {
    match plan {
        Some(plan) => {
            let (piv, hits) = plan.updates(r, e - rowptr[r]);
            (piv, Updates::Plan(hits))
        }
        None => {
            let c = colidx[e];
            let dp = diag_pos[c];
            let cols = &colidx[dp..rowptr[c + 1]];
            (dp, Updates::Scan { cols, ws })
        }
    }
}

/// Precomputed updates of the numeric phase (see module docs).
#[derive(Debug)]
pub struct UpdatePlan {
    l_ptr: Vec<u32>,
    piv: Vec<u32>,
    hit_ptr: Vec<u32>,
    hits: Vec<Hit>,
}

impl UpdatePlan {
    /// Builds the plan of the combined LU pattern (`rowptr`, `colidx`,
    /// `diag_pos`), or `None` when it would exceed `budget` bytes or an
    /// index does not fit in `u32`. The build stops as soon as the
    /// budget is exceeded, so a pattern far above the rule costs about
    /// one budget's worth of work, not its full update count.
    pub fn build(
        rowptr: &[usize],
        colidx: &[usize],
        diag_pos: &[usize],
        budget: usize,
    ) -> Option<Self> {
        let n = diag_pos.len();
        // Every row offset then fits the hits' `u32` fields.
        u32::try_from(colidx.len()).ok()?;
        let nnz_l: usize = (0..n).map(|r| diag_pos[r] - rowptr[r]).sum();
        let fixed = Self::bytes_for(n, nnz_l, 0);
        let max_hits = budget.checked_sub(fixed)? / std::mem::size_of::<Hit>();
        let mut ws = RowWorkspace::new(n);
        let mut l_ptr = Vec::with_capacity(n + 1);
        let mut piv = Vec::with_capacity(nnz_l);
        let mut hit_ptr = Vec::with_capacity(nnz_l + 1);
        let mut hits = Vec::new();
        l_ptr.push(0);
        hit_ptr.push(0);
        for r in 0..n {
            ws.load_row(rowptr, colidx, r);
            for e in rowptr[r]..diag_pos[r] {
                let (p, found) = updates(None, &ws, rowptr, colidx, diag_pos, r, e);
                // Offsets are below the entry count, checked above.
                found.for_each(|u, p| hits.push([u as u32, p as u32]));
                piv.push(u32::try_from(p).ok()?);
                hit_ptr.push(u32::try_from(hits.len()).ok()?);
            }
            if hits.len() > max_hits {
                return None;
            }
            l_ptr.push(u32::try_from(piv.len()).ok()?);
        }
        Some(UpdatePlan {
            l_ptr,
            piv,
            hit_ptr,
            hits,
        })
    }

    /// Plan bytes for `n` rows, `nnz_l` L-entries and `hits` hits.
    fn bytes_for(n: usize, nnz_l: usize, hits: usize) -> usize {
        4 * (n + 1) + 8 * nnz_l + 4 + std::mem::size_of::<Hit>() * hits
    }

    /// Bytes the plan occupies.
    pub fn bytes(&self) -> usize {
        Self::bytes_for(self.l_ptr.len() - 1, self.piv.len(), self.hits.len())
    }

    /// The `k`-th L-entry of row `r`: the LU position of its column's
    /// pivot and its hits.
    #[inline(always)]
    fn updates(&self, r: usize, k: usize) -> (usize, &[Hit]) {
        let l = self.l_ptr[r] as usize + k;
        let hits = &self.hits[self.hit_ptr[l] as usize..self.hit_ptr[l + 1] as usize];
        (self.piv[l] as usize, hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense 3×3: row 2's L-entry (2, 0) hits U(0) = {1, 2}, both stored
    /// in row 2; (2, 1) hits U(1) = {2}.
    #[test]
    fn dense_pattern_records_every_update() {
        let rowptr = [0, 3, 6, 9];
        let colidx = [0, 1, 2, 0, 1, 2, 0, 1, 2];
        let diag_pos = [0, 4, 8];
        let p = UpdatePlan::build(&rowptr, &colidx, &diag_pos, usize::MAX).unwrap();
        assert_eq!(p.updates(1, 0), (0, &[[1, 1], [2, 2]][..]));
        assert_eq!(p.updates(2, 0), (0, &[[1, 1], [2, 2]][..]));
        assert_eq!(p.updates(2, 1), (4, &[[1, 2]][..]));
        assert_eq!(p.bytes(), 4 * 4 + 8 * 3 + 4 + 8 * 5);
        assert_eq!(Updates::Plan(p.updates(2, 0).1).span(), 3);
        assert_eq!(Updates::Plan(&[]).span(), 1);
    }

    /// Arrow pattern without the (1, 2) entry: U(0) = {1, 2} but row 1
    /// stores only columns 0 and 1, so (1, 0) has a single hit.
    #[test]
    fn updates_outside_the_row_are_not_recorded() {
        let rowptr = [0, 3, 5, 8];
        let colidx = [0, 1, 2, 0, 1, 0, 1, 2];
        let diag_pos = [0, 4, 7];
        let p = UpdatePlan::build(&rowptr, &colidx, &diag_pos, usize::MAX).unwrap();
        assert_eq!(p.updates(1, 0), (0, &[[1, 1]][..]));
        assert_eq!(p.updates(2, 1), (4, &[][..]));
    }

    #[test]
    fn budget_is_a_hard_limit() {
        let rowptr = [0, 3, 6, 9];
        let colidx = [0, 1, 2, 0, 1, 2, 0, 1, 2];
        let diag_pos = [0, 4, 8];
        let need = UpdatePlan::build(&rowptr, &colidx, &diag_pos, usize::MAX)
            .unwrap()
            .bytes();
        assert!(UpdatePlan::build(&rowptr, &colidx, &diag_pos, need).is_some());
        assert!(UpdatePlan::build(&rowptr, &colidx, &diag_pos, need - 1).is_none());
        assert!(UpdatePlan::build(&rowptr, &colidx, &diag_pos, 0).is_none());
    }
}
