//! Every numeric path against a textbook incomplete LU.
//!
//! The engines are bit-identical to one another by contract, so a grid
//! that compares engine with engine cannot see a defect they share —
//! such as a wrong update plan, which all of them walk. This test
//! computes the factor a second way, inside the test: an up-looking
//! ILU over a dense work row, on the pattern `lu()` reports, with the
//! library's operation order (divide by the pivot, then subtract
//! `l · u` for each U entry of the pivot row in column order), τ
//! dropping, MILU compensation, pivot replacement and the diagonal
//! shift of `refactor_with_shift`. `factor`, `refactor`,
//! `refactor_with_shift` and every lane of `refactor_batch` must match
//! it bit for bit — for the update plan and for patterns above its size
//! rule, where the numeric phase scans instead.

use javelin::core::{IluFactors, IluOptions, LowerMethod, SymbolicIlu, ZeroPivotPolicy};
use javelin::sparse::{CooMatrix, CsrMatrix};
use javelin::synth::suite::paper_suite;
use javelin::synth::util::revalue;

/// Value of `a[r, c]`, zero when not stored.
fn entry(a: &CsrMatrix<f64>, r: usize, c: usize) -> f64 {
    let cols = a.row_cols(r);
    cols.binary_search(&c).map_or(0.0, |k| a.row_vals(r)[k])
}

/// Textbook up-looking ILU of `P·a·Pᵀ` on the pattern of `f.lu()`,
/// after adding `shift · max|aᵢᵢ|` to each diagonal away from zero
/// (`shift = 0` for a plain factorization). Returns the bits of the
/// factor values in `lu()` order.
fn reference(f: &IluFactors<f64>, a: &CsrMatrix<f64>, opts: &IluOptions, shift: f64) -> Vec<u64> {
    let n = f.n();
    let (lu, dp) = (f.lu(), f.diag_positions());
    let (rp, ci) = (lu.rowptr(), lu.colidx());
    let n2o = f.perm().new_to_old();
    let mut v: Vec<f64> = (0..n)
        .flat_map(|r| (rp[r]..rp[r + 1]).map(move |e| (r, e)))
        .map(|(r, e)| entry(a, n2o[r], n2o[ci[e]]))
        .collect();
    if shift > 0.0 {
        let scale = dp.iter().map(|&d| v[d].abs()).fold(0.0, f64::max);
        let s = shift * if scale == 0.0 { 1.0 } else { scale };
        for &d in dp {
            v[d] = if v[d] < 0.0 { v[d] - s } else { v[d] + s };
        }
    }
    let thresh: Vec<f64> = (0..n)
        .map(|r| {
            let norm = a
                .row_vals(n2o[r])
                .iter()
                .map(|&x| x * x)
                .sum::<f64>()
                .sqrt();
            opts.drop_tol * norm
        })
        .collect();
    let dropping = opts.drop_tol > 0.0;
    // Dense work row: w[j] is entry (r, j) while row r is eliminated;
    // in_row[j] marks the columns row r stores.
    let mut w = vec![0.0f64; n];
    let mut in_row = vec![false; n];
    for r in 0..n {
        for e in rp[r]..rp[r + 1] {
            w[ci[e]] = v[e];
            in_row[ci[e]] = true;
        }
        for e in rp[r]..dp[r] {
            let c = ci[e];
            let l = w[c] / v[dp[c]];
            if dropping && l.abs() < thresh[r] {
                w[c] = 0.0;
                continue;
            }
            w[c] = l;
            for u in dp[c] + 1..rp[c + 1] {
                if in_row[ci[u]] {
                    w[ci[u]] -= l * v[u];
                }
            }
        }
        let mut dropped = 0.0;
        if dropping {
            for e in dp[r] + 1..rp[r + 1] {
                let x = w[ci[e]];
                if x != 0.0 && x.abs() < thresh[r] {
                    dropped += x;
                    w[ci[e]] = 0.0;
                }
            }
        }
        let mut d = w[r];
        if opts.milu_omega != 0.0 {
            d += opts.milu_omega * dropped;
        }
        if d.abs() < opts.pivot_threshold || !d.is_finite() {
            match opts.zero_pivot {
                ZeroPivotPolicy::Replace { replacement } => {
                    d = if d < 0.0 { -replacement } else { replacement };
                }
                _ => panic!("reference: pivot breakdown at row {r}"),
            }
        }
        w[r] = d;
        for e in rp[r]..rp[r + 1] {
            v[e] = w[ci[e]];
            w[ci[e]] = 0.0;
            in_row[ci[e]] = false;
        }
    }
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits(f: &IluFactors<f64>) -> Vec<u64> {
    f.lu().vals().iter().map(|x| x.to_bits()).collect()
}

/// `a` plus one isolated row/column whose only entry is a zero
/// diagonal: no update reaches that pivot, so `Replace` must act there.
fn with_zero_pivot_row(a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    let n = a.nrows();
    let mut coo = CooMatrix::new(n + 1, n + 1);
    for r in 0..n {
        for (&c, &v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
            coo.push(r, c, v).unwrap();
        }
    }
    coo.push(n, n, 0.0).unwrap();
    coo.to_csr()
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Policy {
    Plain,
    DropMilu,
    Replace,
}

fn options(fill: usize, policy: Policy, nthreads: usize, lower: LowerMethod) -> IluOptions {
    let mut o = IluOptions::ilu0(nthreads).with_fill(fill);
    // A forced lower stage, so ER and SR both have trailing rows.
    o.split.min_rows_per_level = 12;
    o.split.location_frac = 0.1;
    o.lower_method = lower;
    o.parallel_corner = nthreads > 1 && lower == LowerMethod::SegmentedRows;
    match policy {
        Policy::Plain => o,
        Policy::DropMilu => o.with_drop_tol(1e-2).with_milu(1.0),
        Policy::Replace => o.with_zero_pivot(ZeroPivotPolicy::Replace { replacement: 1e-3 }),
    }
}

/// Runs the numeric paths of one analysis against the reference:
/// `factor`, and with `all_paths` also `refactor`, `refactor_with_shift`
/// and `refactor_batch`. Returns whether the analysis built an update
/// plan.
fn check(
    a: &CsrMatrix<f64>,
    opts: &IluOptions,
    policy: Policy,
    all_paths: bool,
    label: &str,
) -> bool {
    let sym = SymbolicIlu::analyze(a, opts).unwrap();
    let mut f = sym.factor(a).unwrap();
    assert_eq!(bits(&f), reference(&f, a, opts, 0.0), "{label}: factor");
    if policy == Policy::Replace {
        assert!(f.stats().replaced_pivots >= 1, "{label}: no pivot replaced");
    }
    if !all_paths {
        return sym.update_plan_bytes().is_some();
    }

    let b = revalue(a, 0.61, 0.05);
    f.refactor(&b).unwrap();
    assert_eq!(bits(&f), reference(&f, &b, opts, 0.0), "{label}: refactor");

    let s = revalue(a, 1.3, 0.05);
    f.refactor_with_shift(&s, 1e-3).unwrap();
    assert_eq!(
        bits(&f),
        reference(&f, &s, opts, 1e-3),
        "{label}: refactor_with_shift"
    );

    let corners: Vec<CsrMatrix<f64>> = (0..2)
        .map(|c| revalue(a, 0.3 + c as f64 * 0.77, 0.05))
        .collect();
    let refs: Vec<&CsrMatrix<f64>> = corners.iter().collect();
    let mut batch = sym.factor_batch(&refs).unwrap();
    let next: Vec<CsrMatrix<f64>> = corners.iter().map(|m| revalue(m, 2.1, 0.05)).collect();
    let next_refs: Vec<&CsrMatrix<f64>> = next.iter().collect();
    batch.refactor_batch(&next_refs).unwrap();
    assert!(batch.all_ok(), "{label}: batch statuses");
    for (c, m) in next.iter().enumerate() {
        let lane = batch.factor(c);
        assert_eq!(
            bits(lane),
            reference(lane, m, opts, 0.0),
            "{label}: refactor_batch lane {c}"
        );
    }
    sym.update_plan_bytes().is_some()
}

/// Checks the suite at one fill level. Returns the patterns that built
/// an update plan and those that fell back to the scan.
fn suite_grid(fill: usize) -> (Vec<&'static str>, Vec<&'static str>) {
    let (mut planned, mut scanned) = (Vec::new(), Vec::new());
    for (i, meta) in paper_suite().into_iter().enumerate() {
        let a = meta.build_tiny();
        let a_zero = with_zero_pivot_row(&a);
        for (p, policy) in [Policy::Plain, Policy::DropMilu, Policy::Replace]
            .into_iter()
            .enumerate()
        {
            let m = if policy == Policy::Replace {
                &a_zero
            } else {
                &a
            };
            // Every path at 1 or 2 threads (Even-Rows), alternating over
            // the grid so both counts meet every matrix, fill and
            // policy; then `factor` through Segmented-Rows and the
            // parallel corner. `refactor`, `refactor_with_shift` and
            // `refactor_batch` always run Even-Rows.
            let nthreads = 1 + (i + fill + p) % 2;
            let runs = [
                (nthreads, LowerMethod::EvenRows, true),
                (2, LowerMethod::SegmentedRows, false),
            ];
            for (nthreads, lower, all_paths) in runs {
                let opts = options(fill, policy, nthreads, lower);
                let label = format!(
                    "{} ILU({fill}) {policy:?} t={nthreads} {lower:?}",
                    meta.name
                );
                let list = if check(m, &opts, policy, all_paths, &label) {
                    &mut planned
                } else {
                    &mut scanned
                };
                if !list.contains(&meta.name) {
                    list.push(meta.name);
                }
            }
        }
    }
    (planned, scanned)
}

#[test]
fn ilu0_paths_match_the_textbook_ilu_bitwise() {
    let (planned, _) = suite_grid(0);
    assert!(planned.len() >= 12, "planned ILU(0) patterns: {planned:?}");
}

/// ILU(1) puts most of the suite above the plan's size rule, so this
/// is where the scanning fallback is checked.
#[test]
fn ilu1_paths_match_the_textbook_ilu_bitwise() {
    let (planned, scanned) = suite_grid(1);
    assert!(
        scanned.contains(&"asic320-like"),
        "fallback patterns: {scanned:?}"
    );
    assert!(!planned.is_empty(), "no planned ILU(1) pattern");
}
