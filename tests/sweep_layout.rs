//! The serial engine runs on its own copy of the factor (split L/U in
//! sweep order, `u32` indices, permutation folded into the sweeps);
//! the parallel engines read the combined LU CSR. Both copies are
//! written by one commit after every numeric phase, and the arithmetic
//! is the same, so every engine must produce the same bits — after a
//! fresh factorization, a refactor, a shifted refactor, a shift-retry
//! recovery and a batched refactor, for single right-hand sides and
//! panels alike. A textbook substitution over `lu()` is the reference.

use javelin::core::{IluFactors, IluOptions, SolveEngine, SymbolicIlu, ZeroPivotPolicy};
use javelin::sparse::{CooMatrix, CsrMatrix, Panel, PanelMut};
use javelin::synth::suite::paper_suite;
use javelin::synth::util::revalue;

const ENGINES: [SolveEngine; 4] = [
    SolveEngine::Serial,
    SolveEngine::BarrierLevel,
    SolveEngine::PointToPoint,
    SolveEngine::PointToPointLower,
];

/// Two threads with a forced lower stage, so every parallel engine has
/// real work in both stages.
///
/// The tile covers the whole trailing block. With several tiles,
/// `PointToPointLower` adds a trailing row's partial sums tile by tile,
/// which reassociates the row's sum wherever a tile boundary splits it:
/// the result then differs from the in-order sum by an ulp or so, and
/// only tolerance tests hold. One tile keeps the in-order sum and still
/// runs the tiled gather and the combination step.
fn opts() -> IluOptions {
    let mut o = IluOptions::ilu0(2);
    o.split.min_rows_per_level = 12;
    o.split.location_frac = 0.1;
    o.tile_size = 1 << 20;
    o
}

/// Forward then backward substitution over the combined LU factor, in
/// original ordering.
fn reference(f: &IluFactors<f64>, b: &[f64]) -> Vec<u64> {
    let (lu, dp) = (f.lu(), f.diag_positions());
    let (rp, ci, v) = (lu.rowptr(), lu.colidx(), lu.vals());
    let mut z = f.perm().apply_vec(b);
    for r in 0..f.n() {
        let mut s = 0.0;
        for e in rp[r]..dp[r] {
            s += v[e] * z[ci[e]];
        }
        z[r] -= s;
    }
    for r in (0..f.n()).rev() {
        let mut s = 0.0;
        for e in dp[r] + 1..rp[r + 1] {
            s += v[e] * z[ci[e]];
        }
        z[r] = (z[r] - s) / v[dp[r]];
    }
    let mut x = vec![0u64; f.n()];
    for (i, &o) in f.perm().new_to_old().iter().enumerate() {
        x[o] = z[i].to_bits();
    }
    x
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn rhs(n: usize, c: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 7 + c * 13) % 17) as f64 * 0.25 - 2.0)
        .collect()
}

/// Every engine, single RHS and panels, against the reference.
fn check(f: &IluFactors<f64>, label: &str) {
    let n = f.n();
    let b = rhs(n, 0);
    let want = reference(f, &b);
    let mut buf = Vec::new();
    for engine in ENGINES {
        let mut x = vec![0.0; n];
        f.solve_with(engine, &b, &mut x).unwrap();
        assert_eq!(bits(&x), want, "{label}: {engine:?} solve_with");
        x.fill(0.0);
        f.solve_with_buffer(engine, &mut buf, &b, &mut x).unwrap();
        assert_eq!(bits(&x), want, "{label}: {engine:?} solve_with_buffer");
    }
    for k in [1usize, 3, 4, 8] {
        let data: Vec<f64> = (0..k).flat_map(|c| rhs(n, c)).collect();
        let wants: Vec<Vec<u64>> = (0..k)
            .map(|c| reference(f, &data[c * n..(c + 1) * n]))
            .collect();
        for engine in ENGINES {
            let mut out = vec![0.0; n * k];
            f.solve_panel_with(
                engine,
                Panel::new(&data, n, k),
                PanelMut::new(&mut out, n, k),
            )
            .unwrap();
            for (c, w) in wants.iter().enumerate() {
                assert_eq!(
                    &bits(&out[c * n..(c + 1) * n]),
                    w,
                    "{label}: {engine:?} panel k={k} column {c}"
                );
            }
        }
    }
}

/// `a` plus one isolated row/column whose only entry is a zero
/// diagonal: no update ever reaches that pivot, so the first numeric
/// attempt must break down there whatever the ordering.
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

#[test]
fn serial_sweeps_match_every_engine_bitwise_across_suite() {
    for meta in paper_suite() {
        let a = meta.build_tiny();
        let name = meta.name;
        let sym = SymbolicIlu::analyze(&a, &opts()).unwrap();
        let mut f = sym.factor(&a).unwrap();
        check(&f, &format!("{name} factor"));

        f.refactor(&revalue(&a, 0.61, 0.05)).unwrap();
        check(&f, &format!("{name} refactor"));

        f.refactor_with_shift(&revalue(&a, 1.3, 0.05), 1e-3)
            .unwrap();
        check(&f, &format!("{name} refactor_with_shift"));

        let corners: Vec<CsrMatrix<f64>> = (0..3)
            .map(|c| revalue(&a, 0.3 + c as f64 * 0.77, 0.05))
            .collect();
        let mats: Vec<&CsrMatrix<f64>> = corners.iter().collect();
        let mut batch = sym.factor_batch(&mats).unwrap();
        let next: Vec<CsrMatrix<f64>> = corners.iter().map(|m| revalue(m, 2.1, 0.05)).collect();
        let next_refs: Vec<&CsrMatrix<f64>> = next.iter().collect();
        batch.refactor_batch(&next_refs).unwrap();
        assert!(batch.all_ok(), "{name}: batch statuses");
        for c in 0..batch.k() {
            check(batch.factor(c), &format!("{name} refactor_batch lane {c}"));
        }

        let sing = with_zero_pivot_row(&a);
        let sym_sr = SymbolicIlu::analyze(
            &sing,
            &opts().with_zero_pivot(ZeroPivotPolicy::shift_retry()),
        )
        .unwrap();
        let mut f_sr = sym_sr.factor(&sing).unwrap();
        f_sr.refactor(&sing).unwrap();
        assert!(f_sr.stats().shift_attempts >= 2, "{name}: no recovery ran");
        check(&f_sr, &format!("{name} shift-retry refactor"));
    }
}
