//! Pieces every workload shares: run settings, the per-operation
//! record, the correctness oracle, end-to-end metrics and the computed
//! traffic of the two sparse kernels.

use crate::inputs::Sizes;
use crate::report::{median, percentile, Metrics, END_TO_END};
use javelin::solver::{Method, SolverOptions, SolverResult};
use javelin::sparse::CsrMatrix;
use std::hint::black_box;
use std::time::Instant;

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub sizes: Sizes,
}

/// The tolerance every workload solves to (the paper's 1e-6).
pub const TOL: f64 = 1e-6;

/// Krylov controls shared by every workload: GMRES(50), tolerance 1e-6.
pub fn solver_options() -> SolverOptions {
    SolverOptions {
        tol: TOL,
        restart: 50,
        ..SolverOptions::default()
    }
}

/// One solve, step or request as the oracle saw it.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub latency_s: f64,
    pub iterations: usize,
    pub ok: bool,
}

/// Operations that failed.
pub fn failed(ops: &[OpRecord]) -> u64 {
    ops.iter().filter(|o| !o.ok).count() as u64
}

/// Krylov iterations summed over `ops`.
pub fn iterations(ops: &[OpRecord]) -> usize {
    ops.iter().map(|o| o.iterations).sum()
}

/// Median latency of `ops`.
pub fn latency_p50(ops: &[OpRecord]) -> f64 {
    median(&mut ops.iter().map(|o| o.latency_s).collect::<Vec<_>>())
}

/// True relative residual `‖b − A·x‖ / ‖b‖`, recomputed from scratch.
pub fn true_relres(a: &CsrMatrix<f64>, b: &[f64], x: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    a.spmv_into(x, &mut ax);
    let r: f64 = b.iter().zip(&ax).map(|(bi, yi)| (bi - yi).powi(2)).sum();
    let bn: f64 = b.iter().map(|v| v * v).sum();
    (r / bn).sqrt()
}

/// The oracle's verdict on one answer: converged, and the recomputed
/// residual meets the tolerance. The drivers stop on their own
/// residual estimate, which can sit a rounding error away from the true
/// one, hence the 1% allowance.
pub fn answer_ok(res: &SolverResult, a: &CsrMatrix<f64>, b: &[f64], x: &[f64]) -> bool {
    res.converged && true_relres(a, b, x) <= TOL * 1.01
}

/// Times one call of `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// `setup_s`: the median of `first` (the set-up whose result the
/// measured loop used) and `reps - 1` more set-ups timed back to back,
/// each dropped before the next starts. Call it after the loop, once
/// `peak_rss_mb` is read and the loop's objects are dropped, so the
/// repetitions add neither to the loop's time nor to its peak memory.
pub fn setup_median<R>(first: f64, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times = vec![first];
    for _ in 1..reps {
        let (t, r) = timed(&mut f);
        drop(black_box(r));
        times.push(t);
    }
    median(&mut times)
}

/// End-to-end metrics of a run. Goodput counts the operations that
/// passed the oracle within `limit_s`, per second of `busy_s`: summed
/// operation latency for a closed loop, the span from the first due
/// time to the last reply for an open one. `peak_rss_mb` is read when
/// the measured loop ends.
pub fn end_to_end(
    setup_s: f64,
    ops: &[OpRecord],
    tail_p: f64,
    limit_s: f64,
    busy_s: f64,
    peak_rss_mb: f64,
) -> Metrics {
    let mut lat: Vec<f64> = ops.iter().map(|o| o.latency_s).collect();
    let good = ops
        .iter()
        .filter(|o| o.ok && o.latency_s <= limit_s)
        .count();
    let mut m = Metrics::new(&END_TO_END);
    m.set("setup_s", setup_s);
    m.set("latency_s.p50", median(&mut lat));
    m.set("latency_s.tail", percentile(&mut lat, tail_p));
    m.set("goodput_rps", good as f64 / busy_s.max(f64::MIN_POSITIVE));
    m.set("peak_rss_mb", peak_rss_mb);
    m
}

/// Median time of one `spmv_into` on `a`, over `reps` direct calls.
pub fn time_matvec(a: &CsrMatrix<f64>, reps: usize) -> f64 {
    let x = vec![1.0; a.ncols()];
    let mut y = vec![0.0; a.nrows()];
    let mut t = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        a.spmv_into(black_box(&x), &mut y);
        black_box(&mut y);
        t.push(t0.elapsed().as_secs_f64());
    }
    median(&mut t)
}

const IDX: usize = std::mem::size_of::<usize>();
const VAL: usize = std::mem::size_of::<f64>();

/// Computed bytes one ILU apply moves: every LU entry (value + column
/// index) once, row pointers, diagonal positions, the permutation in
/// and out, and eight n-vector passes (permute in: read + write;
/// forward and backward in place: read + write each; permute out:
/// read + write). Cache misses are not modelled.
pub fn apply_bytes(n: usize, nnz_lu: usize) -> f64 {
    (nnz_lu * (VAL + IDX) + (n + 1) * IDX + n * IDX + 2 * n * IDX + 8 * n * VAL) as f64
}

/// Computed bytes one CSR matvec moves: every entry (value + column
/// index) once, row pointers, `x` read once and `y` written once.
pub fn matvec_bytes(n: usize, nnz_a: usize) -> f64 {
    (nnz_a * (VAL + IDX) + (n + 1) * IDX + 2 * n * VAL) as f64
}

/// Computed working set of a solve, in MB: the matrix and the factors
/// (entries, row pointers, diagonal positions, permutation) plus
/// `vectors` n-vectors of Krylov state.
pub fn working_set_mb(n: usize, nnz_a: usize, nnz_lu: usize, vectors: usize) -> f64 {
    let matrix = nnz_a * (VAL + IDX) + (n + 1) * IDX;
    let factors = nnz_lu * (VAL + IDX) + (n + 1) * IDX + 2 * n * IDX;
    (matrix + factors + vectors * n * VAL) as f64 / 1e6
}

/// One Krylov solve of a traced run, split by the wrapper's apply spans.
#[derive(Debug, Clone, Copy)]
pub struct TracedSolve {
    pub krylov_s: f64,
    pub apply_s: f64,
    pub applies: usize,
    pub matvecs: usize,
}

/// Matvecs a converged solve performed, from the drivers' structure:
/// PCG does one per iteration plus the initial residual; GMRES does one
/// per iteration plus one residual per restart cycle, and also one
/// apply per iteration plus one solution update per cycle, so its
/// matvecs equal its applies.
pub fn matvecs(method: Method, iterations: usize, applies: usize) -> usize {
    match method {
        Method::Pcg => iterations + 1,
        _ => applies,
    }
}

/// Fills the trisolve, spmv and krylov layer metrics from traced solves:
/// apply times are measured, matvec times are direct calls on `a`
/// multiplied by the matvec count (computed).
pub fn krylov_layers(
    m: &mut Metrics,
    solves: &[TracedSolve],
    apply_spans: &mut [f64],
    a: &CsrMatrix<f64>,
    nnz_lu: usize,
) {
    let n = a.nrows();
    let matvec_s = time_matvec(a, 50);
    let krylov: f64 = solves.iter().map(|s| s.krylov_s).sum();
    let applied: f64 = solves.iter().map(|s| s.apply_s).sum();
    let apply_p50 = median(apply_spans);
    let mut other: Vec<f64> = solves
        .iter()
        .map(|s| s.krylov_s - s.apply_s - s.matvecs as f64 * matvec_s)
        .collect();
    m.set("trisolve.apply_s.p50", apply_p50);
    m.set(
        "trisolve.applies",
        solves.iter().map(|s| s.applies).sum::<usize>() as f64,
    );
    m.set(
        "trisolve.time_share",
        applied / krylov.max(f64::MIN_POSITIVE),
    );
    m.set(
        "trisolve.gbps_computed",
        apply_bytes(n, nnz_lu) / apply_p50.max(f64::MIN_POSITIVE) / 1e9,
    );
    m.set("spmv.matvec_s.p50", matvec_s);
    m.set(
        "spmv.matvecs",
        solves.iter().map(|s| s.matvecs).sum::<usize>() as f64,
    );
    m.set(
        "spmv.gbps_computed",
        matvec_bytes(n, a.nnz()) / matvec_s.max(f64::MIN_POSITIVE) / 1e9,
    );
    m.set("krylov.other_s", median(&mut other));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_formulas_count_entries_indices_and_vectors() {
        assert_eq!(matvec_bytes(10, 30), (30 * 16 + 11 * 8 + 2 * 10 * 8) as f64);
        assert_eq!(
            apply_bytes(10, 30),
            (30 * 16 + 11 * 8 + 10 * 8 + 2 * 10 * 8 + 8 * 10 * 8) as f64
        );
    }

    #[test]
    fn oracle_recomputes_the_residual() {
        let a = javelin::synth::grid::laplace_2d(4, 4);
        let x = vec![1.0; 16];
        let mut b = vec![0.0; 16];
        a.spmv_into(&x, &mut b);
        assert_eq!(true_relres(&a, &b, &x), 0.0);
        let res = SolverResult {
            converged: true,
            ..SolverResult::default()
        };
        assert!(answer_ok(&res, &a, &b, &x));
        assert!(!answer_ok(&res, &a, &b, &[0.0; 16]));
    }
}
