//! `poisson3d_pcg`: one serial session on the 3-D 7-point Laplace
//! matrix, then a seeded sequence of right-hand sides, each solved from
//! zero by PCG. The serial trisolve and SpMV kernels do most of the
//! work; the factor runs once and no panels, team or service are
//! involved, so this is the "no change" control for those layers.

use crate::common::{
    answer_ok, end_to_end, failed, iterations, krylov_layers, latency_p50, matvecs, setup_median,
    solver_options, timed, OpRecord, RunCfg, TracedSolve,
};
use crate::inputs::rhs;
use crate::machine::peak_rss_mb;
use crate::report::{tail_percentile, Metrics, Outcome, GOODPUT_LIMIT_S, PER_LAYER};
use crate::trace::{TimedPrecond, Tracer};
use javelin::prelude::*;
use javelin::solver::krylov_with;
use std::time::Instant;

/// Session builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// `.tail` percentile: the highest with ten samples beyond it at the
/// solve count a full-length run makes (see `tail_percentile`).
pub const TAIL_P: f64 = 75.0;

fn builder() -> SessionBuilder {
    Session::builder()
        .nthreads(1)
        .solver_options(solver_options())
}

/// Solves right-hand side 0, 1, … from zero until `seconds` pass (at
/// least one).
fn solve_loop(session: &mut Session<f64>, seed: u64, seconds: f64) -> Vec<OpRecord> {
    let n = session.matrix().nrows();
    let start = Instant::now();
    let mut ops = Vec::new();
    while ops.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let b = rhs(n, seed, ops.len() as u64);
        let mut x = vec![0.0; n];
        let t = Instant::now();
        let res = session.krylov(Method::Pcg, &b, &mut x);
        let latency_s = t.elapsed().as_secs_f64();
        ops.push(match res {
            Ok(r) => OpRecord {
                latency_s,
                iterations: r.iterations,
                ok: answer_ok(&r, session.matrix(), &b, &x),
            },
            Err(_) => OpRecord {
                latency_s,
                iterations: 0,
                ok: false,
            },
        });
    }
    ops
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &RunCfg) -> Outcome {
    let a = cfg.sizes.poisson();
    let (first_setup_s, session) = timed(|| builder().build(&a));
    let mut session = session.expect("ILU(0) of the Laplace matrix");
    let ops = solve_loop(&mut session, cfg.seed, cfg.seconds);
    let peak = peak_rss_mb();
    drop(session);
    let setup_s = setup_median(first_setup_s, SETUP_REPS, || builder().build(&a));
    let busy: f64 = ops.iter().map(|o| o.latency_s).sum();
    Outcome {
        attempted: ops.len() as u64,
        failed: failed(&ops),
        correct: true,
        metrics: end_to_end(setup_s, &ops, TAIL_P, GOODPUT_LIMIT_S, busy, peak),
        notes: vec![
            ("rows".into(), a.nrows().to_string()),
            ("nnz".into(), a.nnz().to_string()),
            ("solves".into(), ops.len().to_string()),
            ("iterations".into(), iterations(&ops).to_string()),
            ("tail_percentile".into(), TAIL_P.to_string()),
            (
                "tail_percentile_by_rule".into(),
                tail_percentile(ops.len()).to_string(),
            ),
        ],
    }
}

/// The traced run: an untraced pass, then the same solves replayed
/// through the layers' public calls with spans around each.
pub fn run_traced(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let a = cfg.sizes.poisson();
    let n = a.nrows();
    let untraced = {
        let mut session = builder().build(&a).expect("ILU(0) of the Laplace matrix");
        solve_loop(&mut session, cfg.seed, cfg.seconds / 2.0)
    };

    let opts = IluOptions::ilu0(1);
    let (sym, _) = tracer.span("analyze", 0, None, || {
        SymbolicIlu::analyze(&a, &opts).expect("analysis of the Laplace matrix")
    });
    let (factors, _) = tracer.span("factor", 0, None, || {
        sym.factor(&a).expect("ILU(0) of the Laplace matrix")
    });
    let solver = solver_options();
    let mut ws = SolverWorkspace::new();
    let pre = TimedPrecond::new(factors.with_engine(factors.default_engine()), tracer);
    let mut traced = Vec::with_capacity(untraced.len());
    let mut solves = Vec::with_capacity(untraced.len());
    for i in 0..untraced.len() as u64 {
        let b = rhs(n, cfg.seed, i);
        let mut x = vec![0.0; n];
        let (res, k) = tracer.span("krylov", i, None, || {
            krylov_with(Method::Pcg, &a, &b, &mut x, &pre, &solver, &mut ws)
        });
        let applies = pre.drain(i, k);
        let krylov_s = tracer.spans()[k].secs();
        solves.push(TracedSolve {
            krylov_s,
            apply_s: applies.iter().map(|s| s.secs()).sum(),
            applies: applies.len(),
            matvecs: matvecs(Method::Pcg, res.iterations, applies.len()),
        });
        applies.into_iter().for_each(|s| tracer.push(s));
        traced.push(OpRecord {
            latency_s: krylov_s,
            iterations: res.iterations,
            ok: answer_ok(&res, &a, &b, &x),
        });
    }

    let mut m = Metrics::new(&PER_LAYER);
    let st = sym.stats();
    m.set("symbolic.analyze_s", tracer.durations("analyze")[0]);
    m.set("symbolic.fill_s", st.t_symbolic.as_secs_f64());
    m.set("symbolic.schedule_s", st.t_analysis.as_secs_f64());
    m.set("symbolic.levels", st.n_levels as f64);
    m.set("symbolic.nnz_lu", st.nnz_lu as f64);
    m.set("numeric.factor_s", tracer.durations("factor")[0]);
    krylov_layers(
        &mut m,
        &solves,
        &mut tracer.durations("apply"),
        &a,
        factors.stats().nnz_lu,
    );
    m.set("krylov.iterations", iterations(&traced) as f64);
    m.set(
        "trace.overhead_ratio",
        latency_p50(&traced) / latency_p50(&untraced),
    );
    Outcome {
        attempted: (untraced.len() + traced.len()) as u64,
        failed: failed(&untraced) + failed(&traced),
        correct: iterations(&traced) == iterations(&untraced),
        metrics: m,
        notes: vec![
            ("solves_per_pass".into(), untraced.len().to_string()),
            (
                "untraced_iterations".into(),
                iterations(&untraced).to_string(),
            ),
            (
                "working_set_mb_computed".into(),
                crate::common::working_set_mb(n, a.nnz(), factors.stats().nnz_lu, 6).to_string(),
            ),
        ],
    }
}
