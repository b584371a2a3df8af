//! `circuit_transient`: the nonsymmetric transient-circuit matrix after
//! the paper's DM + ND preorder, in a serial session. Each step drifts
//! the values (generated outside the timed region), refactors and runs
//! GMRES(50) warm-started from the previous step: the only workload
//! where numeric refactor (writes) alternates with applies (reads).
//!
//! The traced run replays the same steps on a two-thread team with the
//! default trisolve engine, so `sync` and the engine default show up as
//! the gap to the serial steps. That configuration is reported, not
//! timed end to end: on a host whose second core is shared, its step
//! time moved 40% (IQR over median) between runs minutes apart, while
//! the serial steps stay within the host's own noise.

use crate::common::{
    answer_ok, end_to_end, failed, iterations, krylov_layers, latency_p50, matvecs, setup_median,
    solver_options, timed, OpRecord, RunCfg, TracedSolve,
};
use crate::inputs::{drifted, rhs};
use crate::machine::peak_rss_mb;
use crate::report::{median, tail_percentile, Metrics, Outcome, GOODPUT_LIMIT_S, PER_LAYER};
use crate::trace::{TimedPrecond, Tracer};
use javelin::core::{ApplyScratch, Preconditioner};
use javelin::prelude::*;
use javelin::solver::krylov_with;
use javelin_bench::harness::preorder_dm_nd;
use std::time::Instant;

/// Preorder + session builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Worker threads of the reference team in the traced run.
const TEAM_THREADS: usize = 2;

/// `.tail` percentile: the highest with ten samples beyond it at the
/// step count a full-length run makes (see `tail_percentile`).
pub const TAIL_P: f64 = 90.0;

fn builder(threads: usize) -> SessionBuilder {
    Session::builder()
        .nthreads(threads)
        .solver_options(solver_options())
}

/// Matrix in hand → ready to solve: the preorder and a serial session.
fn set_up(raw: &CsrMatrix<f64>) -> (CsrMatrix<f64>, Session<f64>) {
    let a = preorder_dm_nd(raw);
    let session = builder(1).build(&a).expect("ILU(0) of the circuit matrix");
    (a, session)
}

/// Solves the undrifted system from zero (untimed warm-up), then runs
/// steps 1, 2, … until `seconds` pass (at least one) or `limit` are
/// done.
fn step_loop(
    session: &mut Session<f64>,
    base: &CsrMatrix<f64>,
    seed: u64,
    seconds: f64,
    limit: usize,
) -> Vec<OpRecord> {
    let n = base.nrows();
    let b = rhs(n, seed, 0);
    let mut x = vec![0.0; n];
    let _ = session.krylov(Method::Gmres, &b, &mut x);
    let start = Instant::now();
    let mut ops = Vec::new();
    while ops.len() < limit && (ops.is_empty() || start.elapsed().as_secs_f64() < seconds) {
        let a_t = drifted(base, seed, ops.len() as u64 + 1);
        let t = Instant::now();
        let res = session
            .refactor(&a_t)
            .and_then(|()| session.krylov(Method::Gmres, &b, &mut x));
        let latency_s = t.elapsed().as_secs_f64();
        ops.push(match res {
            Ok(r) => OpRecord {
                latency_s,
                iterations: r.iterations,
                ok: answer_ok(&r, &a_t, &b, &x),
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
    let raw = cfg.sizes.circuit();
    let (first_setup_s, (a, mut session)) = timed(|| set_up(&raw));
    drop(raw);
    let ops = step_loop(&mut session, &a, cfg.seed, cfg.seconds, usize::MAX);
    let peak = peak_rss_mb();
    let engine = session.engine();
    drop(session);
    let raw = cfg.sizes.circuit();
    let setup_s = setup_median(first_setup_s, SETUP_REPS, || set_up(&raw));
    let busy: f64 = ops.iter().map(|o| o.latency_s).sum();
    Outcome {
        attempted: ops.len() as u64,
        failed: failed(&ops),
        correct: true,
        metrics: end_to_end(setup_s, &ops, TAIL_P, GOODPUT_LIMIT_S, busy, peak),
        notes: vec![
            ("rows".into(), a.nrows().to_string()),
            ("nnz".into(), a.nnz().to_string()),
            ("engine".into(), engine.to_string()),
            ("steps".into(), ops.len().to_string()),
            ("iterations".into(), iterations(&ops).to_string()),
            ("tail_percentile".into(), TAIL_P.to_string()),
            (
                "tail_percentile_by_rule".into(),
                tail_percentile(ops.len()).to_string(),
            ),
        ],
    }
}

/// The traced run: an untraced pass, the same steps replayed through
/// the layers' public calls with spans around each, then the same steps
/// on a two-thread team with its default engine (reported, not gated).
pub fn run_traced(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let raw = cfg.sizes.circuit();
    let (a, _) = tracer.span("preorder", 0, None, || preorder_dm_nd(&raw));
    drop(raw);
    let n = a.nrows();
    let untraced = {
        let mut session = builder(1).build(&a).expect("ILU(0) of the circuit matrix");
        step_loop(&mut session, &a, cfg.seed, cfg.seconds * 0.3, usize::MAX)
    };
    let steps = untraced.len();

    let opts = IluOptions::ilu0(1);
    let (sym, _) = tracer.span("analyze", 0, None, || {
        SymbolicIlu::analyze(&a, &opts).expect("analysis of the circuit matrix")
    });
    let (mut factors, _) = tracer.span("factor", 0, None, || {
        sym.factor(&a).expect("ILU(0) of the circuit matrix")
    });
    let engine = factors.default_engine();
    let solver = solver_options();
    let mut ws = SolverWorkspace::new();
    let mut a_cur = a.clone();
    let b = rhs(n, cfg.seed, 0);
    let mut x = vec![0.0; n];
    let _ = krylov_with(
        Method::Gmres,
        &a_cur,
        &b,
        &mut x,
        &factors.with_engine(engine),
        &solver,
        &mut ws,
    );
    let mut traced = Vec::with_capacity(steps);
    let mut solves = Vec::with_capacity(steps);
    for i in 1..=steps as u64 {
        let a_t = drifted(&a, cfg.seed, i);
        let step = tracer.open("step", i, None);
        let (refactored, _) = tracer.span("refactor", i, Some(step), || factors.refactor(&a_t));
        a_cur.vals_mut().copy_from_slice(a_t.vals());
        let pre = TimedPrecond::new(factors.with_engine(engine), tracer);
        let (res, k) = tracer.span("krylov", i, Some(step), || {
            krylov_with(Method::Gmres, &a_cur, &b, &mut x, &pre, &solver, &mut ws)
        });
        let latency_s = tracer.close(step);
        let applies = pre.drain(i, k);
        solves.push(TracedSolve {
            krylov_s: tracer.spans()[k].secs(),
            apply_s: applies.iter().map(|s| s.secs()).sum(),
            applies: applies.len(),
            matvecs: matvecs(Method::Gmres, res.iterations, applies.len()),
        });
        applies.into_iter().for_each(|s| tracer.push(s));
        traced.push(OpRecord {
            latency_s,
            iterations: res.iterations,
            ok: refactored.is_ok() && answer_ok(&res, &a_cur, &b, &x),
        });
    }

    // The same steps on a two-thread team with its default engine, and
    // its applies timed directly.
    let mut team = builder(TEAM_THREADS)
        .build(&a)
        .expect("ILU(0) of the circuit matrix");
    let reference = step_loop(&mut team, &a, cfg.seed, f64::INFINITY, steps);
    let team_engine = team.engine();
    let pinned = team.factors().with_engine(team_engine);
    let mut scratch = ApplyScratch::new();
    let mut z = vec![0.0; n];
    let mut team_apply = Vec::with_capacity(20);
    for _ in 0..20 {
        let t = Instant::now();
        pinned.apply_with(&mut scratch, &b, &mut z);
        team_apply.push(t.elapsed().as_secs_f64());
    }

    let mut m = Metrics::new(&PER_LAYER);
    let st = sym.stats();
    m.set("order.preorder_s", tracer.durations("preorder")[0]);
    m.set("symbolic.analyze_s", tracer.durations("analyze")[0]);
    m.set("symbolic.fill_s", st.t_symbolic.as_secs_f64());
    m.set("symbolic.schedule_s", st.t_analysis.as_secs_f64());
    m.set("symbolic.levels", st.n_levels as f64);
    m.set("symbolic.nnz_lu", st.nnz_lu as f64);
    m.set("numeric.factor_s", tracer.durations("factor")[0]);
    m.set(
        "numeric.refactor_s.p50",
        median(&mut tracer.durations("refactor")),
    );
    krylov_layers(
        &mut m,
        &solves,
        &mut tracer.durations("apply"),
        &a_cur,
        factors.stats().nnz_lu,
    );
    m.set("trisolve.team_apply_s", median(&mut team_apply));
    m.set("krylov.iterations", iterations(&traced) as f64);
    m.set("ref.team_step_s.p50", latency_p50(&reference));
    m.set(
        "trace.overhead_ratio",
        latency_p50(&traced) / latency_p50(&untraced),
    );
    let same_iterations = iterations(&traced) == iterations(&untraced)
        && iterations(&reference) == iterations(&untraced);
    Outcome {
        attempted: (untraced.len() + traced.len() + reference.len()) as u64,
        failed: failed(&untraced) + failed(&traced) + failed(&reference),
        correct: same_iterations,
        metrics: m,
        notes: vec![
            ("team_engine".into(), team_engine.to_string()),
            ("steps_per_pass".into(), steps.to_string()),
            (
                "untraced_iterations".into(),
                iterations(&untraced).to_string(),
            ),
            ("team_iterations".into(), iterations(&reference).to_string()),
            (
                "working_set_mb_computed".into(),
                crate::common::working_set_mb(
                    n,
                    a.nnz(),
                    factors.stats().nnz_lu,
                    solver.restart + 6,
                )
                .to_string(),
            ),
        ],
    }
}
