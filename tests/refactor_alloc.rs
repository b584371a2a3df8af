//! Steady-state `refactor` performs **zero heap allocations**, and a
//! **first** `gmres_batch` solve through a reserved workspace
//! ([`SolverWorkspace::reserve`] + [`SolverWorkspace::reserve_gmres_basis`])
//! performs zero heap allocations too — the acceptance contracts of the
//! two-phase API and the lane-layer reserve path. A counting global
//! allocator wraps the system allocator; this file holds exactly one
//! test so no concurrent test can pollute the counters (worker-team
//! threads are counted too, which is the point: the planned numeric
//! path must not allocate on any thread).

use javelin::core::{
    ApplyScratch, IluFactors, IluOptions, Preconditioner, SolveEngine, SymbolicIlu, ZeroPivotPolicy,
};
use javelin::solver::{gmres_batch_into, SolverOptions, SolverResult, SolverWorkspace};
use javelin::sparse::{CooMatrix, CsrMatrix, Panel, PanelMut, SparseError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn snapshot() -> (usize, usize) {
    (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst))
}

/// Irregular matrix with a structural diagonal, two-stage-splittable.
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
    }
    coo.to_csr()
}

/// Same pattern, new values.
fn revalue(a: &CsrMatrix<f64>, seed: f64) -> CsrMatrix<f64> {
    javelin::synth::util::revalue(a, seed, 0.03)
}

#[test]
fn steady_state_refactor_allocates_zero_bytes() {
    // Threaded, with dropping enabled so the τ-threshold recomputation
    // path is exercised too; the persistent team is the default.
    let a = irregular(400);
    let mut opts = IluOptions::ilu0(3).with_fill(1).with_drop_tol(1e-4);
    opts.split.min_rows_per_level = 8;
    opts.split.location_frac = 0.0;
    let sym = SymbolicIlu::analyze(&a, &opts).expect("analysis");
    let mut factors = sym.factor(&a).expect("numeric phase");

    // Warm-up: the first refactor may lazily initialize process-global
    // state (parking-lot tables, thread parking) — after it, the path
    // must be exactly reusing preallocated buffers.
    let warm = revalue(&a, 0.37);
    factors.refactor(&warm).expect("warm-up refactor");
    factors
        .refactor(&revalue(&a, 0.71))
        .expect("second warm-up");

    for round in 0..5 {
        let a_t = revalue(&a, 1.1 + round as f64);
        // NOTE: `revalue` above allocates, so build the matrix first …
        let (allocs_mid, bytes_mid) = snapshot();
        // … and measure the refactor call alone.
        factors.refactor(&a_t).expect("steady-state refactor");
        let (allocs_after, bytes_after) = snapshot();
        assert_eq!(
            allocs_after - allocs_mid,
            0,
            "round {round}: steady-state refactor performed heap allocations"
        );
        assert_eq!(
            bytes_after - bytes_mid,
            0,
            "round {round}: steady-state refactor allocated bytes"
        );
        drop(a_t);
    }

    // And the refactored factors are still correct: bit-identical to a
    // fresh numeric factorization of the same values.
    let last = revalue(&a, 5.1);
    factors.refactor(&last).unwrap();
    let fresh = sym.factor(&last).unwrap();
    let rb: Vec<u64> = factors.lu().vals().iter().map(|v| v.to_bits()).collect();
    let fb: Vec<u64> = fresh.lu().vals().iter().map(|v| v.to_bits()).collect();
    assert_eq!(rb, fb);

    // ---- Phase 2: a FIRST `gmres_batch` solve through a reserved ----
    // workspace allocates zero bytes. `reserve` covers the lane panels
    // and the preconditioner scratch; `reserve_gmres_basis` opts into
    // the stacked Arnoldi basis — the one buffer `reserve` leaves lazy.
    let n = last.nrows();
    let k = 3usize;
    let opts_s = SolverOptions {
        restart: 20,
        ..Default::default()
    };
    let mut ws = SolverWorkspace::new();
    ws.reserve(n, opts_s.restart, k);
    ws.reserve_gmres_basis(n, opts_s.restart, k);
    factors.reserve_panel_width(k);
    let b: Vec<f64> = (0..n * k)
        .map(|i| ((i * 13 % 29) as f64) * 0.2 - 2.5)
        .collect();
    let mut x = vec![0.0; n * k];
    let mut results = vec![SolverResult::default(); k];
    let (allocs_mid, bytes_mid) = snapshot();
    gmres_batch_into(
        &last,
        Panel::new(&b, n, k),
        PanelMut::new(&mut x, n, k),
        &factors,
        &opts_s,
        &mut ws,
        &mut results,
    );
    let (allocs_after, bytes_after) = snapshot();
    assert_eq!(
        allocs_after - allocs_mid,
        0,
        "first reserved gmres_batch solve performed heap allocations"
    );
    assert_eq!(
        bytes_after - bytes_mid,
        0,
        "first reserved gmres_batch solve allocated bytes"
    );
    assert!(
        results.iter().all(|r| r.converged),
        "reserved gmres_batch must still converge: {results:?}"
    );

    // ---- Phase 3: shift-and-retry recovery reuses the planned ----
    // numeric path, so a steady-state refactor of a singular-but-
    // shiftable matrix (first attempt breaks down, second succeeds
    // with a diagonal boost) still allocates zero bytes.
    //
    // Row 0's only structural entry is a zero diagonal, and no other
    // row or column touches index 0 — so whatever ordering the
    // symbolic phase picks, no update ever lands on that pivot and
    // the first numeric attempt must collapse exactly there.
    let n3 = 200usize;
    let mut coo = CooMatrix::new(n3, n3);
    coo.push(0, 0, 0.0).unwrap();
    for i in 1..n3 {
        coo.push(i, i, 8.0 + i as f64 * 0.01).unwrap();
        if i >= 2 {
            coo.push(i, i - 1, -1.0).unwrap();
        }
        if i >= 8 {
            coo.push(i, i - 7, -0.5).unwrap();
        }
        if i + 3 < n3 {
            coo.push(i, i + 3, -0.25).unwrap();
        }
    }
    let a_sing = coo.to_csr();

    // Under the strict policy the same matrix is a hard error …
    let opts_err = IluOptions::ilu0(3).with_zero_pivot(ZeroPivotPolicy::Error);
    let sym_err = SymbolicIlu::analyze(&a_sing, &opts_err).expect("analysis (Error policy)");
    assert!(
        matches!(sym_err.factor(&a_sing), Err(SparseError::ZeroPivot { .. })),
        "Error policy must reject the singular matrix"
    );

    // … and under ShiftRetry it factors on the second attempt.
    let opts_sr = IluOptions::ilu0(3).with_zero_pivot(ZeroPivotPolicy::shift_retry());
    let sym_sr = SymbolicIlu::analyze(&a_sing, &opts_sr).expect("analysis (ShiftRetry)");
    let mut f_sr = sym_sr.factor(&a_sing).expect("shift-retry factor");
    assert_eq!(
        f_sr.stats().shift_attempts,
        2,
        "one breakdown + one shifted success"
    );
    assert!(
        f_sr.stats().diag_shift > 0.0,
        "final shift must be recorded"
    );

    // Warm up, then measure: the whole retry loop (reload values,
    // re-run the planned sweep with an escalated shift) must be
    // allocation-free.
    f_sr.refactor(&a_sing).expect("warm-up shifted refactor");
    f_sr.refactor(&a_sing).expect("second warm-up");
    let (allocs_mid, bytes_mid) = snapshot();
    f_sr.refactor(&a_sing)
        .expect("steady-state shifted refactor");
    let (allocs_after, bytes_after) = snapshot();
    assert_eq!(
        allocs_after - allocs_mid,
        0,
        "shift-retry refactor performed heap allocations"
    );
    assert_eq!(
        bytes_after - bytes_mid,
        0,
        "shift-retry refactor allocated bytes"
    );
    assert_eq!(f_sr.stats().shift_attempts, 2, "refactor retried once too");
    assert!(f_sr.stats().diag_shift > 0.0);
    assert!(
        f_sr.lu().vals().iter().all(|v| v.is_finite()),
        "shifted factors must be finite"
    );

    // ---- Phase 4: steady-state coalesced service dispatch is ----
    // allocation-free. A warmed `Engine::process` batch of eight
    // pattern-, value- and method-identical requests (a full width-8
    // fused panel: fingerprint memo hit, cache hit, no refactor, one
    // lockstep solve, scatter) must not touch the heap — request/reply
    // buffers are recycled across rounds exactly as a streaming client
    // would.
    let a4 = std::sync::Arc::new(irregular(300));
    let n4 = a4.nrows();
    let k4 = 8usize;
    let mut engine = javelin::service::Engine::new(javelin::service::EngineConfig::default());
    let mut requests: Vec<javelin::service::SolveRequest<f64>> = (0..k4)
        .map(|c| javelin::service::SolveRequest {
            a: std::sync::Arc::clone(&a4),
            b: (0..n4)
                .map(|i| ((i * 7 + c) % 23) as f64 * 0.1 - 1.0)
                .collect(),
            x: vec![0.0; n4],
            method: javelin::solver::Method::BatchGmres,
        })
        .collect();
    let mut replies: Vec<
        Result<javelin::service::SolveReply<f64>, javelin::service::ServiceError>,
    > = Vec::with_capacity(k4);
    // Two warm-up batches grow every engine-side buffer to its
    // steady-state footprint; requests are rebuilt from the replies'
    // recycled buffers between rounds (Arc::clone + Vec reuse only).
    for _warm in 0..2 {
        engine.process(&mut requests, &mut replies);
        for reply in replies.drain(..) {
            let reply = reply.expect("warm-up dispatch");
            assert!(reply.result.converged);
            requests.push(javelin::service::SolveRequest {
                a: std::sync::Arc::clone(&a4),
                b: reply.b,
                x: reply.x,
                method: javelin::solver::Method::BatchGmres,
            });
        }
    }
    let (allocs_mid, bytes_mid) = snapshot();
    engine.process(&mut requests, &mut replies);
    for reply in replies.drain(..) {
        let reply = reply.expect("steady-state dispatch");
        assert!(reply.result.converged);
        assert_eq!(reply.panel_width, k4);
        assert!(reply.symbolic_reused);
        requests.push(javelin::service::SolveRequest {
            a: std::sync::Arc::clone(&a4),
            b: reply.b,
            x: reply.x,
            method: javelin::solver::Method::BatchGmres,
        });
    }
    let (allocs_after, bytes_after) = snapshot();
    assert_eq!(
        allocs_after - allocs_mid,
        0,
        "steady-state coalesced service dispatch performed heap allocations"
    );
    assert_eq!(
        bytes_after - bytes_mid,
        0,
        "steady-state coalesced service dispatch allocated bytes"
    );
    let cs = engine.cache_stats();
    assert_eq!(cs.misses, 1, "one symbolic analysis across all rounds");
    assert_eq!(cs.refactors, 0, "identical values: no numeric refactor");

    // ---- Phase 5: steady-state `refactor_batch` is zero-alloc and ----
    // zero-spawn on the persistent team. The batch walks the schedule
    // once for k = 4 interleaved value sets; after the warm-up (which
    // grows nothing either — every buffer was sized by `factor_batch`),
    // each step must reuse the interleaved value buffer, the shared row
    // workspaces and the planned team regions verbatim.
    let a5 = irregular(300);
    let mut opts5 = IluOptions::ilu0(3).with_drop_tol(1e-4);
    opts5.split.min_rows_per_level = 8;
    opts5.split.location_frac = 0.0;
    let sym5 = SymbolicIlu::analyze(&a5, &opts5).expect("analysis (batch)");
    let k5 = 4usize;
    let corners: Vec<CsrMatrix<f64>> = (0..k5)
        .map(|c| revalue(&a5, 0.3 + c as f64 * 0.77))
        .collect();
    let mats: Vec<&CsrMatrix<f64>> = corners.iter().collect();
    let mut batch = sym5.factor_batch(&mats).expect("batch factor");
    assert!(batch.all_ok());
    // Warm-up rounds (parking-lot/thread-parking lazy init, as above).
    batch.refactor_batch(&mats).expect("warm-up refactor_batch");
    batch.refactor_batch(&mats).expect("second warm-up");
    for round in 0..5 {
        let corners_t: Vec<CsrMatrix<f64>> = (0..k5)
            .map(|c| revalue(&a5, 2.2 + round as f64 + c as f64 * 0.77))
            .collect();
        let mats_t: Vec<&CsrMatrix<f64>> = corners_t.iter().collect();
        // The corner assembly above allocates; measure the batched
        // refactor call alone.
        let (allocs_mid, bytes_mid) = snapshot();
        batch
            .refactor_batch(&mats_t)
            .expect("steady-state refactor_batch");
        let (allocs_after, bytes_after) = snapshot();
        assert_eq!(
            allocs_after - allocs_mid,
            0,
            "round {round}: steady-state refactor_batch performed heap allocations"
        );
        assert_eq!(
            bytes_after - bytes_mid,
            0,
            "round {round}: steady-state refactor_batch allocated bytes"
        );
        assert!(batch.all_ok(), "round {round}");
    }
    // And the batched columns are still exactly the scalar refactors.
    let mut scalar = sym5.factor(&a5).expect("scalar reference");
    let last_corners: Vec<CsrMatrix<f64>> = (0..k5)
        .map(|c| revalue(&a5, 9.9 + c as f64 * 0.77))
        .collect();
    let last_mats: Vec<&CsrMatrix<f64>> = last_corners.iter().collect();
    batch.refactor_batch(&last_mats).unwrap();
    for (c, m) in last_mats.iter().enumerate() {
        scalar.refactor(m).unwrap();
        let bb: Vec<u64> = batch
            .factor(c)
            .lu()
            .vals()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let sb: Vec<u64> = scalar.lu().vals().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bb, sb, "batched column {c} vs scalar refactor");
    }

    // ---- Phase 6: exclusive-slice kernels on a PINNED team. ----
    // `pin_threads` changes placement only (core binding + first-touch
    // zero-fill at analyze time); steady-state refactors and repeated
    // solves through the row-view (`LuVals::view_mut`) eliminate/retire
    // paths must stay allocation-free on the pinned team too.
    let a6 = irregular(300);
    let mut opts6 = IluOptions::ilu0(3);
    opts6.pin_threads = true;
    opts6.split.min_rows_per_level = 8;
    opts6.split.location_frac = 0.0;
    let sym6 = SymbolicIlu::analyze(&a6, &opts6).expect("analysis (pinned)");
    let mut f6 = sym6.factor(&a6).expect("pinned factor");
    let n6 = a6.nrows();
    let engine6 = f6.default_engine();
    let b6: Vec<f64> = (0..n6).map(|i| (i as f64 * 0.17).cos() + 2.0).collect();
    let mut x6 = vec![0.0; n6];
    let mut perm6: Vec<f64> = Vec::new();
    f6.refactor(&revalue(&a6, 0.4)).expect("warm-up refactor");
    f6.solve_with_buffer(engine6, &mut perm6, &b6, &mut x6)
        .expect("warm-up solve");
    f6.refactor(&revalue(&a6, 0.9)).expect("second warm-up");
    f6.solve_with_buffer(engine6, &mut perm6, &b6, &mut x6)
        .expect("second warm-up solve");
    let a6_t = revalue(&a6, 3.3);
    let (allocs_mid, bytes_mid) = snapshot();
    f6.refactor(&a6_t).expect("steady-state pinned refactor");
    f6.solve_with_buffer(engine6, &mut perm6, &b6, &mut x6)
        .expect("steady-state pinned solve");
    let (allocs_after, bytes_after) = snapshot();
    assert_eq!(
        allocs_after - allocs_mid,
        0,
        "pinned refactor+solve performed heap allocations"
    );
    assert_eq!(
        bytes_after - bytes_mid,
        0,
        "pinned refactor+solve allocated bytes"
    );

    // ---- Phase 7: the serial engine's sweeps (split L/U layout, ----
    // permutation folded in) apply allocation-free through the
    // caller's `ApplyScratch`, single vectors and panels alike, after a
    // `refactor` and after a `refactor_batch` — the commit that writes
    // the sweep values reuses their storage too.
    let k7 = 4usize;
    let r7: Vec<f64> = (0..n6 * k7).map(|i| (i as f64 * 0.23).sin()).collect();
    let mut z7 = vec![0.0; n6 * k7];
    let mut scratch7 = ApplyScratch::new();
    let mut serial_applies = |f: &IluFactors<f64>, scratch: &mut ApplyScratch<f64>| {
        let p = f.with_engine(SolveEngine::Serial);
        p.apply_with(scratch, &r7[..n6], &mut z7[..n6]);
        p.apply_panel_with(
            scratch,
            Panel::new(&r7, n6, k7),
            PanelMut::new(&mut z7, n6, k7),
        );
    };
    let mut z7b = vec![0.0; n6 * k7];
    serial_applies(&f6, &mut scratch7);
    for round in 0..3 {
        let a7 = revalue(&a6, 6.1 + round as f64);
        f6.refactor(&a7).expect("refactor before serial applies");
        let (allocs_mid, bytes_mid) = snapshot();
        serial_applies(&f6, &mut scratch7);
        let (allocs_after, bytes_after) = snapshot();
        assert_eq!(
            (allocs_after - allocs_mid, bytes_after - bytes_mid),
            (0, 0),
            "round {round}: serial applies after refactor allocated"
        );
    }
    let corners7: Vec<CsrMatrix<f64>> = (0..k7)
        .map(|c| revalue(&a6, 0.5 + c as f64 * 0.77))
        .collect();
    let mats7: Vec<&CsrMatrix<f64>> = corners7.iter().collect();
    let mut batch7 = sym6
        .factor_batch(&mats7)
        .expect("batch factor (serial applies)");
    serial_applies(batch7.factor(0), &mut scratch7);
    for round in 0..3 {
        let corners_t: Vec<CsrMatrix<f64>> = (0..k7)
            .map(|c| revalue(&a6, 7.3 + round as f64 + c as f64 * 0.77))
            .collect();
        let mats_t: Vec<&CsrMatrix<f64>> = corners_t.iter().collect();
        batch7.refactor_batch(&mats_t).expect("refactor_batch");
        assert!(batch7.all_ok(), "round {round}");
        let (allocs_mid, bytes_mid) = snapshot();
        for f in batch7.factors() {
            serial_applies(f, &mut scratch7);
        }
        batch7.precond(SolveEngine::Serial).apply_panel_with(
            &mut scratch7,
            Panel::new(&r7, n6, k7),
            PanelMut::new(&mut z7b, n6, k7),
        );
        let (allocs_after, bytes_after) = snapshot();
        assert_eq!(
            (allocs_after - allocs_mid, bytes_after - bytes_mid),
            (0, 0),
            "round {round}: serial applies after refactor_batch allocated"
        );
    }

    // ---- Phase 8: the scanning fallback. ----
    // A pattern above the update plan's size rule eliminates through
    // the per-participant row workspaces instead of the plan; their hit
    // buffers grow on the first sweeps and are then reused, so steady-
    // state refactors stay allocation-free at 1 and 2 threads.
    let a8 = irregular(300);
    for nthreads in [1usize, 2] {
        let mut opts8 = IluOptions::ilu0(nthreads).with_fill(3);
        opts8.split.min_rows_per_level = 8;
        opts8.split.location_frac = 0.0;
        let sym8 = SymbolicIlu::analyze(&a8, &opts8).expect("analysis (fallback)");
        assert_eq!(
            sym8.update_plan_bytes(),
            None,
            "pattern must be above the size rule"
        );
        let mut f8 = sym8.factor(&a8).expect("fallback factor");
        f8.refactor(&revalue(&a8, 0.45)).expect("warm-up refactor");
        f8.refactor(&revalue(&a8, 0.85)).expect("second warm-up");
        for round in 0..3 {
            let a8_t = revalue(&a8, 2.2 + round as f64);
            let (allocs_mid, bytes_mid) = snapshot();
            f8.refactor(&a8_t).expect("steady-state fallback refactor");
            let (allocs_after, bytes_after) = snapshot();
            assert_eq!(
                (allocs_after - allocs_mid, bytes_after - bytes_mid),
                (0, 0),
                "round {round}, {nthreads} threads: fallback refactor allocated"
            );
        }
    }
}
