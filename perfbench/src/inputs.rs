//! Every input the benchmark hands the program, generated from the
//! workload seed. Matrices are fixed per workload (their generator
//! seeds are constants), so a new run seed changes right-hand sides and
//! values but never the problem being solved. The service's arrival
//! trace is fixed too (see `service`).

use javelin::sparse::CsrMatrix;
use javelin::synth::{circuit, grid, util};

/// SplitMix64 step: a well-mixed 64-bit value from `x`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of the `i`-th item of stream `stream` in run `seed`.
pub fn item_seed(seed: u64, stream: u64, i: u64) -> u64 {
    mix(mix(seed ^ mix(stream)) ^ i)
}

/// Uniform draw in `[0, 1)` from a 64-bit seed.
pub fn unit(seed: u64) -> f64 {
    (mix(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// Right-hand side number `i` of a run: one seeded column of
/// `util::rhs_panel`.
pub fn rhs(n: usize, seed: u64, i: u64) -> Vec<f64> {
    util::rhs_panel(n, 1, item_seed(seed, 1, i))
}

/// The drift parameter `util::revalue` applies at step or request `i`.
pub fn drift(seed: u64, i: u64) -> f64 {
    0.3 + 3.0 * unit(item_seed(seed, 2, i))
}

/// Relative amplitude of every value drift: small enough that drifted
/// matrices stay diagonally dominant.
pub const DRIFT_AMPLITUDE: f64 = 0.02;

/// `a` with the values of step or request `i`.
pub fn drifted(a: &CsrMatrix<f64>, seed: u64, i: u64) -> CsrMatrix<f64> {
    util::revalue(a, drift(seed, i), DRIFT_AMPLITUDE)
}

/// Largest relative diagonal boost of a fresh-values service request.
pub const SHIFT_MAX: f64 = 0.1;

/// `a` with the values of service request `i`: every diagonal entry
/// scaled by the same seeded factor in `[1, 1 + SHIFT_MAX)`, as an
/// implicit time stepper with a varying step sends them. The pattern
/// and the conditioning class stay those of `a`.
pub fn shifted(a: &CsrMatrix<f64>, seed: u64, i: u64) -> CsrMatrix<f64> {
    let scale = 1.0 + SHIFT_MAX * unit(item_seed(seed, 5, i));
    let mut m = a.clone();
    let diag = a
        .diag_positions()
        .expect("service matrices have a full diagonal");
    for p in diag {
        m.vals_mut()[p] *= scale;
    }
    m
}

/// An open-loop arrival trace over `[0, seconds)`: `counts[t]` events
/// for tenant `t`, in a seeded shuffled order, one event per equal slot
/// of the window at a uniformly drawn point inside its slot. Returned
/// as `(time, tenant)` in time order. Smoother than Poisson arrivals:
/// events never bunch beyond one per slot, so bursts of collisions that
/// build a backlog cannot occur.
pub fn slotted_arrivals(counts: &[usize], seconds: f64, seed: u64) -> Vec<(f64, usize)> {
    let mut tenants: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(t, &c)| std::iter::repeat_n(t, c))
        .collect();
    for i in (1..tenants.len()).rev() {
        let j = (unit(item_seed(seed, 3, i as u64)) * (i + 1) as f64) as usize;
        tenants.swap(i, j.min(i));
    }
    let slot = seconds / tenants.len().max(1) as f64;
    tenants
        .into_iter()
        .enumerate()
        .map(|(e, t)| ((e as f64 + unit(item_seed(seed, 4, e as u64))) * slot, t))
        .collect()
}

/// Problem sizes of every workload; `tiny` shrinks them for tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Poisson grid edge (cube of this many points per side).
    pub poisson_edge: usize,
    /// Circuit rows and the size of its strongly coupled core.
    pub circuit_rows: usize,
    pub circuit_core: usize,
    /// Service tenant grid edges: coalescing wins on the first, loses
    /// on the second, and the third carries fresh values per request.
    pub tenant_edges: [usize; 3],
}

impl Sizes {
    /// The measured sizes.
    pub const FULL: Sizes = Sizes {
        poisson_edge: 48,
        circuit_rows: 150_000,
        circuit_core: 60,
        tenant_edges: [64, 128, 96],
    };

    /// Sizes for the benchmark's own tests.
    pub const TINY: Sizes = Sizes {
        poisson_edge: 8,
        circuit_rows: 2_000,
        circuit_core: 12,
        tenant_edges: [10, 14, 12],
    };

    /// 3-D 7-point Laplace matrix.
    pub fn poisson(&self) -> CsrMatrix<f64> {
        let e = self.poisson_edge;
        grid::laplace_3d(e, e, e)
    }

    /// Nonsymmetric transient-circuit matrix before preordering.
    pub fn circuit(&self) -> CsrMatrix<f64> {
        circuit::transient_circuit(self.circuit_rows, self.circuit_core, false, 0xc12c)
    }

    /// Convection–diffusion matrix of tenant `t`.
    pub fn tenant(&self, t: usize) -> CsrMatrix<f64> {
        let e = self.tenant_edges[t];
        grid::convection_diffusion_2d(e, e, 0.4, 0.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>) -> bool {
        a.rowptr() == b.rowptr()
            && a.colidx() == b.colidx()
            && a.vals()
                .iter()
                .zip(b.vals())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn matrices_do_not_depend_on_the_run_seed() {
        let s = Sizes::TINY;
        assert!(same(&s.poisson(), &s.poisson()));
        assert!(same(&s.circuit(), &s.circuit()));
        for t in 0..3 {
            assert!(same(&s.tenant(t), &s.tenant(t)));
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = Sizes::TINY.tenant(2);
        assert_eq!(rhs(50, 7, 3), rhs(50, 7, 3));
        assert!(same(&drifted(&a, 7, 3), &drifted(&a, 7, 3)));
        assert!(same(&shifted(&a, 7, 3), &shifted(&a, 7, 3)));
        assert_eq!(
            slotted_arrivals(&[5, 9, 3], 2.0, 7),
            slotted_arrivals(&[5, 9, 3], 2.0, 7)
        );
    }

    #[test]
    fn new_seed_changes_rhs_drift_and_arrivals() {
        let a = Sizes::TINY.tenant(2);
        assert_ne!(rhs(50, 7, 3), rhs(50, 8, 3));
        assert_ne!(rhs(50, 7, 3), rhs(50, 7, 4));
        assert!(!same(&drifted(&a, 7, 3), &drifted(&a, 8, 3)));
        assert!(!same(&shifted(&a, 7, 3), &shifted(&a, 8, 3)));
        let s = shifted(&a, 7, 3);
        assert_eq!((s.rowptr(), s.colidx()), (a.rowptr(), a.colidx()));
        assert_ne!(
            slotted_arrivals(&[5, 9, 3], 2.0, 7),
            slotted_arrivals(&[5, 9, 3], 2.0, 8)
        );
    }

    #[test]
    fn arrivals_fill_one_slot_each_with_the_exact_counts() {
        let e = slotted_arrivals(&[4, 7, 2], 2.6, 11);
        assert_eq!(e.len(), 13);
        for (k, &(t, _)) in e.iter().enumerate() {
            assert!(
                (k as f64 * 0.2..(k + 1) as f64 * 0.2).contains(&t),
                "{k}: {t}"
            );
        }
        for (tenant, count) in [(0, 4), (1, 7), (2, 2)] {
            assert_eq!(e.iter().filter(|x| x.1 == tenant).count(), count);
        }
        let order = |e: &[(f64, usize)]| e.iter().map(|x| x.1).collect::<Vec<_>>();
        let other = slotted_arrivals(&[4, 7, 2], 2.6, 12);
        assert_ne!(order(&e), order(&other), "the seed shuffles the tenants");
    }
}
