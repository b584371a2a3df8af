//! Sparse triangular solves (paper §VI) — the operation Javelin is
//! co-designed around: the factorization is computed once, but `stri`
//! runs thousands of times inside the Krylov loop.
//!
//! All engines solve **in place**: the buffer starts as the right-hand
//! side and finishes as the solution (classic substitution is safe in
//! place because each row reads its own slot before writing it and reads
//! dependency slots only after their final write).
//!
//! * [`serial`] — serial substitution on the factor's sweep layout
//!   (split L/U in sweep order, `u32` indices, permutation folded into
//!   the sweeps);
//! * [`engines`] — the three parallel engines of Fig. 12:
//!   barriered level sets (`CSR-LS`), point-to-point (`LS`), and
//!   point-to-point with the tiled lower-stage block (`LS + Lower`).

pub mod engines;
pub mod serial;
