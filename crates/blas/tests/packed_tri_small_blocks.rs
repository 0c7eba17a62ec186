//! The same checks with the cache blocking forced small (KC = 24, MC = 16,
//! NC = 40: MC does not divide KC, NC is no multiple of either), so shapes
//! of a few dozen run through several k-, row- and column-blocks: the
//! order in which an in-place `trmm` may overwrite what it has packed, and
//! the mask offsets of `herk`'s blocks, are exercised at every boundary.
//!
//! Alone in its binary: the blocking is read once per process.

mod tri_checks;

use polar_scalar::Complex64;

const HERK_SHAPES: [(usize, usize); 5] = [(7, 13), (24, 24), (25, 49), (65, 30), (97, 61)];
const TRMM_SHAPES: [(usize, usize); 6] = [(7, 13), (24, 16), (25, 41), (49, 7), (65, 30), (97, 45)];

#[test]
fn herk_and_trmm_across_many_small_blocks() {
    for (var, val) in [("POLAR_GEMM_KC", "24"), ("POLAR_GEMM_MC", "16"), ("POLAR_GEMM_NC", "40")] {
        std::env::set_var(var, val);
    }
    assert_eq!(polar_blas::params::gemm_params().kc, 24, "blocking was read before this test");
    tri_checks::sweep::<f64>(&HERK_SHAPES, &TRMM_SHAPES);
    tri_checks::sweep::<Complex64>(&HERK_SHAPES, &TRMM_SHAPES);
}
