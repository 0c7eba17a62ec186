//! The complex microkernels the host selects (AVX-512 8x4 / 16x4, AVX2 4x3
//! / 8x3, else the const-generic 4x4), through the public `gemm`: the
//! split accumulators, the `fmaddsub` join and the vector `alpha` / `beta`
//! writeback against the reference triple loop. (The kernels of an ISA
//! below the host's widest are driven one by one in `packed.rs`'s unit
//! tests.)

mod gemm_checks;

use polar_scalar::{Complex32, Complex64};

#[test]
fn gemm_matches_reference_c64() {
    gemm_checks::sweep::<Complex64>();
}

#[test]
fn gemm_matches_reference_c32() {
    gemm_checks::sweep::<Complex32>();
}
