//! On a host with AVX2 + FMA or better every scalar type has a SIMD
//! microkernel, and the default tile shape selects it. A forced
//! `POLAR_GEMM_MR` / `NR` may name a shape no kernel claims; then there is
//! nothing to assert (`generic_kernel_fallback.rs` runs that case).
//!
//! Alone in its binary: the tile shape is read once per process.

#![cfg(target_arch = "x86_64")]

use polar_scalar::{Complex32, Complex64};

#[test]
fn no_type_falls_back_to_the_generic_kernel_on_a_simd_host() {
    let names = [
        polar_blas::microkernel::<f32>(),
        polar_blas::microkernel::<f64>(),
        polar_blas::microkernel::<Complex32>(),
        polar_blas::microkernel::<Complex64>(),
    ];
    let p = polar_blas::params::gemm_params();
    let forced = p.mr_override.is_some() || p.nr_override.is_some();
    let simd =
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma");
    assert!(
        forced || !simd || names.iter().all(|n| !n.starts_with("Generic")),
        "a type fell back to the generic microkernel on a SIMD host: {names:?}"
    );
}
