//! The const-generic fallback microkernel on a host that has SIMD kernels:
//! `POLAR_GEMM_MR` / `NR` force 4 x 4, a tile shape no SIMD kernel claims,
//! and the same sweep that checks the SIMD kernels against the reference
//! runs on it — so the two agree with each other to twice the tolerance,
//! and the path Miri and non-x86 hosts take is exercised everywhere.
//!
//! Alone in its binary: the tile shape is read once per process.

mod gemm_checks;

use polar_scalar::{Complex32, Complex64};

#[test]
fn forced_tile_shape_takes_the_generic_kernel() {
    std::env::set_var("POLAR_GEMM_MR", "4");
    std::env::set_var("POLAR_GEMM_NR", "4");
    let p = polar_blas::params::gemm_params();
    assert_eq!(
        (p.mr_override, p.nr_override),
        (Some(4), Some(4)),
        "blocking was read before this test"
    );
    for name in [
        polar_blas::microkernel::<f32>(),
        polar_blas::microkernel::<f64>(),
        polar_blas::microkernel::<Complex32>(),
        polar_blas::microkernel::<Complex64>(),
    ] {
        assert_eq!(name, "Generic 4x4");
    }
    // (side by side: the unoptimized generic kernel is slow in a debug build)
    std::thread::scope(|s| {
        s.spawn(gemm_checks::sweep::<Complex64>);
        s.spawn(gemm_checks::sweep::<Complex32>);
    });
}
