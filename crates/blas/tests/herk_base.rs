//! `herk`'s recursion base is part of the algorithm, not of the fork policy:
//! raising `POLAR_PAR_THRESHOLD_FLOPS` (even to "never fork") must leave a
//! tile-sized update on the triangle split whose off-diagonal blocks run
//! through gemm, not drop the whole tile onto the unpacked direct kernel.
//!
//! One test, alone in its binary: the threshold is read once per process,
//! so it has to be in the environment before the first kernel call.

use polar_blas::herk;
use polar_matrix::{Matrix, Op, Uplo};

#[test]
fn fork_threshold_does_not_move_herk_onto_the_direct_kernel() {
    std::env::set_var("POLAR_PAR_THRESHOLD_FLOPS", "1000000000000");
    let n = 256;
    let a = Matrix::<f64>::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5);
    let mut c = Matrix::<f64>::zeros(n, n);
    let _serial = polar_obs::scope_lock();
    let scope = polar_obs::scope();
    herk(Uplo::Lower, Op::ConjTrans, 1.0, a.as_ref(), 0.0, c.as_mut());
    let spans = scope.finish().spans;
    let gemms = spans.iter().filter(|s| s.name == "gemm").count();
    // 256 -> 128 -> 64: one off-diagonal gemm per split, 1 + 2 of them
    assert_eq!(gemms, 3, "herk(256) must reach gemm through its triangle split");
    assert!(
        spans.iter().all(|s| s.lane == spans[0].lane),
        "nothing is worth forking under this threshold"
    );
}
