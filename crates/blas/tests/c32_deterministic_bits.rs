//! `Complex32` products take the packed kernel whatever the pool width: the
//! bits of a `gemm` forked over two workers equal those of the same product
//! on one. (They did not while a timing probe chose between the packed and
//! the axpy kernel.) The same holds for every type at a general `beta`:
//! the fork halves `C`, which moves where a microkernel tile's edge falls,
//! and an edge tile is scaled exactly as a whole one.

use polar_blas::gemm;
use polar_matrix::{Matrix, Op};
use polar_scalar::{Complex32, Real, Scalar};

/// A 200 x 168 x 300 product (row and column fringes, two k-blocks) with a
/// general `alpha` and `beta` on a pool of `workers`; FNV hash of the
/// result's bits.
fn gemm_bits<S: Scalar>(workers: usize, alpha: S, beta: S) -> u64 {
    let val = |i: usize, j: usize, s: usize| {
        S::Real::from_f64(((i * 31 + j * 17 + s) % 23) as f64 / 23.0 - 0.5)
    };
    let entry = |i, j, s| S::from_parts(val(i, j, s), val(j, i, s + 1));
    let a = Matrix::from_fn(300, 200, |i, j| entry(i, j, 1));
    let b = Matrix::from_fn(300, 168, |i, j| entry(i, j, 3));
    let mut c = Matrix::from_fn(200, 168, |i, j| entry(i, j, 5));
    rayon::ThreadPool::new(workers).install(|| {
        gemm(Op::ConjTrans, Op::NoTrans, alpha, a.as_ref(), b.as_ref(), beta, c.as_mut())
    });
    let mut h = 0xcbf29ce484222325u64;
    for x in c.as_slice() {
        for bits in [x.re().to_f64().to_bits(), x.im().to_f64().to_bits()] {
            h = (h ^ bits).wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[test]
fn pool_width_does_not_move_gemm_bits() {
    let (alpha, beta) = (Complex32::new(1.25, -0.5), Complex32::new(-0.75, 0.25));
    assert_eq!(gemm_bits(1, alpha, beta), gemm_bits(2, alpha, beta), "c32 bits moved");
    assert_eq!(gemm_bits(1, 1.25f64, -0.75), gemm_bits(2, 1.25f64, -0.75), "f64 bits moved");
}
