//! Packed `herk` and `trmm` against the reference triple loop, shared by
//! the test binary that runs them at the default blocking and the one that
//! forces several k-, m- and n-blocks onto small shapes.

use polar_blas::{gemm_ref, herk, trmm};
use polar_matrix::{Diag, Matrix, Op, Side, Uplo};
use polar_scalar::{Real, Scalar};

pub fn smat<S: Scalar>(m: usize, n: usize, seed: u64) -> Matrix<S> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    Matrix::from_fn(m, n, |_, _| {
        let (re, im) = (next(), next());
        S::from_parts(S::Real::from_f64(re), S::Real::from_f64(im))
    })
}

fn stored(uplo: Uplo, i: usize, j: usize) -> bool {
    if uplo == Uplo::Lower {
        i >= j
    } else {
        i <= j
    }
}

fn bits<S: Scalar>(x: S) -> (u64, u64) {
    (x.re().to_f64().to_bits(), x.im().to_f64().to_bits())
}

fn tol<S: Scalar>(terms: usize) -> f64 {
    // entries are in [-1, 1] (times |alpha| < 2): a sum of `terms`
    // products is good to terms * eps, with headroom
    16.0 * S::Real::EPSILON.to_f64() * (terms as f64 + 4.0)
}

/// The ops `herk` takes for `S`.
pub fn herk_ops<S: Scalar>() -> &'static [Op] {
    if S::IS_COMPLEX {
        &[Op::NoTrans, Op::ConjTrans]
    } else {
        &[Op::NoTrans, Op::Trans]
    }
}

/// `herk` into a `C` whose stored triangle is NaN when `beta = 0` (it must
/// be overwritten, not scaled) and whose other triangle must come back
/// bit for bit; complex diagonals exactly real.
pub fn check_herk<S: Scalar>(uplo: Uplo, op: Op, n: usize, k: usize, beta: f64, seed: u64) {
    let what = format!("herk {} {uplo:?} {op:?} n={n} k={k} beta={beta}", S::TYPE_TAG);
    let a = if op == Op::NoTrans { smat::<S>(n, k, seed) } else { smat::<S>(k, n, seed) };
    let r = smat::<S>(n, n, seed + 1);
    // Hermitian input: the diagonal is real
    let clean =
        Matrix::from_fn(n, n, |i, j| if i == j { S::from_real(r[(i, j)].re()) } else { r[(i, j)] });
    let c0 = Matrix::from_fn(n, n, |i, j| {
        if beta == 0.0 && stored(uplo, i, j) {
            S::from_f64(f64::NAN)
        } else {
            clean[(i, j)]
        }
    });
    let (alpha, beta_r) = (S::Real::from_f64(1.25), S::Real::from_f64(beta));
    let mut c = c0.clone();
    herk(uplo, op, alpha, a.as_ref(), beta_r, c.as_mut());

    let mut want = clean;
    let op_h = if op == Op::NoTrans { Op::ConjTrans } else { Op::NoTrans };
    let (al, be) = (S::from_real(alpha), S::from_real(beta_r));
    gemm_ref(op, op_h, al, a.as_ref(), a.as_ref(), be, want.as_mut());
    for j in 0..n {
        for i in 0..n {
            if !stored(uplo, i, j) {
                assert_eq!(bits(c[(i, j)]), bits(c0[(i, j)]), "{what}: ({i},{j}) is not herk's");
                continue;
            }
            let d = (c[(i, j)] - want[(i, j)]).abs().to_f64();
            assert!(d <= tol::<S>(k), "{what}: ({i},{j}) off by {d:e}");
            if i == j {
                assert_eq!(c[(i, j)].im().to_f64(), 0.0, "{what}: diagonal ({i},{i}) not real");
            }
        }
    }
}

/// `trmm` with the unreferenced triangle of `A` (and, for a unit diagonal,
/// the diagonal) poisoned with NaN, against `gemm_ref` on the clean dense
/// triangle.
#[allow(clippy::too_many_arguments)] // one argument per trmm flag + shape
pub fn check_trmm<S: Scalar>(
    side: Side,
    uplo: Uplo,
    op: Op,
    diag: Diag,
    nt: usize,
    other: usize,
    seed: u64,
) {
    let what = format!("trmm {} {side:?} {uplo:?} {op:?} {diag:?} nt={nt} x{other}", S::TYPE_TAG);
    let r = smat::<S>(nt, nt, seed);
    let unit = diag == Diag::Unit;
    let a = Matrix::from_fn(nt, nt, |i, j| {
        if !stored(uplo, i, j) || (unit && i == j) {
            S::from_f64(f64::NAN)
        } else {
            r[(i, j)]
        }
    });
    let dense = Matrix::from_fn(nt, nt, |i, j| {
        if unit && i == j {
            S::ONE
        } else if stored(uplo, i, j) {
            r[(i, j)]
        } else {
            S::ZERO
        }
    });
    let (m, n) = if side == Side::Left { (nt, other) } else { (other, nt) };
    let b0 = smat::<S>(m, n, seed + 1);
    let alpha = S::from_parts(S::Real::from_f64(1.25), S::Real::from_f64(-0.5));
    let mut b = b0.clone();
    trmm(side, uplo, op, diag, alpha, a.as_ref(), b.as_mut());
    let mut want = Matrix::<S>::zeros(m, n);
    match side {
        Side::Left => {
            gemm_ref(op, Op::NoTrans, alpha, dense.as_ref(), b0.as_ref(), S::ZERO, want.as_mut())
        }
        Side::Right => {
            gemm_ref(Op::NoTrans, op, alpha, b0.as_ref(), dense.as_ref(), S::ZERO, want.as_mut())
        }
    }
    for j in 0..n {
        for i in 0..m {
            let d = (b[(i, j)] - want[(i, j)]).abs().to_f64();
            // NaN fails the comparison: nothing unreferenced was multiplied
            assert!(d <= tol::<S>(nt), "{what}: ({i},{j}) off by {d:e}");
        }
    }
}

/// Every uplo x op (x side x diag) on the given shapes, one scalar type.
pub fn sweep<S: Scalar>(herk_shapes: &[(usize, usize)], trmm_shapes: &[(usize, usize)]) {
    let all_ops: &[Op] = if S::IS_COMPLEX {
        &[Op::NoTrans, Op::Trans, Op::ConjTrans]
    } else {
        &[Op::NoTrans, Op::Trans]
    };
    for uplo in [Uplo::Lower, Uplo::Upper] {
        for (s, &(n, k)) in herk_shapes.iter().enumerate() {
            for &op in herk_ops::<S>() {
                for beta in [0.0, 1.0, -0.75] {
                    check_herk::<S>(uplo, op, n, k, beta, 100 + s as u64);
                }
            }
        }
        for (s, &(nt, other)) in trmm_shapes.iter().enumerate() {
            for &op in all_ops {
                for side in [Side::Left, Side::Right] {
                    // unit diagonals on every other shape keep the sweep short
                    let diag = if s % 2 == 0 { Diag::NonUnit } else { Diag::Unit };
                    check_trmm::<S>(side, uplo, op, diag, nt, other, 200 + s as u64);
                }
            }
        }
    }
}
