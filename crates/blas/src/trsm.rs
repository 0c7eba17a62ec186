//! Triangular solve and triangular multiply.

use crate::gemm::gemm;
use crate::params::fork_lanes;
use polar_matrix::{Diag, MatMut, MatRef, Matrix, Op, Side, Uplo};
use polar_scalar::Scalar;

/// Triangle order at or below which the per-column substitution kernel
/// runs directly; above it the solve recurses so the off-diagonal update
/// is a (packed) gemm.
const TRSM_BASE: usize = 64;

/// Narrowest slab of independent right-hand sides (columns of `B` in a left
/// solve, rows in a right one) a forked solve hands to one leaf. Every leaf
/// re-packs the triangle for its own gemm updates, so the useful
/// multiply-adds per redundantly packed element equal the slab width.
const TRSM_MIN_SLAB: usize = 64;

/// Analytic real flops of a triangular solve or multiply against `b`.
fn solve_flops<S: Scalar>(side: Side, b: &MatMut<'_, S>) -> f64 {
    crate::flops::type_factor(S::IS_COMPLEX)
        * match side {
            Side::Left => crate::flops::trsm_left(b.nrows(), b.ncols()),
            Side::Right => crate::flops::trsm_right(b.nrows(), b.ncols()),
        }
}

/// Effective element of `op(A)` for a triangular `A` stored in `uplo`.
#[inline]
fn tri_at<S: Scalar>(a: MatRef<'_, S>, op: Op, i: usize, j: usize) -> S {
    match op {
        Op::NoTrans => a.at(i, j),
        Op::Trans => a.at(j, i),
        Op::ConjTrans => a.at(j, i).conj(),
    }
}

/// Triangle of `op(A)` given the storage triangle of `A`.
#[inline]
fn effective_uplo(uplo: Uplo, op: Op) -> Uplo {
    match op {
        Op::NoTrans => uplo,
        Op::Trans | Op::ConjTrans => uplo.flip(),
    }
}

/// Triangular solve, BLAS `trsm`:
///
/// * `side = Left`:  solve `op(A) * X = alpha * B`;
/// * `side = Right`: solve `X * op(A) = alpha * B`;
///
/// `X` overwrites `B`. `A` is triangular (`uplo` triangle referenced,
/// `diag` selects implicit unit diagonal).
///
/// The QDWH Cholesky iteration applies two right-side solves with the
/// Cholesky factor `L` to form `A_k := A_{k-1} Z^{-1}` without inverting.
pub fn trsm<S: Scalar>(
    side: Side,
    uplo: Uplo,
    op: Op,
    diag: Diag,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatMut<'_, S>,
) {
    assert_eq!(a.nrows(), a.ncols(), "trsm: A must be square");
    let flops = solve_flops(side, &b);
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Trsm,
        "trsm",
        flops,
        [b.nrows(), b.ncols(), a.nrows()],
    );
    // the right-hand sides are independent (columns of B in a left solve,
    // rows in a right one): one slab per lane, and the gemm updates inside
    // a slab fork on their own account, which is what rebalances the lanes
    let (tri, len) = match side {
        Side::Left => (b.nrows(), b.ncols()),
        Side::Right => (b.ncols(), b.nrows()),
    };
    assert_eq!(a.nrows(), tri, "trsm: dim mismatch");
    let lanes = fork_lanes(tri.saturating_mul(tri).saturating_mul(len) / 2);
    let slab = (len / lanes).max(TRSM_MIN_SLAB);
    solve_slabs(side, uplo, op, diag, alpha, a, b, slab, false);
}

/// Halve the right-hand sides across the pool while both halves keep at
/// least `slab` of them. `split` marks a proper slab, whose solve shows on
/// its lane as a trace-only `trsm_leaf` span (cf. `gemm_leaf`).
#[allow(clippy::too_many_arguments)] // BLAS trsm signature + the split
fn solve_slabs<S: Scalar>(
    side: Side,
    uplo: Uplo,
    op: Op,
    diag: Diag,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatMut<'_, S>,
    slab: usize,
    split: bool,
) {
    let len = match side {
        Side::Left => b.ncols(),
        Side::Right => b.nrows(),
    };
    if len < 2 * slab {
        let _leaf = split.then(|| {
            let dims = [b.nrows(), b.ncols(), a.nrows()];
            let flops = solve_flops(side, &b);
            polar_obs::leaf_span(polar_obs::KernelClass::Trsm, "trsm_leaf", flops, dims)
        });
        return match side {
            Side::Left => trsm_left_blocked(uplo, op, diag, alpha, a, b),
            Side::Right => trsm_right_blocked(uplo, op, diag, alpha, a, b),
        };
    }
    let (b1, b2) = match side {
        Side::Left => b.split_at_col(len / 2),
        Side::Right => b.split_at_row(len / 2),
    };
    rayon::join(
        || solve_slabs(side, uplo, op, diag, alpha, a, b1, slab, true),
        || solve_slabs(side, uplo, op, diag, alpha, a, b2, slab, true),
    );
}

/// Block of `op(A)` covering rows `i0..i0+ni`, cols `j0..j0+nj` of the
/// *effective* (transposed) matrix, as a view plus the op to hand gemm.
#[inline]
fn op_block<S: Scalar>(
    a: MatRef<'_, S>,
    op: Op,
    i0: usize,
    j0: usize,
    ni: usize,
    nj: usize,
) -> MatRef<'_, S> {
    match op {
        Op::NoTrans => a.submatrix(i0, j0, ni, nj),
        Op::Trans | Op::ConjTrans => a.submatrix(j0, i0, nj, ni),
    }
}

/// Recursive blocked left solve: split `op(A)` into 2x2 quadrants so the
/// off-diagonal update runs through the packed gemm.
fn trsm_left_blocked<S: Scalar>(
    uplo: Uplo,
    op: Op,
    diag: Diag,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatMut<'_, S>,
) {
    let m = b.nrows();
    if m <= TRSM_BASE {
        trsm_left_seq(uplo, op, diag, alpha, a, b);
        return;
    }
    let h = m / 2;
    let (mut b1, mut b2) = b.split_at_row(h);
    // diagonal blocks of op(A) are triangular with the same uplo/op
    let a11 = a.submatrix(0, 0, h, h);
    let a22 = a.submatrix(h, h, m - h, m - h);
    match effective_uplo(uplo, op) {
        // T = [T11 0; T21 T22]: forward — X1 first, then eliminate from B2
        Uplo::Lower => {
            trsm_left_blocked(uplo, op, diag, alpha, a11, b1.rb());
            let t21 = op_block(a, op, h, 0, m - h, h);
            gemm(op, Op::NoTrans, -S::ONE, t21, b1.as_ref(), alpha, b2.rb());
            trsm_left_blocked(uplo, op, diag, S::ONE, a22, b2);
        }
        // T = [T11 T12; 0 T22]: backward — X2 first, then eliminate from B1
        Uplo::Upper => {
            trsm_left_blocked(uplo, op, diag, alpha, a22, b2.rb());
            let t12 = op_block(a, op, 0, h, h, m - h);
            gemm(op, Op::NoTrans, -S::ONE, t12, b2.as_ref(), alpha, b1.rb());
            trsm_left_blocked(uplo, op, diag, S::ONE, a11, b1);
        }
    }
}

fn trsm_left_seq<S: Scalar>(
    uplo: Uplo,
    op: Op,
    diag: Diag,
    alpha: S,
    a: MatRef<'_, S>,
    mut b: MatMut<'_, S>,
) {
    let m = b.nrows();
    let eff = effective_uplo(uplo, op);
    for j in 0..b.ncols() {
        let bj = b.col_mut(j);
        if alpha != S::ONE {
            for x in bj.iter_mut() {
                *x *= alpha;
            }
        }
        match eff {
            // forward substitution
            Uplo::Lower => {
                for k in 0..m {
                    if diag == Diag::NonUnit {
                        bj[k] *= tri_at(a, op, k, k).recip();
                    }
                    let xk = bj[k];
                    if xk != S::ZERO {
                        match op {
                            Op::NoTrans => {
                                // contiguous column segment of A
                                let ak = &a.col(k)[k + 1..m];
                                for (bi, &aik) in bj[k + 1..m].iter_mut().zip(ak) {
                                    *bi -= xk * aik;
                                }
                            }
                            _ => {
                                for (i, bi) in bj.iter_mut().enumerate().take(m).skip(k + 1) {
                                    *bi -= xk * tri_at(a, op, i, k);
                                }
                            }
                        }
                    }
                }
            }
            // back substitution
            Uplo::Upper => {
                for k in (0..m).rev() {
                    if diag == Diag::NonUnit {
                        bj[k] *= tri_at(a, op, k, k).recip();
                    }
                    let xk = bj[k];
                    if xk != S::ZERO {
                        match op {
                            Op::NoTrans => {
                                let ak = &a.col(k)[..k];
                                for (bi, &aik) in bj[..k].iter_mut().zip(ak) {
                                    *bi -= xk * aik;
                                }
                            }
                            _ => {
                                for (i, bi) in bj.iter_mut().enumerate().take(k) {
                                    *bi -= xk * tri_at(a, op, i, k);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Recursive blocked right solve: split `op(A)` into 2x2 quadrants so the
/// off-diagonal update runs through the packed gemm.
fn trsm_right_blocked<S: Scalar>(
    uplo: Uplo,
    op: Op,
    diag: Diag,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatMut<'_, S>,
) {
    let n = b.ncols();
    if n <= TRSM_BASE {
        trsm_right_seq(uplo, op, diag, alpha, a, b);
        return;
    }
    let h = n / 2;
    let (mut b1, mut b2) = b.split_at_col(h);
    let a11 = a.submatrix(0, 0, h, h);
    let a22 = a.submatrix(h, h, n - h, n - h);
    match effective_uplo(uplo, op) {
        // T = [T11 T12; 0 T22]: X1 first, then eliminate from B2
        Uplo::Upper => {
            trsm_right_blocked(uplo, op, diag, alpha, a11, b1.rb());
            let t12 = op_block(a, op, 0, h, h, n - h);
            gemm(Op::NoTrans, op, -S::ONE, b1.as_ref(), t12, alpha, b2.rb());
            trsm_right_blocked(uplo, op, diag, S::ONE, a22, b2);
        }
        // T = [T11 0; T21 T22]: X2 first, then eliminate from B1
        Uplo::Lower => {
            trsm_right_blocked(uplo, op, diag, alpha, a22, b2.rb());
            let t21 = op_block(a, op, h, 0, n - h, h);
            gemm(Op::NoTrans, op, -S::ONE, b2.as_ref(), t21, alpha, b1.rb());
            trsm_right_blocked(uplo, op, diag, S::ONE, a11, b1);
        }
    }
}

fn trsm_right_seq<S: Scalar>(
    uplo: Uplo,
    op: Op,
    diag: Diag,
    alpha: S,
    a: MatRef<'_, S>,
    mut b: MatMut<'_, S>,
) {
    let n = b.ncols();
    let eff = effective_uplo(uplo, op);
    if alpha != S::ONE {
        for j in 0..n {
            for x in b.col_mut(j) {
                *x *= alpha;
            }
        }
    }
    // X * T = B with T = op(A):
    //   T upper: ascending j — X[:,j] = (B[:,j] - sum_{l<j} X[:,l] T[l,j]) / T[j,j]
    //   T lower: descending j — X[:,j] = (B[:,j] - sum_{l>j} X[:,l] T[l,j]) / T[j,j]
    let cols: Box<dyn Iterator<Item = usize>> = match eff {
        Uplo::Upper => Box::new(0..n),
        Uplo::Lower => Box::new((0..n).rev()),
    };
    for j in cols {
        let range: Box<dyn Iterator<Item = usize>> = match eff {
            Uplo::Upper => Box::new(0..j),
            Uplo::Lower => Box::new(j + 1..n),
        };
        for l in range {
            let t = tri_at(a, op, l, j);
            if t == S::ZERO {
                continue;
            }
            // B[:,j] -= X[:,l] * t
            for i in 0..b.nrows() {
                let v = b.at(i, j) - b.at(i, l) * t;
                b.set(i, j, v);
            }
        }
        if diag == Diag::NonUnit {
            let d = tri_at(a, op, j, j).recip();
            for x in b.col_mut(j) {
                *x *= d;
            }
        }
    }
}

/// Triangular matrix multiply, BLAS `trmm`: `B := alpha * op(A) * B`
/// (`side = Left`) or `B := alpha * B * op(A)` (`side = Right`).
///
/// Correctness-oriented implementation: materializes the triangle of
/// `op(A)` into a dense temporary and delegates to [`gemm`]. Used only on
/// verification paths (factorization residuals, condition estimation
/// tests), never in the QDWH hot loop.
pub fn trmm<S: Scalar>(
    side: Side,
    uplo: Uplo,
    op: Op,
    diag: Diag,
    alpha: S,
    a: MatRef<'_, S>,
    mut b: MatMut<'_, S>,
) {
    assert_eq!(a.nrows(), a.ncols(), "trmm: A must be square");
    // Triangular multiply costs half the dense gemm it runs through below;
    // attribute the analytic (triangular) flops to the Trsm class and let
    // suppression hide the inner gemm.
    let flops = solve_flops(side, &b);
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Trsm,
        "trmm",
        flops,
        [b.nrows(), b.ncols(), a.nrows()],
    );
    let n = a.nrows();
    let mut t = Matrix::<S>::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            let in_tri = match uplo {
                Uplo::Upper => i <= j,
                Uplo::Lower => i >= j,
            };
            if i == j {
                t[(i, j)] = if diag == Diag::Unit { S::ONE } else { a.at(i, j) };
            } else if in_tri {
                t[(i, j)] = a.at(i, j);
            }
        }
    }
    let bc = b.as_ref().to_owned();
    match side {
        Side::Left => gemm(op, Op::NoTrans, alpha, t.as_ref(), bc.as_ref(), S::ZERO, b.rb()),
        Side::Right => gemm(Op::NoTrans, op, alpha, bc.as_ref(), t.as_ref(), S::ZERO, b.rb()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_ref;
    use polar_matrix::Matrix;
    use polar_scalar::Complex64;

    fn rand_tri(n: usize, uplo: Uplo, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        Matrix::from_fn(n, n, |i, j| {
            let in_tri = match uplo {
                Uplo::Upper => i <= j,
                Uplo::Lower => i >= j,
            };
            if i == j {
                3.0 + next().abs() // well away from singular
            } else if in_tri {
                next()
            } else {
                f64::NAN // must never be referenced
            }
        })
    }

    fn check_trsm(side: Side, uplo: Uplo, op: Op, diag: Diag, m: usize, n: usize) {
        let asize = if side == Side::Left { m } else { n };
        let a = rand_tri(asize, uplo, 5);
        let b0 = Matrix::from_fn(m, n, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let mut x = b0.clone();
        trsm(side, uplo, op, diag, 2.0, a.as_ref(), x.as_mut());
        assert!(!x.has_non_finite(), "NaN leaked from unreferenced triangle");

        // reconstruct: op(A)*X (left) or X*op(A) (right) == 2*B0
        let mut t = Matrix::<f64>::zeros(asize, asize);
        for j in 0..asize {
            for i in 0..asize {
                let in_tri = match uplo {
                    Uplo::Upper => i <= j,
                    Uplo::Lower => i >= j,
                };
                if in_tri {
                    t[(i, j)] = if i == j && diag == Diag::Unit { 1.0 } else { a[(i, j)] };
                }
            }
        }
        let mut recon = Matrix::<f64>::zeros(m, n);
        match side {
            Side::Left => {
                gemm_ref(op, Op::NoTrans, 1.0, t.as_ref(), x.as_ref(), 0.0, recon.as_mut())
            }
            Side::Right => {
                gemm_ref(Op::NoTrans, op, 1.0, x.as_ref(), t.as_ref(), 0.0, recon.as_mut())
            }
        }
        for j in 0..n {
            for i in 0..m {
                assert!(
                    (recon[(i, j)] - 2.0 * b0[(i, j)]).abs() < 1e-9,
                    "{side:?} {uplo:?} {op:?} {diag:?} at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn trsm_all_variants() {
        for side in [Side::Left, Side::Right] {
            for uplo in [Uplo::Upper, Uplo::Lower] {
                for op in [Op::NoTrans, Op::Trans] {
                    for diag in [Diag::NonUnit, Diag::Unit] {
                        check_trsm(side, uplo, op, diag, 9, 7);
                    }
                }
            }
        }
    }

    #[test]
    fn trsm_parallel_sizes() {
        check_trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 96, 150);
        check_trsm(Side::Right, Uplo::Lower, Op::Trans, Diag::NonUnit, 150, 96);
    }

    #[test]
    fn trsm_complex_conj_trans() {
        let n = 6;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i > j {
                Complex64::default()
            } else if i == j {
                Complex64::new(2.0 + i as f64, 1.0)
            } else {
                Complex64::new(0.3 * (i as f64 - j as f64), 0.7)
            }
        });
        let b0 = Matrix::from_fn(n, 4, |i, j| Complex64::new(i as f64, j as f64));
        let mut x = b0.clone();
        let one = Complex64::from_real(1.0);
        trsm(Side::Left, Uplo::Upper, Op::ConjTrans, Diag::NonUnit, one, a.as_ref(), x.as_mut());
        // verify A^H X = B0
        let mut recon = Matrix::<Complex64>::zeros(n, 4);
        gemm_ref(
            Op::ConjTrans,
            Op::NoTrans,
            one,
            a.as_ref(),
            x.as_ref(),
            Complex64::default(),
            recon.as_mut(),
        );
        for j in 0..4 {
            for i in 0..n {
                assert!((recon[(i, j)] - b0[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn trmm_matches_dense_multiply() {
        let a = rand_tri(5, Uplo::Upper, 9);
        let b0 = Matrix::from_fn(5, 3, |i, j| (i + j) as f64);
        let mut b = b0.clone();
        trmm(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, 1.0, a.as_ref(), b.as_mut());
        for j in 0..3 {
            for i in 0..5 {
                let mut acc = 0.0;
                for l in i..5 {
                    acc += a[(i, l)] * b0[(l, j)];
                }
                assert!((b[(i, j)] - acc).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn trmm_right_side() {
        let a = rand_tri(4, Uplo::Lower, 10);
        let b0 = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64 - 5.0);
        let mut b = b0.clone();
        trmm(Side::Right, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 2.0, a.as_ref(), b.as_mut());
        for j in 0..4 {
            for i in 0..3 {
                let mut acc = 0.0;
                for l in j..4 {
                    acc += b0[(i, l)] * a[(l, j)];
                }
                assert!((b[(i, j)] - 2.0 * acc).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn trmm_unit_diag() {
        let mut a = rand_tri(3, Uplo::Upper, 11);
        // poison the diagonal: Unit must ignore it
        for i in 0..3 {
            a[(i, i)] = f64::NAN;
        }
        let b0 = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let mut b = b0.clone();
        trmm(Side::Left, Uplo::Upper, Op::NoTrans, Diag::Unit, 1.0, a.as_ref(), b.as_mut());
        assert!(!b.has_non_finite(), "unit diagonal must not be referenced");
    }

    #[test]
    fn trsm_alpha_zero_yields_zero() {
        let a = rand_tri(5, Uplo::Lower, 12);
        let mut b = Matrix::from_fn(5, 3, |i, j| (i + j) as f64 + 1.0);
        trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 0.0, a.as_ref(), b.as_mut());
        for j in 0..3 {
            for i in 0..5 {
                assert_eq!(b[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn trsm_identity_is_noop() {
        let a = Matrix::<f64>::identity(4, 4);
        let b0 = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let mut b = b0.clone();
        trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 1.0, a.as_ref(), b.as_mut());
        assert_eq!(b, b0);
    }
}
