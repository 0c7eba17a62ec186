//! Blocked lower Cholesky factorization (`potrf`) — the engine of the
//! Cholesky-based QDWH iteration (Eq. (2)).

use crate::{LapackError, DEFAULT_BLOCK};
use polar_blas::{herk, trsm};
use polar_matrix::{Diag, MatMut, Matrix, Op, Side, Uplo};
use polar_scalar::{Real, Scalar};

/// Unblocked lower Cholesky of the leading block (LAPACK `potf2`).
/// `offset` is the global row/column index of this block, used only for
/// the error report.
fn potf2_lower<S: Scalar>(mut a: MatMut<'_, S>, offset: usize) -> Result<(), LapackError> {
    let n = a.nrows();
    for j in 0..n {
        // d = A[j,j] - sum_{l<j} |A[j,l]|^2
        let mut d = a.at(j, j).re();
        for l in 0..j {
            d -= a.at(j, l).abs_sq();
        }
        if d <= S::Real::ZERO || !d.is_finite() {
            return Err(LapackError::NotPositiveDefinite(offset + j + 1));
        }
        let djj = d.sqrt();
        a.set(j, j, S::from_real(djj));
        // column update: A[j+1.., j] = (A[j+1.., j] - A[j+1.., 0..j] A[j, 0..j]^H) / djj
        for l in 0..j {
            let f = a.at(j, l).conj();
            if f == S::ZERO {
                continue;
            }
            for i in j + 1..n {
                let v = a.at(i, j) - a.at(i, l) * f;
                a.set(i, j, v);
            }
        }
        let inv = djj.recip();
        for i in j + 1..n {
            let v = a.at(i, j).mul_real(inv);
            a.set(i, j, v);
        }
    }
    Ok(())
}

/// Blocked Cholesky factorization of a Hermitian positive-definite matrix,
/// LAPACK `potrf`: [`potrf_in`] on the whole matrix. Only the lower
/// triangle of `a` is referenced; on exit it holds `L` (`A = L L^H`).
pub fn potrf<S: Scalar>(uplo: Uplo, a: &mut Matrix<S>) -> Result<(), LapackError> {
    potrf_in(uplo, a.as_mut())
}

/// View-based lower Cholesky, LAPACK `potrf` on a [`MatMut`]: the matrix
/// need not own its storage — the batch-major QDWH engine calls this on
/// slices of a shared workspace arena. `uplo` must be `Lower`, the only
/// triangle QDWH factors.
pub fn potrf_in<S: Scalar>(uplo: Uplo, a: MatMut<'_, S>) -> Result<(), LapackError> {
    assert_eq!(uplo, Uplo::Lower, "potrf: only the lower triangle is factored");
    assert_eq!(a.nrows(), a.ncols(), "potrf: square matrices only");
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Potrf,
        "potrf",
        polar_blas::flops::type_factor(S::IS_COMPLEX) * polar_blas::flops::potrf(a.nrows()),
        [a.nrows(), a.nrows(), 0],
    );
    potrf_lower_in(a, DEFAULT_BLOCK)
}

fn potrf_lower_in<S: Scalar>(mut a: MatMut<'_, S>, nb: usize) -> Result<(), LapackError> {
    let n = a.nrows();
    let nb = nb.max(1);
    let mut k = 0;
    while k < n {
        let kb = nb.min(n - k);
        // diagonal block
        potf2_lower(a.rb().submatrix(k, k, kb, kb), k)?;
        if k + kb < n {
            let rest = n - k - kb;
            // panel solve: A[k+kb.., k..k+kb] := A[k+kb.., k..k+kb] * L_kk^{-H}
            {
                let all = a.rb().submatrix(k, k, n - k, kb);
                let (diag_block, panel) = all.split_at_row(kb);
                trsm(
                    Side::Right,
                    Uplo::Lower,
                    Op::ConjTrans,
                    Diag::NonUnit,
                    S::ONE,
                    diag_block.as_ref(),
                    panel,
                );
            }
            // trailing update: A22 -= panel * panel^H; split_at_col keeps
            // the panel and the trailing block as disjoint borrows
            let wide = a.rb().submatrix(k + kb, k, rest, n - k);
            let (panel, trailing) = wide.split_at_col(kb);
            herk(Uplo::Lower, Op::NoTrans, -S::Real::ONE, panel.as_ref(), S::Real::ONE, trailing);
        }
        k += kb;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_blas::{gemm, norm};
    use polar_matrix::Norm;
    use polar_scalar::Complex64;

    fn rand_spd(n: usize, seed: u64) -> Matrix<f64> {
        let mut s = seed | 1;
        let g = Matrix::from_fn(n, n, |_, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        // A = G G^T + n I: SPD with margin
        let mut a = Matrix::identity(n, n);
        polar_blas::scale(n as f64, a.as_mut());
        gemm(Op::NoTrans, Op::Trans, 1.0, g.as_ref(), g.as_ref(), 1.0, a.as_mut());
        a
    }

    fn rand_hpd(n: usize, seed: u64) -> Matrix<Complex64> {
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let g = Matrix::from_fn(n, n, |_, _| Complex64::new(next(), next()));
        let mut a = Matrix::identity(n, n);
        polar_blas::scale(Complex64::from_real(2.0 * n as f64), a.as_mut());
        gemm(
            Op::NoTrans,
            Op::ConjTrans,
            Complex64::from_real(1.0),
            g.as_ref(),
            g.as_ref(),
            Complex64::from_real(1.0),
            a.as_mut(),
        );
        a
    }

    fn check_llh<S: Scalar>(a0: &Matrix<S>, tol: S::Real) {
        let n = a0.nrows();
        let mut a = a0.clone();
        potrf(Uplo::Lower, &mut a).expect("potrf failed on SPD input");
        // zero upper strict triangle to extract L
        let l = Matrix::from_fn(n, n, |i, j| if i >= j { a[(i, j)] } else { S::ZERO });
        let mut recon = Matrix::<S>::zeros(n, n);
        gemm(Op::NoTrans, Op::ConjTrans, S::ONE, l.as_ref(), l.as_ref(), S::ZERO, recon.as_mut());
        let mut diff = recon;
        polar_blas::add(-S::ONE, a0.as_ref(), S::ONE, diff.as_mut());
        let err: S::Real = norm(Norm::Fro, diff.as_ref());
        let scale: S::Real = norm(Norm::Fro, a0.as_ref());
        assert!(err <= tol * scale, "||LL^H - A|| = {err:?}");
    }

    #[test]
    fn potrf_small_and_blocked() {
        check_llh(&rand_spd(5, 1), 1e-13);
        check_llh(&rand_spd(100, 2), 1e-12); // crosses block boundary
    }

    #[test]
    fn potrf_complex_hpd() {
        check_llh(&rand_hpd(40, 3), 1e-12);
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut a = Matrix::<f64>::identity(4, 4);
        a[(2, 2)] = -1.0;
        let err = potrf(Uplo::Lower, &mut a).unwrap_err();
        assert_eq!(err, LapackError::NotPositiveDefinite(3));
    }

    #[test]
    fn potrf_rejects_nan() {
        let mut a = Matrix::<f64>::identity(3, 3);
        a[(1, 1)] = f64::NAN;
        assert!(potrf(Uplo::Lower, &mut a).is_err());
    }
}
