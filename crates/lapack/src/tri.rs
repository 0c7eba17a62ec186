//! Triangular matrix inversion (LAPACK `trtri`, lower case).
//!
//! The Cholesky-family QDWH iteration applies `Z^{-1} = L^{-H} L^{-1}`.
//! Two right-side `trsm` sweeps do that by substitution, and a substitution
//! bottoms out in a per-column kernel however it is blocked. Inverting the
//! triangle explicitly turns the application into multiplies at the packed
//! kernel's rate, in three places:
//!
//! * `(X T^H) T` with `T = L^{-1}` on the batch path (`polar-batch`'s
//!   engine: two batch-major GEMMs);
//! * `trmm` with `T_jj = L_jj^{-1}` per diagonal tile in the fused
//!   whole-solve graph's one-term step (`polar-qdwh`'s `solve_dag.rs`: the
//!   sweeps' coupling gemms stay, only the diagonal solve becomes a
//!   multiply), `T_jj` written over `L_jj`, which nothing reads after;
//! * the whole tile inverse `T_j = L_j^{-1}` of every term of a Zolo-PD
//!   Cholesky-based step, in place of `L_j`, whose `M = x_0 I + sum_j w_j
//!   T_j^H T_j` is applied to `X` as one gemm (`solve_dag.rs`'
//!   `emit_chol_inverse`).
//!
//! Why that is safe there: `Z = alpha X^H X + sigma I` with `||X||_2 <= 1`
//! has its eigenvalues in `[sigma, alpha + sigma]`, so `kappa(Z) <= 1 +
//! alpha / sigma` whatever the input's conditioning or the estimate of its
//! smallest singular value. For QDWH (`alpha = c`, `sigma = 1`) that is `1 +
//! c`, and the Cholesky branch only runs when `c` is below the QR/Cholesky
//! switch (100 by default, so 101; the batch engine plans its hinted
//! entries under a wider `qr_switch_threshold`, knowingly: its
//! `HINTED_QR_SWITCH`). For Zolo-PD's terms (`alpha = 1`, `sigma` a
//! Zolotarev coefficient) it is largest in the first Cholesky-based step
//! at the lowest bound that plans one: 231 at `r = 2`, 640 at `r = 4`,
//! 2173 at `r = 8` over every plan from `l_0` in `[1e-16, 0.99]` (the
//! `zolo.rs` test that sweeps them) — not the 101 the step's kind is
//! decided on, which assumes `sigma_min(X) >= ell`. The inverse loses at
//! most that factor over the solves, `Z^{-1}` is formed to `kappa(Z) eps`,
//! and the Zolotarev weights and `x_0` are positive (at least 0.028 and
//! 0.059), so the sum `M` has no cancellation to magnify it. No general
//! caller has such a bound: `polar_blas::trsm` keeps substitution
//! semantics, and so do the panel solves of `emit_potrf`.

use crate::LapackError;
use polar_blas::trmm;
use polar_matrix::{Diag, MatMut, MatRef, Op, Side, Uplo};
use polar_scalar::Scalar;

/// Diagonal-block order at or below which the unblocked substitution
/// kernel runs directly; above it the inversion recurses so the
/// off-diagonal block is two triangular multiplies.
const TRTRI_BASE: usize = 16;

/// Invert a lower-triangular matrix out of place: `t := l^{-1}`.
///
/// Only the lower triangle of `l` is read — a fresh `potrf` factor can be
/// passed directly, whatever its strict upper triangle still holds. On
/// success `t` holds the lower-triangular inverse with its strict upper
/// triangle zeroed (so `t` is safe to hand to a full GEMM).
///
/// Errors with [`LapackError::SingularPivot`] on an exactly-zero or
/// non-finite diagonal entry.
pub fn trtri_lower<S: Scalar>(l: MatRef<'_, S>, mut t: MatMut<'_, S>) -> Result<(), LapackError> {
    let n = l.nrows();
    assert_eq!(l.ncols(), n, "trtri_lower: square matrices only");
    assert_eq!((t.nrows(), t.ncols()), (n, n), "trtri_lower: output shape mismatch");
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Trsm,
        "trtri",
        polar_blas::flops::type_factor(S::IS_COMPLEX) * (n as f64).powi(3) / 3.0,
        [n, n, 0],
    );
    // zero the strict upper triangle once; the recursion fills the lower
    for j in 1..n {
        t.col_mut(j)[..j].fill(S::ZERO);
    }
    trtri_rec(l, t, 0)
}

fn trtri_rec<S: Scalar>(
    l: MatRef<'_, S>,
    mut t: MatMut<'_, S>,
    offset: usize,
) -> Result<(), LapackError> {
    let n = l.nrows();
    if n <= TRTRI_BASE {
        // unblocked: solve L t_j = e_j by forward substitution. Reads l
        // and already-written rows of t only, so l and t may not alias
        // (they never do: t is the caller's separate output slab).
        for j in 0..n {
            let djj = l.at(j, j);
            if djj == S::ZERO || !djj.is_finite() {
                return Err(LapackError::SingularPivot(offset + j));
            }
            let tj = t.col_mut(j);
            tj[j] = S::ONE / djj;
            for i in j + 1..n {
                let dii = l.at(i, i);
                if dii == S::ZERO || !dii.is_finite() {
                    return Err(LapackError::SingularPivot(offset + i));
                }
                let mut s = S::ZERO;
                for (p, &tjp) in tj.iter().enumerate().take(i).skip(j) {
                    s += l.at(i, p) * tjp;
                }
                tj[i] = -s / dii;
            }
        }
        return Ok(());
    }

    // L = [L11 0; L21 L22]  =>  L^{-1} = [T11 0; -T22 L21 T11 T22]
    let h = n / 2;
    let l11 = l.submatrix(0, 0, h, h);
    let l21 = l.submatrix(h, 0, n - h, h);
    let l22 = l.submatrix(h, h, n - h, n - h);
    {
        let t11 = t.rb().submatrix(0, 0, h, h);
        trtri_rec(l11, t11, offset)?;
    }
    {
        let t22 = t.rb().submatrix(h, h, n - h, n - h);
        trtri_rec(l22, t22, offset + h)?;
    }
    // T21 = -T22 (L21 T11), in place: both factors are triangular, so each
    // product is a trmm — half the flops of a gemm, nothing allocated
    let (left, right) = t.split_at_col(h);
    let (t11, mut t21) = left.split_at_row(h);
    let t22 = right.split_at_row(h).1;
    t21.copy_from(l21);
    let (lo, nn) = (Uplo::Lower, Diag::NonUnit);
    trmm(Side::Right, lo, Op::NoTrans, nn, S::ONE, t11.as_ref(), t21.rb());
    trmm(Side::Left, lo, Op::NoTrans, nn, -S::ONE, t22.as_ref(), t21);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_blas::{gemm, norm};
    use polar_matrix::{Matrix, Norm};
    use polar_scalar::{Complex64, Real};

    fn rand_lower<S: Scalar>(n: usize, seed: u64) -> Matrix<S> {
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        Matrix::from_fn(n, n, |i, j| {
            if i < j {
                // strict upper garbage: trtri must never read it
                S::from_f64(1e30)
            } else if i == j {
                S::from_parts(S::Real::from_f64(2.0 + next().abs()), S::Real::ZERO)
            } else {
                // keep off-diagonals small relative to the diagonal so the
                // inverse stays well-conditioned at every test size
                S::from_parts(S::Real::from_f64(next() * 0.3), S::Real::from_f64(next() * 0.15))
            }
        })
    }

    fn check_inverse<S: Scalar>(n: usize, tol: f64) {
        let l = rand_lower::<S>(n, 7 + n as u64);
        let mut t = Matrix::<S>::zeros(n, n);
        trtri_lower(l.as_ref(), t.as_mut()).unwrap();
        // strict upper of T is exactly zero
        for j in 1..n {
            for i in 0..j {
                assert_eq!(t[(i, j)], S::ZERO, "upper ({i},{j}) not zeroed");
            }
        }
        // L_lower * T == I
        let l_clean = Matrix::from_fn(n, n, |i, j| if i >= j { l[(i, j)] } else { S::ZERO });
        let mut prod = Matrix::<S>::zeros(n, n);
        gemm(
            Op::NoTrans,
            Op::NoTrans,
            S::ONE,
            l_clean.as_ref(),
            t.as_ref(),
            S::ZERO,
            prod.as_mut(),
        );
        for j in 0..n {
            for i in 0..n {
                let want = if i == j { S::ONE } else { S::ZERO };
                let d = (prod[(i, j)] - want).abs().to_f64();
                assert!(d <= tol, "L T deviates at ({i},{j}): {d} (n={n})");
            }
        }
    }

    #[test]
    fn inverts_real_and_complex_across_base_boundary() {
        // below, at, and well above the recursion base
        for n in [1, 5, 16, 17, 48, 100] {
            check_inverse::<f64>(n, 1e-12);
        }
        check_inverse::<Complex64>(33, 1e-12);
    }

    #[test]
    fn singular_diagonal_reports_pivot() {
        let mut l = rand_lower::<f64>(20, 3);
        l[(17, 17)] = 0.0;
        let mut t = Matrix::<f64>::zeros(20, 20);
        match trtri_lower(l.as_ref(), t.as_mut()) {
            Err(LapackError::SingularPivot(17)) => {}
            other => panic!("expected SingularPivot(17), got {other:?}"),
        }
    }

    #[test]
    fn matches_trsm_solution() {
        // T must agree with trsm applied to the identity
        let n = 40;
        let l = rand_lower::<f64>(n, 11);
        let mut t = Matrix::<f64>::zeros(n, n);
        trtri_lower(l.as_ref(), t.as_mut()).unwrap();
        let mut t_ref = Matrix::<f64>::identity(n, n);
        let l_clean = Matrix::from_fn(n, n, |i, j| if i >= j { l[(i, j)] } else { 0.0 });
        polar_blas::trsm(
            polar_matrix::Side::Left,
            polar_matrix::Uplo::Lower,
            Op::NoTrans,
            polar_matrix::Diag::NonUnit,
            1.0,
            l_clean.as_ref(),
            t_ref.as_mut(),
        );
        let mut diff = t.clone();
        polar_blas::add(-1.0, t_ref.as_ref(), 1.0, diff.as_mut());
        let err: f64 = norm(Norm::Fro, diff.as_ref());
        let scale: f64 = norm(Norm::Fro, t_ref.as_ref());
        assert!(err <= 1e-12 * scale.max(1.0), "trtri vs trsm drift {err:e}");
    }
}
