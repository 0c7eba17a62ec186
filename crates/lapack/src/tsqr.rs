//! Communication-avoiding tall-skinny QR (TSQR).
//!
//! SLATE's `geqrf` uses communication-avoiding techniques for the panel;
//! this module provides the classic binary-reduction-tree TSQR used as an
//! ablation against the flat blocked QR for the QDWH stacked factorization
//! `W = [sqrt(c) A; I]`, which is extremely tall (`(m+n) x n`).

use crate::qr::{extract_r, geqrf, orgqr};
use polar_blas::gemm;
use polar_blas::params::fork_join;
use polar_matrix::{Matrix, Op};
use polar_scalar::Scalar;

/// Tall-skinny QR via a binary reduction tree.
///
/// Returns `(Q, R)` with `Q: m x n` having orthonormal columns and
/// `R: n x n` upper triangular such that `A = Q R`.
///
/// Row blocks are factored independently (in parallel via rayon), their
/// `R` factors are combined pairwise up a binary tree, and the `Q` factors
/// are propagated back down — the same dataflow a distributed TSQR uses to
/// reduce message count from `O(mt)` to `O(log mt)`.
pub fn tsqr<S: Scalar>(a: &Matrix<S>) -> (Matrix<S>, Matrix<S>) {
    let m = a.nrows();
    let n = a.ncols();
    assert!(m >= n, "tsqr requires m >= n");
    // Nominal factor-then-form-Q flops; the per-block geqrf/orgqr calls
    // below are nested and therefore not double-counted.
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Geqrf,
        "tsqr",
        polar_blas::flops::type_factor(S::IS_COMPLEX)
            * (polar_blas::flops::geqrf(m, n) + polar_blas::flops::orgqr(m, n)),
        [m, n, 0],
    );
    tsqr_rec(a, 0, m)
}

fn tsqr_rec<S: Scalar>(a: &Matrix<S>, row0: usize, rows: usize) -> (Matrix<S>, Matrix<S>) {
    let n = a.ncols();
    // base case: factor the block directly once it is modestly tall
    if rows <= (4 * n).max(64) {
        let mut block = a.submatrix_owned(row0, 0, rows, n);
        let f = geqrf(&mut block);
        let q = orgqr(&block, &f);
        let r = extract_r(&block);
        let r_square = r.submatrix_owned(0, 0, n.min(rows), n);
        // pad R to n x n when the block is shorter than n columns would
        // require (cannot happen for rows >= n, which the split guarantees)
        return (q, r_square);
    }
    // split rows; keep both halves at least n rows tall
    let half = (rows / 2).max(n);
    let work = rows.saturating_mul(n).saturating_mul(n);
    let ((q1, r1), (q2, r2)) =
        fork_join(work, || tsqr_rec(a, row0, half), || tsqr_rec(a, row0 + half, rows - half));
    // combine: [R1; R2] = Q3 R
    let stacked = Matrix::vstack(&r1, &r2);
    let mut packed = stacked;
    let f = geqrf(&mut packed);
    let q3 = orgqr(&packed, &f);
    let r = extract_r(&packed).submatrix_owned(0, 0, n, n);
    // Q = [Q1 * Q3_top; Q2 * Q3_bottom]
    let q3_top = q3.submatrix_owned(0, 0, r1.nrows(), n);
    let q3_bot = q3.submatrix_owned(r1.nrows(), 0, r2.nrows(), n);
    let mut q = Matrix::<S>::zeros(rows, n);
    {
        let (top, bottom) = q.as_mut().split_at_row(q1.nrows());
        fork_join(
            work,
            || gemm(Op::NoTrans, Op::NoTrans, S::ONE, q1.as_ref(), q3_top.as_ref(), S::ZERO, top),
            || {
                gemm(
                    Op::NoTrans,
                    Op::NoTrans,
                    S::ONE,
                    q2.as_ref(),
                    q3_bot.as_ref(),
                    S::ZERO,
                    bottom,
                )
            },
        );
    }
    (q, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_blas::{add, norm};
    use polar_matrix::Norm;
    use polar_scalar::Complex64;

    fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix<f64> {
        let mut s = seed | 1;
        Matrix::from_fn(m, n, |_, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn check_tsqr<S: Scalar>(a: &Matrix<S>, tol: S::Real) {
        use polar_scalar::Real;
        let (m, n) = (a.nrows(), a.ncols());
        let (q, r) = tsqr(a);
        assert_eq!(q.nrows(), m);
        assert_eq!(q.ncols(), n);
        assert_eq!(r.nrows(), n);
        // R upper triangular
        for j in 0..n {
            for i in j + 1..n {
                assert_eq!(r[(i, j)], S::ZERO, "R not triangular at ({i},{j})");
            }
        }
        // Q^H Q = I
        let mut qhq = Matrix::<S>::zeros(n, n);
        gemm(Op::ConjTrans, Op::NoTrans, S::ONE, q.as_ref(), q.as_ref(), S::ZERO, qhq.as_mut());
        for j in 0..n {
            for i in 0..n {
                let expect = if i == j { S::ONE } else { S::ZERO };
                assert!((qhq[(i, j)] - expect).abs() <= tol);
            }
        }
        // QR = A
        let mut recon = Matrix::<S>::zeros(m, n);
        gemm(Op::NoTrans, Op::NoTrans, S::ONE, q.as_ref(), r.as_ref(), S::ZERO, recon.as_mut());
        let mut diff = recon;
        add(-S::ONE, a.as_ref(), S::ONE, diff.as_mut());
        let err: S::Real = norm(Norm::Fro, diff.as_ref());
        let scale: S::Real = norm(Norm::Fro, a.as_ref());
        assert!(err <= tol * (S::Real::ONE + scale));
    }

    #[test]
    fn tsqr_moderately_tall() {
        check_tsqr(&rand_mat(300, 10, 1), 1e-12);
    }

    #[test]
    fn tsqr_very_tall_multilevel() {
        check_tsqr(&rand_mat(2000, 8, 2), 1e-12);
    }

    #[test]
    fn tsqr_base_case_only() {
        check_tsqr(&rand_mat(30, 10, 3), 1e-12);
    }

    #[test]
    fn tsqr_complex() {
        let mut s = 11u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a = Matrix::from_fn(400, 6, |_, _| Complex64::new(next(), next()));
        check_tsqr(&a, 1e-12);
    }

    #[test]
    fn tsqr_matches_flat_qr_r_up_to_signs() {
        // |diag(R)| must agree between TSQR and flat QR
        let a = rand_mat(500, 5, 4);
        let (_, r_t) = tsqr(&a);
        let mut packed = a.clone();
        let _ = geqrf(&mut packed);
        let r_f = extract_r(&packed);
        for j in 0..5 {
            assert!((r_t[(j, j)].abs() - r_f[(j, j)].abs()).abs() < 1e-10);
        }
    }

    #[test]
    fn tsqr_square_input() {
        check_tsqr(&rand_mat(12, 12, 5), 1e-12);
    }
}
