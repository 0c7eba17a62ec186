//! 1-norm condition estimation (§6.3 of the paper).
//!
//! [`norm1est`] implements Hager's algorithm [Hager 1984] in the LAPACK
//! `lacon` formulation, using *reverse communication* in the form of an
//! [`OneNormOracle`]: the estimator only needs products with `M` and `M^H`,
//! so a single implementation serves any factorization — triangular solves
//! for [`trcondest`], LU solves for [`gecondest`].

use crate::lu::{getrs, LuFactors};
use polar_blas::trsm;
use polar_matrix::{Diag, Matrix, Norm, Op, Side, Uplo};
use polar_scalar::{Real, Scalar};

/// Reverse-communication interface for [`norm1est`]: applies the operator
/// whose 1-norm is being estimated (usually `A^{-1}` via solves).
pub trait OneNormOracle<S: Scalar> {
    /// `x := M x`.
    fn apply(&mut self, x: &mut Matrix<S>);
    /// `x := M^H x`.
    fn apply_conj_trans(&mut self, x: &mut Matrix<S>);
}

/// `sign(y)` with `sign(0) = 1`; for complex scalars, `y/|y|`.
fn unit_sign<S: Scalar>(y: S) -> S {
    let a = y.abs();
    if a == S::Real::ZERO {
        S::ONE
    } else {
        y.mul_real(a.recip())
    }
}

fn one_norm_vec<S: Scalar>(x: &Matrix<S>) -> S::Real {
    x.as_slice().iter().map(|v| v.abs()).sum()
}

/// Estimate `||M||_1` for the operator behind `oracle` (Hager's method,
/// LAPACK `lacon`). Typically a lower bound that is almost always within
/// a small factor of the true norm.
pub fn norm1est<S: Scalar, O: OneNormOracle<S>>(n: usize, oracle: &mut O) -> S::Real {
    if n == 0 {
        return S::Real::ZERO;
    }
    let inv_n = S::Real::from_usize(n).recip();
    let mut x = Matrix::<S>::from_fn(n, 1, |_, _| S::from_real(inv_n));
    oracle.apply(&mut x);
    if n == 1 {
        return x[(0, 0)].abs();
    }
    let mut est = one_norm_vec(&x);
    let mut prev_j = usize::MAX;

    const ITMAX: usize = 5;
    for _ in 0..ITMAX {
        // xi = sign(x)
        let mut xi = Matrix::<S>::from_fn(n, 1, |i, _| unit_sign(x[(i, 0)]));
        oracle.apply_conj_trans(&mut xi);
        // j = argmax |z_i|
        let mut j = 0;
        let mut zmax = S::Real::ZERO;
        for i in 0..n {
            let v = xi[(i, 0)].abs();
            if v > zmax {
                zmax = v;
                j = i;
            }
        }
        if j == prev_j {
            break;
        }
        prev_j = j;
        // next probe: e_j
        x.fill(S::ZERO);
        x[(j, 0)] = S::ONE;
        oracle.apply(&mut x);
        let new_est = one_norm_vec(&x);
        if new_est <= est {
            break;
        }
        est = new_est;
    }

    // Alternating-sign safeguard vector (LAPACK lacon final stage):
    // x_i = (-1)^i (1 + i/(n-1)); est >= 2 ||M x||_1 / (3 n).
    let nm1 = S::Real::from_usize(n - 1);
    let mut alt = Matrix::<S>::from_fn(n, 1, |i, _| {
        let mag = S::Real::ONE + S::Real::from_usize(i) / nm1;
        let sgn = if i % 2 == 0 { S::Real::ONE } else { -S::Real::ONE };
        S::from_real(mag * sgn)
    });
    oracle.apply(&mut alt);
    let three = S::Real::from_f64(3.0);
    let alt_est = S::Real::TWO * one_norm_vec(&alt) / (three * S::Real::from_usize(n));
    est.max(alt_est)
}

/// Oracle for `R^{-1}` with `R` the upper triangle of a packed QR factor.
struct TriInvOracle<'m, S> {
    r: &'m Matrix<S>,
}

impl<S: Scalar> OneNormOracle<S> for TriInvOracle<'_, S> {
    fn apply(&mut self, x: &mut Matrix<S>) {
        trsm(
            Side::Left,
            Uplo::Upper,
            Op::NoTrans,
            Diag::NonUnit,
            S::ONE,
            self.r.as_ref(),
            x.as_mut(),
        );
    }
    fn apply_conj_trans(&mut self, x: &mut Matrix<S>) {
        trsm(
            Side::Left,
            Uplo::Upper,
            Op::ConjTrans,
            Diag::NonUnit,
            S::ONE,
            self.r.as_ref(),
            x.as_mut(),
        );
    }
}

/// Reciprocal 1-norm condition estimate of the upper-triangular `R` stored
/// in (the upper triangle of) `r`:
///
/// `rcond = 1 / (||R||_1 * est(||R^{-1}||_1))`, clamped to `[0, 1]`.
///
/// This is the paper's `trcondest` (Algorithm 1 line 17): in QDWH it runs
/// on the `R` factor of the QR of the scaled input matrix.
pub fn trcondest<S: Scalar>(r: &Matrix<S>) -> S::Real {
    let n = r.nrows().min(r.ncols());
    if n == 0 {
        return S::Real::ONE;
    }
    // exact-singularity fast path: zero diagonal → rcond 0
    for k in 0..n {
        if r[(k, k)].abs() == S::Real::ZERO {
            return S::Real::ZERO;
        }
    }
    let square = r.submatrix_owned(0, 0, n, n);
    let rnorm = polar_blas::norm_triangular(Norm::One, Uplo::Upper, Diag::NonUnit, square.as_ref());
    let mut oracle = TriInvOracle { r: &square };
    let rinv_norm = norm1est(n, &mut oracle);
    let denom = rnorm * rinv_norm;
    if denom <= S::Real::ZERO || !denom.is_finite() {
        return S::Real::ZERO;
    }
    denom.recip().min(S::Real::ONE)
}

/// Estimate the *smallest singular value* of the upper-triangular `R`
/// (stored in the upper triangle of `r`) by power iteration on
/// `R^{-1} R^{-H}`: each step is two triangular solves, and the iteration
/// converges to `1 / sigma_min(R)^2`.
///
/// QDWH uses this as a tight (2-norm) lower-bound seed `l_0`; the 1-norm
/// Hager bound of [`trcondest`] can be pessimistic by a factor of
/// `sqrt(n)`, which distorts the QR/Cholesky iteration split.
pub fn tr_sigma_min_est<S: Scalar>(r: &Matrix<S>) -> S::Real {
    let n = r.nrows().min(r.ncols());
    if n == 0 {
        return S::Real::ZERO;
    }
    for k in 0..n {
        if r[(k, k)].abs() == S::Real::ZERO {
            return S::Real::ZERO;
        }
    }
    // the leading square, in place
    let square = r.view(0, 0, n, n);
    // start from the all-ones direction
    let mut x = Matrix::<S>::from_fn(n, 1, |_, _| S::ONE);
    let mut est_prev;
    let mut est = S::Real::ZERO;
    let tol = S::Real::from_f64(0.05);
    for _ in 0..30 {
        // normalize
        let nx = polar_blas::nrm2::<S>(x.col(0));
        if nx == S::Real::ZERO || !nx.is_finite() {
            break;
        }
        let inv = nx.recip();
        for v in x.col_mut(0) {
            *v = v.mul_real(inv);
        }
        // y = R^{-H} x ; x = R^{-1} y  => x = (R^H R)^{-1} x
        trsm(Side::Left, Uplo::Upper, Op::ConjTrans, Diag::NonUnit, S::ONE, square, x.as_mut());
        trsm(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, S::ONE, square, x.as_mut());
        let growth = polar_blas::nrm2::<S>(x.col(0));
        if growth == S::Real::ZERO || !growth.is_finite() {
            // R is numerically singular in this direction
            return S::Real::ZERO;
        }
        est_prev = est;
        est = growth.sqrt().recip(); // sigma_min estimate
        if est_prev > S::Real::ZERO && (est - est_prev).abs() <= tol * est {
            break;
        }
    }
    est
}

/// Oracle for `A^{-1}` via LU solves.
struct LuInvOracle<'m, S: Scalar> {
    f: &'m LuFactors<S>,
}

impl<S: Scalar> OneNormOracle<S> for LuInvOracle<'_, S> {
    fn apply(&mut self, x: &mut Matrix<S>) {
        getrs(Op::NoTrans, self.f, x).expect("oracle shapes are square and consistent");
    }
    fn apply_conj_trans(&mut self, x: &mut Matrix<S>) {
        getrs(Op::ConjTrans, self.f, x).expect("oracle shapes are square and consistent");
    }
}

/// Reciprocal 1-norm condition estimate of a general square matrix from
/// its LU factors and its precomputed 1-norm (`gecondest`, LAPACK `gecon`).
pub fn gecondest<S: Scalar>(f: &LuFactors<S>, anorm: S::Real) -> S::Real {
    let n = f.lu.nrows();
    if n == 0 {
        return S::Real::ONE;
    }
    for k in 0..n {
        if f.lu[(k, k)].abs() == S::Real::ZERO {
            return S::Real::ZERO;
        }
    }
    let mut oracle = LuInvOracle { f };
    let ainv_norm = norm1est(n, &mut oracle);
    let denom = anorm * ainv_norm;
    if denom <= S::Real::ZERO || !denom.is_finite() {
        return S::Real::ZERO;
    }
    denom.recip().min(S::Real::ONE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::getrf;
    use polar_blas::norm;
    use polar_scalar::Complex64;

    /// Oracle wrapping an explicit matrix (no inverse): estimates ||M||_1.
    struct DenseOracle {
        m: Matrix<f64>,
    }
    impl OneNormOracle<f64> for DenseOracle {
        fn apply(&mut self, x: &mut Matrix<f64>) {
            let y = x.clone();
            polar_blas::gemm(
                Op::NoTrans,
                Op::NoTrans,
                1.0,
                self.m.as_ref(),
                y.as_ref(),
                0.0,
                x.as_mut(),
            );
        }
        fn apply_conj_trans(&mut self, x: &mut Matrix<f64>) {
            let y = x.clone();
            polar_blas::gemm(
                Op::ConjTrans,
                Op::NoTrans,
                1.0,
                self.m.as_ref(),
                y.as_ref(),
                0.0,
                x.as_mut(),
            );
        }
    }

    #[test]
    fn norm1est_close_to_true_norm() {
        let mut s = 17u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for n in [3usize, 10, 37] {
            let m = Matrix::from_fn(n, n, |_, _| next());
            let exact: f64 = norm(Norm::One, m.as_ref());
            let mut oracle = DenseOracle { m };
            let est = norm1est(n, &mut oracle);
            // Hager's estimate is a lower bound, usually within a factor ~3
            assert!(est <= exact * (1.0 + 1e-12), "estimate exceeds the norm");
            assert!(est >= exact / 10.0, "estimate too loose: {est} vs {exact}");
        }
    }

    #[test]
    fn norm1est_exact_on_diagonal() {
        let m = Matrix::from_fn(5, 5, |i, j| if i == j { (i + 1) as f64 } else { 0.0 });
        let mut oracle = DenseOracle { m };
        let est = norm1est(5, &mut oracle);
        assert!((est - 5.0).abs() < 1e-12);
    }

    #[test]
    fn trcondest_identity_is_one() {
        let r = Matrix::<f64>::identity(8, 8);
        let rc = trcondest(&r);
        assert!((rc - 1.0).abs() < 1e-10, "rcond(I) = {rc}");
    }

    #[test]
    fn trcondest_tracks_diagonal_spread() {
        // R = diag(1, 1e-6): cond_1 = 1e6, rcond ≈ 1e-6
        let mut r = Matrix::<f64>::identity(2, 2);
        r[(1, 1)] = 1e-6;
        let rc = trcondest(&r);
        assert!(rc < 1e-5 && rc > 1e-8, "rcond = {rc}");
    }

    #[test]
    fn trcondest_zero_diag_is_singular() {
        let mut r = Matrix::<f64>::identity(3, 3);
        r[(1, 1)] = 0.0;
        assert_eq!(trcondest(&r), 0.0);
    }

    #[test]
    fn gecondest_well_vs_ill() {
        // well conditioned: rcond near 1; ill conditioned: tiny rcond
        let well = Matrix::<f64>::identity(10, 10);
        let anorm_w: f64 = norm(Norm::One, well.as_ref());
        let f = getrf(&well).unwrap();
        let rc_w = gecondest(&f, anorm_w);
        assert!(rc_w > 0.5);

        let mut ill = Matrix::<f64>::identity(10, 10);
        ill[(9, 9)] = 1e-12;
        let anorm_i: f64 = norm(Norm::One, ill.as_ref());
        let fi = getrf(&ill).unwrap();
        let rc_i = gecondest(&fi, anorm_i);
        assert!(rc_i < 1e-10, "rcond = {rc_i}");
    }

    #[test]
    fn sigma_min_est_exact_on_diagonal() {
        let r = Matrix::from_fn(6, 6, |i, j| if i == j { (i + 2) as f64 } else { 0.0 });
        let est = tr_sigma_min_est(&r);
        assert!((est - 2.0).abs() / 2.0 < 0.06, "est = {est}");
    }

    #[test]
    fn sigma_min_est_matches_svd_on_random_triangles() {
        let mut s = 77u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for n in [5usize, 12, 25] {
            let r = Matrix::from_fn(n, n, |i, j| {
                if i > j {
                    0.0
                } else if i == j {
                    1.0 + next().abs() * 2.0
                } else {
                    next() * 0.5
                }
            });
            let svd = crate::jacobi_svd(&r).unwrap();
            let true_min = *svd.sigma.last().unwrap();
            let est = tr_sigma_min_est(&r);
            assert!(
                (est - true_min).abs() <= 0.15 * true_min,
                "n={n}: est {est} vs sigma_min {true_min}"
            );
        }
    }

    #[test]
    fn sigma_min_est_singular_is_zero() {
        let mut r = Matrix::<f64>::identity(4, 4);
        r[(2, 2)] = 0.0;
        assert_eq!(tr_sigma_min_est(&r), 0.0);
    }

    #[test]
    fn sigma_min_est_tracks_tiny_values() {
        let mut r = Matrix::<f64>::identity(8, 8);
        r[(7, 7)] = 1e-14;
        let est = tr_sigma_min_est(&r);
        assert!(est > 0.0 && est < 1e-12, "est = {est}");
    }

    #[test]
    fn trcondest_complex() {
        let n = 6;
        let r = Matrix::from_fn(n, n, |i, j| {
            if i > j {
                Complex64::default()
            } else if i == j {
                Complex64::new(1.0 + i as f64, 0.5)
            } else {
                Complex64::new(0.1, -0.2)
            }
        });
        let rc = trcondest(&r);
        assert!(rc > 0.0 && rc <= 1.0);
    }
}
