//! SVD-based polar decomposition — the classical baseline QDWH is compared
//! against in the paper's related work (§3):
//!
//! `A = U Σ V^H  =>  A = (U V^H)(V Σ V^H) = U_p H`.

use crate::qdwh_impl::{PolarDecomposition, QdwhError, QdwhInfo};
use polar_blas::{gemm, symmetrize};
use polar_lapack::jacobi_svd;
use polar_matrix::{Matrix, Op};
use polar_scalar::{Real, Scalar};

/// Polar decomposition through a full SVD (Jacobi). Same contract as
/// [`crate::qdwh`]; the `info` field reports zero iterations since there
/// is no Halley loop.
pub fn svd_based_polar<S: Scalar>(a: &Matrix<S>) -> Result<PolarDecomposition<S>, QdwhError> {
    let m = a.nrows();
    let n = a.ncols();
    if m < n {
        return Err(QdwhError::Shape("svd_based_polar requires m >= n"));
    }
    let svd = jacobi_svd(a)?;

    // U_p = U V^H
    let mut u_p = Matrix::<S>::zeros(m, n);
    gemm(Op::NoTrans, Op::ConjTrans, S::ONE, svd.u.as_ref(), svd.v.as_ref(), S::ZERO, u_p.as_mut());

    // H = V Sigma V^H
    let mut vs = svd.v.clone();
    for j in 0..n {
        let s = svd.sigma[j];
        for i in 0..n {
            vs[(i, j)] = vs[(i, j)].mul_real(s);
        }
    }
    let mut h = Matrix::<S>::zeros(n, n);
    gemm(Op::NoTrans, Op::ConjTrans, S::ONE, vs.as_ref(), svd.v.as_ref(), S::ZERO, h.as_mut());
    symmetrize(h.as_mut());

    // no Halley loop: zero iterations, alpha = sigma_max
    let alpha = svd.sigma.first().copied().unwrap_or(S::Real::ZERO);
    Ok(PolarDecomposition { u: u_p, h, info: QdwhInfo::started(alpha, S::Real::ZERO) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qdwh_impl::{orthogonality_error, qdwh};
    use crate::QdwhOptions;
    use polar_blas::{add, norm};
    use polar_gen::{generate, MatrixSpec};
    use polar_matrix::Norm;

    #[test]
    fn svd_pd_satisfies_contract() {
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(30, 1));
        let pd = svd_based_polar(&a).unwrap();
        assert!(orthogonality_error(&pd.u) < 1e-12);
        assert!(pd.backward_error(&a) < 1e-12);
    }

    #[test]
    fn svd_pd_agrees_with_qdwh() {
        // the polar decomposition is unique for full-rank A: both methods
        // must produce the same factors
        let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(25, 2));
        let via_svd = svd_based_polar(&a).unwrap();
        let via_qdwh = qdwh(&a, &QdwhOptions::default()).unwrap();
        let mut du = via_svd.u.clone();
        add(-1.0, via_qdwh.u.as_ref(), 1.0, du.as_mut());
        let diff_u: f64 = norm(Norm::Fro, du.as_ref());
        assert!(diff_u < 1e-11, "U factors differ by {diff_u}");
        let mut dh = via_svd.h.clone();
        add(-1.0, via_qdwh.h.as_ref(), 1.0, dh.as_mut());
        let diff_h: f64 = norm(Norm::Fro, dh.as_ref());
        assert!(diff_h < 1e-11, "H factors differ by {diff_h}");
    }

    #[test]
    fn svd_pd_complex() {
        use polar_scalar::Complex64;
        let (a, _) = generate::<Complex64>(&MatrixSpec::well_conditioned(16, 3));
        let pd = svd_based_polar(&a).unwrap();
        assert!(orthogonality_error(&pd.u) < 1e-12);
        assert!(pd.backward_error(&a) < 1e-12);
    }
}
