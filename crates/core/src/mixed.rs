//! Mixed-precision QDWH (paper §8 future work: "integrate mixed-precision
//! techniques to further accelerate the polar decomposition").
//!
//! Strategy: run the full QDWH iteration in the lower precision (where
//! every flop is ~2x cheaper and, on real accelerators, often 8–16x), then
//! restore *orthonormality* of the unitary factor to full precision with a
//! few Newton–Schulz steps `U <- U (3 I - U^H U) / 2`, which converge
//! quadratically for `sigma(U) ⊂ (0, sqrt(3))` — always satisfied by a
//! single-precision-accurate polar factor.
//!
//! **Accuracy contract.** Orthogonality of `U` reaches full (e.g. f64)
//! precision, which is what the orthogonalization applications (Procrustes,
//! strapdown-matrix correction, §1) need. The *backward error* of the full
//! decomposition `A ≈ U H` remains at the lower precision's level
//! (~1e-7 for f32): Newton–Schulz orthogonalizes `U` in place but cannot
//! move it toward the exact polar factor of `A` — that information was
//! rounded away in the low-precision stage. Recovering full backward
//! accuracy would require re-running the iteration against `A` in full
//! precision, defeating the purpose. This is the standard trade-off for
//! mixed-precision polar algorithms.

use crate::options::QdwhOptions;
use crate::qdwh_impl::{qdwh, PolarDecomposition, QdwhError};
use crate::skeleton::finish;
use polar_blas::{gemm, norm};
use polar_matrix::{Matrix, Norm, Op};
use polar_scalar::{Complex32, Complex64, Real, Scalar};

/// High-precision scalar with a designated lower-precision companion.
pub trait MixedPrecision: Scalar {
    type Lo: Scalar;
    fn to_lo(self) -> Self::Lo;
    fn from_lo(lo: Self::Lo) -> Self;
}

impl MixedPrecision for f64 {
    type Lo = f32;
    fn to_lo(self) -> f32 {
        self as f32
    }
    fn from_lo(lo: f32) -> f64 {
        lo as f64
    }
}

impl MixedPrecision for Complex64 {
    type Lo = Complex32;
    fn to_lo(self) -> Complex32 {
        Complex32::new(self.re as f32, self.im as f32)
    }
    fn from_lo(lo: Complex32) -> Complex64 {
        Complex64::new(lo.re as f64, lo.im as f64)
    }
}

fn convert_down<S: MixedPrecision>(a: &Matrix<S>) -> Matrix<S::Lo> {
    Matrix::from_fn(a.nrows(), a.ncols(), |i, j| a[(i, j)].to_lo())
}

fn convert_up<S: MixedPrecision>(a: &Matrix<S::Lo>) -> Matrix<S> {
    Matrix::from_fn(a.nrows(), a.ncols(), |i, j| S::from_lo(a[(i, j)]))
}

/// Mixed-precision polar decomposition: QDWH in `S::Lo`, Newton–Schulz
/// refinement in `S`. Returns the refinement step count alongside the
/// inherited QDWH telemetry.
pub fn qdwh_mixed<S: MixedPrecision>(
    a: &Matrix<S>,
    opts: &QdwhOptions,
) -> Result<(PolarDecomposition<S>, usize), QdwhError> {
    let m = a.nrows();
    let n = a.ncols();

    // low-precision solve (factor only — H is recomputed at full precision;
    // degenerate inputs are answered here)
    let a_lo = convert_down(a);
    let mut lo_opts = opts.clone();
    lo_opts.compute_h = false;
    let pd_lo = qdwh(&a_lo, &lo_opts)?;
    let mut u: Matrix<S> = convert_up::<S>(&pd_lo.u);

    // Newton–Schulz refinement to full precision
    let eps = S::Real::EPSILON;
    let tol = S::Real::from_usize(n.max(1)).sqrt() * eps * S::Real::from_f64(10.0);
    let mut steps = 0usize;
    const MAX_REFINE: usize = 8;
    loop {
        // G = I - U^H U; residual check
        let mut g = Matrix::<S>::identity(n, n);
        gemm(Op::ConjTrans, Op::NoTrans, -S::ONE, u.as_ref(), u.as_ref(), S::ONE, g.as_mut());
        let res: S::Real = norm(Norm::Fro, g.as_ref());
        if res <= tol || steps >= MAX_REFINE {
            if res > tol {
                return Err(QdwhError::NoConvergence { iterations: steps });
            }
            break;
        }
        // U <- U (3I - U^H U)/2 = U + U G / 2  with G = I - U^H U
        let mut ug = Matrix::<S>::zeros(m, n);
        gemm(Op::NoTrans, Op::NoTrans, S::ONE, u.as_ref(), g.as_ref(), S::ZERO, ug.as_mut());
        let half = S::from_f64(0.5);
        polar_blas::add(half, ug.as_ref(), S::ONE, u.as_mut());
        steps += 1;
    }

    // H at full precision
    let h = finish(&u, a, opts.compute_h);
    Ok((PolarDecomposition { u, h, info: pd_lo.info.cast() }, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qdwh_impl::orthogonality_error;
    use polar_gen::{generate, MatrixSpec, SigmaDistribution};

    #[test]
    fn mixed_reaches_double_orthogonality() {
        let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(40, 1));
        let (pd, steps) = qdwh_mixed(&a, &QdwhOptions::default()).unwrap();
        let orth = orthogonality_error(&pd.u);
        assert!(orth < 1e-13, "orthogonality after refinement: {orth}");
        // backward error stays at the f32 level (see module docs)
        assert!(pd.backward_error(&a) < 1e-5);
        assert!(steps >= 1, "must refine at least once from f32 accuracy");
        assert!(steps <= 4, "quadratic convergence: {steps} steps");
    }

    #[test]
    fn mixed_complex() {
        use polar_scalar::Complex64;
        let (a, _) = generate::<Complex64>(&MatrixSpec::well_conditioned(24, 2));
        let (pd, _steps) = qdwh_mixed(&a, &QdwhOptions::default()).unwrap();
        assert!(orthogonality_error(&pd.u) < 1e-13);
        assert!(pd.backward_error(&a) < 1e-5);
    }

    #[test]
    fn mixed_moderately_ill_conditioned() {
        // kappa limited by f32 range: 1e6 is still solvable in single
        let spec = MatrixSpec {
            m: 30,
            n: 30,
            cond: 1e6,
            distribution: SigmaDistribution::Geometric,
            seed: 3,
        };
        let (a, _) = generate::<f64>(&spec);
        let (pd, _) = qdwh_mixed(&a, &QdwhOptions::default()).unwrap();
        assert!(orthogonality_error(&pd.u) < 1e-13);
    }

    #[test]
    fn mixed_agrees_with_full_precision_at_f32_level() {
        use polar_blas::{add, norm};
        use polar_matrix::Norm;
        let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(20, 4));
        let (mixed, _) = qdwh_mixed(&a, &QdwhOptions::default()).unwrap();
        let full = qdwh(&a, &QdwhOptions::default()).unwrap();
        let mut diff = mixed.u.clone();
        add(-1.0, full.u.as_ref(), 1.0, diff.as_mut());
        let d: f64 = norm(Norm::Fro, diff.as_ref());
        // forward agreement is bounded by the f32 stage's accuracy
        assert!(d < 1e-4, "factors differ by {d}");
    }
}
