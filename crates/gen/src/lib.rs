//! Synthetic test-matrix generator (paper §7.1).
//!
//! "For these experiments, the generator creates random unitary matrices
//! `U, V`, obtained through the QR factorization of random matrices, and a
//! diagonal matrix `Σ` based on the desired condition number of the matrix
//! `A`. It then multiplies these together, forming `A = U Σ V^H` from its
//! SVD."
//!
//! The condition number drives QDWH convergence: κ = 1e16 (ill-conditioned)
//! forces the worst case of 3 QR-based + 3 Cholesky-based iterations.

#![forbid(unsafe_code)]

use polar_blas::gemm;
use polar_matrix::{Matrix, Op};
use polar_scalar::{Real, Scalar};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of the singular value distribution of a generated matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum SigmaDistribution {
    /// `sigma_i = kappa^{-(i-1)/(n-1)}`: geometric decay from 1 to 1/κ
    /// (LAPACK `latms` mode 3, the paper's ill-conditioned default).
    Geometric,
    /// `sigma_i = 1 - (1 - 1/kappa) (i-1)/(n-1)`: arithmetic decay
    /// (LAPACK mode 4).
    Arithmetic,
    /// One singular value at 1, the rest clustered at 1/κ (LAPACK mode 1).
    ClusteredAtInverseKappa,
    /// Uniform random in `[1/kappa, 1]`.
    Random,
    /// Explicit values (κ is ignored); must have length `min(m, n)`.
    Custom(Vec<f64>),
}

/// Test-matrix specification.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    pub m: usize,
    pub n: usize,
    /// Target 2-norm condition number κ = σ_max / σ_min.
    pub cond: f64,
    pub distribution: SigmaDistribution,
    pub seed: u64,
}

impl MatrixSpec {
    /// The paper's ill-conditioned benchmark configuration: κ = 1e16,
    /// geometric spectrum.
    pub fn ill_conditioned(n: usize, seed: u64) -> Self {
        Self { m: n, n, cond: 1e16, distribution: SigmaDistribution::Geometric, seed }
    }

    /// Well-conditioned configuration (κ = 10): QDWH needs only
    /// Cholesky-based iterations.
    pub fn well_conditioned(n: usize, seed: u64) -> Self {
        Self { m: n, n, cond: 10.0, distribution: SigmaDistribution::Geometric, seed }
    }

    /// Rectangular (`m >= n`) variant of an existing spec.
    pub fn rectangular(mut self, m: usize) -> Self {
        assert!(m >= self.n, "generator requires m >= n");
        self.m = m;
        self
    }

    /// Cap the condition number at what a scalar type with machine
    /// epsilon `eps` can meaningfully resolve: κ ≤ 0.1/eps keeps the
    /// smallest singular value an order of magnitude above the noise
    /// floor, so the realized spectrum still matches the prescription.
    /// Lets one master cond sweep serve all four types (e.g. κ = 1e13
    /// stays 1e13 in f64 but caps near 8e5 in f32).
    pub fn cond_capped(mut self, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
        self.cond = self.cond.min(0.1 / eps);
        self
    }

    /// The singular values this spec prescribes.
    pub fn singular_values(&self) -> Vec<f64> {
        let k = self.m.min(self.n);
        assert!(k > 0, "empty matrix");
        assert!(self.cond >= 1.0, "condition number must be >= 1");
        match &self.distribution {
            SigmaDistribution::Geometric => (0..k)
                .map(|i| if k == 1 { 1.0 } else { self.cond.powf(-(i as f64) / (k as f64 - 1.0)) })
                .collect(),
            SigmaDistribution::Arithmetic => (0..k)
                .map(|i| {
                    if k == 1 {
                        1.0
                    } else {
                        1.0 - (1.0 - self.cond.recip()) * (i as f64) / (k as f64 - 1.0)
                    }
                })
                .collect(),
            SigmaDistribution::ClusteredAtInverseKappa => {
                let mut v = vec![self.cond.recip(); k];
                v[0] = 1.0;
                v
            }
            SigmaDistribution::Random => {
                let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0x5151));
                let lo = self.cond.recip();
                let mut v: Vec<f64> = (0..k).map(|_| rng.gen_range(lo..=1.0)).collect();
                // pin the extremes so the realized condition number is exact
                v[0] = 1.0;
                if k > 1 {
                    v[k - 1] = lo;
                }
                v.sort_by(|a, b| b.partial_cmp(a).unwrap());
                v
            }
            SigmaDistribution::Custom(vals) => {
                assert_eq!(vals.len(), k, "custom spectrum length mismatch");
                vals.clone()
            }
        }
    }
}

/// Standard-normal sample via Box–Muller (`rand` offers only uniforms in
/// the offline crate set).
fn gauss(rng: &mut StdRng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// Random Gaussian matrix (real or complex according to `S`).
pub fn random_gaussian<S: Scalar>(m: usize, n: usize, rng: &mut StdRng) -> Matrix<S> {
    Matrix::from_fn(m, n, |_, _| {
        let (g1, g2) = gauss(rng);
        if S::IS_COMPLEX {
            S::from_parts(S::Real::from_f64(g1), S::Real::from_f64(g2))
        } else {
            S::from_real(S::Real::from_f64(g1))
        }
    })
}

/// Haar-like random matrix with orthonormal columns (`m x k`), obtained as
/// the Q factor of a Gaussian matrix with the sign ambiguity fixed by
/// making `diag(R)` positive.
pub fn random_orthonormal<S: Scalar>(m: usize, k: usize, rng: &mut StdRng) -> Matrix<S> {
    assert!(m >= k);
    let mut g = random_gaussian::<S>(m, k, rng);
    let f = polar_lapack_geqrf(&mut g);
    let mut q = polar_lapack_orgqr(&g, &f);
    // fix column phases: multiply column j by sign(R[j,j])^{-1}
    for j in 0..k {
        let rjj = g[(j, j)];
        let a = rjj.abs();
        if a > S::Real::ZERO {
            let phase = rjj.mul_real(a.recip()).conj();
            for i in 0..m {
                q[(i, j)] *= phase;
            }
        }
    }
    q
}

// thin wrappers keep the dependency surface obvious
use polar_lapack::{geqrf as polar_lapack_geqrf, orgqr as polar_lapack_orgqr};

/// Generate `A = U Σ V^H` per the spec. Returns the matrix and the exact
/// singular values used, so tests can validate spectra.
pub fn generate<S: Scalar>(spec: &MatrixSpec) -> (Matrix<S>, Vec<f64>) {
    let (m, n) = (spec.m, spec.n);
    assert!(m >= n, "generator requires m >= n (transpose the spec)");
    let sigma = spec.singular_values();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let u = random_orthonormal::<S>(m, n, &mut rng);
    let v = random_orthonormal::<S>(n, n, &mut rng);
    // US = U * diag(sigma)
    let mut us = u;
    for j in 0..n {
        let s = S::Real::from_f64(sigma[j]);
        for i in 0..m {
            us[(i, j)] = us[(i, j)].mul_real(s);
        }
    }
    let mut a = Matrix::<S>::zeros(m, n);
    gemm(Op::NoTrans, Op::ConjTrans, S::ONE, us.as_ref(), v.as_ref(), S::ZERO, a.as_mut());
    (a, sigma)
}

/// Convenience: generate just the matrix.
pub fn generate_matrix<S: Scalar>(spec: &MatrixSpec) -> Matrix<S> {
    generate::<S>(spec).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_matrix::Norm;
    use polar_scalar::Complex64;

    #[test]
    fn geometric_spectrum_hits_cond() {
        let spec = MatrixSpec::ill_conditioned(10, 1);
        let s = spec.singular_values();
        assert_eq!(s.len(), 10);
        assert!((s[0] - 1.0).abs() < 1e-15);
        assert!((s[9] - 1e-16).abs() < 1e-22);
        for w in s.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn arithmetic_spectrum_endpoints() {
        let spec = MatrixSpec {
            m: 5,
            n: 5,
            cond: 100.0,
            distribution: SigmaDistribution::Arithmetic,
            seed: 0,
        };
        let s = spec.singular_values();
        assert!((s[0] - 1.0).abs() < 1e-15);
        assert!((s[4] - 0.01).abs() < 1e-12);
    }

    #[test]
    fn generated_matrix_has_prescribed_spectrum() {
        let spec = MatrixSpec {
            m: 12,
            n: 8,
            cond: 1e4,
            distribution: SigmaDistribution::Geometric,
            seed: 42,
        };
        let (a, sigma) = generate::<f64>(&spec);
        let svd = polar_lapack::jacobi_svd(&a).unwrap();
        for (computed, expected) in svd.sigma.iter().zip(&sigma) {
            assert!(
                (computed - expected).abs() <= 1e-10 * (1.0 + expected),
                "{computed} vs {expected}"
            );
        }
    }

    #[test]
    fn orthonormal_factor_is_orthonormal() {
        let mut rng = StdRng::seed_from_u64(3);
        let q = random_orthonormal::<f64>(20, 7, &mut rng);
        let mut qhq = Matrix::<f64>::zeros(7, 7);
        gemm(Op::ConjTrans, Op::NoTrans, 1.0, q.as_ref(), q.as_ref(), 0.0, qhq.as_mut());
        for j in 0..7 {
            for i in 0..7 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((qhq[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn complex_generation_norm_near_one() {
        let spec = MatrixSpec::well_conditioned(16, 7);
        let (a, _) = generate::<Complex64>(&spec);
        // sigma_max = 1, so ||A||_2 = 1 and ||A||_F <= sqrt(n)
        let fro: f64 = polar_blas::norm(Norm::Fro, a.as_ref());
        assert!(fro <= 4.0 + 1e-9);
        assert!(fro >= 1.0 - 1e-9);
    }

    #[test]
    fn deterministic_by_seed() {
        let spec = MatrixSpec::well_conditioned(6, 11);
        let (a1, _) = generate::<f64>(&spec);
        let (a2, _) = generate::<f64>(&spec);
        assert_eq!(a1, a2);
        let mut spec2 = spec.clone();
        spec2.seed = 12;
        let (a3, _) = generate::<f64>(&spec2);
        assert_ne!(a1, a3);
    }

    #[test]
    fn clustered_spectrum() {
        let spec = MatrixSpec {
            m: 6,
            n: 6,
            cond: 1e8,
            distribution: SigmaDistribution::ClusteredAtInverseKappa,
            seed: 5,
        };
        let s = spec.singular_values();
        assert_eq!(s[0], 1.0);
        assert!(s[1..].iter().all(|&x| (x - 1e-8).abs() < 1e-20));
    }

    #[test]
    fn cond_capped_per_type() {
        let spec = MatrixSpec::ill_conditioned(8, 0); // kappa = 1e16
        assert_eq!(spec.clone().cond_capped(f64::EPSILON).cond, 0.1 / f64::EPSILON);
        assert_eq!(spec.clone().cond_capped(f32::EPSILON as f64).cond, 0.1 / f32::EPSILON as f64);
        // already-modest conds pass through unchanged
        let well = MatrixSpec::well_conditioned(8, 0);
        assert_eq!(well.clone().cond_capped(f32::EPSILON as f64).cond, well.cond);
    }

    #[test]
    #[should_panic(expected = "m >= n")]
    fn rejects_wide() {
        let spec = MatrixSpec {
            m: 3,
            n: 5,
            cond: 10.0,
            distribution: SigmaDistribution::Geometric,
            seed: 0,
        };
        let _ = generate::<f64>(&spec);
    }
}
