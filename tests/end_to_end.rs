//! Cross-crate integration: generator -> QDWH -> verification against the
//! SVD-based baseline, across scalar types and shapes.

use polar::prelude::*;
use polar::qdwh::orthogonality_error;
use polar_blas::{add, gemm, norm};

fn agree<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> S::Real {
    let mut d = a.clone();
    add(-S::ONE, b.as_ref(), S::ONE, d.as_mut());
    norm(Norm::Fro, d.as_ref())
}

#[test]
fn qdwh_equals_svd_based_pd_real() {
    // The polar factor's forward sensitivity is O(eps * kappa) (its
    // condition number is ~2/(sigma_{n-1} + sigma_n)), so cross-method
    // agreement degrades with kappa even though each method's *backward*
    // error stays at machine precision.
    for (n, cond, seed) in [(32usize, 1e2, 1u64), (48, 1e4, 2), (64, 1e6, 3)] {
        let spec = MatrixSpec { m: n, n, cond, distribution: SigmaDistribution::Geometric, seed };
        let (a, _) = generate::<f64>(&spec);
        let via_qdwh = qdwh(&a, &QdwhOptions::default()).unwrap();
        let via_svd = svd_based_polar(&a).unwrap();
        let tol = 1e-13 * cond * (n as f64).sqrt();
        assert!(agree(&via_qdwh.u, &via_svd.u) < tol, "U mismatch at cond {cond}");
        assert!(agree(&via_qdwh.h, &via_svd.h) < tol, "H mismatch at cond {cond}");
        // backward error is kappa-independent for both methods
        assert!(via_qdwh.backward_error(&a) < 1e-13);
        assert!(via_svd.backward_error(&a) < 1e-13);
    }
}

#[test]
fn qdwh_equals_svd_based_pd_complex() {
    let spec = MatrixSpec {
        m: 40,
        n: 40,
        cond: 1e6,
        distribution: SigmaDistribution::Geometric,
        seed: 11,
    };
    let (a, _) = generate::<Complex64>(&spec);
    let via_qdwh = qdwh(&a, &QdwhOptions::default()).unwrap();
    let via_svd = svd_based_polar(&a).unwrap();
    assert!(agree(&via_qdwh.u, &via_svd.u) < 1e-9);
    assert!(agree(&via_qdwh.h, &via_svd.h) < 1e-9);
}

#[test]
fn rectangular_tall_all_distributions() {
    for dist in [
        SigmaDistribution::Geometric,
        SigmaDistribution::Arithmetic,
        SigmaDistribution::ClusteredAtInverseKappa,
        SigmaDistribution::Random,
    ] {
        let spec = MatrixSpec { m: 80, n: 30, cond: 1e6, distribution: dist.clone(), seed: 5 };
        let (a, _) = generate::<f64>(&spec);
        let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
        assert!(orthogonality_error(&pd.u) < 1e-12, "{dist:?}: orthogonality");
        assert!(pd.backward_error(&a) < 1e-12, "{dist:?}: backward error");
        assert!(pd.info.iterations <= 7, "{dist:?}: iterations");
    }
}

#[test]
fn h_spectrum_equals_singular_values_via_eig() {
    // end-to-end through four crates: gen -> qdwh -> lapack eig
    let spec = MatrixSpec {
        m: 36,
        n: 36,
        cond: 1e5,
        distribution: SigmaDistribution::Geometric,
        seed: 21,
    };
    let (a, sigma) = generate::<f64>(&spec);
    let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
    let eig = polar::lapack::jacobi_eig(&pd.h).unwrap();
    for (l, s) in eig.values.iter().zip(&sigma) {
        assert!((l - s).abs() < 1e-10 * (1.0 + s));
    }
}

#[test]
fn unitary_invariance_of_polar_factor() {
    // polar(Q A) = Q polar(A).U, H identical, for unitary Q
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let n = 24;
    let mut rng = StdRng::seed_from_u64(31);
    let q = polar::gen::random_orthonormal::<f64>(n, n, &mut rng);
    let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(n, 32));

    let mut qa = Matrix::<f64>::zeros(n, n);
    gemm(Op::NoTrans, Op::NoTrans, 1.0, q.as_ref(), a.as_ref(), 0.0, qa.as_mut());

    let pd_a = qdwh(&a, &QdwhOptions::default()).unwrap();
    let pd_qa = qdwh(&qa, &QdwhOptions::default()).unwrap();

    // H must be invariant
    assert!(agree(&pd_a.h, &pd_qa.h) < 1e-10);
    // U(QA) == Q U(A)
    let mut qu = Matrix::<f64>::zeros(n, n);
    gemm(Op::NoTrans, Op::NoTrans, 1.0, q.as_ref(), pd_a.u.as_ref(), 0.0, qu.as_mut());
    assert!(agree(&pd_qa.u, &qu) < 1e-10);
}

#[test]
fn scale_invariance_of_unitary_factor() {
    // polar(c A).U == polar(A).U for c > 0; H scales by c
    let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(20, 41));
    let mut a5 = a.clone();
    polar_blas::scale(5.0, a5.as_mut());
    let p1 = qdwh(&a, &QdwhOptions::default()).unwrap();
    let p5 = qdwh(&a5, &QdwhOptions::default()).unwrap();
    assert!(agree(&p1.u, &p5.u) < 1e-11);
    let mut h_scaled = p1.h.clone();
    polar_blas::scale(5.0, h_scaled.as_mut());
    assert!(agree(&h_scaled, &p5.h) < 1e-10);
}

#[test]
fn mixed_precision_pipeline() {
    let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(30, 51));
    let (pd, steps) = polar::qdwh::qdwh_mixed(&a, &QdwhOptions::default()).unwrap();
    assert!(orthogonality_error(&pd.u) < 1e-13);
    assert!(steps >= 1);
}

/// A rank-deficient input: its zero column puts the start's bound on the
/// floor, `eps^2` of the working precision, where single-precision Halley
/// weights overflow (below a bound of ~1e-10). Every plan runs in f64, so
/// the single-precision solves converge as the double one does — to the
/// partial isometry, `U` with a zero singular value. `qdwh_mixed` cannot
/// refine that to an orthogonal `U`; its f32 stage is held to the same
/// start on a column scaled by 1e-12 instead, rank-deficient in f32 only.
#[test]
fn rank_deficient_single_precision_converges() {
    let input = |scale: f64| {
        let (mut a, _) = generate::<f64>(&MatrixSpec::well_conditioned(64, 3));
        for i in 0..64 {
            a[(i, 5)] *= scale;
        }
        a
    };
    let (a, opts) = (input(0.0), QdwhOptions::default());
    let single = Matrix::<f32>::from_fn(64, 64, |i, j| a[(i, j)] as f32);
    let pd = qdwh(&single, &opts).expect("f32 converges");
    assert!(pd.backward_error(&single) < 1e-5, "f32: {:e}", pd.backward_error(&single));
    let complex =
        Matrix::<Complex32>::from_fn(64, 64, |i, j| Complex32::new(a[(i, j)] as f32, 0.0));
    let pd = qdwh(&complex, &opts).expect("c32 converges");
    assert!(pd.backward_error(&complex) < 1e-5, "c32: {:e}", pd.backward_error(&complex));
    let a = input(1e-12);
    let (pd, _) = polar::qdwh::qdwh_mixed(&a, &opts).expect("mixed converges");
    assert!(orthogonality_error(&pd.u) < 1e-13 && pd.backward_error(&a) < 1e-5);
}

#[test]
fn qdwh_eig_vs_h_matrix() {
    // eigendecompose the PSD polar factor with the QDWH spectral D&C
    let (a, sigma) = generate::<f64>(&MatrixSpec {
        m: 48,
        n: 48,
        cond: 1e4,
        distribution: SigmaDistribution::Geometric,
        seed: 61,
    });
    let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
    let e = polar::qdwh::qdwh_eig(&pd.h, &QdwhOptions::default()).unwrap();
    for (l, s) in e.values.iter().zip(&sigma) {
        assert!((l - s).abs() < 1e-9 * (1.0 + s), "{l} vs {s}");
    }
}
