//! Failure-injection and edge-shape tests for the QDWH driver: degenerate
//! inputs must produce clean errors or sensible results, never garbage.

use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_matrix::Matrix;
use polar_qdwh::{
    orthogonality_error, qdwh, qdwh_svd, svd_based_polar, IterationKind, IterationPath, QdwhError,
    QdwhOptions,
};

#[test]
fn iteration_cap_surfaces_as_error() {
    let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(24, 1));
    let opts = QdwhOptions { max_iterations: 1, ..Default::default() };
    match qdwh(&a, &opts) {
        Err(QdwhError::NoConvergence { iterations }) => assert_eq!(iterations, 1),
        other => panic!("expected NoConvergence, got {other:?}"),
    }
}

#[test]
fn forced_cholesky_on_severely_ill_conditioned_fails_cleanly() {
    // Force the Cholesky path where Z = I + c X^H X would need c ~ 1e21:
    // the factorization must either fail with NotPositiveDefinite/NonFinite
    // or still produce a decent factor — never panic or return NaN factors.
    let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(32, 2));
    let opts = QdwhOptions { path: IterationPath::ForceCholesky, ..Default::default() };
    match qdwh(&a, &opts) {
        Ok(pd) => {
            assert!(!pd.u.has_non_finite(), "factors must be finite");
            // accuracy may be degraded, but not absent
            assert!(orthogonality_error(&pd.u) < 1e-6);
        }
        Err(QdwhError::Lapack(_))
        | Err(QdwhError::NonFinite { .. })
        | Err(QdwhError::NoConvergence { .. }) => {}
        Err(other) => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn inf_input_rejected() {
    let mut a = Matrix::<f64>::identity(4, 4);
    a[(0, 3)] = f64::INFINITY;
    assert!(matches!(
        qdwh(&a, &QdwhOptions::default()),
        Err(QdwhError::NonFinite { iteration: 0 })
    ));
}

#[test]
fn one_by_one_matrices() {
    for v in [3.0f64, -2.0, 1e-30] {
        let a = Matrix::from_rows(&[&[v]]);
        let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
        // U = sign(v), H = |v|
        assert!((pd.u[(0, 0)] - v.signum()).abs() < 1e-12, "v = {v}");
        assert!((pd.h[(0, 0)] - v.abs()).abs() <= 1e-12 * v.abs().max(1.0));
    }
}

#[test]
fn single_column_input() {
    // m x 1: U = a/||a||, H = ||a||
    let a = Matrix::from_fn(7, 1, |i, _| (i as f64 + 1.0) * 0.5);
    let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
    let norm_a = polar_blas::nrm2::<f64>(a.col(0));
    assert!((pd.h[(0, 0)] - norm_a).abs() < 1e-12);
    for i in 0..7 {
        assert!((pd.u[(i, 0)] - a[(i, 0)] / norm_a).abs() < 1e-12);
    }
}

#[test]
fn negative_identity_polar() {
    // A = -I: U = -I, H = I (the nearest unitary to a rotation-reflection)
    let mut a = Matrix::<f64>::identity(6, 6);
    polar_blas::scale(-1.0, a.as_mut());
    let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
    for i in 0..6 {
        assert!((pd.u[(i, i)] + 1.0).abs() < 1e-12);
        assert!((pd.h[(i, i)] - 1.0).abs() < 1e-12);
    }
}

#[test]
fn nearly_rank_deficient_still_stable() {
    // kappa ~ 1/eps: sigma_min below eps*sigma_max; QDWH must still return
    // an orthonormal factor with tiny backward error
    let spec = MatrixSpec {
        m: 40,
        n: 40,
        cond: 1e18,
        distribution: SigmaDistribution::Geometric,
        seed: 3,
    };
    let (a, _) = generate::<f64>(&spec);
    let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
    assert!(orthogonality_error(&pd.u) < 1e-12);
    assert!(pd.backward_error(&a) < 1e-12);
    // The plan from `l0 ~ 2e-18` is six steps, three of each kind, and the
    // solve runs exactly those first.
    use IterationKind::{CholeskyBased as Chol, QrBased as Qr};
    assert_eq!(pd.info.kinds[..6], [Qr, Qr, Qr, Chol, Chol, Chol]);
    // What follows is the continuation: Halley steps with the bound at 1,
    // one emitted step at a time. Past `kappa = 1/eps` a QR that factors
    // `sqrt(c) X` before it meets the identity below it — the tile QR, or a
    // dense `geqrf` of the top block followed by one of `[R; I]`: the same
    // digits — sees a numerically singular block, and the first step can
    // leave one singular value under the planned bound (1.8e-7 against
    // 3.2e-6 on this input; a `geqrf` of the whole stack leaves none). Each
    // such value costs continuation steps: none to three over a dozen seeds,
    // three here, none on any seed at `kappa = 1e16`.
    let continuation = &pd.info.records[6..];
    assert!(continuation.len() <= 3, "{:?}", pd.info.convergence_history());
    assert!(continuation.iter().all(|r| r.kind == Chol && r.ell == 1.0));
}

#[test]
fn qdwh_svd_rejects_wide() {
    let a = Matrix::<f64>::zeros(3, 6);
    assert!(qdwh_svd(&a, &QdwhOptions::default()).is_err());
}

#[test]
fn svd_pd_zero_matrix() {
    let a = Matrix::<f64>::zeros(4, 3);
    let pd = svd_based_polar(&a).unwrap();
    assert!(orthogonality_error(&pd.u) < 1e-12);
    let h_norm: f64 = polar_blas::norm(polar_matrix::Norm::Fro, pd.h.as_ref());
    assert_eq!(h_norm, 0.0);
}

#[test]
fn custom_spectrum_with_zero_sigma() {
    // explicitly singular input through the generator's custom mode
    let spec = MatrixSpec {
        m: 10,
        n: 6,
        cond: 1.0,
        distribution: SigmaDistribution::Custom(vec![2.0, 1.5, 1.0, 0.5, 0.1, 0.0]),
        seed: 8,
    };
    let (a, _) = generate::<f64>(&spec);
    // QDWH on exactly singular input: l0 clamps at its floor and the
    // iteration either converges to a valid sub-polar factor or errors;
    // it must not produce non-finite values.
    match qdwh(&a, &QdwhOptions::default()) {
        Ok(pd) => {
            assert!(!pd.u.has_non_finite());
            assert!(pd.backward_error(&a) < 1e-10);
        }
        Err(QdwhError::Lapack(_))
        | Err(QdwhError::NoConvergence { .. })
        | Err(QdwhError::NonFinite { .. }) => {}
        Err(other) => panic!("unexpected {other:?}"),
    }
}

#[test]
fn tiny_scaled_matrix_no_underflow() {
    // entries near the underflow threshold: the two-norm scaling must
    // normalize them without producing zeros/NaNs
    let (mut a, _) = generate::<f64>(&MatrixSpec::well_conditioned(16, 9));
    polar_blas::scale(1e-290, a.as_mut());
    let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
    assert!(orthogonality_error(&pd.u) < 1e-12);
    assert!(pd.backward_error(&a) < 1e-12);
}

#[test]
fn huge_scaled_matrix_no_overflow() {
    let (mut a, _) = generate::<f64>(&MatrixSpec::well_conditioned(16, 10));
    polar_blas::scale(1e250, a.as_mut());
    let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
    assert!(orthogonality_error(&pd.u) < 1e-12);
    assert!(pd.backward_error(&a) < 1e-12);
}
