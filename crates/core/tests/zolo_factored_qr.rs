//! Zolo-PD's QR-based step factors its iterate once and gives each term a
//! QR of the two-triangle stack `[s_j R; 0; d_j I]` (`X = Q_x R`). This
//! holds it, at every degree that shares the factorization, to the accuracy
//! contract of `ragged_shapes.rs` and to two independent routes: the
//! Jacobi-SVD one and QDWH. Their Hermitian factors must agree to within
//! what the two backward errors allow (`H` is well conditioned: `||dH||_F
//! <= sqrt 2 ||dA||_F`); the unitary factor, whose sensitivity grows with
//! `kappa`, has only its own bars.

use polar_blas::norm;
use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_matrix::{Matrix, Norm};
use polar_qdwh::{
    orthogonality_error, qdwh, svd_based_polar, IterationKind, PolarDecomposition, QdwhOptions,
};
use polar_scalar::{Complex64, Real, Scalar};

/// `(m, n)`: square and aligned at tile 32, ragged, tall and ragged.
const SHAPES: [(usize, usize); 3] = [(96, 96), (83, 47), (150, 70)];

/// `ragged_shapes.rs`' double-precision bar.
const TOL: f64 = 1e-14;

fn input<S: Scalar>(m: usize, n: usize, cond: f64) -> Matrix<S> {
    let spec = MatrixSpec { m, n, cond, distribution: SigmaDistribution::Geometric, seed: 11 };
    if S::IS_COMPLEX {
        let (a, _) = generate::<Complex64>(&spec);
        let part = |x: f64| S::Real::from_f64(x);
        Matrix::from_fn(m, n, |i, j| S::from_parts(part(a[(i, j)].re), part(a[(i, j)].im)))
    } else {
        let (a, _) = generate::<f64>(&spec);
        Matrix::from_fn(m, n, |i, j| S::from_f64(a[(i, j)]))
    }
}

/// `||H_a - H_b||_F / ||H_b||_F` against `sqrt 2` times the sum of the two
/// solves' backward errors.
fn h_agrees<S: Scalar>(
    a: &Matrix<S>,
    x: &PolarDecomposition<S>,
    y: &PolarDecomposition<S>,
) -> bool {
    let (hx, hy) = (&x.h, &y.h);
    let d = Matrix::from_fn(hx.nrows(), hx.ncols(), |i, j| hx[(i, j)] - hy[(i, j)]);
    let (num, den): (S::Real, S::Real) =
        (norm(Norm::Fro, d.as_ref()), norm(Norm::Fro, hy.as_ref()));
    let bound = 2f64.sqrt() * (x.backward_error(a) + y.backward_error(a)).to_f64();
    (num / den).to_f64() <= bound
}

fn sweep<S: Scalar>() {
    let tiled = QdwhOptions { tile_nb: Some(32), ..Default::default() };
    for (m, n) in SHAPES {
        for cond in [1e8, 1e16] {
            let a = input::<S>(m, n, cond);
            // the Jacobi sweeps of the SVD route give up on the square
            // kappa = 1e16 input; QDWH is the reference there alone
            let svd = svd_based_polar(&a).ok();
            assert!(svd.is_some() || (m, n, cond) == (96, 96, 1e16), "svd route {m}x{n} {cond:e}");
            let qdwh1 = qdwh(&a, &tiled).expect("qdwh converges");
            for terms in [2usize, 3, 8] {
                let case = format!("{} {m}x{n} kappa {cond:e} terms {terms}", S::TYPE_TAG);
                let pd = qdwh(&a, &QdwhOptions { terms, ..tiled.clone() }).expect("converges");
                assert_eq!(pd.info.kinds[0], IterationKind::QrBased, "{case}: the factored step");
                let orth = orthogonality_error(&pd.u).to_f64();
                let berr = pd.backward_error(&a).to_f64();
                assert!(orth <= TOL && berr <= TOL, "{case}: orth {orth:e} berr {berr:e}");
                assert!(h_agrees(&a, &pd, &qdwh1), "{case}: H vs QDWH");
                assert!(svd.as_ref().is_none_or(|svd| h_agrees(&a, &pd, svd)), "{case}: H vs SVD");
            }
        }
    }
}

#[test]
fn zolo_factored_qr_step_matches_the_svd_and_qdwh_routes_f64() {
    sweep::<f64>();
}

#[test]
fn zolo_factored_qr_step_matches_the_svd_and_qdwh_routes_c64() {
    sweep::<Complex64>();
}
