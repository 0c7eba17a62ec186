//! The QDWH driver — Algorithm 1 of the paper: the solve's vocabulary
//! (errors, telemetry, accuracy metrics), the one entry point [`qdwh`] and
//! QDWH as a [`Method`] of [`crate::skeleton::solve`].

use crate::options::{IterationKind, QdwhOptions};
use crate::skeleton::{plan, qdwh_flops, solve, Method, Step};
use crate::zolo::{Zolotarev, DEGREES};
use polar_blas::{gemm, herk_mirrored, norm};
use polar_lapack::LapackError;
use polar_matrix::{Matrix, Norm, Op, Uplo};
use polar_scalar::{Real, Scalar};

/// Errors from the QDWH driver.
#[derive(Debug, Clone, PartialEq)]
pub enum QdwhError {
    /// `m < n`: transpose the input (the polar decomposition of `A^H` is
    /// `H U_p^H` reversed).
    Shape(&'static str),
    /// A factorization inside an iteration failed.
    Lapack(LapackError),
    /// Non-finite values appeared (NaN/Inf input or breakdown).
    NonFinite { iteration: usize },
    /// The iteration cap was hit before the convergence test passed.
    NoConvergence { iterations: usize },
    /// The [`QdwhOptions::progress`](crate::options::QdwhOptions::progress)
    /// hook requested cancellation, polled at a task release, before this
    /// iteration completed.
    Cancelled { iteration: usize },
}

impl QdwhError {
    /// Classify this failure for retry policies (see
    /// [`polar_lapack::FailureClass`]).
    pub fn class(&self) -> polar_lapack::FailureClass {
        use polar_lapack::FailureClass;
        match self {
            QdwhError::Lapack(e) => e.class(),
            // an exhausted iteration cap may succeed with a larger budget
            QdwhError::NoConvergence { .. } => FailureClass::Transient,
            // deterministic input properties / explicit caller intent
            QdwhError::Shape(_) | QdwhError::NonFinite { .. } | QdwhError::Cancelled { .. } => {
                FailureClass::Permanent
            }
        }
    }
}

impl From<LapackError> for QdwhError {
    fn from(e: LapackError) -> Self {
        QdwhError::Lapack(e)
    }
}

impl std::fmt::Display for QdwhError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QdwhError::Shape(m) => write!(f, "shape error: {m}"),
            QdwhError::Lapack(e) => write!(f, "factorization error: {e}"),
            QdwhError::NonFinite { iteration } => {
                write!(f, "non-finite values at iteration {iteration}")
            }
            QdwhError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            QdwhError::Cancelled { iteration } => {
                write!(f, "cancelled before iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for QdwhError {}

/// Telemetry for one Halley iteration: the paper's per-iteration
/// convergence data (Fig. 2) plus the kernel-time and achieved-GFlop/s
/// breakdown from `polar-obs`.
///
/// An iteration is one phase of the solve's task graph, and both `seconds`
/// and `kernels` are what the executor measured of that phase
/// ([`polar_runtime::PhaseProfile`]). The kernel breakdown counts each of the
/// phase's tasks as one kernel of its kind's class, with the task's analytic
/// flops and its busy time; it is all zeros unless metrics are enabled
/// (`POLAR_METRICS=1`, `polar_obs::scope()`, or
/// `polar_obs::set_metrics_enabled(true)`). For a QR-based iteration the
/// time concentrates in the `geqrf`/`orgqr` classes, for a Cholesky-based
/// one in `herk`/`potrf`/`trsm` — the Eq. (1) vs. Eq. (2) split the paper's
/// figures are built on.
#[derive(Debug, Clone)]
pub struct IterationRecord<R> {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Which update (Eq. (1) QR or Eq. (2) Cholesky) ran.
    pub kind: IterationKind,
    /// Lower bound `l_k` after this iteration's update.
    pub ell: R,
    /// `||X_k - X_{k-1}||_F` (Algorithm 1 line 48).
    pub convergence: R,
    /// Measured window of the iteration in seconds: from the start of its
    /// first task to the end of its last. The graph overlaps iteration
    /// `k + 1`'s panel work with iteration `k`'s tail, so consecutive
    /// windows overlap and their sum exceeds the solve's wall time.
    pub seconds: f64,
    /// Per-kernel-class calls / analytic flops / busy time of this
    /// iteration's own tasks.
    pub kernels: polar_obs::KernelSnapshot,
}

impl<R: Real> IterationRecord<R> {
    /// Achieved GFlop/s over the whole iteration (analytic kernel flops
    /// over the iteration's window); zero when metrics were disabled.
    pub fn achieved_gflops(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.kernels.total_flops() as f64 / self.seconds * 1e-9
        }
    }
}

/// Per-run telemetry: what the benchmark harness and the experiment
/// reports consume.
#[derive(Debug, Clone)]
pub struct QdwhInfo<R> {
    /// Two-norm estimate `alpha` used for the initial scaling (line 11).
    pub alpha: R,
    /// Condition-estimate-derived lower bound `l_0` (line 19).
    pub l0: R,
    /// Total iterations.
    pub iterations: usize,
    /// QR-based iterations (Eq. (1)).
    pub qr_iterations: usize,
    /// Cholesky-based iterations (Eq. (2)).
    pub chol_iterations: usize,
    /// The kind of each iteration in order.
    pub kinds: Vec<IterationKind>,
    /// One [`IterationRecord`] per iteration, in order: convergence
    /// residual, `l_k`, measured window, and the kernel breakdown.
    pub records: Vec<IterationRecord<R>>,
    /// Floating-point operation estimate from the paper's complexity
    /// formula (§4), in real flops.
    pub flops_estimate: f64,
}

impl<R: Real> QdwhInfo<R> {
    /// Orthogonality error of a computed factor: `||I - U^H U||_F / sqrt(n)`
    /// (the paper's Fig. 1a metric).
    pub fn orthogonality_error<S: Scalar<Real = R>>(&self, u: &Matrix<S>) -> R {
        orthogonality_error(u)
    }

    /// `||A_k - A_{k-1}||_F` per iteration (line 48) — the old bare
    /// convergence history, now a view over [`records`](Self::records).
    pub fn convergence_history(&self) -> Vec<R> {
        self.records.iter().map(|r| r.convergence).collect()
    }
}

/// `||H - H^H||_F / max(||H||_F, 1)`: deviation of a computed factor
/// from exact Hermitian symmetry. On the driver's output this is zero by
/// construction (line 52 symmetrizes); applied to the raw `U_p^H A`
/// product it is the paper's third accuracy metric — one of the
/// backward-stability criteria of Benner/Nakatsukasa/Penke
/// (arXiv:2104.06659) for QDWH-type iterations.
pub fn hermitian_deviation<S: Scalar>(h: &Matrix<S>) -> S::Real {
    let n = h.ncols();
    if n == 0 || h.nrows() != n {
        return S::Real::ZERO;
    }
    let mut dev = S::Real::ZERO;
    for j in 0..n {
        for i in 0..n {
            let d = h[(i, j)] - h[(j, i)].conj();
            dev += d.abs_sq();
        }
    }
    let scale: S::Real = norm(Norm::Fro, h.as_ref());
    dev.sqrt() / scale.max(S::Real::ONE)
}

/// Positive-semidefiniteness deviation of a Hermitian factor:
/// `max(0, -lambda_min(H)) / max(lambda_max(H), 1)`, i.e. the most
/// negative eigenvalue relative to the spectral radius. Zero for an
/// exactly PSD matrix; `O(eps)` for a backward-stable polar `H`.
pub fn psd_deviation<S: Scalar>(h: &Matrix<S>) -> Result<S::Real, QdwhError> {
    if h.ncols() == 0 {
        return Ok(S::Real::ZERO);
    }
    let eig = polar_lapack::jacobi_eig(h)?;
    let lmax = *eig.values.first().expect("nonempty spectrum");
    let lmin = *eig.values.last().expect("nonempty spectrum");
    Ok((-lmin).max(S::Real::ZERO) / lmax.max(S::Real::ONE))
}

/// `||I - U^H U||_F / sqrt(n)` (Fig. 1a metric), available standalone.
pub fn orthogonality_error<S: Scalar>(u: &Matrix<S>) -> S::Real {
    let n = u.ncols();
    if n == 0 {
        return S::Real::ZERO;
    }
    // G = I - U^H U is Hermitian: rank-k update on one triangle (half the
    // gemm flops), mirrored for the Frobenius norm
    let mut g = Matrix::<S>::identity(n, n);
    herk_mirrored(Uplo::Lower, Op::ConjTrans, -S::Real::ONE, u.as_ref(), S::Real::ONE, g.as_mut());
    let fro: S::Real = norm(Norm::Fro, g.as_ref());
    fro / S::Real::from_usize(n).sqrt()
}

/// Result of [`qdwh`]: `A = U_p H` plus run telemetry.
#[derive(Debug, Clone)]
pub struct PolarDecomposition<S: Scalar> {
    /// Unitary (orthonormal-columns) polar factor, `m x n`.
    pub u: Matrix<S>,
    /// Hermitian positive-semidefinite factor, `n x n` (empty when
    /// `compute_h` is off).
    pub h: Matrix<S>,
    pub info: QdwhInfo<S::Real>,
}

impl<S: Scalar> PolarDecomposition<S> {
    /// Backward error `||A - U_p H||_F / ||A||_F` (the paper's Fig. 1b
    /// metric). Requires `compute_h`.
    pub fn backward_error(&self, a: &Matrix<S>) -> S::Real {
        let mut recon = a.clone();
        // recon := U H - A
        gemm(
            Op::NoTrans,
            Op::NoTrans,
            S::ONE,
            self.u.as_ref(),
            self.h.as_ref(),
            -S::ONE,
            recon.as_mut(),
        );
        let err: S::Real = norm(Norm::Fro, recon.as_ref());
        let scale: S::Real = norm(Norm::Fro, a.as_ref());
        if scale == S::Real::ZERO {
            err
        } else {
            err / scale
        }
    }
}

/// Polar decomposition (`A` is `m x n`, `m >= n`) by rational steps of
/// `opts.terms` terms: QDWH (Algorithm 1) at one, Zolo-PD above. A `terms`
/// outside `1..=8` is a `Shape` error, before anything is allocated.
pub fn qdwh<S: Scalar>(
    a: &Matrix<S>,
    opts: &QdwhOptions,
) -> Result<PolarDecomposition<S>, QdwhError> {
    match opts.terms {
        1 => solve(a, opts, &Halley(opts)),
        r if DEGREES.contains(&r) => solve(a, opts, &Zolotarev(r)),
        _ => Err(QdwhError::Shape("QdwhOptions::terms must lie in 1..=8")),
    }
}

/// The steps from the bound `ell` as [`qdwh`] plans them under `opts`:
/// empty when the last step's norm `conv` and `ell` pass the stop test,
/// `None` past `budget` steps or for a `terms` outside `1..=8`. Every plan
/// runs in f64 whatever `S`: a kernel gets its coefficients rounded to `S`
/// ([`crate::Term::applied`]'s), and the stop test compares with `S`'s
/// precision.
pub fn qdwh_plan<S: Scalar>(
    opts: &QdwhOptions,
    ell: f64,
    conv: f64,
    budget: usize,
) -> Option<Vec<Step<f64>>> {
    match opts.terms {
        1 => plan::<S, _>(&Halley(opts), ell, conv, budget),
        r if DEGREES.contains(&r) => plan::<S, _>(&Zolotarev(r), ell, conv, budget),
        _ => None,
    }
}

/// QDWH under [`solve`]: dynamically weighted Halley steps, stopped by the
/// paper's two-part test.
pub(crate) struct Halley<'a>(pub &'a QdwhOptions);

impl<S: Scalar> Method<S> for Halley<'_> {
    const NAME: &'static str = "qdwh";
    const FIRST_CONV: f64 = 100.0;

    fn step_at(&self, ell: f64) -> Step<f64> {
        Step::halley(ell, self.0.path, self.0.qr_switch_threshold)
    }

    /// Algorithm 1 line 22: `||X_k - X_{k-1}||_F` below `cbrt(5 eps)` — the
    /// tolerance of a cubically convergent method — and `|l_k - 1| < 5 eps`,
    /// `eps` the precision of `S`.
    fn converged(conv: f64, ell: f64) -> bool {
        let five_eps = 5.0 * S::Real::EPSILON.to_f64();
        conv < five_eps.cbrt() && (ell - 1.0).abs() < five_eps
    }

    fn flops(&self, n: usize, info: &QdwhInfo<S::Real>) -> f64 {
        qdwh_flops(n, info.qr_iterations, info.chol_iterations, S::IS_COMPLEX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::IterationPath;
    use polar_gen::{generate, MatrixSpec, SigmaDistribution};
    use polar_scalar::{Complex32, Complex64};

    fn check_polar<S: Scalar>(
        a: &Matrix<S>,
        opts: &QdwhOptions,
        tol: S::Real,
    ) -> PolarDecomposition<S> {
        let pd = qdwh(a, opts).expect("qdwh converged");
        let orth = orthogonality_error(&pd.u);
        assert!(orth <= tol, "orthogonality error {orth:?}");
        if opts.compute_h {
            let berr = pd.backward_error(a);
            assert!(berr <= tol, "backward error {berr:?}");
            // H Hermitian
            for j in 0..pd.h.ncols() {
                for i in 0..pd.h.nrows() {
                    assert!((pd.h[(i, j)] - pd.h[(j, i)].conj()).abs() <= tol, "H not Hermitian");
                }
            }
        }
        pd
    }

    #[test]
    fn stop_test_has_two_parts() {
        let converged = <Halley as Method<f64>>::converged;
        assert!(converged(0.0, 1.0));
        assert!(!converged(1e-3, 1.0), "conv above cbrt(5 eps)");
        assert!(!converged(0.0, 1.0 - 1e-12), "bound not at 1");
        assert!(converged(1e-6, 1.0 - 4.0 * f64::EPSILON));
    }

    #[test]
    fn well_conditioned_double() {
        let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(60, 1));
        let pd = check_polar(&a, &QdwhOptions::default(), 1e-13);
        // well-conditioned (§4): no QR iterations, few Cholesky ones
        assert_eq!(pd.info.qr_iterations, 0, "kinds: {:?}", pd.info.kinds);
        assert!(pd.info.chol_iterations <= 4);
    }

    #[test]
    fn ill_conditioned_double_iteration_split() {
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(80, 2));
        let pd = check_polar(&a, &QdwhOptions::default(), 1e-12);
        // the paper's worst-case bound: at most six iterations total.
        // With our tight sigma_min seed the split is 2 QR + 4 Cholesky;
        // the paper's sqrt(n)-deflated estimate gives 3 + 3 (see the
        // paper_formula_seed test below).
        assert!(pd.info.iterations <= 6, "iterations = {}", pd.info.iterations);
        assert!((2..=3).contains(&pd.info.qr_iterations), "kinds: {:?}", pd.info.kinds);
        assert!((3..=4).contains(&pd.info.chol_iterations));
    }

    #[test]
    fn lu_formula_seed_works() {
        // §4 stage (1) offers LU+gecondest as the alternative condition
        // estimate; it must give the same qualitative behavior as QR
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(48, 21));
        let opts = QdwhOptions {
            l0_strategy: crate::options::L0Strategy::LuFormula,
            ..Default::default()
        };
        let pd = check_polar(&a, &opts, 1e-12);
        assert!(pd.info.iterations <= 7);
        assert!(pd.info.qr_iterations >= 2);

        // rectangular inputs silently take the QR route
        let spec = MatrixSpec {
            m: 40,
            n: 20,
            cond: 1e6,
            distribution: SigmaDistribution::Geometric,
            seed: 22,
        };
        let (rect, _) = generate::<f64>(&spec);
        let pd = check_polar(&rect, &opts, 1e-12);
        assert!(pd.info.iterations <= 7);
    }

    #[test]
    fn ill_conditioned_paper_formula_seed() {
        // The literal Algorithm 1 l0 formula underestimates sigma_min by
        // ~sqrt(n), reproducing the paper's reported 3 QR + 3 Cholesky
        // split at kappa = 1e16.
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(80, 2));
        let opts = QdwhOptions {
            l0_strategy: crate::options::L0Strategy::PaperFormula,
            ..Default::default()
        };
        let pd = check_polar(&a, &opts, 1e-12);
        assert!(pd.info.iterations <= 7, "iterations = {}", pd.info.iterations);
        assert_eq!(pd.info.qr_iterations, 3, "kinds: {:?}", pd.info.kinds);
    }

    #[test]
    fn rectangular_input() {
        let spec = MatrixSpec {
            m: 90,
            n: 40,
            cond: 1e8,
            distribution: SigmaDistribution::Geometric,
            seed: 3,
        };
        let (a, _) = generate::<f64>(&spec);
        let pd = check_polar(&a, &QdwhOptions::default(), 1e-12);
        assert_eq!(pd.u.nrows(), 90);
        assert_eq!(pd.u.ncols(), 40);
        assert_eq!(pd.h.nrows(), 40);
    }

    #[test]
    fn all_four_types() {
        let n = 24;
        let (a64, _) = generate::<f64>(&MatrixSpec::well_conditioned(n, 4));
        check_polar(&a64, &QdwhOptions::default(), 1e-13);

        let (az, _) = generate::<Complex64>(&MatrixSpec::well_conditioned(n, 5));
        check_polar(&az, &QdwhOptions::default(), 1e-13);

        // single precision: generate in f64, convert, relax tolerance
        let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(n, 6));
        let a32 = Matrix::<f32>::from_fn(n, n, |i, j| a[(i, j)] as f32);
        check_polar(&a32, &QdwhOptions::default(), 2e-5f32);

        let (az64, _) = generate::<Complex64>(&MatrixSpec::well_conditioned(n, 7));
        let ac32 = Matrix::<Complex32>::from_fn(n, n, |i, j| {
            Complex32::new(az64[(i, j)].re as f32, az64[(i, j)].im as f32)
        });
        check_polar(&ac32, &QdwhOptions::default(), 2e-5f32);
    }

    #[test]
    fn identity_input_converges_immediately() {
        let a = Matrix::<f64>::identity(10, 10);
        let pd = check_polar(&a, &QdwhOptions::default(), 1e-13);
        // the matrix converges instantly; the l-bound needs a couple of
        // updates to certify |l - 1| < 5 eps
        assert!(pd.info.iterations <= 3, "iterations = {}", pd.info.iterations);
        // U = I, H = I
        for i in 0..10 {
            assert!((pd.u[(i, i)] - 1.0).abs() < 1e-13);
            assert!((pd.h[(i, i)] - 1.0).abs() < 1e-13);
        }
    }

    #[test]
    fn zero_matrix_special_case() {
        let a = Matrix::<f64>::zeros(5, 3);
        let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
        assert_eq!(pd.info.iterations, 0);
        let fro: f64 = norm(Norm::Fro, pd.h.as_ref());
        assert_eq!(fro, 0.0);
        assert!(orthogonality_error(&pd.u) < 1e-15);
    }

    #[test]
    fn wide_input_rejected() {
        let a = Matrix::<f64>::zeros(3, 5);
        assert!(matches!(qdwh(&a, &QdwhOptions::default()), Err(QdwhError::Shape(_))));
    }

    #[test]
    fn nan_input_rejected() {
        let mut a = Matrix::<f64>::identity(4, 4);
        a[(1, 2)] = f64::NAN;
        assert!(matches!(
            qdwh(&a, &QdwhOptions::default()),
            Err(QdwhError::NonFinite { iteration: 0 })
        ));
    }

    #[test]
    fn force_qr_path_still_converges() {
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(40, 8));
        let opts = QdwhOptions { path: IterationPath::ForceQr, ..Default::default() };
        let pd = check_polar(&a, &opts, 1e-12);
        assert_eq!(pd.info.chol_iterations, 0);
    }

    #[test]
    fn hermitian_and_psd_deviation_metrics() {
        let (a, _) = generate::<Complex64>(&MatrixSpec::ill_conditioned(24, 19));
        let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
        // driver output is symmetrized, so the deviation is exactly zero
        assert_eq!(hermitian_deviation(&pd.h), 0.0);
        // raw U^H A deviates from Hermitian by O(eps)
        let mut raw = Matrix::<Complex64>::zeros(24, 24);
        gemm(
            Op::ConjTrans,
            Op::NoTrans,
            Complex64::ONE,
            pd.u.as_ref(),
            a.as_ref(),
            Complex64::ZERO,
            raw.as_mut(),
        );
        let dev = hermitian_deviation(&raw);
        assert!(dev > 0.0 && dev < 1e-13, "dev = {dev:e}");
        // H is PSD to machine precision
        let psd = psd_deviation(&pd.h).unwrap();
        assert!(psd < 1e-13, "psd deviation = {psd:e}");
        // an indefinite matrix is flagged
        let mut indef = Matrix::<f64>::identity(4, 4);
        indef[(3, 3)] = -0.5;
        assert!(psd_deviation(&indef).unwrap() >= 0.5);
        // non-square / empty inputs are inert
        assert_eq!(hermitian_deviation(&Matrix::<f64>::zeros(3, 2)), 0.0);
        assert_eq!(psd_deviation(&Matrix::<f64>::zeros(0, 0)).unwrap(), 0.0);
    }

    #[test]
    fn h_is_positive_semidefinite() {
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(30, 10));
        let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
        let eig = polar_lapack::jacobi_eig(&pd.h).unwrap();
        let lmax = eig.values[0];
        for &l in &eig.values {
            assert!(l >= -1e-12 * lmax.max(1.0), "negative eigenvalue {l}");
        }
    }

    #[test]
    fn h_eigenvalues_are_singular_values() {
        let spec = MatrixSpec {
            m: 20,
            n: 20,
            cond: 1e3,
            distribution: SigmaDistribution::Geometric,
            seed: 11,
        };
        let (a, sigma) = generate::<f64>(&spec);
        let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
        let eig = polar_lapack::jacobi_eig(&pd.h).unwrap();
        for (l, s) in eig.values.iter().zip(&sigma) {
            assert!((l - s).abs() < 1e-11 * (1.0 + s), "{l} vs {s}");
        }
    }

    #[test]
    fn factor_only_skips_h() {
        let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(16, 12));
        let pd = qdwh(&a, &QdwhOptions::factor_only()).unwrap();
        assert_eq!(pd.h.nrows(), 0);
        assert!(orthogonality_error(&pd.u) < 1e-13);
    }

    #[test]
    fn flops_estimate_matches_formula() {
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(32, 13));
        let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
        // (the §4 numbers themselves: `skeleton::cost_models_match_the_paper`)
        let expect = qdwh_flops(32, pd.info.qr_iterations, pd.info.chol_iterations, false);
        assert_eq!(pd.info.flops_estimate, expect);
        assert!(pd.info.qr_iterations >= 2 && pd.info.chol_iterations >= 3);
    }

    /// The hook is polled at task releases of the graph, whatever the size
    /// (here one tile column): it sees the solve advance, and a `Cancel`
    /// stops it within one task. `tests/hooked_fused.rs` pins the rest
    /// (bitwise neutrality, the norms it is shown, the drains).
    #[test]
    fn progress_hook_watches_and_cancels_a_small_solve() {
        use crate::options::{IterationDecision, IterationProgress};
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<IterationProgress>>> = Arc::default();
        let hook = |cancel_from: usize| {
            let log = seen.clone();
            QdwhOptions {
                progress: Some(Arc::new(move |p: &IterationProgress| {
                    log.lock().unwrap().push(*p);
                    if p.iteration >= cancel_from {
                        IterationDecision::Cancel
                    } else {
                        IterationDecision::Continue
                    }
                })),
                ..Default::default()
            }
        };
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(30, 17));
        let pd = qdwh(&a, &hook(usize::MAX)).unwrap();
        let watched = std::mem::take(&mut *seen.lock().unwrap());
        assert!(watched.len() > pd.info.iterations, "polled per task release");
        assert_eq!(watched[0].iteration, 1);
        assert!(watched.windows(2).all(|w| w[0].iteration <= w[1].iteration));
        assert!(watched.last().unwrap().convergence < 1.0);

        match qdwh(&a, &hook(3)) {
            Err(QdwhError::Cancelled { iteration }) if iteration >= 3 => {}
            other => panic!("expected cancellation at iteration 3, got {other:?}"),
        }
        let polled = seen.lock().unwrap();
        assert_eq!(polled.iter().filter(|p| p.iteration >= 3).count(), 1, "polled after Cancel");
        assert_eq!(
            QdwhError::Cancelled { iteration: 3 }.class(),
            polar_lapack::FailureClass::Permanent
        );
    }

    /// Every small shape runs the same graph: one tile column no wider than
    /// the matrix, down to a single entry.
    #[test]
    fn tiny_shapes_solve_on_the_graph() {
        fn case<S: Scalar>(m: usize, n: usize) {
            let spec = MatrixSpec {
                m,
                n,
                cond: 50.0,
                distribution: SigmaDistribution::Geometric,
                seed: (31 * m + n) as u64,
            };
            let (az, _) = generate::<Complex64>(&spec);
            let a = Matrix::<S>::from_fn(m, n, |i, j| {
                S::from_parts(S::Real::from_f64(az[(i, j)].re), S::Real::from_f64(az[(i, j)].im))
            });
            let tol = S::Real::from_f64(50.0) * S::Real::EPSILON;
            let pd = check_polar(&a, &QdwhOptions::default(), tol);
            assert!(pd.info.iterations >= 1, "{} {m}x{n}", S::TYPE_TAG);
            let zolo = QdwhOptions { terms: 8, ..Default::default() };
            let z = qdwh(&a, &zolo).expect("zolo converged");
            assert!(orthogonality_error(&z.u) <= tol, "{} zolo {m}x{n}", S::TYPE_TAG);
            assert!(z.backward_error(&a) <= tol, "{} zolo {m}x{n}", S::TYPE_TAG);
        }
        let square = (1..=9).map(|n| (n, n));
        let tall = [1usize, 2, 7].into_iter().flat_map(|n| [(n + 1, n), (2 * n + 3, n), (40, n)]);
        for (m, n) in square.chain(tall) {
            case::<f64>(m, n);
            case::<Complex64>(m, n);
            case::<f32>(m, n);
            case::<Complex32>(m, n);
        }
    }

    #[test]
    fn convergence_history_is_decreasing_tail() {
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(40, 14));
        let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
        let h = pd.info.convergence_history();
        assert_eq!(h.len(), pd.info.iterations);
        // cubic convergence: the last step must be tiny
        assert!(*h.last().unwrap() < 1e-8);
    }

    #[test]
    fn iteration_records_describe_each_iteration() {
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(40, 14));
        let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
        assert_eq!(pd.info.records.len(), pd.info.iterations);
        for (k, rec) in pd.info.records.iter().enumerate() {
            assert_eq!(rec.iteration, k + 1);
            assert_eq!(rec.kind, pd.info.kinds[k]);
            assert!(rec.seconds >= 0.0);
        }
        // l_k marches to 1 (the convergence certificate of Algorithm 1)
        let last = pd.info.records.last().unwrap();
        assert!((last.ell - 1.0).abs() < 1e-12, "ell = {}", last.ell);
    }
}
