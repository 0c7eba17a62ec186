//! Zolo-PD: polar decomposition via Zolotarev's optimal rational
//! approximation of the sign function — the paper's §8 closing future-work
//! item ("the Zolo PD algorithm [25], which requires an even higher number
//! of flops than QDWH-based PD, but can exploit a higher level of
//! concurrency, making it attractive in the strong-scaling regime").
//!
//! Where QDWH applies a degree-(3,2) dynamically-weighted Halley map per
//! iteration (≤ 6 iterations at κ = 1e16), Zolo-PD applies the optimal
//! degree-(2r+1, 2r) Zolotarev map: with `r = 8` **two** iterations
//! suffice at κ = 1e16, because composing two Zolotarev functions is again
//! Zolotarev-optimal of degree (2r+1)² = 289 (Nakatsukasa & Freund 2016).
//! The price is `r` factorizations per iteration — but they are *mutually
//! independent*, which is exactly the extra concurrency the paper wants
//! for strong scaling. They are stacked QRs only while they must be: as in
//! Algorithm 1 (and Nakatsukasa–Freund's Algorithm 5.1), an iteration whose
//! interval `[ell, 1]` makes every `Z_j = X^H X + c_{2j-1} I` well
//! conditioned is Cholesky-based — `r` Cholesky factorizations of shifted
//! copies of one Gram matrix (`ZoloIterPlan::at` decides, from `ell`
//! alone). At `r = 8` that is the second of the two iterations.

use crate::options::{IterationKind, L0Strategy, ProgressHook};
use crate::qdwh_impl::{PolarDecomposition, QdwhError, QdwhInfo};
use crate::skeleton::{plan, solve, zolo_flops, Common, Method};
use crate::solve_dag::{Hooked, Iterate, NormSink};
use crate::zolo_fused::{ZoloIterPlan, ZoloWorkspace};
use polar_matrix::Matrix;
use polar_runtime::PhaseProfile;
use polar_scalar::{Real, Scalar};

/// Options for [`zolo_pd`].
#[derive(Clone)]
pub struct ZoloOptions {
    /// Zolotarev degree parameter: `r` partial-fraction terms, i.e. a
    /// type-(2r+1, 2r) rational map per iteration. `r = 8` gives the
    /// two-iteration guarantee at double precision; smaller `r`
    /// interpolates toward QDWH-like behavior.
    pub r: usize,
    /// Iteration safety cap.
    pub max_iterations: usize,
    /// Compute the Hermitian factor.
    pub compute_h: bool,
    /// Tile size of the solve's task graph, as
    /// [`QdwhOptions::tile_nb`](crate::options::QdwhOptions::tile_nb).
    pub tile_nb: Option<usize>,
    /// Optional progress/cancellation hook, with the semantics of
    /// [`QdwhOptions::progress`](crate::options::QdwhOptions::progress).
    pub progress: Option<ProgressHook>,
}

impl std::fmt::Debug for ZoloOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZoloOptions")
            .field("r", &self.r)
            .field("max_iterations", &self.max_iterations)
            .field("compute_h", &self.compute_h)
            .field("tile_nb", &self.tile_nb)
            .field("progress", &self.progress.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl Default for ZoloOptions {
    fn default() -> Self {
        Self { r: 8, max_iterations: 6, compute_h: true, tile_nb: None, progress: None }
    }
}

impl ZoloOptions {
    /// The kind of each iteration [`zolo_pd`] runs under these options from
    /// the interval bound `l0`: the scalar plan alone, no matrix. `None`
    /// when `max_iterations` comes first (or `r = 0`).
    pub fn planned_kinds(&self, l0: f64) -> Option<Vec<IterationKind>> {
        if self.r == 0 {
            return None;
        }
        let steps = plan::<f64, _>(&Zolotarev(self), l0, 0.0, self.max_iterations)?;
        Some(steps.iter().map(|step| step.kind).collect())
    }
}

/// Result of [`zolo_pd`]: the decomposition plus the count of stacked-QR
/// factorizations performed.
#[derive(Debug, Clone)]
pub struct ZoloOutcome<S: Scalar> {
    pub pd: PolarDecomposition<S>,
    /// Total stacked-QR factorizations: `r` per QR-based iteration
    /// (`pd.info.qr_iterations`), each independent within its iteration;
    /// a Cholesky-based iteration (`pd.info.chol_iterations`) has none.
    pub qr_factorizations: usize,
}

/// Zolotarev-rational polar decomposition (`m >= n`).
pub fn zolo_pd<S: Scalar>(a: &Matrix<S>, zopts: &ZoloOptions) -> Result<ZoloOutcome<S>, QdwhError> {
    if zopts.r == 0 {
        return Err(QdwhError::Shape("zolo_pd requires r >= 1"));
    }
    let pd = solve(a, &Zolotarev(zopts))?;
    // r stacked QRs per QR-based iteration
    Ok(ZoloOutcome { qr_factorizations: zopts.r * pd.info.qr_iterations, pd })
}

/// Zolo-PD under [`solve`]: type-`(2r+1, 2r)` Zolotarev steps, stopped when
/// the interval bound reaches 1.
pub(crate) struct Zolotarev<'a>(pub &'a ZoloOptions);

impl<S: Scalar> Method<S> for Zolotarev<'_> {
    type Ell = f64;
    type Step = ZoloIterPlan;
    type Workspace = ZoloWorkspace<S>;
    const NAME: &'static str = "zolo";
    const FIRST_CONV: f64 = f64::MAX;

    fn common(&self) -> Common<'_> {
        let o = self.0;
        Common {
            max_iterations: o.max_iterations,
            compute_h: o.compute_h,
            tile_nb: o.tile_nb,
            progress: o.progress.as_ref(),
            l0_override: None,
            l0_strategy: L0Strategy::SigmaMinPowerIteration,
        }
    }

    fn step_at(&self, ell: f64) -> ZoloIterPlan {
        ZoloIterPlan::at(ell, self.0.r)
    }

    fn outcome(step: &ZoloIterPlan) -> (IterationKind, f64) {
        (step.kind, step.ell_after)
    }

    /// The sampled `[fmin, fmax]` bracket is accurate to a few ulps and the
    /// initial `l0` estimate to a few ulps more (it is sensitive to
    /// summation order in the underlying gemm), so 50 eps (rather than
    /// QDWH's 5 eps on the analytic bound) avoids a spurious third
    /// iteration; the factors' accuracy is set by backward stability, not
    /// by this stop test.
    fn converged(_conv: f64, ell: f64) -> bool {
        (ell - 1.0).abs() < 50.0 * S::Real::EPSILON.to_f64()
    }

    /// `X := M (X + sum_j a_j X Z_j^{-1})`, `Z_j = X^H X + c_{2j-1} I`, then
    /// the `sigma_max <= 1` rescale, per planned step. QR-based, each `X
    /// Z_j^{-1}` is `Q1 Q2^H / sqrt(c_{2j-1})` of the stacked QR `[X;
    /// sqrt(c_{2j-1}) I] = [Q1; Q2] R`; Cholesky-based, two sweeps with the
    /// factor of `Z_j`, the Gram matrix formed once. The `r` factorizations
    /// are independent branches of the graph (the strong-scaling win of §8).
    fn run_graph(
        &self,
        x: &mut Iterate<S>,
        ws: &mut ZoloWorkspace<S>,
        plan: &[ZoloIterPlan],
        hooked: &Hooked<'_>,
    ) -> Result<(NormSink, Vec<PhaseProfile>), QdwhError> {
        crate::zolo_fused::run_graph(x, ws, plan, hooked)
    }

    fn flops(&self, n: usize, info: &QdwhInfo<S::Real>) -> f64 {
        zolo_flops(n, info.qr_iterations, info.chol_iterations, self.0.r, S::IS_COMPLEX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qdwh_impl::{orthogonality_error, qdwh};
    use crate::QdwhOptions;
    use polar_blas::{add, norm};
    use polar_gen::{generate, MatrixSpec, SigmaDistribution};
    use polar_matrix::Norm;

    #[test]
    fn zolo_two_iterations_at_kappa_1e16() {
        // the headline Zolo-PD property: r = 8 needs two iterations where
        // QDWH needs six
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(48, 1));
        let out = zolo_pd(&a, &ZoloOptions::default()).unwrap();
        assert!(out.pd.info.iterations <= 2, "iterations = {}", out.pd.info.iterations);
        assert!(orthogonality_error(&out.pd.u) < 1e-12);
        assert!(out.pd.backward_error(&a) < 1e-12);
        // 8 QRs per QR-based iteration, none in a Cholesky-based one
        assert_eq!(out.qr_factorizations, 8 * out.pd.info.qr_iterations);
        assert_eq!(out.pd.info.qr_iterations + out.pd.info.chol_iterations, out.pd.info.iterations);

        let qdwh_run = qdwh(&a, &QdwhOptions::default()).unwrap();
        assert!(out.pd.info.iterations < qdwh_run.info.iterations);
    }

    #[test]
    fn zolo_matches_qdwh_factors() {
        let spec = MatrixSpec {
            m: 30,
            n: 30,
            cond: 1e4,
            distribution: SigmaDistribution::Geometric,
            seed: 2,
        };
        let (a, _) = generate::<f64>(&spec);
        let z = zolo_pd(&a, &ZoloOptions::default()).unwrap();
        let q = qdwh(&a, &QdwhOptions::default()).unwrap();
        let mut d = z.pd.u.clone();
        add(-1.0, q.u.as_ref(), 1.0, d.as_mut());
        let err: f64 = norm(Norm::Fro, d.as_ref());
        assert!(err < 1e-9, "U factors differ by {err}");
    }

    #[test]
    fn zolo_rectangular_and_complex() {
        use polar_scalar::Complex64;
        let spec = MatrixSpec {
            m: 40,
            n: 20,
            cond: 1e8,
            distribution: SigmaDistribution::Geometric,
            seed: 3,
        };
        let (a, _) = generate::<Complex64>(&spec);
        let out = zolo_pd(&a, &ZoloOptions::default()).unwrap();
        assert!(orthogonality_error(&out.pd.u) < 1e-12);
        assert!(out.pd.backward_error(&a) < 1e-12);
        assert!(out.pd.info.iterations <= 2);
    }

    #[test]
    fn small_r_needs_more_iterations() {
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(32, 4));
        let r8 = zolo_pd(&a, &ZoloOptions::default()).unwrap();
        let r2 =
            zolo_pd(&a, &ZoloOptions { r: 2, max_iterations: 10, ..Default::default() }).unwrap();
        assert!(r2.pd.info.iterations > r8.pd.info.iterations);
        assert!(orthogonality_error(&r2.pd.u) < 1e-12);
        // trade-off: fewer iterations but more total QRs for big r
        assert!(r8.qr_factorizations > r2.pd.info.iterations);
    }

    #[test]
    fn zolo_single_precision() {
        let (a64, _) = generate::<f64>(&MatrixSpec {
            m: 32,
            n: 32,
            cond: 1e5, // within f32's resolvable range
            distribution: SigmaDistribution::Geometric,
            seed: 9,
        });
        let a = Matrix::<f32>::from_fn(32, 32, |i, j| a64[(i, j)] as f32);
        let out = zolo_pd(&a, &ZoloOptions::default()).unwrap();
        assert!(out.pd.info.iterations <= 2, "iters {}", out.pd.info.iterations);
        assert!(orthogonality_error(&out.pd.u) < 1e-5);
        assert!(out.pd.backward_error(&a) < 1e-5);
    }

    #[test]
    fn zolo_rejects_bad_args() {
        let a = Matrix::<f64>::zeros(3, 5);
        assert!(zolo_pd(&a, &ZoloOptions::default()).is_err());
        let a = Matrix::<f64>::identity(4, 4);
        assert!(zolo_pd(&a, &ZoloOptions { r: 0, ..Default::default() }).is_err());
    }

    #[test]
    fn zolo_identity_fast_path() {
        let a = Matrix::<f64>::identity(8, 8);
        let out = zolo_pd(&a, &ZoloOptions::default()).unwrap();
        assert!(out.pd.info.iterations <= 2);
        for i in 0..8 {
            assert!((out.pd.u[(i, i)] - 1.0).abs() < 1e-13);
        }
    }
}
