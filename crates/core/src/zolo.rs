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
//! copies of one Gram matrix ([`Step::zolotarev`] decides, from `ell`
//! alone). At `r = 8` that is the second of the two iterations.
//!
//! A Zolotarev step is the `r`-term member of the family QDWH's Halley step
//! is the one-term member of ([`Step`]); both run through the one task graph
//! of [`crate::graph`], and both are [`crate::qdwh`]: Zolo-PD is
//! `QdwhOptions::terms = r > 1`, reading every other option QDWH reads
//! (`path` and `qr_switch_threshold` excepted).

use crate::elliptic::{zolotarev_coefficients, zolotarev_eval, zolotarev_weights};
use crate::options::IterationKind;
use crate::qdwh_impl::QdwhInfo;
use crate::skeleton::{zolo_flops, Method, Step, Term};
use polar_scalar::{Real, Scalar};

/// The largest `kappa_2(X^H X + c_{2j-1} I)` a Cholesky-based step accepts:
/// the `kappa_2(I + c X^H X) <= 1 + c <= 101` QDWH's paper switch (`c <=
/// 100`) allows its own Cholesky iteration.
const CHOL_MAX_KAPPA_Z: f64 = 1.0 + 100.0;

/// The `QdwhOptions::terms` [`crate::qdwh`] accepts: `r` terms size `r`
/// workspaces, and two iterations already suffice at `kappa = 1/eps` with 8.
pub(crate) const DEGREES: std::ops::RangeInclusive<usize> = 1..=8;

impl Step<f64> {
    /// The Zolotarev step of degree `r` that starts from the interval bound
    /// `ell`: `X <- M rho (X + sum_j a_j X (X^H X + c_{2j-1} I)^{-1})`, `c` the
    /// `2r` Zolotarev coefficients for `ell`, `a` the partial-fraction
    /// weights, `M = 1/f(1)` the normalization and `rho` the `sigma_max <= 1`
    /// rescale. Cholesky-based once the interval makes every shifted Gram
    /// matrix well conditioned.
    pub(crate) fn zolotarev(ell: f64, r: usize) -> Self {
        let c = zolotarev_coefficients(ell.min(1.0 - 1e-15), r);
        let a_w = zolotarev_weights(&c);
        let f1 = 1.0 + a_w.iter().enumerate().map(|(j, &aj)| aj / (1.0 + c[2 * j])).sum::<f64>();
        // new singular-value interval: sample the scalar map over [l, 1]
        // (the equioscillating extrema bracket the image of the spectrum)
        let mut fmin = f64::MAX;
        let mut fmax = 0.0f64;
        for i in 0..257 {
            let t = ell + (1.0 - ell) * (i as f64) / 256.0;
            let y = zolotarev_eval(t, &c, &a_w);
            fmin = fmin.min(y);
            fmax = fmax.max(y);
        }
        // 1/fmax when the sampled map overshoots 1
        let rescale = if fmax > 1.0 { 1.0 / fmax } else { 1.0 };
        // sigma(X) in [ell, 1]: kappa_2(Z_j) <= (1 + c_{2j-1}) / (ell^2 + c_{2j-1})
        let kappa_z = (0..r).map(|j| (1.0 + c[2 * j]) / (ell * ell + c[2 * j])).fold(0.0, f64::max);
        let kind = if kappa_z <= CHOL_MAX_KAPPA_Z {
            IterationKind::CholeskyBased
        } else {
            IterationKind::QrBased
        };
        let x_coef = (1.0 / f1) * rescale;
        let term = |(j, &aj)| Term { alpha: 1.0, shift: c[2 * j], weight: x_coef * aj };
        let terms = a_w.iter().enumerate().map(term).collect();
        Step { kind, ell_after: (fmin / fmax).min(1.0), x_coef, terms }
    }
}

/// Zolo-PD under [`solve`](crate::skeleton::solve): type-`(2r+1, 2r)`
/// Zolotarev steps of degree `.0`, stopped when the interval bound reaches 1.
pub(crate) struct Zolotarev(pub usize);

impl<S: Scalar> Method<S> for Zolotarev {
    type Ell = f64;
    const NAME: &'static str = "zolo";
    const FIRST_CONV: f64 = f64::MAX;

    fn step_at(&self, ell: f64) -> Step<f64> {
        Step::zolotarev(ell, self.0)
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

    fn flops(&self, n: usize, info: &QdwhInfo<S::Real>) -> f64 {
        zolo_flops(n, info.qr_iterations, info.chol_iterations, self.0, S::IS_COMPLEX)
    }
}

pub mod compat {
    //! Compatibility shim for the `benchmark/` package, whose `zolo_ill_768`
    //! workload still calls `zolo_pd`: [`qdwh`] at `terms: r`, every other
    //! option at its default. Deleted when that workload moves to `qdwh`;
    //! nothing outside this module may name these items (`./ci.sh lint`).
    use crate::options::QdwhOptions;
    use crate::qdwh_impl::{qdwh, PolarDecomposition, QdwhError};
    use polar_matrix::Matrix;
    use polar_scalar::Scalar;

    /// The degree of [`zolo_pd`]: 8 by default.
    #[derive(Debug, Clone)]
    pub struct ZoloOptions {
        pub r: usize,
    }

    impl Default for ZoloOptions {
        fn default() -> Self {
            Self { r: 8 }
        }
    }

    /// What [`zolo_pd`] returns.
    #[derive(Debug, Clone)]
    pub struct ZoloOutcome<S: Scalar> {
        pub pd: PolarDecomposition<S>,
    }

    /// [`qdwh`] with `terms: o.r`.
    pub fn zolo_pd<S: Scalar>(a: &Matrix<S>, o: &ZoloOptions) -> Result<ZoloOutcome<S>, QdwhError> {
        let pd = qdwh(a, &QdwhOptions { terms: o.r, ..Default::default() })?;
        Ok(ZoloOutcome { pd })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qdwh_impl::{orthogonality_error, qdwh, qdwh_plan, QdwhError};
    use crate::skeleton::plan;
    use crate::svd_pd::svd_based_polar;
    use crate::QdwhOptions;
    use polar_blas::{add, norm};
    use polar_gen::{generate, MatrixSpec, SigmaDistribution};
    use polar_matrix::{Matrix, Norm};
    use polar_scalar::{Complex32, Complex64};
    use proptest::prelude::*;

    /// Zolo-PD of degree `r`, every other option at its default.
    fn zolo(r: usize) -> QdwhOptions {
        QdwhOptions { terms: r, ..Default::default() }
    }

    fn kinds<R>(steps: &[Step<R>]) -> Vec<IterationKind> {
        steps.iter().map(|step| step.kind).collect()
    }

    #[test]
    fn zolo_two_iterations_at_kappa_1e16() {
        // the headline Zolo-PD property: r = 8 needs two iterations where
        // QDWH needs six
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(48, 1));
        let pd = qdwh(&a, &zolo(8)).unwrap();
        assert!(pd.info.iterations <= 2, "iterations = {}", pd.info.iterations);
        assert!(orthogonality_error(&pd.u) < 1e-12);
        assert!(pd.backward_error(&a) < 1e-12);
        assert_eq!(pd.info.qr_iterations + pd.info.chol_iterations, pd.info.iterations);

        let qdwh_run = qdwh(&a, &QdwhOptions::default()).unwrap();
        assert!(pd.info.iterations < qdwh_run.info.iterations);
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
        let z = qdwh(&a, &zolo(8)).unwrap();
        let q = qdwh(&a, &QdwhOptions::default()).unwrap();
        let mut d = z.u.clone();
        add(-1.0, q.u.as_ref(), 1.0, d.as_mut());
        let err: f64 = norm(Norm::Fro, d.as_ref());
        assert!(err < 1e-9, "U factors differ by {err}");
    }

    #[test]
    fn zolo_rectangular_and_complex() {
        let spec = MatrixSpec {
            m: 40,
            n: 20,
            cond: 1e8,
            distribution: SigmaDistribution::Geometric,
            seed: 3,
        };
        let (a, _) = generate::<Complex64>(&spec);
        let pd = qdwh(&a, &zolo(8)).unwrap();
        assert!(orthogonality_error(&pd.u) < 1e-12);
        assert!(pd.backward_error(&a) < 1e-12);
        assert!(pd.info.iterations <= 2);
    }

    #[test]
    fn small_r_needs_more_iterations() {
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(32, 4));
        let r8 = qdwh(&a, &zolo(8)).unwrap();
        let r2 = qdwh(&a, &zolo(2)).unwrap();
        assert!(r2.info.iterations > r8.info.iterations);
        assert!(orthogonality_error(&r2.u) < 1e-12);
        // trade-off: fewer iterations but more total QRs for big r
        assert!(8 * r8.info.qr_iterations > r2.info.iterations);
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
        let pd = qdwh(&a, &zolo(8)).unwrap();
        assert!(pd.info.iterations <= 2, "iters {}", pd.info.iterations);
        assert!(orthogonality_error(&pd.u) < 1e-5);
        assert!(pd.backward_error(&a) < 1e-5);
    }

    #[test]
    fn zolo_rejects_bad_args() {
        let a = Matrix::<f64>::zeros(3, 5);
        assert!(qdwh(&a, &zolo(8)).is_err());
        // a degree sizes r workspaces: outside 1..=8 nothing is planned or run
        let a = Matrix::<f64>::identity(4, 4);
        for r in [0usize, 9, usize::MAX] {
            assert!(matches!(qdwh(&a, &zolo(r)), Err(QdwhError::Shape(_))), "r = {r}");
            assert_eq!(qdwh_plan::<f64>(&zolo(r), 1e-16, 0.0, 50), None, "r = {r}");
        }
        assert!(qdwh_plan::<f64>(&zolo(8), 1e-16, 0.0, 50).is_some());
    }

    /// One term is QDWH, whichever way it is asked for: the Halley plan.
    #[test]
    fn zolo_of_one_term_is_qdwh() {
        let halley = |ell| Step::halley(ell, crate::options::IterationPath::Auto, 100.0);
        let qdwh_steps = qdwh_plan::<f64>(&zolo(1), 1e-10, 100.0, 50).unwrap();
        let mut ell = 1e-10;
        for step in &qdwh_steps {
            assert_eq!(*step, halley(ell));
            ell = step.ell_after;
        }
    }

    /// The caller's bound reaches the Zolotarev plan: a start the estimate
    /// puts above 0.2 is Cholesky-only, the worst case is not.
    #[test]
    fn zolo_plans_from_the_callers_bound() {
        use IterationKind::{CholeskyBased as Chol, QrBased as Qr};
        let spec = MatrixSpec {
            m: 48,
            n: 48,
            cond: 10.0,
            distribution: SigmaDistribution::Geometric,
            seed: 7,
        };
        let (a, _) = generate::<f64>(&spec);
        let estimated = qdwh(&a, &zolo(8)).unwrap();
        assert!(estimated.info.kinds.iter().all(|&k| k == Chol), "{:?}", estimated.info.kinds);

        let worst = QdwhOptions { l0_override: Some(1e-16), ..zolo(8) };
        let pd = qdwh(&a, &worst).unwrap();
        assert_eq!(pd.info.l0, 1e-16);
        assert_eq!(pd.info.kinds, [Qr, Chol]);
        let planned = qdwh_plan::<f64>(&worst, 1e-16, 0.0, worst.max_iterations).unwrap();
        assert_eq!(pd.info.kinds, kinds(&planned));
    }

    #[test]
    fn zolo_identity_fast_path() {
        let a = Matrix::<f64>::identity(8, 8);
        let pd = qdwh(&a, &zolo(8)).unwrap();
        assert!(pd.info.iterations <= 2);
        for i in 0..8 {
            assert!((pd.u[(i, i)] - 1.0).abs() < 1e-13);
        }
    }

    /// Tiles of 8: several tile rows and columns at test sizes.
    fn fused_opts(r: usize) -> QdwhOptions {
        QdwhOptions { tile_nb: Some(8), ..zolo(r) }
    }

    /// The graph runs the plan — its kinds from the solve's own `l0`, the
    /// modeled cost of those iterations — and its factors meet the accuracy
    /// bars.
    fn graph_case<S: Scalar>(a: &Matrix<S>, r: usize, tol: f64) {
        let opts = fused_opts(r);
        let fused = qdwh(a, &opts).expect("fused converged");
        let info = &fused.info;
        let planned = qdwh_plan::<S>(&opts, info.l0, 0.0, opts.max_iterations);
        assert_eq!(info.kinds, kinds(&planned.expect("inside the cap")), "r={r}");
        let cost =
            zolo_flops(a.ncols(), info.qr_iterations, info.chol_iterations, r, S::IS_COMPLEX);
        assert_eq!(info.flops_estimate, cost, "r={r}");
        let orth = orthogonality_error(&fused.u).to_f64();
        assert!(orth <= tol, "r={r}: fused U not orthogonal: {orth:e}");
        let berr = fused.backward_error(a).to_f64();
        assert!(berr <= tol, "r={r}: fused backward error {berr:e}");
    }

    #[test]
    fn fused_all_types_all_r() {
        let n = 20;
        for r in [2usize, 4, 8] {
            let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(n, 21));
            graph_case(&a, r, 1e-11);
            let (az, _) = generate::<Complex64>(&MatrixSpec::ill_conditioned(n, 22));
            graph_case(&az, r, 1e-11);
            let spec32 = MatrixSpec {
                m: n,
                n,
                cond: 1e5,
                distribution: SigmaDistribution::Geometric,
                seed: 23,
            };
            let (af, _) = generate::<f64>(&spec32);
            let a32 = Matrix::<f32>::from_fn(n, n, |i, j| af[(i, j)] as f32);
            graph_case(&a32, r, 1e-5);
            let (ac, _) = generate::<Complex64>(&spec32);
            let c32 = Matrix::<Complex32>::from_fn(n, n, |i, j| {
                Complex32::new(ac[(i, j)].re as f32, ac[(i, j)].im as f32)
            });
            graph_case(&c32, r, 1e-5);
        }
    }

    #[test]
    fn fused_rectangular_with_padding() {
        // m not a multiple of nb: X's last tile row is short of W's, whose
        // sqrt(c) I block starts on the next tile boundary, for every term
        let spec = MatrixSpec {
            m: 37,
            n: 20,
            cond: 1e8,
            distribution: SigmaDistribution::Geometric,
            seed: 24,
        };
        let (a, _) = generate::<f64>(&spec);
        graph_case(&a, 4, 1e-13);
    }

    /// Both kinds of iteration against the independent Jacobi-SVD route,
    /// elementwise, where conditioning lets one be a reference.
    #[test]
    fn fused_matches_the_svd_route() {
        let spec = MatrixSpec {
            m: 30,
            n: 24,
            cond: 1e3,
            distribution: SigmaDistribution::Geometric,
            seed: 27,
        };
        let (a, _) = generate::<f64>(&spec);
        let reference = svd_based_polar(&a).expect("svd");
        for r in [2usize, 8] {
            let fused = qdwh(&a, &fused_opts(r)).expect("fused");
            assert!(fused.info.chol_iterations >= 1, "{:?}", fused.info.kinds);
            let mut worst = 0.0f64;
            for j in 0..a.ncols() {
                for i in 0..a.nrows() {
                    worst = worst.max((fused.u[(i, j)] - reference.u[(i, j)]).abs());
                }
            }
            assert!(worst <= 1e-10, "r={r}: fused vs svd-based U: {worst:e}");
        }
    }

    /// Every value-affecting ordering in the fused Zolo DAG is a
    /// dependency edge and the per-tile combine walks terms in fixed
    /// order, so two runs must agree bit-for-bit on U *and* H even with a
    /// parallel work-stealing schedule.
    #[test]
    fn fused_is_bitwise_deterministic() {
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(40, 25));
        let r1 = qdwh(&a, &fused_opts(4)).expect("run 1");
        let r2 = qdwh(&a, &fused_opts(4)).expect("run 2");
        for j in 0..a.ncols() {
            for i in 0..a.nrows() {
                assert_eq!(
                    r1.u[(i, j)].to_bits(),
                    r2.u[(i, j)].to_bits(),
                    "U nondeterministic at ({i},{j})"
                );
                assert_eq!(
                    r1.h[(i, j)].to_bits(),
                    r2.h[(i, j)].to_bits(),
                    "H nondeterministic at ({i},{j})"
                );
            }
        }
        assert_eq!(r1.info.iterations, r2.info.iterations);
        for (ra, rb) in r1.info.records.iter().zip(&r2.info.records) {
            assert_eq!(ra.convergence.to_bits(), rb.convergence.to_bits());
        }
    }

    /// A hook cancelling mid-graph must abandon the whole solve as
    /// `Cancelled` — and leave the engine reusable.
    #[test]
    fn fused_hook_cancel_leaves_the_engine_reusable() {
        use crate::options::{IterationDecision, IterationProgress};
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(24, 26));
        // r = 2 needs several iterations at kappa = 1e16
        let base = fused_opts(2);
        let cancelling = QdwhOptions {
            progress: Some(std::sync::Arc::new(|p: &IterationProgress| {
                if p.iteration >= 2 {
                    IterationDecision::Cancel
                } else {
                    IterationDecision::Continue
                }
            })),
            ..base.clone()
        };
        match qdwh(&a, &cancelling) {
            // 2, unless the parallel drain's frontier stepped over a phase
            Err(QdwhError::Cancelled { iteration }) if iteration >= 2 => {}
            other => panic!("expected cancellation at iteration 2, got {other:?}"),
        }
        let ok = qdwh(&a, &base).expect("clean state after cancel");
        assert!(ok.info.iterations > 2);
        assert!(orthogonality_error(&ok.u).to_f64() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Randomized shapes, f64: rectangular, conditioning sweep, r across
        /// the sweep set. (The shim seeds a test's cases from its name.)
        #[test]
        fn prop_zolo_fused_parity_f64(
            n in 10usize..22,
            extra in 0usize..9,
            log_cond in 0.0f64..10.0,
            r_idx in 0usize..3,
            seed in 0u64..1000,
        ) {
            let spec = MatrixSpec {
                m: n + extra,
                n,
                cond: 10f64.powf(log_cond),
                distribution: SigmaDistribution::Geometric,
                seed,
            };
            let (a, _) = generate::<f64>(&spec);
            graph_case(&a, [2usize, 4, 8][r_idx], 1e-11);
        }

        /// Randomized shapes, Complex64.
        #[test]
        fn prop_zolo_fused_parity_c64(
            n in 10usize..20,
            log_cond in 0.0f64..8.0,
            r_idx in 0usize..3,
            seed in 0u64..1000,
        ) {
            let spec = MatrixSpec {
                m: n,
                n,
                cond: 10f64.powf(log_cond),
                distribution: SigmaDistribution::Geometric,
                seed,
            };
            let (a, _) = generate::<Complex64>(&spec);
            graph_case(&a, [2usize, 4, 8][r_idx], 1e-11);
        }
    }

    /// The f64 plan from `l0` at degree `r`.
    fn plan_zolo_iterations(l0: f64, r: usize, max_iterations: usize) -> Option<Vec<Step<f64>>> {
        plan::<f64, _>(&Zolotarev(r), l0, 0.0, max_iterations)
    }

    #[test]
    fn plan_meets_the_two_iteration_guarantee() {
        // r = 8 at the double-precision floor: two iterations, ell -> 1
        let plan = plan_zolo_iterations(1e-16, 8, 6).expect("converges");
        assert_eq!(plan.len(), 2);
        let last = plan.last().unwrap();
        assert!((last.ell_after - 1.0).abs() < 50.0 * f64::EPSILON);
        for p in &plan {
            assert_eq!(p.terms.len(), 8);
            assert!(p.x_coef.is_finite() && p.x_coef > 0.0);
            assert!(p.terms.iter().all(|t| t.alpha == 1.0 && t.shift > 0.0 && t.weight > 0.0));
        }
        // ell trajectory is monotone toward 1
        assert!(plan.windows(2).all(|w| w[0].ell_after <= w[1].ell_after));
    }

    /// `max_j kappa_2(Z_j)` over `sigma(X) in [ell, 1]`, from the plan's own
    /// coefficients: what the kind of the step entered at `ell` is chosen by.
    fn kappa_z(step: &Step<f64>, ell: f64) -> f64 {
        let shifts = step.terms.iter().map(|t| t.shift);
        shifts.map(|c| (1.0 + c) / (ell * ell + c)).fold(0.0, f64::max)
    }

    #[test]
    fn plan_goes_cholesky_once_the_interval_is_well_conditioned() {
        use IterationKind::{CholeskyBased as Chol, QrBased as Qr};
        // the double-precision floor at r = 8: one QR-based iteration lifts
        // the interval far enough for the second to be Cholesky-based
        assert_eq!(kinds(&plan_zolo_iterations(1e-16, 8, 6).unwrap()), [Qr, Chol]);
        // a start QDWH would itself run Cholesky-only from
        for l0 in [0.2, 0.5, 0.9, 0.999] {
            for r in [1usize, 2, 4, 8] {
                let plan = plan_zolo_iterations(l0, r, 20).unwrap();
                assert!(plan.iter().all(|p| p.kind == Chol), "l0={l0} r={r}: {:?}", kinds(&plan));
            }
        }
        for r in [2usize, 4, 8] {
            let plan = plan_zolo_iterations(1e-16, r, 20).unwrap();
            // a QR prefix, a Cholesky suffix, never back
            let switch = plan.iter().position(|p| p.kind == Chol).expect("ends Cholesky-based");
            assert!(switch >= 1, "r={r}: {:?}", kinds(&plan));
            assert!(plan[switch..].iter().all(|p| p.kind == Chol), "r={r}: {:?}", kinds(&plan));
            // the bound that licenses the inverted-diagonal sweeps holds on
            // every Cholesky step and fails on the step before the switch
            let mut ell = 1e-16;
            for (k, p) in plan.iter().enumerate() {
                let kz = kappa_z(p, ell);
                assert_eq!(kz <= CHOL_MAX_KAPPA_Z, k >= switch, "r={r} step {k}: kappa(Z) {kz:e}");
                ell = p.ell_after;
            }
        }
    }

    #[test]
    fn plan_small_r_needs_more_iterations() {
        let r8 = plan_zolo_iterations(1e-10, 8, 10).unwrap();
        let r2 = plan_zolo_iterations(1e-10, 2, 10).unwrap();
        assert!(r2.len() > r8.len(), "r2 {} vs r8 {}", r2.len(), r8.len());
    }

    #[test]
    fn plan_bails_on_iteration_cap() {
        assert!(plan_zolo_iterations(1e-16, 2, 1).is_none());
    }

    #[test]
    fn plan_empty_when_already_converged() {
        let plan = plan_zolo_iterations(1.0, 8, 6).unwrap();
        assert!(plan.is_empty());
    }
}
