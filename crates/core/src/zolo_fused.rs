//! Whole-solve task graph for Zolo-PD: every iteration's `r` independent
//! terms as ONE DAG.
//!
//! The `r` partial-fraction terms of a Zolotarev iteration are mutually
//! independent — the extra concurrency is the whole reason the paper's §8
//! wants Zolo-PD in the strong-scaling regime. This module plays the trick
//! `fused.rs` plays for QDWH:
//! the Zolotarev coefficients `c_i`, the weights `a_j`, the normalization
//! `M = 1/f(1)`, the `sigma_max <= 1` rescale, the interval update `ell ->
//! fmin/fmax` and the QR-vs-Cholesky kind are all pure scalar functions of
//! `ell` — no matrix data enters the recurrence — so the whole iteration
//! sequence is known up front ([`crate::skeleton::plan`] over
//! [`ZoloIterPlan::at`]). [`run_graph`] then emits, per planned iteration
//! and per term `j in 0..r`, `Y_j = X Z_j^{-1}` up to a scalar, `Z_j = X^H
//! X + c_{2j-1} I`, into a *private* per-term slab:
//!
//! * QR-based (per term, what QDWH's QR-based iteration is one of): the
//!   stacked-QR term ([`crate::solve_dag::emit_term`]) on `W_j = [X;
//!   sqrt(c_{2j-1}) I]`, `Y_j = Q1_j Q2_j^H = sqrt(c_{2j-1}) X Z_j^{-1}`;
//! * Cholesky-based (what QDWH's Cholesky-based iteration is one of): the
//!   Gram matrix `X^H X` once per iteration
//!   ([`crate::solve_dag::emit_gram`]), then per term a shifted copy of
//!   its lower tiles into the term's workspace and the Cholesky term
//!   ([`crate::solve_dag::emit_chol_term`]), `Y_j = X Z_j^{-1}`;
//!
//! plus, per iteration, one combined-update task per `X` tile that applies
//! `X_out = M rho (X + sum_j a_j X Z_j^{-1})` (with `rho` the planned
//! rescale) in **fixed term order**, fused with the convergence partial,
//! and a fixed-order reduction sink — all into a single [`TaskDag`]. The
//! `r` chains share no written tiles, so they run concurrently across pool
//! workers. `X` is double-buffered by iteration parity; each term's
//! workspace and `Y_j` slab (and the one Gram matrix) exist once and are
//! reused by every iteration, exactly like `qdwh_fused`.
//!
//! Determinism: every value-affecting ordering is a dependency edge, tile
//! accumulations happen inside single tasks in fixed loop order, and the
//! per-tile combine walks the terms `j = 0..r` in fixed order — so the
//! computed iterates are schedule-independent bit-for-bit, with or
//! without `POLAR_DETERMINISTIC=1`.
//!
//! A plan the iteration cap cuts short never gets here:
//! [`crate::skeleton::solve`] reports `NoConvergence` instead.

use crate::elliptic::{zolotarev_coefficients, zolotarev_eval, zolotarev_weights};
use crate::options::IterationKind;
use crate::qdwh_impl::QdwhError;
use crate::solve_dag::{
    emit_chol_term, emit_gram, emit_term, execute_hooked, Hooked, Iterate, NormSink, TermPtr,
    TermWorkspace,
};
use polar_lapack::{LapackError, TilePtr};
use polar_matrix::{ProcessGrid, TiledMatrix, Tiling};
use polar_runtime::{KernelKind, PhaseProfile, TaskDag};
use polar_scalar::{Real, Scalar};
use std::sync::OnceLock;

/// The largest `kappa_2(X^H X + c_{2j-1} I)` a Cholesky-based step accepts:
/// the `kappa_2(I + c X^H X) <= 1 + c <= 101` QDWH's paper switch (`c <=
/// 100`) allows its own Cholesky iteration.
const CHOL_MAX_KAPPA_Z: f64 = 1.0 + 100.0;

/// One precomputed Zolotarev iteration: coefficients, weights, the
/// normalization, the planned `sigma_max <= 1` rescale, the factorization
/// family and the interval bound after the update.
#[derive(Debug, Clone)]
pub(crate) struct ZoloIterPlan {
    /// The `2r` Zolotarev coefficients `c_1..c_{2r}` for this `ell`.
    pub c: Vec<f64>,
    /// The `r` partial-fraction weights `a_1..a_r`.
    pub a_w: Vec<f64>,
    /// Normalization `M = 1/f(1)`.
    pub m_hat: f64,
    /// `1/fmax` when the sampled map overshoots 1, else 1 — applied
    /// together with `m_hat` in the combined update.
    pub rescale: f64,
    /// How the `r` terms `X (X^H X + c_{2j-1} I)^{-1}` are formed: from
    /// stacked QRs, or — once the interval makes every shifted Gram matrix
    /// well conditioned — from Cholesky factors of it.
    pub kind: IterationKind,
    /// `ell_{k+1} = fmin/fmax` after this iteration.
    pub ell_after: f64,
}

impl ZoloIterPlan {
    /// The iteration that starts from the interval bound `ell`.
    pub(crate) fn at(ell: f64, r: usize) -> Self {
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
        let rescale = if fmax > 1.0 { 1.0 / fmax } else { 1.0 };
        // sigma(X) in [ell, 1]: kappa_2(Z_j) <= (1 + c_{2j-1}) / (ell^2 + c_{2j-1})
        let kappa_z = (0..r).map(|j| (1.0 + c[2 * j]) / (ell * ell + c[2 * j])).fold(0.0, f64::max);
        let kind = if kappa_z <= CHOL_MAX_KAPPA_Z {
            IterationKind::CholeskyBased
        } else {
            IterationKind::QrBased
        };
        Self { c, a_w, m_hat: 1.0 / f1, rescale, kind, ell_after: (fmin / fmax).min(1.0) }
    }
}

/// The workspaces of a Zolo-PD solve, allocated by the first graph that
/// needs them and kept for the next graph of the same solve: per term, one
/// workspace (a Cholesky term lives in the stacked-QR term's) and one private
/// slab `Y_j`; and the one Gram matrix `X^H X` every term of a Cholesky-based
/// iteration shifts a copy of.
pub(crate) struct ZoloWorkspace<S: Scalar> {
    terms: Vec<(TermWorkspace<S>, TiledMatrix<S>)>,
    gram: Option<TiledMatrix<S>>,
}

impl<S: Scalar> Default for ZoloWorkspace<S> {
    fn default() -> Self {
        Self { terms: Vec::new(), gram: None }
    }
}

/// Run the planned Zolotarev sequence on `x` as one task graph: the iterate
/// advanced in place, the sink holding each iteration's convergence norm
/// and the executor's per-phase measurements.
pub(crate) fn run_graph<S: Scalar>(
    x: &mut Iterate<S>,
    ws: &mut ZoloWorkspace<S>,
    plan: &[ZoloIterPlan],
    hooked: &Hooked<'_>,
) -> Result<(NormSink, Vec<PhaseProfile>), QdwhError> {
    type R<S> = <S as Scalar>::Real;
    let xt = x.tiling();
    let (m, n, nb) = (xt.m(), xt.n(), xt.nb());
    let rterms = plan[0].a_w.len();
    let _span = polar_obs::span!("zolo_fused", m, n);

    let mtx = xt.mt();
    let nt = xt.nt();
    // The diagonal sqrt(c) I bottom block has the same trapezoidal fill the
    // QDWH stacked QR exploits, so the pruned row window always applies.
    let zeros = |t: Tiling| TiledMatrix::<S>::zeros(t, ProcessGrid::single());
    ws.terms.resize_with(rterms, || (TermWorkspace::new(m, n, nb, true), zeros(xt)));
    let has_chol = plan.iter().any(|p| p.kind == IterationKind::CholeskyBased);
    if has_chol {
        ws.gram.get_or_insert_with(|| zeros(Tiling::new(n, n, nb, nb)));
    }
    let failure = OnceLock::<LapackError>::new();

    let mut sink = NormSink::new(plan.len(), xt);

    let mut dag = TaskDag::new();
    sink.name_in(&mut dag);
    let [xb0, xb1] = x.bufs();
    let xp = [TilePtr::new(&mut dag, xb0), TilePtr::new(&mut dag, xb1)];
    let terms: Vec<_> = ws
        .terms
        .iter_mut()
        .map(|(ws, y)| {
            (TermPtr::shape(&mut dag, m, n, nb, true).bind(ws), TilePtr::new(&mut dag, y))
        })
        .collect();
    let gram = ws.gram.as_mut().filter(|_| has_chol).map(|g| TilePtr::new(&mut dag, g));
    let nbf = nb as f64;

    for (k, pl) in plan.iter().enumerate() {
        if k > 0 {
            dag.next_phase();
        }
        let (xin, xout) = (xp[k % 2], xp[(k + 1) % 2]);
        let s0 = pl.m_hat * pl.rescale;

        // ---- r independent term branches into the private slabs Y_j ----
        // Each term touches only its own workspace, so the r waves are
        // fully independent; the reduction over terms happens below, in
        // fixed order, so a tile of Y_j is free to run as soon as its own
        // term's factor is ready. `coefs[j] Y_j` is the term's share of
        // the update.
        let coefs: Vec<f64> = if pl.kind == IterationKind::QrBased {
            // Y_j = Q1_j Q2_j^H, [Q1_j; Q2_j] R = [X; sqrt(c_{2j-1}) I]
            for (j, &(ws, y)) in terms.iter().enumerate() {
                let d = R::<S>::from_f64(pl.c[2 * j].sqrt());
                emit_term(&mut dag, ws, xin, (R::<S>::ONE, d), S::ONE, y, None);
            }
            pl.a_w.iter().enumerate().map(|(j, &aj)| s0 * aj / pl.c[2 * j].sqrt()).collect()
        } else {
            // Y_j = X Z_j^{-1} = Q1_j Q2_j^H / sqrt(c_{2j-1}), Z_j = X^H X +
            // c_{2j-1} I: the Gram matrix once, then per term a shifted
            // copy of its lower tiles and one Cholesky term over it
            let gram = gram.expect("plan has a Cholesky iteration");
            emit_gram(&mut dag, xin, gram, R::<S>::ONE, R::<S>::ZERO);
            for (j, &(ws, y)) in terms.iter().enumerate() {
                let chol = ws.chol();
                let (z, shift) = (chol.z, S::from_f64(pl.c[2 * j]));
                dag.barrier();
                for zj in 0..nt {
                    for zi in zj..nt {
                        let access = (z.write(zi, zj), gram.read(zi, zj));
                        dag.add_on(KernelKind::Geadd, 3, nbf * nbf, access, move |(zt, gt)| {
                            zt.copy_from(gt);
                            if zi == zj {
                                for d in 0..zt.ncols() {
                                    zt[(d, d)] += shift;
                                }
                            }
                        });
                    }
                }
                emit_chol_term(&mut dag, chol, xin, y, &failure);
            }
            pl.a_w.iter().map(|&aj| s0 * aj).collect()
        };

        // ---- fixed-order combine: X_out = s0 X + sum_j sj Y_j ----
        // One task per X tile, walking the r private slabs in fixed
        // term order (determinism), fused with the convergence partial
        // |X_out - X_in|_F^2 for this tile.
        for tj in 0..nt {
            for ti in 0..mtx {
                let ys: Vec<_> = terms.iter().map(|(_, y)| y.read(ti, tj)).collect();
                let access = (xin.read(ti, tj), ys, xout.write(ti, tj), sink.partial(k, ti, tj));
                let coefs = coefs.clone();
                dag.add_on(
                    KernelKind::Geadd,
                    0,
                    nbf * nbf * (rterms as f64 + 1.0),
                    access,
                    move |(xi, ys, xo, partial)| {
                        let b = S::from_f64(s0);
                        for c in 0..xi.ncols() {
                            for rr in 0..xi.nrows() {
                                xo[(rr, c)] = b * xi[(rr, c)];
                            }
                        }
                        for (yt, &coef) in ys.iter().zip(&coefs) {
                            let sj = S::from_f64(coef);
                            for c in 0..xi.ncols() {
                                for rr in 0..xi.nrows() {
                                    xo[(rr, c)] += sj * yt[(rr, c)];
                                }
                            }
                        }
                        let mut acc = R::<S>::ZERO;
                        for c in 0..xi.ncols() {
                            for rr in 0..xi.nrows() {
                                acc += (xo[(rr, c)] - xi[(rr, c)]).abs_sq();
                            }
                        }
                        partial.publish(acc);
                    },
                );
            }
        }
        sink.emit_reduce::<R<S>>(&mut dag, k);
    }

    let phases = execute_hooked(dag, hooked, &sink, &failure)?;
    x.advance(plan.len());
    Ok((sink, phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qdwh_impl::orthogonality_error;
    use crate::skeleton::zolo_flops;
    use crate::svd_pd::svd_based_polar;
    use crate::zolo::{zolo_pd, ZoloOptions, Zolotarev};
    use polar_gen::{generate, MatrixSpec, SigmaDistribution};
    use polar_matrix::Matrix;
    use polar_scalar::{Complex32, Complex64};
    use proptest::prelude::*;

    /// Tiles of 8: several tile rows and columns at test sizes.
    fn fused_opts(r: usize) -> ZoloOptions {
        ZoloOptions { r, tile_nb: Some(8), ..Default::default() }
    }

    /// The graph runs the plan — its kinds from the solve's own `l0`, `r`
    /// stacked QRs per QR-based iteration, the modeled cost of those
    /// iterations — and its factors meet the accuracy bars.
    fn graph_case<S: Scalar>(a: &Matrix<S>, r: usize, tol: f64) {
        let opts = fused_opts(r);
        let fused = zolo_pd(a, &opts).expect("fused converged");
        let info = &fused.pd.info;
        // (`planned_kinds` stops at double precision's tolerance: in single
        // precision the solve is done a step or so earlier)
        let planned = opts.planned_kinds(info.l0.to_f64()).expect("inside the cap");
        assert!(planned.starts_with(&info.kinds), "r={r}: {:?} vs {planned:?}", info.kinds);
        assert!(S::Real::EPSILON.to_f64() > 1e-10 || info.kinds == planned, "r={r}: {planned:?}");
        assert_eq!(fused.qr_factorizations, r * info.qr_iterations);
        let cost =
            zolo_flops(a.ncols(), info.qr_iterations, info.chol_iterations, r, S::IS_COMPLEX);
        assert_eq!(info.flops_estimate, cost, "r={r}");
        let orth = orthogonality_error(&fused.pd.u).to_f64();
        assert!(orth <= tol, "r={r}: fused U not orthogonal: {orth:e}");
        let berr = fused.pd.backward_error(a).to_f64();
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
            let fused = zolo_pd(&a, &fused_opts(r)).expect("fused");
            assert!(fused.pd.info.chol_iterations >= 1, "{:?}", fused.pd.info.kinds);
            let mut worst = 0.0f64;
            for j in 0..a.ncols() {
                for i in 0..a.nrows() {
                    worst = worst.max((fused.pd.u[(i, j)] - reference.u[(i, j)]).abs());
                }
            }
            assert!(worst <= 1e-10, "r={r}: fused vs svd-based U: {worst:e}");
        }
    }

    /// Every value-affecting ordering in the fused Zolo DAG is a
    /// dependency edge and the per-tile combine walks terms in fixed
    /// order, so two runs must agree bit-for-bit on U *and* H even with a
    /// parallel work-stealing schedule (POLAR_DETERMINISTIC additionally
    /// pins the schedule; the CI zolo leg runs this test under that pin).
    #[test]
    fn fused_is_bitwise_deterministic() {
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(40, 25));
        let r1 = zolo_pd(&a, &fused_opts(4)).expect("run 1");
        let r2 = zolo_pd(&a, &fused_opts(4)).expect("run 2");
        for j in 0..a.ncols() {
            for i in 0..a.nrows() {
                assert_eq!(
                    r1.pd.u[(i, j)].to_bits(),
                    r2.pd.u[(i, j)].to_bits(),
                    "U nondeterministic at ({i},{j})"
                );
                assert_eq!(
                    r1.pd.h[(i, j)].to_bits(),
                    r2.pd.h[(i, j)].to_bits(),
                    "H nondeterministic at ({i},{j})"
                );
            }
        }
        assert_eq!(r1.pd.info.iterations, r2.pd.info.iterations);
        for (ra, rb) in r1.pd.info.records.iter().zip(&r2.pd.info.records) {
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
        let base = ZoloOptions { max_iterations: 10, ..fused_opts(2) };
        let cancelling = ZoloOptions {
            progress: Some(std::sync::Arc::new(|p: &IterationProgress| {
                if p.iteration >= 2 {
                    IterationDecision::Cancel
                } else {
                    IterationDecision::Continue
                }
            })),
            ..base.clone()
        };
        match zolo_pd(&a, &cancelling) {
            // 2, unless the parallel drain's frontier stepped over a phase
            Err(QdwhError::Cancelled { iteration }) if iteration >= 2 => {}
            other => panic!("expected cancellation at iteration 2, got {other:?}"),
        }
        let ok = zolo_pd(&a, &base).expect("clean state after cancel");
        assert!(ok.pd.info.iterations > 2);
        assert!(orthogonality_error(&ok.pd.u).to_f64() < 1e-12);
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
    fn plan_zolo_iterations(l0: f64, r: usize, max_iterations: usize) -> Option<Vec<ZoloIterPlan>> {
        let zopts = ZoloOptions { r, max_iterations, ..Default::default() };
        crate::skeleton::plan::<f64, _>(&Zolotarev(&zopts), l0, 0.0, max_iterations)
    }

    #[test]
    fn plan_meets_the_two_iteration_guarantee() {
        // r = 8 at the double-precision floor: two iterations, ell -> 1
        let plan = plan_zolo_iterations(1e-16, 8, 6).expect("converges");
        assert_eq!(plan.len(), 2);
        let last = plan.last().unwrap();
        assert!((last.ell_after - 1.0).abs() < 50.0 * f64::EPSILON);
        for p in &plan {
            assert_eq!(p.c.len(), 16);
            assert_eq!(p.a_w.len(), 8);
            assert!(p.m_hat.is_finite() && p.m_hat > 0.0);
            assert!(p.rescale > 0.0 && p.rescale <= 1.0);
        }
        // ell trajectory is monotone toward 1
        assert!(plan.windows(2).all(|w| w[0].ell_after <= w[1].ell_after));
    }

    /// `max_j kappa_2(Z_j)` over `sigma(X) in [ell, 1]`, from the plan's own
    /// coefficients: what the kind of the step entered at `ell` is chosen by.
    fn kappa_z(step: &ZoloIterPlan, ell: f64) -> f64 {
        let shifts = step.c.iter().step_by(2);
        shifts.map(|&c| (1.0 + c) / (ell * ell + c)).fold(0.0, f64::max)
    }

    #[test]
    fn plan_goes_cholesky_once_the_interval_is_well_conditioned() {
        use IterationKind::{CholeskyBased as Chol, QrBased as Qr};
        let kinds = |plan: &[ZoloIterPlan]| plan.iter().map(|p| p.kind).collect::<Vec<_>>();
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
