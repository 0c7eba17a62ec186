//! Whole-solve task graph: the entire QDWH Halley sequence as ONE DAG.
//!
//! A per-iteration driver runs one factorization per step with full
//! barriers between them: assemble `W`/`Z`, factor, update, reduce the
//! convergence norm, and only then start step `k+1`. This module removes
//! those barriers. The key enabler is that the Halley weight sequence
//! `(a_k, b_k, c_k)` and the QR-vs-Cholesky switch depend only on the
//! scalar `ell` recurrence — a pure function of `l0`, not of the matrix
//! iterates — so the whole iteration *plan* is known before any flop runs
//! ([`crate::skeleton::plan`] over [`HalleyStep::at`], the `itconv`
//! precomputation of Sukkari's POLAR library). [`run_graph`] then emits,
//! for every planned iteration:
//!
//! * QR-based (Eq. (1)): one stacked-QR term
//!   ([`crate::solve_dag::emit_term`]) on `[sqrt(c) X; I]` whose product
//!   tiles carry the `theta * Q1 Q2^H + beta * X` update;
//! * Cholesky-based (Eq. (2)): `Z = I + c X^H X` as per-tile tasks
//!   ([`crate::solve_dag::emit_gram`]), one Cholesky term
//!   ([`crate::solve_dag::emit_chol_term`]: tile Cholesky, the inverted
//!   diagonal tiles of `L`, the two sweeps applying `L^{-H}` then `L^{-1}`
//!   from the right) and the `beta * X_prev + theta * (X Z^{-1})` update;
//! * a per-tile convergence partial `|X_k - X_{k-1}|_F^2` fused into each
//!   update task, plus one fixed-order reduction task per iteration.
//!
//! into a single [`TaskDag`]. `X` is double-buffered by iteration parity;
//! the workspace (`W`/`T`/`Q`/`Q2`; `Z` and the `nt` inverted diagonal
//! tiles of its factor) exists once and is reused by every iteration.
//! Nothing in iteration `k+1` waits on the convergence reduction of
//! iteration `k` — the reduction is a sink — so the executor's
//! critical-path priorities and lookahead window let step-`k+1` panel
//! kernels overlap step-`k` trailing updates across the whole solve.
//! Each iteration advances the DAG phase ([`TaskDag::next_phase`]), which
//! is what the lookahead window is keyed on — and what the progress hook
//! is told ([`crate::solve_dag::execute_hooked`]).
//!
//! Determinism: every value-affecting ordering is a dependency edge (tasks
//! write disjoint tiles; accumulations happen inside single tasks in fixed
//! loop order; the convergence reduction sums partials in fixed tile
//! order), so the computed iterates are schedule-independent bit-for-bit.
//! Under `POLAR_DETERMINISTIC=1` the executor additionally fixes the
//! schedule itself.
//!
//! Continuation: [`crate::skeleton::solve`] runs this *before* its
//! per-iteration loop and re-checks the stop test afterwards, so what the
//! plan could not cover continues on the flat kernels with no extra code.

use crate::options::{graph_tile_nb, IterationKind};
use crate::qdwh_impl::QdwhError;
use crate::skeleton::HalleyStep;
use crate::solve_dag::{
    emit_chol_term, emit_gram, emit_term, execute_hooked, CholPtr, HalleyUpdate, Hooked, NormSink,
    TermPtr, TermWorkspace,
};
use polar_lapack::{LapackError, TilePtr};
use polar_matrix::{Matrix, ProcessGrid, TiledMatrix, Tiling};
use polar_runtime::{KernelKind, TaskDag, TaskGraph};
use polar_scalar::{Real, Scalar};
use std::sync::OnceLock;

/// Everything the planned iterations read and write, as the tasks of one
/// dag see it: `X` double-buffered by iteration parity (iteration `k` reads
/// parity `k % 2`, writes the other), the stacked-QR workspace, and for the
/// Cholesky kind `Z` (then its factor `L`) plus one tile column for the
/// inverses of `L`'s diagonal tiles. The workspaces exist once per solve
/// (see [`TermWorkspace`]) and only for the kinds the plan contains.
#[derive(Clone, Copy)]
struct SolvePtrs<'a, S: Scalar> {
    x: [TilePtr<'a, S>; 2],
    term: Option<TermPtr<'a, S>>,
    chol: Option<CholPtr<'a, S>>,
}

impl<S: Scalar> SolvePtrs<'_, S> {
    /// Name the sink and every matrix of the solve in `dag`, storage-free.
    /// The one place the whole-solve graph's matrix ids are handed out, so
    /// the executed graph and [`qdwh_task_graph`] agree on them.
    fn shapes(
        dag: &mut TaskDag<'_>,
        sink: &mut NormSink,
        xt: Tiling,
        plan: &[HalleyStep<S::Real>],
        exploit_structure: bool,
    ) -> Self {
        let (m, n, nb) = (xt.m(), xt.n(), xt.nb());
        sink.name_in(dag);
        Self {
            x: [TilePtr::shape(dag, xt), TilePtr::shape(dag, xt)],
            term: plan
                .iter()
                .any(|p| p.is_qr())
                .then(|| TermPtr::shape(dag, m, n, nb, exploit_structure.then_some(m))),
            chol: plan.iter().any(|p| !p.is_qr()).then(|| {
                let mut tiles = |cols| TilePtr::shape(dag, Tiling::new(n, cols, nb, nb));
                CholPtr { z: tiles(n), linv: tiles(nb.min(n)) }
            }),
        }
    }

    /// The same names over storage ([`TilePtr::bind`] checks the tilings).
    fn bind<'b>(
        self,
        x: &'b mut [TiledMatrix<S>; 2],
        term: Option<&'b mut TermWorkspace<S>>,
        chol: Option<&'b mut (TiledMatrix<S>, TiledMatrix<S>)>,
    ) -> SolvePtrs<'b, S> {
        let [x0, x1] = x;
        SolvePtrs {
            x: [self.x[0].bind(x0), self.x[1].bind(x1)],
            term: self.term.zip(term).map(|(p, ws)| p.bind(ws)),
            chol: self
                .chol
                .zip(chol)
                .map(|(p, (zs, ls))| CholPtr { z: p.z.bind(zs), linv: p.linv.bind(ls) }),
        }
    }
}

/// The whole-solve task graph of an `m x n` QDWH solve at tile size `nb`
/// running the given iteration kinds, without bodies or storage: emitted
/// by the code [`crate::qdwh`]'s tiled path executes, so its tasks, tile
/// sets and edges are the executor's (scalar weights never reach the
/// graph). `S` sets the tile payload bytes. What `polar-sim` schedules
/// and [`crate::qdwh_distributed`] meters.
pub fn qdwh_task_graph<S: Scalar>(
    m: usize,
    n: usize,
    nb: usize,
    kinds: &[IterationKind],
    exploit_structure: bool,
) -> TaskGraph {
    let one = S::Real::ONE;
    let plan: Vec<_> = kinds
        .iter()
        .map(|&kind| HalleyStep {
            a: one,
            b: one,
            c: one,
            kind,
            theta: one,
            beta: one,
            ell_after: one,
        })
        .collect();
    let nb = graph_tile_nb(Some(nb), n);
    let xt = Tiling::new(m, n, nb, nb);
    let failure = OnceLock::new();
    let mut sink = NormSink::new(plan.len(), xt);
    let mut dag = TaskDag::new();
    let at = SolvePtrs::<S>::shapes(&mut dag, &mut sink, xt, &plan, exploit_structure);
    emit_iterations(&mut dag, at, &plan, &sink, &failure);
    dag.into_graph()
}

/// Add every planned iteration to `dag`, one phase each.
fn emit_iterations<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    at: SolvePtrs<'a, S>,
    plan: &[HalleyStep<S::Real>],
    sink: &'a NormSink,
    failure: &'a OnceLock<LapackError>,
) {
    type R<S> = <S as Scalar>::Real;
    let xt = at.x[0].tiling();
    let (mtx, nt) = (xt.mt(), xt.nt());
    let nbf = xt.nb() as f64;

    for (k, pl) in plan.iter().enumerate() {
        if k > 0 {
            dag.next_phase();
        }
        let (xin, xout) = (at.x[k % 2], at.x[(k + 1) % 2]);
        let (theta, beta) = (pl.theta, pl.beta);

        if pl.is_qr() {
            // X_out = beta X_in + theta Q1 Q2^H, [Q1; Q2] R = [sqrt(c) X_in; I]
            emit_term(
                dag,
                at.term.expect("plan has a QR iteration"),
                xin,
                (pl.c.sqrt(), R::<S>::ONE),
                S::from_real(theta),
                xout,
                Some(HalleyUpdate { beta, sink, iter: k }),
            );
        } else {
            // ---- Cholesky-based iteration ----
            // One Cholesky term over Z = I + c X_in^H X_in leaves
            // X_in Z^{-1} in X_out (whose buffer last held X_{k-1}: every
            // reader of that is upstream of the L the sweeps wait for).
            let chol = at.chol.expect("plan has a Cholesky iteration");
            emit_gram(dag, xin, chol.z, pl.c, R::<S>::ONE);
            emit_chol_term(dag, chol, xin, xout, failure);

            // X_out = beta X_in + theta (X Z^{-1}), fused with the
            // convergence partial.
            dag.barrier();
            for tj in 0..nt {
                for ti in 0..mtx {
                    let access = (xin.read(ti, tj), xout.write(ti, tj), sink.partial(k, ti, tj));
                    dag.add_on(
                        KernelKind::Geadd,
                        0,
                        nbf * nbf,
                        access,
                        move |(xi, xo, partial)| {
                            let b = S::from_real(beta);
                            let th = S::from_real(theta);
                            let mut acc = R::<S>::ZERO;
                            for c in 0..xi.ncols() {
                                for r in 0..xi.nrows() {
                                    let next = b * xi[(r, c)] + th * xo[(r, c)];
                                    xo[(r, c)] = next;
                                    acc += (next - xi[(r, c)]).abs_sq();
                                }
                            }
                            partial.publish(acc);
                        },
                    );
                }
            }
        }
        sink.emit_reduce::<R<S>>(dag, k);
    }
}

/// Run the planned Halley sequence as one task graph at tile size `nb`:
/// takes the iterate, returns it advanced with the sink holding each
/// iteration's convergence norm.
pub(crate) fn run_graph<S: Scalar>(
    x: Matrix<S>,
    nb: usize,
    plan: &[HalleyStep<S::Real>],
    exploit_structure: bool,
    hooked: &Hooked<'_>,
) -> Result<(Matrix<S>, NormSink), QdwhError> {
    let (m, n, iters) = (x.nrows(), x.ncols(), plan.len());
    let _span = polar_obs::span!("qdwh_fused", m, n);

    // the storage `SolvePtrs::shapes` names (`bind` checks the two agree);
    // it has to outlive the dag whose bodies borrow it
    let xt = Tiling::new(m, n, nb, nb);
    let zeros = |t: Tiling| TiledMatrix::<S>::zeros(t, ProcessGrid::single());
    let mut xb = [TiledMatrix::from_dense(&x, nb, nb, ProcessGrid::single()), zeros(xt)];
    drop(x); // the tiles are the iterate from here on
    let mut qr_ws = plan
        .iter()
        .any(|p| p.is_qr())
        .then(|| TermWorkspace::<S>::new(m, n, nb, exploit_structure.then_some(m)));
    let mut chol_ws = plan
        .iter()
        .any(|p| !p.is_qr())
        .then(|| (zeros(Tiling::new(n, n, nb, nb)), zeros(Tiling::new(n, nb.min(n), nb, nb))));
    let failure = OnceLock::<LapackError>::new();
    let mut sink = NormSink::new(iters, xt);

    let mut dag = TaskDag::new();
    let at = SolvePtrs::shapes(&mut dag, &mut sink, xt, plan, exploit_structure).bind(
        &mut xb,
        qr_ws.as_mut(),
        chol_ws.as_mut(),
    );
    emit_iterations(&mut dag, at, plan, &sink, &failure);

    execute_hooked(dag, hooked, &sink, &failure)?;
    Ok((xb[iters % 2].to_dense(), sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{IterationPath, QdwhOptions, TiledPath};
    use crate::qdwh_impl::{qdwh, Halley, PolarDecomposition};
    use crate::skeleton::plan;
    use polar_gen::{generate, MatrixSpec, SigmaDistribution};
    use polar_scalar::{Complex32, Complex64};
    use proptest::prelude::*;

    fn fused_opts() -> QdwhOptions {
        QdwhOptions { tiled: TiledPath::Always, tile_nb: Some(8), ..Default::default() }
    }

    fn flat_opts() -> QdwhOptions {
        QdwhOptions { tiled: TiledPath::Never, ..Default::default() }
    }

    fn worst_diff<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> f64 {
        let mut worst = 0.0f64;
        for j in 0..a.ncols() {
            for i in 0..a.nrows() {
                worst = worst.max((a[(i, j)] - b[(i, j)]).abs().to_f64());
            }
        }
        worst
    }

    /// Fused vs the flat per-iteration loop, the reference. The flat path
    /// uses a different QR algorithm (blocked Householder vs tile TS-QR),
    /// whose rounding differences get amplified by `kappa(W) ~ sqrt(c)` on
    /// ill-conditioned inputs, so here we assert plan parity,
    /// orthogonality, and backward error instead of elementwise closeness;
    /// the tile kernels themselves are checked against the flat ones where
    /// they live (`polar-lapack`'s `tiled.rs` and proptests run the very
    /// emitters this graph calls).
    fn parity_case<S: Scalar>(a: &Matrix<S>, tol: f64) {
        let fused = qdwh(a, &fused_opts()).expect("fused converged");
        let flat = qdwh(a, &flat_opts()).expect("flat converged");
        assert_eq!(fused.info.kinds, flat.info.kinds, "fused vs flat plans diverged");
        let orth = crate::qdwh_impl::orthogonality_error(&fused.u).to_f64();
        assert!(orth <= tol, "fused U not orthogonal: {orth:e}");
        let berr = fused.backward_error(a).to_f64();
        assert!(berr <= tol, "fused backward error {berr:e}");
    }

    #[test]
    fn fused_matches_flat_all_types() {
        let n = 24;
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(n, 11));
        parity_case(&a, 1e-11);
        let (az, _) = generate::<Complex64>(&MatrixSpec::ill_conditioned(n, 12));
        parity_case(&az, 1e-11);
        let (af, _) = generate::<f64>(&MatrixSpec::well_conditioned(n, 13));
        let a32 = Matrix::<f32>::from_fn(n, n, |i, j| af[(i, j)] as f32);
        parity_case(&a32, 2e-4);
        let (ac, _) = generate::<Complex64>(&MatrixSpec::well_conditioned(n, 14));
        let c32 = Matrix::<Complex32>::from_fn(n, n, |i, j| {
            Complex32::new(ac[(i, j)].re as f32, ac[(i, j)].im as f32)
        });
        parity_case(&c32, 2e-4);
    }

    #[test]
    fn fused_rectangular_with_straddle() {
        // m not a multiple of nb: the W identity block starts mid-tile and
        // the Q2 gather straddles two Q tile rows.
        let spec = MatrixSpec {
            m: 37,
            n: 20,
            cond: 1e8,
            distribution: SigmaDistribution::Geometric,
            seed: 9,
        };
        let (a, _) = generate::<f64>(&spec);
        parity_case(&a, 1e-11);
    }

    /// Cholesky-only runs do the same arithmetic on both the fused and the
    /// flat path up to summation order (herk/potrf on full matrices vs
    /// tiles; substitution vs the inverted diagonal tiles of a
    /// well-conditioned factor), so flat parity is tight there — a sharper
    /// check than the QR case allows.
    #[test]
    fn fused_chol_matches_flat_tightly() {
        let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(24, 11));
        let fused = qdwh(&a, &fused_opts()).expect("fused");
        let flat = qdwh(&a, &flat_opts()).expect("flat");
        assert_eq!(fused.info.kinds, flat.info.kinds);
        assert!(fused.info.qr_iterations == 0, "expected Cholesky-only run");
        let worst = worst_diff(&fused.u, &flat.u);
        assert!(worst <= 1e-11, "chol-only fused vs flat diff {worst:e}");
    }

    #[test]
    fn fused_forced_paths_match_bulk() {
        // ForceCholesky needs c * kappa^2 well inside 1/eps or Z = I + c
        // X^H X goes numerically indefinite (the reason for the QR switch)
        // — use a moderate condition number so both forced paths are
        // viable. It also keeps kappa(W) * eps ~ 1e-13, so the flat loop
        // is a valid elementwise reference for the forced-QR graph.
        let spec = MatrixSpec {
            m: 24,
            n: 24,
            cond: 1e3,
            distribution: SigmaDistribution::Geometric,
            seed: 15,
        };
        let (a, _) = generate::<f64>(&spec);
        for path in [IterationPath::ForceQr, IterationPath::ForceCholesky] {
            let pf = qdwh(&a, &QdwhOptions { path, ..fused_opts() }).expect("fused");
            let pb = qdwh(&a, &QdwhOptions { path, ..flat_opts() }).expect("flat");
            assert_eq!(pf.info.kinds, pb.info.kinds);
            let worst = worst_diff(&pf.u, &pb.u);
            assert!(worst <= 1e-10, "path {path:?}: {worst:e}");
        }
        // the graph and the loop read the same plan: whatever the start
        // and the path, equal kinds, bit-equal bounds, equal cost
        same_plan_on_both_paths(&a);
        same_plan_on_both_paths(&Matrix::<f32>::from_fn(24, 24, |i, j| a[(i, j)] as f32));
        // the paper's kappa = 1e16 split, from its sqrt(n)-deflated start
        let pd = qdwh(&a, &QdwhOptions { l0_override: Some(1e-17), ..flat_opts() }).expect("flat");
        assert_eq!((pd.info.qr_iterations, pd.info.chol_iterations), (3, 3));
    }

    fn same_plan_on_both_paths<S: Scalar>(a: &Matrix<S>) {
        let paths = [IterationPath::Auto, IterationPath::ForceQr, IterationPath::ForceCholesky];
        for l0 in [1e-16, 1e-8, 1e-3, 0.5, 0.9] {
            for path in paths {
                let case = format!("{} l0={l0:e} {path:?}", S::TYPE_TAG);
                let opts = |o| QdwhOptions { l0_override: Some(l0), path, tile_nb: Some(16), ..o };
                let (graph, flat) = (qdwh(a, &opts(fused_opts())), qdwh(a, &opts(flat_opts())));
                let (Ok(graph), Ok(flat)) = (&graph, &flat) else {
                    // a start below the type's range, or a forced Cholesky
                    // on an indefinite Z: refused on both paths
                    assert!(graph.is_err() && flat.is_err(), "{case}: {graph:?} vs {flat:?}");
                    continue;
                };
                assert_eq!(graph.info.kinds, flat.info.kinds, "{case}");
                assert_eq!(graph.info.flops_estimate, flat.info.flops_estimate, "{case}");
                let ells = |pd: &PolarDecomposition<S>| -> Vec<S::Real> {
                    pd.info.records.iter().map(|r| r.ell).collect()
                };
                assert_eq!(ells(graph), ells(flat), "{case}");
                if path == IterationPath::Auto {
                    // c falls monotonically: QR iterations come first, and
                    // the bound marches to 1
                    let first_chol =
                        flat.info.kinds.iter().position(|&k| k != IterationKind::QrBased);
                    let tail = &flat.info.kinds[first_chol.unwrap_or(flat.info.kinds.len())..];
                    assert!(
                        tail.iter().all(|&k| k != IterationKind::QrBased),
                        "{case}: {:?}",
                        flat.info.kinds
                    );
                    let ells = ells(flat);
                    assert!(ells.windows(2).all(|w| w[0] <= w[1]), "{case}");
                    let last = *ells.last().expect("iterated");
                    assert!(
                        (last - S::Real::ONE).abs() < S::Real::from_f64(5.0) * S::Real::EPSILON
                    );
                }
            }
        }
    }

    /// A last tile narrower than nb: the inverted diagonal tile of the
    /// sweeps is then a corner of its workspace tile.
    #[test]
    fn fused_chol_ragged_last_tile() {
        let spec = MatrixSpec {
            m: 37,
            n: 37,
            cond: 1e3,
            distribution: SigmaDistribution::Geometric,
            seed: 21,
        };
        let (a, _) = generate::<f64>(&spec);
        let path = IterationPath::ForceCholesky;
        let opts = QdwhOptions { path, tile_nb: Some(16), ..fused_opts() };
        let fused = qdwh(&a, &opts).expect("fused");
        let flat = qdwh(&a, &QdwhOptions { path, ..flat_opts() }).expect("flat");
        assert_eq!(fused.info.kinds, flat.info.kinds);
        let worst = worst_diff(&fused.u, &flat.u);
        assert!(worst <= 1e-10, "ragged chol-only fused vs flat diff {worst:e}");
    }

    /// An indefinite Z on the Cholesky path must cancel the whole-solve
    /// DAG and surface as a Lapack error, not hang or corrupt state.
    #[test]
    fn fused_chol_indefinite_cancels_cleanly() {
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(24, 15));
        let opts = QdwhOptions { path: IterationPath::ForceCholesky, ..fused_opts() };
        match qdwh(&a, &opts) {
            Err(QdwhError::Lapack(LapackError::NotPositiveDefinite(_))) => {}
            Err(e) => panic!("expected NotPositiveDefinite, got {e:?}"),
            Ok(_) => panic!("expected Cholesky failure on indefinite Z"),
        }
    }

    /// Every value-affecting ordering in the fused DAG is a dependency
    /// edge, so two runs must agree bit-for-bit even with a parallel,
    /// work-stealing schedule and no POLAR_DETERMINISTIC pin.
    #[test]
    fn fused_is_bitwise_deterministic() {
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(40, 16));
        let r1 = qdwh(&a, &fused_opts()).expect("run 1");
        let r2 = qdwh(&a, &fused_opts()).expect("run 2");
        for j in 0..a.ncols() {
            for i in 0..a.nrows() {
                assert_eq!(
                    r1.u[(i, j)].to_bits(),
                    r2.u[(i, j)].to_bits(),
                    "nondeterministic at ({i},{j})"
                );
            }
        }
        assert_eq!(r1.info.iterations, r2.info.iterations);
        for (ra, rb) in r1.info.records.iter().zip(&r2.info.records) {
            assert_eq!(ra.convergence.to_bits(), rb.convergence.to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Randomized fused-vs-flat parity, f64: square and rectangular
        /// shapes, conditioning across the QR/Cholesky switch.
        #[test]
        fn prop_fused_parity_f64(
            n in 9usize..28,
            extra in 0usize..13,
            log_cond in 0.0f64..12.0,
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
            parity_case(&a, 1e-10);
        }

        /// Randomized fused-vs-flat parity, Complex64.
        #[test]
        fn prop_fused_parity_c64(
            n in 9usize..24,
            log_cond in 0.0f64..10.0,
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
            parity_case(&a, 1e-10);
        }
    }

    #[test]
    fn plan_respects_forced_paths() {
        let qr_only = QdwhOptions { path: IterationPath::ForceQr, ..Default::default() };
        let steps = plan::<f64, _>(&Halley(&qr_only), 0.5).unwrap();
        assert!(!steps.is_empty() && steps.iter().all(|p| p.is_qr()));
        let chol_only = QdwhOptions { path: IterationPath::ForceCholesky, ..Default::default() };
        let steps = plan::<f64, _>(&Halley(&chol_only), 0.5).unwrap();
        assert!(steps.iter().all(|p| !p.is_qr()));
    }

    #[test]
    fn plan_bails_on_iteration_cap() {
        let opts = QdwhOptions { max_iterations: 1, ..Default::default() };
        assert!(plan::<f64, _>(&Halley(&opts), 1e-17).is_none());
    }

    #[test]
    fn plan_empty_when_already_converged() {
        let opts = QdwhOptions::default();
        assert!(plan::<f64, _>(&Halley(&opts), 1.0).unwrap().is_empty());
    }
}
