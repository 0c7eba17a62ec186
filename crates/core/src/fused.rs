//! Whole-solve task graph: the entire QDWH Halley sequence as ONE DAG.
//!
//! A per-iteration driver would run one factorization per step with full
//! barriers between them: assemble `W`/`Z`, factor, update, reduce the
//! convergence norm, and only then start step `k+1`. This module has no
//! such barriers. The key enabler is that the Halley weight sequence
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
//! the workspace (`W`/`T`/`Q`; `Z` and the `nt` inverted diagonal tiles of
//! its factor) exists once and is reused by every iteration.
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
//! Continuation: [`crate::skeleton::solve`] re-checks the stop test on the
//! last norm this graph's sink published; what the plan could not cover (a
//! norm still above tolerance with the bound at 1) is one more planned step
//! through [`run_graph`], on the same tiled iterate and workspaces.

use crate::options::{graph_tile_nb, IterationKind};
use crate::qdwh_impl::QdwhError;
use crate::skeleton::HalleyStep;
use crate::solve_dag::{
    emit_chol_term, emit_gram, emit_term, execute_hooked, CholPtr, HalleyUpdate, Hooked, Iterate,
    NormSink, TermPtr, TermWorkspace,
};
use polar_lapack::{LapackError, TilePtr};
use polar_matrix::{ProcessGrid, TiledMatrix, Tiling};
use polar_runtime::{KernelKind, PhaseProfile, TaskDag, TaskGraph};
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
                .then(|| TermPtr::shape(dag, m, n, nb, exploit_structure)),
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
/// by the code [`crate::qdwh`] executes, so its tasks, tile
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

/// The workspaces of a QDWH solve, allocated by the first graph that needs
/// them and kept for the next graph of the same solve: the stacked-QR term's,
/// and for the Cholesky kind `Z` with the tile column of its factor's
/// inverted diagonal tiles.
pub(crate) struct HalleyWorkspace<S: Scalar> {
    term: Option<TermWorkspace<S>>,
    chol: Option<(TiledMatrix<S>, TiledMatrix<S>)>,
}

impl<S: Scalar> Default for HalleyWorkspace<S> {
    fn default() -> Self {
        Self { term: None, chol: None }
    }
}

/// Run the planned Halley sequence on `x` as one task graph: the iterate
/// advanced in place, the sink holding each iteration's convergence norm
/// and the executor's per-phase measurements.
pub(crate) fn run_graph<S: Scalar>(
    x: &mut Iterate<S>,
    ws: &mut HalleyWorkspace<S>,
    plan: &[HalleyStep<S::Real>],
    exploit_structure: bool,
    hooked: &Hooked<'_>,
) -> Result<(NormSink, Vec<PhaseProfile>), QdwhError> {
    let xt = x.tiling();
    let (m, n, nb) = (xt.m(), xt.n(), xt.nb());
    let _span = polar_obs::span!("qdwh_fused", m, n);

    // the storage `SolvePtrs::shapes` names (`bind` checks the two agree);
    // it has to outlive the dag whose bodies borrow it
    let zeros = |t: Tiling| TiledMatrix::<S>::zeros(t, ProcessGrid::single());
    if plan.iter().any(|p| p.is_qr()) {
        ws.term.get_or_insert_with(|| TermWorkspace::new(m, n, nb, exploit_structure));
    }
    if plan.iter().any(|p| !p.is_qr()) {
        ws.chol.get_or_insert_with(|| {
            (zeros(Tiling::new(n, n, nb, nb)), zeros(Tiling::new(n, nb.min(n), nb, nb)))
        });
    }
    let failure = OnceLock::<LapackError>::new();
    let mut sink = NormSink::new(plan.len(), xt);

    let mut dag = TaskDag::new();
    let at = SolvePtrs::shapes(&mut dag, &mut sink, xt, plan, exploit_structure).bind(
        x.bufs(),
        ws.term.as_mut(),
        ws.chol.as_mut(),
    );
    emit_iterations(&mut dag, at, plan, &sink, &failure);

    let phases = execute_hooked(dag, hooked, &sink, &failure)?;
    x.advance(plan.len());
    Ok((sink, phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{IterationPath, QdwhOptions};
    use crate::qdwh_impl::{orthogonality_error, qdwh, Halley};
    use crate::skeleton::{plan, qdwh_flops, Method};
    use crate::svd_pd::svd_based_polar;
    use polar_gen::{generate, MatrixSpec, SigmaDistribution};
    use polar_matrix::Matrix;
    use polar_scalar::{Complex32, Complex64};
    use proptest::prelude::*;

    /// Tiles of 8: several tile rows and columns at test sizes.
    fn fused_opts() -> QdwhOptions {
        QdwhOptions { tile_nb: Some(8), ..Default::default() }
    }

    fn geometric(m: usize, n: usize, cond: f64, seed: u64) -> MatrixSpec {
        MatrixSpec { m, n, cond, distribution: SigmaDistribution::Geometric, seed }
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

    /// `c` falls monotonically: a QR prefix, a Cholesky suffix, never back.
    fn qr_kinds_come_first(kinds: &[IterationKind]) -> bool {
        let first_chol = kinds.iter().position(|&k| k != IterationKind::QrBased);
        kinds[first_chol.unwrap_or(kinds.len())..].iter().all(|&k| k != IterationKind::QrBased)
    }

    /// The graph's factors meet the accuracy bars, and its iterations are
    /// the plan's: QR-based ones first. (Elementwise references need a
    /// well-conditioned input — `kappa(W) ~ sqrt(c)` amplifies the rounding
    /// of any two QR algorithms apart — and are `svd_based_polar`'s below;
    /// the tile kernels themselves are checked against the flat ones where
    /// they live, `polar-lapack`'s `tiled.rs` and proptests.)
    fn graph_case<S: Scalar>(a: &Matrix<S>, tol: f64) {
        let fused = qdwh(a, &fused_opts()).expect("fused converged");
        assert!(qr_kinds_come_first(&fused.info.kinds), "{:?}", fused.info.kinds);
        let orth = orthogonality_error(&fused.u).to_f64();
        assert!(orth <= tol, "fused U not orthogonal: {orth:e}");
        let berr = fused.backward_error(a).to_f64();
        assert!(berr <= tol, "fused backward error {berr:e}");
    }

    #[test]
    fn fused_all_types() {
        let n = 24;
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(n, 11));
        graph_case(&a, 1e-11);
        let (az, _) = generate::<Complex64>(&MatrixSpec::ill_conditioned(n, 12));
        graph_case(&az, 1e-11);
        let (af, _) = generate::<f64>(&MatrixSpec::well_conditioned(n, 13));
        let a32 = Matrix::<f32>::from_fn(n, n, |i, j| af[(i, j)] as f32);
        graph_case(&a32, 2e-4);
        let (ac, _) = generate::<Complex64>(&MatrixSpec::well_conditioned(n, 14));
        let c32 = Matrix::<Complex32>::from_fn(n, n, |i, j| {
            Complex32::new(ac[(i, j)].re as f32, ac[(i, j)].im as f32)
        });
        graph_case(&c32, 2e-4);
    }

    #[test]
    fn fused_rectangular_with_padding() {
        // m not a multiple of nb: X's last tile row is short of W's, whose
        // identity block starts on the next tile boundary
        let (a, _) = generate::<f64>(&geometric(37, 20, 1e8, 9));
        graph_case(&a, 1e-13);
    }

    /// A Cholesky-only run against the independent Jacobi-SVD route,
    /// elementwise.
    #[test]
    fn fused_chol_matches_the_svd_route() {
        let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(24, 11));
        let fused = qdwh(&a, &fused_opts()).expect("fused");
        assert!(fused.info.qr_iterations == 0, "expected Cholesky-only run");
        let reference = svd_based_polar(&a).expect("svd");
        let worst = worst_diff(&fused.u, &reference.u);
        assert!(worst <= 1e-12, "chol-only fused vs svd-based U: {worst:e}");
    }

    #[test]
    fn fused_forced_paths_match_the_svd_route() {
        // ForceCholesky needs c * kappa^2 well inside 1/eps or Z = I + c
        // X^H X goes numerically indefinite (the reason for the QR switch)
        // — use a moderate condition number so both forced paths are
        // viable. It also keeps kappa(W) * eps ~ 1e-13, so an independent
        // route is a valid elementwise reference for the forced-QR graph.
        let (a, _) = generate::<f64>(&geometric(24, 24, 1e3, 15));
        let reference = svd_based_polar(&a).expect("svd");
        for path in [IterationPath::ForceQr, IterationPath::ForceCholesky] {
            let pf = qdwh(&a, &QdwhOptions { path, ..fused_opts() }).expect("fused");
            let forced = if path == IterationPath::ForceQr {
                IterationKind::QrBased
            } else {
                IterationKind::CholeskyBased
            };
            assert!(pf.info.kinds.iter().all(|&k| k == forced), "{path:?}: {:?}", pf.info.kinds);
            let worst = worst_diff(&pf.u, &reference.u);
            assert!(worst <= 1e-10, "path {path:?}: {worst:e}");
        }
        // the solve runs the plan: whatever the start and the path, its
        // kinds, bit-equal bounds, its cost
        the_solve_runs_the_plan(&a);
        the_solve_runs_the_plan(&Matrix::<f32>::from_fn(24, 24, |i, j| a[(i, j)] as f32));
        // the paper's kappa = 1e16 split, from its sqrt(n)-deflated start
        let pd = qdwh(&a, &QdwhOptions { l0_override: Some(1e-17), ..fused_opts() }).expect("run");
        assert_eq!((pd.info.qr_iterations, pd.info.chol_iterations), (3, 3));
    }

    fn the_solve_runs_the_plan<S: Scalar>(a: &Matrix<S>) {
        let paths = [IterationPath::Auto, IterationPath::ForceQr, IterationPath::ForceCholesky];
        for l0 in [1e-16, 1e-8, 1e-3, 0.5, 0.9] {
            for path in paths {
                let case = format!("{} l0={l0:e} {path:?}", S::TYPE_TAG);
                let opts =
                    QdwhOptions { l0_override: Some(l0), path, tile_nb: Some(16), ..fused_opts() };
                let method = Halley(&opts);
                let first_conv = <Halley<'_> as Method<S>>::FIRST_CONV;
                let planned = plan::<S, _>(&method, S::Real::from_f64(l0), first_conv, 50)
                    .expect("inside the cap");
                let Ok(graph) = qdwh(a, &opts) else {
                    // a start below the type's range, or a forced Cholesky
                    // on an indefinite Z
                    continue;
                };
                // the planned steps first; then, one at a time with the bound
                // at 1, what a norm still above tolerance asked for (a start
                // above the matrix's sigma_min leaves several)
                let records = &graph.info.records;
                assert!(records.len() >= planned.len(), "{case}: {}", records.len());
                for (rec, step) in records.iter().zip(&planned) {
                    assert_eq!(rec.kind, step.kind, "{case}");
                    assert_eq!(rec.ell, step.ell_after, "{case}");
                }
                let forced_qr = path == IterationPath::ForceQr;
                for rec in &records[planned.len()..] {
                    assert_eq!(rec.kind == IterationKind::QrBased, forced_qr, "{case}");
                    assert_eq!(rec.ell, S::Real::ONE, "{case}");
                }
                let cost = qdwh_flops(
                    a.ncols(),
                    graph.info.qr_iterations,
                    graph.info.chol_iterations,
                    S::IS_COMPLEX,
                );
                assert_eq!(graph.info.flops_estimate, cost, "{case}");
                if path == IterationPath::Auto {
                    // c falls monotonically: QR iterations come first, and
                    // the bound marches to 1
                    let kinds = &graph.info.kinds;
                    assert!(qr_kinds_come_first(kinds), "{case}: {kinds:?}");
                    let ells: Vec<S::Real> = graph.info.records.iter().map(|r| r.ell).collect();
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
        let (a, _) = generate::<f64>(&geometric(37, 37, 1e3, 21));
        let path = IterationPath::ForceCholesky;
        let opts = QdwhOptions { path, tile_nb: Some(16), ..fused_opts() };
        let fused = qdwh(&a, &opts).expect("fused");
        let reference = svd_based_polar(&a).expect("svd");
        let worst = worst_diff(&fused.u, &reference.u);
        assert!(worst <= 1e-10, "ragged chol-only fused vs svd-based U: {worst:e}");
    }

    /// A norm still above tolerance once the bound is at 1 — every
    /// well-conditioned start — is one more step through the same graph
    /// code: planned alone, emitted alone, numbered on.
    #[test]
    fn the_continuation_is_one_more_emitted_step() {
        let (a, _) = generate::<f64>(&geometric(72, 48, 10.0, 7));
        let opts = QdwhOptions { tile_nb: Some(16), ..Default::default() };
        let _serial = polar_obs::scope_lock();
        let scope = polar_obs::scope();
        let pd = qdwh(&a, &opts).expect("converges");
        let spans = scope.finish().spans;
        let graphs = spans.iter().filter(|s| s.name == "qdwh_fused" && s.dims[..2] == [72, 48]);
        let planned = plan::<f64, _>(&Halley(&opts), pd.info.l0, 100.0, 50).unwrap().len();
        assert_eq!((graphs.count(), pd.info.iterations), (2, planned + 1));
        let iterations: Vec<_> = pd.info.records.iter().map(|r| r.iteration).collect();
        assert_eq!(iterations, (1..=planned + 1).collect::<Vec<_>>());
        assert!(pd.info.records[planned - 1].convergence > 1e-5, "what asked for the step");
        assert!(orthogonality_error(&pd.u) < 1e-14 && pd.backward_error(&a) < 1e-14);
        // a cap the plan fits but the extra step does not
        let capped = QdwhOptions { max_iterations: planned, ..opts };
        assert_eq!(qdwh(&a, &capped).err(), Some(QdwhError::NoConvergence { iterations: planned }));
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

        /// Randomized shapes, f64: square and rectangular, conditioning
        /// across the QR/Cholesky switch.
        #[test]
        fn prop_fused_accuracy_f64(
            n in 9usize..28,
            extra in 0usize..13,
            log_cond in 0.0f64..12.0,
            seed in 0u64..1000,
        ) {
            let (a, _) = generate::<f64>(&geometric(n + extra, n, 10f64.powf(log_cond), seed));
            graph_case(&a, 1e-13);
        }

        /// Randomized shapes, Complex64.
        #[test]
        fn prop_fused_accuracy_c64(
            n in 9usize..24,
            log_cond in 0.0f64..10.0,
            seed in 0u64..1000,
        ) {
            let (a, _) = generate::<Complex64>(&geometric(n, n, 10f64.powf(log_cond), seed));
            graph_case(&a, 1e-13);
        }
    }

    #[test]
    fn plan_respects_forced_paths() {
        let qr_only = QdwhOptions { path: IterationPath::ForceQr, ..Default::default() };
        let steps = plan::<f64, _>(&Halley(&qr_only), 0.5, 0.0, 50).unwrap();
        assert!(!steps.is_empty() && steps.iter().all(|p| p.is_qr()));
        let chol_only = QdwhOptions { path: IterationPath::ForceCholesky, ..Default::default() };
        let steps = plan::<f64, _>(&Halley(&chol_only), 0.5, 0.0, 50).unwrap();
        assert!(steps.iter().all(|p| !p.is_qr()));
    }

    #[test]
    fn plan_bails_on_iteration_cap() {
        assert!(plan::<f64, _>(&Halley(&QdwhOptions::default()), 1e-17, 0.0, 1).is_none());
    }

    #[test]
    fn plan_covers_a_norm_above_tolerance_with_one_step() {
        let opts = QdwhOptions::default();
        assert!(plan::<f64, _>(&Halley(&opts), 1.0, 0.0, 50).unwrap().is_empty());
        let one = plan::<f64, _>(&Halley(&opts), 1.0, 1e-3, 50).unwrap();
        assert_eq!(one.len(), 1);
        assert!(!one[0].is_qr() && one[0].ell_after == 1.0);
        assert!(plan::<f64, _>(&Halley(&opts), 1.0, 1e-3, 0).is_none());
    }
}
