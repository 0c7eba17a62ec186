//! The whole-solve task graph: every planned [`Step`] of a solve as ONE DAG,
//! for QDWH (one term per step) and Zolo-PD (`r`) alike.
//!
//! A per-iteration driver would put full barriers between steps: assemble,
//! factor, update, reduce the convergence norm, and only then start step
//! `k+1`. This module has none. The enabler is that a step's weights and its
//! QR-vs-Cholesky kind depend only on the scalar recurrence of the bound
//! `ell` — a function of `l0`, not of the matrix iterates — so the whole
//! *plan* is known before any flop runs ([`crate::skeleton::plan`], the
//! `itconv` precomputation of Sukkari's POLAR library). [`run_graph`] emits,
//! per planned step `X <- x_coef X + sum_j weight_j X Z_j^{-1}`, `Z_j =
//! alpha_j X^H X + shift_j I`:
//!
//! * per term but the last, its multiple of `X Z_j^{-1}` into a *private* slab
//!   `Y_j`: QR-based a stacked-QR term on `[sqrt(alpha_j) X; sqrt(shift_j) I]`,
//!   Cholesky-based a Cholesky term over `Z_j` (both [`crate::solve_dag`]'s).
//!   The terms share no written tile, so the `r` chains run concurrently —
//!   the concurrency the paper's §8 wants Zolo-PD for;
//! * the last term, which **carries the combine** ([`Combine`]): QR-based,
//!   its product tiles start from `x_coef X + sum_j coef_j Y_j` instead of
//!   zero; Cholesky-based, its sweeps run in place in `X_out` and one update
//!   task per tile adds the same sum. Either way the sum walks the terms in
//!   fixed order and the task publishes the tile's convergence partial
//!   `|X_k - X_{k-1}|_F^2`; a one-term step has no slab and no extra pass;
//! * the Gram matrix of a Cholesky-based step: in place in the term's `Z`
//!   when the step has one term, once into a shared slab each term copies
//!   and shifts when it has several;
//! * one fixed-order reduction task per step. Nothing in step `k+1` waits on
//!   it — it is a sink — so the executor's critical-path priorities and
//!   lookahead window let step-`k+1` panel kernels overlap step-`k` trailing
//!   updates. Each step advances the DAG phase ([`TaskDag::next_phase`]),
//!   which the window is keyed on and the progress hook is told.
//!
//! Determinism: every value-affecting ordering is a dependency edge (tasks
//! write disjoint tiles; accumulations happen inside single tasks in fixed
//! loop order; the combine and the reduction sum in fixed term and tile
//! order), so the iterates are schedule-independent bit for bit.
//! `POLAR_DETERMINISTIC=1` additionally fixes the schedule itself.

use crate::options::{graph_tile_nb, IterationKind};
use crate::qdwh_impl::QdwhError;
use crate::skeleton::{Step, Term};
use crate::solve_dag::{
    emit_chol_term, emit_combine, emit_gram, emit_shifted, emit_term, execute_hooked, CholPtr,
    Combine, Hooked, Iterate, NormSink, TermPtr, TermWorkspace,
};
use polar_lapack::{LapackError, TilePtr};
use polar_matrix::{ProcessGrid, TiledMatrix, Tiling};
use polar_runtime::{PhaseProfile, TaskDag, TaskGraph};
use polar_scalar::{Real, Scalar};
use std::sync::OnceLock;

/// What a solve's graphs allocate, each matrix by the first graph that names
/// it, kept for the next (a continuation step). Per term: a stacked-QR
/// workspace only if a graph plans a QR-based step; a Cholesky term lives in
/// that workspace's `Q` ([`TermPtr::chol`]) when there is one, else in a host
/// of its own (`n x n` and one tile row: [`CholPtr::within`]); and, for every
/// term but the one that carries the combine, the private slab `Y_j`.
/// Shared: the Gram matrix of a several-term Cholesky-based step.
#[derive(Default)]
pub(crate) struct Workspace<S: Scalar> {
    terms: Vec<TermStore<S>>,
    gram: Option<TiledMatrix<S>>,
}

#[derive(Default)]
struct TermStore<S: Scalar> {
    qr: Option<TermWorkspace<S>>,
    chol: Option<TiledMatrix<S>>,
    y: Option<TiledMatrix<S>>,
}

/// Everything the planned steps read and write, as the tasks of one dag see
/// it: `X` double-buffered by step parity (step `k` reads parity `k % 2`,
/// writes the other) and the [`Workspace`].
struct GraphPtrs<'a, S: Scalar> {
    x: [TilePtr<'a, S>; 2],
    terms: Vec<TermSlot<'a, S>>,
    gram: Option<TilePtr<'a, S>>,
}

struct TermSlot<'a, S: Scalar> {
    qr: Option<TermPtr<'a, S>>,
    chol: Option<CholPtr<'a, S>>,
    y: Option<TilePtr<'a, S>>,
}

/// Name a workspace matrix tiled as `t` in `dag`: a shape, or with `backed`
/// over `store`, allocated on first use.
fn tiles<'a, S: Scalar>(
    dag: &mut TaskDag<'_>,
    t: Tiling,
    store: &'a mut Option<TiledMatrix<S>>,
    backed: bool,
) -> TilePtr<'a, S> {
    let shape = TilePtr::shape(dag, t);
    if !backed {
        return shape;
    }
    shape.bind(store.get_or_insert_with(|| TiledMatrix::zeros(t, ProcessGrid::single())))
}

impl<'a, S: Scalar> GraphPtrs<'a, S> {
    /// Name the sink and every matrix the graph of `plan` touches in `dag` —
    /// the one place its matrix ids are handed out, so the executed graph
    /// and [`task_graph`] agree on them. With `x`, over storage: the
    /// iterate's two buffers and `ws`, which allocates what it lacks and has
    /// to outlive the dag whose bodies borrow it. Without, storage-free.
    fn name<R>(
        dag: &mut TaskDag<'_>,
        sink: &mut NormSink,
        xt: Tiling,
        plan: &[Step<R>],
        exploit_structure: bool,
        x: Option<&'a mut [TiledMatrix<S>; 2]>,
        ws: &'a mut Workspace<S>,
    ) -> Self {
        let (m, n, nb) = (xt.m(), xt.n(), xt.nb());
        let backed = x.is_some();
        sink.name_in(dag);
        let shapes = [TilePtr::shape(dag, xt), TilePtr::shape(dag, xt)];
        let x = match x {
            Some([x0, x1]) => [shapes[0].bind(x0), shapes[1].bind(x1)],
            None => shapes,
        };

        let chol = || plan.iter().filter(|p| p.kind == IterationKind::CholeskyBased);
        let qr = chol().count() < plan.len() || ws.terms.iter().any(|t| t.qr.is_some());
        let own_chol = !qr && chol().count() > 0;
        let terms = plan.iter().map(|p| p.terms.len()).max().unwrap_or(0);
        if ws.terms.len() < terms {
            ws.terms.resize_with(terms, TermStore::default);
        }
        let slot = |(j, store): (usize, &'a mut TermStore<S>)| {
            let qr = qr.then(|| {
                let shape = TermPtr::shape(dag, m, n, nb, exploit_structure);
                let new = || TermWorkspace::new(m, n, nb, exploit_structure);
                if backed {
                    shape.bind(store.qr.get_or_insert_with(new))
                } else {
                    shape
                }
            });
            let host = Tiling::new(n + nb, n, nb, nb);
            let own = own_chol.then(|| CholPtr::within(tiles(dag, host, &mut store.chol, backed)));
            let y = (j + 1 < terms).then(|| tiles(dag, xt, &mut store.y, backed));
            TermSlot { qr, chol: qr.map(TermPtr::chol).or(own), y }
        };
        let terms = ws.terms.iter_mut().take(terms).enumerate().map(slot).collect();
        let shared = chol().any(|p| p.terms.len() > 1);
        let gram = shared.then(|| tiles(dag, Tiling::new(n, n, nb, nb), &mut ws.gram, backed));
        Self { x, terms, gram }
    }
}

/// The whole-solve task graph of an `m x n` solve at tile size `nb` running
/// steps of the given kinds with `terms` terms each (QDWH: 1; Zolo-PD: its
/// `r`), without bodies or storage: emitted by the code [`crate::qdwh`] and
/// [`crate::zolo_pd`] execute, so its tasks, tile sets and edges are the
/// executor's (scalar weights never reach the graph). `S` sets the tile
/// payload bytes. What `polar-sim` schedules and
/// [`crate::qdwh_distributed`] meters.
pub fn task_graph<S: Scalar>(
    m: usize,
    n: usize,
    nb: usize,
    kinds: &[IterationKind],
    terms: usize,
    exploit_structure: bool,
) -> TaskGraph {
    assert!(terms > 0, "a step has at least one term");
    let unit = Term { alpha: 1.0, shift: 1.0, weight: 1.0 };
    let step = |&kind| Step { kind, ell_after: 1.0, x_coef: 1.0, terms: vec![unit; terms] };
    let plan: Vec<_> = kinds.iter().map(step).collect();
    let nb = graph_tile_nb(Some(nb), n);
    let xt = Tiling::new(m, n, nb, nb);
    let failure = OnceLock::new();
    let mut sink = NormSink::new(plan.len(), xt);
    let mut ws = Workspace::<S>::default();
    let mut dag = TaskDag::new();
    let at = GraphPtrs::name(&mut dag, &mut sink, xt, &plan, exploit_structure, None, &mut ws);
    emit_steps(&mut dag, &at, &plan, &sink, &failure);
    dag.into_graph()
}

/// Add every planned step to `dag`, one phase each.
fn emit_steps<'a, S: Scalar, R: Real>(
    dag: &mut TaskDag<'a>,
    at: &GraphPtrs<'a, S>,
    plan: &[Step<R>],
    sink: &'a NormSink,
    failure: &'a OnceLock<LapackError>,
) {
    let real = |v: R| S::Real::from_f64(v.to_f64());
    let scalar = |v: R| S::from_f64(v.to_f64());
    for (k, step) in plan.iter().enumerate() {
        if k > 0 {
            dag.next_phase();
        }
        let (xin, xout) = (at.x[k % 2], at.x[(k + 1) % 2]);
        // per term, in the step's kind: what its matrix is built from and
        // the coefficient of what its factorization leaves
        let applied: Vec<_> = step.terms.iter().map(|t| t.applied(step.kind)).collect();
        let coefs: Vec<S> = applied.iter().map(|a| scalar(a.2)).collect();
        let last = applied.len() - 1;
        let slab = |j: usize| at.terms[j].y.expect("every term but the last has a slab");
        let (ys, x_coef) = ((0..last).map(slab).collect(), scalar(step.x_coef));
        let combine = Combine { x_coef, ys, coefs: coefs[..last].to_vec(), sink, iter: k };

        match step.kind {
            // coef_j Q1 Q2^H, [Q1; Q2] R = [sqrt(alpha_j) X_in; sqrt(shift_j) I]
            IterationKind::QrBased => {
                for (j, (term, &(s, d, _))) in at.terms.iter().zip(&applied).enumerate() {
                    let ws = term.qr.expect("plan has a QR-based step");
                    let scales = (real(s), real(d));
                    if j < last {
                        emit_term(dag, ws, xin, scales, S::ONE, slab(j), None);
                    } else {
                        emit_term(dag, ws, xin, scales, coefs[j], xout, Some(&combine));
                    }
                }
            }
            // coef_j X_in Z_j^{-1}, Z_j = alpha_j X_in^H X_in + shift_j I; the
            // last term's in X_out (whose buffer last held X_{k-1}: every
            // reader of that is upstream of the L the sweeps wait for)
            IterationKind::CholeskyBased => {
                // one term forms its Z in place, several share X_in^H X_in
                let gram = at.gram.filter(|_| last > 0);
                if let Some(gram) = gram {
                    emit_gram(dag, xin, gram, S::Real::ONE, S::Real::ZERO);
                }
                for (j, (term, &(alpha, shift, _))) in at.terms.iter().zip(&applied).enumerate() {
                    let chol = term.chol.expect("plan has a Cholesky-based step");
                    match gram {
                        Some(gram) => emit_shifted(dag, gram, chol.z, real(alpha), real(shift)),
                        None => emit_gram(dag, xin, chol.z, real(alpha), real(shift)),
                    }
                    emit_chol_term(dag, chol, xin, if j < last { slab(j) } else { xout }, failure);
                }
                emit_combine(dag, xin, xout, coefs[last], &combine);
            }
        }
        sink.emit_reduce::<S::Real>(dag, k);
    }
}

/// Run the planned steps on `x` as one task graph: the iterate advanced in
/// place, the sink holding each step's convergence norm and the executor's
/// per-phase measurements.
pub(crate) fn run_graph<S: Scalar, R: Real>(
    x: &mut Iterate<S>,
    ws: &mut Workspace<S>,
    plan: &[Step<R>],
    exploit_structure: bool,
    hooked: &Hooked<'_>,
) -> Result<(NormSink, Vec<PhaseProfile>), QdwhError> {
    let xt = x.tiling();
    let _span = polar_obs::span!("solve_graph", xt.m(), xt.n());
    let failure = OnceLock::<LapackError>::new();
    let mut sink = NormSink::new(plan.len(), xt);

    let mut dag = TaskDag::new();
    let bufs = Some(x.bufs());
    let at = GraphPtrs::name(&mut dag, &mut sink, xt, plan, exploit_structure, bufs, ws);
    emit_steps(&mut dag, &at, plan, &sink, &failure);

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
        let graphs = spans.iter().filter(|s| s.name == "solve_graph" && s.dims[..2] == [72, 48]);
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
        assert!(!steps.is_empty() && steps.iter().all(|p| p.kind == IterationKind::QrBased));
        let chol_only = QdwhOptions { path: IterationPath::ForceCholesky, ..Default::default() };
        let steps = plan::<f64, _>(&Halley(&chol_only), 0.5, 0.0, 50).unwrap();
        assert!(steps.iter().all(|p| p.kind == IterationKind::CholeskyBased));
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
        assert!(one[0].kind == IterationKind::CholeskyBased && one[0].ell_after == 1.0);
        assert!(plan::<f64, _>(&Halley(&opts), 1.0, 1e-3, 0).is_none());
    }
}
