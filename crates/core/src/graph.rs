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
//! * QR-based, at any number of terms: one QR of `X = Q_x R`, in place in
//!   `X`'s buffer (for a solve's first step, the one the start stage ran),
//!   then per term a QR of the two-triangle stack `[sqrt(alpha_j) R;
//!   sqrt(shift_j) I]` only — the terms of a round ([`term_slots`]) share no
//!   written tile, so their chains run concurrently, the concurrency the
//!   paper's §8 wants Zolo-PD for — `x_coef R` plus their `coef_j Q1 Q2^H`
//!   summed in fixed term order into the top `n x n` of `X_out`, and `Q_x`
//!   applied ([`crate::solve_dag`]'s `emit_factored_step`); QDWH's step is
//!   its one-term member. `X_out` is `X` itself when the terms run in one
//!   round and `X` has no more tile rows than tile columns: the sum is
//!   written over term 0's `Q1`, lifted in slot 0's top half and copied
//!   back; else it is the spare buffer;
//! * Cholesky-based with one term (QDWH): `Z = L L^H`, then per block of
//!   tile rows two sweeps that leave `V = X Z^{-1}` in the last term slot's
//!   top half and one update task per tile writing `x_coef X + weight V`
//!   over `X` in place ([`Combine`]). The Gram matrix is formed in place in
//!   the term's `Z`;
//! * Cholesky-based with several terms (Zolo-PD): the terms differ only in
//!   their `n x n` matrices `Z_j = alpha_j X^H X + shift_j I`, so the step
//!   is `X_out = X M`, `M = x_coef I + sum_j weight_j Z_j^{-1}` formed in
//!   `n x n` space: `X^H X` once into the last slot's top half, per term its
//!   shifted copy factored and inverted (`Z_j^{-1} = T_j^H T_j`, `T_j =
//!   L_j^{-1}`), the terms summed into `M`, slot 0's top half, a round of
//!   terms at a time, and per block of tile rows one gemm per tile into
//!   `V`, where the Gram matrix was, and a copy back over `X`. What scales
//!   with `m` is one `herk` and one gemm, whatever `r`; the terms of a round
//!   share no written tile until the sum, so their chains run concurrently.
//!   A solve's first step forms no Gram matrix when the start stage
//!   certified `l0` on one ([`crate::skeleton::scaled_start`]): every term
//!   shifts that one.
//!   Whatever the step, one task per tile of its output publishes its
//!   convergence partial `|X_k - X_{k-1}|_F^2` (a QR-based step's, in `R`
//!   space, before `Q_x`);
//! * one fixed-order reduction task per step. Nothing in step `k+1` waits on
//!   it — it is a sink — so the executor's critical-path priorities and
//!   lookahead window let step-`k+1` panel kernels overlap step-`k` trailing
//!   updates. Each step advances the DAG phase ([`TaskDag::next_phase`]),
//!   which the window is keyed on and the progress hook is told.
//!
//! Determinism: every value-affecting ordering is a dependency edge (tasks
//! write disjoint tiles; an accumulation runs inside one task, or a chain
//! of them on the same tile, in fixed loop order; the sums and the
//! reduction go in fixed term and tile order), so the iterates are
//! schedule-independent bit for bit. The tile
//! size is a function of the shape alone (`auto_tile_nb`), so they do not
//! depend on the pool width either; a one-worker pool fixes the schedule
//! itself.

use crate::options::{graph_tile_nb, IterationKind};
use crate::qdwh_impl::QdwhError;
use crate::skeleton::{Step, Term};
use crate::solve_dag::{
    emit_apply, emit_chol_inverse, emit_chol_term, emit_factored_step, emit_gram,
    emit_inverse_round, emit_shifted, execute_hooked, rounds, stacked, CholPtr, Combine, Hooked,
    Iterate, NormSink,
};
use polar_lapack::{LapackError, QrPtr, QrStructure, TFactors, TilePtr, TILE_LANES};
use polar_matrix::{ProcessGrid, TiledMatrix, Tiling};
use polar_runtime::{PhaseProfile, TaskDag, TaskGraph};
use polar_scalar::{Real, Scalar};
use std::sync::OnceLock;

/// What a solve's graphs read and write besides the iterate, kept from one
/// graph of the solve to the next (a continuation step): its term slots
/// ([`term_slots`]; term `j` of a step runs in slot `j % slots`, reused by
/// the next round once this one's terms are summed), each one stacked
/// buffer of `(ceil(n / nb) nb + n) x n`, and — once a graph plans a
/// QR-based step — their `T` factors and those of the QR of `X`, in place
/// in the iterate's buffer. Every `n`-row matrix a step needs lives in a
/// slot's top half ([`TilePtr::top`]): the Gram matrix and `V` (the rows
/// a Cholesky-based step writes `X` from) in the last slot's, `M` and a
/// QR-based step's product and its lift in slot 0's; a Cholesky term's `Z`
/// is its slot's bottom `n x n` ([`CholPtr::within`]), where `Q2` goes.
/// The start stage may have left `X_0^H X_0` in the last slot's top half
/// ([`Workspace::gram_host`]) or the `T` factors of the tile QR of `X_0`.
#[derive(Default)]
pub(crate) struct Workspace<S: Scalar> {
    slots: Vec<TermStore<S>>,
    pub factor: Option<TFactors<S>>,
    /// The last slot's top half holds `X^H X` of the iterate the next graph
    /// starts from.
    pub gram_given: bool,
    /// The iterate the next graph starts from is factored, `factor` holding
    /// its `T` factors.
    pub factor_given: bool,
}

/// One term slot: its stacked buffer, and the `T` factors of its QR.
struct TermStore<S: Scalar> {
    w: TiledMatrix<S>,
    t: Option<TFactors<S>>,
}

impl<S: Scalar> TermStore<S> {
    /// The slots of a step of `terms` terms over an iterate tiled as `xt`,
    /// those `slots` lacks allocated.
    fn fill(slots: &mut Vec<Self>, xt: Tiling, terms: usize) -> &mut [Self] {
        let (wt, s) = (stacked(xt.n(), xt.nb()).0, term_slots(terms));
        if slots.len() < s {
            let zeros = || TermStore { w: TiledMatrix::zeros(wt, ProcessGrid::single()), t: None };
            slots.resize_with(s, zeros);
        }
        &mut slots[..s]
    }
}

impl<S: Scalar> Workspace<S> {
    /// The last slot's buffer of a step of `terms` terms over an iterate
    /// tiled as `xt`, where the start stage forms the Gram matrix it
    /// certifies `l_0` on (its top half) and factors a copy of it (its
    /// bottom half).
    pub(crate) fn gram_host(&mut self, xt: Tiling, terms: usize) -> &mut TiledMatrix<S> {
        &mut TermStore::fill(&mut self.slots, xt, terms).last_mut().expect("a slot").w
    }
}

/// The term workspaces a step of `terms` terms runs in: one per lane the
/// tile grid is sized for, [`TILE_LANES`] (2: a several-term Cholesky-based
/// step keeps `M` and its Gram matrix in two slots' top halves), and never
/// more than `terms` — a function of `terms` alone, like the tile size of
/// the shape, so that the pool width moves no bit. A slot holds about twice
/// a square `X` (`W`, then `Q` in its place), so the slot count, not `r`,
/// sets a Zolo-PD solve's memory.
pub(crate) fn term_slots(terms: usize) -> usize {
    terms.min(TILE_LANES)
}

/// Everything the planned steps read and write, as the tasks of one dag see
/// it: the iterate's buffer and, if it holds one, its spare, and the
/// [`Workspace`]. The iterate allocates its spare only for a QR-based step
/// that cannot lift in place: its terms take more than one round of slots,
/// or `X` has more tile rows than tile columns.
struct GraphPtrs<'a, S: Scalar> {
    x: TilePtr<'a, S>,
    /// What a QR-based step that cannot update `X` in place writes.
    spare: Option<TilePtr<'a, S>>,
    slots: Vec<TermSlot<'a, S>>,
    /// The QR of a QR-based step's `X_in`, in place, over `x`.
    factor: Option<QrPtr<'a, S>>,
    /// The last slot's top half holds `X_in^H X_in` of the first step: it
    /// forms none.
    gram_given: bool,
    /// `X_in` of the first step is factored already: it runs no QR of it.
    factor_given: bool,
}

struct TermSlot<'a, S: Scalar> {
    w: TilePtr<'a, S>,
    /// Its QR ([`stacked`]), if a step is QR-based.
    qr: Option<QrPtr<'a, S>>,
}

/// The QR of `a` in `dag`, its `T` factors over `t`, allocated on first use
/// — or, with no storage, a shape.
fn qr_over<'a, S: Scalar>(
    dag: &mut TaskDag<'_>,
    a: TilePtr<'a, S>,
    structure: QrStructure,
    t: Option<&'a mut Option<TFactors<S>>>,
) -> QrPtr<'a, S> {
    let f = QrPtr::over(dag, a, structure);
    match t {
        Some(t) => f.bind_t(t.get_or_insert_with(|| TFactors::zeros(a.tiling(), structure))),
        None => f,
    }
}

impl<'a, S: Scalar> GraphPtrs<'a, S> {
    /// Name the sink and every matrix the graph of `plan` touches in `dag` —
    /// the one place its matrix ids are handed out, so the executed graph
    /// and [`task_graph`] agree on them. With `x`, over storage: the
    /// iterate, which allocates its spare if a step needs one, and `ws`,
    /// which allocates what it lacks and has to outlive the dag whose bodies
    /// borrow it. Without, storage-free, with a spare where a step needs
    /// one. A Gram matrix or factor `ws` was given is the first step's, if
    /// that step is of its kind, and no later graph's.
    fn name(
        dag: &mut TaskDag<'_>,
        sink: &mut NormSink,
        xt: Tiling,
        plan: &[Step<f64>],
        x: Option<&'a mut Iterate<S>>,
        ws: &'a mut Workspace<S>,
    ) -> Self {
        sink.name_in(dag);
        let first = |kind| plan.first().is_some_and(|p: &Step<f64>| p.kind == kind);
        let gram_given = std::mem::take(&mut ws.gram_given) && first(IterationKind::CholeskyBased);
        let factor_given = std::mem::take(&mut ws.factor_given) && first(IterationKind::QrBased);
        let qr = plan.iter().any(|p| p.kind == IterationKind::QrBased);
        let terms = plan.iter().map(|p| p.terms.len()).max().unwrap_or(0);
        let slots = term_slots(terms);
        // a QR-based step whose terms take several rounds of slots, or whose
        // lift does not fit slot 0's top half (X has more tile rows than
        // tile columns), writes the spare
        let aside = plan.iter().any(|p| {
            p.kind == IterationKind::QrBased && (p.terms.len() > slots || xt.mt() > xt.nt())
        });
        let bufs = x.map(|x| x.bufs(aside));
        let held = bufs.as_ref().map_or(aside, |(_, spare)| spare.is_some());
        let (x, spare) = (TilePtr::shape(dag, xt), held.then(|| TilePtr::shape(dag, xt)));
        let (x, spare, stores, factor) = match bufs {
            Some((b, s)) => {
                let Workspace { slots: stores, factor, .. } = ws;
                let stores = TermStore::fill(stores, xt, terms);
                (x.bind(b), spare.zip(s).map(|(p, s)| p.bind(s)), stores, Some(factor))
            }
            None => (x, spare, &mut [][..], None),
        };
        let (wt, structure) = stacked(xt.n(), xt.nb());
        let factor = qr.then(|| qr_over(dag, x, QrStructure::Dense, factor));
        let mut stores = stores.iter_mut();
        let slots = (0..slots)
            .map(|_| {
                let w = TilePtr::shape(dag, wt);
                let (w, t) = match stores.next() {
                    Some(TermStore { w: buf, t }) => (w.bind(buf), Some(t)),
                    None => (w, None),
                };
                TermSlot { w, qr: qr.then(|| qr_over(dag, w, structure, t)) }
            })
            .collect();
        Self { x, spare, slots, factor, gram_given, factor_given }
    }
}

/// The whole-solve task graph of an `m x n` solve at tile size `nb`
/// running steps of the given kinds with `terms` terms each (QDWH: 1;
/// Zolo-PD: its `r`), without bodies or storage: emitted by the code
/// [`crate::qdwh`] executes at every `terms`, so its tasks, tile sets and
/// edges are the executor's (scalar weights never reach the graph). `S`
/// sets the tile payload bytes. What `polar-sim` schedules and
/// [`crate::qdwh_distributed`] meters. A Cholesky-based first step reads the
/// Gram matrix the start stage formed, as in a solve whose `l_0` was
/// certified on it (every Cholesky-first solve of the default options, in
/// practice), and a QR-based first step the tile QR of `X` the start stage
/// estimated `l_0` with (every QR-first solve of the default options): those
/// graphs are not part of this one.
pub fn task_graph<S: Scalar>(
    m: usize,
    n: usize,
    nb: usize,
    kinds: &[IterationKind],
    terms: usize,
) -> TaskGraph {
    assert!(terms > 0, "a step has at least one term");
    let unit = Term { alpha: 1.0, shift: 1.0, weight: 1.0 };
    let step = |&kind| Step { kind, ell_after: 1.0, x_coef: 1.0, terms: vec![unit; terms] };
    let plan: Vec<_> = kinds.iter().map(step).collect();
    let nb = graph_tile_nb(Some(nb), n);
    let xt = Tiling::new(m, n, nb, nb);
    let failure = OnceLock::new();
    let mut sink = NormSink::new(plan.len(), xt);
    let mut ws = Workspace::<S> { gram_given: true, factor_given: true, ..Workspace::default() };
    let mut dag = TaskDag::new();
    let at = GraphPtrs::name(&mut dag, &mut sink, xt, &plan, None, &mut ws);
    emit_steps(&mut dag, &at, &plan, &sink, &failure);
    dag.into_graph()
}

/// Add every planned step to `dag`, one phase each; how many of them wrote
/// the spare buffer, which then holds the iterate. With a spare, every
/// QR-based step writes it; every other step runs in place.
fn emit_steps<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    at: &GraphPtrs<'a, S>,
    plan: &[Step<f64>],
    sink: &'a NormSink,
    failure: &'a OnceLock<LapackError>,
) -> usize {
    let (real, scalar) = (S::Real::from_f64, S::from_f64);
    // the buffer holding X_k, and the other one if the iterate has two
    let (mut xin, mut other) = (at.x, at.spare);
    let mut flips = 0;
    let s = at.slots.len();
    let top = |j: usize| at.slots[j].w.top(at.x.tiling().n());
    for (k, step) in plan.iter().enumerate() {
        if k > 0 {
            dag.next_phase();
        }
        // per term, in the step's kind: what its matrix is built from and
        // the coefficient of what its factorization leaves
        let applied: Vec<_> = step.terms.iter().map(|t| t.applied(step.kind)).collect();
        let combine = Combine { x: xin, x_coef: scalar(step.x_coef), sink, iter: k };

        match step.kind {
            // X_in = Q_x R in place — which the first step may have been
            // given — then x_coef R + sum_j coef_j Q1_j Q2_j^H, [Q1_j; Q2_j]
            // R_j = [sqrt(alpha_j) R; sqrt(shift_j) I], and Q_x applied: into
            // the other buffer, which then holds X, or lifted in slot 0
            IterationKind::QrBased => {
                let mut f = at.factor.expect("plan has a QR-based step");
                f.a = xin;
                let given = k == 0 && at.factor_given;
                let slots: Vec<_> = at.slots.iter().map(|t| t.qr.expect("a QR step")).collect();
                let terms: Vec<_> =
                    applied.iter().map(|&(s, d, c)| (real(s), real(d), scalar(c))).collect();
                emit_factored_step(dag, f, given, &slots, &terms, other, &combine);
                if let Some(out) = other {
                    (xin, other, flips) = (out, Some(xin), flips + 1);
                }
            }
            // Z_j = alpha_j X_in^H X_in + shift_j I, X_in updated in place
            // from V in the last slot's top half. One term: V = X_in Z^{-1},
            // X = x_coef X_in + coef V. Several: V = X_in M, M = x_coef I +
            // sum_j coef_j Z_j^{-1} in slot 0's top half
            IterationKind::CholeskyBased => {
                let several = applied.len() > 1;
                let (m, v) = (top(0), top(s - 1));
                let chol = |j: usize| CholPtr::within(at.slots[j % s].w);
                // one term forms its Z in place, several share X_in^H X_in
                // where V goes — which the first step may have been given
                let given = k == 0 && at.gram_given;
                let gram = (several || given).then_some(v);
                if several && !given {
                    emit_gram(dag, xin, v, S::Real::ONE, S::Real::ZERO);
                }
                for (round, part) in rounds(applied.len(), s) {
                    for j in round.clone() {
                        let (alpha, shift, coef) = applied[j];
                        let z = chol(j).z;
                        match gram {
                            Some(gram) => emit_shifted(dag, gram, z, real(alpha), real(shift)),
                            None => emit_gram(dag, xin, z, real(alpha), real(shift)),
                        }
                        if several {
                            emit_chol_inverse(dag, chol(j), failure);
                        } else {
                            emit_chol_term(dag, chol(j), v, scalar(coef), &combine, failure);
                        }
                    }
                    // the round's terms into M before the next reuses slots
                    if several {
                        let terms: Vec<_> = round.map(|j| (chol(j), real(applied[j].2))).collect();
                        emit_inverse_round(dag, &terms, real(step.x_coef), part, m);
                    }
                }
                if several {
                    emit_apply(dag, m, v, &combine);
                }
            }
        }
        sink.emit_reduce::<S::Real>(dag, k);
    }
    flips
}

/// Run the planned steps on `x` as one task graph: the iterate advanced in
/// place, the sink holding each step's convergence norm and the executor's
/// per-phase measurements.
pub(crate) fn run_graph<S: Scalar>(
    x: &mut Iterate<S>,
    ws: &mut Workspace<S>,
    plan: &[Step<f64>],
    hooked: &Hooked<'_>,
) -> Result<(NormSink, Vec<PhaseProfile>), QdwhError> {
    let xt = x.tiling();
    let _span = polar_obs::span!("solve_graph", xt.m(), xt.n());
    let failure = OnceLock::<LapackError>::new();
    let mut sink = NormSink::new(plan.len(), xt);

    let mut dag = TaskDag::new();
    let at = GraphPtrs::name(&mut dag, &mut sink, xt, plan, Some(&mut *x), ws);
    let flips = emit_steps(&mut dag, &at, plan, &sink, &failure);

    let phases = execute_hooked(dag, hooked, &sink, &failure)?;
    x.advance(flips);
    Ok((sink, phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{IterationPath, L0Strategy, QdwhOptions};
    use crate::qdwh_impl::{orthogonality_error, qdwh, Halley};
    use crate::skeleton::{estimate_l0, plan, qdwh_flops, scaled_start, Method};
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
        // narrower than the smallest tile: the start's QR is tiled as the
        // iterate, one column of tiles 5 wide, and the first step reads it
        let (a, _) = generate::<f64>(&geometric(11, 5, 1e12, 9));
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
                let l0 = S::Real::from_f64(l0).to_f64();
                let planned = plan::<S, _>(&method, l0, first_conv, 50).expect("inside the cap");
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
                    assert_eq!(rec.ell, S::Real::from_f64(step.ell_after), "{case}");
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
        // the QR route's bound plans three steps here, the last norm still
        // above tolerance (the Gram route's, a few ulps away, lands the
        // third bound on the stop test's edge and plans a fourth instead)
        let alpha = polar_lapack::norm2est(&a).estimate;
        let x = Matrix::from_fn(72, 48, |i, j| a[(i, j)] * alpha.recip());
        let qr = || polar_lapack::geqrf_tiled(&x, 16).extract_r();
        let l0 = estimate_l0(x.as_ref(), L0Strategy::SigmaMinPowerIteration, qr);
        let opts = QdwhOptions { tile_nb: Some(16), l0_override: Some(l0), ..Default::default() };
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
    /// work-stealing schedule.
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

    /// Bytes a solve's workspace holds: its slots' buffers and `T` factors
    /// and the `T` factors of the QR of `X`.
    fn workspace_bytes<S: Scalar>(ws: &Workspace<S>) -> usize {
        let t = |t: &Option<TFactors<S>>| t.as_ref().map_or(0, TFactors::bytes);
        let slot = |s: &TermStore<S>| {
            let wt = s.w.tiling();
            wt.m() * wt.n() * std::mem::size_of::<S>() + t(&s.t)
        };
        ws.slots.iter().map(slot).sum::<usize>() + t(&ws.factor)
    }

    /// A step of `r` terms runs in [`term_slots`]`(r)` term workspaces,
    /// round after round: after a QR-based and a Cholesky-based step the
    /// solve's workspace holds that many slots, each one stacked buffer
    /// (`W`, then `Q` in its place, then `Z` and `M` or the Gram matrix and
    /// `V`) and its `T` factors, and besides them only the `T` factors of
    /// the QR of `X` — byte for byte, from the tilings.
    #[test]
    fn a_solve_holds_a_term_workspace_per_slot_not_per_term() {
        let (m, n, nb) = (45usize, 40usize, 16usize);
        let (a, sigma) = generate::<f64>(&geometric(m, n, 1e8, 5));
        let (wt, structure) = stacked(n, nb);
        let term = wt.m() * wt.n() * 8 + TFactors::<f64>::zeros(wt, structure).bytes();
        for r in [1usize, 2, 3, 8] {
            let opts = QdwhOptions { terms: r, ..fused_opts() };
            let steps = crate::qdwh_plan::<f64>(&opts, 1e-9, 0.0, 50).expect("inside the cap");
            let kinds: Vec<_> = steps.iter().map(|s| s.kind).collect();
            assert!(kinds.contains(&IterationKind::QrBased), "r = {r}: {kinds:?}");
            assert!(kinds.contains(&IterationKind::CholeskyBased), "r = {r}: {kinds:?}");
            let mut x = Iterate::scaled(&a, 1.0 / sigma[0], nb);
            let mut ws = Workspace::default();
            let ells = vec![0.0; steps.len() + 1];
            let hooked = Hooked { hook: None, first_iteration: 1, first_conv: 1.0, ells: &ells };
            run_graph(&mut x, &mut ws, &steps, &hooked).expect("the plan runs");

            let slots = term_slots(r);
            assert_eq!((slots, ws.slots.len()), (r.min(2), slots), "r = {r}");
            let x_t = TFactors::<f64>::zeros(x.tiling(), QrStructure::Dense).bytes();
            assert_eq!(workspace_bytes(&ws), slots * term + x_t, "r = {r}");
            // one round of terms lifts its product through slot 0's top half
            // and writes X in place; only several rounds write the spare
            assert_eq!(x.bufs(false).1.is_some(), r > slots, "r = {r}");
        }
    }

    /// The iterate and workspace a `qdwh` solve of `a` at tile size `nb` and
    /// `terms` terms holds after its planned steps, and whether its start
    /// certified `l_0`.
    fn held_after_the_plan<S: Scalar>(
        a: &Matrix<S>,
        nb: usize,
        terms: usize,
    ) -> (Iterate<S>, Workspace<S>, bool) {
        let opts = QdwhOptions { tile_nb: Some(nb), terms, ..Default::default() };
        let start = if terms == 1 {
            scaled_start(a, &opts, &Halley(&opts), nb)
        } else {
            scaled_start(a, &opts, &crate::zolo::Zolotarev(terms), nb)
        };
        let start = start.expect("starts").expect("not zero");
        let certified = start.ws.gram_given;
        let (mut x, mut ws) = (start.x, start.ws);
        let steps = crate::qdwh_plan::<S>(&opts, start.l0.to_f64(), 0.0, 50).expect("planned");
        let ells = vec![0.0; steps.len() + 1];
        let hooked = Hooked { hook: None, first_iteration: 1, first_conv: 1.0, ells: &ells };
        run_graph(&mut x, &mut ws, &steps, &hooked).expect("the plan runs");
        (x, ws, certified)
    }

    /// A certified Cholesky-only solve of `m x n` at tile size `nb` and
    /// `terms` terms holds one `m x n` iterate and its term slots, with no
    /// `T` factors — byte for byte, from the tilings.
    fn certified_holds<S: Scalar>(m: usize, n: usize, nb: usize, terms: usize, seed: u64) {
        let (a, _) = generate::<S>(&geometric(m, n, 10.0, seed));
        let (mut x, ws, certified) = held_after_the_plan(&a, nb, terms);
        let case = format!("{} {m} x {n} nb {nb} r {terms}", S::TYPE_TAG);
        assert!(certified, "{case}: a well-conditioned start is certified on its Gram matrix");
        assert!(x.bufs(false).1.is_none(), "{case}: one iterate buffer");
        assert!(ws.factor.is_none() && ws.slots.iter().all(|t| t.t.is_none()), "{case}");
        let wt = stacked(n, nb).0;
        let slots = term_slots(terms) * wt.m() * wt.n() * std::mem::size_of::<S>();
        assert_eq!(workspace_bytes(&ws), slots, "{case}");
    }

    /// A Cholesky-only solve holds one `m x n` iterate and its term slots:
    /// one slot for a certified tall QDWH solve, two for a certified tall
    /// three-term one (`solve_hashes`' `zolo-r3-chol-tall`). A square
    /// QR-first solve holds one iterate buffer too; a tall one, whose lift
    /// does not fit slot 0's top half, holds two.
    #[test]
    fn a_cholesky_only_solve_holds_one_iterate_buffer() {
        certified_holds::<Complex64>(96, 40, 8, 1, 3);
        certified_holds::<f64>(200, 40, 32, 3, 35);
        certified_holds::<Complex64>(200, 40, 32, 3, 35);

        let (m, n, nb) = (96usize, 40usize, 8usize);
        for (rows, spare) in [(n, false), (m, true)] {
            let (a, _) = generate::<Complex64>(&geometric(rows, n, 1e12, 3));
            let (mut x, _, certified) = held_after_the_plan(&a, nb, 1);
            assert!(!certified, "{rows} x {n}");
            assert_eq!(x.bufs(false).1.is_some(), spare, "{rows} x {n}: iterate buffers");
        }
    }

    /// A QR-first plan with the iterate's spare buffer pre-allocated — its
    /// QR-based steps lift their product there — and without, the product
    /// written over term slot 0's `Q1`, lifted there and copied back: `U`,
    /// `H` and every convergence norm, bit for bit. Whole tiles, a ragged
    /// square, and as many tile rows as columns with `m > n` inside the
    /// last one; QDWH from its start, whose QR the first step reads, and
    /// the QR-based steps of a two-term plan, whose round fills both slots.
    fn qr_steps_in_the_slot_vs_the_spare<S: Scalar>(m: usize, n: usize, nb: usize, terms: usize) {
        let opts = QdwhOptions { tile_nb: Some(nb), terms, ..Default::default() };
        let (a, sigma) = generate::<S>(&geometric(m, n, 1e16, 19));
        let bits = |z: &Matrix<S>| -> Vec<_> {
            z.as_slice()
                .iter()
                .map(|v| (v.re().to_f64().to_bits(), v.im().to_f64().to_bits()))
                .collect()
        };
        let case = format!("{} {m}x{n} nb {nb} r {terms}", S::TYPE_TAG);
        let run = |spare: bool| {
            let (mut x, mut ws, steps) = if terms == 1 {
                let method = Halley(&opts);
                let start = scaled_start(&a, &opts, &method, nb).expect("starts").expect("not 0");
                let first_conv = <Halley<'_> as Method<S>>::FIRST_CONV;
                let steps = plan::<S, _>(&method, start.l0.to_f64(), first_conv, 50).expect("plan");
                (start.x, start.ws, steps)
            } else {
                let mut steps = crate::qdwh_plan::<S>(&opts, 1e-16, 0.0, 50).expect("plan");
                steps.retain(|s| s.kind == IterationKind::QrBased);
                let x = Iterate::scaled(&a, S::Real::from_f64(1.0 / sigma[0]), nb);
                (x, Workspace::default(), steps)
            };
            assert_eq!(steps[0].kind, IterationKind::QrBased, "{case}");
            if spare {
                let _ = x.bufs(true);
            }
            let ells = vec![0.0; steps.len() + 1];
            let hooked = Hooked { hook: None, first_iteration: 1, first_conv: 1.0, ells: &ells };
            let (sink, _) = run_graph(&mut x, &mut ws, &steps, &hooked).expect("the plan runs");
            assert_eq!(x.bufs(false).1.is_some(), spare, "{case}");
            let norms: Vec<_> =
                (0..steps.len()).map(|k| sink.norm::<S::Real>(k).to_f64().to_bits()).collect();
            let u = x.into_dense();
            let h = crate::skeleton::finish(&u, &a, true);
            (bits(&u), bits(&h), norms)
        };
        assert!(run(false) == run(true), "{case}");
    }

    #[test]
    fn qr_steps_in_the_term_slot_match_the_spare_bit_for_bit() {
        for (m, n) in [(96usize, 96usize), (83, 83), (90, 83)] {
            qr_steps_in_the_slot_vs_the_spare::<f64>(m, n, 32, 1);
            qr_steps_in_the_slot_vs_the_spare::<Complex64>(m, n, 32, 1);
        }
        qr_steps_in_the_slot_vs_the_spare::<f64>(90, 83, 32, 2);
        qr_steps_in_the_slot_vs_the_spare::<Complex64>(90, 83, 32, 2);
    }

    /// A several-term Cholesky-based step touches `X` in two places — the
    /// Gram matrix and `X M`, one gemm into `V` and one copy back per tile —
    /// whatever its `r`: the count of tasks that read or write `X` is that
    /// of `r = 2` at every `r`. (The iterate's buffer is the first matrix a
    /// graph names after the sink's two.)
    #[test]
    fn zolo_chol_step_touches_x_as_often_at_every_r() {
        let touching = |m: usize, n: usize, r: usize| {
            let graph = task_graph::<f64>(m, n, 16, &[IterationKind::CholeskyBased], r);
            let x = |t: &polar_runtime::TileRef| t.matrix == 2;
            graph.tasks.iter().filter(|t| t.reads.iter().chain(&t.writes).any(x)).count()
        };
        for (m, n) in [(96usize, 96usize), (150, 70)] {
            let (mt, nt) = (m.div_ceil(16), n.div_ceil(16));
            // the first step reads the start's Gram matrix: only X M, a gemm
            // that reads X's row and a copy that writes its tile
            assert_eq!(touching(m, n, 2), 2 * mt * nt, "{m}x{n}");
            for r in [3usize, 8] {
                assert_eq!(touching(m, n, r), touching(m, n, 2), "{m}x{n} r = {r}");
            }
            // and one term reads X in its forward sweep and updates it in
            // place: twice per tile too
            assert_eq!(touching(m, n, 1), 2 * mt * nt, "{m}x{n}");
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
