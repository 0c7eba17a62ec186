//! What the whole-solve task graph ([`crate::graph`]) builds a step from:
//!
//! * the **stacked-QR term** ([`emit_term`]): `[s X; 0; d I]` assembly, the
//!   identity on a tile boundary → tile QR → explicit `Q` → `alpha Q1 Q2^H`
//!   product tiles. The factorization tasks themselves come from
//!   `polar-lapack`'s emitters — this crate names no tile kernel;
//! * the **factored QR-based step** of several terms
//!   ([`emit_factored_step`]): one tile QR of `X`, the same term over its
//!   `R` for each — `[s_j R; 0; d_j I]`, a triangular top — then the terms'
//!   product tiles summed, `Q_x` applied and the combine;
//! * the **Cholesky term** ([`emit_chol_term`], over a `Z` formed by
//!   [`emit_gram`] or [`emit_shifted`]): tile Cholesky → one `trtri_lower` per
//!   diagonal tile → the two sweeps that leave `X Z^{-1}` in an output slab;
//! * the **combine** ([`Combine`]) one term of a step carries — in its
//!   product tiles, or in [`emit_combine`]'s update tasks behind its sweeps;
//! * the **convergence sink** ([`NormSink`]): per-tile `|X_k - X_{k-1}|_F^2`
//!   partials published by the carrying tasks and one fixed-order reduction
//!   task per iteration that nothing downstream waits on;
//! * running the graph under the caller's progress hook
//!   ([`execute_hooked`]).
//!
//! Every task here is added with [`TaskDag::add_on`]: its read and write
//! sets are the [`TilePtr::read`] / [`TilePtr::write`] / [`NormSink::partial`]
//! values it lists, and its body is a closure over the tiles those resolve
//! to. No body reaches for a tile by index, so none can touch one it did
//! not declare.

use crate::options::{poll_progress, ProgressHook};
use crate::qdwh_impl::QdwhError;
use polar_blas::{gemm, herk, scale_real, trmm};
use polar_lapack::{
    emit_geqrf, emit_orgqr, emit_potrf, emit_unmqr, tile_nb3, trtri_lower, LapackError, QrPtr,
    QrStructure, TilePtr, TiledQr,
};
use polar_matrix::{Diag, Matrix, Op, ProcessGrid, Side, TiledMatrix, Tiling, Uplo};
use polar_runtime::{
    Access, ExecOutcome, InBody, KernelKind, PhaseProfile, TaskDag, TaskStatus, TileRef,
};
use polar_scalar::{Real, Scalar};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Per-tile convergence partials and per-iteration reduced norms of one
/// whole-solve graph. Values cross threads as `f64` bit patterns (exact
/// for every supported real type). `Relaxed` suffices: each slot publishes
/// only itself, and a reader is ordered after its writer by a dag edge
/// (partials → reduce task) or by the executor's phase frontier (reduced
/// norm → the progress hook, the post-run bookkeeping).
pub(crate) struct NormSink {
    partials: Vec<AtomicU64>,
    norms: Vec<AtomicU64>,
    mt: usize,
    nt: usize,
    partial_id: u32,
    norm_id: u32,
}

impl NormSink {
    /// Slots for `iters` iterations over an iterate tiled as `xt`. The
    /// sink has to outlive the dag whose tasks borrow it, so it is built
    /// first and given its dependency names by [`NormSink::name_in`].
    pub(crate) fn new(iters: usize, xt: Tiling) -> Self {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        Self {
            partials: zeros(iters * xt.mt() * xt.nt()),
            norms: zeros(iters),
            mt: xt.mt(),
            nt: xt.nt(),
            partial_id: 0,
            norm_id: 0,
        }
    }

    /// Claim the matrix ids the slots are tracked under in `dag`; call
    /// before any task naming them is added.
    pub(crate) fn name_in(&mut self, dag: &mut TaskDag<'_>) {
        (self.partial_id, self.norm_id) = (dag.new_matrix(), dag.new_matrix());
    }

    /// Iteration `k`'s partial for tile `(ti, tj)`, for the write set of the
    /// task that publishes it.
    pub(crate) fn partial(&self, k: usize, ti: usize, tj: usize) -> SinkSlot<'_> {
        SinkSlot {
            bits: &self.partials[(k * self.nt + tj) * self.mt + ti],
            name: TileRef::new(self.partial_id, k * self.mt + ti, tj, 8),
            write: true,
        }
    }

    fn norm_slot(&self, k: usize) -> SinkSlot<'_> {
        SinkSlot { bits: &self.norms[k], name: TileRef::new(self.norm_id, k, 0, 8), write: true }
    }

    /// `||X_{k+1} - X_k||_F` as reduced by iteration `k`'s sink task.
    pub(crate) fn norm<R: Real>(&self, k: usize) -> R {
        self.norm_slot(k).load()
    }

    /// Add iteration `k`'s fixed-order reduction. A sink: nothing in
    /// iteration `k + 1` depends on it, so the next iteration's panel work
    /// overlaps this one's tail.
    pub(crate) fn emit_reduce<'a, R: Real>(&'a self, dag: &mut TaskDag<'a>, k: usize) {
        let (mt, nt) = (self.mt, self.nt);
        let partials: Vec<_> = (0..nt)
            .flat_map(|tj| {
                (0..mt).map(move |ti| SinkSlot { write: false, ..self.partial(k, ti, tj) })
            })
            .collect();
        let access = (partials, self.norm_slot(k));
        dag.add_on(KernelKind::Norm, -1, (mt * nt) as f64, access, |(partials, norm)| {
            let mut s = R::ZERO;
            for p in partials {
                s += p.load::<R>();
            }
            norm.publish(s.sqrt());
        });
    }
}

/// One slot of a [`NormSink`] in a task's read or write set; the body
/// receives the slot.
#[derive(Clone, Copy)]
pub(crate) struct SinkSlot<'a> {
    bits: &'a AtomicU64,
    name: TileRef,
    write: bool,
}

impl SinkSlot<'_> {
    pub(crate) fn publish<R: Real>(self, value: R) {
        self.bits.store(value.to_f64().to_bits(), Ordering::Relaxed);
    }

    fn load<R: Real>(self) -> R {
        R::from_f64(f64::from_bits(self.bits.load(Ordering::Relaxed)))
    }
}

impl Access for SinkSlot<'_> {
    type Out<'t> = Self;

    fn declare(&self, reads: &mut Vec<TileRef>, writes: &mut Vec<TileRef>) {
        if self.write { writes } else { reads }.push(self.name);
    }

    fn get(self, _: &InBody) -> Self {
        self
    }
}

/// The iterate of one solve as its graphs see it: tiled once, double-buffered
/// (iteration `k` of a graph reads buffer `k % 2` and writes the other), and
/// kept tiled from one graph of the solve to the next.
pub(crate) struct Iterate<S: Scalar> {
    bufs: [TiledMatrix<S>; 2],
}

impl<S: Scalar> Iterate<S> {
    pub(crate) fn from_dense(x: &Matrix<S>, nb: usize) -> Self {
        let first = TiledMatrix::from_dense(x, nb, nb, ProcessGrid::single());
        let spare = TiledMatrix::zeros(first.tiling(), ProcessGrid::single());
        Self { bufs: [first, spare] }
    }

    pub(crate) fn tiling(&self) -> Tiling {
        self.bufs[0].tiling()
    }

    /// The two buffers, the one holding the iterate first.
    pub(crate) fn bufs(&mut self) -> &mut [TiledMatrix<S>; 2] {
        &mut self.bufs
    }

    /// A graph of `iters` iterations has run on [`Iterate::bufs`]: put the
    /// buffer its last iteration wrote first.
    pub(crate) fn advance(&mut self, iters: usize) {
        if iters % 2 == 1 {
            self.bufs.swap(0, 1);
        }
    }

    pub(crate) fn into_dense(self) -> Matrix<S> {
        let [x, spare] = self.bufs;
        drop(spare);
        x.to_dense()
    }
}

/// Workspace of one stacked-QR term — `W = [s B; 0; d I]` with its `T`
/// factors and the explicit `Q` — allocated once per solve and reused by
/// every iteration: by the time any tile of `X_{k+1}` exists every reader of
/// iteration `k`'s workspace has run, so the reuse edges the dag infers cost
/// no overlap. `B` is the iterate `X` itself, or — in a step of several
/// terms, which factors `X` once ([`emit_factored_step`]) — `X`'s `R`
/// factor: `n x n`, upper triangular.
///
/// `B`'s rows are padded with zero rows to whole tiles, so the identity
/// starts on a tile boundary whatever its height is. The pad rows change
/// nothing in exact arithmetic (`R` is `W^H W`'s factor, the other rows of
/// `Q` are `W R^{-1}`'s) and buy three things: no tile kernel sees rows of
/// scale `s` (up to `1e8`) beside rows of scale `d`, which cost the tile QR
/// its row-wise accuracy; the `[B; I]` pruning and the triangular-tile
/// windows apply to every shape ([`QrStructure::Stacked`]); and `Q2`'s tile
/// `(tj, kc)` *is* `Q`'s tile `(mt + tj, kc)`, `mt` the padded `B`'s tile
/// rows, so the product tiles read `Q` in place.
pub(crate) struct TermWorkspace<S: Scalar> {
    w: TiledQr<S>,
    q: TiledMatrix<S>,
}

/// Tiling of the stacked `W` and `Q` of an `m x n` iterate, and the
/// structure of its factorization: `[X; 0; I]`, or with `over_r` `[R; 0; I]`
/// (`R` `n x n` upper triangular).
fn stacked(m: usize, n: usize, nb: usize, over_r: bool) -> (Tiling, QrStructure) {
    let top_rows = if over_r { n } else { m }.div_ceil(nb) * nb;
    let structure = if over_r {
        QrStructure::TriangularTop { top_rows }
    } else {
        QrStructure::Stacked { top_rows }
    };
    (Tiling::new(top_rows + n, n, nb, nb), structure)
}

impl<S: Scalar> TermWorkspace<S> {
    /// For an `m x n` iterate at tile size `nb`, stacking `X` (or, with
    /// `over_r`, its `R`), the factorization pruned to the fill window.
    pub(crate) fn new(m: usize, n: usize, nb: usize, over_r: bool) -> Self {
        let (wt, structure) = stacked(m, n, nb, over_r);
        Self { w: TiledQr::zeros(wt, structure), q: TiledMatrix::zeros(wt, ProcessGrid::single()) }
    }
}

/// A [`TermWorkspace`] as the tasks of one dag see it: registered as a
/// shape, bound to storage by whoever executes the dag.
#[derive(Clone, Copy)]
pub(crate) struct TermPtr<'a, S: Scalar> {
    w: QrPtr<'a, S>,
    q: TilePtr<'a, S>,
    over_r: bool,
}

impl<'a, S: Scalar> TermPtr<'a, S> {
    /// Arguments as for [`TermWorkspace::new`].
    pub(crate) fn shape(
        dag: &mut TaskDag<'_>,
        m: usize,
        n: usize,
        nb: usize,
        over_r: bool,
    ) -> Self {
        let (wt, structure) = stacked(m, n, nb, over_r);
        Self { w: QrPtr::shape(dag, wt, structure), q: TilePtr::shape(dag, wt), over_r }
    }

    pub(crate) fn bind<'b>(self, ws: &'b mut TermWorkspace<S>) -> TermPtr<'b, S> {
        TermPtr { w: self.w.bind(&mut ws.w), q: self.q.bind(&mut ws.q), over_r: self.over_r }
    }

    /// The same workspace as a Cholesky term's: `Z` where `Q2` goes, the
    /// inverted diagonal tiles in the first tile row of `Q1`.
    pub(crate) fn chol(self) -> CholPtr<'a, S> {
        CholPtr::within(self.q)
    }
}

/// Workspace of one Cholesky term: `z`, `n x n`, whose lower tiles hold `Z`
/// and then its factor `L`; and `linv`, whose tiles `(0, tj)` hold the
/// inverses of `L`'s diagonal tiles in their leading corners.
#[derive(Clone, Copy)]
pub(crate) struct CholPtr<'a, S> {
    pub z: TilePtr<'a, S>,
    linv: TilePtr<'a, S>,
}

impl<'a, S: Scalar> CholPtr<'a, S> {
    /// In a host of `nt` tile columns and more than `nt` tile rows: `Z` in
    /// its last `nt` tile rows, the inverted diagonal tiles in its first.
    pub(crate) fn within(host: TilePtr<'a, S>) -> Self {
        let t = host.tiling();
        Self { z: host.below(t.mt() - t.nt()), linv: host }
    }
}

/// What the one term of a step that carries its combine (or a factored
/// step's update tasks) adds to its output tiles: `x_coef X + sum_j coef_j
/// Y_j`, the `Y_j` the private slabs the step's other terms left their `X
/// Z_j^{-1}` multiples in, summed in fixed term order; and each tile
/// publishes its convergence partial `|out - X|_F^2` for iteration `iter`.
/// A one-term step has no slab: QDWH's Halley update, fused.
pub(crate) struct Combine<'a, S: Scalar> {
    pub x: TilePtr<'a, S>,
    pub x_coef: S,
    pub ys: Vec<TilePtr<'a, S>>,
    pub coefs: Vec<S>,
    pub sink: &'a NormSink,
    pub iter: usize,
}

/// `x_coef X + sum_j coef_j Y_j` at entry `at`.
fn combined<S: Scalar>(
    x_coef: S,
    x: &Matrix<S>,
    coefs: &[S],
    ys: &[&Matrix<S>],
    at: (usize, usize),
) -> S {
    let mut sum = x_coef * x[at];
    for (&coef, y) in coefs.iter().zip(ys) {
        sum += coef * y[at];
    }
    sum
}

/// Add one stacked-QR term to `dag`:
///
/// ```text
/// [Q1; 0; Q2] R = [s X; 0; d I]    (tile QR on the pruned row window)
/// out = alpha Q1 Q2^H              (+ the combine, for the term that carries it)
/// ```
///
/// `x` and `out` are tiled alike (`m x n`); `ws` was sized for them.
pub(crate) fn emit_term<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    ws: TermPtr<'a, S>,
    x: TilePtr<'a, S>,
    scales: (S::Real, S::Real),
    alpha: S,
    out: TilePtr<'a, S>,
    combine: Option<&Combine<'a, S>>,
) {
    emit_stacked_q(dag, ws, x, scales);
    emit_product(dag, &[(ws, alpha)], out, combine);
}

/// Add a QR-based step of several terms to `dag`, each term's QR built on
/// one QR of `X`:
///
/// ```text
/// X = Q_x R                                 (tile QR of a copy of X, in f)
/// [Q1_j; 0; Q2_j] R_j = [s_j R; 0; d_j I]   (per term, on two triangles)
/// out = Q_x [sum_j coef_j Q1_j Q2_j^H; 0]   (+ the combine)
/// ```
///
/// `[s X; d I] = diag(Q_x, I) [s R; d I]`, so term `j`'s `Q1 Q2^H` of the
/// stacked `[s_j X; d_j I]` is `Q_x [Q1_j Q2_j^H; 0]`: the step
/// [`emit_term`] per term computes, with one QR of `X` where it factors
/// `X` once per term. The terms share no written tile, so their chains run
/// concurrently. `terms` holds each term's workspace (built `over_r`) and
/// `coef`, `scales` its `(s, d)`; `f` is tiled like `X`.
pub(crate) fn emit_factored_step<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    f: QrPtr<'a, S>,
    terms: &[(TermPtr<'a, S>, S)],
    scales: &[(S::Real, S::Real)],
    out: TilePtr<'a, S>,
    combine: &Combine<'a, S>,
) {
    let (x, xt) = (combine.x, combine.x.tiling());
    let nbf = xt.nb() as f64;
    dag.barrier();
    for j in 0..xt.nt() {
        for i in 0..xt.mt() {
            let access = (f.a.write(i, j), x.read(i, j));
            dag.add_on(KernelKind::Geadd, 2, nbf * nbf, access, |(ft, xs)| ft.copy_from(xs));
        }
    }
    emit_geqrf(dag, f);
    for (&(ws, _), &scales) in terms.iter().zip(scales) {
        emit_stacked_q(dag, ws, f.a, scales);
    }
    emit_product(dag, terms, out, None);
    emit_unmqr(dag, f, out, false);
    emit_combine(dag, out, S::ONE, combine);
}

/// Add `[Q1; 0; Q2] R = [s B; 0; d I]` to `dag`, in `ws`: the stack filled
/// per tile from `top` — `X`, or for a workspace built `over_r` the upper
/// triangle of a factored `X`'s tiles, its `R` — then its tile QR and
/// explicit `Q`.
fn emit_stacked_q<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    ws: TermPtr<'a, S>,
    top: TilePtr<'a, S>,
    (s, d): (S::Real, S::Real),
) {
    let TermPtr { w: f, q, over_r } = ws;
    let w = f.a;
    let (nt, mtw, nbf) = (top.tiling().nt(), w.tiling().mt(), w.tiling().nb() as f64);
    // W's tile rows from d0 on are the identity's
    let d0 = mtw - nt;

    // W = [s B; 0; d I] per tile
    dag.barrier();
    for j in 0..nt {
        for wi in 0..mtw {
            let read = wi < d0 && (!over_r || wi <= j);
            let access = (w.write(wi, j), read.then(|| top.read(wi, j)));
            // R's diagonal tile is a factored tile: R above, reflectors below
            let triangle = over_r && wi == j;
            dag.add_on(KernelKind::Geadd, 2, nbf * nbf, access, move |(wt, ts)| {
                wt.fill(S::ZERO);
                match ts {
                    // the last tile row of B may be short of W's: pad rows
                    Some(ts) => {
                        let sc = S::from_real(s);
                        let copy = s == S::Real::ONE; // s = 1 is a copy, bit for bit
                        for c in 0..ts.ncols() {
                            let rows = if triangle { ts.nrows().min(c + 1) } else { ts.nrows() };
                            for r in 0..rows {
                                wt[(r, c)] = if copy { ts[(r, c)] } else { sc * ts[(r, c)] };
                            }
                        }
                    }
                    None if wi >= d0 && wi - d0 == j => {
                        for c in 0..wt.ncols() {
                            wt[(c, c)] = S::from_real(d);
                        }
                    }
                    None => {}
                }
            });
        }
    }

    emit_geqrf(dag, f);
    emit_orgqr(dag, f, q);
}

/// Add `out = sum_j coef_j Q1_j Q2_j^H` to `dag`, per tile of `out`, from
/// the explicit `Q`s of the stacked terms `qs` (`(workspace, coef_j)`), the
/// terms in fixed order and each accumulated over the columns of its `Q` in
/// fixed order (one task per tile: no reduction across tasks). With the
/// combine of a one-term step, the tiles start from `x_coef X` instead of
/// zero and publish their convergence partials. `Q2`'s tiles `(tj, kc <
/// tj)` are never reached by the sweep that formed it, exact zeros, and
/// with a triangular top (`over_r`) neither are `Q1`'s `(ti, kc < ti)`: the
/// products skip them. Tile rows of `out` below `Q1`'s are zero.
fn emit_product<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    qs: &[(TermPtr<'a, S>, S)],
    out: TilePtr<'a, S>,
    combine: Option<&Combine<'a, S>>,
) {
    let ot = out.tiling();
    let (nt, nbf, nb3) = (ot.nt(), ot.nb() as f64, tile_nb3::<S>(ot.nb()));
    dag.barrier();
    for tj in 0..nt {
        for ti in 0..ot.mt() {
            // with the combine, X (ti, tj) joins the reads and the partial
            // the writes; then per term row ti of Q1 against row tj of Q2,
            // from the first column where neither is zero
            let carried = combine.map(|c| (c.x.read(ti, tj), c.sink.partial(c.iter, ti, tj)));
            let x_coef = combine.map_or(S::ZERO, |c| c.x_coef);
            let rows: Vec<Vec<_>> = qs
                .iter()
                .map(|&(TermPtr { q, over_r, .. }, _)| {
                    let q2 = q.tiling().mt() - nt;
                    let first = if over_r { ti.max(tj) } else { tj };
                    (first..nt).map(|kc| (q.read(ti, kc), q.read(q2 + tj, kc))).collect()
                })
                .collect();
            let alphas: Vec<S> = qs.iter().map(|&(_, coef)| coef).collect();
            let (kind, flops) = match rows.iter().map(Vec::len).sum::<usize>() {
                0 => (KernelKind::Geadd, nbf * nbf),
                pairs => (KernelKind::Gemm, 2.0 * nb3 * pairs as f64),
            };
            let access = (out.write(ti, tj), carried, rows);
            dag.add_on(kind, 0, flops, access, move |(o, carried, rows)| {
                match &carried {
                    Some((xi, _)) => {
                        for c in 0..o.ncols() {
                            for r in 0..o.nrows() {
                                o[(r, c)] = x_coef * xi[(r, c)];
                            }
                        }
                    }
                    None => o.fill(S::ZERO),
                }
                for (&alpha, pairs) in alphas.iter().zip(rows) {
                    for (q1, q2) in pairs {
                        gemm(
                            Op::NoTrans,
                            Op::ConjTrans,
                            alpha,
                            q1.view(0, 0, o.nrows(), q1.ncols()),
                            q2.as_ref(),
                            S::ONE,
                            o.as_mut(),
                        );
                    }
                }
                if let Some((xi, partial)) = carried {
                    let mut acc = S::Real::ZERO;
                    for c in 0..o.ncols() {
                        for r in 0..o.nrows() {
                            acc += (o[(r, c)] - xi[(r, c)]).abs_sq();
                        }
                    }
                    partial.publish(acc);
                }
            });
        }
    }
}

/// Add `Z = shift I + alpha X^H X` to `dag`, lower tiles only: one task per
/// tile, `herk` on the diagonal, accumulating over `X`'s tile rows in
/// fixed order.
pub(crate) fn emit_gram<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    x: TilePtr<'a, S>,
    z: TilePtr<'a, S>,
    alpha: S::Real,
    shift: S::Real,
) {
    let xt = x.tiling();
    let (mtx, nt) = (xt.mt(), xt.nt());
    let nb3 = tile_nb3::<S>(xt.nb());

    dag.barrier();
    for zj in 0..nt {
        for zi in zj..nt {
            // columns zi and, off the diagonal, zj of X
            let cols: Vec<_> =
                (0..mtx).map(|l| (x.read(l, zi), (zi != zj).then(|| x.read(l, zj)))).collect();
            let flops = if zi == zj { nb3 * mtx as f64 } else { 2.0 * nb3 * mtx as f64 };
            dag.add_on(
                if zi == zj { KernelKind::Herk } else { KernelKind::Gemm },
                3,
                flops,
                (z.write(zi, zj), cols),
                move |(zt_tile, cols)| {
                    zt_tile.fill(S::ZERO);
                    if zi == zj {
                        for d in 0..zt_tile.ncols() {
                            zt_tile[(d, d)] = S::from_real(shift);
                        }
                    }
                    for (xi, xj) in cols {
                        match xj {
                            None => herk(
                                Uplo::Lower,
                                Op::ConjTrans,
                                alpha,
                                xi.as_ref(),
                                S::Real::ONE,
                                zt_tile.as_mut(),
                            ),
                            Some(xj) => gemm(
                                Op::ConjTrans,
                                Op::NoTrans,
                                S::from_real(alpha),
                                xi.as_ref(),
                                xj.as_ref(),
                                S::ONE,
                                zt_tile.as_mut(),
                            ),
                        }
                    }
                },
            );
        }
    }
}

/// Add one Cholesky term to `dag`, from `Z` in the lower tiles of `ws.z`:
///
/// ```text
/// Z = L L^H                        (tile Cholesky, in place)
/// out = X Z^{-1} = X L^{-H} L^{-1}  (two sweeps over out's tile columns)
/// ```
///
/// `x` and `out` are tiled alike (`m x n`), `ws` at the same `nb`. A `Z`
/// that is not positive definite stores the error in `failure`, with the
/// pivot's global index, and cancels the dag.
///
/// The sweeps multiply by the inverted diagonal tiles of `L` where a solve
/// would be: safe only for a well-conditioned `Z` (`polar_lapack`'s
/// `tri.rs`), which is what makes an iteration Cholesky-based — `kappa(Z)
/// <= 1 + c <= 101` under QDWH's switch, and the same bound under
/// Zolo-PD's.
pub(crate) fn emit_chol_term<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    ws: CholPtr<'a, S>,
    x: TilePtr<'a, S>,
    out: TilePtr<'a, S>,
    failure: &'a OnceLock<LapackError>,
) {
    let CholPtr { z, linv } = ws;
    let xt = x.tiling();
    let (nb, mtx, nt) = (xt.nb(), xt.mt(), xt.nt());
    let nb3 = tile_nb3::<S>(nb);

    // Z = L L^H in place. Indefiniteness cancels the whole solve — an
    // error aborts every later iteration too.
    emit_potrf(dag, z, failure);

    // L_jj^{-1} per diagonal tile, which turns the diagonal solve of both
    // sweeps below into a multiply. A pivot trtri rejects is a factor
    // potrf should have refused: same failure.
    dag.barrier();
    for tj in 0..nt {
        dag.add_on(
            KernelKind::Trsm,
            3,
            nb3 / 3.0,
            (z.read(tj, tj), linv.write(0, tj)),
            move |(l, t)| {
                let r = l.nrows();
                match trtri_lower(l.as_ref(), t.view_mut(0, 0, r, r)) {
                    Ok(()) => TaskStatus::Continue,
                    Err(e) => {
                        let at = if let LapackError::SingularPivot(p) = e { p } else { 0 };
                        let _ = failure.set(LapackError::NotPositiveDefinite(tj * nb + at + 1));
                        TaskStatus::Cancel
                    }
                }
            },
        );
    }

    // X Z^{-1} by two sweeps over the tile columns, in place in `out`.
    // Forward, C L^H = X, tile columns ascending; then backward, V L = C,
    // descending — so each sweep's RAW edges bind to its own solved tiles
    // and the in-place WAW chains behind the forward pass over the same
    // tile. Per tile: subtract the already-solved columns, then multiply
    // by the inverted diagonal tile from the right.
    for forward in [true, false] {
        let op = if forward { Op::ConjTrans } else { Op::NoTrans };
        for step in 0..nt {
            dag.barrier();
            let tj = if forward { step } else { nt - 1 - step };
            // solved columns this one depends on, and the L tile that
            // couples it to each
            let solved = if forward { 0..tj } else { tj + 1..nt };
            let l_tile = move |l: usize| if forward { (tj, l) } else { (l, tj) };
            for ti in 0..mtx {
                let pairs: Vec<_> = solved
                    .clone()
                    .map(|l| {
                        let (i, j) = l_tile(l);
                        (out.read(ti, l), z.read(i, j))
                    })
                    .collect();
                dag.add_on(
                    KernelKind::Trsm,
                    2,
                    (2.0 * solved.len() as f64 + 1.0) * nb3,
                    (out.write(ti, tj), forward.then(|| x.read(ti, tj)), pairs, linv.read(0, tj)),
                    move |(vt, xt, pairs, inv)| {
                        if let Some(xt) = xt {
                            vt.copy_from(xt);
                        }
                        for (vl, zl) in pairs {
                            gemm(
                                Op::NoTrans,
                                op,
                                -S::ONE,
                                vl.as_ref(),
                                zl.as_ref(),
                                S::ONE,
                                vt.as_mut(),
                            );
                        }
                        let r = vt.ncols();
                        trmm(
                            Side::Right,
                            Uplo::Lower,
                            op,
                            Diag::NonUnit,
                            S::ONE,
                            inv.view(0, 0, r, r),
                            vt.as_mut(),
                        );
                    },
                );
            }
        }
    }
}

/// Add `Z = alpha G + shift I` to `dag`, lower tiles only, from the Gram
/// matrix `G` the terms of a step share: one task per tile.
pub(crate) fn emit_shifted<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    gram: TilePtr<'a, S>,
    z: TilePtr<'a, S>,
    alpha: S::Real,
    shift: S::Real,
) {
    let (nt, nbf) = (gram.tiling().nt(), gram.tiling().nb() as f64);
    dag.barrier();
    for zj in 0..nt {
        for zi in zj..nt {
            let access = (z.write(zi, zj), gram.read(zi, zj));
            dag.add_on(KernelKind::Geadd, 3, nbf * nbf, access, move |(zt, gt)| {
                zt.copy_from(gt);
                scale_real(alpha, zt.as_mut());
                if zi == zj {
                    for d in 0..zt.ncols() {
                        zt[(d, d)] += S::from_real(shift);
                    }
                }
            });
        }
    }
}

/// Add the update of a step to `dag`: `out = weight out +` the combine, per
/// tile — `out` holding the carrying Cholesky term's `X Z^{-1}`, which its
/// sweeps ran in place there, or a factored QR-based step's sum of terms.
pub(crate) fn emit_combine<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    out: TilePtr<'a, S>,
    weight: S,
    combine: &Combine<'a, S>,
) {
    let (x, xt) = (combine.x, combine.x.tiling());
    let nbf = xt.nb() as f64;
    dag.barrier();
    for tj in 0..xt.nt() {
        for ti in 0..xt.mt() {
            let ys: Vec<_> = combine.ys.iter().map(|y| y.read(ti, tj)).collect();
            let flops = nbf * nbf * (ys.len() + 1) as f64;
            let partial = combine.sink.partial(combine.iter, ti, tj);
            let access = (x.read(ti, tj), ys, out.write(ti, tj), partial);
            let (x_coef, coefs) = (combine.x_coef, combine.coefs.clone());
            dag.add_on(KernelKind::Geadd, 0, flops, access, move |(xi, ys, xo, partial)| {
                let mut acc = S::Real::ZERO;
                for c in 0..xi.ncols() {
                    for r in 0..xi.nrows() {
                        let next = combined(x_coef, xi, &coefs, &ys, (r, c)) + weight * xo[(r, c)];
                        xo[(r, c)] = next;
                        acc += (next - xi[(r, c)]).abs_sq();
                    }
                }
                partial.publish(acc);
            });
        }
    }
}

/// What a whole-solve graph tells the caller's progress hook: graph phase
/// `k` is the solve's iteration `first_iteration + k`, the bound entering it
/// is `ells[k]`, and the convergence norm before the first is `first_conv`.
pub(crate) struct Hooked<'a> {
    pub hook: Option<&'a ProgressHook>,
    pub first_iteration: usize,
    pub first_conv: f64,
    pub ells: &'a [f64],
}

/// Run a whole-solve graph; what the executor measured of each phase comes
/// back. With a progress hook, the executor polls it before every task
/// release with the oldest iteration still in flight, the norm the previous
/// iteration's sink published and the planned bound entering it; a `Cancel`
/// abandons the graph and comes back as [`QdwhError::Cancelled`]. A graph
/// one of its own bodies cancelled comes back as the error that body left
/// in `failure`.
pub(crate) fn execute_hooked(
    dag: TaskDag<'_>,
    hooked: &Hooked<'_>,
    sink: &NormSink,
    failure: &OnceLock<LapackError>,
) -> Result<Vec<PhaseProfile>, QdwhError> {
    let cancelled_at = AtomicUsize::new(0);
    let (outcome, phases) = dag.execute_profiled(|frontier| {
        let Some(hook) = hooked.hook else { return false };
        let k = frontier as usize;
        let conv = if k == 0 { hooked.first_conv } else { sink.norm::<f64>(k - 1) };
        let iteration = hooked.first_iteration + k;
        let cancel = poll_progress(Some(hook), iteration, conv, hooked.ells[k]).is_err();
        if cancel {
            // read back after the run only; the executor has joined every
            // lane by then
            cancelled_at.store(iteration, Ordering::Relaxed);
        }
        cancel
    });
    match (cancelled_at.into_inner(), outcome) {
        (0, ExecOutcome::Completed) => Ok(phases),
        (0, ExecOutcome::Cancelled) => Err(QdwhError::Lapack(
            failure.get().cloned().unwrap_or(LapackError::NotPositiveDefinite(0)),
        )),
        (iteration, _) => Err(QdwhError::Cancelled { iteration }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_blas::{add, norm};
    use polar_gen::{generate, MatrixSpec, SigmaDistribution};
    use polar_lapack::{geqrf, orgqr};
    use polar_matrix::{Matrix, Norm};

    /// `||Q1 - s X Q2||_F / ||Q1||_F` of `[s X; I] = [Q1; Q2] R`: zero in
    /// exact arithmetic (`Q2 = R^{-1}`, `Q1 = s X R^{-1}`), and what a QR
    /// that loses row-wise accuracy shows first.
    fn q1_residual(x: &Matrix<f64>, s: f64, q1: &Matrix<f64>, q2: &Matrix<f64>) -> f64 {
        let mut r = q1.clone();
        gemm(Op::NoTrans, Op::NoTrans, -s, x.as_ref(), q2.as_ref(), 1.0, r.as_mut());
        let (num, den): (f64, f64) = (norm(Norm::Fro, r.as_ref()), norm(Norm::Fro, q1.as_ref()));
        num / den
    }

    /// The stacked term at the scale of QDWH's first iteration from `l0 ~
    /// 1e-16` (`sqrt(c) ~ 1e8`), on shapes whose `m` is not a whole number
    /// of tiles: with the identity on a tile boundary the tile QR keeps the
    /// residual of the flat `geqrf` / `orgqr` (a `W` stacked without the
    /// pad rows reads 1e-3 ... 1e-6 on these shapes).
    #[test]
    fn a_stacked_term_keeps_q1_equal_to_s_x_q2_on_ragged_shapes() {
        let s = 1e8;
        for (m, n, nb) in [
            (40usize, 40usize, 32usize),
            (48, 48, 32),
            (63, 63, 32),
            (72, 40, 32),
            (80, 64, 32),
            (96, 96, 128),
            (100, 100, 32),
            (200, 200, 128),
            (37, 20, 16),
            (96, 96, 32), // aligned: no pad rows
        ] {
            let nb = nb.min(n);
            let spec = MatrixSpec {
                m,
                n,
                cond: 1e16,
                distribution: SigmaDistribution::Geometric,
                seed: (m + n) as u64,
            };
            let (x, _) = generate::<f64>(&spec);

            let mut w = Matrix::<f64>::zeros(m + n, n);
            add(s, x.as_ref(), 0.0, w.view_mut(0, 0, m, n));
            for d in 0..n {
                w[(m + d, d)] = 1.0;
            }
            let f = geqrf(&mut w);
            let q = orgqr(&w, &f);
            let (q1, q2) = (q.submatrix_owned(0, 0, m, n), q.submatrix_owned(m, 0, n, n));
            let flat = q1_residual(&x, s, &q1, &q2);

            let grid = ProcessGrid::single;
            let mut ws = TermWorkspace::<f64>::new(m, n, nb, false);
            let mut xt = TiledMatrix::from_dense(&x, nb, nb, grid());
            let mut out = TiledMatrix::<f64>::zeros(xt.tiling(), grid());
            let mut dag = TaskDag::new();
            let term = TermPtr::shape(&mut dag, m, n, nb, false).bind(&mut ws);
            let (xp, op) = (TilePtr::new(&mut dag, &mut xt), TilePtr::new(&mut dag, &mut out));
            emit_term(&mut dag, term, xp, (s, 1.0), 1.0, op, None);
            assert_eq!(dag.execute(), ExecOutcome::Completed);
            let top = m.div_ceil(nb) * nb;
            let q = ws.q.to_dense();
            let (q1, q2) = (q.submatrix_owned(0, 0, m, n), q.submatrix_owned(top, 0, n, n));
            let tiled = q1_residual(&x, s, &q1, &q2);
            assert!(tiled <= 8.0 * flat, "{m}x{n} nb {nb}: tile QR {tiled:e} vs flat {flat:e}");
            // the pad rows of Q are the zeros they are in exact arithmetic
            let pad: f64 = norm(Norm::Fro, q.view(m, 0, top - m, n));
            assert_eq!(pad, 0.0, "{m}x{n} nb {nb}");
            // and the product tiles read Q2 where it is
            let mut y = out.to_dense();
            gemm(Op::NoTrans, Op::ConjTrans, -1.0, q1.as_ref(), q2.as_ref(), 1.0, y.as_mut());
            let left: f64 = norm(Norm::Fro, y.as_ref());
            assert!(left <= 1e-13, "{m}x{n} nb {nb}: out - Q1 Q2^H = {left:e}");
        }
    }

    /// A `Z` that is not positive definite cancels the dag a Cholesky term
    /// sits in and names the failing pivot by its index in `Z`, not in its
    /// tile.
    #[test]
    fn chol_term_on_an_indefinite_z_cancels_with_the_global_index() {
        let (m, n, nb) = (10usize, 10usize, 4usize);
        let grid = ProcessGrid::single;
        // the leading minor of order 10 is the first that is not positive:
        // second pivot of the third diagonal tile
        let z = Matrix::<f64>::from_fn(n, n, |i, j| match (i == j, i) {
            (true, 9) => -1.0,
            (true, _) => 2.0,
            _ => 0.0,
        });
        let mut z = TiledMatrix::from_dense(&z, nb, nb, grid());
        let mut linv = TiledMatrix::<f64>::zeros(Tiling::new(nb, n, nb, nb), grid());
        let mut x = TiledMatrix::from_dense(&Matrix::<f64>::identity(m, n), nb, nb, grid());
        let mut out = TiledMatrix::<f64>::zeros(x.tiling(), grid());
        let failure = OnceLock::new();

        let mut dag = TaskDag::new();
        let ws =
            CholPtr { z: TilePtr::new(&mut dag, &mut z), linv: TilePtr::new(&mut dag, &mut linv) };
        let (x, out) = (TilePtr::new(&mut dag, &mut x), TilePtr::new(&mut dag, &mut out));
        emit_chol_term(&mut dag, ws, x, out, &failure);
        assert_eq!(dag.execute(), ExecOutcome::Cancelled);
        assert_eq!(failure.get(), Some(&LapackError::NotPositiveDefinite(10)));
    }
}
