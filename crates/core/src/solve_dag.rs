//! What the whole-solve task graph ([`crate::graph`]) builds a step from:
//!
//! * the **QR-based step** of any number of terms ([`emit_factored_step`]):
//!   one tile QR of `X` in place (or the one the start stage left), per
//!   term the QR of `[s_j R; 0; d_j I]` over its `R` — a triangular top —
//!   and its explicit `Q` over the factored tiles, then `x_coef R` plus the
//!   terms' product tiles in `R` space, lifted by `Q_x` — in the spare
//!   buffer, or over term 0's `Q1` in its slot and copied back to `X`. The factorization
//!   tasks themselves come from `polar-lapack`'s emitters — this crate
//!   names no tile kernel;
//! * the **Cholesky term** of a one-term step ([`emit_chol_term`], over a
//!   `Z` formed by [`emit_gram`] or [`emit_shifted`]): tile Cholesky → one
//!   `trtri_lower` per diagonal tile → per block of tile rows the two
//!   sweeps that leave `V = X Z^{-1}` in a slot's top half and the update
//!   of `X` from it ([`emit_update`]);
//! * the **Cholesky-based step** of several terms, in `n x n` space: per
//!   term the tile inverse `T_j = L_j^{-1}` of its factor
//!   ([`emit_chol_inverse`]), then `M = x_coef I + sum_j w_j T_j^H T_j`
//!   ([`emit_inverse_round`], a round of terms at a time) and `X M`, per
//!   block of tile rows one gemm per tile into `V` and a copy back
//!   ([`emit_apply`]);
//! * the **combine** ([`Combine`]): `x_coef X` — in `R` space in a QR-based
//!   step's product tiles, in the update tasks behind a one-term Cholesky
//!   step's sweeps;
//! * the **convergence sink** ([`NormSink`]): per-tile `|X_k - X_{k-1}|_F^2`
//!   partials — published by the tasks that write `X_k` last, or by a
//!   QR-based step's product tiles in `R` space — and one fixed-order
//!   reduction task per iteration that nothing downstream waits on;
//! * running the graph under the caller's progress hook
//!   ([`execute_hooked`]).
//!
//! Every task here is added with [`TaskDag::add_on`]: its read and write
//! sets are the [`TilePtr::read`] / [`TilePtr::write`] / [`NormSink::partial`]
//! values it lists, and its body is a closure over the tiles those resolve
//! to. No body reaches for a tile by index, so none can touch one it did
//! not declare.

use crate::graph::Workspace;
use crate::options::{poll_progress, ProgressHook};
use crate::qdwh_impl::QdwhError;
use polar_blas::{add, gemm, herk, mirror_triangle, scale_real, trmm};
use polar_lapack::{
    emit_geqrf, emit_orgqr, emit_potrf, emit_unmqr, geqrf_tiles, packed_r, tile_nb3, trtri_lower,
    LapackError, QrPtr, QrStructure, TFactors, TilePtr,
};
use polar_matrix::{Diag, Matrix, Op, ProcessGrid, Side, TiledMatrix, Tiling, Uplo};
use polar_runtime::{
    Access, ExecOutcome, InBody, KernelKind, PhaseProfile, TaskDag, TaskStatus, TileRef,
};
use polar_scalar::{Real, Scalar};
use std::ops::Range;
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

/// The iterate of one solve as its graphs see it: tiled once and kept tiled
/// from one graph of the solve to the next. Every step updates it in place
/// but a QR-based one whose terms take more than one round of term slots or
/// whose `X` has more tile rows than tile columns: that step writes the
/// spare buffer, which then holds the iterate. The spare is allocated only
/// for such a step, by the first graph that plans one ([`Iterate::bufs`]);
/// the start's QR factors the iterate's own tiles ([`Iterate::factor`]).
pub(crate) struct Iterate<S: Scalar> {
    x: TiledMatrix<S>,
    spare: Option<TiledMatrix<S>>,
}

impl<S: Scalar> Iterate<S> {
    /// `scale * a`, tiled at `nb`: the bits of scaling `a` and then tiling
    /// it, with no dense copy.
    pub(crate) fn scaled(a: &Matrix<S>, scale: S::Real, nb: usize) -> Self {
        let mut x = TiledMatrix::from_dense(a, nb, nb, ProcessGrid::single());
        for tile in x.tiles_mut() {
            scale_real(scale, tile.as_mut());
        }
        Self { x, spare: None }
    }

    pub(crate) fn tiling(&self) -> Tiling {
        self.x.tiling()
    }

    /// The tile QR of the iterate, in place — the same tiles through the
    /// same kernels as the QR of its dense copy: its `R`, its `T` factors
    /// into `t`. The iterate's buffer holds the packed `R` and reflectors
    /// from here on, which a QR-based first step reads as its own QR of `X`.
    pub(crate) fn factor(&mut self, t: &mut Option<TFactors<S>>) -> Matrix<S> {
        *t = Some(geqrf_tiles(&mut self.x, QrStructure::Dense));
        packed_r(&self.x)
    }

    /// The iterate's buffer and the spare, which `spare` allocates if the
    /// iterate holds none.
    pub(crate) fn bufs(
        &mut self,
        spare: bool,
    ) -> (&mut TiledMatrix<S>, Option<&mut TiledMatrix<S>>) {
        if spare && self.spare.is_none() {
            self.spare = Some(TiledMatrix::zeros(self.x.tiling(), ProcessGrid::single()));
        }
        (&mut self.x, self.spare.as_mut())
    }

    /// The spare buffer was written `flips` times (by a graph's steps, on
    /// [`Iterate::bufs`]): make the buffer written last the iterate.
    pub(crate) fn advance(&mut self, flips: usize) {
        if flips % 2 == 1 {
            std::mem::swap(&mut self.x, self.spare.as_mut().expect("a spare buffer"));
        }
    }

    pub(crate) fn to_dense(&self) -> Matrix<S> {
        self.x.to_dense()
    }

    pub(crate) fn into_dense(mut self) -> Matrix<S> {
        self.spare = None;
        self.x.to_dense()
    }
}

/// Tiling of a term slot's stacked buffer for an `n`-column iterate at
/// tile size `nb`, `(ceil(n / nb) nb + n) x n`, and the structure of a
/// QR-based step's factorization of it: the buffer holds `W = [s R; 0; d
/// I]` ([`emit_factored_step`], `R` the `n x n` upper triangular factor of
/// the iterate), then its factored tiles, then that step's explicit `Q`,
/// formed over them. Reused by every round of terms of every iteration: the
/// next round's `W` waits for this one's product tasks to read `Q`, an edge
/// the dag infers from the tiles they share.
///
/// `R`'s rows are padded with zero rows to whole tiles, so the identity
/// starts on a tile boundary whatever `n` is. The pad rows change nothing
/// in exact arithmetic (the factor is `W^H W`'s, the other rows of `Q` are
/// `W`'s times its inverse) and buy three things: no tile kernel sees rows
/// of scale `s` (up to `1e8`) beside rows of scale `d`, which cost the tile
/// QR its row-wise accuracy; the triangular-top pruning and the
/// triangular-tile windows apply to every shape
/// ([`QrStructure::TriangularTop`]); and `Q2`'s tile `(tj, kc)` *is* `Q`'s
/// tile `(nt + tj, kc)`, so the product tiles read `Q` in place.
pub(crate) fn stacked(n: usize, nb: usize) -> (Tiling, QrStructure) {
    let top_rows = n.div_ceil(nb) * nb;
    (Tiling::new(top_rows + n, n, nb, nb), QrStructure::TriangularTop { top_rows })
}

/// Workspace of one Cholesky term: `z`, `n x n`, whose lower tiles hold `Z`,
/// then its factor `L` with each diagonal tile `L_kk` replaced by its
/// inverse (strict upper triangle zero): nothing reads `L_kk` once that is
/// formed.
#[derive(Clone, Copy)]
pub(crate) struct CholPtr<'a, S> {
    pub z: TilePtr<'a, S>,
}

impl<'a, S: Scalar> CholPtr<'a, S> {
    /// In a host of `nt` tile columns and at least `nt` tile rows: `Z` in its
    /// last `nt` tile rows.
    pub(crate) fn within(host: TilePtr<'a, S>) -> Self {
        let t = host.tiling();
        Self { z: host.below(t.mt() - t.nt()) }
    }
}

/// What a step adds to its terms: `x_coef X`, `x` the iterate it reads (and
/// a one-term Cholesky-based step updates in place); and each tile of its
/// output publishes its convergence partial `|X' - X|_F^2` for iteration
/// `iter`.
pub(crate) struct Combine<'a, S: Scalar> {
    pub x: TilePtr<'a, S>,
    pub x_coef: S,
    pub sink: &'a NormSink,
    pub iter: usize,
}

/// Add a QR-based step to `dag`, its `r` terms' QRs built on one QR of `X`,
/// in place in `X`'s buffer:
///
/// ```text
/// X = Q_x [R; 0]                            (tile QR, in place: f)
/// [Q1_j; 0; Q2_j] R_j = [s_j R; 0; d_j I]   (per term, on two triangles)
/// out = Q_x [x_coef R + sum_j coef_j Q1_j Q2_j^H; 0]
/// ```
///
/// `out` is the spare buffer; `None` is the step in place, for terms that
/// run in one round on an `X` with as many tile rows as tile columns:
/// each product tile is written over term 0's `Q1` tile in its place
/// ([`emit_product`]), `Q_x` applied there — slot 0's top half, `X`'s tiling
/// with its last tile row padded — and one task per tile copies the result
/// back over `X`'s packed tiles ([`emit_write_back`]). The padding rows of
/// `Q1` are exact zeros (`W`'s zero rows stay zero through its QR), so rows
/// `n..m` of `[P; 0]` read as zeros there, as in a buffer of their own.
///
/// `[s X; d I] = diag(Q_x, I) [s R; d I]`, so term `j`'s `Q1 Q2^H` of the
/// stacked `[s_j X; d_j I]` is `Q_x [Q1_j Q2_j^H; 0]`, and `X = Q_x [R;
/// 0]`: the whole update is `Q_x` applied to an `n x n` matrix, and so is
/// its distance from `X`, `|X' - X|_F = |P + (x_coef - 1) R|_F`, `P` the
/// terms' sum — which the product tiles publish. `terms` holds each term's
/// `(s, d, coef)`; term `j` runs in workspace `slots[j % slots.len()]`, in
/// [`rounds`]: the terms of a round share no written tile, so their chains
/// run concurrently, and a round's product tasks sum them before the next
/// round reuses the slots. `f` factors `combine.x`, the iterate, which the
/// step leaves packed (`R` and the reflectors). With `given`, it already
/// holds that — the start stage's tile QR of `X_0`, the same tiles through
/// the same kernels — and the step runs none.
pub(crate) fn emit_factored_step<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    f: QrPtr<'a, S>,
    given: bool,
    slots: &[QrPtr<'a, S>],
    terms: &[(S::Real, S::Real, S)],
    out: Option<TilePtr<'a, S>>,
    combine: &Combine<'a, S>,
) {
    if !given {
        emit_geqrf(dag, f);
    }
    let lift = out.unwrap_or_else(|| {
        assert!(terms.len() <= slots.len(), "a QR-based step in place runs one round");
        slots[0].a.top(f.a.tiling().m())
    });
    for (round, part) in rounds(terms.len(), slots.len()) {
        let mut qs = Vec::new();
        for j in round {
            let (ws, (s, d, coef)) = (slots[j % slots.len()], terms[j]);
            emit_stacked_q(dag, ws, f.a, (s, d));
            qs.push((ws, coef));
        }
        emit_product(dag, &qs, part, lift, out.is_none(), combine);
    }
    emit_unmqr(dag, f, lift, false);
    if out.is_none() {
        emit_write_back(dag, lift, f.a);
    }
}

/// Add `x = c` to `dag`, one task per tile of `x`: `c` a matrix of `x`'s
/// tiling whose stored tiles may be taller (a top block,
/// [`TilePtr::top`]), each copied on `x`'s logical rows.
fn emit_write_back<'a, S: Scalar>(dag: &mut TaskDag<'a>, c: TilePtr<'a, S>, x: TilePtr<'a, S>) {
    let xt = x.tiling();
    let nbf = xt.nb() as f64;
    dag.barrier();
    for tj in 0..xt.nt() {
        for ti in 0..xt.mt() {
            let access = (x.write(ti, tj), c.read(ti, tj));
            dag.add_on(KernelKind::Geadd, 0, nbf * nbf, access, |(to, from)| {
                let (r, c) = (to.nrows(), to.ncols());
                to.as_mut().copy_from(from.view(0, 0, r, c));
            });
        }
    }
}

/// Where a round of terms sits in a step's sum: whether it is the first,
/// which starts the sum's tiles, and the last, which finishes them.
#[derive(Clone, Copy)]
pub(crate) struct Part {
    pub first: bool,
    pub last: bool,
}

/// Terms `0..r` of a step in rounds of `slots` consecutive ones, term `j` in
/// slot `j % slots`, each with its [`Part`] of the step's sum. Every sum
/// takes its terms in order whatever the rounds, so they move no bit.
pub(crate) fn rounds(r: usize, slots: usize) -> impl Iterator<Item = (Range<usize>, Part)> {
    (0..r)
        .step_by(slots)
        .map(move |j| (j..r.min(j + slots), Part { first: j == 0, last: j + slots >= r }))
}

/// Add `[Q1; 0; Q2] R' = [s R; 0; d I]` to `dag`, in the slot `f` factors
/// ([`stacked`]): the stack filled per tile from the upper triangle of the
/// factored tiles `r`, then its tile QR and explicit `Q`, over the stack's
/// own tiles.
fn emit_stacked_q<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    f: QrPtr<'a, S>,
    r: TilePtr<'a, S>,
    (s, d): (S::Real, S::Real),
) {
    let w = f.a;
    let (nt, mtw, nbf) = (r.tiling().nt(), w.tiling().mt(), w.tiling().nb() as f64);

    // W = [s R; 0; d I] per tile, the identity's tile rows from nt on
    dag.barrier();
    for j in 0..nt {
        for wi in 0..mtw {
            let access = (w.write(wi, j), (wi <= j).then(|| r.read(wi, j)));
            // R's diagonal tile is a factored tile: R above, reflectors below
            let triangle = wi == j;
            dag.add_on(KernelKind::Geadd, 2, nbf * nbf, access, move |(wt, ts)| {
                wt.fill(S::ZERO);
                match ts {
                    // the last tile row of R may be short of W's: pad rows
                    Some(ts) => {
                        let sc = S::from_real(s);
                        for c in 0..ts.ncols() {
                            let rows = if triangle { ts.nrows().min(c + 1) } else { ts.nrows() };
                            for r in 0..rows {
                                wt[(r, c)] = sc * ts[(r, c)];
                            }
                        }
                    }
                    None if wi == nt + j => {
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
    emit_orgqr(dag, f);
}

/// Add the `R`-space update of a QR-based step to `dag`, per tile of `out`:
/// `x_coef R + P`, `P = sum_j coef_j Q1_j Q2_j^H` from the explicit `Q`s of
/// the terms `qs` (`(workspace, coef_j)`) of one round, `part` of the step's
/// sum, `R` the upper triangle of the factored tiles `combine.x`. The terms
/// go in fixed order and each is accumulated over the columns of its `Q` in
/// fixed order, one task per tile and round continuing the last one's
/// accumulation: the first round zero-fills, the last adds `x_coef R` and
/// publishes the tile's share of `|P + (x_coef - 1) R|_F^2`. `Q1`'s tiles
/// `(ti, kc < ti)` and `Q2`'s `(tj, kc < tj)` are never reached by the
/// sweep that formed them, exact zeros: the products skip them. Each body
/// works on `out`'s logical rows of its tile.
///
/// With `over_q1`, `out` is term 0's `Q1` (its slot's top half, one round):
/// tile `(ti, tj)` of `P` reads row `ti` of `Q1` only, from column
/// `max(ti, tj)` on, so the tasks of a row, emitted in ascending `tj`, each
/// overwrite a tile no later task of the row reads — the dag adds the
/// write-after-read edges. A task whose own tile is among its operands (`tj
/// >= ti`) copies it aside before it writes; the tiles left of the diagonal
/// are `Q1`'s exact zeros, read by none. The operands and their order are
/// those of a separate `out`, and so are the bits.
fn emit_product<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    qs: &[(QrPtr<'a, S>, S)],
    part: Part,
    out: TilePtr<'a, S>,
    over_q1: bool,
    combine: &Combine<'a, S>,
) {
    let ot = out.tiling();
    let (nt, nbf, nb3) = (ot.nt(), ot.nb() as f64, tile_nb3::<S>(ot.nb()));
    // X' - X = Q_x [P + (x_coef - 1) R; 0]
    let (x_coef, xm1) = (combine.x_coef, combine.x_coef - S::ONE);
    // the tile rows below R's are zeros, written by the first round
    let mt = if part.first { ot.mt() } else { nt };
    dag.barrier();
    for tj in 0..nt {
        for ti in 0..mt {
            let (first, last) = (part.first, part.last || ti >= nt);
            // R's tile, if any; then per term row ti of Q1 against row tj of
            // Q2, from the first column where neither is zero
            let r = (last && ti <= tj).then(|| combine.x.read(ti, tj));
            // over term 0's Q1, the task's own tile is its first pair's, aside
            let own = over_q1 && ti <= tj;
            let rows: Vec<Vec<_>> = qs
                .iter()
                .enumerate()
                .map(|(j, &(w, _))| {
                    let q = w.a;
                    let q1 = move |kc| (!(own && j == 0 && kc == tj)).then(|| q.read(ti, kc));
                    (ti.max(tj)..nt).map(|kc| (q1(kc), q.read(nt + tj, kc))).collect()
                })
                .collect();
            let alphas: Vec<S> = qs.iter().map(|&(_, coef)| coef).collect();
            let (kind, flops) = match rows.iter().map(Vec::len).sum::<usize>() {
                0 => (KernelKind::Geadd, nbf * nbf),
                pairs => (KernelKind::Gemm, 2.0 * nb3 * pairs as f64),
            };
            let partial = last.then(|| combine.sink.partial(combine.iter, ti, tj));
            let access = (out.write(ti, tj), r, rows, partial);
            let (rows_o, cols_o) = (ot.tile_rows(ti), ot.tile_cols(tj));
            dag.add_on(kind, 0, flops, access, move |(o, r, rows, partial)| {
                let aside = own.then(|| o.clone());
                let mut o = o.view_mut(0, 0, rows_o, cols_o);
                if first {
                    o.fill(S::ZERO);
                }
                for (&alpha, pairs) in alphas.iter().zip(rows) {
                    for (q1, q2) in pairs {
                        let q1 = q1.or(aside.as_ref()).expect("the own tile, aside");
                        gemm(
                            Op::NoTrans,
                            Op::ConjTrans,
                            alpha,
                            q1.view(0, 0, rows_o, q1.ncols()),
                            q2.as_ref(),
                            S::ONE,
                            o.rb(),
                        );
                    }
                }
                let Some(partial) = partial else { return };
                let mut acc = S::Real::ZERO;
                for c in 0..cols_o {
                    for i in 0..rows_o {
                        match r {
                            // R: all of a tile right of the diagonal, the
                            // upper triangle of a diagonal one
                            Some(r) if ti < tj || i <= c => {
                                acc += (o.at(i, c) + xm1 * r[(i, c)]).abs_sq();
                                *o.at_mut(i, c) += x_coef * r[(i, c)];
                            }
                            _ => acc += o.at(i, c).abs_sq(),
                        }
                    }
                }
                partial.publish(acc);
            });
        }
    }
}

/// Add `Z = shift I + alpha X^H X` to `dag`, lower tiles only (logical rows
/// only, as in [`emit_inverse_round`]): one task per tile, `herk` on the
/// diagonal, accumulating over `X`'s tile rows in fixed order.
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
            let (r, c) = (xt.tile_cols(zi), xt.tile_cols(zj));
            dag.add_on(
                if zi == zj { KernelKind::Herk } else { KernelKind::Gemm },
                3,
                flops,
                (z.write(zi, zj), cols),
                move |(zt_tile, cols)| {
                    let mut zt = zt_tile.view_mut(0, 0, r, c);
                    zt.fill(S::ZERO);
                    if zi == zj {
                        for d in 0..c {
                            zt.set(d, d, S::from_real(shift));
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
                                zt.rb(),
                            ),
                            Some(xj) => gemm(
                                Op::ConjTrans,
                                Op::NoTrans,
                                S::from_real(alpha),
                                xi.as_ref(),
                                xj.as_ref(),
                                S::ONE,
                                zt.rb(),
                            ),
                        }
                    }
                },
            );
        }
    }
}

/// Add `Z = L L^H` to `dag`, in place in the lower tiles of `ws.z`, then
/// `L_jj^{-1}` in place of each diagonal tile. A `Z` that is not positive
/// definite stores the error in `failure`, with the pivot's global index,
/// and cancels the dag.
fn emit_chol_factor<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    ws: CholPtr<'a, S>,
    failure: &'a OnceLock<LapackError>,
) {
    let z = ws.z;
    let zt = z.tiling();
    let (nb, nt) = (zt.nb(), zt.nt());
    let nb3 = tile_nb3::<S>(nb);

    // Indefiniteness cancels the whole solve — an error aborts every later
    // iteration too.
    emit_potrf(dag, z, failure, S::Real::ZERO);

    // L_jj^{-1} per diagonal tile, which turns a diagonal solve into a
    // multiply, through a temporary (trtri is out of place). A pivot trtri
    // rejects is a factor potrf should have refused: same failure.
    dag.barrier();
    for tj in 0..nt {
        dag.add_on(KernelKind::Trsm, 3, nb3 / 3.0, z.write(tj, tj), move |l| {
            let mut t = Matrix::zeros(l.nrows(), l.ncols());
            match trtri_lower(l.as_ref(), t.as_mut()) {
                Ok(()) => {
                    l.copy_from(&t);
                    TaskStatus::Continue
                }
                Err(e) => {
                    let at = if let LapackError::SingularPivot(p) = e { p } else { 0 };
                    let _ = failure.set(LapackError::NotPositiveDefinite(tj * nb + at + 1));
                    TaskStatus::Cancel
                }
            }
        });
    }
}

/// Add a one-term Cholesky-based step to `dag`, from `Z` in the lower tiles
/// of `ws.z`, updating the iterate `combine.x` in place:
///
/// ```text
/// Z = L L^H                        (tile Cholesky, in place)
/// V = X Z^{-1} = X L^{-H} L^{-1}    (two sweeps over V's tile columns)
/// X = x_coef X + weight V          (per tile, publishing |X' - X|_F^2)
/// ```
///
/// `V` lives in `v`, `s` tile rows (a term slot's top half), tile row `ti`
/// of `X` in row `ti % s`: each row reads only itself, so the rows run in
/// [`blocks`] of `s`. `ws` is tiled at `X`'s `nb`. A `Z` that is not
/// positive definite stores the error in `failure`, with the pivot's global
/// index, and cancels the dag.
///
/// The sweeps multiply by the inverted diagonal tiles of `L` where a solve
/// would be: safe only for a well-conditioned `Z` (`polar_lapack`'s
/// `tri.rs`), which is what makes QDWH's iteration Cholesky-based —
/// `kappa(Z) <= 1 + c <= 101` under its switch.
pub(crate) fn emit_chol_term<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    ws: CholPtr<'a, S>,
    v: TilePtr<'a, S>,
    weight: S,
    combine: &Combine<'a, S>,
    failure: &'a OnceLock<LapackError>,
) {
    emit_chol_factor(dag, ws, failure);
    let z = ws.z;
    let x = combine.x;
    let xt = x.tiling();
    let (mtx, nt, s) = (xt.mt(), xt.nt(), v.tiling().mt());
    let nb3 = tile_nb3::<S>(xt.nb());

    for rows in blocks(mtx, s) {
        // X Z^{-1} by two sweeps over the tile columns, in place in `V`.
        // Forward, C L^H = X, tile columns ascending; then backward, V L =
        // C, descending — so each sweep's RAW edges bind to its own solved
        // tiles and the in-place WAW chains behind the forward pass over
        // the same tile. Per tile: subtract the already-solved columns,
        // then multiply by the inverted diagonal tile from the right.
        for forward in [true, false] {
            let op = if forward { Op::ConjTrans } else { Op::NoTrans };
            for step in 0..nt {
                dag.barrier();
                let tj = if forward { step } else { nt - 1 - step };
                // solved columns this one depends on, and the L tile that
                // couples it to each
                let solved = if forward { 0..tj } else { tj + 1..nt };
                let l_tile = move |l: usize| if forward { (tj, l) } else { (l, tj) };
                for ti in rows.clone() {
                    // a slot's tile may have rows below X's last tile row
                    let (vi, r) = (ti % s, xt.tile_rows(ti));
                    let pairs: Vec<_> = solved
                        .clone()
                        .map(|l| {
                            let (i, j) = l_tile(l);
                            (v.read(vi, l), z.read(i, j))
                        })
                        .collect();
                    dag.add_on(
                        KernelKind::Trsm,
                        2,
                        (2.0 * solved.len() as f64 + 1.0) * nb3,
                        (v.write(vi, tj), forward.then(|| x.read(ti, tj)), pairs, z.read(tj, tj)),
                        move |(vt, xt, pairs, inv)| {
                            let mut vt = vt.view_mut(0, 0, r, vt.ncols());
                            if let Some(xt) = xt {
                                vt.copy_from(xt.as_ref());
                            }
                            for (vl, zl) in pairs {
                                let vl = vl.view(0, 0, r, vl.ncols());
                                gemm(Op::NoTrans, op, -S::ONE, vl, zl.as_ref(), S::ONE, vt.rb());
                            }
                            let inv = inv.as_ref();
                            trmm(Side::Right, Uplo::Lower, op, Diag::NonUnit, S::ONE, inv, vt);
                        },
                    );
                }
            }
        }
        emit_update(dag, v, rows, Some(weight), combine);
    }
}

/// Tile rows `0..mt` of `X` in blocks of `s`, the tile rows of the `V` a
/// step writes `X` from: a block's tasks are emitted before the next
/// block's, which reuses `V`'s rows — the dag orders conflicting tasks by
/// emission. (Emit every block's forward sweeps first and a row reads
/// another row's `V`.)
fn blocks(mt: usize, s: usize) -> impl Iterator<Item = Range<usize>> {
    (0..mt).step_by(s).map(move |b| b..mt.min(b + s))
}

/// Add the update of tile rows `rows` of `X` (`combine.x`) from `v`, tile
/// row `ti` in row `ti % s`: one task per tile writes `x_coef X + weight V`
/// over `X` — or, with no `weight`, `V` itself, a copy, so no sign of a
/// zero moves — and publishes its convergence partial `|X' - X|_F^2`.
fn emit_update<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    v: TilePtr<'a, S>,
    rows: Range<usize>,
    weight: Option<S>,
    combine: &Combine<'a, S>,
) {
    let (x, x_coef, s) = (combine.x, combine.x_coef, v.tiling().mt());
    let nbf = x.tiling().nb() as f64;
    dag.barrier();
    for tj in 0..x.tiling().nt() {
        for ti in rows.clone() {
            let partial = combine.sink.partial(combine.iter, ti, tj);
            let access = (x.write(ti, tj), v.read(ti % s, tj), partial);
            dag.add_on(KernelKind::Geadd, 0, nbf * nbf, access, move |(xt, vt, partial)| {
                let mut acc = S::Real::ZERO;
                for c in 0..xt.ncols() {
                    for r in 0..xt.nrows() {
                        let next = match weight {
                            Some(w) => x_coef * xt[(r, c)] + w * vt[(r, c)],
                            None => vt[(r, c)],
                        };
                        acc += (next - xt[(r, c)]).abs_sq();
                        xt[(r, c)] = next;
                    }
                }
                partial.publish(acc);
            });
        }
    }
}

/// Add the inverse `T = L^{-1}` of a Cholesky factor to `dag`, in place of
/// `L`'s lower tiles: `Z = L L^H` as [`emit_chol_term`] factors it, which
/// leaves `T`'s diagonal tiles `T_kk = L_kk^{-1}`, then the others from `T L
/// = I`:
///
/// ```text
/// T_ik = -(T_ii L_ik + sum_{k<l<i} T_il L_lk) T_kk        (i > k)
/// ```
///
/// Tile columns right to left, each bottom-up: every `T_il` is done, and
/// every `L_lk` (`l < i`) still `L`, when `T_ik` reads them. `n^3 / 3`
/// flops, as many as the factorization. The inverse is as accurate as the
/// solves it replaces only for a well-conditioned `Z` (`polar_lapack`'s
/// `tri.rs`): every `Z_j` of a Zolo-PD Cholesky-based step.
pub(crate) fn emit_chol_inverse<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    ws: CholPtr<'a, S>,
    failure: &'a OnceLock<LapackError>,
) {
    emit_chol_factor(dag, ws, failure);
    let z = ws.z;
    let nt = z.tiling().nt();
    let nb3 = tile_nb3::<S>(z.tiling().nb());
    let (lo, nn) = (Uplo::Lower, Diag::NonUnit);
    for k in (0..nt).rev() {
        dag.barrier();
        for i in (k + 1..nt).rev() {
            let pairs: Vec<_> = (k + 1..i).map(|l| (z.read(i, l), z.read(l, k))).collect();
            let access = (z.write(i, k), z.read(i, i), pairs, z.read(k, k));
            let flops = 2.0 * (i - k) as f64 * nb3;
            dag.add_on(KernelKind::Trsm, 2, flops, access, move |(t, tii, pairs, tkk)| {
                trmm(Side::Left, lo, Op::NoTrans, nn, S::ONE, tii.as_ref(), t.as_mut());
                for (til, llk) in pairs {
                    let (til, llk) = (til.as_ref(), llk.as_ref());
                    gemm(Op::NoTrans, Op::NoTrans, S::ONE, til, llk, S::ONE, t.as_mut());
                }
                trmm(Side::Right, lo, Op::NoTrans, nn, -S::ONE, tkk.as_ref(), t.as_mut());
            });
        }
    }
}

/// Add `M = x_coef I + sum_j w_j T_j^H T_j` to `dag`, into the lower tiles
/// of `m`, from the inverses `T_j = L_j^{-1}` [`emit_chol_inverse`] left in
/// `terms` (`(workspace, w_j)`) of one round, `part` of the step's sum:
/// `Z_j^{-1} = T_j^H T_j`. One task per tile and round, continuing the last
/// one's sum: the first round writes `x_coef I`, every round adds its terms
/// in order and, per term, `T_j`'s tile rows in order, and the last writes a
/// diagonal tile whole, Hermitian. About `n^3 / 3` flops per term. `m` may
/// be a workspace's top block ([`TilePtr::top`]): each tile's logical rows
/// only.
pub(crate) fn emit_inverse_round<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    terms: &[(CholPtr<'a, S>, S::Real)],
    x_coef: S::Real,
    part: Part,
    m: TilePtr<'a, S>,
) {
    let nt = m.tiling().nt();
    let nb3 = tile_nb3::<S>(m.tiling().nb());
    let (lo, nn, ct) = (Uplo::Lower, Diag::NonUnit, Op::ConjTrans);
    let weights: Vec<S::Real> = terms.iter().map(|&(_, w)| w).collect();
    dag.barrier();
    for b in 0..nt {
        for a in b..nt {
            // per term: T_aa (triangular), T_ab below the diagonal, and
            // the tile rows under a — column a against column b
            let diagonal = a == b;
            let reads: Vec<_> = terms
                .iter()
                .map(|&(CholPtr { z }, _)| {
                    let below: Vec<_> = (a + 1..nt)
                        .map(|i| (z.read(i, a), (!diagonal).then(|| z.read(i, b))))
                        .collect();
                    (z.read(a, a), (!diagonal).then(|| z.read(a, b)), below)
                })
                .collect();
            let below = nt - 1 - a;
            let per_term = if diagonal { 1 + below } else { 1 + 2 * below };
            let flops = (terms.len() * per_term) as f64 * nb3;
            let kind = if diagonal { KernelKind::Herk } else { KernelKind::Gemm };
            let weights = weights.clone();
            let (ra, rb) = (m.tiling().tile_rows(a), m.tiling().tile_cols(b));
            dag.add_on(kind, 1, flops, (m.write(a, b), reads), move |(o, reads)| {
                let mut o = o.view_mut(0, 0, ra, rb);
                if part.first {
                    o.fill(S::ZERO);
                    if diagonal {
                        for d in 0..ra {
                            o.set(d, d, S::from_real(x_coef));
                        }
                    }
                }
                let mut tmp = Matrix::<S>::zeros(ra, rb);
                for (&w, (taa, tab, below)) in weights.iter().zip(reads) {
                    let taa = taa.as_ref();
                    tmp.as_mut().copy_from(tab.map_or(taa, |t| t.as_ref()));
                    trmm(Side::Left, lo, ct, nn, S::from_real(w), taa, tmp.as_mut());
                    add(S::ONE, tmp.as_ref(), S::ONE, o.rb());
                    for (tia, tib) in below {
                        match tib {
                            None => herk(lo, ct, w, tia.as_ref(), S::Real::ONE, o.rb()),
                            Some(tib) => {
                                let (w, tia, tib) = (S::from_real(w), tia.as_ref(), tib.as_ref());
                                gemm(ct, Op::NoTrans, w, tia, tib, S::ONE, o.rb());
                            }
                        }
                    }
                }
                if diagonal && part.last {
                    mirror_triangle(lo, o);
                }
            });
        }
    }
}

/// Add `X' = X M` to `dag`, over `combine.x` in place, `M` Hermitian with
/// its lower tiles in `m` (above the diagonal, `M_kj = M_jk^H`; logical rows
/// only, as in [`emit_inverse_round`]): per [`blocks`] of `v`'s tile rows,
/// one task per tile of `V` accumulating `X_ik M_kj` over `X`'s tile
/// columns in order, then one copy of `V` over each tile of `X`, which
/// publishes the tile's convergence partial ([`emit_update`]). Tile row `ti`
/// of `X'` reads tile row `ti` of `X` only.
pub(crate) fn emit_apply<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    m: TilePtr<'a, S>,
    v: TilePtr<'a, S>,
    combine: &Combine<'a, S>,
) {
    let x = combine.x;
    let (xt, mt, s) = (x.tiling(), m.tiling(), v.tiling().mt());
    let nt = xt.nt();
    let flops = 2.0 * nt as f64 * tile_nb3::<S>(xt.nb());
    for rows in blocks(xt.mt(), s) {
        dag.barrier();
        for tj in 0..nt {
            for ti in rows.clone() {
                let pairs: Vec<_> =
                    (0..nt).map(|k| (x.read(ti, k), m.read(k.max(tj), k.min(tj)))).collect();
                let (r, c) = (xt.tile_rows(ti), xt.tile_cols(tj));
                let access = (v.write(ti % s, tj), pairs);
                dag.add_on(KernelKind::Gemm, 0, flops, access, move |(o, pairs)| {
                    let mut o = o.view_mut(0, 0, r, c);
                    o.fill(S::ZERO);
                    for (k, (xik, mkj)) in pairs.into_iter().enumerate() {
                        let op = if k >= tj { Op::NoTrans } else { Op::ConjTrans };
                        let (a, b) = (k.max(tj), k.min(tj));
                        let mkj = mkj.view(0, 0, mt.tile_rows(a), mt.tile_cols(b));
                        gemm(Op::NoTrans, op, S::ONE, xik.as_ref(), mkj, S::ONE, o.rb());
                    }
                });
            }
        }
        emit_update(dag, v, rows, None, combine);
    }
}

/// Add `Z = alpha G + shift I` to `dag`, lower tiles only, from the Gram
/// matrix `G` the terms of a step share (logical rows only, as in
/// [`emit_inverse_round`]): one task per tile.
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
            let (r, c) = (z.tiling().tile_rows(zi), z.tiling().tile_cols(zj));
            dag.add_on(KernelKind::Geadd, 3, nbf * nbf, access, move |(zt, gt)| {
                zt.as_mut().copy_from(gt.view(0, 0, r, c));
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

/// The start stage's graphs ([`crate::skeleton::scaled_start`]) on the
/// scaled input `x`, tiled as the iterate, in the stacked buffer of the
/// last term slot of a step of `terms` terms ([`Workspace::gram_host`]):
///
/// ```text
/// G = X^H X          (emit_gram, lower tiles, into the top half)
/// G = L L^H          (tile Cholesky of a copy in the bottom half, stopping
///                     at a pivot < floor)
/// ```
///
/// `Some(R)`, `R = L^H` (`n x n`, upper triangular: `R^H R = X^H X`, what
/// a QR of `X` would give up to the signs of its rows), when every pivot of
/// `L` is at least `floor`; `None` when one is not, or `G` is numerically
/// indefinite — both cancel the graph at that diagonal tile. A cancel by
/// the hook is an error. The top half keeps `G` for the first step to read.
///
/// The leading diagonal tile goes first, as a graph of its own over `X`'s
/// first tile column, before the slot is allocated: the executor ranks every
/// Gram tile above the factorization's panel chain (its path to the sink is
/// longer), so a whole-matrix graph forms all of `G` before its first
/// pivot, while an ill-conditioned input's pivots fall below the floor
/// within the first tile. That probe declines such a start for one tile
/// column's Gram.
pub(crate) fn run_gram_start<S: Scalar>(
    x: &mut Iterate<S>,
    ws: &mut Workspace<S>,
    terms: usize,
    floor: S::Real,
    hooked: &Hooked<'_>,
) -> Result<Option<Matrix<S>>, QdwhError> {
    let xt = x.tiling();
    let _span = polar_obs::span!("gram_start", xt.m(), xt.n());
    let (n, nb) = (xt.n(), xt.nb());
    let single = ProcessGrid::single;
    if xt.nt() > 1 {
        let mut lead = TiledMatrix::zeros(Tiling::new(xt.m(), nb, nb, nb), single());
        for (i, tile) in lead.tiles_mut().iter_mut().enumerate() {
            tile.copy_from(x.x.tile(i, 0));
        }
        let mut h00 = TiledMatrix::zeros(stacked(nb, nb).0, single());
        if !factor_gram(&mut lead, &mut h00, floor, hooked)? {
            return Ok(None);
        }
    }
    // R's buffer before the slot's: freed once the start has read it, it
    // leaves a hole beside the slot, and at the end of the solve the two
    // free blocks are one that the dense m x n U fits in (glibc's placement:
    // allocated after the slot, its hole is taken by the graph's small
    // blocks and U extends the heap; EXPERIMENTS.md, "One workspace rule")
    let mut r = Matrix::zeros(n, n);
    let host = ws.gram_host(xt, terms);
    if !factor_gram(&mut x.x, host, floor, hooked)? {
        return Ok(None);
    }
    // R = L^H straight from L's tiles, the bottom half's
    let l = |i: usize, j: usize| host.tile(n.div_ceil(nb) + i / nb, j / nb)[(i % nb, j % nb)];
    for j in 0..n {
        for i in 0..=j {
            r[(i, j)] = l(j, i).conj();
        }
    }
    Ok(Some(r))
}

/// One graph: `G = X^H X` of the tiles `x` into the top half of the stacked
/// buffer `host` and a copy of it factored in the bottom half, `G = L L^H`,
/// stopping at the first pivot below `floor`. Whether every pivot held.
fn factor_gram<S: Scalar>(
    x: &mut TiledMatrix<S>,
    host: &mut TiledMatrix<S>,
    floor: S::Real,
    hooked: &Hooked<'_>,
) -> Result<bool, QdwhError> {
    let (n, nbf) = (x.tiling().n(), x.tiling().nb() as f64);
    let failure = OnceLock::<LapackError>::new();
    let sink = NormSink::new(0, x.tiling());

    let mut dag = TaskDag::new();
    let (xp, h) = (TilePtr::new(&mut dag, x), TilePtr::new(&mut dag, host));
    let (g, l) = (h.top(n), CholPtr::within(h).z);
    emit_gram(&mut dag, xp, g, S::Real::ONE, S::Real::ZERO);
    dag.barrier();
    for j in 0..l.tiling().nt() {
        for i in j..l.tiling().nt() {
            let access = (l.write(i, j), g.read(i, j));
            dag.add_on(KernelKind::Geadd, 3, nbf * nbf, access, |(lt, gt)| {
                let (r, c) = (lt.nrows(), lt.ncols());
                lt.as_mut().copy_from(gt.view(0, 0, r, c));
            });
        }
    }
    emit_potrf(&mut dag, l, &failure, floor);
    match execute_hooked(dag, hooked, &sink, &failure) {
        Ok(_) => Ok(true),
        Err(QdwhError::Lapack(_)) => Ok(false),
        Err(e) => Err(e),
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
    use polar_scalar::Complex64;

    /// `||Q1 - s X Q2||_F / ||Q1||_F` of `[s X; I] = [Q1; Q2] R`: zero in
    /// exact arithmetic (`Q2 = R^{-1}`, `Q1 = s X R^{-1}`), and what a QR
    /// that loses row-wise accuracy shows first.
    fn q1_residual(x: &Matrix<f64>, s: f64, q1: &Matrix<f64>, q2: &Matrix<f64>) -> f64 {
        let mut r = q1.clone();
        gemm(Op::NoTrans, Op::NoTrans, -s, x.as_ref(), q2.as_ref(), 1.0, r.as_mut());
        let (num, den): (f64, f64) = (norm(Norm::Fro, r.as_ref()), norm(Norm::Fro, q1.as_ref()));
        num / den
    }

    /// A term slot's stacked buffer and the `T` factors of its QR.
    fn slot<S: Scalar>(n: usize, nb: usize) -> (TiledMatrix<S>, TFactors<S>) {
        let (wt, structure) = stacked(n, nb);
        (TiledMatrix::zeros(wt, ProcessGrid::single()), TFactors::zeros(wt, structure))
    }

    fn slot_in<'a, S: Scalar>(
        dag: &mut TaskDag<'a>,
        (w, t): &'a mut (TiledMatrix<S>, TFactors<S>),
    ) -> QrPtr<'a, S> {
        let structure = stacked(w.tiling().n(), w.tiling().nb()).1;
        let w = TilePtr::new(dag, w);
        QrPtr::over(dag, w, structure).bind_t(t)
    }

    /// A term over `R` at the scale of QDWH's first iteration from `l0 ~
    /// 1e-16` (`sqrt(c) ~ 1e8`), on shapes whose `n` is not a whole number of
    /// tiles: with the identity on a tile boundary the tile QR of `[s R; 0;
    /// I]` keeps the residual of the flat `geqrf` / `orgqr` of `[s R; I]`,
    /// and the step's product reads `Q2` where it is.
    #[test]
    fn a_term_over_r_keeps_q1_equal_to_s_r_q2_on_ragged_shapes() {
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

            // the step at x_coef = 0, one term of coefficient 1: Q_x [Q1 Q2^H; 0]
            let grid = ProcessGrid::single;
            let mut xt = TiledMatrix::from_dense(&x, nb, nb, grid());
            let mut t = TFactors::zeros(xt.tiling(), QrStructure::Dense);
            let mut ws = slot::<f64>(n, nb);
            let mut out = TiledMatrix::<f64>::zeros(xt.tiling(), grid());
            let mut qx = TiledMatrix::from_dense(&Matrix::identity(m, n), nb, nb, grid());
            let mut sink = NormSink::new(1, xt.tiling());
            let mut dag = TaskDag::new();
            sink.name_in(&mut dag);
            let xp = TilePtr::new(&mut dag, &mut xt);
            let f = QrPtr::over(&mut dag, xp, QrStructure::Dense).bind_t(&mut t);
            let term = slot_in(&mut dag, &mut ws);
            let op = TilePtr::new(&mut dag, &mut out);
            let combine = Combine { x: xp, x_coef: 0.0, sink: &sink, iter: 0 };
            emit_factored_step(&mut dag, f, false, &[term], &[(s, 1.0, 1.0)], Some(op), &combine);
            let qp = TilePtr::new(&mut dag, &mut qx);
            emit_unmqr(&mut dag, f, qp, true);
            assert_eq!(dag.execute(), ExecOutcome::Completed);

            let packed = xt.to_dense();
            let r = Matrix::from_fn(n, n, |i, j| if i <= j { packed[(i, j)] } else { 0.0 });
            let mut w = Matrix::<f64>::zeros(2 * n, n);
            add(s, r.as_ref(), 0.0, w.view_mut(0, 0, n, n));
            for d in 0..n {
                w[(n + d, d)] = 1.0;
            }
            let fw = geqrf(&mut w);
            let q = orgqr(&w, &fw);
            let (q1, q2) = (q.submatrix_owned(0, 0, n, n), q.submatrix_owned(n, 0, n, n));
            let flat = q1_residual(&r, s, &q1, &q2);

            let top = n.div_ceil(nb) * nb;
            let q = ws.0.to_dense();
            let (q1, q2) = (q.submatrix_owned(0, 0, n, n), q.submatrix_owned(top, 0, n, n));
            let tiled = q1_residual(&r, s, &q1, &q2);
            assert!(tiled <= 8.0 * flat, "{m}x{n} nb {nb}: tile QR {tiled:e} vs flat {flat:e}");
            // the pad rows of Q are the zeros they are in exact arithmetic
            let pad: f64 = norm(Norm::Fro, q.view(n, 0, top - n, n));
            assert_eq!(pad, 0.0, "{m}x{n} nb {nb}");
            // and the product tiles read Q2 where it is
            let mut p = Matrix::<f64>::zeros(n, n);
            gemm(Op::NoTrans, Op::ConjTrans, 1.0, q1.as_ref(), q2.as_ref(), 0.0, p.as_mut());
            let mut y = out.to_dense();
            gemm(
                Op::NoTrans,
                Op::NoTrans,
                -1.0,
                qx.to_dense().as_ref(),
                p.as_ref(),
                1.0,
                y.as_mut(),
            );
            let left: f64 = norm(Norm::Fro, y.as_ref());
            assert!(left <= 1e-13, "{m}x{n} nb {nb}: out - Q_x Q1 Q2^H = {left:e}");
        }
    }

    /// `|X' - X|_F` of one QR-based step as its product tiles publish it, in
    /// `R` space, against the dense iterates', relative to `|X|_F`: of the
    /// QR-based steps planned from `1e-16` at `r` terms (all of them at `r =
    /// 1`, forced), the one whose `x_coef R` weighs most (`x_coef` furthest
    /// from 1: near 1, `P` alone is the distance).
    fn r_space_norm_vs_the_iterates<S: Scalar>(m: usize, n: usize, nb: usize, r: usize) -> f64 {
        let path = crate::IterationPath::ForceQr;
        let opts = crate::QdwhOptions { terms: r, path, ..Default::default() };
        let plan = crate::qdwh_plan::<S>(&opts, 1e-16, 0.0, 50).expect("inside the cap");
        let qr = plan.iter().filter(|s| s.kind == crate::IterationKind::QrBased);
        let weight = |s: &&crate::Step<f64>| (s.x_coef - 1.0).abs();
        let step = qr.max_by(|a, b| weight(a).total_cmp(&weight(b))).expect("a QR-based step");
        let spec = MatrixSpec {
            m,
            n,
            cond: 1e10,
            distribution: SigmaDistribution::Geometric,
            seed: (m * n + r) as u64,
        };
        let (a, sigma) = generate::<S>(&spec);
        let x = Matrix::from_fn(m, n, |i, j| a[(i, j)].mul_real(S::Real::from_f64(1.0 / sigma[0])));
        let grid = ProcessGrid::single;
        let mut xt = TiledMatrix::from_dense(&x, nb, nb, grid());
        let mut t = TFactors::zeros(xt.tiling(), QrStructure::Dense);
        let mut wss: Vec<_> = (0..r).map(|_| slot::<S>(n, nb)).collect();
        let mut out = TiledMatrix::<S>::zeros(xt.tiling(), grid());
        let mut sink = NormSink::new(1, xt.tiling());
        let mut dag = TaskDag::new();
        sink.name_in(&mut dag);
        let xp = TilePtr::new(&mut dag, &mut xt);
        let f = QrPtr::over(&mut dag, xp, QrStructure::Dense).bind_t(&mut t);
        let applied: Vec<_> = step.terms.iter().map(|t| t.applied(step.kind)).collect();
        let real = S::Real::from_f64;
        let slots: Vec<_> = wss.iter_mut().map(|ws| slot_in(&mut dag, ws)).collect();
        let terms: Vec<_> =
            applied.iter().map(|a| (real(a.0), real(a.1), S::from_f64(a.2))).collect();
        let op = TilePtr::new(&mut dag, &mut out);
        let combine = Combine { x: xp, x_coef: S::from_f64(step.x_coef), sink: &sink, iter: 0 };
        emit_factored_step(&mut dag, f, false, &slots, &terms, Some(op), &combine);
        sink.emit_reduce::<S::Real>(&mut dag, 0);
        assert_eq!(dag.execute(), ExecOutcome::Completed);

        let mut d = out.to_dense();
        add(-S::ONE, x.as_ref(), S::ONE, d.as_mut());
        let dense: S::Real = norm(Norm::Fro, d.as_ref());
        let published: S::Real = sink.norm(0);
        let size: S::Real = norm(Norm::Fro, x.as_ref());
        ((published - dense).abs() / size).to_f64()
    }

    /// The `R`-space convergence partials sum to `|X' - X|_F` of the dense
    /// iterates within `c eps |X|_F`: square, tall and ragged shapes, real
    /// and complex, one term and eight.
    #[test]
    fn r_space_partials_match_the_iterates_within_eps() {
        for (m, n, nb) in [(48usize, 48usize, 16usize), (72, 40, 16), (37, 29, 8)] {
            for r in [1usize, 8] {
                let d = r_space_norm_vs_the_iterates::<f64>(m, n, nb, r) / f64::EPSILON;
                let z = r_space_norm_vs_the_iterates::<Complex64>(m, n, nb, r) / f64::EPSILON;
                assert!(
                    d <= 64.0 && z <= 64.0,
                    "{m}x{n} nb {nb} r {r}: d {d:.1} eps, z {z:.1} eps"
                );
            }
        }
    }

    /// `M` of all of `terms` in one round.
    fn emit_inverse_sum<'a, S: Scalar>(
        dag: &mut TaskDag<'a>,
        terms: &[(CholPtr<'a, S>, S::Real)],
        x_coef: S::Real,
        m: TilePtr<'a, S>,
    ) {
        emit_inverse_round(dag, terms, x_coef, Part { first: true, last: true }, m);
    }

    /// `x_coef X + sum_j w_j X Z_j^{-1}` of a several-term Cholesky-based
    /// Zolotarev step, as `X M` ([`emit_apply`]) and by the sweeps of one
    /// [`emit_chol_term`] per term summed afterwards, both over the same
    /// `Z_j`. Returns the worst entrywise difference in units of
    /// `kappa eps`, `kappa = max_j (1 + alpha_j / shift_j)` the bound on
    /// `kappa(Z_j)` for `||X||_2 <= 1`. The step is the Cholesky-based one
    /// of the plan from `1e-16` whose bound is largest, and `X` reaches down
    /// to `sigma = 1e-10`, so the worst `Z_j` is within a hair of it.
    fn m_route_vs_the_sweeps<S: Scalar>(m: usize, n: usize, nb: usize, r: usize) -> f64 {
        let opts = crate::QdwhOptions { terms: r, ..Default::default() };
        let plan = crate::qdwh_plan::<S>(&opts, 1e-16, 0.0, 50).expect("inside the cap");
        let kappa = |s: &crate::Step<f64>| {
            s.terms.iter().map(|t| 1.0 + t.alpha / t.shift).fold(0.0, f64::max)
        };
        let chol = plan.iter().filter(|s| s.kind == crate::IterationKind::CholeskyBased);
        let step = chol.max_by(|a, b| kappa(a).total_cmp(&kappa(b))).expect("a Cholesky step");
        let spec = MatrixSpec {
            m,
            n,
            cond: 1e10,
            distribution: SigmaDistribution::Geometric,
            seed: (m * n + r) as u64,
        };
        let (a, sigma) = generate::<S>(&spec);
        let x = Matrix::from_fn(m, n, |i, j| a[(i, j)].mul_real(S::Real::from_f64(1.0 / sigma[0])));
        let grid = ProcessGrid::single;
        let real = S::Real::from_f64;
        let mut xt = TiledMatrix::from_dense(&x, nb, nb, grid());
        let nn = Tiling::new(n, n, nb, nb);
        let mut gram = TiledMatrix::<S>::zeros(nn, grid());
        let mut zs: Vec<_> = (0..r).map(|_| TiledMatrix::<S>::zeros(nn, grid())).collect();
        let failure = OnceLock::new();

        // the sweeps, per term on a private copy of X: the update at x_coef
        // 0 and weight 1 leaves X Z^{-1} there
        let copy = || TiledMatrix::from_dense(&x, nb, nb, grid());
        let mut ys: Vec<_> = (0..r).map(|_| (copy(), copy())).collect();
        let mut sink = NormSink::new(r, xt.tiling());
        let mut dag = TaskDag::new();
        sink.name_in(&mut dag);
        let (xp, g) = (TilePtr::new(&mut dag, &mut xt), TilePtr::new(&mut dag, &mut gram));
        emit_gram(&mut dag, xp, g, S::Real::ONE, S::Real::ZERO);
        for (iter, ((z, (y, v)), t)) in
            zs.iter_mut().zip(ys.iter_mut()).zip(&step.terms).enumerate()
        {
            let ws = CholPtr { z: TilePtr::new(&mut dag, z) };
            emit_shifted(&mut dag, g, ws.z, real(t.alpha), real(t.shift));
            let (y, v) = (TilePtr::new(&mut dag, y), TilePtr::new(&mut dag, v));
            let combine = Combine { x: y, x_coef: S::ZERO, sink: &sink, iter };
            emit_chol_term(&mut dag, ws, v, S::ONE, &combine, &failure);
        }
        assert_eq!(dag.execute(), ExecOutcome::Completed);
        let ys: Vec<_> = ys.iter().map(|(y, _)| y.to_dense()).collect();
        let swept = Matrix::from_fn(m, n, |i, j| {
            let mut sum = S::from_f64(step.x_coef) * x[(i, j)];
            for (t, y) in step.terms.iter().zip(&ys) {
                sum += S::from_f64(t.weight) * y[(i, j)];
            }
            sum
        });

        // X M, in place through a V of X's tiling
        let mut v = TiledMatrix::<S>::zeros(xt.tiling(), grid());
        let mut sink = NormSink::new(1, xt.tiling());
        let mut dag = TaskDag::new();
        sink.name_in(&mut dag);
        let (xp, g) = (TilePtr::new(&mut dag, &mut xt), TilePtr::new(&mut dag, &mut gram));
        emit_gram(&mut dag, xp, g, S::Real::ONE, S::Real::ZERO);
        let mut terms = Vec::new();
        for (z, t) in zs.iter_mut().zip(&step.terms) {
            let ws = CholPtr { z: TilePtr::new(&mut dag, z) };
            emit_shifted(&mut dag, g, ws.z, real(t.alpha), real(t.shift));
            emit_chol_inverse(&mut dag, ws, &failure);
            terms.push((ws, real(t.weight)));
        }
        emit_inverse_sum(&mut dag, &terms, real(step.x_coef), g);
        let vp = TilePtr::new(&mut dag, &mut v);
        let combine = Combine { x: xp, x_coef: S::ZERO, sink: &sink, iter: 0 };
        emit_apply(&mut dag, g, vp, &combine);
        assert_eq!(dag.execute(), ExecOutcome::Completed);
        let applied = xt.to_dense();

        let mut worst = 0.0f64;
        for j in 0..n {
            for i in 0..m {
                worst = worst.max((applied[(i, j)] - swept[(i, j)]).abs().to_f64());
            }
        }
        worst / (kappa(step) * S::Real::EPSILON.to_f64())
    }

    /// The several-term Cholesky-based step as `X M` agrees with the
    /// sweeps it replaces entry for entry within `c kappa(Z) eps`: square,
    /// tall and ragged shapes, real and complex, `r` in {2, 3, 8}.
    #[test]
    fn zolo_x_m_matches_the_sweeps_within_kappa_eps() {
        for (m, n, nb) in [(48usize, 48usize, 16usize), (72, 40, 16), (37, 29, 8)] {
            for r in [2usize, 3, 8] {
                let d = m_route_vs_the_sweeps::<f64>(m, n, nb, r);
                let z = m_route_vs_the_sweeps::<Complex64>(m, n, nb, r);
                assert!(d <= 1.0 && z <= 1.0, "{m}x{n} nb {nb} r {r}: d {d:e}, z {z:e}");
            }
        }
    }

    /// A several-term step's `X M` with `G` and `M` in two term slots' top
    /// blocks ([`TilePtr::top`], the last tile row padded) and `V` where `G`
    /// was, and with the three in slabs of their own: the same bits. The
    /// slots start as NaN, so a body that read a padding row would poison
    /// `X M`, and one that wrote `M`'s would leave a number there.
    fn x_m_over_padded_tops<S: Scalar>(m: usize, n: usize, nb: usize) {
        let spec =
            MatrixSpec { m, n, cond: 1e3, distribution: SigmaDistribution::Geometric, seed: 3 };
        let (a, sigma) = generate::<S>(&spec);
        let x = Matrix::from_fn(m, n, |i, j| a[(i, j)].mul_real(S::Real::from_f64(1.0 / sigma[0])));
        let (grid, real) = (ProcessGrid::single, S::Real::from_f64);
        let (nn, top) = (Tiling::new(n, n, nb, nb), n.div_ceil(nb) * nb);
        let nan = || {
            let mut h = TiledMatrix::<S>::zeros(Tiling::new(top + n, n, nb, nb), grid());
            h.tiles_mut().iter_mut().for_each(|t| t.fill(S::from_f64(f64::NAN)));
            h
        };
        let run = |padded: bool| {
            let (mut hosts, mut g, mut mm) =
                ([nan(), nan()], TiledMatrix::zeros(nn, grid()), TiledMatrix::zeros(nn, grid()));
            let mut xt = TiledMatrix::from_dense(&x, nb, nb, grid());
            let mut v = TiledMatrix::<S>::zeros(xt.tiling(), grid());
            let mut sink = NormSink::new(1, xt.tiling());
            let failure = OnceLock::new();
            let mut dag = TaskDag::new();
            sink.name_in(&mut dag);
            let xp = TilePtr::new(&mut dag, &mut xt);
            let [h0, h1] = &mut hosts;
            let (h0, h1) = (TilePtr::new(&mut dag, h0), TilePtr::new(&mut dag, h1));
            let (g, mp, vp) = if padded {
                (h1.top(n), h0.top(n), h1.top(n))
            } else {
                let (g, mp) = (TilePtr::new(&mut dag, &mut g), TilePtr::new(&mut dag, &mut mm));
                (g, mp, TilePtr::new(&mut dag, &mut v))
            };
            emit_gram(&mut dag, xp, g, S::Real::ONE, S::Real::ZERO);
            let terms: Vec<_> = [(h0, 2.0, 0.5), (h1, 0.5, 0.25)]
                .into_iter()
                .map(|(h, shift, w)| {
                    let ws = CholPtr::within(h);
                    emit_shifted(&mut dag, g, ws.z, S::Real::ONE, real(shift));
                    emit_chol_inverse(&mut dag, ws, &failure);
                    (ws, real(w))
                })
                .collect();
            emit_inverse_sum(&mut dag, &terms, real(0.75), mp);
            let combine = Combine { x: xp, x_coef: S::ZERO, sink: &sink, iter: 0 };
            emit_apply(&mut dag, mp, vp, &combine);
            assert_eq!(dag.execute(), ExecOutcome::Completed);
            let h0 = &hosts[0];
            let pad: Vec<S> = (0..h0.nt())
                .map(|j| h0.tile(h0.nt() - 1, j))
                .flat_map(|t| {
                    (n - (top - t.nrows())..t.nrows())
                        .flat_map(move |i| (0..t.ncols()).map(move |j| t[(i, j)]))
                })
                .collect();
            let out = xt.to_dense();
            assert!(!out.has_non_finite(), "padded {padded}");
            let bits: Vec<_> = out
                .as_slice()
                .iter()
                .map(|v| (v.re().to_f64().to_bits(), v.im().to_f64().to_bits()))
                .collect();
            (bits, pad)
        };
        let ((padded, pad), (own, _)) = (run(true), run(false));
        assert!(padded == own, "{} {m}x{n} nb {nb}", S::TYPE_TAG);
        assert!(pad.len() == (top - n) * n && pad.iter().all(|v| v.re().to_f64().is_nan()));
    }

    #[test]
    fn x_m_over_padded_top_blocks_matches_own_slabs_bit_for_bit() {
        x_m_over_padded_tops::<f64>(37, 29, 8);
        x_m_over_padded_tops::<Complex64>(37, 29, 8);
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
        let mut x = TiledMatrix::from_dense(&Matrix::<f64>::identity(m, n), nb, nb, grid());
        let mut v = TiledMatrix::<f64>::zeros(x.tiling(), grid());
        let failure = OnceLock::new();
        let mut sink = NormSink::new(1, x.tiling());

        let mut dag = TaskDag::new();
        sink.name_in(&mut dag);
        let ws = CholPtr { z: TilePtr::new(&mut dag, &mut z) };
        let (x, v) = (TilePtr::new(&mut dag, &mut x), TilePtr::new(&mut dag, &mut v));
        let combine = Combine { x, x_coef: 1.0, sink: &sink, iter: 0 };
        emit_chol_term(&mut dag, ws, v, 1.0, &combine, &failure);
        assert_eq!(dag.execute(), ExecOutcome::Cancelled);
        assert_eq!(failure.get(), Some(&LapackError::NotPositiveDefinite(10)));
    }
}
