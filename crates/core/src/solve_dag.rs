//! What the whole-solve task graphs ([`crate::fused`], [`crate::zolo_fused`])
//! have in common, written once:
//!
//! * the **stacked-QR term** ([`emit_term`]): `[s X; d I]` assembly → tile
//!   QR → explicit `Q` → `Q2` gather → `alpha Q1 Q2^H` product tiles. QDWH's
//!   QR-based iteration is one term with the Halley update fused into the
//!   product tiles; a Zolo-PD iteration is `r` terms with other weights.
//!   The factorization tasks themselves come from `polar-lapack`'s
//!   emitters — this crate names no tile kernel;
//! * the **Cholesky term** ([`emit_chol_term`], behind [`emit_gram`]): tile
//!   Cholesky of a shifted Gram matrix `Z` → one `trtri_lower` per diagonal
//!   tile → the two sweeps that leave `X Z^{-1}` in an output slab. QDWH's
//!   Cholesky-based iteration is one term over `Z = I + c X^H X` with the
//!   Halley update behind it; a Cholesky-based Zolo-PD iteration is `r`
//!   terms over `Z_j = X^H X + c_{2j-1} I`, the Gram matrix formed once;
//! * the **convergence sink** ([`NormSink`]): per-tile `|X_k - X_{k-1}|_F^2`
//!   partials published by the update tasks and one fixed-order reduction
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
use polar_blas::{gemm, herk, trmm};
use polar_lapack::{
    emit_geqrf, emit_orgqr, emit_potrf, trtri_lower, LapackError, QrPtr, TilePtr, TiledQr,
};
use polar_matrix::{Diag, Op, ProcessGrid, Side, TiledMatrix, Tiling, Uplo};
use polar_runtime::{Access, ExecOutcome, InBody, KernelKind, TaskDag, TaskStatus, TileRef};
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

/// Workspace of one stacked-QR term — `W = [s X; d I]` with its `T`
/// factors, the explicit `Q`, the gathered `Q2` — allocated once per solve
/// and reused by every iteration: by the time any tile of `X_{k+1}` exists
/// every reader of iteration `k`'s workspace has run, so the reuse edges
/// the dag infers cost no overlap.
pub(crate) struct TermWorkspace<S: Scalar> {
    w: TiledQr<S>,
    q: TiledMatrix<S>,
    g: TiledMatrix<S>,
}

impl<S: Scalar> TermWorkspace<S> {
    /// For an `m x n` iterate at tile size `nb`; `top_rows` as in
    /// [`TiledQr::zeros`].
    pub(crate) fn new(m: usize, n: usize, nb: usize, top_rows: Option<usize>) -> Self {
        let wt = Tiling::new(m + n, n, nb, nb);
        Self {
            w: TiledQr::zeros(wt, top_rows),
            q: TiledMatrix::zeros(wt, ProcessGrid::single()),
            g: TiledMatrix::zeros(Tiling::new(n, n, nb, nb), ProcessGrid::single()),
        }
    }
}

/// A [`TermWorkspace`] as the tasks of one dag see it: registered as a
/// shape, bound to storage by whoever executes the dag.
#[derive(Clone, Copy)]
pub(crate) struct TermPtr<'a, S: Scalar> {
    w: QrPtr<'a, S>,
    q: TilePtr<'a, S>,
    g: TilePtr<'a, S>,
}

impl<S: Scalar> TermPtr<'_, S> {
    /// Arguments as for [`TermWorkspace::new`].
    pub(crate) fn shape(
        dag: &mut TaskDag<'_>,
        m: usize,
        n: usize,
        nb: usize,
        top_rows: Option<usize>,
    ) -> Self {
        let wt = Tiling::new(m + n, n, nb, nb);
        Self {
            w: QrPtr::shape(dag, wt, top_rows),
            q: TilePtr::shape(dag, wt),
            g: TilePtr::shape(dag, Tiling::new(n, n, nb, nb)),
        }
    }

    pub(crate) fn bind<'b>(self, ws: &'b mut TermWorkspace<S>) -> TermPtr<'b, S> {
        TermPtr { w: self.w.bind(&mut ws.w), q: self.q.bind(&mut ws.q), g: self.g.bind(&mut ws.g) }
    }
}

impl<'a, S: Scalar> TermPtr<'a, S> {
    /// The same workspace as a Cholesky term's ([`CholPtr`]): `Z` in the
    /// `n x n` gather buffer, the inverted diagonal tiles in the first tile
    /// column of `Q`'s top `n` rows.
    pub(crate) fn chol(self) -> CholPtr<'a, S> {
        CholPtr { z: self.g, linv: self.q }
    }
}

/// Workspace of one Cholesky term: `z`, `n x n`, whose lower tiles hold `Z`
/// and then its factor `L`; and `linv`, whose tiles `(tj, 0)`, `tj < nt`,
/// hold the inverses of `L`'s diagonal tiles in their leading corners.
#[derive(Clone, Copy)]
pub(crate) struct CholPtr<'a, S> {
    pub z: TilePtr<'a, S>,
    pub linv: TilePtr<'a, S>,
}

/// QDWH's fusion of the Halley update into a term's product tiles: they
/// start from `beta X` instead of zero, and each publishes its convergence
/// partial `|out - X|_F^2` for iteration `iter`.
#[derive(Clone, Copy)]
pub(crate) struct HalleyUpdate<'a, R> {
    pub beta: R,
    pub sink: &'a NormSink,
    pub iter: usize,
}

/// Add one stacked-QR term to `dag`:
///
/// ```text
/// [Q1; Q2] R = [s X; d I]          (tile QR on the pruned row window)
/// out = alpha Q1 Q2^H              (+ beta X, with `halley`)
/// ```
///
/// `x` and `out` are tiled alike (`m x n`); `ws` was sized for them.
pub(crate) fn emit_term<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    ws: TermPtr<'a, S>,
    x: TilePtr<'a, S>,
    (s, d): (S::Real, S::Real),
    alpha: S,
    out: TilePtr<'a, S>,
    halley: Option<HalleyUpdate<'a, S::Real>>,
) {
    let TermPtr { w: f, q, g } = ws;
    let w = f.a;
    let xt = x.tiling();
    let (m, nb) = (xt.m(), xt.nb());
    let (mtx, nt, mtw) = (xt.mt(), xt.nt(), w.tiling().mt());
    let nbf = nb as f64;

    // W = [s X; d I] per tile; the top rows of a tile straddling row m
    // coincide with the X tile of the same index.
    dag.barrier();
    for j in 0..nt {
        for wi in 0..mtw {
            // X (wi, j) is read exactly when that tile exists
            let access = (w.write(wi, j), (wi < mtx).then(|| x.read(wi, j)));
            dag.add_on(KernelKind::Geadd, 2, nbf * nbf, access, move |(wt, xs)| {
                let (r0, c0) = (wi * nb, j * nb);
                let top = xs.map_or(0, |xs| xs.nrows());
                let (sc, dc) = (S::from_real(s), S::from_real(d));
                let copy = s == S::Real::ONE; // s = 1 is a copy, bit for bit
                for c in 0..wt.ncols() {
                    if let Some(xs) = xs {
                        for r in 0..top {
                            wt[(r, c)] = if copy { xs[(r, c)] } else { sc * xs[(r, c)] };
                        }
                    }
                    for r in top..wt.nrows() {
                        wt[(r, c)] = if r0 + r - m == c0 + c { dc } else { S::ZERO };
                    }
                }
            });
        }
    }

    emit_geqrf(dag, f);
    emit_orgqr(dag, f, q);

    // Gather Q2 (rows m..m+n of Q) into an n x n tiling: each Q2 tile
    // straddles at most two Q tile rows when m % nb != 0.
    dag.barrier();
    for kc in 0..nt {
        for tj in 0..nt {
            let lo = (m + tj * nb) / nb;
            let hi = (m + tj * nb + g.tiling().tile_rows(tj) - 1) / nb;
            let access = (g.write(tj, kc), q.read(lo, kc), (hi != lo).then(|| q.read(hi, kc)));
            dag.add_on(KernelKind::Geadd, 1, nbf * nbf, access, move |(out, qlo, qhi)| {
                let qhi = qhi.unwrap_or(qlo);
                for c in 0..out.ncols() {
                    for r in 0..out.nrows() {
                        let gr = m + tj * nb + r;
                        let src = if gr / nb == lo { qlo } else { qhi };
                        out[(r, c)] = src[(gr % nb, c)];
                    }
                }
            });
        }
    }

    // out = alpha Q1 Q2^H per tile, accumulated over the n columns of Q
    // in fixed order (one task per tile: no reduction across tasks).
    dag.barrier();
    for tj in 0..nt {
        for ti in 0..mtx {
            // with `halley`, X (ti, tj) joins the reads and the partial the
            // writes; then row ti of Q against row tj of G
            let fused = halley.map(|h| (x.read(ti, tj), h.sink.partial(h.iter, ti, tj)));
            let rows: Vec<_> = (0..nt).map(|kc| (q.read(ti, kc), g.read(tj, kc))).collect();
            let flops = 2.0 * nbf * nbf * nbf * nt as f64;
            let access = (out.write(ti, tj), fused, rows);
            dag.add_on(KernelKind::Gemm, 0, flops, access, move |(o, fused, rows)| {
                let fused = halley.zip(fused);
                match fused {
                    Some((h, (xi, _))) => {
                        let b = S::from_real(h.beta);
                        for c in 0..o.ncols() {
                            for r in 0..o.nrows() {
                                o[(r, c)] = b * xi[(r, c)];
                            }
                        }
                    }
                    None => o.fill(S::ZERO),
                }
                for (q1, q2) in rows {
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
                if let Some((_, (xi, partial))) = fused {
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
    let nbf = xt.nb() as f64;

    dag.barrier();
    for zj in 0..nt {
        for zi in zj..nt {
            // columns zi and, off the diagonal, zj of X
            let cols: Vec<_> =
                (0..mtx).map(|l| (x.read(l, zi), (zi != zj).then(|| x.read(l, zj)))).collect();
            let flops = if zi == zj {
                nbf * nbf * nbf * mtx as f64
            } else {
                2.0 * nbf * nbf * nbf * mtx as f64
            };
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
    let nbf = nb as f64;

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
            nbf * nbf * nbf / 3.0,
            (z.read(tj, tj), linv.write(tj, 0)),
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
                    (2.0 * solved.len() as f64 + 1.0) * nbf * nbf * nbf,
                    (out.write(ti, tj), forward.then(|| x.read(ti, tj)), pairs, linv.read(tj, 0)),
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

/// What a whole-solve graph tells the caller's progress hook: graph phase
/// `k` is the solve's iteration `k + 1`, the bound entering it is
/// `ells[k]`, and the convergence norm before the first is `first_conv`.
pub(crate) struct Hooked<'a> {
    pub hook: Option<&'a ProgressHook>,
    pub first_conv: f64,
    pub ells: &'a [f64],
}

/// Run a whole-solve graph. With a progress hook, the executor polls it
/// before every task release with the oldest iteration still in flight,
/// the norm the previous iteration's sink published and the planned bound
/// entering it; a `Cancel` abandons the graph and comes back as
/// [`QdwhError::Cancelled`]. A graph one of its own bodies cancelled comes
/// back as the error that body left in `failure`.
pub(crate) fn execute_hooked(
    dag: TaskDag<'_>,
    hooked: &Hooked<'_>,
    sink: &NormSink,
    failure: &OnceLock<LapackError>,
) -> Result<(), QdwhError> {
    let broke_down = |outcome| match outcome {
        ExecOutcome::Completed => Ok(()),
        ExecOutcome::Cancelled => Err(QdwhError::Lapack(
            failure.get().cloned().unwrap_or(LapackError::NotPositiveDefinite(0)),
        )),
    };
    let Some(hook) = hooked.hook else { return broke_down(dag.execute()) };
    let cancelled_at = AtomicUsize::new(0);
    let outcome = dag.execute_until(|frontier| {
        let k = frontier as usize;
        let conv = if k == 0 { hooked.first_conv } else { sink.norm::<f64>(k - 1) };
        let cancel = poll_progress(Some(hook), k + 1, conv, hooked.ells[k]).is_err();
        if cancel {
            // read back after the run only; `execute_until` has joined
            // every lane by then
            cancelled_at.store(k + 1, Ordering::Relaxed);
        }
        cancel
    });
    match cancelled_at.into_inner() {
        0 => broke_down(outcome),
        iteration => Err(QdwhError::Cancelled { iteration }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_matrix::Matrix;

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
        let mut linv = TiledMatrix::<f64>::zeros(Tiling::new(n, nb, nb, nb), grid());
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
