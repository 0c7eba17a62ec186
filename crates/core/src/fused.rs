//! Whole-solve task graph: the entire QDWH Halley sequence as ONE DAG.
//!
//! A per-iteration driver runs one factorization per step with full
//! barriers between them: assemble `W`/`Z`, factor, update, reduce the
//! convergence norm, and only then start step `k+1`. This module removes
//! those barriers. The key enabler is that the Halley weight sequence
//! `(a_k, b_k, c_k)` and the QR-vs-Cholesky switch depend only on the
//! scalar `ell` recurrence — a pure function of `l0`, not of the matrix
//! iterates — so the whole iteration *plan* is known before any flop runs
//! ([`plan_iterations`], the `itconv` precomputation of Sukkari's POLAR
//! library). [`qdwh_fused`] then emits, for every planned iteration:
//!
//! * QR-based (Eq. (1)): one stacked-QR term
//!   ([`crate::solve_dag::emit_term`]) on `[sqrt(c) X; I]` whose product
//!   tiles carry the `theta * Q1 Q2^H + beta * X` update;
//! * Cholesky-based (Eq. (2)): the `Z = I + c X^H X` assembly as per-tile
//!   tasks, `polar_lapack::emit_potrf`, one `trtri_lower` per diagonal tile
//!   of `L`, the two tiled sweeps applying `L^{-H}` then `L^{-1}` from the
//!   right — per tile the coupling gemms and a `trmm` with the inverted
//!   diagonal tile, a multiply where a solve would be (safe here and only
//!   here: `kappa(Z) <= 1 + c`, see `polar_lapack`'s `tri.rs`) — and the
//!   `beta * X_prev + theta * (X Z^{-1})` update;
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
//! Continuation: the caller runs this *before* its per-iteration `while`
//! loop and re-checks the loop condition afterwards, so what the plan
//! could not cover (an iteration-cap overflow, residual `conv` above
//! tolerance after `ell` converged) continues on the flat kernels with no
//! extra code.

use crate::options::{graph_tile_nb, poll_progress, IterationKind, IterationPath, QdwhOptions};
use crate::params::{halley_parameters, update_ell};
use crate::qdwh_impl::{QdwhError, QdwhInfo};
use crate::solve_dag::{
    emit_term, execute_hooked, record_iterations, HalleyUpdate, NormSink, TermPtr, TermWorkspace,
};
use polar_blas::{gemm, herk, trmm};
use polar_lapack::{emit_potrf, trtri_lower, LapackError, TilePtr};
use polar_matrix::{Diag, Matrix, Op, ProcessGrid, Side, TiledMatrix, Tiling, Uplo};
use polar_runtime::{ExecOutcome, KernelKind, TaskDag, TaskGraph, TaskStatus};
use polar_scalar::{Real, Scalar};
use std::sync::OnceLock;

/// One precomputed Halley iteration: the weights, the bound after the
/// update, and which factorization family the `c > threshold` switch
/// selects.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IterPlan<R> {
    pub a: R,
    pub b: R,
    pub c: R,
    /// `l_{k+1}` after this iteration's scalar update.
    pub ell_after: R,
    /// QR-based (Eq. (1)) vs Cholesky-based (Eq. (2)).
    pub qr: bool,
}

/// Precompute the whole iteration sequence from `l0`: weights, kinds, and
/// bound trajectory, until `|ell - 1| < 5 eps`. Returns `None` when the
/// iteration cap would be exceeded first (pathological `l0`; the caller's
/// per-iteration loop then reports `NoConvergence` with its own
/// bookkeeping).
pub(crate) fn plan_iterations<R: Real>(l0: R, opts: &QdwhOptions) -> Option<Vec<IterPlan<R>>> {
    let five_eps = R::from_f64(5.0) * R::EPSILON;
    let mut ell = l0;
    let mut plan = Vec::new();
    while (ell - R::ONE).abs() >= five_eps {
        if plan.len() >= opts.max_iterations {
            return None;
        }
        let p = halley_parameters(ell);
        ell = update_ell(ell, p);
        let qr = match opts.path {
            IterationPath::Auto => p.c.to_f64() > opts.qr_switch_threshold,
            IterationPath::ForceQr => true,
            IterationPath::ForceCholesky => false,
        };
        plan.push(IterPlan { a: p.a, b: p.b, c: p.c, ell_after: ell, qr });
    }
    Some(plan)
}

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
    chol: Option<(TilePtr<'a, S>, TilePtr<'a, S>)>,
}

impl<S: Scalar> SolvePtrs<'_, S> {
    /// Name the sink and every matrix of the solve in `dag`, storage-free.
    /// The one place the whole-solve graph's matrix ids are handed out, so
    /// the executed graph and [`qdwh_task_graph`] agree on them.
    fn shapes(
        dag: &mut TaskDag<'_>,
        sink: &mut NormSink,
        xt: Tiling,
        plan: &[IterPlan<S::Real>],
        exploit_structure: bool,
    ) -> Self {
        let (m, n, nb) = (xt.m(), xt.n(), xt.nb());
        sink.name_in(dag);
        Self {
            x: [TilePtr::shape(dag, xt), TilePtr::shape(dag, xt)],
            term: plan
                .iter()
                .any(|p| p.qr)
                .then(|| TermPtr::shape(dag, m, n, nb, exploit_structure.then_some(m))),
            chol: plan.iter().any(|p| !p.qr).then(|| {
                let mut tiles = |cols| TilePtr::shape(dag, Tiling::new(n, cols, nb, nb));
                (tiles(n), tiles(nb.min(n)))
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
            chol: self.chol.zip(chol).map(|((z, li), (zs, ls))| (z.bind(zs), li.bind(ls))),
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
        .map(|&kind| IterPlan {
            a: one,
            b: one,
            c: one,
            ell_after: one,
            qr: kind == IterationKind::QrBased,
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
    plan: &[IterPlan<S::Real>],
    sink: &'a NormSink,
    failure: &'a OnceLock<LapackError>,
) {
    type R<S> = <S as Scalar>::Real;
    let xt = at.x[0].tiling();
    let (nb, mtx, nt) = (xt.nb(), xt.mt(), xt.nt());
    let nbf = nb as f64;

    for (k, pl) in plan.iter().enumerate() {
        if k > 0 {
            dag.next_phase();
        }
        let (xin, xout) = (at.x[k % 2], at.x[(k + 1) % 2]);
        let beta = pl.b / pl.c;

        if pl.qr {
            // X_out = beta X_in + theta Q1 Q2^H, [Q1; Q2] R = [sqrt(c) X_in; I]
            let sqrt_c = pl.c.sqrt();
            let theta = (pl.a - beta) / sqrt_c;
            emit_term(
                dag,
                at.term.expect("plan has a QR iteration"),
                xin,
                (sqrt_c, R::<S>::ONE),
                S::from_real(theta),
                xout,
                Some(HalleyUpdate { beta, sink, iter: k }),
            );
        } else {
            // ---- Cholesky-based iteration ----
            let theta = pl.a - beta;
            let c_r = pl.c;
            let (z, linv) = at.chol.expect("plan has a Cholesky iteration");

            // Z = I + c X^H X, lower tiles only (herk on the diagonal).
            dag.barrier();
            for zj in 0..nt {
                for zi in zj..nt {
                    let mut reads = Vec::with_capacity(2 * mtx);
                    for l in 0..mtx {
                        reads.push(xin.at(l, zi));
                        if zi != zj {
                            reads.push(xin.at(l, zj));
                        }
                    }
                    let flops = if zi == zj {
                        nbf * nbf * nbf * mtx as f64
                    } else {
                        2.0 * nbf * nbf * nbf * mtx as f64
                    };
                    dag.add(
                        if zi == zj { KernelKind::Herk } else { KernelKind::Gemm },
                        3,
                        flops,
                        reads,
                        vec![z.at(zi, zj)],
                        move || {
                            // SAFETY: Z (zi, zj) is written; columns zi and
                            // zj of X_in are the read set.
                            let zt_tile = unsafe { z.tile(zi, zj) };
                            let xcol = |l: usize, j: usize| unsafe { xin.tile_ref(l, j) };
                            if zi == zj {
                                zt_tile.set_identity();
                                for l in 0..mtx {
                                    herk(
                                        Uplo::Lower,
                                        Op::ConjTrans,
                                        c_r,
                                        xcol(l, zi).as_ref(),
                                        R::<S>::ONE,
                                        zt_tile.as_mut(),
                                    );
                                }
                            } else {
                                zt_tile.fill(S::ZERO);
                                for l in 0..mtx {
                                    gemm(
                                        Op::ConjTrans,
                                        Op::NoTrans,
                                        S::from_real(c_r),
                                        xcol(l, zi).as_ref(),
                                        xcol(l, zj).as_ref(),
                                        S::ONE,
                                        zt_tile.as_mut(),
                                    );
                                }
                            }
                        },
                    );
                }
            }

            // Z = L L^H in place. Indefiniteness cancels the whole solve —
            // an error aborts every later iteration too.
            emit_potrf(dag, z, failure);

            // L_jj^{-1} per diagonal tile, which turns the diagonal solve
            // of both sweeps below into a multiply. A pivot trtri rejects
            // is a factor potrf should have refused: same failure.
            dag.barrier();
            for tj in 0..nt {
                dag.add_task(
                    KernelKind::Trsm,
                    3,
                    nbf * nbf * nbf / 3.0,
                    vec![z.at(tj, tj)],
                    vec![linv.at(tj, 0)],
                    move || {
                        // SAFETY: L (tj, tj) is read, its inverse's tile
                        // written.
                        let (l, t) = unsafe { (z.tile_ref(tj, tj), linv.tile(tj, 0)) };
                        let r = l.nrows();
                        match trtri_lower(l.as_ref(), t.view_mut(0, 0, r, r)) {
                            Ok(()) => TaskStatus::Continue,
                            Err(e) => {
                                let at = if let LapackError::SingularPivot(p) = e { p } else { 0 };
                                let _ =
                                    failure.set(LapackError::NotPositiveDefinite(tj * nb + at + 1));
                                TaskStatus::Cancel
                            }
                        }
                    },
                );
            }

            // X Z^{-1} by two sweeps over the tile columns, in place in
            // X_out (whose buffer last held X_{k-1}: every reader of that
            // is upstream of the L these sweeps wait for). Forward,
            // C L^H = X_in, tile columns ascending; then backward,
            // V L = C, descending — so each sweep's RAW edges bind to its
            // own solved tiles and the in-place WAW chains behind the
            // forward pass over the same tile. Per tile: subtract the
            // already-solved columns, then multiply by the inverted
            // diagonal tile from the right.
            for forward in [true, false] {
                let op = if forward { Op::ConjTrans } else { Op::NoTrans };
                for step in 0..nt {
                    dag.barrier();
                    let tj = if forward { step } else { nt - 1 - step };
                    // solved columns this one depends on, and the L tile
                    // that couples it to each
                    let solved = if forward { 0..tj } else { tj + 1..nt };
                    let l_tile = move |l: usize| if forward { (tj, l) } else { (l, tj) };
                    for ti in 0..mtx {
                        let mut reads = Vec::with_capacity(2 * solved.len() + 2);
                        if forward {
                            reads.push(xin.at(ti, tj));
                        }
                        for l in solved.clone() {
                            let (i, j) = l_tile(l);
                            reads.push(xout.at(ti, l));
                            reads.push(z.at(i, j));
                        }
                        reads.push(linv.at(tj, 0));
                        let solved = solved.clone();
                        dag.add(
                            KernelKind::Trsm,
                            2,
                            (2.0 * solved.len() as f64 + 1.0) * nbf * nbf * nbf,
                            reads,
                            vec![xout.at(ti, tj)],
                            move || {
                                // SAFETY: X_out (ti, tj) is written; X_in
                                // (ti, tj), the solved X_out (ti, l), the L
                                // tiles named above and the inverted
                                // diagonal tile are the read set.
                                let vt = unsafe { xout.tile(ti, tj) };
                                if forward {
                                    vt.copy_from(unsafe { xin.tile_ref(ti, tj) });
                                }
                                for l in solved {
                                    let (i, j) = l_tile(l);
                                    let (vl, zl) =
                                        unsafe { (xout.tile_ref(ti, l), z.tile_ref(i, j)) };
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
                                let inv = unsafe { linv.tile_ref(tj, 0) };
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

            // X_out = beta X_in + theta (X Z^{-1}), fused with the
            // convergence partial.
            dag.barrier();
            for tj in 0..nt {
                for ti in 0..mtx {
                    dag.add(
                        KernelKind::Geadd,
                        0,
                        nbf * nbf,
                        vec![xin.at(ti, tj)],
                        vec![xout.at(ti, tj), sink.partial_at(k, ti, tj)],
                        move || {
                            // SAFETY: X_out (ti, tj) is written; X_in
                            // (ti, tj) is the read set.
                            let (xi, xo) = unsafe { (xin.tile_ref(ti, tj), xout.tile(ti, tj)) };
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
                            sink.publish(k, ti, tj, acc);
                        },
                    );
                }
            }
        }
        sink.emit_reduce::<R<S>>(dag, k);
    }
}

/// Run the whole planned Halley sequence as one task graph: takes the
/// iterate, returns it advanced, and updates the run telemetry in place.
/// On success the caller's loop condition re-check provides the (normally
/// trivial) continuation; on a planner bail-out (`None` plan) `x` comes
/// back untouched so the per-iteration loop takes over entirely.
pub(crate) fn qdwh_fused<S: Scalar>(
    x: Matrix<S>,
    ell: &mut S::Real,
    conv: &mut S::Real,
    info: &mut QdwhInfo<S::Real>,
    opts: &QdwhOptions,
) -> Result<Matrix<S>, QdwhError> {
    let m = x.nrows();
    let n = x.ncols();
    let Some(plan) = plan_iterations(*ell, opts) else { return Ok(x) };
    let iters = plan.len();
    if iters == 0 {
        return Ok(x);
    }
    // a job cancelled while it queued allocates nothing
    let (done, l0, conv0) = (info.iterations, ell.to_f64(), conv.to_f64());
    poll_progress(opts.progress.as_ref(), done + 1, conv0, l0)?;
    let nb = graph_tile_nb(opts.tile_nb, n);

    let _span = polar_obs::span!("qdwh_fused", m, n);
    let kernels_before = polar_obs::kernel_snapshot();
    let start = std::time::Instant::now();

    // the storage `SolvePtrs::shapes` names (`bind` checks the two agree);
    // it has to outlive the dag whose bodies borrow it
    let xt = Tiling::new(m, n, nb, nb);
    let zeros = |t: Tiling| TiledMatrix::<S>::zeros(t, ProcessGrid::single());
    let mut xb = [TiledMatrix::from_dense(&x, nb, nb, ProcessGrid::single()), zeros(xt)];
    drop(x); // the tiles are the iterate from here on
    let mut qr_ws = plan
        .iter()
        .any(|p| p.qr)
        .then(|| TermWorkspace::<S>::new(m, n, nb, opts.exploit_structure.then_some(m)));
    let mut chol_ws = plan
        .iter()
        .any(|p| !p.qr)
        .then(|| (zeros(Tiling::new(n, n, nb, nb)), zeros(Tiling::new(n, nb.min(n), nb, nb))));
    let failure = OnceLock::<LapackError>::new();
    let mut sink = NormSink::new(iters, xt);

    let mut dag = TaskDag::new();
    let at = SolvePtrs::shapes(&mut dag, &mut sink, xt, &plan, opts.exploit_structure).bind(
        &mut xb,
        qr_ws.as_mut(),
        chol_ws.as_mut(),
    );
    emit_iterations(&mut dag, at, &plan, &sink, &failure);

    let ell_entering = |k: usize| if k == 0 { l0 } else { plan[k - 1].ell_after.to_f64() };
    let outcome = execute_hooked(dag, opts.progress.as_ref(), done, &sink, conv0, ell_entering)?;
    if outcome == ExecOutcome::Cancelled {
        let e = failure.into_inner().unwrap_or(LapackError::NotPositiveDefinite(0));
        return Err(QdwhError::Lapack(e));
    }

    // flop weights per kind: 8 2/3 n^3 (QR) vs 4 1/3 n^3 (Cholesky)
    let steps: Vec<_> = plan
        .iter()
        .map(|p| match p.qr {
            true => (IterationKind::QrBased, p.ell_after, 26.0 / 3.0),
            false => (IterationKind::CholeskyBased, p.ell_after, 13.0 / 3.0),
        })
        .collect();
    record_iterations(info, &steps, &sink, start, &kernels_before)?;

    *ell = plan[iters - 1].ell_after;
    *conv = sink.norm(iters - 1);
    Ok(xb[iters % 2].to_dense())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TiledPath;
    use crate::qdwh_impl::qdwh;
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
    fn plan_matches_scalar_recurrence() {
        let opts = QdwhOptions::default();
        let plan = plan_iterations(1e-17f64, &opts).expect("converges");
        // the paper's kappa = 1e16 split: 3 QR then 3 Cholesky
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.iter().filter(|p| p.qr).count(), 3);
        assert!(plan.windows(2).all(|w| w[0].ell_after <= w[1].ell_after));
        let last = plan.last().unwrap();
        assert!((last.ell_after - 1.0).abs() < 5.0 * f64::EPSILON);
        // QR iterations must come first (c decreases monotonically)
        let first_chol = plan.iter().position(|p| !p.qr).unwrap();
        assert!(plan[first_chol..].iter().all(|p| !p.qr));
    }

    #[test]
    fn plan_respects_forced_paths() {
        let qr_only = QdwhOptions { path: IterationPath::ForceQr, ..Default::default() };
        let plan = plan_iterations(0.5f64, &qr_only).unwrap();
        assert!(!plan.is_empty() && plan.iter().all(|p| p.qr));
        let chol_only = QdwhOptions { path: IterationPath::ForceCholesky, ..Default::default() };
        let plan = plan_iterations(0.5f64, &chol_only).unwrap();
        assert!(plan.iter().all(|p| !p.qr));
    }

    #[test]
    fn plan_bails_on_iteration_cap() {
        let opts = QdwhOptions { max_iterations: 1, ..Default::default() };
        assert!(plan_iterations(1e-17f64, &opts).is_none());
    }

    #[test]
    fn plan_empty_when_already_converged() {
        let opts = QdwhOptions::default();
        let plan = plan_iterations(1.0f64, &opts).unwrap();
        assert!(plan.is_empty());
    }
}
