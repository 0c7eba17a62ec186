//! Whole-solve task graph: the entire QDWH Halley sequence as ONE DAG.
//!
//! The bulk-synchronous driver in `qdwh_impl` runs one factorization DAG
//! per iteration with full barriers between them: every worker drains the
//! step-`k` graph, the driver assembles `W`/`Z` and reduces the convergence
//! norm serially, and only then does step `k+1` start. This module removes
//! those barriers. The key enabler is that the Halley weight sequence
//! `(a_k, b_k, c_k)` and the QR-vs-Cholesky switch depend only on the
//! scalar `ell` recurrence — a pure function of `l0`, not of the matrix
//! iterates — so the whole iteration *plan* is known before any flop runs
//! ([`plan_iterations`], the `itconv` precomputation of Sukkari's POLAR
//! library). [`qdwh_fused`] then emits, for every planned iteration:
//!
//! * the stacked-`W` assembly (QR path) or `Z = I + c X^H X` assembly
//!   (Cholesky path) as per-tile tasks;
//! * the factorization task graph itself (`geqrt`/`tsqrt`/`unmqr`/`tsmqr`
//!   with the pruned `[B; I]` row window, or `potrf`/`trsm`/`herk`/`gemm`);
//! * the `Q` formation sweep and the `theta * Q1 Q2^H + beta * X` update
//!   gemms (QR), or the two tiled right triangular solves and the
//!   `beta * X_prev + theta * (X Z^{-1})` update (Cholesky);
//! * a per-tile convergence partial `|X_k - X_{k-1}|_F^2` fused into each
//!   update task, plus one fixed-order reduction task per iteration.
//!
//! into a single [`TaskDag`], with `X` (and all workspace) double-buffered
//! by iteration parity. Nothing in iteration `k+1` waits on the
//! convergence reduction of iteration `k` — the reduction is a sink — so
//! the executor's critical-path priorities and lookahead window let
//! step-`k+1` panel kernels overlap step-`k` trailing updates across the
//! whole solve. Each iteration advances the DAG phase
//! ([`TaskDag::next_phase`]), which is what the lookahead window is keyed
//! on.
//!
//! Determinism: every value-affecting ordering is a dependency edge (tasks
//! write disjoint tiles; accumulations happen inside single tasks in fixed
//! loop order; the convergence reduction sums partials in fixed tile
//! order), so the computed iterates are schedule-independent bit-for-bit.
//! Under `POLAR_DETERMINISTIC=1` the executor additionally fixes the
//! schedule itself.
//!
//! Fallback: the caller runs this *before* its bulk-synchronous `while`
//! loop and re-checks the loop condition afterwards, so anything the plan
//! could not cover (an iteration-cap overflow, residual `conv` above
//! tolerance after `ell` converged) continues on the existing per-step
//! path with no extra code.

use crate::options::{IterationKind, IterationPath, QdwhOptions};
use crate::params::{halley_parameters, update_ell};
use crate::qdwh_impl::{IterationRecord, QdwhError, QdwhInfo};
use polar_blas::{gemm, herk, trsm};
use polar_lapack::{
    auto_tile_nb, geqrt_blocked_into, potrf, stacked_row_limit, tsmqr_blocked, tsqrt_blocked_into,
    unmqr_tile_blocked, LapackError, SlotPtr, TilePtr, TileT, DEFAULT_BLOCK,
};
use polar_matrix::{Diag, Matrix, Op, ProcessGrid, Side, TiledMatrix, Tiling, Uplo};
use polar_runtime::{ExecOutcome, KernelKind, TaskDag, TaskStatus, TileRef};
use polar_scalar::{Real, Scalar};
use std::sync::Mutex;

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
/// bulk-synchronous loop then reports `NoConvergence` with its own
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

/// Raw-pointer access to a slab of per-tile scalar slots (convergence
/// partials / per-iteration results), with the same contract as
/// [`TilePtr`]: the task graph orders all conflicting accesses.
pub(crate) struct RealSlots<R> {
    p: *mut R,
}

impl<R> Clone for RealSlots<R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R> Copy for RealSlots<R> {}
unsafe impl<R: Send> Send for RealSlots<R> {}
unsafe impl<R: Send> Sync for RealSlots<R> {}

impl<R: Copy> RealSlots<R> {
    pub(crate) fn new(v: &mut [R]) -> Self {
        Self { p: v.as_mut_ptr() }
    }
    /// # Safety
    /// Slot `i` must be in the calling task's write set.
    pub(crate) unsafe fn set(&self, i: usize, v: R) {
        *self.p.add(i) = v;
    }
    /// # Safety
    /// Slot `i` must be in the calling task's read set.
    pub(crate) unsafe fn get(&self, i: usize) -> R {
        *self.p.add(i)
    }
}

/// Preallocate the `T`-factor slab for one stacked-QR parity (same layout
/// as `geqrf_tiled`'s: slot `i + k * mt`, zero-width stubs outside the
/// pruned row window).
pub(crate) fn t_slab<S: Scalar>(wt: Tiling, top_rows: Option<usize>, ib: usize) -> Vec<TileT<S>> {
    let mt = wt.mt();
    let kt = mt.min(wt.nt());
    let mut v = Vec::with_capacity(mt * kt);
    for k in 0..kt {
        let kk = wt.tile_rows(k).min(wt.tile_cols(k));
        let lim = stacked_row_limit(wt, top_rows, k);
        for i in 0..mt {
            let used = i == k || (i > k && i <= lim);
            v.push(TileT::new(ib, if used { kk } else { 0 }));
        }
    }
    v
}

/// Run the whole planned Halley sequence as one task graph, updating the
/// iterate and the run telemetry in place. On success the caller's loop
/// condition re-check provides the (normally trivial) continuation; on a
/// planner bail-out (`None` plan) nothing is touched and `Ok` is returned
/// so the bulk path takes over entirely.
pub(crate) fn qdwh_fused<S: Scalar>(
    x: &mut Matrix<S>,
    ell: &mut S::Real,
    conv: &mut S::Real,
    info: &mut QdwhInfo<S::Real>,
    opts: &QdwhOptions,
) -> Result<(), QdwhError> {
    type R<S> = <S as Scalar>::Real;
    let m = x.nrows();
    let n = x.ncols();
    let Some(plan) = plan_iterations(*ell, opts) else { return Ok(()) };
    let iters = plan.len();
    if iters == 0 {
        return Ok(());
    }
    let nb = opts.tile_nb.unwrap_or_else(|| auto_tile_nb(n)).max(8);
    let ib = DEFAULT_BLOCK.min(nb);
    let any_qr = plan.iter().any(|p| p.qr);
    let any_chol = plan.iter().any(|p| !p.qr);
    let top: Option<usize> = opts.exploit_structure.then_some(m);

    let _span = polar_obs::span!("qdwh_fused", m, n);
    let kernels_before = polar_obs::kernel_snapshot();
    let start = std::time::Instant::now();

    let xt = Tiling::new(m, n, nb, nb);
    let mtx = xt.mt();
    let nt = xt.nt();
    // X double-buffered by iteration parity: iteration k reads parity k%2,
    // writes parity (k+1)%2. Workspace (W/Q/T, Z/V) is parity-buffered the
    // same way so iteration k+1 never waits on buffer reuse against
    // iteration k — only against the long-finished k-1.
    let mut xb0 = TiledMatrix::from_dense(x, nb, nb, ProcessGrid::single());
    let mut xb1 = TiledMatrix::<S>::zeros(xt, ProcessGrid::single());

    // Stacked-QR workspace (dummy 1x1 when the plan has no QR iterations).
    let wt = if any_qr { Tiling::new(m + n, n, nb, nb) } else { Tiling::new(1, 1, nb, nb) };
    let mtw = wt.mt();
    let kt = wt.mt().min(wt.nt());
    let q2t = if any_qr { Tiling::new(n, n, nb, nb) } else { Tiling::new(1, 1, nb, nb) };
    let mut wb0 = TiledMatrix::<S>::zeros(wt, ProcessGrid::single());
    let mut wb1 = TiledMatrix::<S>::zeros(wt, ProcessGrid::single());
    let mut qb0 = TiledMatrix::<S>::zeros(wt, ProcessGrid::single());
    let mut qb1 = TiledMatrix::<S>::zeros(wt, ProcessGrid::single());
    let mut gb0 = TiledMatrix::<S>::zeros(q2t, ProcessGrid::single());
    let mut gb1 = TiledMatrix::<S>::zeros(q2t, ProcessGrid::single());
    let mut tt0: Vec<TileT<S>> = if any_qr { t_slab(wt, top, ib) } else { vec![TileT::new(ib, 0)] };
    let mut tt1: Vec<TileT<S>> = if any_qr { t_slab(wt, top, ib) } else { vec![TileT::new(ib, 0)] };

    // Cholesky workspace.
    let zt = if any_chol { Tiling::new(n, n, nb, nb) } else { Tiling::new(1, 1, nb, nb) };
    let mut zb0 = TiledMatrix::<S>::zeros(zt, ProcessGrid::single());
    let mut zb1 = TiledMatrix::<S>::zeros(zt, ProcessGrid::single());
    let mut vb0 = TiledMatrix::<S>::zeros(xt, ProcessGrid::single());
    let mut vb1 = TiledMatrix::<S>::zeros(xt, ProcessGrid::single());

    // Convergence partials (one slot per (iteration, tile)) and the
    // per-iteration reduced norms.
    let mut cvbuf = vec![R::<S>::ZERO; iters * mtx * nt];
    let mut cobuf = vec![R::<S>::ZERO; iters];

    let failure: Mutex<Option<LapackError>> = Mutex::new(None);
    let outcome;
    {
        let xp = [TilePtr::new(&mut xb0), TilePtr::new(&mut xb1)];
        let wp = [TilePtr::new(&mut wb0), TilePtr::new(&mut wb1)];
        let qp = [TilePtr::new(&mut qb0), TilePtr::new(&mut qb1)];
        let gp = [TilePtr::new(&mut gb0), TilePtr::new(&mut gb1)];
        let zp = [TilePtr::new(&mut zb0), TilePtr::new(&mut zb1)];
        let vp = [TilePtr::new(&mut vb0), TilePtr::new(&mut vb1)];
        let tp = [SlotPtr::new(&mut tt0), SlotPtr::new(&mut tt1)];
        let cv = RealSlots::new(&mut cvbuf);
        let co = RealSlots::new(&mut cobuf);
        let fail = &failure;

        let mut dag = TaskDag::new();
        let mxs = [dag.new_matrix(), dag.new_matrix()];
        let mws = [dag.new_matrix(), dag.new_matrix()];
        let mqs = [dag.new_matrix(), dag.new_matrix()];
        let mgs = [dag.new_matrix(), dag.new_matrix()];
        let mzs = [dag.new_matrix(), dag.new_matrix()];
        let mvs = [dag.new_matrix(), dag.new_matrix()];
        let mts = [dag.new_matrix(), dag.new_matrix()];
        let mcv = dag.new_matrix();
        let mco = dag.new_matrix();
        let bytes = (nb * nb * std::mem::size_of::<S>()) as u64;
        let tile = |mid: u32, i: usize, j: usize| TileRef::new(mid, i, j, bytes);
        let nbf = nb as f64;

        for (k, pl) in plan.iter().enumerate() {
            if k > 0 {
                dag.next_phase();
            }
            let pr = k % 2; // parity of this iteration's inputs + workspace
            let po = (k + 1) % 2; // parity of the output iterate
            let (xin, xout) = (xp[pr], xp[po]);
            let (mxin, mxout) = (mxs[pr], mxs[po]);
            let cvbase = k * mtx * nt;
            let beta = pl.b / pl.c;

            if pl.qr {
                let sqrt_c = pl.c.sqrt();
                let theta = (pl.a - beta) / sqrt_c;
                let (w, q, g, ts) = (wp[pr], qp[pr], gp[pr], tp[pr]);
                let (mw, mq, mg, mt_) = (mws[pr], mqs[pr], mgs[pr], mts[pr]);

                // W = [sqrt(c) X; I] per tile; top rows of a straddling
                // tile coincide with the X tile of the same index.
                for j in 0..nt {
                    for wi in 0..mtw {
                        let reads = if wi < mtx { vec![tile(mxin, wi, j)] } else { Vec::new() };
                        dag.add(
                            KernelKind::Geadd,
                            2,
                            nbf * nbf,
                            reads,
                            vec![tile(mw, wi, j)],
                            move || {
                                let wt_tile = unsafe { w.tile(wi, j) };
                                let r0 = wi * nb;
                                let c0 = j * nb;
                                let sc = S::from_real(sqrt_c);
                                if r0 + wt_tile.nrows() <= m {
                                    // pure X tile
                                    let xt_tile = unsafe { xin.tile_ref(wi, j) };
                                    for c in 0..wt_tile.ncols() {
                                        for r in 0..wt_tile.nrows() {
                                            wt_tile[(r, c)] = sc * xt_tile[(r, c)];
                                        }
                                    }
                                } else {
                                    for c in 0..wt_tile.ncols() {
                                        for r in 0..wt_tile.nrows() {
                                            let gr = r0 + r;
                                            wt_tile[(r, c)] = if gr < m {
                                                let xt_tile = unsafe { xin.tile_ref(wi, j) };
                                                sc * xt_tile[(r, c)]
                                            } else if gr - m == c0 + c {
                                                S::ONE
                                            } else {
                                                S::ZERO
                                            };
                                        }
                                    }
                                }
                            },
                        );
                    }
                }

                // Tile QR of W: the geqrf_tiled task shape, with explicit
                // read/write sets so the builder chains it behind the
                // assembly and ahead of the Q sweep.
                for kk in 0..kt {
                    let step = (kt - kk) as i32 * 4;
                    dag.add(
                        KernelKind::Geqrt,
                        step + 2,
                        2.0 * nbf * nbf * nbf,
                        vec![],
                        vec![tile(mw, kk, kk), tile(mt_, kk, kk)],
                        move || {
                            let akk = unsafe { w.tile(kk, kk) };
                            geqrt_blocked_into(akk, unsafe { ts.slot(kk + kk * mtw) });
                        },
                    );
                    for j in kk + 1..nt {
                        let prio = step + i32::from(j == kk + 1);
                        dag.add(
                            KernelKind::Unmqr,
                            prio,
                            3.0 * nbf * nbf * nbf,
                            vec![tile(mw, kk, kk), tile(mt_, kk, kk)],
                            vec![tile(mw, kk, j)],
                            move || {
                                let v = unsafe { w.tile_ref(kk, kk) };
                                let t = unsafe { ts.slot_ref(kk + kk * mtw) };
                                let c = unsafe { w.tile(kk, j) };
                                unmqr_tile_blocked(Op::ConjTrans, v, t, c);
                            },
                        );
                    }
                    let lim = stacked_row_limit(wt, top, kk);
                    for i in kk + 1..=lim {
                        dag.add(
                            KernelKind::Tsqrt,
                            step + 2,
                            2.0 * nbf * nbf * nbf,
                            vec![],
                            vec![tile(mw, kk, kk), tile(mw, i, kk), tile(mt_, i, kk)],
                            move || {
                                let (r, b) = unsafe { (w.tile(kk, kk), w.tile(i, kk)) };
                                tsqrt_blocked_into(r, b, unsafe { ts.slot(i + kk * mtw) });
                            },
                        );
                        for j in kk + 1..nt {
                            let prio = step + i32::from(j == kk + 1);
                            dag.add(
                                KernelKind::Tsmqr,
                                prio,
                                4.0 * nbf * nbf * nbf,
                                vec![tile(mw, i, kk), tile(mt_, i, kk)],
                                vec![tile(mw, kk, j), tile(mw, i, j)],
                                move || {
                                    let v2 = unsafe { w.tile_ref(i, kk) };
                                    let t = unsafe { ts.slot_ref(i + kk * mtw) };
                                    let (a1, a2) = unsafe { (w.tile(kk, j), w.tile(i, j)) };
                                    tsmqr_blocked(Op::ConjTrans, v2, t, a1, a2);
                                },
                            );
                        }
                    }
                }

                // Q := thin identity, then the reverse orgqr sweep. The
                // init tasks reset the reused parity buffer each pass.
                for j in 0..nt {
                    for qi in 0..mtw {
                        dag.add(
                            KernelKind::Geadd,
                            2,
                            nbf * nbf,
                            vec![],
                            vec![tile(mq, qi, j)],
                            move || {
                                let t = unsafe { q.tile(qi, j) };
                                if qi == j {
                                    t.set_identity();
                                } else {
                                    t.fill(S::ZERO);
                                }
                            },
                        );
                    }
                }
                for kk in (0..kt).rev() {
                    let step = (kk + 1) as i32 * 4;
                    let lim = stacked_row_limit(wt, top, kk);
                    for i in (kk + 1..=lim).rev() {
                        for j in kk..nt {
                            dag.add(
                                KernelKind::Tsmqr,
                                step,
                                4.0 * nbf * nbf * nbf,
                                vec![tile(mw, i, kk), tile(mt_, i, kk)],
                                vec![tile(mq, kk, j), tile(mq, i, j)],
                                move || {
                                    let v2 = unsafe { w.tile_ref(i, kk) };
                                    let t = unsafe { ts.slot_ref(i + kk * mtw) };
                                    let (q1, q2) = unsafe { (q.tile(kk, j), q.tile(i, j)) };
                                    tsmqr_blocked(Op::NoTrans, v2, t, q1, q2);
                                },
                            );
                        }
                    }
                    for j in kk..nt {
                        dag.add(
                            KernelKind::Unmqr,
                            step + 1,
                            3.0 * nbf * nbf * nbf,
                            vec![tile(mw, kk, kk), tile(mt_, kk, kk)],
                            vec![tile(mq, kk, j)],
                            move || {
                                let v = unsafe { w.tile_ref(kk, kk) };
                                let t = unsafe { ts.slot_ref(kk + kk * mtw) };
                                let c = unsafe { q.tile(kk, j) };
                                unmqr_tile_blocked(Op::NoTrans, v, t, c);
                            },
                        );
                    }
                }

                // Gather Q2 (rows m..m+n of Q) into an n x n tiling: each
                // Q2 tile straddles at most two Q tile rows when m % nb != 0.
                for kc in 0..nt {
                    for tj in 0..nt {
                        let rows = q2t.tile_rows(tj);
                        let lo = (m + tj * nb) / nb;
                        let hi = (m + tj * nb + rows - 1) / nb;
                        let mut reads = vec![tile(mq, lo, kc)];
                        if hi != lo {
                            reads.push(tile(mq, hi, kc));
                        }
                        dag.add(
                            KernelKind::Geadd,
                            1,
                            nbf * nbf,
                            reads,
                            vec![tile(mg, tj, kc)],
                            move || {
                                let out = unsafe { g.tile(tj, kc) };
                                for c in 0..out.ncols() {
                                    for r in 0..out.nrows() {
                                        let gr = m + tj * nb + r;
                                        let qi = gr / nb;
                                        let src = unsafe { q.tile_ref(qi, kc) };
                                        out[(r, c)] = src[(gr - qi * nb, c)];
                                    }
                                }
                            },
                        );
                    }
                }

                // X_out = beta X_in + theta Q1 Q2^H, fused with the
                // convergence partial |X_out - X_in|_F^2 for this tile.
                for tj in 0..nt {
                    for ti in 0..mtx {
                        let mut reads = vec![tile(mxin, ti, tj)];
                        for kc in 0..nt {
                            reads.push(tile(mq, ti, kc));
                            reads.push(tile(mg, tj, kc));
                        }
                        dag.add(
                            KernelKind::Gemm,
                            0,
                            2.0 * nbf * nbf * nbf * nt as f64,
                            reads,
                            vec![tile(mxout, ti, tj), tile(mcv, cvbase / nt + ti, tj)],
                            move || {
                                let xi = unsafe { xin.tile_ref(ti, tj) };
                                let xo = unsafe { xout.tile(ti, tj) };
                                let (xr, xc) = (xi.nrows(), xi.ncols());
                                let b = S::from_real(beta);
                                for c in 0..xc {
                                    for r in 0..xr {
                                        xo[(r, c)] = b * xi[(r, c)];
                                    }
                                }
                                let th = S::from_real(theta);
                                for kc in 0..nt {
                                    let q1 = unsafe { q.tile_ref(ti, kc) };
                                    let q2 = unsafe { g.tile_ref(tj, kc) };
                                    gemm(
                                        Op::NoTrans,
                                        Op::ConjTrans,
                                        th,
                                        q1.view(0, 0, xr, q1.ncols()),
                                        q2.as_ref(),
                                        S::ONE,
                                        xo.as_mut(),
                                    );
                                }
                                let mut acc = R::<S>::ZERO;
                                for c in 0..xc {
                                    for r in 0..xr {
                                        acc += (xo[(r, c)] - xi[(r, c)]).abs_sq();
                                    }
                                }
                                unsafe { cv.set(cvbase + ti + tj * mtx, acc) };
                            },
                        );
                    }
                }
            } else {
                // ---- Cholesky-based iteration ----
                let theta = pl.a - beta;
                let c_r = pl.c;
                let (z, v) = (zp[pr], vp[pr]);
                let (mz, mv) = (mzs[pr], mvs[pr]);

                // Z = I + c X^H X, lower tiles only (herk on the diagonal).
                for zj in 0..nt {
                    for zi in zj..nt {
                        let mut reads = Vec::with_capacity(2 * mtx);
                        for l in 0..mtx {
                            reads.push(tile(mxin, l, zi));
                            if zi != zj {
                                reads.push(tile(mxin, l, zj));
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
                            vec![tile(mz, zi, zj)],
                            move || {
                                let zt_tile = unsafe { z.tile(zi, zj) };
                                if zi == zj {
                                    zt_tile.set_identity();
                                    for l in 0..mtx {
                                        let xl = unsafe { xin.tile_ref(l, zi) };
                                        herk(
                                            Uplo::Lower,
                                            Op::ConjTrans,
                                            c_r,
                                            xl.as_ref(),
                                            R::<S>::ONE,
                                            zt_tile.as_mut(),
                                        );
                                    }
                                } else {
                                    zt_tile.fill(S::ZERO);
                                    let cc = S::from_real(c_r);
                                    for l in 0..mtx {
                                        let xi_t = unsafe { xin.tile_ref(l, zi) };
                                        let xj_t = unsafe { xin.tile_ref(l, zj) };
                                        gemm(
                                            Op::ConjTrans,
                                            Op::NoTrans,
                                            cc,
                                            xi_t.as_ref(),
                                            xj_t.as_ref(),
                                            S::ONE,
                                            zt_tile.as_mut(),
                                        );
                                    }
                                }
                            },
                        );
                    }
                }

                // Tiled Cholesky of Z (potrf_tiled task shape, in-DAG).
                // Indefiniteness cancels the whole solve — an error aborts
                // every later iteration too.
                for kk in 0..nt {
                    let step = (nt - kk) as i32 * 4;
                    dag.add_task(
                        KernelKind::Potrf,
                        step + 3,
                        nbf * nbf * nbf / 3.0,
                        vec![],
                        vec![tile(mz, kk, kk)],
                        move || {
                            let akk = unsafe { z.tile(kk, kk) };
                            match potrf(Uplo::Lower, akk) {
                                Ok(()) => TaskStatus::Continue,
                                Err(LapackError::NotPositiveDefinite(off)) => {
                                    *fail.lock().unwrap() =
                                        Some(LapackError::NotPositiveDefinite(kk * nb + off));
                                    TaskStatus::Cancel
                                }
                                Err(e) => {
                                    *fail.lock().unwrap() = Some(e);
                                    TaskStatus::Cancel
                                }
                            }
                        },
                    );
                    for i in kk + 1..nt {
                        dag.add(
                            KernelKind::Trsm,
                            step + 2,
                            nbf * nbf * nbf,
                            vec![tile(mz, kk, kk)],
                            vec![tile(mz, i, kk)],
                            move || {
                                let (akk, aik) = unsafe { (z.tile_ref(kk, kk), z.tile(i, kk)) };
                                trsm(
                                    Side::Right,
                                    Uplo::Lower,
                                    Op::ConjTrans,
                                    Diag::NonUnit,
                                    S::ONE,
                                    akk.as_ref(),
                                    aik.as_mut(),
                                );
                            },
                        );
                    }
                    for i in kk + 1..nt {
                        let prio = step + i32::from(i == kk + 1);
                        dag.add(
                            KernelKind::Herk,
                            prio,
                            nbf * nbf * nbf,
                            vec![tile(mz, i, kk)],
                            vec![tile(mz, i, i)],
                            move || {
                                let (aik, aii) = unsafe { (z.tile_ref(i, kk), z.tile(i, i)) };
                                herk(
                                    Uplo::Lower,
                                    Op::NoTrans,
                                    -R::<S>::ONE,
                                    aik.as_ref(),
                                    R::<S>::ONE,
                                    aii.as_mut(),
                                );
                            },
                        );
                        for j in kk + 1..i {
                            let prio = step + i32::from(j == kk + 1);
                            dag.add(
                                KernelKind::Gemm,
                                prio,
                                2.0 * nbf * nbf * nbf,
                                vec![tile(mz, i, kk), tile(mz, j, kk)],
                                vec![tile(mz, i, j)],
                                move || {
                                    let a = unsafe { z.tile_ref(i, kk) };
                                    let b = unsafe { z.tile_ref(j, kk) };
                                    let aij = unsafe { z.tile(i, j) };
                                    gemm(
                                        Op::NoTrans,
                                        Op::ConjTrans,
                                        -S::ONE,
                                        a.as_ref(),
                                        b.as_ref(),
                                        S::ONE,
                                        aij.as_mut(),
                                    );
                                },
                            );
                        }
                    }
                }

                // Forward solve V L^H = X_in (per tile: subtract the
                // already-solved columns, then a small right trsm).
                for tj in 0..nt {
                    for ti in 0..mtx {
                        let mut reads = vec![tile(mxin, ti, tj)];
                        for l in 0..tj {
                            reads.push(tile(mv, ti, l));
                            reads.push(tile(mz, tj, l));
                        }
                        reads.push(tile(mz, tj, tj));
                        dag.add(
                            KernelKind::Trsm,
                            2,
                            (2.0 * tj as f64 + 1.0) * nbf * nbf * nbf,
                            reads,
                            vec![tile(mv, ti, tj)],
                            move || {
                                let vt = unsafe { v.tile(ti, tj) };
                                vt.copy_from(unsafe { xin.tile_ref(ti, tj) });
                                for l in 0..tj {
                                    let vl = unsafe { v.tile_ref(ti, l) };
                                    let zl = unsafe { z.tile_ref(tj, l) };
                                    gemm(
                                        Op::NoTrans,
                                        Op::ConjTrans,
                                        -S::ONE,
                                        vl.as_ref(),
                                        zl.as_ref(),
                                        S::ONE,
                                        vt.as_mut(),
                                    );
                                }
                                let zd = unsafe { z.tile_ref(tj, tj) };
                                trsm(
                                    Side::Right,
                                    Uplo::Lower,
                                    Op::ConjTrans,
                                    Diag::NonUnit,
                                    S::ONE,
                                    zd.as_ref(),
                                    vt.as_mut(),
                                );
                            },
                        );
                    }
                }

                // Backward solve C L = V, in place in V (emitted in
                // descending tj so the RAW edges bind to the solved C
                // tiles, and the in-place WAW chains behind the forward
                // solve of the same tile).
                for tj in (0..nt).rev() {
                    for ti in 0..mtx {
                        let mut reads = Vec::with_capacity(2 * (nt - tj));
                        for l in tj + 1..nt {
                            reads.push(tile(mv, ti, l));
                            reads.push(tile(mz, l, tj));
                        }
                        reads.push(tile(mz, tj, tj));
                        dag.add(
                            KernelKind::Trsm,
                            2,
                            (2.0 * (nt - tj - 1) as f64 + 1.0) * nbf * nbf * nbf,
                            reads,
                            vec![tile(mv, ti, tj)],
                            move || {
                                let vt = unsafe { v.tile(ti, tj) };
                                for l in tj + 1..nt {
                                    let cl = unsafe { v.tile_ref(ti, l) };
                                    let zl = unsafe { z.tile_ref(l, tj) };
                                    gemm(
                                        Op::NoTrans,
                                        Op::NoTrans,
                                        -S::ONE,
                                        cl.as_ref(),
                                        zl.as_ref(),
                                        S::ONE,
                                        vt.as_mut(),
                                    );
                                }
                                let zd = unsafe { z.tile_ref(tj, tj) };
                                trsm(
                                    Side::Right,
                                    Uplo::Lower,
                                    Op::NoTrans,
                                    Diag::NonUnit,
                                    S::ONE,
                                    zd.as_ref(),
                                    vt.as_mut(),
                                );
                            },
                        );
                    }
                }

                // X_out = beta X_in + theta (X Z^{-1}), fused with the
                // convergence partial.
                for tj in 0..nt {
                    for ti in 0..mtx {
                        dag.add(
                            KernelKind::Geadd,
                            0,
                            nbf * nbf,
                            vec![tile(mxin, ti, tj), tile(mv, ti, tj)],
                            vec![tile(mxout, ti, tj), tile(mcv, cvbase / nt + ti, tj)],
                            move || {
                                let xi = unsafe { xin.tile_ref(ti, tj) };
                                let vt = unsafe { v.tile_ref(ti, tj) };
                                let xo = unsafe { xout.tile(ti, tj) };
                                let b = S::from_real(beta);
                                let th = S::from_real(theta);
                                let mut acc = R::<S>::ZERO;
                                for c in 0..xi.ncols() {
                                    for r in 0..xi.nrows() {
                                        let next = b * xi[(r, c)] + th * vt[(r, c)];
                                        xo[(r, c)] = next;
                                        acc += (next - xi[(r, c)]).abs_sq();
                                    }
                                }
                                unsafe { cv.set(cvbase + ti + tj * mtx, acc) };
                            },
                        );
                    }
                }
            }

            // Fixed-order convergence reduction — a sink: nothing in
            // iteration k+1 depends on it, so the next iteration's panel
            // work overlaps this one's tail.
            let mut reads = Vec::with_capacity(mtx * nt);
            for tj in 0..nt {
                for ti in 0..mtx {
                    reads.push(tile(mcv, cvbase / nt + ti, tj));
                }
            }
            dag.add(
                KernelKind::Norm,
                -1,
                (mtx * nt) as f64,
                reads,
                vec![tile(mco, k, 0)],
                move || {
                    let mut s = R::<S>::ZERO;
                    for tj in 0..nt {
                        for ti in 0..mtx {
                            s += unsafe { cv.get(cvbase + ti + tj * mtx) };
                        }
                    }
                    unsafe { co.set(k, s.sqrt()) };
                },
            );
        }
        outcome = dag.execute();
    }

    if outcome == ExecOutcome::Cancelled {
        let e = failure.lock().unwrap().take().unwrap_or(LapackError::NotPositiveDefinite(0));
        return Err(QdwhError::Lapack(e));
    }

    // Bookkeeping: per-iteration records with flop-share-amortized wall
    // time (iterations overlapped, so per-step timing is not observable);
    // the kernel-counter delta for the whole DAG lands on the last record.
    let total_secs = start.elapsed().as_secs_f64();
    let delta = polar_obs::kernel_snapshot().delta(&kernels_before);
    let weights: Vec<f64> =
        plan.iter().map(|p| if p.qr { 26.0 / 3.0 } else { 13.0 / 3.0 }).collect();
    let wsum: f64 = weights.iter().sum();
    for (k, pl) in plan.iter().enumerate() {
        let conv_k = cobuf[k];
        if !conv_k.to_f64().is_finite() {
            return Err(QdwhError::NonFinite { iteration: info.iterations + 1 });
        }
        info.iterations += 1;
        let kind = if pl.qr { IterationKind::QrBased } else { IterationKind::CholeskyBased };
        if pl.qr {
            info.qr_iterations += 1;
        } else {
            info.chol_iterations += 1;
        }
        info.kinds.push(kind);
        let record = IterationRecord {
            iteration: info.iterations,
            kind,
            ell: pl.ell_after,
            convergence: conv_k,
            seconds: total_secs * weights[k] / wsum,
            kernels: if k + 1 == iters { delta } else { polar_obs::KernelSnapshot::default() },
        };
        polar_obs::log!(
            polar_obs::LogLevel::Debug,
            "qdwh fused iter {} {:?}: conv={:e} ell={:e}",
            record.iteration,
            record.kind,
            record.convergence.to_f64(),
            record.ell.to_f64()
        );
        info.records.push(record);
    }

    *x = if iters % 2 == 0 { xb0.to_dense() } else { xb1.to_dense() };
    *ell = plan[iters - 1].ell_after;
    *conv = cobuf[iters - 1];
    Ok(())
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

    /// Bulk-synchronous tiled run (fusion disabled via a no-op progress
    /// hook): identical kernels to the fused DAG, one factorization per
    /// step. The tightest possible reference — the fused result must agree
    /// elementwise. The flat path uses a different QR algorithm (blocked
    /// Householder vs tile TS-QR), whose rounding differences get
    /// amplified by `kappa(W) ~ sqrt(c)` on ill-conditioned inputs, so
    /// against flat we assert plan parity, orthogonality, and backward
    /// error instead of elementwise closeness.
    fn bulk_tiled_opts() -> QdwhOptions {
        QdwhOptions {
            progress: Some(std::sync::Arc::new(|_: &crate::options::IterationProgress| {
                crate::options::IterationDecision::Continue
            })),
            ..fused_opts()
        }
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

    fn parity_case<S: Scalar>(a: &Matrix<S>, tol: f64) {
        let fused = qdwh(a, &fused_opts()).expect("fused converged");
        let bulk = qdwh(a, &bulk_tiled_opts()).expect("bulk tiled converged");
        let flat = qdwh(a, &flat_opts()).expect("flat converged");
        assert_eq!(fused.info.kinds, bulk.info.kinds, "fused vs bulk plans diverged");
        assert_eq!(fused.info.kinds, flat.info.kinds, "fused vs flat plans diverged");
        let worst = worst_diff(&fused.u, &bulk.u);
        assert!(worst <= tol, "fused vs bulk-tiled U mismatch: {worst:e} > {tol:e}");
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

    /// Cholesky-only runs use identical kernels on both the fused and the
    /// flat path (herk/potrf/trsm on full matrices vs tiles sum in the
    /// same order per entry only at tile granularity), so flat parity is
    /// tight there — a sharper check than the QR case allows.
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
        // viable.
        let spec = MatrixSpec {
            m: 24,
            n: 24,
            cond: 1e3,
            distribution: SigmaDistribution::Geometric,
            seed: 15,
        };
        let (a, _) = generate::<f64>(&spec);
        for path in [IterationPath::ForceQr, IterationPath::ForceCholesky] {
            let fused = QdwhOptions { path, ..fused_opts() };
            let bulk = QdwhOptions { path, ..bulk_tiled_opts() };
            let pf = qdwh(&a, &fused).expect("fused");
            let pb = qdwh(&a, &bulk).expect("bulk tiled");
            assert_eq!(pf.info.kinds, pb.info.kinds);
            let worst = worst_diff(&pf.u, &pb.u);
            assert!(worst <= 1e-10, "path {path:?}: {worst:e}");
        }
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
