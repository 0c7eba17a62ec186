//! PLASMA/SLATE-style tile QR kernels: `geqrt`, `tsqrt`, `tsmqr`.
//!
//! SLATE's distributed `geqrf` factors a tiled matrix with exactly these
//! four operations per panel step `k`, each with inner blocking `ib`:
//!
//! 1. [`geqrt_blocked`] — QR of the diagonal tile (PLASMA `GEQRT`): `R` in
//!    the upper triangle, reflector tails below, the compact WY factors
//!    (`Q = I - V T V^H` per panel) in a [`TileT`];
//! 2. [`unmqr_tile_blocked`] — apply the diagonal tile's `Q^H` to the
//!    tiles right of it (`UNMQR`);
//! 3. [`tsqrt_blocked`] — "triangle-on-square" QR (`TSQRT`, LAPACK `tpqrt`
//!    with `L = 0`): annihilate a dense sub-diagonal tile `B` against the
//!    current `R` tile; `B` then holds the dense part `V2` of the
//!    reflectors;
//! 4. [`tsmqr_blocked`] — apply a `tsqrt` reflector block to a row pair of
//!    trailing tiles (`TSMQR`): `[A1; A2] := op(Q) [A1; A2]`.
//!
//! The structured reflectors of `tsqrt` have the form `V = [I; V2]`
//! (identity over the `R` tile, dense `V2` over the annihilated tile),
//! which is what makes the update `O(nb^3)` per tile pair. One panel as
//! wide as the tile (`ib >= nb`) is the unblocked kernel, its single `T`
//! block the full factor. `tiled.rs` emits the task graphs over them.

use crate::householder::larfg;
use crate::qr::{extract_v, geqr2_scratch, larfb_left, larft};
use polar_blas::{axpy, dotc, gemm, trmm};
use polar_matrix::{Diag, Matrix, Op, Side, Uplo};
use polar_scalar::Scalar;

/// Per-panel compact `T` factors of a blocked tile factorization, PLASMA's
/// `ib x nb` T-tile layout: block `b` of width `jb <= ib` stores its upper
/// triangular `T_b` in `t[0..jb, b*ib..b*ib+jb]`.
///
/// Compared to a single full `T`, the per-panel representation keeps the
/// scalar (non-level-3) work proportional to `ib` rather than `nb`:
/// applying the factor block-by-block turns everything outside the
/// `ib`-wide panels into `gemm`/`trmm`.
#[derive(Debug, Clone)]
pub struct TileT<S: Scalar> {
    /// `ib x k` matrix of stacked per-panel `T` blocks.
    pub t: Matrix<S>,
    /// Inner blocking factor the tile was factored with.
    pub ib: usize,
    /// The tile a `tsqrt` annihilates is upper triangular (LAPACK `tpqrt`
    /// with `l = n`, PLASMA `ttqrt`): its `V2` stays so, and the panel of
    /// columns `j..j + jb` reaches rows `0..j + jb` only. [`tsqrt_blocked_into`]
    /// and [`tsmqr_blocked`] then leave the rows below — exact zeros — out of
    /// every product, which changes no result.
    pub upper_v2: bool,
}

impl<S: Scalar> TileT<S> {
    /// Zero-initialized storage for `k` reflectors with inner blocking
    /// `ib`, ready for [`geqrt_blocked_into`] / [`tsqrt_blocked_into`].
    /// Preallocating the whole T store of a factorization as a slab keeps
    /// `malloc` out of the task bodies (and off the executor's hot path).
    pub fn new(ib: usize, k: usize) -> Self {
        let ib = ib.max(1);
        Self { t: Matrix::zeros(ib, k), ib, upper_v2: false }
    }

    /// Rows of a `tsqrt` tile of `m2` rows that the panel ending before
    /// column `end` reaches (see [`TileT::upper_v2`]).
    fn v2_rows(&self, end: usize, m2: usize) -> usize {
        if self.upper_v2 {
            end.min(m2)
        } else {
            m2
        }
    }

    /// Number of reflectors covered.
    pub fn k(&self) -> usize {
        self.t.ncols()
    }

    fn block_range(&self, b: usize) -> (usize, usize) {
        let j = b * self.ib;
        (j, self.ib.min(self.k() - j))
    }

    fn nblocks(&self) -> usize {
        self.k().div_ceil(self.ib)
    }
}

/// Panel indices in application order: `Q = Q_0 Q_1 ... Q_last`, so `Q^H`
/// applies the panels forward and `Q` in reverse.
fn block_order(op: Op, nblocks: usize) -> impl Iterator<Item = usize> {
    (0..nblocks).map(move |s| if op == Op::NoTrans { nblocks - 1 - s } else { s })
}

/// PLASMA `GEQRT` with inner blocking `ib`: QR of a single tile where only
/// `ib`-wide panels run scalar reflector code and every trailing update is
/// a level-3 `larfb`.
///
/// The packed reflector/R output in `a` is bit-identical to
/// [`crate::geqrf_blocked`] with the same `ib` (same panel code path).
pub fn geqrt_blocked<S: Scalar>(a: &mut Matrix<S>, ib: usize) -> TileT<S> {
    let mut tt = TileT::new(ib, a.nrows().min(a.ncols()));
    geqrt_blocked_into(a, &mut tt);
    tt
}

/// [`geqrt_blocked`] writing into preallocated `T` storage (see
/// [`TileT::new`]); `tt` supplies the inner blocking factor.
pub fn geqrt_blocked_into<S: Scalar>(a: &mut Matrix<S>, tt: &mut TileT<S>) {
    let m = a.nrows();
    let n = a.ncols();
    let k = m.min(n);
    let ib = tt.ib;
    assert_eq!(tt.k(), k, "geqrt_blocked_into: T storage sized for a different tile");
    tt.t.fill(S::ZERO);
    let mut tau = vec![S::ZERO; k];
    let mut scratch = Vec::with_capacity(m);
    let mut j = 0;
    while j < k {
        let jb = ib.min(k - j);
        geqr2_scratch(a.view_mut(j, j, m - j, jb), &mut tau[j..j + jb], &mut scratch);
        let v = extract_v(a.view(j, j, m - j, jb));
        let t = larft(v.as_ref(), &tau[j..j + jb]);
        if j + jb < n {
            let trailing = a.view_mut(j, j + jb, m - j, n - j - jb);
            larfb_left(Op::ConjTrans, v.as_ref(), t.as_ref(), trailing);
        }
        for c in 0..jb {
            for r in 0..=c {
                tt.t[(r, j + c)] = t[(r, c)];
            }
        }
        j += jb;
    }
}

/// Apply `op(Q)` from a [`geqrt_blocked`] factor to a tile `c` (PLASMA
/// `UNMQR` with inner blocking): `C := op(Q) C`, block reflectors applied
/// per `ib`-panel.
pub fn unmqr_tile_blocked<S: Scalar>(
    op: Op,
    v_packed: &Matrix<S>,
    tt: &TileT<S>,
    c: &mut Matrix<S>,
) {
    let m = v_packed.nrows();
    assert_eq!(m, c.nrows(), "unmqr_tile_blocked: row mismatch");
    for b in block_order(op, tt.nblocks()) {
        let (j, jb) = tt.block_range(b);
        let v = extract_v(v_packed.view(j, j, m - j, jb));
        let t = tt.t.view(0, j, jb, jb);
        let csub = c.view_mut(j, 0, m - j, c.ncols());
        larfb_left(op, v.as_ref(), t, csub);
    }
}

/// PLASMA `TSQRT` with inner blocking `ib`: factor the stacked `[R; B]`
/// (`R` the upper triangle of the top tile) so that scalar reflector
/// generation touches only the current `ib`-wide panel; the trailing
/// columns of both `R` and `B` are updated with the panel's compact block
/// reflector through `gemm`/`trmm`.
pub fn tsqrt_blocked<S: Scalar>(r: &mut Matrix<S>, b: &mut Matrix<S>, ib: usize) -> TileT<S> {
    let mut tt = TileT::new(ib, r.ncols().min(r.nrows()));
    tsqrt_blocked_into(r, b, &mut tt);
    tt
}

/// [`tsqrt_blocked`] writing into preallocated `T` storage (see
/// [`TileT::new`]); `tt` supplies the inner blocking factor.
pub fn tsqrt_blocked_into<S: Scalar>(r: &mut Matrix<S>, b: &mut Matrix<S>, tt_out: &mut TileT<S>) {
    let kb = r.ncols().min(r.nrows());
    let ncols = r.ncols();
    assert_eq!(b.ncols(), ncols, "tsqrt_blocked: column mismatch");
    let m2 = b.nrows();
    let ib = tt_out.ib;
    assert_eq!(tt_out.k(), kb, "tsqrt_blocked_into: T storage sized for a different tile");
    tt_out.t.fill(S::ZERO);
    debug_assert!(
        !tt_out.upper_v2 || (0..ncols).all(|c| b.col(c).iter().skip(c + 1).all(|&x| x == S::ZERO)),
        "tsqrt_blocked_into: tile marked upper triangular is not"
    );
    let mut tau = vec![S::ZERO; kb];
    // one W scratch for the whole call, reused across ib-panels
    let mut wbuf = Matrix::<S>::zeros(ib.min(kb), ncols);

    let mut j = 0;
    while j < kb {
        let jb = ib.min(kb - j);
        let rows = tt_out.v2_rows(j + jb, m2);
        let tt = &mut tt_out.t;
        // --- panel: reflectors of columns j..j+jb, level-1 over columns --
        for c in j..j + jb {
            let refl = larfg(r[(c, c)], &mut b.col_mut(c)[..rows]);
            r[(c, c)] = S::from_real(refl.beta);
            tau[c] = refl.tau;
            let (vs, mut right) = b.as_mut().submatrix(0, 0, rows, ncols).split_at_col(c + 1);
            let vs = vs.as_ref();
            let vc = vs.col(c);
            if refl.tau != S::ZERO {
                // apply H^H within the panel only
                let tc = refl.tau.conj();
                for kcol in c + 1..j + jb {
                    let bk = right.col_mut(kcol - c - 1);
                    let f = tc * (r[(c, kcol)] + dotc(vc, bk));
                    r[(c, kcol)] -= f;
                    axpy(-f, vc, bk);
                }
            }
            // panel-local T column, T(.., c) = -tau_c T (V^H v_c): the
            // identity tops of V are orthogonal between columns, so
            // V_l^H v_c = V2_l^H v2_c
            let (done, mut cur) = tt.as_mut().split_at_col(c);
            let tcol = cur.col_mut(0);
            for l in 0..c - j {
                let f = -tau[c] * dotc(vs.col(j + l), vc);
                axpy(f, &done.as_ref().col(j + l)[..=l], &mut tcol[..=l]);
            }
            tcol[c - j] = tau[c];
        }
        // --- blocked trailing update: C := (I - V T^H V^H) C ------------
        // with V = [e_j..e_{j+jb}; V2_panel] over [R; B] columns j+jb..
        if j + jb < ncols {
            let rest = ncols - (j + jb);
            let (pan, mut btrail) = b.as_mut().submatrix(0, 0, rows, ncols).split_at_col(j + jb);
            let v2p = pan.as_ref().submatrix(0, j, rows, jb);
            // W = R[j..j+jb, rest] + V2p^H B[:, rest]
            let mut w = wbuf.view_mut(0, 0, jb, rest);
            for col in 0..rest {
                w.col_mut(col).copy_from_slice(&r.col(j + jb + col)[j..j + jb]);
            }
            gemm(Op::ConjTrans, Op::NoTrans, S::ONE, v2p, btrail.as_ref(), S::ONE, w.rb());
            trmm(
                Side::Left,
                Uplo::Upper,
                Op::ConjTrans,
                Diag::NonUnit,
                S::ONE,
                tt.view(0, j, jb, jb),
                w.rb(),
            );
            for col in 0..rest {
                axpy(-S::ONE, w.as_ref().col(col), &mut r.col_mut(j + jb + col)[j..j + jb]);
            }
            gemm(Op::NoTrans, Op::NoTrans, -S::ONE, v2p, w.as_ref(), S::ONE, btrail.rb());
        }
        j += jb;
    }
}

/// Apply a [`tsqrt_blocked`] reflector block to a tile row pair (PLASMA
/// `TSMQR` with inner blocking): per `ib`-panel `W = A1_panel + V2_b^H A2;
/// W := op(T_b) W; A1_panel -= W; A2 -= V2_b W` — all level-3.
pub fn tsmqr_blocked<S: Scalar>(
    op: Op,
    v2: &Matrix<S>,
    tt: &TileT<S>,
    a1: &mut Matrix<S>,
    a2: &mut Matrix<S>,
) {
    let (t, ib) = (tt.t.as_ref(), tt.ib);
    let kb = t.ncols();
    let n = a1.ncols();
    let m2 = a2.nrows();
    assert_eq!(a2.ncols(), n, "tsmqr: column mismatch");
    assert_eq!(v2.nrows(), m2, "tsmqr: V2/A2 row mismatch");
    assert_eq!(v2.ncols(), kb, "tsmqr: V2/T mismatch");
    assert!(a1.nrows() >= kb, "tsmqr: A1 too short");
    let t_op = if op == Op::NoTrans { Op::NoTrans } else { Op::ConjTrans };
    // one W scratch for the whole call, reused across ib-panels (the
    // per-panel `submatrix_owned` allocations used to dominate the task
    // executor's per-task overhead at fine tile sizes)
    let mut wbuf = Matrix::<S>::zeros(ib.min(kb), n);
    for bblk in block_order(op, kb.div_ceil(ib)) {
        let (j, jb) = (bblk * ib, ib.min(kb - bblk * ib));
        let rows = tt.v2_rows(j + jb, m2);
        let v2b = v2.view(0, j, rows, jb);
        let mut w = wbuf.view_mut(0, 0, jb, n);
        for col in 0..n {
            w.col_mut(col).copy_from_slice(&a1.col(col)[j..j + jb]);
        }
        gemm(Op::ConjTrans, Op::NoTrans, S::ONE, v2b, a2.view(0, 0, rows, n), S::ONE, w.rb());
        trmm(
            Side::Left,
            Uplo::Upper,
            t_op,
            Diag::NonUnit,
            S::ONE,
            t.submatrix(0, j, jb, jb),
            w.rb(),
        );
        for col in 0..n {
            axpy(-S::ONE, w.as_ref().col(col), &mut a1.col_mut(col)[j..j + jb]);
        }
        gemm(
            Op::NoTrans,
            Op::NoTrans,
            -S::ONE,
            v2b,
            w.as_ref(),
            S::ONE,
            a2.view_mut(0, 0, rows, n),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_blas::{add, norm};
    use polar_matrix::Norm;
    use polar_scalar::Complex64;

    /// The unblocked kernels the blocked ones are checked against: one
    /// panel as wide as the tile, whose `T` block is the full `k x k` factor.
    fn geqrt<S: Scalar>(a: &mut Matrix<S>) -> TileT<S> {
        let k = a.nrows().min(a.ncols());
        geqrt_blocked(a, k)
    }

    fn tsqrt<S: Scalar>(r: &mut Matrix<S>, b: &mut Matrix<S>) -> TileT<S> {
        let k = r.ncols().min(r.nrows());
        tsqrt_blocked(r, b, k)
    }

    fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix<f64> {
        let mut s = seed | 1;
        Matrix::from_fn(m, n, |_, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn geqrt_reconstructs() {
        let a0 = rand_mat(8, 8, 1);
        let mut a = a0.clone();
        let t = geqrt(&mut a);
        // Q = I - V T V^H applied to R-padded should give A back:
        // equivalently, unmqr_tile_blocked(NoTrans) on [R; 0]
        let mut r = Matrix::<f64>::zeros(8, 8);
        for j in 0..8 {
            for i in 0..=j {
                r[(i, j)] = a[(i, j)];
            }
        }
        unmqr_tile_blocked(Op::NoTrans, &a, &t, &mut r);
        let mut diff = r;
        add(-1.0, a0.as_ref(), 1.0, diff.as_mut());
        let err: f64 = norm(Norm::Fro, diff.as_ref());
        assert!(err < 1e-12, "||QR - A|| = {err}");
    }

    #[test]
    fn tsqrt_annihilates_and_reconstructs() {
        // factor [R0; B0] with tsqrt and verify the implied Q: applying
        // Q^H to the original stack must yield [R_new; 0]
        let nb = 6;
        let m2 = 9;
        let a_top0 = {
            let mut a = rand_mat(nb, nb, 2);
            let t = geqrt(&mut a); // make a proper upper-triangular R
            let _ = t;
            Matrix::from_fn(nb, nb, |i, j| if i <= j { a[(i, j)] } else { 0.0 })
        };
        let b0 = rand_mat(m2, nb, 3);

        let mut r = a_top0.clone();
        let mut b = b0.clone();
        let t = tsqrt(&mut r, &mut b);

        // build Q explicitly from V = [I; V2], T: Q = I - V T V^H
        let mtot = nb + m2;
        let mut v = Matrix::<f64>::zeros(mtot, nb);
        for j in 0..nb {
            v[(j, j)] = 1.0;
            for i in 0..m2 {
                v[(nb + i, j)] = b[(i, j)];
            }
        }
        let mut q = Matrix::<f64>::identity(mtot, mtot);
        // Q = I - V T V^H
        let mut vt = Matrix::<f64>::zeros(mtot, nb);
        gemm(Op::NoTrans, Op::NoTrans, 1.0, v.as_ref(), t.t.as_ref(), 0.0, vt.as_mut());
        gemm(Op::NoTrans, Op::ConjTrans, -1.0, vt.as_ref(), v.as_ref(), 1.0, q.as_mut());

        // Q must be orthogonal
        let mut qtq = Matrix::<f64>::zeros(mtot, mtot);
        gemm(Op::ConjTrans, Op::NoTrans, 1.0, q.as_ref(), q.as_ref(), 0.0, qtq.as_mut());
        for j in 0..mtot {
            for i in 0..mtot {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((qtq[(i, j)] - expect).abs() < 1e-12, "Q not orthogonal");
            }
        }

        // Q [R_new; 0] == [R0; B0]
        let mut rn = Matrix::<f64>::zeros(mtot, nb);
        for j in 0..nb {
            for i in 0..=j {
                rn[(i, j)] = r[(i, j)];
            }
        }
        let mut recon = Matrix::<f64>::zeros(mtot, nb);
        gemm(Op::NoTrans, Op::NoTrans, 1.0, q.as_ref(), rn.as_ref(), 0.0, recon.as_mut());
        for j in 0..nb {
            for i in 0..nb {
                let expect = a_top0[(i, j)];
                assert!((recon[(i, j)] - expect).abs() < 1e-11, "top ({i},{j})");
            }
            for i in 0..m2 {
                assert!((recon[(nb + i, j)] - b0[(i, j)]).abs() < 1e-11, "bottom ({i},{j})");
            }
        }
    }

    #[test]
    fn tsmqr_matches_explicit_q() {
        let nb = 5;
        let m2 = 7;
        let n = 4;
        // build a tsqrt factorization
        let mut r =
            Matrix::from_fn(
                nb,
                nb,
                |i, j| {
                    if i <= j {
                        1.0 + (i * 3 + j) as f64 * 0.1
                    } else {
                        0.0
                    }
                },
            );
        let mut b = rand_mat(m2, nb, 4);
        let v2_before = b.clone();
        let _ = v2_before;
        let t = tsqrt(&mut r, &mut b);

        // pair of tiles to update
        let a1_0 = rand_mat(nb, n, 5);
        let a2_0 = rand_mat(m2, n, 6);
        let mut a1 = a1_0.clone();
        let mut a2 = a2_0.clone();
        tsmqr_blocked(Op::ConjTrans, &b, &t, &mut a1, &mut a2);

        // explicit Q^H [A1; A2]
        let mtot = nb + m2;
        let mut v = Matrix::<f64>::zeros(mtot, nb);
        for j in 0..nb {
            v[(j, j)] = 1.0;
            for i in 0..m2 {
                v[(nb + i, j)] = b[(i, j)];
            }
        }
        let mut q = Matrix::<f64>::identity(mtot, mtot);
        let mut vt = Matrix::<f64>::zeros(mtot, nb);
        gemm(Op::NoTrans, Op::NoTrans, 1.0, v.as_ref(), t.t.as_ref(), 0.0, vt.as_mut());
        gemm(Op::NoTrans, Op::ConjTrans, -1.0, vt.as_ref(), v.as_ref(), 1.0, q.as_mut());
        let stacked = Matrix::vstack(&a1_0, &a2_0);
        let mut expect = Matrix::<f64>::zeros(mtot, n);
        gemm(Op::ConjTrans, Op::NoTrans, 1.0, q.as_ref(), stacked.as_ref(), 0.0, expect.as_mut());

        for j in 0..n {
            for i in 0..nb {
                assert!((a1[(i, j)] - expect[(i, j)]).abs() < 1e-12, "A1 ({i},{j})");
            }
            for i in 0..m2 {
                assert!((a2[(i, j)] - expect[(nb + i, j)]).abs() < 1e-12, "A2 ({i},{j})");
            }
        }
    }

    #[test]
    fn tsmqr_notrans_inverts_conjtrans() {
        let nb = 4;
        let m2 = 6;
        let n = 3;
        let mut r = Matrix::from_fn(nb, nb, |i, j| if i <= j { 2.0 + j as f64 } else { 0.0 });
        let mut b = rand_mat(m2, nb, 7);
        let t = tsqrt(&mut r, &mut b);

        let a1_0 = rand_mat(nb, n, 8);
        let a2_0 = rand_mat(m2, n, 9);
        let mut a1 = a1_0.clone();
        let mut a2 = a2_0.clone();
        tsmqr_blocked(Op::ConjTrans, &b, &t, &mut a1, &mut a2);
        tsmqr_blocked(Op::NoTrans, &b, &t, &mut a1, &mut a2);
        let mut d1 = a1;
        add(-1.0, a1_0.as_ref(), 1.0, d1.as_mut());
        let mut d2 = a2;
        add(-1.0, a2_0.as_ref(), 1.0, d2.as_mut());
        let e1: f64 = norm(Norm::Fro, d1.as_ref());
        let e2: f64 = norm(Norm::Fro, d2.as_ref());
        assert!(e1 < 1e-12 && e2 < 1e-12, "Q Q^H != I: {e1} {e2}");
    }

    #[test]
    fn geqrt_blocked_matches_geqrf_blocked() {
        // same panel code path => bitwise-identical packed output
        for (m, n, ib) in [(16usize, 16usize, 4usize), (24, 16, 8), (16, 24, 5), (7, 7, 16)] {
            let a0 = rand_mat(m, n, 21 + (m * n) as u64);
            let mut tiled = a0.clone();
            let tt = geqrt_blocked(&mut tiled, ib);
            let mut flat = a0.clone();
            let f = crate::qr::geqrf_blocked(&mut flat, ib);
            for j in 0..n {
                for i in 0..m {
                    assert_eq!(tiled[(i, j)], flat[(i, j)], "packed ({i},{j}) m={m} n={n}");
                }
            }
            // T diagonal blocks carry tau on their diagonals
            for (c, tau) in f.tau.iter().enumerate() {
                assert_eq!(tt.t[(c % ib.min(m.min(n)), c)], *tau);
            }
        }
    }

    #[test]
    fn unmqr_tile_blocked_matches_full_t() {
        let a0 = rand_mat(12, 12, 31);
        // full-T reference
        let mut af = a0.clone();
        let tf = geqrt(&mut af);
        let c0 = rand_mat(12, 5, 32);
        for op in [Op::NoTrans, Op::ConjTrans] {
            let mut cf = c0.clone();
            unmqr_tile_blocked(op, &af, &tf, &mut cf);
            // blocked path
            let mut ab = a0.clone();
            let tb = geqrt_blocked(&mut ab, 4);
            let mut cb = c0.clone();
            unmqr_tile_blocked(op, &ab, &tb, &mut cb);
            let mut diff = cb.clone();
            add(-1.0, cf.as_ref(), 1.0, diff.as_mut());
            let err: f64 = norm(Norm::Fro, diff.as_ref());
            assert!(err < 1e-12, "op={op:?} err={err}");
        }
    }

    #[test]
    fn tsqrt_blocked_matches_unblocked() {
        for (nb, m2, ib) in [(8usize, 10usize, 3usize), (6, 6, 2), (5, 9, 8)] {
            let r0 = {
                let mut a = rand_mat(nb, nb, 41 + nb as u64);
                let _ = geqrt(&mut a);
                Matrix::from_fn(nb, nb, |i, j| if i <= j { a[(i, j)] } else { 0.0 })
            };
            let b0 = rand_mat(m2, nb, 42 + m2 as u64);
            let mut rf = r0.clone();
            let mut bf = b0.clone();
            let _tf = tsqrt(&mut rf, &mut bf);
            let mut rb = r0.clone();
            let mut bb = b0.clone();
            let _tb = tsqrt_blocked(&mut rb, &mut bb, ib);
            // same reflectors up to roundoff (identical math, different
            // update grouping)
            for j in 0..nb {
                for i in 0..=j {
                    assert!((rf[(i, j)] - rb[(i, j)]).abs() < 1e-12, "R ({i},{j})");
                }
                for i in 0..m2 {
                    assert!((bf[(i, j)] - bb[(i, j)]).abs() < 1e-12, "V2 ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn tsmqr_blocked_matches_unblocked() {
        let nb = 8;
        let m2 = 11;
        let n = 6;
        let r0 = {
            let mut a = rand_mat(nb, nb, 51);
            let _ = geqrt(&mut a);
            Matrix::from_fn(nb, nb, |i, j| if i <= j { a[(i, j)] } else { 0.0 })
        };
        let b0 = rand_mat(m2, nb, 52);
        // full-T factorization for the reference
        let mut rf = r0.clone();
        let mut bf = b0.clone();
        let tf = tsqrt(&mut rf, &mut bf);
        // blocked factorization (same reflectors within roundoff)
        let mut rb = r0.clone();
        let mut bb = b0.clone();
        let tb = tsqrt_blocked(&mut rb, &mut bb, 3);
        let a1_0 = rand_mat(nb, n, 53);
        let a2_0 = rand_mat(m2, n, 54);
        for op in [Op::NoTrans, Op::ConjTrans] {
            let mut a1f = a1_0.clone();
            let mut a2f = a2_0.clone();
            tsmqr_blocked(op, &bf, &tf, &mut a1f, &mut a2f);
            let mut a1b = a1_0.clone();
            let mut a2b = a2_0.clone();
            tsmqr_blocked(op, &bb, &tb, &mut a1b, &mut a2b);
            for j in 0..n {
                for i in 0..nb {
                    assert!((a1f[(i, j)] - a1b[(i, j)]).abs() < 1e-11, "A1 ({i},{j}) {op:?}");
                }
                for i in 0..m2 {
                    assert!((a2f[(i, j)] - a2b[(i, j)]).abs() < 1e-11, "A2 ({i},{j}) {op:?}");
                }
            }
        }
    }

    /// `tsqrt` of `[R; B]` with `B` upper triangular, then `tsmqr` of a
    /// dense tile pair in both directions, at tile order `nb`: every output
    /// with the row window of [`TileT::upper_v2`] equals the one without,
    /// entry for entry (the rows it skips hold zeros, whose products add
    /// nothing; a zero may differ in sign — `larfg` scales the skipped ones).
    fn upper_v2_window_is_exact<S: Scalar>(nb: usize, ib: usize) {
        use polar_scalar::Real;
        let mut s = (nb * 131 + ib) as u64 | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            S::Real::from_f64(((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
        };
        let mut upper = |shift: f64| {
            Matrix::from_fn(nb, nb, |i, j| match i.cmp(&j) {
                std::cmp::Ordering::Less => S::from_parts(next(), next()),
                std::cmp::Ordering::Equal => S::from_parts(next(), next()) + S::from_f64(shift),
                std::cmp::Ordering::Greater => S::ZERO,
            })
        };
        let (r0, b0) = (upper(2.0), upper(1.0));
        let mut dense = |n| Matrix::from_fn(nb, n, |_, _| S::from_parts(next(), next()));
        let (a1_0, a2_0) = (dense(nb), dense(nb));

        let run = |window: bool| {
            let (mut r, mut b) = (r0.clone(), b0.clone());
            let mut tt = TileT::new(ib, nb);
            tt.upper_v2 = window;
            tsqrt_blocked_into(&mut r, &mut b, &mut tt);
            let (mut a1, mut a2) = (a1_0.clone(), a2_0.clone());
            tsmqr_blocked(Op::ConjTrans, &b, &tt, &mut a1, &mut a2);
            let (mut q1, mut q2) = (a2_0.clone(), a1_0.clone());
            tsmqr_blocked(Op::NoTrans, &b, &tt, &mut q1, &mut q2);
            [r, b, tt.t, a1, a2, q1, q2]
        };
        for (which, (w, d)) in run(true).iter().zip(&run(false)).enumerate() {
            for j in 0..w.ncols() {
                for i in 0..w.nrows() {
                    assert!(
                        w[(i, j)] == d[(i, j)],
                        "{} nb={nb} ib={ib}: output {which} differs at ({i},{j}): {:?} vs {:?}",
                        S::TYPE_TAG,
                        w[(i, j)],
                        d[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn tsqrt_tsmqr_row_window_changes_no_entry() {
        // the sizes keep every product on one gemm kernel with and without
        // the window (a shorter k can drop a product under gemm's packing
        // threshold, and the unpacked kernel rounds differently): all
        // unpacked at 48 / ib = 3, all packed at 160 / ib = 8 and 32
        for (nb, ib) in [(48usize, 3usize), (160, 8), (160, 32)] {
            upper_v2_window_is_exact::<f64>(nb, ib);
            upper_v2_window_is_exact::<Complex64>(nb, ib);
        }
    }

    #[test]
    fn blocked_kernels_complex() {
        let mut s = 77u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let nb = 6;
        let m2 = 8;
        let r0 = Matrix::from_fn(nb, nb, |i, j| {
            if i <= j {
                Complex64::new(next() + 2.0, next())
            } else {
                Complex64::default()
            }
        });
        let b0 = Matrix::from_fn(m2, nb, |_, _| Complex64::new(next(), next()));
        let mut rf = r0.clone();
        let mut bf = b0.clone();
        let tf = tsqrt(&mut rf, &mut bf);
        let mut rb = r0.clone();
        let mut bb = b0.clone();
        let tb = tsqrt_blocked(&mut rb, &mut bb, 2);
        let c1 = Matrix::from_fn(nb, 4, |_, _| Complex64::new(next(), next()));
        let c2 = Matrix::from_fn(m2, 4, |_, _| Complex64::new(next(), next()));
        let mut a1f = c1.clone();
        let mut a2f = c2.clone();
        tsmqr_blocked(Op::ConjTrans, &bf, &tf, &mut a1f, &mut a2f);
        let mut a1b = c1.clone();
        let mut a2b = c2.clone();
        tsmqr_blocked(Op::ConjTrans, &bb, &tb, &mut a1b, &mut a2b);
        for j in 0..4 {
            for i in 0..nb {
                assert!((a1f[(i, j)] - a1b[(i, j)]).abs() < 1e-11);
            }
            for i in 0..m2 {
                assert!((a2f[(i, j)] - a2b[(i, j)]).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn tile_kernels_complex() {
        let nb = 4;
        let m2 = 5;
        let mut s = 11u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut r = Matrix::from_fn(nb, nb, |i, j| {
            if i <= j {
                Complex64::new(next() + 2.0, next())
            } else {
                Complex64::default()
            }
        });
        let r0 = r.clone();
        let mut b = Matrix::from_fn(m2, nb, |_, _| Complex64::new(next(), next()));
        let b0 = b.clone();
        let t = tsqrt(&mut r, &mut b);

        // verify via explicit Q as in the real test
        let one = Complex64::from_real(1.0);
        let mtot = nb + m2;
        let mut v = Matrix::<Complex64>::zeros(mtot, nb);
        for j in 0..nb {
            v[(j, j)] = one;
            for i in 0..m2 {
                v[(nb + i, j)] = b[(i, j)];
            }
        }
        let mut q = Matrix::<Complex64>::identity(mtot, mtot);
        let mut vt = Matrix::<Complex64>::zeros(mtot, nb);
        gemm(
            Op::NoTrans,
            Op::NoTrans,
            one,
            v.as_ref(),
            t.t.as_ref(),
            Complex64::default(),
            vt.as_mut(),
        );
        gemm(Op::NoTrans, Op::ConjTrans, -one, vt.as_ref(), v.as_ref(), one, q.as_mut());
        let mut rn = Matrix::<Complex64>::zeros(mtot, nb);
        for j in 0..nb {
            for i in 0..=j {
                rn[(i, j)] = r[(i, j)];
            }
        }
        let mut recon = Matrix::<Complex64>::zeros(mtot, nb);
        gemm(
            Op::NoTrans,
            Op::NoTrans,
            one,
            q.as_ref(),
            rn.as_ref(),
            Complex64::default(),
            recon.as_mut(),
        );
        for j in 0..nb {
            for i in 0..nb {
                assert!((recon[(i, j)] - r0[(i, j)]).abs() < 1e-11);
            }
            for i in 0..m2 {
                assert!((recon[(nb + i, j)] - b0[(i, j)]).abs() < 1e-11);
            }
        }
    }
}
