//! Triangular solve and triangular multiply.

use crate::gemm::gemm;
use crate::packed::{macro_kernel, mask_packed, pack_a, pack_b, select_kernel, tile_shape, Mask};
use crate::params::{fork_lanes, gemm_params};
use polar_matrix::{Diag, MatMut, MatRef, Op, Side, Uplo};
use polar_scalar::Scalar;

/// Triangle order at or below which the per-column substitution kernel
/// runs directly; above it the solve recurses so the off-diagonal update
/// is a (packed) gemm.
const TRSM_BASE: usize = 64;

/// Narrowest slab of independent right-hand sides (columns of `B` in a left
/// solve, rows in a right one) a forked solve hands to one leaf. Every leaf
/// re-packs the triangle for its own gemm updates, so the useful
/// multiply-adds per redundantly packed element equal the slab width.
const TRSM_MIN_SLAB: usize = 64;

/// Analytic real flops of a triangular solve or multiply against `b`.
fn solve_flops<S: Scalar>(side: Side, b: &MatMut<'_, S>) -> f64 {
    crate::flops::type_factor(S::IS_COMPLEX)
        * match side {
            Side::Left => crate::flops::trsm_left(b.nrows(), b.ncols()),
            Side::Right => crate::flops::trsm_right(b.nrows(), b.ncols()),
        }
}

/// Effective element of `op(A)` for a triangular `A` stored in `uplo`.
#[inline]
fn tri_at<S: Scalar>(a: MatRef<'_, S>, op: Op, i: usize, j: usize) -> S {
    match op {
        Op::NoTrans => a.at(i, j),
        Op::Trans => a.at(j, i),
        Op::ConjTrans => a.at(j, i).conj(),
    }
}

/// Triangle of `op(A)` given the storage triangle of `A`.
#[inline]
fn effective_uplo(uplo: Uplo, op: Op) -> Uplo {
    match op {
        Op::NoTrans => uplo,
        Op::Trans | Op::ConjTrans => uplo.flip(),
    }
}

/// Triangular solve, BLAS `trsm`:
///
/// * `side = Left`:  solve `op(A) * X = alpha * B`;
/// * `side = Right`: solve `X * op(A) = alpha * B`;
///
/// `X` overwrites `B`. `A` is triangular (`uplo` triangle referenced,
/// `diag` selects implicit unit diagonal).
///
/// The QDWH Cholesky iteration applies two right-side solves with the
/// Cholesky factor `L` to form `A_k := A_{k-1} Z^{-1}` without inverting.
pub fn trsm<S: Scalar>(
    side: Side,
    uplo: Uplo,
    op: Op,
    diag: Diag,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatMut<'_, S>,
) {
    assert_eq!(a.nrows(), a.ncols(), "trsm: A must be square");
    let flops = solve_flops(side, &b);
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Trsm,
        "trsm",
        flops,
        [b.nrows(), b.ncols(), a.nrows()],
    );
    // the right-hand sides are independent (columns of B in a left solve,
    // rows in a right one): one slab per lane, and the gemm updates inside
    // a slab fork on their own account, which is what rebalances the lanes
    let (tri, len) = match side {
        Side::Left => (b.nrows(), b.ncols()),
        Side::Right => (b.ncols(), b.nrows()),
    };
    assert_eq!(a.nrows(), tri, "trsm: dim mismatch");
    let lanes = fork_lanes(tri.saturating_mul(tri).saturating_mul(len) / 2);
    let slab = (len / lanes).max(TRSM_MIN_SLAB);
    solve_slabs(side, uplo, op, diag, alpha, a, b, slab, false);
}

/// Halve the right-hand sides across the pool while both halves keep at
/// least `slab` of them. `split` marks a proper slab, whose solve shows on
/// its lane as a trace-only `trsm_leaf` span (cf. `gemm_leaf`).
#[allow(clippy::too_many_arguments)] // BLAS trsm signature + the split
fn solve_slabs<S: Scalar>(
    side: Side,
    uplo: Uplo,
    op: Op,
    diag: Diag,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatMut<'_, S>,
    slab: usize,
    split: bool,
) {
    let len = match side {
        Side::Left => b.ncols(),
        Side::Right => b.nrows(),
    };
    if len < 2 * slab {
        let _leaf = split.then(|| {
            let dims = [b.nrows(), b.ncols(), a.nrows()];
            let flops = solve_flops(side, &b);
            polar_obs::leaf_span(polar_obs::KernelClass::Trsm, "trsm_leaf", flops, dims)
        });
        return match side {
            Side::Left => trsm_left_blocked(uplo, op, diag, alpha, a, b),
            Side::Right => trsm_right_blocked(uplo, op, diag, alpha, a, b),
        };
    }
    let (b1, b2) = match side {
        Side::Left => b.split_at_col(len / 2),
        Side::Right => b.split_at_row(len / 2),
    };
    rayon::join(
        || solve_slabs(side, uplo, op, diag, alpha, a, b1, slab, true),
        || solve_slabs(side, uplo, op, diag, alpha, a, b2, slab, true),
    );
}

/// Block of `op(A)` covering rows `i0..i0+ni`, cols `j0..j0+nj` of the
/// *effective* (transposed) matrix, as a view plus the op to hand gemm.
#[inline]
fn op_block<S: Scalar>(
    a: MatRef<'_, S>,
    op: Op,
    i0: usize,
    j0: usize,
    ni: usize,
    nj: usize,
) -> MatRef<'_, S> {
    match op {
        Op::NoTrans => a.submatrix(i0, j0, ni, nj),
        Op::Trans | Op::ConjTrans => a.submatrix(j0, i0, nj, ni),
    }
}

/// Recursive blocked left solve: split `op(A)` into 2x2 quadrants so the
/// off-diagonal update runs through the packed gemm.
fn trsm_left_blocked<S: Scalar>(
    uplo: Uplo,
    op: Op,
    diag: Diag,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatMut<'_, S>,
) {
    let m = b.nrows();
    if m <= TRSM_BASE {
        trsm_left_seq(uplo, op, diag, alpha, a, b);
        return;
    }
    let h = m / 2;
    let (mut b1, mut b2) = b.split_at_row(h);
    // diagonal blocks of op(A) are triangular with the same uplo/op
    let a11 = a.submatrix(0, 0, h, h);
    let a22 = a.submatrix(h, h, m - h, m - h);
    match effective_uplo(uplo, op) {
        // T = [T11 0; T21 T22]: forward — X1 first, then eliminate from B2
        Uplo::Lower => {
            trsm_left_blocked(uplo, op, diag, alpha, a11, b1.rb());
            let t21 = op_block(a, op, h, 0, m - h, h);
            gemm(op, Op::NoTrans, -S::ONE, t21, b1.as_ref(), alpha, b2.rb());
            trsm_left_blocked(uplo, op, diag, S::ONE, a22, b2);
        }
        // T = [T11 T12; 0 T22]: backward — X2 first, then eliminate from B1
        Uplo::Upper => {
            trsm_left_blocked(uplo, op, diag, alpha, a22, b2.rb());
            let t12 = op_block(a, op, 0, h, h, m - h);
            gemm(op, Op::NoTrans, -S::ONE, t12, b2.as_ref(), alpha, b1.rb());
            trsm_left_blocked(uplo, op, diag, S::ONE, a11, b1);
        }
    }
}

fn trsm_left_seq<S: Scalar>(
    uplo: Uplo,
    op: Op,
    diag: Diag,
    alpha: S,
    a: MatRef<'_, S>,
    mut b: MatMut<'_, S>,
) {
    let m = b.nrows();
    let eff = effective_uplo(uplo, op);
    for j in 0..b.ncols() {
        let bj = b.col_mut(j);
        if alpha != S::ONE {
            for x in bj.iter_mut() {
                *x *= alpha;
            }
        }
        match eff {
            // forward substitution
            Uplo::Lower => {
                for k in 0..m {
                    if diag == Diag::NonUnit {
                        bj[k] *= tri_at(a, op, k, k).recip();
                    }
                    let xk = bj[k];
                    if xk != S::ZERO {
                        match op {
                            Op::NoTrans => {
                                // contiguous column segment of A
                                let ak = &a.col(k)[k + 1..m];
                                for (bi, &aik) in bj[k + 1..m].iter_mut().zip(ak) {
                                    *bi -= xk * aik;
                                }
                            }
                            _ => {
                                for (i, bi) in bj.iter_mut().enumerate().take(m).skip(k + 1) {
                                    *bi -= xk * tri_at(a, op, i, k);
                                }
                            }
                        }
                    }
                }
            }
            // back substitution
            Uplo::Upper => {
                for k in (0..m).rev() {
                    if diag == Diag::NonUnit {
                        bj[k] *= tri_at(a, op, k, k).recip();
                    }
                    let xk = bj[k];
                    if xk != S::ZERO {
                        match op {
                            Op::NoTrans => {
                                let ak = &a.col(k)[..k];
                                for (bi, &aik) in bj[..k].iter_mut().zip(ak) {
                                    *bi -= xk * aik;
                                }
                            }
                            _ => {
                                for (i, bi) in bj.iter_mut().enumerate().take(k) {
                                    *bi -= xk * tri_at(a, op, i, k);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Recursive blocked right solve: split `op(A)` into 2x2 quadrants so the
/// off-diagonal update runs through the packed gemm.
fn trsm_right_blocked<S: Scalar>(
    uplo: Uplo,
    op: Op,
    diag: Diag,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatMut<'_, S>,
) {
    let n = b.ncols();
    if n <= TRSM_BASE {
        trsm_right_seq(uplo, op, diag, alpha, a, b);
        return;
    }
    let h = n / 2;
    let (mut b1, mut b2) = b.split_at_col(h);
    let a11 = a.submatrix(0, 0, h, h);
    let a22 = a.submatrix(h, h, n - h, n - h);
    match effective_uplo(uplo, op) {
        // T = [T11 T12; 0 T22]: X1 first, then eliminate from B2
        Uplo::Upper => {
            trsm_right_blocked(uplo, op, diag, alpha, a11, b1.rb());
            let t12 = op_block(a, op, 0, h, h, n - h);
            gemm(Op::NoTrans, op, -S::ONE, b1.as_ref(), t12, alpha, b2.rb());
            trsm_right_blocked(uplo, op, diag, S::ONE, a22, b2);
        }
        // T = [T11 0; T21 T22]: X2 first, then eliminate from B1
        Uplo::Lower => {
            trsm_right_blocked(uplo, op, diag, alpha, a22, b2.rb());
            let t21 = op_block(a, op, h, 0, n - h, h);
            gemm(Op::NoTrans, op, -S::ONE, b2.as_ref(), t21, alpha, b1.rb());
            trsm_right_blocked(uplo, op, diag, S::ONE, a11, b1);
        }
    }
}

fn trsm_right_seq<S: Scalar>(
    uplo: Uplo,
    op: Op,
    diag: Diag,
    alpha: S,
    a: MatRef<'_, S>,
    mut b: MatMut<'_, S>,
) {
    let n = b.ncols();
    let upper = effective_uplo(uplo, op) == Uplo::Upper;
    if alpha != S::ONE {
        for j in 0..n {
            for x in b.col_mut(j) {
                *x *= alpha;
            }
        }
    }
    // X * T = B with T = op(A):
    //   T upper: ascending j — X[:,j] = (B[:,j] - sum_{l<j} X[:,l] T[l,j]) / T[j,j]
    //   T lower: descending j — X[:,j] = (B[:,j] - sum_{l>j} X[:,l] T[l,j]) / T[j,j]
    for step in 0..n {
        let j = if upper { step } else { n - 1 - step };
        // column j against the solved columns on its other side
        let (mut lo, mut hi) = b.rb().split_at_col(if upper { j } else { j + 1 });
        let (solved, bj, l0) = if upper {
            (lo.as_ref(), hi.col_mut(0), 0)
        } else {
            (hi.as_ref(), lo.col_mut(j), j + 1)
        };
        for l in 0..solved.ncols() {
            let t = tri_at(a, op, l0 + l, j);
            if t == S::ZERO {
                continue;
            }
            for (x, &xl) in bj.iter_mut().zip(solved.col(l)) {
                *x -= xl * t;
            }
        }
        if diag == Diag::NonUnit {
            let d = tri_at(a, op, j, j).recip();
            for x in bj {
                *x *= d;
            }
        }
    }
}

/// Triangular matrix multiply, BLAS `trmm`: `B := alpha * op(A) * B`
/// (`side = Left`) or `B := alpha * B * op(A)` (`side = Right`), in place.
///
/// One pass of the packed kernel on the calling lane (its callers are the
/// `T`-factor products of the QR panels and the inverted-diagonal sweeps
/// of the fused Cholesky iteration, tile-task bodies all): the triangle is
/// packed with its other half zeroed and each micro-panel runs over the
/// k-range it stores (`packed::Mask::K`), so half of the dense product's
/// flops are never issued and the unreferenced triangle is never
/// multiplied. In place: k-blocks go in the order in which the block of
/// `B` a k-block reads is overwritten only after it was packed — the
/// diagonal block first, then away from it — and nothing is allocated
/// beyond the two pack buffers any packed call has.
pub fn trmm<S: Scalar>(
    side: Side,
    uplo: Uplo,
    op: Op,
    diag: Diag,
    alpha: S,
    a: MatRef<'_, S>,
    mut b: MatMut<'_, S>,
) {
    let (m, n) = (b.nrows(), b.ncols());
    let nt = if side == Side::Left { m } else { n };
    assert_eq!((a.nrows(), a.ncols()), (nt, nt), "trmm: dim mismatch");
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Trsm,
        "trmm",
        solve_flops(side, &b),
        [m, n, nt],
    );
    if m == 0 || n == 0 {
        return;
    }
    if alpha == S::ZERO {
        return b.fill(S::ZERO);
    }
    let p = gemm_params();
    let (mr, nr) = tile_shape::<S>();
    let kern = select_kernel::<S>(mr, nr);
    let (kc, mc) = (p.kc.min(nt), p.mc.min(m));
    // a right multiply overwrites B by kc-wide column blocks, the grid its
    // k-blocks are read on
    let nc = if side == Side::Left { p.nc.min(n) } else { kc };
    let mut apack = vec![S::ZERO; mc.next_multiple_of(mr) * kc];
    let mut bpack = vec![S::ZERO; nc.next_multiple_of(nr) * kc];
    let lower = effective_uplo(uplo, op) == Uplo::Lower;
    let unit = diag == Diag::Unit;
    // k-blocks 0, kc, .. of op(A), in the order that walks away from the
    // block `first`: lower reads rows >= its own from the left (and
    // columns <= from the right), so a left-lower product starts at the
    // last block and a right-lower one at the first
    let blocks = |first: usize, ascending: bool| {
        let count = if ascending { (nt - first).div_ceil(kc) } else { first / kc + 1 };
        (0..count).map(move |s| if ascending { first + s * kc } else { first - s * kc })
    };
    let last = (nt - 1) / kc * kc;
    match side {
        Side::Left => {
            for jc in (0..n).step_by(nc) {
                let ncb = nc.min(n - jc);
                for pc in blocks(if lower { last } else { 0 }, !lower) {
                    let kcb = kc.min(m - pc);
                    pack_b(Op::NoTrans, b.as_ref(), pc, jc, kcb, ncb, nr, &mut bpack);
                    // rows of B this k-block reaches: its own (first write,
                    // the triangular part) and the ones past it (accumulate)
                    let (mut ic, end) = if lower { (pc, m) } else { (0, pc + kcb) };
                    while ic < end {
                        let own = (pc..pc + kcb).contains(&ic);
                        let stop = if ic < pc {
                            pc
                        } else if own {
                            pc + kcb
                        } else {
                            end
                        };
                        let mcb = mc.min(stop - ic);
                        pack_a(op, a, ic, pc, mcb, kcb, mr, &mut apack);
                        let d = ic as isize - pc as isize;
                        let (beta, mask) = if own {
                            mask_packed(&mut apack, mr, mcb, kcb, lower, d, unit);
                            (S::ZERO, Mask::K { on_a: true, upto: lower, d })
                        } else {
                            (S::ONE, Mask::Full)
                        };
                        let cblk = b.rb().submatrix(ic, jc, mcb, ncb);
                        macro_kernel(kern, alpha, &apack, &bpack, beta, cblk, kcb, mr, nr, mask);
                        ic += mcb;
                    }
                }
            }
        }
        Side::Right => {
            for jc in blocks(if lower { 0 } else { last }, lower) {
                let ncb = kc.min(n - jc);
                for pc in blocks(jc, lower) {
                    let kcb = kc.min(n - pc);
                    pack_b(op, a, pc, jc, kcb, ncb, nr, &mut bpack);
                    let (beta, mask) = if pc == jc {
                        mask_packed(&mut bpack, nr, ncb, kcb, !lower, 0, unit);
                        (S::ZERO, Mask::K { on_a: false, upto: !lower, d: 0 })
                    } else {
                        (S::ONE, Mask::Full)
                    };
                    for ic in (0..m).step_by(mc) {
                        let mcb = mc.min(m - ic);
                        pack_a(Op::NoTrans, b.as_ref(), ic, pc, mcb, kcb, mr, &mut apack);
                        let cblk = b.rb().submatrix(ic, jc, mcb, ncb);
                        macro_kernel(kern, alpha, &apack, &bpack, beta, cblk, kcb, mr, nr, mask);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_ref;
    use polar_matrix::Matrix;
    use polar_scalar::Complex64;

    fn rand_tri(n: usize, uplo: Uplo, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        Matrix::from_fn(n, n, |i, j| {
            let in_tri = match uplo {
                Uplo::Upper => i <= j,
                Uplo::Lower => i >= j,
            };
            if i == j {
                3.0 + next().abs() // well away from singular
            } else if in_tri {
                next()
            } else {
                f64::NAN // must never be referenced
            }
        })
    }

    fn check_trsm(side: Side, uplo: Uplo, op: Op, diag: Diag, m: usize, n: usize) {
        let asize = if side == Side::Left { m } else { n };
        let a = rand_tri(asize, uplo, 5);
        let b0 = Matrix::from_fn(m, n, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let mut x = b0.clone();
        trsm(side, uplo, op, diag, 2.0, a.as_ref(), x.as_mut());
        assert!(!x.has_non_finite(), "NaN leaked from unreferenced triangle");

        // reconstruct: op(A)*X (left) or X*op(A) (right) == 2*B0
        let mut t = Matrix::<f64>::zeros(asize, asize);
        for j in 0..asize {
            for i in 0..asize {
                let in_tri = match uplo {
                    Uplo::Upper => i <= j,
                    Uplo::Lower => i >= j,
                };
                if in_tri {
                    t[(i, j)] = if i == j && diag == Diag::Unit { 1.0 } else { a[(i, j)] };
                }
            }
        }
        let mut recon = Matrix::<f64>::zeros(m, n);
        match side {
            Side::Left => {
                gemm_ref(op, Op::NoTrans, 1.0, t.as_ref(), x.as_ref(), 0.0, recon.as_mut())
            }
            Side::Right => {
                gemm_ref(Op::NoTrans, op, 1.0, x.as_ref(), t.as_ref(), 0.0, recon.as_mut())
            }
        }
        for j in 0..n {
            for i in 0..m {
                assert!(
                    (recon[(i, j)] - 2.0 * b0[(i, j)]).abs() < 1e-9,
                    "{side:?} {uplo:?} {op:?} {diag:?} at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn trsm_all_variants() {
        for side in [Side::Left, Side::Right] {
            for uplo in [Uplo::Upper, Uplo::Lower] {
                for op in [Op::NoTrans, Op::Trans] {
                    for diag in [Diag::NonUnit, Diag::Unit] {
                        check_trsm(side, uplo, op, diag, 9, 7);
                    }
                }
            }
        }
    }

    #[test]
    fn trsm_parallel_sizes() {
        check_trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 96, 150);
        check_trsm(Side::Right, Uplo::Lower, Op::Trans, Diag::NonUnit, 150, 96);
    }

    #[test]
    fn trsm_complex_conj_trans() {
        let n = 6;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i > j {
                Complex64::default()
            } else if i == j {
                Complex64::new(2.0 + i as f64, 1.0)
            } else {
                Complex64::new(0.3 * (i as f64 - j as f64), 0.7)
            }
        });
        let b0 = Matrix::from_fn(n, 4, |i, j| Complex64::new(i as f64, j as f64));
        let mut x = b0.clone();
        let one = Complex64::from_real(1.0);
        trsm(Side::Left, Uplo::Upper, Op::ConjTrans, Diag::NonUnit, one, a.as_ref(), x.as_mut());
        // verify A^H X = B0
        let mut recon = Matrix::<Complex64>::zeros(n, 4);
        gemm_ref(
            Op::ConjTrans,
            Op::NoTrans,
            one,
            a.as_ref(),
            x.as_ref(),
            Complex64::default(),
            recon.as_mut(),
        );
        for j in 0..4 {
            for i in 0..n {
                assert!((recon[(i, j)] - b0[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn trmm_matches_dense_multiply() {
        let a = rand_tri(5, Uplo::Upper, 9);
        let b0 = Matrix::from_fn(5, 3, |i, j| (i + j) as f64);
        let mut b = b0.clone();
        trmm(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, 1.0, a.as_ref(), b.as_mut());
        for j in 0..3 {
            for i in 0..5 {
                let mut acc = 0.0;
                for l in i..5 {
                    acc += a[(i, l)] * b0[(l, j)];
                }
                assert!((b[(i, j)] - acc).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn trmm_right_side() {
        let a = rand_tri(4, Uplo::Lower, 10);
        let b0 = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64 - 5.0);
        let mut b = b0.clone();
        trmm(Side::Right, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 2.0, a.as_ref(), b.as_mut());
        for j in 0..4 {
            for i in 0..3 {
                let mut acc = 0.0;
                for l in j..4 {
                    acc += b0[(i, l)] * a[(l, j)];
                }
                assert!((b[(i, j)] - 2.0 * acc).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn trmm_unit_diag() {
        let mut a = rand_tri(3, Uplo::Upper, 11);
        // poison the diagonal: Unit must ignore it
        for i in 0..3 {
            a[(i, i)] = f64::NAN;
        }
        let b0 = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let mut b = b0.clone();
        trmm(Side::Left, Uplo::Upper, Op::NoTrans, Diag::Unit, 1.0, a.as_ref(), b.as_mut());
        assert!(!b.has_non_finite(), "unit diagonal must not be referenced");
    }

    #[test]
    fn trsm_alpha_zero_yields_zero() {
        let a = rand_tri(5, Uplo::Lower, 12);
        let mut b = Matrix::from_fn(5, 3, |i, j| (i + j) as f64 + 1.0);
        trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 0.0, a.as_ref(), b.as_mut());
        for j in 0..3 {
            for i in 0..5 {
                assert_eq!(b[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn trsm_identity_is_noop() {
        let a = Matrix::<f64>::identity(4, 4);
        let b0 = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let mut b = b0.clone();
        trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 1.0, a.as_ref(), b.as_mut());
        assert_eq!(b, b0);
    }
}
