//! General matrix-matrix multiply.
//!
//! Three implementations with distinct roles:
//!
//! * [`gemm_ref`] — naive triple loop, the correctness oracle;
//! * [`gemm_axpy`] — unpacked cache-aware axpy/dot kernel, used for
//!   problems too small to amortize packing (and as the bench baseline —
//!   it was the previous hot-path kernel);
//! * [`gemm`] — the production path: one call of the BLIS-style packed
//!   kernel (`crate::packed`) when the caller has no lane to fork to
//!   ([`fork_lanes`]), else a parallel split over the output with leaf
//!   granularity scaled to the pool size.

use crate::packed::{gemm_packed, gemm_packed_par, Mask};
use crate::params::{fork_lanes, gemm_params, par_threshold_flops};
use polar_matrix::{MatMut, MatRef, Op};
use polar_scalar::Scalar;

/// Element of `op(A)` at `(i, j)`.
#[inline]
fn op_at<S: Scalar>(a: MatRef<'_, S>, op: Op, i: usize, j: usize) -> S {
    match op {
        Op::NoTrans => a.at(i, j),
        Op::Trans => a.at(j, i),
        Op::ConjTrans => a.at(j, i).conj(),
    }
}

/// Reference (naive triple-loop) gemm, used as the correctness oracle in
/// tests and for tiny problems: `C := alpha * op_a(A) * op_b(B) + beta * C`.
pub fn gemm_ref<S: Scalar>(
    op_a: Op,
    op_b: Op,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    mut c: MatMut<'_, S>,
) {
    let m = c.nrows();
    let n = c.ncols();
    let (am, ak) = op_a.apply_dims(a.nrows(), a.ncols());
    let (bk, bn) = op_b.apply_dims(b.nrows(), b.ncols());
    assert_eq!(am, m, "gemm: A rows mismatch");
    assert_eq!(bn, n, "gemm: B cols mismatch");
    assert_eq!(ak, bk, "gemm: inner dim mismatch");
    for j in 0..n {
        for i in 0..m {
            let mut acc = S::ZERO;
            for l in 0..ak {
                acc += op_at(a, op_a, i, l) * op_at(b, op_b, l, j);
            }
            let old = c.at(i, j);
            c.set(i, j, alpha * acc + beta * old);
        }
    }
}

/// Sequential unpacked gemm over one block of `C`.
///
/// For `op_a = NoTrans` the inner kernel is a column `axpy` (contiguous
/// access to both `A` and `C`); for transposed `A` it is a column dot
/// product. `k` is blocked to keep the working set in cache. Kept as the
/// small-problem path (packing doesn't pay below a few thousand flops)
/// and as the speedup baseline in `kernels_perf`.
pub fn gemm_axpy<S: Scalar>(
    op_a: Op,
    op_b: Op,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    mut c: MatMut<'_, S>,
) {
    let m = c.nrows();
    let n = c.ncols();
    let k = match op_a {
        Op::NoTrans => a.ncols(),
        _ => a.nrows(),
    };

    // beta scaling first so k-blocking can accumulate with beta = 1.
    if beta == S::ZERO {
        c.fill(S::ZERO);
    } else if beta != S::ONE {
        for j in 0..n {
            for x in c.col_mut(j) {
                *x *= beta;
            }
        }
    }
    if alpha == S::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }

    const KBLK: usize = 256;
    match op_a {
        Op::NoTrans => {
            for l0 in (0..k).step_by(KBLK) {
                let lend = (l0 + KBLK).min(k);
                for j in 0..n {
                    let cj = c.col_mut(j);
                    for l in l0..lend {
                        let blj = alpha * op_at(b, op_b, l, j);
                        if blj == S::ZERO {
                            continue;
                        }
                        let al = a.col(l);
                        for (ci, &ail) in cj.iter_mut().zip(al) {
                            *ci += blj * ail;
                        }
                    }
                }
            }
        }
        Op::Trans | Op::ConjTrans => {
            let conj = op_a == Op::ConjTrans;
            for j in 0..n {
                for i in 0..m {
                    // column i of A holds row i of op(A): contiguous dot.
                    let ai = a.col(i);
                    let mut acc = S::ZERO;
                    match op_b {
                        Op::NoTrans => {
                            let bj = b.col(j);
                            if conj {
                                for (x, y) in ai.iter().zip(bj) {
                                    acc += x.conj() * *y;
                                }
                            } else {
                                for (x, y) in ai.iter().zip(bj) {
                                    acc += *x * *y;
                                }
                            }
                        }
                        _ => {
                            for (l, x) in ai.iter().enumerate() {
                                let xl = if conj { x.conj() } else { *x };
                                acc += xl * op_at(b, op_b, l, j);
                            }
                        }
                    }
                    let old = c.at(i, j);
                    c.set(i, j, alpha * acc + old);
                }
            }
        }
    }
}

/// Below this many multiply-adds the unpacked kernel beats packing.
const PACK_MIN_FLOPS: usize = 8 * 1024;

/// Whether an `m x n x k` product amortizes packing or takes the unpacked
/// axpy/dot kernel. Decided once per call and handed to every leaf: the two
/// sum in different orders, so a per-leaf choice would make an entry's bits
/// depend on where a parallel split fell.
pub(crate) fn packs(m: usize, n: usize, k: usize) -> bool {
    let work = m.saturating_mul(n).saturating_mul(k.max(1));
    work >= PACK_MIN_FLOPS && m.min(n) >= 4
}

/// Sequential leaf on the kernel [`packs`] chose for the call.
#[allow(clippy::too_many_arguments)] // internal blocked-gemm plumbing
pub(crate) fn gemm_leaf<S: Scalar>(
    op_a: Op,
    op_b: Op,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
    k: usize,
    packed: bool,
) {
    // Trace-only leaf span: leaves run on pool workers, so these are what
    // populate the per-worker Perfetto lanes. Never counted (the public
    // entry already attributed the whole product's flops).
    let _leaf = polar_obs::leaf_span(
        polar_obs::KernelClass::Gemm,
        "gemm_leaf",
        crate::flops::type_factor(S::IS_COMPLEX) * crate::flops::gemm(c.nrows(), c.ncols(), k),
        [c.nrows(), c.ncols(), k],
    );
    if packed {
        gemm_packed(op_a, op_b, alpha, a, b, beta, c, Mask::Full);
    } else {
        gemm_axpy(op_a, op_b, alpha, a, b, beta, c);
    }
}

/// Leaf granularity of a recursive split: about eight leaves per lane, but
/// never below the fork threshold (every leaf re-packs its operands).
fn split_grain(work: usize, lanes: usize) -> usize {
    if lanes == 1 {
        return usize::MAX; // no split: one leaf does the whole block
    }
    par_threshold_flops().max(work / (lanes * 8))
}

/// `C := alpha * op_a(A) * op_b(B) + beta * C`.
///
/// With one lane ([`fork_lanes`]) a single sequential leaf: one pack sweep,
/// no forks. Otherwise fans the packed MC-block grid out over the pool, or
/// — with fewer than two MC blocks — splits `C` (and the matching operand)
/// recursively by the longer output dimension down to the grain size.
/// Splitting only the *output* keeps writes disjoint.
pub fn gemm<S: Scalar>(
    op_a: Op,
    op_b: Op,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
) {
    let m = c.nrows();
    let n = c.ncols();
    let (am, ak) = op_a.apply_dims(a.nrows(), a.ncols());
    let (bk, bn) = op_b.apply_dims(b.nrows(), b.ncols());
    assert_eq!(am, m, "gemm: A rows mismatch");
    assert_eq!(bn, n, "gemm: B cols mismatch");
    assert_eq!(ak, bk, "gemm: inner dim mismatch");
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Gemm,
        "gemm",
        crate::flops::type_factor(S::IS_COMPLEX) * crate::flops::gemm(m, n, ak),
        [m, n, ak],
    );
    let work = m.saturating_mul(n).saturating_mul(ak.max(1));
    let packed = packs(m, n, ak);
    let lanes = fork_lanes(work);
    if lanes > 1 && packed && m >= 2 * gemm_params().mc {
        // Block-grid parallel path: share one packed-B panel across workers
        // and fan the MC row blocks out, instead of recursively halving the
        // output (which re-packs B in every leaf and caps parallel
        // efficiency). Needs >= 2 MC blocks to fan out.
        gemm_packed_par(op_a, op_b, alpha, a, b, beta, c);
    } else {
        gemm_par(op_a, op_b, alpha, a, b, beta, c, ak, packed, split_grain(work, lanes));
    }
}

#[allow(clippy::too_many_arguments)] // BLAS gemm signature + split state
fn gemm_par<S: Scalar>(
    op_a: Op,
    op_b: Op,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
    k: usize,
    packed: bool,
    grain: usize,
) {
    let m = c.nrows();
    let n = c.ncols();
    let work = m.saturating_mul(n).saturating_mul(k.max(1));
    if work <= grain || (m <= 16 && n <= 16) {
        gemm_leaf(op_a, op_b, alpha, a, b, beta, c, k, packed);
        return;
    }
    if n >= m {
        // split C and op(B) by columns
        let h = n / 2;
        let (c1, c2) = c.split_at_col(h);
        let (b1, b2) = split_op_cols(b, op_b, h);
        rayon::join(
            || gemm_par(op_a, op_b, alpha, a, b1, beta, c1, k, packed, grain),
            || gemm_par(op_a, op_b, alpha, a, b2, beta, c2, k, packed, grain),
        );
    } else {
        // split C and op(A) by rows
        let h = m / 2;
        let (c1, c2) = c.split_at_row(h);
        let (a1, a2) = split_op_rows(a, op_a, h);
        rayon::join(
            || gemm_par(op_a, op_b, alpha, a1, b, beta, c1, k, packed, grain),
            || gemm_par(op_a, op_b, alpha, a2, b, beta, c2, k, packed, grain),
        );
    }
}

/// Split `op(B)` at output-column `h`: columns of `op(B)` are columns of `B`
/// when `NoTrans`, rows of `B` otherwise.
fn split_op_cols<S: Scalar>(b: MatRef<'_, S>, op: Op, h: usize) -> (MatRef<'_, S>, MatRef<'_, S>) {
    match op {
        Op::NoTrans => b.split_at_col(h),
        Op::Trans | Op::ConjTrans => b.split_at_row(h),
    }
}

/// Split `op(A)` at output-row `h`.
fn split_op_rows<S: Scalar>(a: MatRef<'_, S>, op: Op, h: usize) -> (MatRef<'_, S>, MatRef<'_, S>) {
    match op {
        Op::NoTrans => a.split_at_row(h),
        Op::Trans | Op::ConjTrans => a.split_at_col(h),
    }
}

/// `gemmA` (paper §6.2): gemm specialized for a large `A` and a skinny
/// output `C` (matrix-vector products of the two-norm estimator).
///
/// In SLATE this variant moves tiles of `B` to where `A` resides and
/// reduces partial `C` results. In shared memory the analogous strategy is
/// to parallelize over *row blocks of A* (each thread streams its rows of
/// `A` once) instead of over the (too few) columns of `C`.
pub fn gemm_a<S: Scalar>(
    op_a: Op,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
) {
    let m = c.nrows();
    let n = c.ncols();
    let (am, ak) = op_a.apply_dims(a.nrows(), a.ncols());
    assert_eq!(am, m, "gemm_a: A rows mismatch");
    assert_eq!(b.nrows(), ak, "gemm_a: inner dim mismatch");
    assert_eq!(b.ncols(), n, "gemm_a: B cols mismatch");
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Gemm,
        "gemm_a",
        crate::flops::type_factor(S::IS_COMPLEX) * crate::flops::gemm(m, n, ak),
        [m, n, ak],
    );
    let work = m.saturating_mul(n).saturating_mul(ak.max(1));
    let packed = packs(m, n, ak);
    // gemm_par halves the longer output dimension, which for a skinny `C`
    // is the row-block split over `A` this variant exists for
    let grain = split_grain(work, fork_lanes(work));
    gemm_par(op_a, Op::NoTrans, alpha, a, b, beta, c, ak, packed, grain);
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_matrix::Matrix;
    use polar_scalar::Complex64;

    fn max_diff(a: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
        let mut d = 0.0f64;
        for j in 0..a.ncols() {
            for i in 0..a.nrows() {
                d = d.max((a[(i, j)] - b[(i, j)]).abs());
            }
        }
        d
    }

    fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix<f64> {
        // deterministic LCG — tests must not depend on rand here
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn gemm_matches_reference_all_ops() {
        for (op_a, op_b, ad, bd) in [
            (Op::NoTrans, Op::NoTrans, (13, 7), (7, 9)),
            (Op::Trans, Op::NoTrans, (7, 13), (7, 9)),
            (Op::NoTrans, Op::Trans, (13, 7), (9, 7)),
            (Op::Trans, Op::Trans, (7, 13), (9, 7)),
        ] {
            let a = rand_mat(ad.0, ad.1, 3);
            let b = rand_mat(bd.0, bd.1, 4);
            let mut c1 = rand_mat(13, 9, 5);
            let mut c2 = c1.clone();
            gemm_ref(op_a, op_b, 1.5, a.as_ref(), b.as_ref(), 0.5, c1.as_mut());
            gemm(op_a, op_b, 1.5, a.as_ref(), b.as_ref(), 0.5, c2.as_mut());
            assert!(max_diff(&c1, &c2) < 1e-12, "{op_a:?} {op_b:?}");
        }
    }

    #[test]
    fn gemm_parallel_path_matches_reference() {
        let a = rand_mat(150, 80, 11);
        let b = rand_mat(80, 120, 12);
        let mut c1 = rand_mat(150, 120, 13);
        let mut c2 = c1.clone();
        gemm_ref(Op::NoTrans, Op::NoTrans, 2.0, a.as_ref(), b.as_ref(), -1.0, c1.as_mut());
        gemm(Op::NoTrans, Op::NoTrans, 2.0, a.as_ref(), b.as_ref(), -1.0, c2.as_mut());
        assert!(max_diff(&c1, &c2) < 1e-10);
    }

    #[test]
    fn gemm_axpy_matches_reference() {
        for op_a in [Op::NoTrans, Op::Trans] {
            for op_b in [Op::NoTrans, Op::Trans] {
                let (ar, ac) = if op_a == Op::NoTrans { (23, 17) } else { (17, 23) };
                let (br, bc) = if op_b == Op::NoTrans { (17, 11) } else { (11, 17) };
                let a = rand_mat(ar, ac, 41);
                let b = rand_mat(br, bc, 42);
                let mut c1 = rand_mat(23, 11, 43);
                let mut c2 = c1.clone();
                gemm_ref(op_a, op_b, -0.5, a.as_ref(), b.as_ref(), 2.0, c1.as_mut());
                gemm_axpy(op_a, op_b, -0.5, a.as_ref(), b.as_ref(), 2.0, c2.as_mut());
                assert!(max_diff(&c1, &c2) < 1e-12, "{op_a:?} {op_b:?}");
            }
        }
    }

    #[test]
    fn gemm_conj_trans_complex() {
        let a = Matrix::from_fn(4, 3, |i, j| Complex64::new(i as f64, j as f64 + 1.0));
        let b = Matrix::from_fn(4, 2, |i, j| Complex64::new(j as f64 - 1.0, i as f64));
        let mut c1 = Matrix::<Complex64>::zeros(3, 2);
        let mut c2 = Matrix::<Complex64>::zeros(3, 2);
        let one = Complex64::from_real(1.0);
        gemm_ref(
            Op::ConjTrans,
            Op::NoTrans,
            one,
            a.as_ref(),
            b.as_ref(),
            Complex64::default(),
            c1.as_mut(),
        );
        gemm(
            Op::ConjTrans,
            Op::NoTrans,
            one,
            a.as_ref(),
            b.as_ref(),
            Complex64::default(),
            c2.as_mut(),
        );
        for j in 0..2 {
            for i in 0..3 {
                assert!((c1[(i, j)] - c2[(i, j)]).abs() < 1e-13);
            }
        }
        // spot check one entry by hand: c[0,0] = sum_l conj(a[l,0]) b[l,0]
        let mut acc = Complex64::default();
        for l in 0..4 {
            acc += a[(l, 0)].conj() * b[(l, 0)];
        }
        assert!((c1[(0, 0)] - acc).abs() < 1e-13);
    }

    #[test]
    fn gemm_beta_zero_overwrites_nan() {
        // beta = 0 must overwrite even NaN garbage in C (LAPACK semantics).
        let a = Matrix::<f64>::identity(3, 3);
        let b = rand_mat(3, 3, 21);
        let mut c = Matrix::<f64>::zeros(3, 3);
        c[(1, 1)] = f64::NAN;
        gemm(Op::NoTrans, Op::NoTrans, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        assert!(max_diff(&c, &b) < 1e-14);
    }

    #[test]
    fn gemm_beta_zero_overwrites_nan_packed_path() {
        // same property through the packed kernel (size above PACK_MIN_FLOPS)
        let n = 48;
        let a = Matrix::<f64>::identity(n, n);
        let b = rand_mat(n, n, 22);
        let mut c = Matrix::<f64>::zeros(n, n);
        c[(7, 31)] = f64::NAN;
        gemm(Op::NoTrans, Op::NoTrans, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        assert!(max_diff(&c, &b) < 1e-14);
    }

    #[test]
    fn gemm_a_matches_gemm_skinny() {
        let a = rand_mat(500, 60, 31);
        let x = rand_mat(60, 1, 32);
        let mut y1 = Matrix::<f64>::zeros(500, 1);
        let mut y2 = Matrix::<f64>::zeros(500, 1);
        gemm(Op::NoTrans, Op::NoTrans, 1.0, a.as_ref(), x.as_ref(), 0.0, y1.as_mut());
        gemm_a(Op::NoTrans, 1.0, a.as_ref(), x.as_ref(), 0.0, y2.as_mut());
        assert!(max_diff(&y1, &y2) < 1e-11);

        // transposed direction, as used by norm2est line 19
        let mut z1 = Matrix::<f64>::zeros(60, 1);
        let mut z2 = Matrix::<f64>::zeros(60, 1);
        gemm(Op::Trans, Op::NoTrans, 1.0, a.as_ref(), y1.as_ref(), 0.0, z1.as_mut());
        gemm_a(Op::Trans, 1.0, a.as_ref(), y1.as_ref(), 0.0, z2.as_mut());
        assert!(max_diff(&z1, &z2) < 1e-9);
    }

    #[test]
    fn gemm_empty_dims_noop() {
        let a = Matrix::<f64>::zeros(0, 5);
        let b = Matrix::<f64>::zeros(5, 3);
        let mut c = Matrix::<f64>::zeros(0, 3);
        gemm(Op::NoTrans, Op::NoTrans, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        // k = 0: C := beta C
        let a = Matrix::<f64>::zeros(2, 0);
        let b = Matrix::<f64>::zeros(0, 2);
        let mut c = Matrix::<f64>::from_fn(2, 2, |_, _| 3.0);
        gemm(Op::NoTrans, Op::NoTrans, 1.0, a.as_ref(), b.as_ref(), 2.0, c.as_mut());
        assert_eq!(c[(0, 0)], 6.0);
    }
}
