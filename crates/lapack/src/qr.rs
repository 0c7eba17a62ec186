//! Blocked Householder QR factorization (`geqrf`), multiply-by-Q
//! (`unmqr`), and explicit Q generation (`orgqr`).
//!
//! These are the kernels behind the QR-based QDWH iteration (Algorithm 1
//! lines 30–32): `geqrf(W)` factors the stacked `[sqrt(c) A; I]` matrix and
//! `unmqr(W, Q)` builds `Q1, Q2` explicitly.

use crate::householder::{larf, larfg};
use crate::DEFAULT_BLOCK;
use polar_blas::{axpy, dotc, gemm};
use polar_matrix::{Diag, MatMut, MatRef, Matrix, Op, Side, Uplo};
use polar_scalar::Scalar;

/// Householder scalars of a QR factorization; the reflector vectors live
/// below the diagonal of the factored matrix (LAPACK packed format).
#[derive(Debug, Clone)]
pub struct QrFactors<S> {
    pub tau: Vec<S>,
}

/// Unblocked panel factorization, LAPACK `geqr2`.
///
/// On exit the upper triangle of `a` holds `R`, the sub-diagonal columns
/// hold the reflector tails, and `tau` the reflector scalars. `scratch`
/// holds a reflector tail while it is applied, so blocked drivers reuse
/// one allocation across all panels.
pub(crate) fn geqr2_scratch<S: Scalar>(mut a: MatMut<'_, S>, tau: &mut [S], scratch: &mut Vec<S>) {
    let m = a.nrows();
    let n = a.ncols();
    let k = m.min(n);
    debug_assert!(tau.len() >= k);
    for j in 0..k {
        // Generate reflector for column j, rows j..m.
        let tail_reflector = {
            let col = a.col_mut(j);
            let alpha = col[j];
            let r = larfg(alpha, &mut col[j + 1..]);
            col[j] = S::from_real(r.beta);
            r
        };
        tau[j] = tail_reflector.tau;
        if tail_reflector.tau != S::ZERO && j + 1 < n {
            // Apply H(j)^H to the trailing submatrix A[j.., j+1..].
            // Copy the tail into the reused scratch (it aliases the
            // matrix storage larf is about to update).
            scratch.clear();
            scratch.extend_from_slice(&a.col_mut(j)[j + 1..]);
            let trailing = a.rb().submatrix(j, j + 1, m - j, n - j - 1);
            larf(tail_reflector.tau.conj(), scratch, trailing);
        }
    }
}

/// Form the upper-triangular block reflector factor `T` (LAPACK `larft`,
/// forward / columnwise) so that `H(1)...H(k) = I - V T V^H`.
pub(crate) fn larft<S: Scalar>(v: MatRef<'_, S>, tau: &[S]) -> Matrix<S> {
    let k = v.ncols();
    let mut t = Matrix::<S>::zeros(k, k);
    for i in 0..k {
        if tau[i] == S::ZERO {
            // T(0..i, i) stays zero
            t[(i, i)] = S::ZERO;
            continue;
        }
        // T(0..i, i) = -tau_i * T(0..i, 0..i) * w,  w = V(:, 0..i)^H v_i
        // (v_i has an implicit unit at row i): column l of the triangle
        // times w_l, accumulated into column i
        let (done, mut rest) = t.as_mut().split_at_col(i);
        let ti = rest.col_mut(0);
        for l in 0..i {
            let wl = v.at(i, l).conj() + dotc(&v.col(l)[i + 1..], &v.col(i)[i + 1..]);
            axpy(-tau[i] * wl, &done.as_ref().col(l)[..=l], &mut ti[..=l]);
        }
        t[(i, i)] = tau[i];
    }
    t
}

/// Materialize the unit-lower-trapezoidal `V` from the packed panel.
pub(crate) fn extract_v<S: Scalar>(panel: MatRef<'_, S>) -> Matrix<S> {
    let m = panel.nrows();
    let k = panel.ncols();
    Matrix::from_fn(m, k, |i, j| {
        if i == j {
            S::ONE
        } else if i > j {
            panel.at(i, j)
        } else {
            S::ZERO
        }
    })
}

/// Apply a block reflector (LAPACK `larfb`, left side, forward columnwise):
/// `C := (I - V T V^H) C` for `op = NoTrans`, or with `T^H` for
/// `op = ConjTrans` (which applies `Q^H`).
pub(crate) fn larfb_left<S: Scalar>(
    op: Op,
    v: MatRef<'_, S>,
    t: MatRef<'_, S>,
    mut c: MatMut<'_, S>,
) {
    let k = v.ncols();
    let n = c.ncols();
    if k == 0 || n == 0 {
        return;
    }
    // X = V^H C  (k x n)
    let mut x = Matrix::<S>::zeros(k, n);
    gemm(Op::ConjTrans, Op::NoTrans, S::ONE, v, c.as_ref(), S::ZERO, x.as_mut());
    // X := op(T) X
    let t_op = if op == Op::NoTrans { Op::NoTrans } else { Op::ConjTrans };
    polar_blas::trmm(Side::Left, Uplo::Upper, t_op, Diag::NonUnit, S::ONE, t, x.as_mut());
    // C := C - V X
    gemm(Op::NoTrans, Op::NoTrans, -S::ONE, v, x.as_ref(), S::ONE, c.rb());
}

/// Blocked Householder QR factorization, LAPACK `geqrf`.
///
/// On exit `a` holds `R` in its upper triangle and the reflectors below
/// the diagonal (packed format); the returned [`QrFactors`] carries `tau`.
pub fn geqrf<S: Scalar>(a: &mut Matrix<S>) -> QrFactors<S> {
    geqrf_blocked(a, DEFAULT_BLOCK)
}

/// [`geqrf`] with an explicit block size (exposed for tuning ablations).
pub fn geqrf_blocked<S: Scalar>(a: &mut Matrix<S>, ib: usize) -> QrFactors<S> {
    let m = a.nrows();
    let n = a.ncols();
    let k = m.min(n);
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Geqrf,
        "geqrf",
        polar_blas::flops::type_factor(S::IS_COMPLEX) * polar_blas::flops::geqrf(m, n),
        [m, n, 0],
    );
    let ib = ib.max(1);
    let mut tau = vec![S::ZERO; k];
    let mut scratch = Vec::with_capacity(m);
    let mut j = 0;
    while j < k {
        let jb = ib.min(k - j);
        // Panel factorization.
        geqr2_scratch(a.view_mut(j, j, m - j, jb), &mut tau[j..j + jb], &mut scratch);
        // Trailing update with the block reflector.
        if j + jb < n {
            let v = extract_v(a.view(j, j, m - j, jb));
            let t = larft(v.as_ref(), &tau[j..j + jb]);
            let trailing = a.view_mut(j, j + jb, m - j, n - j - jb);
            larfb_left(Op::ConjTrans, v.as_ref(), t.as_ref(), trailing);
        }
        j += jb;
    }
    QrFactors { tau }
}

/// Structure-exploiting QR of the QDWH stacked matrix `W = [B; c I]`
/// (`B` is `top_rows x n` dense, the bottom block diagonal).
///
/// During the factorization the bottom block's fill-in stays upper
/// trapezoidal: at panel column `j` every entry below row
/// `top_rows + j + jb` is still exactly zero, so both the panel and the
/// trailing update can run on that shrinking-complement row window. For
/// square `B` this removes ~1/3 of the factorization flops — the
/// structure optimization the QDWH literature applies to Eq. (1).
///
/// The output is bit-compatible with [`geqrf`] (same packed format, the
/// windowed-out entries are exact zeros), so [`orgqr`]/[`unmqr`] apply
/// unchanged.
pub fn geqrf_stacked<S: Scalar>(top_rows: usize, a: &mut Matrix<S>) -> QrFactors<S> {
    let m = a.nrows();
    let n = a.ncols();
    assert!(top_rows <= m, "geqrf_stacked: top block larger than matrix");
    // Nominal (full geqrf) flops, matching the paper's Eq. (1) accounting;
    // the structure exploitation below executes fewer.
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Geqrf,
        "geqrf_stacked",
        polar_blas::flops::type_factor(S::IS_COMPLEX) * polar_blas::flops::geqrf(m, n),
        [m, n, 0],
    );
    let ib = DEFAULT_BLOCK.max(1);
    let k = m.min(n);
    let mut tau = vec![S::ZERO; k];
    let mut scratch = Vec::with_capacity(m);
    let mut j = 0;
    while j < k {
        let jb = ib.min(k - j);
        // active rows: the dense top block plus the filled part of the
        // bottom block (through this panel's own diagonal entries)
        let active = m.min(top_rows + j + jb);
        geqr2_scratch(a.view_mut(j, j, active - j, jb), &mut tau[j..j + jb], &mut scratch);
        if j + jb < n {
            let v = extract_v(a.view(j, j, active - j, jb));
            let t = larft(v.as_ref(), &tau[j..j + jb]);
            let trailing = a.view_mut(j, j + jb, active - j, n - j - jb);
            larfb_left(Op::ConjTrans, v.as_ref(), t.as_ref(), trailing);
        }
        j += jb;
    }
    QrFactors { tau }
}

/// Multiply by Q from a [`geqrf`] factorization (LAPACK `unmqr`, left
/// side): `C := Q C` (`op = NoTrans`) or `C := Q^H C` (`op = ConjTrans`).
///
/// `a` is the factored matrix (reflectors below the diagonal). `Q` is the
/// full `m x m` unitary factor represented by the `k` reflectors.
pub fn unmqr<S: Scalar>(op: Op, a: &Matrix<S>, f: &QrFactors<S>, c: &mut Matrix<S>) {
    let m = a.nrows();
    let k = f.tau.len();
    assert_eq!(c.nrows(), m, "unmqr: C row mismatch");
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Orgqr,
        "unmqr",
        polar_blas::flops::type_factor(S::IS_COMPLEX) * polar_blas::flops::unmqr(m, c.ncols(), k),
        [m, c.ncols(), k],
    );
    let ib = DEFAULT_BLOCK;
    let nblocks = k.div_ceil(ib);
    // NoTrans applies block reflectors in reverse order, ConjTrans forward.
    let block_ids: Vec<usize> = match op {
        Op::NoTrans => (0..nblocks).rev().collect(),
        _ => (0..nblocks).collect(),
    };
    for bi in block_ids {
        let j = bi * ib;
        let jb = ib.min(k - j);
        let v = extract_v(a.view(j, j, m - j, jb));
        let t = larft(v.as_ref(), &f.tau[j..j + jb]);
        let csub = c.view_mut(j, 0, m - j, c.ncols());
        larfb_left(op, v.as_ref(), t.as_ref(), csub);
    }
}

/// Generate the explicit thin `Q` (`m x k`) of a [`geqrf`] factorization
/// (LAPACK `orgqr`/`ungqr`): applies Q to the first `k` columns of the
/// identity, which is exactly how the paper builds `Q1, Q2` (line 32).
pub fn orgqr<S: Scalar>(a: &Matrix<S>, f: &QrFactors<S>) -> Matrix<S> {
    let m = a.nrows();
    let k = f.tau.len();
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Orgqr,
        "orgqr",
        polar_blas::flops::type_factor(S::IS_COMPLEX) * polar_blas::flops::orgqr(m, k),
        [m, k, 0],
    );
    let mut q = Matrix::<S>::identity(m, k);
    unmqr(Op::NoTrans, a, f, &mut q);
    q
}

/// Extract the `k x n` upper-triangular `R` factor from a packed
/// factorization.
pub fn extract_r<S: Scalar>(a: &Matrix<S>) -> Matrix<S> {
    let k = a.nrows().min(a.ncols());
    Matrix::from_fn(k, a.ncols(), |i, j| if i <= j { a[(i, j)] } else { S::ZERO })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_blas::norm;
    use polar_matrix::Norm;
    use polar_scalar::{Complex64, Real};

    fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix<f64> {
        let mut s = seed | 1;
        Matrix::from_fn(m, n, |_, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn rand_cmat(m: usize, n: usize, seed: u64) -> Matrix<Complex64> {
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        Matrix::from_fn(m, n, |_, _| Complex64::new(next(), next()))
    }

    fn check_qr<S: Scalar>(a0: &Matrix<S>, tol: S::Real) {
        let (m, n) = (a0.nrows(), a0.ncols());
        let k = m.min(n);
        let mut a = a0.clone();
        let f = geqrf(&mut a);
        let q = orgqr(&a, &f);
        assert_eq!(q.nrows(), m);
        assert_eq!(q.ncols(), k);

        // orthonormality: Q^H Q = I
        let mut qhq = Matrix::<S>::zeros(k, k);
        gemm(Op::ConjTrans, Op::NoTrans, S::ONE, q.as_ref(), q.as_ref(), S::ZERO, qhq.as_mut());
        for j in 0..k {
            for i in 0..k {
                let expect = if i == j { S::ONE } else { S::ZERO };
                assert!((qhq[(i, j)] - expect).abs() <= tol, "QhQ({i},{j}) = {:?}", qhq[(i, j)]);
            }
        }

        // reconstruction: Q R = A
        let r = extract_r(&a);
        let mut qr = Matrix::<S>::zeros(m, n);
        gemm(Op::NoTrans, Op::NoTrans, S::ONE, q.as_ref(), r.as_ref(), S::ZERO, qr.as_mut());
        let mut diff = qr.clone();
        polar_blas::add(-S::ONE, a0.as_ref(), S::ONE, diff.as_mut());
        let err: S::Real = norm(Norm::Fro, diff.as_ref());
        let scale: S::Real = norm(Norm::Fro, a0.as_ref());
        assert!(err <= tol * (S::Real::ONE + scale), "||QR - A|| = {err:?}");
    }

    #[test]
    fn qr_square_real() {
        check_qr(&rand_mat(20, 20, 1), 1e-12);
    }

    #[test]
    fn qr_tall_real() {
        check_qr(&rand_mat(50, 18, 2), 1e-12);
        // blocked path crosses multiple panels
        check_qr(&rand_mat(100, 70, 3), 1e-11);
    }

    #[test]
    fn qr_wide_real() {
        check_qr(&rand_mat(12, 30, 4), 1e-12);
    }

    #[test]
    fn qr_complex() {
        check_qr(&rand_cmat(25, 15, 5), 1e-12);
        check_qr(&rand_cmat(40, 40, 6), 1e-11);
    }

    #[test]
    fn qr_single_column_and_row() {
        check_qr(&rand_mat(7, 1, 7), 1e-13);
        check_qr(&rand_mat(1, 5, 8), 1e-13);
        check_qr(&rand_mat(1, 1, 9), 1e-14);
    }

    #[test]
    fn qr_rank_deficient_is_stable() {
        // duplicated columns: R gets (near-)zero diagonal but Q stays unitary
        let base = rand_mat(20, 5, 10);
        let a0 = Matrix::from_fn(20, 10, |i, j| base[(i, j % 5)]);
        let mut a = a0.clone();
        let f = geqrf(&mut a);
        let q = orgqr(&a, &f);
        let mut qhq = Matrix::<f64>::zeros(10, 10);
        gemm(Op::ConjTrans, Op::NoTrans, 1.0, q.as_ref(), q.as_ref(), 0.0, qhq.as_mut());
        for j in 0..10 {
            for i in 0..10 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((qhq[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn unmqr_conj_trans_inverts_notrans() {
        let a0 = rand_mat(30, 12, 11);
        let mut a = a0.clone();
        let f = geqrf(&mut a);
        let c0 = rand_mat(30, 4, 12);
        let mut c = c0.clone();
        unmqr(Op::NoTrans, &a, &f, &mut c);
        unmqr(Op::ConjTrans, &a, &f, &mut c);
        let mut diff = c.clone();
        polar_blas::add(-1.0, c0.as_ref(), 1.0, diff.as_mut());
        let err: f64 = norm(Norm::Fro, diff.as_ref());
        assert!(err < 1e-12, "Q^H Q C != C: {err}");
    }

    #[test]
    fn geqrf_stacked_matches_general() {
        // [B; I] factored with the windowed algorithm must equal the
        // general geqrf bit-for-bit (same reflectors, same R)
        for n in [5usize, 16, 40] {
            let b = rand_mat(n, n, 100 + n as u64);
            let w0 = Matrix::vstack(&b, &Matrix::identity(n, n));
            let mut general = w0.clone();
            let fg = geqrf(&mut general);
            let mut windowed = w0.clone();
            let fw = geqrf_stacked(n, &mut windowed);
            for (a, b2) in fg.tau.iter().zip(&fw.tau) {
                assert!((a - b2).abs() < 1e-14, "tau mismatch at n={n}");
            }
            for j in 0..n {
                for i in 0..2 * n {
                    assert!(
                        (general[(i, j)] - windowed[(i, j)]).abs() < 1e-13,
                        "packed mismatch at ({i},{j}), n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn geqrf_stacked_rectangular_top() {
        // tall top block (the rectangular m > n QDWH case)
        let b = rand_mat(30, 12, 7);
        let w0 = Matrix::vstack(&b, &Matrix::identity(12, 12));
        let mut w = w0.clone();
        let f = geqrf_stacked(30, &mut w);
        let q = orgqr(&w, &f);
        let r = extract_r(&w);
        let mut recon = Matrix::<f64>::zeros(42, 12);
        gemm(Op::NoTrans, Op::NoTrans, 1.0, q.as_ref(), r.as_ref(), 0.0, recon.as_mut());
        let mut diff = recon;
        polar_blas::add(-1.0, w0.as_ref(), 1.0, diff.as_mut());
        let err: f64 = norm(Norm::Fro, diff.as_ref());
        assert!(err < 1e-12, "||QR - W|| = {err}");
    }

    #[test]
    fn stacked_identity_structure() {
        // The QDWH W = [sqrt(c) A; I] shape: QR must handle it and the
        // resulting thin Q splits into Q1 (m x n) and Q2 (n x n).
        let n = 8;
        let a_top = rand_mat(n, n, 13);
        let w0 = Matrix::vstack(&a_top, &Matrix::identity(n, n));
        let mut w = w0.clone();
        let f = geqrf(&mut w);
        let q = orgqr(&w, &f);
        assert_eq!(q.nrows(), 2 * n);
        assert_eq!(q.ncols(), n);
        // Q^H Q = I
        let mut qhq = Matrix::<f64>::zeros(n, n);
        gemm(Op::ConjTrans, Op::NoTrans, 1.0, q.as_ref(), q.as_ref(), 0.0, qhq.as_mut());
        for j in 0..n {
            assert!((qhq[(j, j)] - 1.0).abs() < 1e-12);
        }
        // reconstruction of the stacked matrix
        let r = extract_r(&w);
        let mut recon = Matrix::<f64>::zeros(2 * n, n);
        gemm(Op::NoTrans, Op::NoTrans, 1.0, q.as_ref(), r.as_ref(), 0.0, recon.as_mut());
        let mut diff = recon.clone();
        polar_blas::add(-1.0, w0.as_ref(), 1.0, diff.as_mut());
        let fro: f64 = norm(Norm::Fro, diff.as_ref());
        assert!(fro < 1e-12);
    }
}
