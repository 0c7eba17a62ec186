//! Hermitian rank-k update and symmetrization helpers.

use crate::gemm::gemm;
use crate::params::fork_join;
use polar_matrix::{MatMut, MatRef, Op, Uplo};
use polar_scalar::{Real, Scalar};

/// Diagonal blocks at or below this order fall back to the direct
/// per-column kernel.
const HERK_BASE: usize = 64;

/// So do blocks of at most this many multiply-adds (`n^2 k / 2`): with a
/// shallow `k` the off-diagonal gemm cannot amortize its packing. Both
/// decide which kernel sums an entry, so no fork setting moves them.
const HERK_MIN_WORK: usize = 1 << 16;

/// Hermitian rank-k update on the `uplo` triangle of `C`:
///
/// * `op = NoTrans`:   `C := alpha * A * A^H + beta * C` (`A` is `n x k`);
/// * `op = ConjTrans`: `C := alpha * A^H * A + beta * C` (`A` is `k x n`).
///
/// `alpha` and `beta` are real, as in BLAS `herk`. Only the `uplo` triangle
/// of `C` is referenced or written, so the update costs half of the
/// equivalent gemm.
///
/// Implementation: recursive triangle split. The two diagonal blocks
/// recurse (in parallel where the caller has lanes to fork to); the
/// off-diagonal block is a plain gemm and runs through the packed kernel.
/// QDWH uses this to form `Z = I + c * A^H A` for the Cholesky-based
/// iteration (Eq. (2); Algorithm 1 line 40 prints `-c`, but `Z` must be
/// `I + c A^H A` to be positive definite — we follow Eq. (2)).
pub fn herk<S: Scalar>(
    uplo: Uplo,
    op: Op,
    alpha: S::Real,
    a: MatRef<'_, S>,
    beta: S::Real,
    c: MatMut<'_, S>,
) {
    assert!(op != Op::Trans || !S::IS_COMPLEX, "herk takes NoTrans or ConjTrans");
    let n = c.nrows();
    assert_eq!(c.ncols(), n, "herk: C must be square");
    let k = match op {
        Op::NoTrans => {
            assert_eq!(a.nrows(), n, "herk: A rows mismatch");
            a.ncols()
        }
        _ => {
            assert_eq!(a.ncols(), n, "herk: A cols mismatch");
            a.nrows()
        }
    };
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Herk,
        "herk",
        crate::flops::type_factor(S::IS_COMPLEX) * crate::flops::herk(n, k),
        [n, n, k],
    );
    herk_rec(uplo, op, alpha, a, beta, c, k);
}

/// [`herk`] on the `uplo` triangle, then mirror so all of `C` holds the
/// Hermitian result — still half the multiply flops of the full gemm.
pub fn herk_mirrored<S: Scalar>(
    uplo: Uplo,
    op: Op,
    alpha: S::Real,
    a: MatRef<'_, S>,
    beta: S::Real,
    mut c: MatMut<'_, S>,
) {
    herk(uplo, op, alpha, a, beta, c.rb());
    mirror_triangle(uplo, c);
}

/// Recursive triangle split (see [`herk`]).
#[allow(clippy::too_many_arguments)] // BLAS herk signature + inner dim
fn herk_rec<S: Scalar>(
    uplo: Uplo,
    op: Op,
    alpha: S::Real,
    a: MatRef<'_, S>,
    beta: S::Real,
    c: MatMut<'_, S>,
    k: usize,
) {
    let n = c.nrows();
    let work = n.saturating_mul(n).saturating_mul(k.max(1)) / 2;
    if n <= HERK_BASE || work <= HERK_MIN_WORK {
        herk_seq(uplo, op, alpha, a, beta, c, k);
        return;
    }
    let h = n / 2;
    // A split along the output dimension: rows for NoTrans, cols otherwise
    let (a1, a2) = match op {
        Op::NoTrans => a.split_at_row(h),
        _ => a.split_at_col(h),
    };
    let (ctop, cbot) = c.split_at_row(h);
    let (c11, c12) = ctop.split_at_col(h);
    let (c21, c22) = cbot.split_at_col(h);
    let galpha = S::from_real(alpha);
    let gbeta = S::from_real(beta);
    // off-diagonal block: a full (packed) gemm, half the remaining work
    let off = move || match (uplo, op) {
        // C21 = alpha * A2 * A1^H + beta * C21
        (Uplo::Lower, Op::NoTrans) => gemm(Op::NoTrans, Op::ConjTrans, galpha, a2, a1, gbeta, c21),
        // C21 = alpha * op(A)_2 * A1 + beta * C21  (op is (Conj)Trans)
        (Uplo::Lower, _) => gemm(op, Op::NoTrans, galpha, a2, a1, gbeta, c21),
        // C12 = alpha * A1 * A2^H + beta * C12
        (Uplo::Upper, Op::NoTrans) => gemm(Op::NoTrans, Op::ConjTrans, galpha, a1, a2, gbeta, c12),
        // C12 = alpha * op(A)_1 * A2 + beta * C12
        (Uplo::Upper, _) => gemm(op, Op::NoTrans, galpha, a1, a2, gbeta, c12),
    };
    // the gemm is half the work, each diagonal block a quarter
    fork_join(
        work,
        || {
            fork_join(
                work / 2,
                || herk_rec(uplo, op, alpha, a1, beta, c11, k),
                || herk_rec(uplo, op, alpha, a2, beta, c22, k),
            )
        },
        off,
    );
}

/// Direct per-column kernel on the stored triangle of a diagonal block.
fn herk_seq<S: Scalar>(
    uplo: Uplo,
    op: Op,
    alpha: S::Real,
    a: MatRef<'_, S>,
    beta: S::Real,
    mut c: MatMut<'_, S>,
    k: usize,
) {
    let n_total = c.nrows();
    for j in 0..c.ncols() {
        // triangle row range for this column
        let (lo, hi) = match uplo {
            Uplo::Upper => (0usize, j + 1),
            Uplo::Lower => (j, n_total),
        };
        // beta pass
        {
            let cj = c.col_mut(j);
            if beta == S::Real::ZERO {
                for x in &mut cj[lo..hi] {
                    *x = S::ZERO;
                }
            } else if beta != S::Real::ONE {
                for x in &mut cj[lo..hi] {
                    *x = x.mul_real(beta);
                }
            }
        }
        if alpha == S::Real::ZERO || k == 0 {
            continue;
        }
        match op {
            Op::ConjTrans | Op::Trans => {
                // C[i,j] += alpha * a_i^H a_j (columns of A are contiguous)
                let aj = a.col(j);
                for i in lo..hi {
                    let ai = a.col(i);
                    let mut acc = S::ZERO;
                    if S::IS_COMPLEX {
                        for (x, y) in ai.iter().zip(aj) {
                            acc += x.conj() * *y;
                        }
                    } else {
                        for (x, y) in ai.iter().zip(aj) {
                            acc += *x * *y;
                        }
                    }
                    let cur = c.at(i, j);
                    c.set(i, j, cur + acc.mul_real(alpha));
                }
            }
            Op::NoTrans => {
                // C[i,j] += alpha * sum_l A[i,l] conj(A[j,l]): axpy over i
                for l in 0..k {
                    let factor = a.at(j, l).conj().mul_real(alpha);
                    if factor == S::ZERO {
                        continue;
                    }
                    let al = a.col(l);
                    let cj = c.col_mut(j);
                    for i in lo..hi {
                        cj[i] += factor * al[i];
                    }
                }
            }
        }
        // enforce an exactly-real diagonal as BLAS herk does
        if S::IS_COMPLEX && j >= lo && j < hi {
            let d = c.at(j, j);
            c.set(j, j, S::from_real(d.re()));
        }
    }
}

/// Fill the opposite triangle so the `uplo` triangle's content defines a
/// full Hermitian matrix, and average the diagonal to be exactly real.
pub fn mirror_triangle<S: Scalar>(uplo: Uplo, mut c: MatMut<'_, S>) {
    let n = c.nrows();
    assert_eq!(c.ncols(), n);
    for j in 0..n {
        for i in 0..j {
            match uplo {
                Uplo::Upper => {
                    let v = c.at(i, j);
                    c.set(j, i, v.conj());
                }
                Uplo::Lower => {
                    let v = c.at(j, i);
                    c.set(i, j, v.conj());
                }
            }
        }
    }
}

/// In-place Hermitian symmetrization: `H := (H + H^H) / 2`.
///
/// Applied to the polar factor `H = U_p^H A` after Algorithm 1 line 52, as
/// is standard for QDWH implementations (POLAR does the same).
pub fn symmetrize<S: Scalar>(mut h: MatMut<'_, S>) {
    let n = h.nrows();
    assert_eq!(h.ncols(), n, "symmetrize: square only");
    let half = S::Real::ONE / (S::Real::ONE + S::Real::ONE);
    for j in 0..n {
        for i in 0..j {
            let v = (h.at(i, j) + h.at(j, i).conj()).mul_real(half);
            h.set(i, j, v);
            h.set(j, i, v.conj());
        }
        let d = h.at(j, j);
        h.set(j, j, S::from_real(d.re()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_ref;
    use polar_matrix::Matrix;
    use polar_scalar::Complex64;

    fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn herk_vs_gemm(uplo: Uplo, op: Op, n: usize, k: usize) {
        let a = match op {
            Op::NoTrans => rand_mat(n, k, 7),
            _ => rand_mat(k, n, 7),
        };
        let c0 = rand_mat(n, n, 8);
        let mut c_herk = c0.clone();
        herk(uplo, op, 1.25, a.as_ref(), 0.75, c_herk.as_mut());

        let mut c_gemm = c0.clone();
        let opb = if op == Op::NoTrans { Op::Trans } else { Op::NoTrans };
        let opa = op;
        gemm_ref(opa, opb, 1.25, a.as_ref(), a.as_ref(), 0.75, c_gemm.as_mut());
        // compare only the computed triangle
        for j in 0..n {
            for i in 0..n {
                let in_tri = match uplo {
                    Uplo::Upper => i <= j,
                    Uplo::Lower => i >= j,
                };
                if in_tri {
                    assert!(
                        (c_herk[(i, j)] - c_gemm[(i, j)]).abs() < 1e-11,
                        "({i},{j}) {uplo:?} {op:?}"
                    );
                } else {
                    assert_eq!(c_herk[(i, j)], c0[(i, j)], "other triangle untouched");
                }
            }
        }
    }

    #[test]
    fn herk_matches_gemm_all_variants() {
        for uplo in [Uplo::Upper, Uplo::Lower] {
            for op in [Op::NoTrans, Op::Trans] {
                herk_vs_gemm(uplo, op, 13, 9);
                herk_vs_gemm(uplo, op, 9, 13);
            }
        }
    }

    #[test]
    fn herk_parallel_sizes() {
        herk_vs_gemm(Uplo::Lower, Op::Trans, 120, 80);
        herk_vs_gemm(Uplo::Upper, Op::NoTrans, 120, 80);
    }

    #[test]
    fn herk_recursive_split_sizes() {
        // orders above HERK_BASE exercise the triangle-split path on both
        // triangles and both ops, including odd sizes
        herk_vs_gemm(Uplo::Lower, Op::Trans, 129, 40);
        herk_vs_gemm(Uplo::Upper, Op::Trans, 129, 40);
        herk_vs_gemm(Uplo::Lower, Op::NoTrans, 130, 33);
        herk_vs_gemm(Uplo::Upper, Op::NoTrans, 130, 33);
    }

    #[test]
    fn herk_complex_recursive_both_ops() {
        let n = 97;
        let k = 23;
        for (uplo, op) in
            [(Uplo::Lower, Op::ConjTrans), (Uplo::Upper, Op::ConjTrans), (Uplo::Lower, Op::NoTrans)]
        {
            let a = match op {
                Op::NoTrans => {
                    Matrix::from_fn(n, k, |i, j| Complex64::new(i as f64 * 0.01, j as f64 * 0.02))
                }
                _ => Matrix::from_fn(k, n, |i, j| Complex64::new(i as f64 * 0.01, j as f64 * 0.02)),
            };
            let mut c1 = Matrix::<Complex64>::zeros(n, n);
            let mut c2 = Matrix::<Complex64>::zeros(n, n);
            herk(uplo, op, 1.0, a.as_ref(), 0.0, c1.as_mut());
            let one = Complex64::from_real(1.0);
            match op {
                Op::NoTrans => gemm_ref(
                    Op::NoTrans,
                    Op::ConjTrans,
                    one,
                    a.as_ref(),
                    a.as_ref(),
                    Complex64::ZERO,
                    c2.as_mut(),
                ),
                _ => gemm_ref(
                    Op::ConjTrans,
                    Op::NoTrans,
                    one,
                    a.as_ref(),
                    a.as_ref(),
                    Complex64::ZERO,
                    c2.as_mut(),
                ),
            }
            for j in 0..n {
                for i in 0..n {
                    let in_tri = match uplo {
                        Uplo::Upper => i <= j,
                        Uplo::Lower => i >= j,
                    };
                    if in_tri {
                        assert!(
                            (c1[(i, j)] - c2[(i, j)]).abs() < 1e-9,
                            "({i},{j}) {uplo:?} {op:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn herk_complex_real_diagonal() {
        let a = Matrix::from_fn(3, 5, |i, j| Complex64::new(i as f64 - 1.0, j as f64 + 0.5));
        let mut c = Matrix::<Complex64>::zeros(5, 5);
        herk(Uplo::Upper, Op::ConjTrans, 1.0, a.as_ref(), 0.0, c.as_mut());
        for j in 0..5 {
            assert_eq!(c[(j, j)].im, 0.0, "diagonal must be exactly real");
            assert!(c[(j, j)].re >= 0.0, "A^H A diagonal is nonnegative");
        }
    }

    #[test]
    fn herk_mirrored_fills_both_triangles() {
        let a = rand_mat(90, 40, 17);
        let mut c = rand_mat(90, 90, 18);
        herk_mirrored(Uplo::Lower, Op::NoTrans, 2.0, a.as_ref(), 0.0, c.as_mut());
        let mut full = Matrix::<f64>::zeros(90, 90);
        gemm_ref(Op::NoTrans, Op::Trans, 2.0, a.as_ref(), a.as_ref(), 0.0, full.as_mut());
        for j in 0..90 {
            for i in 0..90 {
                assert!((c[(i, j)] - full[(i, j)]).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn symmetrize_produces_hermitian() {
        let mut h =
            Matrix::from_fn(4, 4, |i, j| Complex64::new((i * j) as f64, i as f64 - j as f64 + 0.3));
        symmetrize(h.as_mut());
        for j in 0..4 {
            for i in 0..4 {
                assert_eq!(h[(i, j)], h[(j, i)].conj());
            }
            assert_eq!(h[(j, j)].im, 0.0);
        }
    }

    #[test]
    fn mirror_triangle_copies_conjugate() {
        let mut c = Matrix::<Complex64>::zeros(3, 3);
        c[(0, 2)] = Complex64::new(1.0, 2.0);
        c[(0, 0)] = Complex64::from_real(5.0);
        mirror_triangle(Uplo::Upper, c.as_mut());
        assert_eq!(c[(2, 0)], Complex64::new(1.0, -2.0));
    }
}
