//! Hermitian rank-k update and symmetrization helpers.

use crate::packed::{gemm_packed, Mask};
use crate::params::fork_lanes;
use polar_matrix::{MatMut, MatRef, Op, Uplo};
use polar_scalar::{Real, Scalar};

/// Narrowest column slab of the triangle a forked [`herk`] hands to one
/// leaf: every leaf packs its own rows of `op(A)`, so the useful
/// multiply-adds per redundantly packed element equal the slab width.
const HERK_MIN_SLAB: usize = 64;

/// Hermitian rank-k update on the `uplo` triangle of `C`:
///
/// * `op = NoTrans`:   `C := alpha * A * A^H + beta * C` (`A` is `n x k`);
/// * `op = ConjTrans`: `C := alpha * A^H * A + beta * C` (`A` is `k x n`).
///
/// `alpha` and `beta` are real, as in BLAS `herk`. Only the `uplo` triangle
/// of `C` is referenced or written, so the update costs half of the
/// equivalent gemm.
///
/// Implementation: one pass of the packed kernel under a triangle mask
/// (`packed::Mask::C`): micro-tiles outside the triangle are skipped, the
/// ones on the diagonal merge their in-triangle rows. A caller with lanes
/// to fork to ([`fork_lanes`]) gets the triangle cut into column slabs of
/// equal area, one masked pass each; an entry is summed by the same
/// microkernel in the same k-order wherever the cuts fall.
/// QDWH uses this to form `Z = I + c * A^H A` for the Cholesky-based
/// iteration (Eq. (2); Algorithm 1 line 40 prints `-c`, but `Z` must be
/// `I + c A^H A` to be positive definite — we follow Eq. (2)).
pub fn herk<S: Scalar>(
    uplo: Uplo,
    op: Op,
    alpha: S::Real,
    a: MatRef<'_, S>,
    mut beta: S::Real,
    mut c: MatMut<'_, S>,
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
    let idle = k == 0 || alpha == S::Real::ZERO;
    // a general beta is applied up front: a full micro-tile fuses
    // `beta * c` into its writeback and a fringe one does not, and which of
    // the two an entry lands in moves with the slab cuts
    if beta != S::Real::ONE && (beta != S::Real::ZERO || idle) {
        for j in 0..n {
            let cj = c.col_mut(j);
            for x in if uplo == Uplo::Lower { &mut cj[j..] } else { &mut cj[..=j] } {
                *x = if beta == S::Real::ZERO { S::ZERO } else { x.mul_real(beta) };
            }
        }
        beta = S::Real::ONE;
    }
    if idle {
        return;
    }
    let lanes = fork_lanes(n.saturating_mul(n).saturating_mul(k) / 2);
    let parts = if lanes > 1 { 4 * lanes } else { 1 };
    herk_slabs(uplo, op, S::from_real(alpha), a, S::from_real(beta), c.rb(), 0, parts);
    if S::IS_COMPLEX {
        // an exactly real diagonal, as BLAS herk leaves it
        for j in 0..n {
            let d = c.at(j, j);
            c.set(j, j, S::from_real(d.re()));
        }
    }
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

/// The triangle's columns `j0..j0 + c.ncols()` in `parts` slabs. `c` is the
/// block of `C` those columns' stored entries span: rows `j0..n` (lower) or
/// `0..j0 + c.ncols()` (upper).
#[allow(clippy::too_many_arguments)] // BLAS herk signature + the slab
fn herk_slabs<S: Scalar>(
    uplo: Uplo,
    op: Op,
    alpha: S,
    a: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
    j0: usize,
    parts: usize,
) {
    let (rows, w) = (c.nrows(), c.ncols());
    let r0 = if uplo == Uplo::Lower { j0 } else { 0 };
    if parts < 2 || w < 2 * HERK_MIN_SLAB {
        // op(A)'s rows r0.. against its rows j0..: both operands of one
        // masked gemm
        let (ar, ac, op_c) = match op {
            Op::NoTrans => {
                let k = a.ncols();
                (a.submatrix(r0, 0, rows, k), a.submatrix(j0, 0, w, k), Op::ConjTrans)
            }
            _ => {
                let k = a.nrows();
                (a.submatrix(0, r0, k, rows), a.submatrix(0, j0, k, w), Op::NoTrans)
            }
        };
        let mask = Mask::C(uplo, r0 as isize - j0 as isize);
        return gemm_packed(op, op_c, alpha, ar, ac, beta, c, mask);
    }
    // cut where both sides hold half of the stored entries
    let stored = |j: usize| if uplo == Uplo::Lower { rows - j } else { j0 + j + 1 };
    let total: usize = (0..w).map(stored).sum();
    let mut left = 0;
    let half = (0..w).find(|&j| {
        left += stored(j);
        2 * left >= total
    });
    let h = half.map_or(w / 2, |j| j + 1).clamp(HERK_MIN_SLAB, w - HERK_MIN_SLAB);
    let (cl, cr) = c.split_at_col(h);
    let (cl, cr) = match uplo {
        Uplo::Lower => (cl, cr.split_at_row(h).1),
        Uplo::Upper => (cl.split_at_row(j0 + h).0, cr),
    };
    rayon::join(
        || herk_slabs(uplo, op, alpha, a, beta, cl, j0, parts / 2),
        || herk_slabs(uplo, op, alpha, a, beta, cr, j0 + h, parts - parts / 2),
    );
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
    fn herk_above_one_row_block() {
        // orders above MC span two row blocks of the masked pass, on both
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
