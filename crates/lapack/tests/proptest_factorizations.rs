//! Property-based tests of the factorization contracts over random
//! shapes and contents.

use polar_blas::{add, gemm, norm};
use polar_lapack::{
    geqrf, geqrf_tiled, geqrt_blocked, getrf, getrs, jacobi_eig, jacobi_svd, norm2est, orgqr,
    orgqr_tiled, potrf, potrf_tiled, unmqr_tile_blocked,
};
use polar_matrix::{Matrix, Norm, Op, Uplo};
use polar_scalar::{Complex32, Complex64, Real, Scalar};
use proptest::prelude::*;

fn mat(m: usize, n: usize, seed: u64) -> Matrix<f64> {
    let mut s = seed | 1;
    Matrix::from_fn(m, n, |_, _| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

fn fro_diff(a: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
    let mut d = a.clone();
    add(-1.0, b.as_ref(), 1.0, d.as_mut());
    norm(Norm::Fro, d.as_ref())
}

/// Random matrix in any of the four scalar types (the imaginary draw is
/// discarded by the real instantiations).
fn mat_s<S: Scalar>(m: usize, n: usize, seed: u64) -> Matrix<S> {
    let mut s = seed | 1;
    Matrix::from_fn(m, n, |_, _| {
        let mut draw = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let (re, im) = (draw(), draw());
        S::from_parts(S::Real::from_f64(re), S::Real::from_f64(im))
    })
}

/// The tiled QR must reconstruct A, produce an orthonormal Q, and agree
/// with the flat `geqrf` R factor (unique up to unit phases).
fn check_tiled_qr_s<S: Scalar>(m: usize, n: usize, nb: usize, seed: u64, tol: f64) {
    let a0 = mat_s::<S>(m, n, seed);
    let k = m.min(n);
    let mut f = geqrf_tiled(&a0, nb);
    let q = orgqr_tiled(&mut f, k);
    let mut qhq = Matrix::<S>::identity(k, k);
    gemm(Op::ConjTrans, Op::NoTrans, S::ONE, q.as_ref(), q.as_ref(), -S::ONE, qhq.as_mut());
    let orth = norm(Norm::Fro, qhq.as_ref()).to_f64();
    assert!(orth <= tol * (1.0 + k as f64), "||QhQ - I|| = {orth} (m={m} n={n} nb={nb})");
    let r = f.extract_r();
    let mut qr = a0.clone();
    gemm(Op::NoTrans, Op::NoTrans, S::ONE, q.as_ref(), r.as_ref(), -S::ONE, qr.as_mut());
    let err = norm(Norm::Fro, qr.as_ref()).to_f64();
    let scale = norm(Norm::Fro, a0.as_ref()).to_f64();
    assert!(err <= tol * (1.0 + scale), "||QR - A|| = {err} (m={m} n={n} nb={nb})");
    let mut af = a0.clone();
    let _ = geqrf(&mut af);
    for j in 0..k {
        let (dt, df) = (r[(j, j)].abs().to_f64(), af[(j, j)].abs().to_f64());
        assert!((dt - df).abs() <= tol * (1.0 + df), "|R[{j},{j}]| {dt} vs flat {df} (nb={nb})");
    }
}

/// The tiled Cholesky factor must match the flat one directly (the
/// factorization is unique, so only rounding separates the two paths).
fn check_tiled_potrf_s<S: Scalar>(n: usize, nb: usize, seed: u64, tol: f64) {
    let g = mat_s::<S>(n, n, seed);
    let mut a = Matrix::<S>::identity(n, n);
    polar_blas::scale(S::from_f64(1.0 + n as f64), a.as_mut());
    gemm(Op::ConjTrans, Op::NoTrans, S::ONE, g.as_ref(), g.as_ref(), S::ONE, a.as_mut());
    let mut at = a.clone();
    let mut af = a;
    potrf_tiled(Uplo::Lower, &mut at, nb).unwrap();
    potrf(Uplo::Lower, &mut af).unwrap();
    let lf = Matrix::from_fn(n, n, |i, j| if i >= j { af[(i, j)] } else { S::ZERO });
    let mut diff = Matrix::from_fn(n, n, |i, j| if i >= j { at[(i, j)] } else { S::ZERO });
    add(-S::ONE, lf.as_ref(), S::ONE, diff.as_mut());
    let err = norm(Norm::Fro, diff.as_ref()).to_f64();
    let scale = norm(Norm::Fro, lf.as_ref()).to_f64();
    assert!(err <= tol * (1.0 + scale), "||L_tiled - L_flat|| = {err} (n={n} nb={nb})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn qr_residual_and_orthogonality(m in 1usize..40, extra in 0usize..20, seed in 0u64..500, ib in 1usize..12) {
        let n = m.min(1 + seed as usize % 20);
        let m = n + extra;
        let a0 = mat(m, n, seed);
        let mut a = a0.clone();
        let t = geqrt_blocked(&mut a, ib);
        let q = orgqr(&a, &t);
        let r = Matrix::from_fn(n, n, |i, j| if i <= j { a[(i, j)] } else { 0.0 });
        let mut qr = Matrix::<f64>::zeros(m, n);
        gemm(Op::NoTrans, Op::NoTrans, 1.0, q.as_ref(), r.as_ref(), 0.0, qr.as_mut());
        let scale: f64 = norm(Norm::Fro, a0.as_ref());
        prop_assert!(fro_diff(&qr, &a0) <= 1e-12 * (1.0 + scale), "ib={ib}");
        // R upper triangular
        for j in 0..n {
            for i in j + 1..r.nrows() {
                prop_assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn qr_block_size_invariance(seed in 0u64..200) {
        // the factorization's Q R product must not depend on the block size
        let a0 = mat(30, 18, seed);
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        geqrt_blocked(&mut a1, 1);
        geqrt_blocked(&mut a2, 7);
        // R is unique up to signs; compare |diag|
        for j in 0..18 {
            prop_assert!((a1[(j, j)].abs() - a2[(j, j)].abs()).abs() < 1e-10);
        }
    }

    #[test]
    fn cholesky_of_gram_matrix(n in 1usize..30, k in 1usize..30, seed in 0u64..300) {
        // A = G^T G + eps I is SPD for any G
        let g = mat(k, n, seed);
        let mut a = Matrix::<f64>::identity(n, n);
        polar_blas::scale(1e-6 + n as f64, a.as_mut());
        gemm(Op::Trans, Op::NoTrans, 1.0, g.as_ref(), g.as_ref(), 1.0, a.as_mut());
        let a0 = a.clone();
        prop_assert!(potrf(Uplo::Lower, &mut a).is_ok());
        let l = Matrix::from_fn(n, n, |i, j| if i >= j { a[(i, j)] } else { 0.0 });
        let mut recon = Matrix::<f64>::zeros(n, n);
        gemm(Op::NoTrans, Op::ConjTrans, 1.0, l.as_ref(), l.as_ref(), 0.0, recon.as_mut());
        let scale: f64 = norm(Norm::Fro, a0.as_ref());
        prop_assert!(fro_diff(&recon, &a0) <= 1e-11 * (1.0 + scale));
    }

    #[test]
    fn lu_solve_roundtrip(n in 1usize..25, nrhs in 1usize..5, seed in 0u64..300) {
        let a = {
            // diagonally dominated => comfortably nonsingular
            let mut a = mat(n, n, seed);
            for i in 0..n {
                a[(i, i)] += 3.0 * n as f64 * a[(i, i)].signum().max(0.5);
            }
            a
        };
        let x_true = mat(n, nrhs, seed ^ 0xabc);
        let mut b = Matrix::<f64>::zeros(n, nrhs);
        gemm(Op::NoTrans, Op::NoTrans, 1.0, a.as_ref(), x_true.as_ref(), 0.0, b.as_mut());
        let f = getrf(&a).unwrap();
        getrs(Op::NoTrans, &f, &mut b).unwrap();
        prop_assert!(fro_diff(&b, &x_true) < 1e-8 * (1.0 + norm::<f64>(Norm::Fro, x_true.as_ref())));
    }

    #[test]
    fn norm2est_bounded_by_fro(m in 1usize..40, n in 1usize..40, seed in 0u64..300) {
        let a = mat(m, n, seed);
        let est = norm2est(&a).estimate;
        let fro: f64 = norm(Norm::Fro, a.as_ref());
        // sigma_max <= fro; power iteration converges from below-ish but
        // never exceeds fro beyond roundoff
        prop_assert!(est <= fro * (1.0 + 1e-10));
        // and est >= max column norm / small factor
        let max_col = (0..n).map(|j| polar_blas::nrm2::<f64>(a.col(j))).fold(0.0f64, f64::max);
        prop_assert!(est >= max_col * 0.5, "est {est} vs col {max_col}");
    }

    #[test]
    fn svd_eig_consistency_on_gram(n in 2usize..16, seed in 0u64..150) {
        // eig(A^T A) eigenvalues == svd(A) sigma^2
        let a = mat(n + 3, n, seed);
        let svd = jacobi_svd(&a).unwrap();
        let mut gram = Matrix::<f64>::zeros(n, n);
        gemm(Op::Trans, Op::NoTrans, 1.0, a.as_ref(), a.as_ref(), 0.0, gram.as_mut());
        let eig = jacobi_eig(&gram).unwrap();
        for (l, s) in eig.values.iter().zip(&svd.sigma) {
            prop_assert!((l - s * s).abs() < 1e-9 * (1.0 + s * s), "{l} vs {}", s * s);
        }
    }

    #[test]
    fn tiled_qr_matches_flat_all_types(n in 1usize..36, extra in 0usize..24, nb in 4usize..48, seed in 0u64..300) {
        // covers square (extra = 0), tall, prime shapes, m % nb != 0, and
        // nb > n (single-tile degenerate case) across all four scalar types
        let m = n + extra;
        check_tiled_qr_s::<f32>(m, n, nb, seed, 2e-3);
        check_tiled_qr_s::<f64>(m, n, nb, seed, 1e-11);
        check_tiled_qr_s::<Complex32>(m, n, nb, seed ^ 0x9e37, 2e-3);
        check_tiled_qr_s::<Complex64>(m, n, nb, seed ^ 0x9e37, 1e-11);
    }

    #[test]
    fn tiled_potrf_matches_flat_all_types(n in 1usize..40, nb in 4usize..48, seed in 0u64..300) {
        check_tiled_potrf_s::<f32>(n, nb, seed, 2e-4);
        check_tiled_potrf_s::<f64>(n, nb, seed, 1e-12);
        check_tiled_potrf_s::<Complex32>(n, nb, seed ^ 0x517c, 2e-4);
        check_tiled_potrf_s::<Complex64>(n, nb, seed ^ 0x517c, 1e-12);
    }

    #[test]
    fn geqrf_then_unmqr_preserves_norms(m in 2usize..30, seed in 0u64..200) {
        let n = 1 + (seed as usize % m.min(15));
        let mut a = mat(m, n, seed);
        let t = geqrf(&mut a);
        let c0 = mat(m, 3, seed ^ 0x77);
        let mut c = c0.clone();
        unmqr_tile_blocked(Op::ConjTrans, &a, &t, c.as_mut());
        // unitary application preserves Frobenius norm
        let n0: f64 = norm(Norm::Fro, c0.as_ref());
        let n1: f64 = norm(Norm::Fro, c.as_ref());
        prop_assert!((n0 - n1).abs() <= 1e-11 * (1.0 + n0));
    }
}

/// A tiled QR on one worker (the sequential drain) and on three (the
/// parallel one) must be bitwise identical: the tile DAG's results are
/// schedule-independent by construction.
#[test]
fn tiled_qr_bits_do_not_depend_on_the_pool_width() {
    fn on<R: Send>(workers: usize, run: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPool::new(workers).install(run)
    }
    let run_f64 = || {
        let a = mat(67, 45, 42);
        let mut f = geqrf_tiled(&a, 16);
        (orgqr_tiled(&mut f, 45), f.extract_r())
    };
    let (q1, r1) = on(1, run_f64);
    let (q2, r2) = on(3, run_f64);
    for (x, y) in [(&q1, &q2), (&r1, &r2)] {
        for j in 0..x.ncols() {
            for i in 0..x.nrows() {
                assert_eq!(x[(i, j)].to_bits(), y[(i, j)].to_bits(), "f64 at ({i},{j})");
            }
        }
    }
    let run_z64 = || {
        let a = mat_s::<Complex64>(52, 38, 7);
        let mut f = geqrf_tiled(&a, 16);
        (orgqr_tiled(&mut f, 38), f.extract_r())
    };
    let (q1, r1) = on(1, run_z64);
    let (q2, r2) = on(3, run_z64);
    for (x, y) in [(&q1, &q2), (&r1, &r2)] {
        for j in 0..x.ncols() {
            for i in 0..x.nrows() {
                let (u, v) = (x[(i, j)], y[(i, j)]);
                assert_eq!(u.re.to_bits(), v.re.to_bits(), "z64 re at ({i},{j})");
                assert_eq!(u.im.to_bits(), v.im.to_bits(), "z64 im at ({i},{j})");
            }
        }
    }
}
