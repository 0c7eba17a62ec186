//! Property-based tests for the BLAS kernels: algebraic identities that
//! must hold for random shapes and contents.

use polar_blas::{add, gemm, gemm_ref, herk, norm, scale, trsm};
use polar_matrix::{Diag, MatMut, Matrix, Norm, Op, Side, Uplo};
use proptest::prelude::*;

fn mat(m: usize, n: usize) -> impl Strategy<Value = Matrix<f64>> {
    proptest::collection::vec(-10.0f64..10.0, m * n)
        .prop_map(move |v| Matrix::from_col_major(m, n, v))
}

fn dims3() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..20, 1usize..20, 1usize..20)
}

fn max_abs_diff(a: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
    let mut d = 0.0f64;
    for j in 0..a.ncols() {
        for i in 0..a.nrows() {
            d = d.max((a[(i, j)] - b[(i, j)]).abs());
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_matches_reference((m, n, k) in dims3(), seed in 0u64..1000) {
        let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17 + seed as usize) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 3 + seed as usize) % 11) as f64 - 5.0);
        let mut c1 = Matrix::from_fn(m, n, |i, j| (i + j) as f64);
        let mut c2 = c1.clone();
        gemm_ref(Op::NoTrans, Op::NoTrans, 1.5, a.as_ref(), b.as_ref(), -0.5, c1.as_mut());
        gemm(Op::NoTrans, Op::NoTrans, 1.5, a.as_ref(), b.as_ref(), -0.5, c2.as_mut());
        prop_assert!(max_abs_diff(&c1, &c2) < 1e-10);
    }

    #[test]
    fn gemm_identity_is_noop(a in (1usize..15, 1usize..15).prop_flat_map(|(m, n)| mat(m, n))) {
        let m = a.nrows();
        let id = Matrix::<f64>::identity(m, m);
        let mut c = Matrix::zeros(m, a.ncols());
        gemm(Op::NoTrans, Op::NoTrans, 1.0, id.as_ref(), a.as_ref(), 0.0, c.as_mut());
        prop_assert!(max_abs_diff(&c, &a) < 1e-13);
    }

    #[test]
    fn gemm_is_linear_in_alpha(a in mat(9, 7), b in mat(7, 5), alpha in -3.0f64..3.0) {
        let mut c1 = Matrix::zeros(9, 5);
        let mut c2 = Matrix::zeros(9, 5);
        gemm(Op::NoTrans, Op::NoTrans, alpha, a.as_ref(), b.as_ref(), 0.0, c1.as_mut());
        gemm(Op::NoTrans, Op::NoTrans, 1.0, a.as_ref(), b.as_ref(), 0.0, c2.as_mut());
        scale(alpha, c2.as_mut());
        prop_assert!(max_abs_diff(&c1, &c2) < 1e-9);
    }

    #[test]
    fn transpose_product_identity(a in mat(8, 6), b in mat(6, 4)) {
        // (A B)^T == B^T A^T
        let mut ab = Matrix::zeros(8, 4);
        gemm(Op::NoTrans, Op::NoTrans, 1.0, a.as_ref(), b.as_ref(), 0.0, ab.as_mut());
        let abt = ab.transposed(Op::Trans);
        let mut btat = Matrix::zeros(4, 8);
        gemm(Op::Trans, Op::Trans, 1.0, b.as_ref(), a.as_ref(), 0.0, btat.as_mut());
        prop_assert!(max_abs_diff(&abt, &btat) < 1e-10);
    }

    #[test]
    fn norm_one_is_inf_of_transpose(a in (1usize..15, 1usize..15).prop_flat_map(|(m, n)| mat(m, n))) {
        let at = a.transposed(Op::Trans);
        let n1: f64 = norm(Norm::One, a.as_ref());
        let ninf: f64 = norm(Norm::Inf, at.as_ref());
        prop_assert!((n1 - ninf).abs() < 1e-12);
    }

    #[test]
    fn norm_scaling_homogeneous(a in mat(6, 6), s in 0.0f64..5.0) {
        let mut b = a.clone();
        scale(s, b.as_mut());
        for which in [Norm::One, Norm::Inf, Norm::Fro, Norm::Max] {
            let na: f64 = norm(which, a.as_ref());
            let nb: f64 = norm(which, b.as_ref());
            prop_assert!((nb - s * na).abs() <= 1e-10 * (1.0 + na), "{which:?}");
        }
    }

    #[test]
    fn trsm_then_trmm_roundtrip(n in 1usize..12, nrhs in 1usize..8, seed in 0u64..100) {
        // L X = B, then L X should reproduce B
        let l = Matrix::from_fn(n, n, |i, j| {
            if i > j {
                (((i * 13 + j * 7 + seed as usize) % 9) as f64 - 4.0) * 0.2
            } else if i == j {
                2.0 + (i % 3) as f64
            } else {
                0.0
            }
        });
        let b0 = Matrix::from_fn(n, nrhs, |i, j| (i * 2 + j) as f64 - 3.0);
        let mut x = b0.clone();
        trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 1.0, l.as_ref(), x.as_mut());
        let mut recon = Matrix::zeros(n, nrhs);
        gemm(Op::NoTrans, Op::NoTrans, 1.0, l.as_ref(), x.as_ref(), 0.0, recon.as_mut());
        prop_assert!(max_abs_diff(&recon, &b0) < 1e-8);
    }

    #[test]
    fn herk_triangle_agrees_with_full_product(n in 1usize..12, k in 1usize..12) {
        let a = Matrix::from_fn(k, n, |i, j| ((i * 5 + j * 11) % 7) as f64 - 3.0);
        let mut c = Matrix::zeros(n, n);
        herk(Uplo::Lower, Op::Trans, 1.0, a.as_ref(), 0.0, c.as_mut());
        let mut full = Matrix::zeros(n, n);
        gemm(Op::Trans, Op::NoTrans, 1.0, a.as_ref(), a.as_ref(), 0.0, full.as_mut());
        for j in 0..n {
            for i in j..n {
                prop_assert!((c[(i, j)] - full[(i, j)]).abs() < 1e-10);
            }
        }
        // Gram matrix diagonal is nonnegative
        for j in 0..n {
            prop_assert!(c[(j, j)] >= -1e-12);
        }
    }

    #[test]
    fn add_is_affine(a in mat(5, 5), b in mat(5, 5), alpha in -2.0f64..2.0, beta in -2.0f64..2.0) {
        let mut out = b.clone();
        add(alpha, a.as_ref(), beta, out.as_mut());
        for j in 0..5 {
            for i in 0..5 {
                let expect = alpha * a[(i, j)] + beta * b[(i, j)];
                prop_assert!((out[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }
}

// ---- packed-path conformance: every Op combo, every scalar type ----

use polar_scalar::{Complex32, Complex64, Real, Scalar};

/// Deterministic pseudo-random matrix for any scalar type.
fn smat<S: Scalar>(m: usize, n: usize, seed: u64) -> Matrix<S> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    Matrix::from_fn(m, n, |_, _| {
        let re = next();
        let im = next();
        S::from_parts(S::Real::from_f64(re), S::Real::from_f64(im))
    })
}

/// Production `gemm` vs the reference triple loop on an (m, n, k)
/// problem with the given op pair, including nontrivial alpha/beta.
fn check_gemm_vs_ref<S: Scalar>(m: usize, n: usize, k: usize, op_a: Op, op_b: Op, seed: u64) {
    let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
    let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
    let a = smat::<S>(ar, ac, seed);
    let b = smat::<S>(br, bc, seed.wrapping_add(1));
    let alpha = S::from_parts(S::Real::from_f64(1.25), S::Real::from_f64(-0.5));
    let beta = S::from_parts(S::Real::from_f64(-0.75), S::Real::from_f64(0.25));
    let mut c1 = smat::<S>(m, n, seed.wrapping_add(2));
    let mut c2 = c1.clone();
    gemm_ref(op_a, op_b, alpha, a.as_ref(), b.as_ref(), beta, c1.as_mut());
    gemm(op_a, op_b, alpha, a.as_ref(), b.as_ref(), beta, c2.as_mut());
    // k+1 rounding steps, generous headroom for f32
    let tol = S::Real::from_f64(2e-4);
    for j in 0..n {
        for i in 0..m {
            let d = (c1[(i, j)] - c2[(i, j)]).abs();
            assert!(
                d <= tol,
                "{} ({i},{j}): {op_a:?}x{op_b:?} m={m} n={n} k={k} diff={d:?}",
                S::TYPE_TAG
            );
        }
    }
}

fn ops_for<S: Scalar>() -> &'static [Op] {
    if S::IS_COMPLEX {
        &[Op::NoTrans, Op::Trans, Op::ConjTrans]
    } else {
        &[Op::NoTrans, Op::Trans]
    }
}

fn check_all_ops<S: Scalar>(m: usize, n: usize, k: usize, seed: u64) {
    for &op_a in ops_for::<S>() {
        for &op_b in ops_for::<S>() {
            check_gemm_vs_ref::<S>(m, n, k, op_a, op_b, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gemm_all_ops_f64((m, n, k) in dims3(), seed in 0u64..1000) {
        check_all_ops::<f64>(m, n, k, seed);
    }

    #[test]
    fn gemm_all_ops_f32((m, n, k) in dims3(), seed in 0u64..1000) {
        check_all_ops::<f32>(m, n, k, seed);
    }

    #[test]
    fn gemm_all_ops_c64((m, n, k) in dims3(), seed in 0u64..1000) {
        check_all_ops::<Complex64>(m, n, k, seed);
    }

    #[test]
    fn gemm_all_ops_c32((m, n, k) in dims3(), seed in 0u64..1000) {
        check_all_ops::<Complex32>(m, n, k, seed);
    }

    #[test]
    fn gemm_strided_views_match_ref(
        (m, n, k) in (1usize..12, 1usize..12, 1usize..12),
        (ri, rj) in (0usize..4, 0usize..4),
        seed in 0u64..1000,
    ) {
        // operands are interior windows of larger matrices, so the packing
        // routines see a leading dimension larger than the row count
        let big_a = smat::<f64>(m + ri + 3, k + rj + 3, seed);
        let big_b = smat::<f64>(k + ri + 3, n + rj + 3, seed + 7);
        let a = big_a.view(ri, rj, m, k);
        let b = big_b.view(ri, rj, k, n);
        let mut big_c = smat::<f64>(m + 2, n + 2, seed + 11);
        let mut expect = Matrix::zeros(m, n);
        {
            let c0 = big_c.view(1, 1, m, n).to_owned();
            expect.as_mut().copy_from(c0.as_ref());
        }
        gemm_ref(Op::NoTrans, Op::NoTrans, 2.0, a.to_owned().as_ref(), b.to_owned().as_ref(), -1.0, expect.as_mut());
        gemm(Op::NoTrans, Op::NoTrans, 2.0, a, b, -1.0, big_c.view_mut(1, 1, m, n));
        let got = big_c.view(1, 1, m, n).to_owned();
        prop_assert!(max_abs_diff(&got, &expect) < 1e-10);
    }
}

#[test]
fn gemm_degenerate_shapes() {
    // empty, scalar, vector-like, and prime shapes across all types,
    // exercising fringe tiles and the zero-size early outs; the last one
    // takes the packed kernel with k below every k-block
    let shapes = [
        (0usize, 5usize, 3usize),
        (5, 0, 3),
        (4, 4, 0),
        (1, 1, 1),
        (7, 11, 13),
        (31, 29, 37),
        (17, 1, 5),
        (1, 19, 3),
        (17, 5, 23),
        (64, 48, 16),
    ];
    for &(m, n, k) in &shapes {
        check_all_ops::<f32>(m, n, k, 21);
        check_all_ops::<f64>(m, n, k, 22);
        check_all_ops::<Complex32>(m, n, k, 23);
        check_all_ops::<Complex64>(m, n, k, 24);
    }
}

#[test]
fn gemm_accepts_views_with_offset() {
    // kernels must honor ld != rows (views into larger matrices)
    let big = Matrix::<f64>::from_fn(10, 10, |i, j| (i * 10 + j) as f64);
    let a = big.view(2, 3, 4, 4);
    let b = big.view(1, 1, 4, 2);
    let mut c = Matrix::zeros(4, 2);
    gemm(Op::NoTrans, Op::NoTrans, 1.0, a, b, 0.0, c.as_mut());
    let mut expect = Matrix::zeros(4, 2);
    let ao = a.to_owned();
    let bo = b.to_owned();
    gemm_ref(Op::NoTrans, Op::NoTrans, 1.0, ao.as_ref(), bo.as_ref(), 0.0, expect.as_mut());
    assert!(max_abs_diff(&c, &expect) < 1e-12);
}

#[allow(dead_code)]
fn unused_matmut_lint_guard(_: MatMut<'_, f64>) {}

// ---- batch-major packed gemm: parity with the reference loop ----

use polar_blas::gemm_batched_packed;
use polar_matrix::BatchedDense;

/// `gemm_batched_packed` vs a per-entry `gemm_ref` loop on `batch`
/// independent (m, n, k) products with the given op pair and nontrivial
/// alpha/beta. Covers every scalar type the microkernels dispatch on.
fn check_batched_vs_ref<S: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    batch: usize,
    op_a: Op,
    op_b: Op,
    seed: u64,
) {
    let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
    let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
    let mats_a: Vec<Matrix<S>> =
        (0..batch).map(|e| smat::<S>(ar, ac, seed.wrapping_add(3 * e as u64))).collect();
    let mats_b: Vec<Matrix<S>> =
        (0..batch).map(|e| smat::<S>(br, bc, seed.wrapping_add(3 * e as u64 + 1))).collect();
    let mats_c: Vec<Matrix<S>> =
        (0..batch).map(|e| smat::<S>(m, n, seed.wrapping_add(3 * e as u64 + 2))).collect();
    let a = BatchedDense::from_matrices(&mats_a);
    let b = BatchedDense::from_matrices(&mats_b);
    let mut c = BatchedDense::from_matrices(&mats_c);
    let alpha = S::from_parts(S::Real::from_f64(1.25), S::Real::from_f64(-0.5));
    let beta = S::from_parts(S::Real::from_f64(-0.75), S::Real::from_f64(0.25));
    gemm_batched_packed(
        op_a,
        op_b,
        alpha,
        a.as_batched_ref(),
        b.as_batched_ref(),
        beta,
        c.as_batched_mut(),
    );
    let tol = S::Real::from_f64(2e-4); // f32 headroom; f64 lands ~1e-13
    for (e, c0) in mats_c.iter().enumerate() {
        let mut want = c0.clone();
        gemm_ref(op_a, op_b, alpha, mats_a[e].as_ref(), mats_b[e].as_ref(), beta, want.as_mut());
        for j in 0..n {
            for i in 0..m {
                let d = (want[(i, j)] - c.mat(e).at(i, j)).abs();
                assert!(
                    d <= tol,
                    "{} batch entry {e} ({i},{j}): {op_a:?}x{op_b:?} m={m} n={n} k={k} batch={batch} diff={d:?}",
                    S::TYPE_TAG
                );
            }
        }
    }
}

fn check_batched_all_ops<S: Scalar>(m: usize, n: usize, k: usize, batch: usize, seed: u64) {
    for &op_a in ops_for::<S>() {
        for &op_b in ops_for::<S>() {
            check_batched_vs_ref::<S>(m, n, k, batch, op_a, op_b, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gemm_batched_packed_matches_reference(
        (m, n, k) in (1usize..40, 1usize..40, 1usize..40),
        batch in 1usize..7,
        seed in 0u64..1000,
    ) {
        check_batched_all_ops::<f32>(m, n, k, batch, seed);
        check_batched_all_ops::<f64>(m, n, k, batch, seed.wrapping_add(7));
        check_batched_all_ops::<Complex32>(m, n, k, batch, seed.wrapping_add(13));
        check_batched_all_ops::<Complex64>(m, n, k, batch, seed.wrapping_add(19));
    }
}

#[test]
fn gemm_batched_packed_large_entries_take_fallback_path() {
    // entry shapes past the fast path's blocking caps (m > MC, and a k
    // deep enough to cross KC) must still match the reference loop —
    // these route through the hoisted per-entry packed fallback
    for &(m, n, k) in &[(160usize, 24usize, 32usize), (40, 30, 300), (130, 48, 257)] {
        check_batched_all_ops::<f64>(m, n, k, 3, 77);
        check_batched_all_ops::<Complex64>(m, n, k, 2, 78);
    }
}
