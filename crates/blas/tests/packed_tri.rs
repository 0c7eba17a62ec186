//! Packed `herk` / `trmm` at the default blocking: sizes that are not
//! multiples of any micro-tile shape, one past a k-block (KC = 256), all
//! four scalar types; and the degenerate calls.

mod tri_checks;

use polar_blas::{herk, trmm};
use polar_matrix::{Diag, Matrix, Op, Side, Uplo};
use polar_scalar::{Complex32, Complex64};
use proptest::prelude::*;
use tri_checks::{check_herk, check_trmm, herk_ops, sweep};

/// (n, k) for herk, (triangle order, other dimension of B) for trmm.
const HERK_SHAPES: [(usize, usize); 8] =
    [(1, 1), (7, 13), (13, 7), (64, 65), (65, 64), (200, 13), (13, 200), (65, 300)];
const TRMM_SHAPES: [(usize, usize); 8] =
    [(1, 1), (7, 13), (13, 1), (64, 65), (65, 7), (200, 13), (300, 9), (13, 200)];

#[test]
fn herk_and_trmm_match_reference_f64() {
    sweep::<f64>(&HERK_SHAPES, &TRMM_SHAPES);
}

#[test]
fn herk_and_trmm_match_reference_f32() {
    sweep::<f32>(&HERK_SHAPES, &TRMM_SHAPES);
}

#[test]
fn herk_and_trmm_match_reference_c64() {
    sweep::<Complex64>(&HERK_SHAPES, &TRMM_SHAPES);
}

#[test]
fn herk_and_trmm_match_reference_c32() {
    sweep::<Complex32>(&HERK_SHAPES, &TRMM_SHAPES);
}

#[test]
fn degenerate_calls() {
    // k = 0 and alpha = 0 scale the triangle by beta and touch nothing else
    for (k, alpha) in [(0usize, 1.0), (5, 0.0)] {
        let a = Matrix::<f64>::from_fn(k, 6, |i, j| (i + j) as f64);
        let mut c = Matrix::<f64>::from_fn(6, 6, |i, j| (1 + i + 10 * j) as f64);
        herk(Uplo::Upper, Op::Trans, alpha, a.as_ref(), 2.0, c.as_mut());
        for j in 0..6 {
            for i in 0..6 {
                let was = (1 + i + 10 * j) as f64;
                assert_eq!(c[(i, j)], if i <= j { 2.0 * was } else { was }, "k={k} ({i},{j})");
            }
        }
    }
    // alpha = 0 zeroes B whatever it and the triangle hold; empty B is a no-op
    let a = Matrix::<f64>::from_fn(4, 4, |_, _| f64::NAN);
    let mut b = Matrix::<f64>::from_fn(4, 3, |_, _| f64::NAN);
    trmm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 0.0, a.as_ref(), b.as_mut());
    assert!((0..3).all(|j| b.col(j).iter().all(|&x| x == 0.0)));
    let mut empty = Matrix::<f64>::zeros(4, 0);
    trmm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 1.0, a.as_ref(), empty.as_mut());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn herk_random_shapes(n in 1usize..90, k in 1usize..90, flags in 0usize..4, seed in 0u64..1000) {
        let uplo = if flags & 1 == 0 { Uplo::Lower } else { Uplo::Upper };
        check_herk::<f64>(uplo, herk_ops::<f64>()[flags >> 1], n, k, 1.0, seed);
        check_herk::<Complex64>(uplo, herk_ops::<Complex64>()[flags >> 1], n, k, -0.75, seed);
    }

    #[test]
    fn trmm_random_shapes(
        nt in 1usize..90,
        other in 1usize..40,
        flags in 0usize..8,
        op in 0usize..3,
        seed in 0u64..1000,
    ) {
        let side = if flags & 1 == 0 { Side::Left } else { Side::Right };
        let uplo = if flags & 2 == 0 { Uplo::Lower } else { Uplo::Upper };
        let diag = if flags & 4 == 0 { Diag::NonUnit } else { Diag::Unit };
        let op = [Op::NoTrans, Op::Trans, Op::ConjTrans][op];
        check_trmm::<f64>(side, uplo, op, diag, nt, other, seed);
        check_trmm::<Complex64>(side, uplo, op, diag, nt, other, seed);
    }
}
