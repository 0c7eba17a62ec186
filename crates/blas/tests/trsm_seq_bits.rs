//! The substitution base case of `trsm` over column slices is the same
//! arithmetic, operation for operation, as the per-element loops it
//! replaced: bit-identical results for every side/uplo family, NoTrans and
//! ConjTrans, f64 and Complex64. Orders at or below the recursion base
//! (64) reach the base case directly.

use polar_blas::trsm;
use polar_matrix::{Diag, Matrix, Op, Side, Uplo};
use polar_scalar::{Complex64, Real, Scalar};

fn tri_at<S: Scalar>(a: &Matrix<S>, op: Op, i: usize, j: usize) -> S {
    match op {
        Op::NoTrans => a[(i, j)],
        Op::Trans => a[(j, i)],
        Op::ConjTrans => a[(j, i)].conj(),
    }
}

/// The per-element loops `trsm_left_seq` / `trsm_right_seq` ran before.
fn old_seq<S: Scalar>(
    side: Side,
    uplo: Uplo,
    op: Op,
    diag: Diag,
    alpha: S,
    a: &Matrix<S>,
    b: &mut Matrix<S>,
) {
    let (m, n) = (b.nrows(), b.ncols());
    let upper = (uplo == Uplo::Upper) == (op == Op::NoTrans);
    for j in 0..n {
        for i in 0..m {
            if alpha != S::ONE {
                b[(i, j)] *= alpha;
            }
        }
    }
    match side {
        Side::Left => {
            for j in 0..n {
                let order: Vec<usize> =
                    if upper { (0..m).rev().collect() } else { (0..m).collect() };
                for k in order {
                    if diag == Diag::NonUnit {
                        b[(k, j)] *= tri_at(a, op, k, k).recip();
                    }
                    let xk = b[(k, j)];
                    if xk != S::ZERO {
                        let rows = if upper { 0..k } else { k + 1..m };
                        for i in rows {
                            let t = tri_at(a, op, i, k);
                            b[(i, j)] -= xk * t;
                        }
                    }
                }
            }
        }
        Side::Right => {
            let order: Vec<usize> = if upper { (0..n).collect() } else { (0..n).rev().collect() };
            for j in order {
                let solved = if upper { 0..j } else { j + 1..n };
                for l in solved {
                    let t = tri_at(a, op, l, j);
                    if t == S::ZERO {
                        continue;
                    }
                    for i in 0..m {
                        let v = b[(i, j)] - b[(i, l)] * t;
                        b[(i, j)] = v;
                    }
                }
                if diag == Diag::NonUnit {
                    let d = tri_at(a, op, j, j).recip();
                    for i in 0..m {
                        b[(i, j)] *= d;
                    }
                }
            }
        }
    }
}

fn check<S: Scalar>(nt: usize, other: usize) {
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let mut val =
        |s: f64| S::from_parts(S::Real::from_f64(s * next()), S::Real::from_f64(s * next()));
    let a =
        Matrix::from_fn(nt, nt, |i, j| if i == j { S::from_f64(3.0) + val(1.0) } else { val(0.3) });
    let alpha = S::from_parts(S::Real::from_f64(1.5), S::Real::from_f64(-0.25));
    for side in [Side::Left, Side::Right] {
        let (m, n) = if side == Side::Left { (nt, other) } else { (other, nt) };
        let b0 = Matrix::from_fn(m, n, |_, _| val(1.0));
        for uplo in [Uplo::Lower, Uplo::Upper] {
            for op in [Op::NoTrans, Op::ConjTrans] {
                for (diag, alpha) in [(Diag::NonUnit, alpha), (Diag::Unit, S::ONE)] {
                    let (mut got, mut want) = (b0.clone(), b0.clone());
                    trsm(side, uplo, op, diag, alpha, a.as_ref(), got.as_mut());
                    old_seq(side, uplo, op, diag, alpha, &a, &mut want);
                    for j in 0..n {
                        for i in 0..m {
                            let (g, w) = (got[(i, j)], want[(i, j)]);
                            assert!(
                                g.re().to_f64().to_bits() == w.re().to_f64().to_bits()
                                    && g.im().to_f64().to_bits() == w.im().to_f64().to_bits(),
                                "{} {side:?} {uplo:?} {op:?} {diag:?} nt={nt}: ({i},{j}) {g:?} vs {w:?}",
                                S::TYPE_TAG
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn base_case_is_bitwise_the_old_loops() {
    for (nt, other) in [(1, 3), (7, 5), (33, 17), (64, 9)] {
        check::<f64>(nt, other);
        check::<Complex64>(nt, other);
    }
}
