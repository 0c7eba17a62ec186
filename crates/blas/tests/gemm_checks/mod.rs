//! Packed `gemm` against the reference triple loop over everything the
//! microkernel and its writeback branch on, shared by the test binary that
//! runs on the kernels the host selects and the one that forces the
//! const-generic fallback.

use polar_blas::{gemm, gemm_ref};
use polar_matrix::{Matrix, Op};
use polar_scalar::{Real, Scalar};

pub fn smat<S: Scalar>(m: usize, n: usize, seed: u64) -> Matrix<S> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    Matrix::from_fn(m, n, |_, _| {
        let (re, im) = (next(), next());
        S::from_parts(S::Real::from_f64(re), S::Real::from_f64(im))
    })
}

/// One product through the public `gemm`; with `beta = 0` the `C` handed in
/// is NaN (it must be overwritten, not scaled).
fn check<S: Scalar>((m, n, k): (usize, usize, usize), (op_a, op_b): (Op, Op), alpha: S, beta: S) {
    assert!(m * n * k >= 8192 && m.min(n) >= 4, "{m}x{n}x{k} would not take the packed kernel");
    let what = format!(
        "gemm {} [{}] {m}x{n}x{k} {op_a:?} {op_b:?} alpha={alpha:?} beta={beta:?}",
        S::TYPE_TAG,
        polar_blas::microkernel::<S>()
    );
    let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
    let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
    let (a, b, c0) = (smat::<S>(ar, ac, 71), smat::<S>(br, bc, 72), smat::<S>(m, n, 73));
    let (mut want, mut got) = if beta == S::ZERO {
        (Matrix::zeros(m, n), Matrix::from_fn(m, n, |_, _| S::from_f64(f64::NAN)))
    } else {
        (c0.clone(), c0)
    };
    gemm_ref(op_a, op_b, alpha, a.as_ref(), b.as_ref(), beta, want.as_mut());
    gemm(op_a, op_b, alpha, a.as_ref(), b.as_ref(), beta, got.as_mut());
    // entries are in [-1, 1] and |alpha|, |beta| < 2: a sum of k products
    // is good to k * eps, with headroom
    let tol = 16.0 * S::Real::EPSILON.to_f64() * (k as f64 + 4.0);
    for j in 0..n {
        for i in 0..m {
            let d = (got[(i, j)] - want[(i, j)]).abs().to_f64();
            assert!(d <= tol, "{what}: ({i},{j}) off by {d:e}"); // NaN fails it
        }
    }
}

/// Every `Op` x `Op` (conjugation included) x `alpha`, `beta` in {0, 1, -1,
/// general} x full tiles, a row fringe, a column fringe and both x one
/// k-step, a few, a whole k-block and one that spills into a second.
pub fn sweep<S: Scalar>() {
    let kc = polar_blas::params::gemm_params().kc;
    let general = |re, im| S::from_parts(S::Real::from_f64(re), S::Real::from_f64(im));
    let alphas = [S::ZERO, S::ONE, -S::ONE, general(1.25, -0.5)];
    let betas = [S::ZERO, S::ONE, -S::ONE, general(-0.75, 0.25)];
    let ops: &[Op] = if S::IS_COMPLEX {
        &[Op::NoTrans, Op::Trans, Op::ConjTrans]
    } else {
        &[Op::NoTrans, Op::Trans]
    };
    // every shape is just large enough to take the packed kernel; 96, 48 x
    // 36 and 16 x 12 are whole tiles of every complex kernel (16x4, 8x4,
    // 8x3, 4x3, 4x4), the others leave a row fringe, a column fringe, both
    let cases = [
        (1, [(96, 96), (101, 96), (96, 97), (101, 97)]),
        (7, [(48, 36), (53, 36), (48, 37), (53, 37)]),
        (kc, [(16, 12), (19, 12), (16, 13), (19, 13)]),
        (kc + 9, [(16, 12), (19, 12), (16, 13), (19, 13)]),
    ];
    for (k, shapes) in cases {
        for (m, n) in shapes {
            for (&op_a, &op_b) in ops.iter().flat_map(|a| ops.iter().map(move |b| (a, b))) {
                for alpha in alphas {
                    for beta in betas {
                        check::<S>((m, n, k), (op_a, op_b), alpha, beta);
                    }
                }
            }
        }
    }
}
