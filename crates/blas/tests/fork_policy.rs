//! Who forks, and how finely: the kernels split only where the caller has a
//! lane to fork to (`polar_blas::params::fork_lanes`), and a split never
//! goes below the floor that amortizes operand packing. Observed through
//! the trace-only leaf spans the sequential leaves of a split record.

use polar_blas::{gemm, trsm};
use polar_matrix::{Diag, Matrix, Op, Side, Uplo};
use polar_obs::SpanRecord;

fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix<f64> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    Matrix::from_fn(m, n, |_, _| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

/// Well-conditioned triangle in `uplo`, NaN in the other one.
fn rand_tri(n: usize, uplo: Uplo) -> Matrix<f64> {
    let r = rand_mat(n, n, 5);
    Matrix::from_fn(n, n, |i, j| {
        let stored = if uplo == Uplo::Lower { i >= j } else { i <= j };
        match (i == j, stored) {
            (true, _) => n as f64 + r[(i, j)],
            (false, true) => r[(i, j)],
            (false, false) => f64::NAN,
        }
    })
}

/// Spans named `name` recorded while `f` ran on a fresh `workers`-wide pool.
fn leaves_of(workers: usize, name: &str, f: impl FnOnce() + Send) -> Vec<SpanRecord> {
    let _serial = polar_obs::scope_lock();
    let pool = rayon::ThreadPool::new(workers);
    let scope = polar_obs::scope();
    pool.install(f);
    scope.finish().spans.into_iter().filter(|s| s.name == name).collect()
}

const N: usize = 512;

fn solve_leaves(workers: usize, side: Side, uplo: Uplo) -> Vec<SpanRecord> {
    let a = rand_tri(N, uplo);
    let mut b = rand_mat(N, N, 9);
    let leaves = leaves_of(workers, "trsm_leaf", || {
        trsm(side, uplo, Op::NoTrans, Diag::NonUnit, 1.0, a.as_ref(), b.as_mut());
    });
    assert!(!b.has_non_finite(), "{side:?} {uplo:?}: solve read the unreferenced triangle");
    leaves
}

const FAMILIES: [(Side, Uplo); 4] = [
    (Side::Left, Uplo::Lower),
    (Side::Left, Uplo::Upper),
    (Side::Right, Uplo::Lower),
    (Side::Right, Uplo::Upper),
];

#[test]
fn trsm_on_a_one_worker_pool_forks_nothing() {
    for (side, uplo) in FAMILIES {
        // only a slab of a split solve records a leaf span
        let leaves = solve_leaves(1, side, uplo);
        assert!(leaves.is_empty(), "{side:?} {uplo:?}: one worker must not split: {leaves:?}");
    }
}

#[test]
fn trsm_on_two_workers_never_cuts_below_the_slab_floor() {
    for (side, uplo) in FAMILIES {
        let leaves = solve_leaves(2, side, uplo);
        assert!(leaves.len() >= 2, "{side:?} {uplo:?}: a 512-square solve is worth forking");
        // the slab runs along B's columns (left) or rows (right)
        let widths: Vec<usize> =
            leaves.iter().map(|s| if side == Side::Left { s.dims[1] } else { s.dims[0] }).collect();
        assert_eq!(widths.iter().sum::<usize>(), N, "{side:?} {uplo:?}: slabs tile B: {widths:?}");
        assert!(
            widths.iter().all(|&w| w >= 64),
            "{side:?} {uplo:?}: slab below the packing floor: {widths:?}"
        );
    }
}

#[test]
fn gemm_in_a_serial_region_is_one_leaf() {
    // shape below two MC blocks, so the forking path is the recursive
    // split whose leaves record `gemm_leaf` spans
    let (m, n, k) = (200, 300, 100);
    let a = rand_mat(m, k, 1);
    let b = rand_mat(k, n, 2);
    let mut c = Matrix::<f64>::zeros(m, n);
    let mut run = |serial: bool| {
        leaves_of(2, "gemm_leaf", || {
            let mut call =
                || gemm(Op::NoTrans, Op::NoTrans, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
            if serial {
                rayon::serial_region(call)
            } else {
                call()
            }
        })
    };
    let forked = run(false);
    assert!(forked.len() > 1, "top-level call on two workers splits: {}", forked.len());
    let serial = run(true);
    assert_eq!(serial.len(), 1, "a serial region packs once");
    assert_eq!(serial[0].dims, [m, n, k]);
}
