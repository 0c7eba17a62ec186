//! `Complex32` products take the packed kernel whatever the run mode: the
//! bits of a forked `gemm` under `POLAR_DETERMINISTIC=1` equal the
//! free-running ones. (They did not while a timing probe chose between the
//! packed and the axpy kernel and deterministic replay pinned axpy.)
//!
//! The replay flag is latched once per process, so the deterministic side
//! runs in a child: this test binary re-invoked with `C32_BITS_CHILD` set,
//! in which the test only prints its hash.

use polar_blas::gemm;
use polar_matrix::{Matrix, Op};
use polar_scalar::Complex32;

/// A 200 x 168 x 300 product (row and column fringes, two k-blocks) on a
/// two-worker pool; FNV hash of the result's bits.
fn gemm_bits() -> u64 {
    let val = |i: usize, j: usize, s: usize| ((i * 31 + j * 17 + s) % 23) as f32 / 23.0 - 0.5;
    let a = Matrix::from_fn(300, 200, |i, j| Complex32::new(val(i, j, 1), val(j, i, 2)));
    let b = Matrix::from_fn(300, 168, |i, j| Complex32::new(val(i, j, 3), val(j, i, 4)));
    let mut c = Matrix::from_fn(200, 168, |i, j| Complex32::new(val(i, j, 5), val(j, i, 6)));
    let (alpha, beta) = (Complex32::new(1.25, -0.5), Complex32::new(-0.75, 0.25));
    rayon::ThreadPool::new(2).install(|| {
        gemm(Op::ConjTrans, Op::NoTrans, alpha, a.as_ref(), b.as_ref(), beta, c.as_mut())
    });
    let mut h = 0xcbf29ce484222325u64;
    for j in 0..c.ncols() {
        for x in c.col(j) {
            h = (h ^ ((x.re.to_bits() as u64) << 32 | x.im.to_bits() as u64))
                .wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[test]
fn deterministic_replay_does_not_move_c32_bits() {
    if std::env::var_os("C32_BITS_CHILD").is_some() {
        assert!(rayon::deterministic_mode().is_some(), "child is not in replay mode");
        println!("c32_bits={:016x}", gemm_bits());
        return;
    }
    assert!(rayon::deterministic_mode().is_none(), "this side must run free");
    let free = gemm_bits();
    let child = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "deterministic_replay_does_not_move_c32_bits", "--nocapture"])
        .env("C32_BITS_CHILD", "1")
        .env("POLAR_DETERMINISTIC", "1")
        .output()
        .expect("re-run this test binary");
    assert!(child.status.success(), "child failed: {}", String::from_utf8_lossy(&child.stderr));
    let out = String::from_utf8_lossy(&child.stdout);
    let replayed = out
        .lines()
        .find_map(|l| l.split("c32_bits=").nth(1))
        .unwrap_or_else(|| panic!("no hash in child output: {out}"));
    assert_eq!(replayed.trim(), format!("{free:016x}"), "replay mode moved c32 gemm's bits");
}
