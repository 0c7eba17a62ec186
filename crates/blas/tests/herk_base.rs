//! No fork setting moves which kernel sums an entry of `herk`: under
//! `POLAR_PAR_THRESHOLD_FLOPS` = "never fork" a tile-sized update is one
//! `herk` kernel span on one lane, and its bits equal those of the same
//! update computed at the default threshold on a two-worker pool, where the
//! triangle is cut into slabs.
//!
//! The threshold is read once per process, so the default-threshold side
//! runs in a child: this test binary re-invoked with `HERK_BASE_CHILD` set,
//! in which the test only prints its hash.

use polar_blas::herk;
use polar_matrix::{Matrix, Op, Uplo};

const N: usize = 256;

/// `herk(256)` into a fixed non-trivial `C` on a two-worker pool; FNV hash
/// of the result's bits.
fn herk_bits() -> u64 {
    let a = Matrix::<f64>::from_fn(N, N, |i, j| ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5);
    let mut c = Matrix::<f64>::from_fn(N, N, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
    rayon::ThreadPool::new(2)
        .install(|| herk(Uplo::Lower, Op::ConjTrans, 1.25, a.as_ref(), 1.0, c.as_mut()));
    let mut h = 0xcbf29ce484222325u64;
    for j in 0..N {
        for x in c.col(j) {
            h = (h ^ x.to_bits()).wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[test]
fn fork_threshold_does_not_move_herk_bits() {
    if std::env::var_os("HERK_BASE_CHILD").is_some() {
        println!("herk_bits={:016x}", herk_bits());
        return;
    }
    std::env::set_var("POLAR_PAR_THRESHOLD_FLOPS", "1000000000000");
    let _serial = polar_obs::scope_lock();
    let scope = polar_obs::scope();
    let unforked = herk_bits();
    let spans = scope.finish().spans;
    let herks: Vec<_> = spans.iter().filter(|s| s.name == "herk").collect();
    assert_eq!(herks.len(), 1, "one herk kernel span: {spans:?}");
    assert_eq!(herks[0].dims, [N, N, N]);
    assert_eq!(herks[0].flops, polar_blas::flops::herk(N, N) as u64);
    assert!(
        spans.iter().all(|s| s.lane == spans[0].lane && s.name != "gemm"),
        "nothing is worth forking under this threshold, and no second kernel runs: {spans:?}"
    );

    let child = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "fork_threshold_does_not_move_herk_bits", "--nocapture"])
        .env("HERK_BASE_CHILD", "1")
        .env_remove("POLAR_PAR_THRESHOLD_FLOPS")
        .output()
        .expect("re-run this test binary");
    assert!(child.status.success(), "child failed: {}", String::from_utf8_lossy(&child.stderr));
    let out = String::from_utf8_lossy(&child.stdout);
    let forked = out
        .lines()
        .find_map(|l| l.split("herk_bits=").nth(1))
        .unwrap_or_else(|| panic!("no hash in child output: {out}"));
    assert_eq!(forked.trim(), format!("{unforked:016x}"), "slab cuts moved herk's bits");
}
