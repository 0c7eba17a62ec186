//! One FNV-1a line per pinned solve: the bits of `U`, of `H` and of the
//! per-iteration convergence norms. "Bit-identical to another commit" is
//! this example run on both trees and `cmp` on the two outputs.
//!
//! Nothing is asserted: the hashes depend on the SIMD microkernel the host
//! selects, so they compare two trees on one host, not a tree against a
//! golden file. Every case pins `tile_nb` (the default depends on the pool
//! width) and runs on a pool of one and of two threads.
//!
//! ```sh
//! cargo run --release --example solve_hashes > here.txt
//! ```

use polar::prelude::*;
use polar::qdwh::{IterationPath, ZoloOutcome};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(hash: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn matrix_hash<S: Scalar>(a: &Matrix<S>) -> u64 {
    let mut hash = FNV_OFFSET;
    for j in 0..a.ncols() {
        for i in 0..a.nrows() {
            fnv(&mut hash, a[(i, j)].re().to_f64().to_bits());
            fnv(&mut hash, a[(i, j)].im().to_f64().to_bits());
        }
    }
    hash
}

fn line<S: Scalar>(case: &str, threads: usize, pd: &PolarDecomposition<S>) {
    let mut conv = FNV_OFFSET;
    for record in &pd.info.records {
        fnv(&mut conv, record.convergence.to_f64().to_bits());
    }
    println!(
        "{} {case} threads={threads} iters={} U={:016x} H={:016x} conv={conv:016x}",
        S::TYPE_TAG,
        pd.info.iterations,
        matrix_hash(&pd.u),
        matrix_hash(&pd.h),
    );
}

/// The pinned cases in one scalar type; `high` is the largest condition
/// number the type resolves.
fn cases<S: Scalar>(high: f64, threads: usize) {
    let input = |m, n, cond, seed| {
        let spec = MatrixSpec { m, n, cond, distribution: SigmaDistribution::Geometric, seed };
        generate::<S>(&spec).0
    };
    let tiled = QdwhOptions { tile_nb: Some(32), ..Default::default() };
    let forced = |path| QdwhOptions { path, ..tiled.clone() };
    let qdwh_cases = [
        ("qdwh-aligned", input(96, 96, high, 1), tiled.clone()),
        ("qdwh-ragged", input(83, 83, high, 2), tiled.clone()),
        ("qdwh-ragged-tall", input(150, 70, high, 3), tiled.clone()),
        ("qdwh-force-qr", input(83, 47, 1e3, 4), forced(IterationPath::ForceQr)),
        ("qdwh-force-chol", input(83, 47, 1e3, 5), forced(IterationPath::ForceCholesky)),
        // kappa = 10 plans three steps and converges in four
        ("qdwh-continuation", input(72, 48, 10.0, 6), tiled.clone()),
        (
            "qdwh-unpruned",
            input(83, 47, high, 7),
            QdwhOptions { exploit_structure: false, ..tiled.clone() },
        ),
    ];
    for (case, a, opts) in &qdwh_cases {
        line(case, threads, &qdwh(a, opts).expect("qdwh converges"));
    }
    for r in [4usize, 8] {
        let a = input(83, 47, high, 8 + r as u64);
        let opts = ZoloOptions { r, max_iterations: 10, tile_nb: Some(32), ..Default::default() };
        let ZoloOutcome { pd, .. } = zolo_pd(&a, &opts).expect("zolo_pd converges");
        line(&format!("zolo-r{r}"), threads, &pd);
    }
}

fn main() {
    for threads in [1usize, 2] {
        rayon::ThreadPool::new(threads).install(|| {
            cases::<f64>(1e16, threads);
            cases::<Complex64>(1e16, threads);
            cases::<f32>(1e5, threads);
            cases::<Complex32>(1e5, threads);
        });
    }
}
