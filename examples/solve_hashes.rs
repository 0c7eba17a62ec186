//! One FNV-1a line per pinned solve: the bits of `U`, of `H` and of the
//! per-iteration convergence norms, of scalar `qdwh` solves (QDWH, and
//! Zolo-PD at `terms` 4 and 8, and in double precision 3, whose last round
//! of term workspaces is partly used) and of every entry of a batched wave
//! (`batched-*`). "Bit-identical to another commit" is this example run on
//! both trees and `cmp` on the two outputs.
//!
//! Nothing is asserted: the hashes depend on the SIMD microkernel the host
//! selects, so they compare two trees on one host, not a tree against a
//! golden file. Every case pins `tile_nb` at 32, so that these small
//! solves still run graphs of several tile columns, and runs on a pool of
//! one and of two threads.
//!
//! ```sh
//! cargo run --release --example solve_hashes > here.txt
//! ```

use polar::prelude::*;
use polar::qdwh::IterationPath;
use polar_batch::{qdwh_batched, BatchEntry, BatchOptions};

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
/// number the type resolves, `zolo` the degrees Zolo-PD runs at.
fn cases<S: Scalar>(high: f64, zolo: &[usize], threads: usize) {
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
    ];
    for (case, a, opts) in &qdwh_cases {
        line(case, threads, &qdwh(a, opts).expect("qdwh converges"));
    }
    for &r in zolo {
        let a = input(83, 47, high, 8 + r as u64);
        let opts = QdwhOptions { terms: r, ..tiled.clone() };
        line(&format!("zolo-r{r}"), threads, &qdwh(&a, &opts).expect("zolo converges"));
    }
}

/// One mixed wave per type through the batch engine: unhinted high-kappa
/// entries, hinted kappa = 100 ones (the widened Cholesky window), a kappa =
/// 10 entry and the zero matrix. It runs twice: with `H` and the scalar
/// driver's two-norm estimate, under which the kappa = 10 entry plans three
/// steps and converges in four (in `d` and `z`), and without `H` under the
/// cheap `fast_scale` bound.
fn batched<S: Scalar>(high: f64, threads: usize) {
    let (m, n) = (56, 40);
    let input = |cond, seed| {
        let spec = MatrixSpec { m, n, cond, distribution: SigmaDistribution::Geometric, seed };
        generate::<S>(&spec).0
    };
    for (compute_h, fast_scale) in [(true, false), (false, true)] {
        let cases = ["high-a", "high-b", "hinted-a", "hinted-b", "continuation", "zero"];
        let mut wave = vec![
            BatchEntry::new(input(high, 21)),
            BatchEntry::new(input(high, 22)),
            BatchEntry::with_cond_hint(input(100.0, 23), 100.0),
            BatchEntry::with_cond_hint(input(100.0, 24), 100.0),
            BatchEntry::new(input(10.0, 0)),
            BatchEntry::new(Matrix::zeros(m, n)),
        ];
        let qdwh = QdwhOptions { compute_h, ..Default::default() };
        let opts = BatchOptions { qdwh, fast_scale, ..Default::default() };
        let infos = qdwh_batched(&mut wave, &opts).expect("the wave converges");
        for ((case, e), info) in cases.into_iter().zip(wave).zip(infos) {
            let pd = PolarDecomposition { u: e.u, h: e.h, info };
            line(&format!("batched-{case}-h{}", u8::from(compute_h)), threads, &pd);
        }
    }
}

fn main() {
    for threads in [1usize, 2] {
        rayon::ThreadPool::new(threads).install(|| {
            cases::<f64>(1e16, &[3, 4, 8], threads);
            cases::<Complex64>(1e16, &[3, 4, 8], threads);
            cases::<f32>(1e5, &[4, 8], threads);
            cases::<Complex32>(1e5, &[4, 8], threads);
            batched::<f64>(1e16, threads);
            batched::<Complex64>(1e16, threads);
            batched::<f32>(1e5, threads);
            batched::<Complex32>(1e5, threads);
        });
    }
}
