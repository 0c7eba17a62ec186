//! One FNV-1a line per pinned solve: the bits of `U`, of `H` and of the
//! per-iteration convergence norms, of scalar `qdwh` solves (QDWH, and
//! Zolo-PD at `terms` 4 and 8, and in double precision 3, whose last round
//! of term workspaces is partly used, and the storage cases of its
//! several-term Cholesky-based step and of a QR-based step whose lift
//! fills a padded last tile row) and of every entry of a batched wave
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
        // Cholesky-only and taller than its row slots: V in two blocks of
        // four tile rows, the last one ragged
        ("qdwh-chol-tall", input(200, 40, 10.0, 7), tiled.clone()),
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

/// Where a several-term Cholesky-based step keeps its Gram matrix `G` and
/// `M`, in double precision: a certified Cholesky-only solve (`G` the
/// start's, `M` in a term host's top half), one whose `G` the graph forms
/// (a given `l_0`: no start Gram matrix), and a square ragged QR-first one
/// (both in the term slots' top halves, their last tile row padded). And a
/// QR-first QDWH solve of as many tile rows as tile columns but `m > n`
/// inside the last one: its QR-based steps lift their product in term slot
/// 0's top half, whose last tile row is padded past `m`.
fn storage<S: Scalar>(threads: usize) {
    let input = |m, n, cond, seed| {
        let spec = MatrixSpec { m, n, cond, distribution: SigmaDistribution::Geometric, seed };
        generate::<S>(&spec).0
    };
    let zolo = QdwhOptions { tile_nb: Some(32), terms: 4, ..Default::default() };
    let formed = QdwhOptions { l0_override: Some(0.5), ..zolo.clone() };
    let storage_cases = [
        ("zolo-r4-certified", input(83, 47, 10.0, 31), zolo.clone()),
        ("zolo-r4-formed-gram", input(83, 47, 10.0, 32), formed),
        ("zolo-r4-ragged-square", input(83, 83, 1e16, 33), zolo.clone()),
        ("qdwh-near-square", input(90, 83, 1e16, 34), QdwhOptions { terms: 1, ..zolo }),
    ];
    for (case, a, opts) in &storage_cases {
        line(case, threads, &qdwh(a, opts).expect("the solve converges"));
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
            storage::<f64>(threads);
            storage::<Complex64>(threads);
            cases::<f32>(1e5, &[4, 8], threads);
            cases::<Complex32>(1e5, &[4, 8], threads);
            batched::<f64>(1e16, threads);
            batched::<Complex64>(1e16, threads);
            batched::<f32>(1e5, threads);
            batched::<Complex32>(1e5, threads);
        });
    }
}
