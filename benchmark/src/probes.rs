//! Layer probes: the benchmark calling one layer's public function
//! directly at a fixed shape, so a layer's rate can be read apart from
//! the solves that use it. Rates are medians over repeated calls.

use crate::metrics::Sheet;
use crate::rng::Rng;
use crate::stats::median;
use polar_batch::{qdwh_batched, BatchEntry, BatchOptions, CondestCache};
use polar_blas::{flops, gemm, gemm_batched, herk, trsm};
use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_lapack::{auto_tile_nb, geqrf, geqrf_tiled, orgqr, potrf, potrf_tiled, trtri_lower};
use polar_matrix::{BatchedDense, Diag, Matrix, Op, ProcessGrid, Side, TiledMatrix, Uplo};
use polar_obs::KernelClass;
use polar_qdwh::{qdwh, QdwhOptions};
use polar_runtime::{KernelKind, TaskDag, TileRef};
use polar_scalar::{Complex64, Real, Scalar};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Fixed probe shapes; `smoke` shrinks them, nothing else changes.
pub struct Shapes {
    /// Square kernels: gemm, trsm, herk, geqrf, orgqr, potrf, trtri.
    pub n: usize,
    /// One tile-sized gemm (the unit of work of the tile DAG).
    pub tile: usize,
    pub c64_n: usize,
    /// DAG-scheduled tiled factorizations and the tile round trip.
    pub tiled_n: usize,
    /// Serving shape: batched gemm, batched gather, `qdwh_batched`.
    pub batch_n: usize,
    pub batch: usize,
    pub dag_tasks: usize,
    /// Seconds each probe may spend repeating its call.
    pub budget_s: f64,
}

impl Shapes {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Shapes {
                n: 96,
                tile: 64,
                c64_n: 48,
                tiled_n: 192,
                batch_n: 16,
                batch: 8,
                dag_tasks: 1_000,
                budget_s: 0.01,
            }
        } else {
            Shapes {
                n: 512,
                tile: 256,
                c64_n: 256,
                tiled_n: 1024,
                batch_n: 64,
                batch: 32,
                dag_tasks: 10_000,
                budget_s: 0.25,
            }
        }
    }
}

/// Median wall of `run`, each repetition on a fresh `prepare()` (not
/// timed): one warm-up, then at least three repetitions and as many more
/// as fit in `budget_s`.
fn median_secs<T>(budget_s: f64, mut prepare: impl FnMut() -> T, mut run: impl FnMut(T)) -> f64 {
    run(prepare());
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3 || (started.elapsed().as_secs_f64() < budget_s && samples.len() < 500) {
        let input = prepare();
        let t = Instant::now();
        run(input);
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

fn rand_mat<S: Scalar>(m: usize, n: usize, rng: &mut Rng) -> Matrix<S> {
    Matrix::from_fn(m, n, |_, _| {
        let re = S::Real::from_f64(2.0 * rng.next_f64() - 1.0);
        let im = S::Real::from_f64(2.0 * rng.next_f64() - 1.0);
        S::from_parts(re, im)
    })
}

/// Lower triangle with a dominant diagonal: a stable solve / inverse.
fn rand_lower(n: usize, rng: &mut Rng) -> Matrix<f64> {
    let mut l = rand_mat::<f64>(n, n, rng);
    for j in 0..n {
        l[(j, j)] = 4.0 + j as f64 / n as f64;
        for i in 0..j {
            l[(i, j)] = 0.0;
        }
    }
    l
}

/// Symmetric positive definite: `(G + Gᵀ)/2 + n·I`.
fn rand_spd(n: usize, rng: &mut Rng) -> Matrix<f64> {
    let g = rand_mat::<f64>(n, n, rng);
    Matrix::from_fn(n, n, |i, j| {
        0.5 * (g[(i, j)] + g[(j, i)]) + if i == j { n as f64 } else { 0.0 }
    })
}

fn gf(flop: f64, secs: f64) -> f64 {
    flop / secs / 1e9
}

fn gemm_gflops<S: Scalar>(n: usize, budget_s: f64, rng: &mut Rng) -> f64 {
    let a = rand_mat::<S>(n, n, rng);
    let b = rand_mat::<S>(n, n, rng);
    let mut c = Matrix::<S>::zeros(n, n);
    let secs = median_secs(
        budget_s,
        || (),
        |()| gemm(Op::NoTrans, Op::NoTrans, S::ONE, a.as_ref(), b.as_ref(), S::ZERO, c.as_mut()),
    );
    gf(flops::type_factor(S::IS_COMPLEX) * flops::gemm(n, n, n), secs)
}

/// blas: gemm (the host-rate reference every ratio uses), trsm, herk,
/// batched gemm.
fn blas(sh: &Shapes, seed: u64, sheet: &mut Sheet) {
    let rng = &mut Rng::stream(seed, "probe.blas");
    let n = sh.n;
    let gemm_rate = gemm_gflops::<f64>(n, sh.budget_s, rng);
    sheet.put("blas.gemm_gflops", gemm_rate, "GFlop/s");
    sheet.put("blas.gemm_tile_gflops", gemm_gflops::<f64>(sh.tile, sh.budget_s, rng), "GFlop/s");
    sheet.put(
        "blas.gemm_c64_gflops",
        gemm_gflops::<Complex64>(sh.c64_n, sh.budget_s, rng),
        "GFlop/s",
    );

    let l = rand_lower(n, rng);
    let b0 = rand_mat::<f64>(n, n, rng);
    let secs = median_secs(
        sh.budget_s,
        || b0.clone(),
        |mut b| {
            trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 1.0, l.as_ref(), b.as_mut());
            black_box(b);
        },
    );
    let trsm_rate = gf(flops::trsm_left(n, n), secs);
    sheet.put("blas.trsm_gflops", trsm_rate, "GFlop/s");
    sheet.put("blas.trsm_vs_gemm", trsm_rate / gemm_rate, "share");

    let a = rand_mat::<f64>(n, n, rng);
    let mut c = Matrix::<f64>::zeros(n, n);
    let secs = median_secs(
        sh.budget_s,
        || (),
        |()| herk(Uplo::Lower, Op::ConjTrans, 1.0, a.as_ref(), 0.0, c.as_mut()),
    );
    let herk_rate = gf(flops::herk(n, n), secs);
    sheet.put("blas.herk_gflops", herk_rate, "GFlop/s");
    sheet.put("blas.herk_vs_gemm", herk_rate / gemm_rate, "share");

    let (bn, batch) = (sh.batch_n, sh.batch);
    let mats = |rng: &mut Rng| -> Vec<Matrix<f64>> {
        (0..batch).map(|_| rand_mat::<f64>(bn, bn, rng)).collect()
    };
    let a = BatchedDense::from_matrices(&mats(rng));
    let b = BatchedDense::from_matrices(&mats(rng));
    let mut c = BatchedDense::<f64>::zeros(bn, bn, batch);
    let secs = median_secs(
        sh.budget_s,
        || (),
        |()| gemm_batched(Op::NoTrans, Op::NoTrans, 1.0, &a, &b, 0.0, &mut c),
    );
    sheet.put(
        "blas.gemm_batched_gflops",
        gf(batch as f64 * flops::gemm(bn, bn, bn), secs),
        "GFlop/s",
    );
}

/// lapack: flat and DAG-scheduled factorizations.
fn lapack(sh: &Shapes, seed: u64, sheet: &mut Sheet) {
    let rng = &mut Rng::stream(seed, "probe.lapack");
    let n = sh.n;
    let a0 = rand_mat::<f64>(n, n, rng);
    let secs = median_secs(
        sh.budget_s,
        || a0.clone(),
        |mut a| {
            black_box(geqrf(&mut a));
        },
    );
    let geqrf_rate = gf(flops::geqrf(n, n), secs);
    sheet.put("lapack.geqrf_gflops", geqrf_rate, "GFlop/s");
    sheet.put("lapack.geqrf_vs_gemm", geqrf_rate / sheet.value("blas.gemm_gflops"), "share");

    let mut factored = a0.clone();
    let reflectors = geqrf(&mut factored);
    let secs = median_secs(
        sh.budget_s,
        || (),
        |()| {
            black_box(orgqr(&factored, &reflectors));
        },
    );
    sheet.put("lapack.orgqr_gflops", gf(flops::orgqr(n, n), secs), "GFlop/s");

    let spd = rand_spd(n, rng);
    let secs = median_secs(
        sh.budget_s,
        || spd.clone(),
        |mut a| potrf(Uplo::Lower, &mut a).expect("probe matrix is positive definite"),
    );
    sheet.put("lapack.potrf_gflops", gf(flops::potrf(n), secs), "GFlop/s");

    let l = rand_lower(n, rng);
    let mut inv = Matrix::<f64>::zeros(n, n);
    let secs = median_secs(
        sh.budget_s,
        || (),
        |()| trtri_lower(l.as_ref(), inv.as_mut()).expect("probe triangle is nonsingular"),
    );
    sheet.put("lapack.trtri_gflops", gf((n as f64).powi(3) / 3.0, secs), "GFlop/s");

    let n = sh.tiled_n;
    let nb = auto_tile_nb(n);
    let a0 = rand_mat::<f64>(n, n, rng);
    let secs = median_secs(
        sh.budget_s,
        || (),
        |()| {
            black_box(geqrf_tiled(&a0, nb));
        },
    );
    sheet.put("lapack.geqrf_tiled_gflops", gf(flops::geqrf(n, n), secs), "GFlop/s");
    let spd = rand_spd(n, rng);
    let secs = median_secs(
        sh.budget_s,
        || spd.clone(),
        |mut a| potrf_tiled(Uplo::Lower, &mut a, nb).expect("probe matrix is positive definite"),
    );
    sheet.put("lapack.potrf_tiled_gflops", gf(flops::potrf(n), secs), "GFlop/s");
}

/// matrix: data motion between the dense, tiled and batch-major layouts.
/// Bytes are computed from the array sizes (read once + written once per
/// conversion), not counted by hardware.
fn matrix(sh: &Shapes, seed: u64, sheet: &mut Sheet) {
    let rng = &mut Rng::stream(seed, "probe.matrix");
    let n = sh.tiled_n;
    let nb = auto_tile_nb(n);
    let a = rand_mat::<f64>(n, n, rng);
    let secs = median_secs(
        sh.budget_s,
        || (),
        |()| {
            let tiled = TiledMatrix::from_dense(&a, nb, nb, ProcessGrid::single());
            black_box(tiled.to_dense());
        },
    );
    let bytes = 4.0 * (n * n * std::mem::size_of::<f64>()) as f64;
    sheet.put("matrix.tile_roundtrip_gbs", bytes / secs / 1e9, "GB/s");

    let mats: Vec<Matrix<f64>> =
        (0..sh.batch).map(|_| rand_mat::<f64>(sh.batch_n, sh.batch_n, rng)).collect();
    let secs = median_secs(
        sh.budget_s,
        || (),
        |()| {
            black_box(BatchedDense::from_matrices(&mats));
        },
    );
    let bytes = 2.0 * (sh.batch * sh.batch_n * sh.batch_n * std::mem::size_of::<f64>()) as f64;
    sheet.put("matrix.batched_gather_gbs", bytes / secs / 1e9, "GB/s");
}

/// runtime: cost of scheduling a task that does nothing — half the tasks
/// in one dependency chain (release latency), half independent (heap and
/// wake-up throughput).
fn runtime(sh: &Shapes, sheet: &mut Sheet) {
    let half = sh.dag_tasks / 2;
    let secs = median_secs(
        sh.budget_s,
        || {
            let mut dag = TaskDag::new();
            let m = dag.new_matrix();
            for _ in 0..half {
                let tile = TileRef::new(m, 0, 0, 8);
                dag.add(KernelKind::Geadd, 0, 1.0, vec![tile], vec![tile], || ());
            }
            for k in 0..half {
                let tile = TileRef::new(m, 1 + k, 0, 8);
                dag.add(KernelKind::Geadd, 0, 1.0, vec![], vec![tile], || ());
            }
            dag
        },
        |dag| {
            black_box(dag.execute());
        },
    );
    sheet.put("runtime.task_overhead_us", secs * 1e6 / (2 * half) as f64, "us");
}

/// batch: `qdwh_batched` at the serving shape, against the looped scalar
/// driver on the same inputs.
fn batch(sh: &Shapes, seed: u64, sheet: &mut Sheet) {
    const COND: f64 = 100.0;
    let mut seeds = Rng::stream(seed, "probe.batch");
    let inputs: Vec<Matrix<f64>> = (0..sh.batch)
        .map(|_| {
            generate::<f64>(&MatrixSpec {
                m: sh.batch_n,
                n: sh.batch_n,
                cond: COND,
                distribution: SigmaDistribution::Geometric,
                seed: seeds.next_u64(),
            })
            .0
        })
        .collect();
    let per_entry_us = |secs: f64| secs * 1e6 / sh.batch as f64;

    let looped = median_secs(
        sh.budget_s,
        || (),
        |()| {
            for a in &inputs {
                black_box(qdwh(a, &QdwhOptions::default()).expect("probe solve converges"));
            }
        },
    );

    let cold_opts = BatchOptions::default();
    let cold = median_secs(
        sh.budget_s,
        || inputs.iter().cloned().map(BatchEntry::new).collect::<Vec<_>>(),
        |mut entries| {
            black_box(qdwh_batched(&mut entries, &cold_opts).expect("probe batch converges"));
        },
    );
    sheet.put("batch.entry_us_cold", per_entry_us(cold), "us");

    // the serving stream: every entry carries its conditioning class and
    // the shared cache is warm (the warm-up repetition fills it)
    let hinted_opts =
        BatchOptions { condest_cache: Some(Arc::new(CondestCache::new())), ..Default::default() };
    let mut flop = 0.0;
    let hinted = median_secs(
        sh.budget_s,
        || inputs.iter().map(|a| BatchEntry::with_cond_hint(a.clone(), COND)).collect::<Vec<_>>(),
        |mut entries| {
            let infos = qdwh_batched(&mut entries, &hinted_opts).expect("probe batch converges");
            flop = infos.iter().map(|i| i.flops_estimate).sum();
        },
    );
    sheet.put("batch.entry_us", per_entry_us(hinted), "us");
    sheet.put("batch.speedup_vs_looped", looped / hinted, "x");
    sheet.put("batch.gflops", gf(flop, hinted), "GFlop/s");
}

/// obs: cost of one span guard while observability is off (the path every
/// end-to-end run takes through every kernel).
fn obs_disabled_guard(sheet: &mut Sheet) {
    assert!(
        !polar_obs::metrics_enabled() && !polar_obs::trace_enabled(),
        "the disabled-guard probe must run with observability off"
    );
    const GUARDS: usize = 1_000_000;
    let t = Instant::now();
    for i in 0..GUARDS {
        drop(black_box(polar_obs::kernel_span(KernelClass::Gemm, "probe", 524_288.0, [64, 64, i])));
    }
    sheet.put("obs.disabled_guard_ns", t.elapsed().as_secs_f64() * 1e9 / GUARDS as f64, "ns");
}

/// Run every fixed-shape probe. Observability must be off.
pub fn run_all(sh: &Shapes, seed: u64, sheet: &mut Sheet) {
    obs_disabled_guard(sheet);
    blas(sh, seed, sheet);
    lapack(sh, seed, sheet);
    matrix(sh, seed, sheet);
    runtime(sh, sheet);
    batch(sh, seed, sheet);
}
