//! Algorithm-level criterion benchmarks: the polar-decomposition method
//! family (QDWH / Zolo-PD / mixed precision / SVD-based) and the
//! spectrum applications, timed for real on this host.

use criterion::{criterion_group, criterion_main, Criterion};
use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_matrix::ProcessGrid;
use polar_qdwh::{
    qdwh, qdwh_distributed, qdwh_mixed, qdwh_partial_svd, qdwh_svd, svd_based_polar, zolo_pd,
    DistConfig, QdwhOptions, ZoloOptions,
};

fn ill(n: usize, seed: u64) -> polar_matrix::Matrix<f64> {
    generate::<f64>(&MatrixSpec::ill_conditioned(n, seed)).0
}

fn bench_pd_family(c: &mut Criterion) {
    let mut g = c.benchmark_group("pd_family_n96_kappa1e16");
    g.sample_size(10);
    let a = ill(96, 1);
    g.bench_function("qdwh", |b| b.iter(|| qdwh(&a, &QdwhOptions::default()).unwrap()));
    g.bench_function("qdwh_unstructured_qr", |b| {
        // ablation: disable the [B; I] window optimization
        let opts = QdwhOptions { exploit_structure: false, ..Default::default() };
        b.iter(|| qdwh(&a, &opts).unwrap())
    });
    g.bench_function("zolo_pd_r8", |b| b.iter(|| zolo_pd(&a, &ZoloOptions::default()).unwrap()));
    g.bench_function("mixed_precision", |b| {
        // mixed path needs a moderate condition number for the f32 stage
        let spec = MatrixSpec {
            m: 96,
            n: 96,
            cond: 1e4,
            distribution: SigmaDistribution::Geometric,
            seed: 2,
        };
        let (a4, _) = generate::<f64>(&spec);
        b.iter(|| qdwh_mixed(&a4, &QdwhOptions::default()).unwrap())
    });
    g.bench_function("svd_based", |b| b.iter(|| svd_based_polar(&a).unwrap()));
    g.finish();
}

fn bench_spectrum_apps(c: &mut Criterion) {
    let mut g = c.benchmark_group("spectrum_apps");
    g.sample_size(10);
    let spec = MatrixSpec {
        m: 120,
        n: 80,
        cond: 1e6,
        distribution: SigmaDistribution::Geometric,
        seed: 3,
    };
    let (a, _) = generate::<f64>(&spec);
    g.bench_function("qdwh_svd_full", |b| {
        b.iter(|| qdwh_svd(&a, &QdwhOptions::default()).unwrap())
    });
    g.bench_function("qdwh_partial_svd_k8", |b| {
        b.iter(|| qdwh_partial_svd(&a, 8, &QdwhOptions::default()).unwrap())
    });
    g.finish();
}

fn bench_distributed_overhead(c: &mut Criterion) {
    // tiled execution vs dense driver on the same matrix: the cost of the
    // tile algorithms + metering on one host
    let mut g = c.benchmark_group("distributed_emulation_n64");
    g.sample_size(10);
    let spec =
        MatrixSpec { m: 64, n: 64, cond: 1e6, distribution: SigmaDistribution::Geometric, seed: 4 };
    let (a, _) = generate::<f64>(&spec);
    g.bench_function("dense_driver", |b| b.iter(|| qdwh(&a, &QdwhOptions::default()).unwrap()));
    g.bench_function("tiled_virtual_cluster_2x2", |b| {
        let cfg = DistConfig { grid: ProcessGrid::new(2, 2), nb: 16 };
        b.iter(|| qdwh_distributed(&a, &QdwhOptions::default(), &cfg).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_pd_family, bench_spectrum_apps, bench_distributed_overhead);
criterion_main!(benches);
