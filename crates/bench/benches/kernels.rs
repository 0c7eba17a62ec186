//! PERF-KERNELS: criterion microbenchmarks of the real (this-host)
//! implementations: the BLAS/LAPACK substrate kernels and the QDWH driver
//! end to end. These are supporting measurements — the paper-scale figures
//! come from the simulator harnesses in `src/bin/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use polar_blas::gemm;
use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_lapack::{geqrf, jacobi_svd, norm2est, potrf};
use polar_matrix::{Matrix, Op, Uplo};
use polar_qdwh::{qdwh, svd_based_polar, QdwhOptions};

fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix<f64> {
    let mut s = seed | 1;
    Matrix::from_fn(m, n, |_, _| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

fn spd(n: usize, seed: u64) -> Matrix<f64> {
    let g = rand_mat(n, n, seed);
    let mut a = Matrix::identity(n, n);
    polar_blas::scale(n as f64, a.as_mut());
    gemm(Op::NoTrans, Op::Trans, 1.0, g.as_ref(), g.as_ref(), 1.0, a.as_mut());
    a
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for n in [64usize, 128, 256] {
        let a = rand_mat(n, n, 1);
        let b = rand_mat(n, n, 2);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            let mut out = Matrix::<f64>::zeros(n, n);
            bench.iter(|| {
                gemm(Op::NoTrans, Op::NoTrans, 1.0, a.as_ref(), b.as_ref(), 0.0, out.as_mut());
            });
        });
    }
    group.finish();
}

fn bench_geqrf(c: &mut Criterion) {
    let mut group = c.benchmark_group("geqrf");
    for n in [64usize, 128, 256] {
        let a = rand_mat(2 * n, n, 3); // the QDWH stacked shape
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                let mut w = a.clone();
                geqrf(&mut w)
            });
        });
    }
    group.finish();
}

fn bench_potrf(c: &mut Criterion) {
    let mut group = c.benchmark_group("potrf");
    for n in [64usize, 128, 256] {
        let a = spd(n, 5);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                let mut w = a.clone();
                potrf(Uplo::Lower, &mut w).unwrap();
            });
        });
    }
    group.finish();
}

fn bench_norm2est(c: &mut Criterion) {
    let a = rand_mat(512, 512, 6);
    c.bench_function("norm2est_512", |b| b.iter(|| norm2est(&a)));
}

fn bench_qdwh(c: &mut Criterion) {
    let mut group = c.benchmark_group("qdwh_end_to_end");
    group.sample_size(10);
    for (label, cond) in [("well_conditioned", 10.0), ("ill_conditioned", 1e16)] {
        let spec = MatrixSpec {
            m: 128,
            n: 128,
            cond,
            distribution: SigmaDistribution::Geometric,
            seed: 7,
        };
        let (a, _) = generate::<f64>(&spec);
        group.bench_function(label, |b| b.iter(|| qdwh(&a, &QdwhOptions::default()).unwrap()));
    }
    group.finish();
}

fn bench_pd_methods(c: &mut Criterion) {
    // QDWH vs SVD-based PD: the related-work comparison (§3) on real
    // hardware — QDWH's kernels are compute-bound, Jacobi's are not.
    let mut group = c.benchmark_group("polar_decomposition_methods");
    group.sample_size(10);
    let (a, _) = generate::<f64>(&MatrixSpec {
        m: 96,
        n: 96,
        cond: 1e8,
        distribution: SigmaDistribution::Geometric,
        seed: 8,
    });
    group.bench_function("qdwh", |b| b.iter(|| qdwh(&a, &QdwhOptions::default()).unwrap()));
    group.bench_function("svd_based", |b| b.iter(|| svd_based_polar(&a).unwrap()));
    group.bench_function("jacobi_svd_alone", |b| b.iter(|| jacobi_svd(&a).unwrap()));
    group.finish();
}

fn bench_analytic_model(c: &mut Criterion) {
    use polar_sim::machine::NodeSpec;
    use polar_sim::{estimate_qdwh_time, Implementation};
    let summit = NodeSpec::summit();
    c.bench_function("analytic_model_eval", |b| {
        b.iter(|| estimate_qdwh_time(&summit, 8, Implementation::SlateGpu, 130_000, 320, 3, 3))
    });
}

criterion_group!(
    benches,
    bench_gemm,
    bench_geqrf,
    bench_potrf,
    bench_norm2est,
    bench_qdwh,
    bench_pd_methods,
    bench_analytic_model
);
criterion_main!(benches);
