//! Bitwise determinism of the batched engine: run to run, and — the
//! engine's lane seam — across pool widths, wave sizes and wave
//! compositions.
//!
//! A chunk of a wave runs sequentially and every kernel under it picks its
//! code path from the entry shape alone, so an entry's bits can depend on
//! nothing but the entry.

use polar_batch::{cond_class, qdwh_batched, BatchEntry, BatchOptions, CondestCache, CondestKey};
use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_matrix::Matrix;
use polar_qdwh::QdwhInfo;
use polar_scalar::{Complex64, Scalar};
use std::sync::Arc;

fn entries<S: Scalar>(m: usize, n: usize, batch: usize, seed: u64, ill: f64) -> Vec<BatchEntry<S>> {
    (0..batch)
        .map(|k| {
            let cond = if k % 2 == 0 { ill } else { 50.0 }; // mix QR and Cholesky rounds
            let spec = MatrixSpec {
                m,
                n,
                cond,
                distribution: SigmaDistribution::Geometric,
                seed: seed + k as u64,
            };
            BatchEntry::new(generate::<S>(&spec).0)
        })
        .collect()
}

fn assert_bitwise_equal<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>, what: &str, k: usize) {
    assert_eq!(a.nrows(), b.nrows());
    assert_eq!(a.ncols(), b.ncols());
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(x == y, "{what} entry {k} element {i}: {x:?} != {y:?} (not bitwise equal)");
    }
}

/// Factors, iteration plan, scaling, `l_0` and the whole convergence
/// history of one solved entry against another.
fn assert_same_solve<S: Scalar>(
    (ea, ia): (&BatchEntry<S>, &QdwhInfo<S::Real>),
    (eb, ib): (&BatchEntry<S>, &QdwhInfo<S::Real>),
    k: usize,
) {
    assert_bitwise_equal(&ea.u, &eb.u, "U", k);
    assert_bitwise_equal(&ea.h, &eb.h, "H", k);
    assert_eq!(ia.iterations, ib.iterations, "entry {k} iterations");
    assert_eq!(ia.kinds, ib.kinds, "entry {k} kinds");
    assert!(ia.alpha == ib.alpha, "entry {k} alpha");
    assert!(ia.l0 == ib.l0, "entry {k} l0");
    for (ra, rb) in ia.records.iter().zip(&ib.records) {
        assert!(ra.convergence == rb.convergence, "entry {k} convergence history");
        assert!(ra.ell == rb.ell, "entry {k} ell history");
    }
}

fn run_twice_and_compare<S: Scalar>(m: usize, n: usize, batch: usize, seed: u64, ill: f64) {
    let opts =
        BatchOptions { condest_cache: Some(Arc::new(CondestCache::new())), ..Default::default() };
    let mut first = entries::<S>(m, n, batch, seed, ill);
    let infos_a = qdwh_batched(&mut first, &opts).expect("first run converged");
    let mut second = entries::<S>(m, n, batch, seed, ill);
    let infos_b = qdwh_batched(&mut second, &opts).expect("second run converged");
    for k in 0..batch {
        assert_same_solve((&first[k], &infos_a[k]), (&second[k], &infos_b[k]), k);
    }
}

#[test]
fn batched_runs_are_bitwise_deterministic() {
    run_twice_and_compare::<f64>(48, 48, 6, 11, 1e10);
    run_twice_and_compare::<f64>(40, 16, 4, 23, 1e10); // rectangular
    run_twice_and_compare::<Complex64>(24, 24, 3, 31, 1e10);
    // single precision: keep kappa well inside 1/eps_f32 (~8e6)
    run_twice_and_compare::<f32>(32, 32, 4, 41, 1e4);
}

const N: usize = 32; // two entries' GEMM sweep already reaches the fork threshold
const HINTS: [f64; 2] = [2.0, 1e3];

/// A wave whose entries take different round sequences — two QR rounds
/// (`ill`), one, or none (κ = 2 is Cholesky-only) — so the iteration
/// families split differently in every chunk; every other entry carries a
/// condition hint and so goes through the cache.
fn mixed_wave<S: Scalar>(batch: usize, seed: u64, ill: f64) -> Vec<BatchEntry<S>> {
    (0..batch)
        .map(|k| {
            let cond = [ill, 2.0, 50.0][k % 3];
            let spec = MatrixSpec {
                m: N + 8,
                n: N,
                cond,
                distribution: SigmaDistribution::Geometric,
                seed: seed + k as u64,
            };
            let a = generate::<S>(&spec).0;
            if k % 2 == 1 {
                BatchEntry::with_cond_hint(a, HINTS[(k / 2) % 2])
            } else {
                BatchEntry::new(a)
            }
        })
        .collect()
}

type Wave<S> = (Vec<BatchEntry<S>>, Vec<QdwhInfo<<S as Scalar>::Real>>);

struct Solved<S: Scalar> {
    /// A cold wave (every hinted entry estimates and folds its own `l_0`)
    /// and a warm one (hinted entries take the folded bound).
    waves: [Wave<S>; 2],
    /// What the cache held after both, per hinted class.
    cached: Vec<Option<f64>>,
}

fn solve_on<S: Scalar>(threads: usize, batch: usize, seed: u64, ill: f64) -> Solved<S> {
    let pool = rayon::ThreadPool::new(threads);
    let cache = Arc::new(CondestCache::new());
    let opts = BatchOptions { condest_cache: Some(cache.clone()), ..Default::default() };
    let waves = [seed, seed + 1000].map(|s| {
        let mut wave = mixed_wave::<S>(batch, s, ill);
        let infos = pool.install(|| qdwh_batched(&mut wave, &opts)).expect("wave converged");
        (wave, infos)
    });
    let cached = HINTS
        .iter()
        .map(|&h| {
            cache.lookup(CondestKey { n: N, type_tag: S::TYPE_TAG, class: cond_class(Some(h)) })
        })
        .collect();
    Solved { waves, cached }
}

fn pool_width_and_company_do_not_change_bits<S: Scalar>(seed: u64, ill: f64) {
    // sizes on both sides of every chunk boundary at 2 and 3 lanes
    for batch in [1, 2, 3, 5, 33] {
        let one = solve_on::<S>(1, batch, seed, ill);
        if batch >= 3 {
            let kinds: Vec<usize> = one.waves[0].1.iter().map(|i| i.qr_iterations).collect();
            assert!(kinds.contains(&0) && kinds.iter().any(|&q| q >= 1), "QR rounds {kinds:?}");
        }
        for threads in [2, 3] {
            let wide = solve_on::<S>(threads, batch, seed, ill);
            for (w, ((ea, ia), (eb, ib))) in one.waves.iter().zip(&wide.waves).enumerate() {
                for k in 0..batch {
                    assert_same_solve((&ea[k], &ia[k]), (&eb[k], &ib[k]), 100 * w + k);
                }
            }
            assert_eq!(
                one.cached.iter().map(|c| c.map(f64::to_bits)).collect::<Vec<_>>(),
                wide.cached.iter().map(|c| c.map(f64::to_bits)).collect::<Vec<_>>(),
                "cache contents at {threads} threads, batch {batch}"
            );
        }
        // ... nor does the rest of the wave: each entry of the cold wave,
        // solved alone against an empty cache
        let (wave, infos) = &one.waves[0];
        for k in (0..batch).step_by(3) {
            let mut alone = vec![mixed_wave::<S>(batch, seed, ill).swap_remove(k)];
            let opts = BatchOptions {
                condest_cache: Some(Arc::new(CondestCache::new())),
                ..Default::default()
            };
            let info = qdwh_batched(&mut alone, &opts).expect("lone entry converged");
            assert_same_solve((&wave[k], &infos[k]), (&alone[0], &info[0]), k);
        }
    }
}

#[test]
fn bits_do_not_depend_on_pool_width_or_company_f64() {
    pool_width_and_company_do_not_change_bits::<f64>(7, 1e10);
}

#[test]
fn bits_do_not_depend_on_pool_width_or_company_f32() {
    pool_width_and_company_do_not_change_bits::<f32>(17, 1e4);
}

#[test]
fn bits_do_not_depend_on_pool_width_or_company_c64() {
    pool_width_and_company_do_not_change_bits::<Complex64>(27, 1e10);
}
