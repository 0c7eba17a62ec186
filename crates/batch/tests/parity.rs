//! Batched-vs-sequential parity: for every scalar type and a spread of
//! shapes/conditionings, `qdwh_batched` must produce the same factors as
//! looping the scalar `qdwh` driver over the entries.
//!
//! The engine is configured to match the scalar prologue exactly
//! (`fast_scale` off, no shared cache), so per-entry iterates follow the
//! same parameter sequence and the factors agree to rounding.

use polar_batch::{qdwh_batched, BatchEntry, BatchOptions};
use polar_blas::{add, norm};
use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_matrix::{Matrix, Norm};
use polar_qdwh::{qdwh, QdwhOptions};
use polar_scalar::{Complex32, Complex64, Real, Scalar};
use proptest::prelude::*;

fn fro_diff<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> f64 {
    let mut d = a.clone();
    add(-S::ONE, b.as_ref(), S::ONE, d.as_mut());
    norm(Norm::Fro, d.as_ref()).to_f64()
}

/// Run one batch in both engines and compare factors entry by entry.
fn check_parity<S: Scalar>(specs: &[MatrixSpec], tol: f64) {
    let inputs: Vec<Matrix<S>> = specs.iter().map(|s| generate::<S>(s).0).collect();
    let scalar_opts = QdwhOptions::default();
    let batch_opts = BatchOptions { fast_scale: false, ..Default::default() };

    let mut entries: Vec<BatchEntry<S>> = inputs.iter().cloned().map(BatchEntry::new).collect();
    let infos = qdwh_batched(&mut entries, &batch_opts).expect("batched converged");

    for (k, a) in inputs.iter().enumerate() {
        let scalar = qdwh(a, &scalar_opts).expect("scalar converged");
        let (m, n) = (a.nrows(), a.ncols());
        let scale = (m.max(1) * n.max(1)) as f64;

        let du = fro_diff(&entries[k].u, &scalar.u);
        assert!(
            du <= tol * scale.sqrt(),
            "entry {k}: ||U_batch - U_scalar|| = {du:e} (m={m} n={n})"
        );
        let dh = fro_diff(&entries[k].h, &scalar.h);
        let href = norm(Norm::Fro, scalar.h.as_ref()).to_f64();
        assert!(dh <= tol * (1.0 + href), "entry {k}: ||H_batch - H_scalar|| = {dh:e}");

        // same prologue => same parameter sequence; the iteration count
        // may differ by one only when conv sits exactly at the tolerance
        let di = infos[k].iterations.abs_diff(scalar.info.iterations);
        assert!(
            di <= 1,
            "entry {k}: iteration count diverged: batched {} vs scalar {} (kinds {:?} vs {:?})",
            infos[k].iterations,
            scalar.info.iterations,
            infos[k].kinds,
            scalar.info.kinds
        );
        let dl = (infos[k].l0 - scalar.info.l0).to_f64().abs();
        assert!(dl <= 1e-6 * (1.0 + scalar.info.l0.to_f64()), "entry {k}: l0 diverged by {dl:e}");
    }
}

/// Mixed-conditioning batch specs sharing one shape.
fn specs_for(m: usize, n: usize, batch: usize, seed: u64) -> Vec<MatrixSpec> {
    (0..batch)
        .map(|k| {
            let cond = match (seed + k as u64) % 3 {
                0 => 10.0,
                1 => 1e6,
                _ => 1e12,
            };
            MatrixSpec {
                m,
                n,
                cond,
                distribution: SigmaDistribution::Geometric,
                seed: seed * 1000 + k as u64,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn f64_batches_match_scalar(n in 4usize..40, extra in 0usize..12, batch in 1usize..6, seed in 0u64..100) {
        check_parity::<f64>(&specs_for(n + extra, n, batch, seed), 1e-9);
    }

    #[test]
    fn c64_batches_match_scalar(n in 4usize..28, batch in 1usize..5, seed in 0u64..100) {
        check_parity::<Complex64>(&specs_for(n, n, batch, seed), 1e-9);
    }

    #[test]
    fn f32_batches_match_scalar(n in 4usize..24, batch in 1usize..5, seed in 0u64..100) {
        // single precision: generate well-conditioned only (kappa 1e12 is
        // singular in f32) and compare loosely
        let specs: Vec<MatrixSpec> = (0..batch)
            .map(|k| MatrixSpec { m: n, n, cond: 100.0, distribution: SigmaDistribution::Geometric, seed: seed * 77 + k as u64 })
            .collect();
        check_parity::<f32>(&specs, 2e-3);
    }

    #[test]
    fn c32_batches_match_scalar(n in 4usize..20, batch in 1usize..4, seed in 0u64..100) {
        let specs: Vec<MatrixSpec> = (0..batch)
            .map(|k| MatrixSpec { m: n, n, cond: 100.0, distribution: SigmaDistribution::Geometric, seed: seed * 91 + k as u64 })
            .collect();
        check_parity::<Complex32>(&specs, 2e-3);
    }
}

#[test]
fn rectangular_mixed_condition_batch_matches_scalar() {
    check_parity::<f64>(&specs_for(48, 20, 5, 7), 1e-9);
}

#[test]
fn entries_larger_than_one_gemm_block_match_scalar() {
    // n = 160 > MC: the batched sweeps take their per-entry five-loop
    check_parity::<f64>(&specs_for(160, 160, 2, 3), 1e-9);
}
