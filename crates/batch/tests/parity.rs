//! Batched-vs-sequential parity: for every scalar type and a spread of
//! shapes/conditionings, `qdwh_batched` must produce the same factors as
//! looping the scalar `qdwh` driver over the entries.
//!
//! The engine is configured to match the scalar prologue exactly
//! (`fast_scale` off, no shared cache), so per-entry iterates follow the
//! same parameter sequence and the factors agree to rounding. The two run
//! different QR algorithms (flat blocked Householder in the engine, the tile
//! graph in `qdwh`); on an ill-conditioned entry, where two backward stable
//! routes to `U` may differ by `eps kappa(A)`, each `U` is held to what
//! defines the polar factor instead.

use polar_batch::{qdwh_batched, BatchEntry, BatchError, BatchOptions};
use polar_blas::{add, gemm, norm};
use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_matrix::{Matrix, Norm, Op};
use polar_qdwh::{
    orthogonality_error, qdwh, qdwh_mixed, zolo_pd, IterationPath, PolarDecomposition, QdwhError,
    QdwhInfo, QdwhOptions, ZoloOptions,
};
use polar_scalar::{Complex32, Complex64, Real, Scalar};
use proptest::prelude::*;

fn fro_diff<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> f64 {
    let mut d = a.clone();
    add(-S::ONE, b.as_ref(), S::ONE, d.as_mut());
    norm(Norm::Fro, d.as_ref()).to_f64()
}

/// `||U^H A - (U^H A)^H||_F / ||A||_F`: zero exactly when `U^H A` is
/// Hermitian, which with orthonormal columns is what makes `U` the polar
/// factor of `A` (Benner-Nakatsukasa-Penke, arXiv 2104.06659).
fn hermitian_residual<S: Scalar>(u: &Matrix<S>, a: &Matrix<S>) -> f64 {
    let n = a.ncols();
    let mut uha = Matrix::<S>::zeros(n, n);
    gemm(Op::ConjTrans, Op::NoTrans, S::ONE, u.as_ref(), a.as_ref(), S::ZERO, uha.as_mut());
    let skew = Matrix::<S>::from_fn(n, n, |i, j| uha[(i, j)] - uha[(j, i)].conj());
    (norm(Norm::Fro, skew.as_ref()) / norm(Norm::Fro, a.as_ref())).to_f64()
}

/// Run one batch in both engines and compare factors entry by entry, `U`
/// and `H` within `tol`. Past `kappa = 1e6` the difference of the two `U`s
/// is a property of the input, not of either solve: there each `U` has to
/// be orthonormal, reproduce `A` with the shared `H` and leave `U^H A`
/// Hermitian, all to `50 eps`.
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

        if specs[k].cond <= 1e6 {
            let du = fro_diff(&entries[k].u, &scalar.u);
            assert!(
                du <= tol * scale.sqrt(),
                "entry {k}: ||U_batch - U_scalar|| = {du:e} (m={m} n={n})"
            );
        } else {
            let tight = 50.0 * S::Real::EPSILON.to_f64();
            let batched = PolarDecomposition {
                u: entries[k].u.clone(),
                h: entries[k].h.clone(),
                info: infos[k].clone(),
            };
            for (who, pd) in [("batched", &batched), ("scalar", &scalar)] {
                let orth = orthogonality_error(&pd.u).to_f64();
                let berr = pd.backward_error(a).to_f64();
                let herm = hermitian_residual(&pd.u, a);
                assert!(
                    orth <= tight && berr <= tight && herm <= tight,
                    "entry {k} ({who}, m={m} n={n}): orth {orth:e} berr {berr:e} U^H A {herm:e}"
                );
            }
        }
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

/// The solve's graph and the batch engine read one plan: whatever the
/// start and the path, equal kinds, bit-equal bounds after every iteration
/// and equal modeled cost.
fn same_plan_everywhere<S: Scalar>() {
    let spec = MatrixSpec {
        m: 24,
        n: 24,
        cond: 1e3,
        distribution: SigmaDistribution::Geometric,
        seed: 15,
    };
    let a = generate::<S>(&spec).0;
    for l0 in [1e-16, 1e-8, 1e-3, 0.5, 0.9] {
        for path in [IterationPath::Auto, IterationPath::ForceQr, IterationPath::ForceCholesky] {
            let case = format!("{} l0={l0:e} {path:?}", S::TYPE_TAG);
            let qdwh_opts = QdwhOptions {
                l0_override: Some(l0),
                path,
                tile_nb: Some(16),
                ..Default::default()
            };
            let graph = qdwh(&a, &qdwh_opts).map(|pd| pd.info);
            let mut entry = [BatchEntry::new(a.clone())];
            let opts = BatchOptions { qdwh: qdwh_opts, fast_scale: false, ..Default::default() };
            let batched = qdwh_batched(&mut entry, &opts).map(|mut infos| infos.remove(0));
            let (Ok(graph), Ok(batched)) = (&graph, &batched) else {
                // a start below the type's range, or a forced Cholesky on
                // an indefinite Z: refused by both
                assert!(graph.is_err() && batched.is_err(), "{case}");
                continue;
            };
            assert_eq!(graph.kinds, batched.kinds, "{case}: kinds");
            assert_eq!(graph.flops_estimate, batched.flops_estimate, "{case}: cost");
            let ells = |i: &QdwhInfo<S::Real>| i.records.iter().map(|r| r.ell).collect::<Vec<_>>();
            assert_eq!(ells(graph), ells(batched), "{case}: bounds");
        }
    }
}

#[test]
fn fused_and_batched_follow_one_plan() {
    same_plan_everywhere::<f64>();
    same_plan_everywhere::<f32>();
}

/// Inputs no iteration runs on get one answer from every driver: `n = 0`
/// and the zero matrix are solved (`H` is `0 x 0` whenever `compute_h` is
/// off), a non-finite entry and a wide shape are refused.
#[test]
fn degenerate_inputs_are_answered_alike() {
    type Answer = Result<(Matrix<f64>, Matrix<f64>, QdwhInfo<f64>), QdwhError>;
    let tiles_of_8 = |compute_h| QdwhOptions { compute_h, tile_nb: Some(8), ..Default::default() };
    let default = |compute_h| QdwhOptions { compute_h, ..Default::default() };
    let of_pd = |pd: PolarDecomposition<f64>| (pd.u, pd.h, pd.info);
    let zolo = |a: &Matrix<f64>, o: QdwhOptions| {
        let zopts =
            ZoloOptions { compute_h: o.compute_h, tile_nb: o.tile_nb, ..Default::default() };
        zolo_pd(a, &zopts).map(|z| of_pd(z.pd))
    };
    let batched = |a: &Matrix<f64>, compute_h| {
        let mut entry = [BatchEntry::new(a.clone())];
        let opts = BatchOptions { qdwh: default(compute_h), ..Default::default() };
        match qdwh_batched(&mut entry, &opts) {
            Ok(mut infos) => {
                let [e] = entry;
                Ok((e.u, e.h, infos.remove(0)))
            }
            Err(BatchError::Entry { index: 0, source }) => Err(source),
            Err(BatchError::Shape(msg)) => Err(QdwhError::Shape(msg)),
            Err(other) => panic!("{other:?}"),
        }
    };
    type Solver<'a> = (&'a str, Box<dyn Fn(&Matrix<f64>, bool) -> Answer + 'a>);
    let solvers: Vec<Solver> = vec![
        ("qdwh", Box::new(|a, h| qdwh(a, &default(h)).map(of_pd))),
        ("qdwh, tiles of 8", Box::new(|a, h| qdwh(a, &tiles_of_8(h)).map(of_pd))),
        ("zolo_pd", Box::new(|a, h| zolo(a, default(h)))),
        ("zolo_pd, tiles of 8", Box::new(|a, h| zolo(a, tiles_of_8(h)))),
        ("qdwh_mixed", Box::new(|a, h| qdwh_mixed(a, &default(h)).map(|(pd, _)| of_pd(pd)))),
        ("qdwh_batched", Box::new(|a, h| batched(a, h))),
    ];
    let mut with_nan = Matrix::<f64>::identity(5, 3);
    with_nan[(1, 2)] = f64::NAN;
    let inputs = [
        ("n = 0", Matrix::<f64>::zeros(5, 0)),
        ("zero", Matrix::zeros(5, 3)),
        ("NaN", with_nan),
        ("wide", Matrix::identity(3, 5)),
    ];
    for (name, solve) in &solvers {
        for (input, a) in &inputs {
            for compute_h in [true, false] {
                let case = format!("{name}, {input}, compute_h = {compute_h}");
                let answer = solve(a, compute_h);
                match *input {
                    "NaN" => assert_eq!(
                        answer.err(),
                        Some(QdwhError::NonFinite { iteration: 0 }),
                        "{case}"
                    ),
                    "wide" => assert!(matches!(answer, Err(QdwhError::Shape(_))), "{case}"),
                    _ => {
                        let (u, h, info) = answer.unwrap_or_else(|e| panic!("{case}: {e:?}"));
                        let n = a.ncols();
                        assert_eq!(fro_diff(&u, &Matrix::identity(5, n)), 0.0, "{case}: U");
                        let order = if compute_h { n } else { 0 };
                        assert_eq!((h.nrows(), h.ncols()), (order, order), "{case}: H shape");
                        assert!(h.as_slice().iter().all(|&v| v == 0.0), "{case}: H");
                        assert_eq!(
                            (info.iterations, info.alpha, info.flops_estimate),
                            (0, 0.0, 0.0),
                            "{case}"
                        );
                        assert!(info.records.is_empty(), "{case}");
                    }
                }
            }
        }
    }
}
