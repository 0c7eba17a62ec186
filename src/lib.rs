//! # polar — task-based QDWH polar decomposition
//!
//! Rust reproduction of *"Task-Based Polar Decomposition Using SLATE on
//! Massively Parallel Systems with Hardware Accelerators"* (Sukkari,
//! Gates, Al Farhan, Anzt, Dongarra — SC-W 2023).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`scalar`] | `polar-scalar` | the four data types (`f32`, `f64`, complex) |
//! | [`matrix`] | `polar-matrix` | dense/tiled storage, 2D block-cyclic maps |
//! | [`blas`] | `polar-blas` | from-scratch parallel BLAS + `gemmA` |
//! | [`lapack`] | `polar-lapack` | QR/Cholesky/LU, estimators, Jacobi SVD/EVD |
//! | [`gen`] | `polar-gen` | §7.1 test-matrix generator |
//! | [`runtime`] | `polar-runtime` | tile-task DAGs, task-based vs fork-join scheduling |
//! | [`sim`] | `polar-sim` | Summit/Frontier models, performance simulation |
//! | [`qdwh`] | `polar-qdwh` | **the paper's contribution**: QDWH-PD + applications |
//! | [`svc`] | `polar-svc` | embeddable job service: admission, batching, retries, telemetry |
//! | [`obs`] | `polar-obs` | tracing spans, kernel flop counters, achieved-GFlop/s profiling |
//!
//! ## Quickstart
//!
//! ```
//! use polar::prelude::*;
//!
//! // ill-conditioned test matrix (kappa = 1e16), as in the paper's runs
//! let (a, _) = polar::gen::generate::<f64>(&MatrixSpec::ill_conditioned(96, 42));
//! let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
//!
//! // Fig. 1 metrics: both at machine-precision level
//! assert!(polar::qdwh::orthogonality_error(&pd.u) < 1e-13);
//! assert!(pd.backward_error(&a) < 1e-13);
//! // worst-case iteration bound from the paper
//! assert!(pd.info.iterations <= 6);
//! ```

pub use polar_blas as blas;
pub use polar_gen as gen;
pub use polar_lapack as lapack;
pub use polar_matrix as matrix;
pub use polar_obs as obs;
pub use polar_qdwh as qdwh;
pub use polar_runtime as runtime;
pub use polar_scalar as scalar;
pub use polar_sim as sim;
pub use polar_svc as svc;

/// The names most programs need.
pub mod prelude {
    pub use polar_gen::{generate, MatrixSpec, SigmaDistribution};
    pub use polar_matrix::{Matrix, Norm, Op, ProcessGrid};
    pub use polar_qdwh::DistConfig;
    pub use polar_qdwh::{
        qdwh, qdwh_distributed, qdwh_eig, qdwh_mixed, qdwh_partial_eig, qdwh_partial_svd, qdwh_svd,
        svd_based_polar, PolarDecomposition, QdwhOptions,
    };
    pub use polar_scalar::{Complex32, Complex64, Real, Scalar};
    pub use polar_svc::{FaultPlan, JobKind, JobSpec, PolarService, ServiceConfig, SubmitError};
}
