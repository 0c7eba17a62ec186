//! QDWH-based polar decomposition — the primary contribution of the
//! reproduced paper (Sukkari et al., SC-W 2023).
//!
//! Computes `A = U_p H` for `A ∈ C^{m x n}` (`m >= n`) with `U_p` having
//! orthonormal columns and `H` Hermitian positive semidefinite, via the
//! QR-based Dynamically-Weighted Halley iteration (Algorithm 1 of the
//! paper), in any of the four standard scalar types.
//!
//! ```
//! use polar_qdwh::{qdwh, QdwhOptions};
//! use polar_gen::MatrixSpec;
//!
//! let (a, _) = polar_gen::generate::<f64>(&MatrixSpec::ill_conditioned(64, 7));
//! let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
//! assert!(pd.info.orthogonality_error(&pd.u) < 1e-13);
//! assert!(pd.info.iterations <= 6); // paper's double-precision bound
//! ```
//!
//! Beyond the paper's core algorithm, the crate ships the applications its
//! introduction motivates and its future-work section proposes:
//! [`svd_based_polar`] (the baseline QDWH is compared against),
//! [`qdwh_svd`] (SVD through PD + EVD, §3), [`qdwh_eig`] (spectral
//! divide-and-conquer symmetric eigensolver), and [`qdwh_mixed`]
//! (mixed-precision iteration + Newton–Schulz refinement, §8).

#![forbid(unsafe_code)]

mod applications;
mod dist;
mod elliptic;
mod graph;
mod mixed;
mod options;
mod params;
mod partial;
mod qdwh_impl;
mod skeleton;
mod solve_dag;
mod svd_pd;
mod zolo;

pub use applications::{qdwh_eig, qdwh_svd, QdwhEig, QdwhSvd};
pub use dist::{qdwh_distributed, DistConfig, DistOutcome};
pub use elliptic::{
    ellip_k, jacobi_sn_cn_dn, zolotarev_coefficients, zolotarev_eval, zolotarev_weights,
};
pub use graph::task_graph;
pub use mixed::{qdwh_mixed, MixedPrecision};
pub use options::{
    IterationDecision, IterationKind, IterationPath, IterationProgress, L0Strategy, ProgressHook,
    QdwhOptions,
};
pub use params::{halley_parameters, update_ell, HalleyParams};
pub use partial::{qdwh_partial_eig, qdwh_partial_svd, PartialEig, PartialSvd};
pub use qdwh_impl::{
    hermitian_deviation, orthogonality_error, psd_deviation, qdwh, IterationRecord,
    PolarDecomposition, QdwhError, QdwhInfo,
};
pub use skeleton::{converged, estimate_l0, qdwh_flops, zolo_flops, HalleyStep};
pub use svd_pd::svd_based_polar;
pub use zolo::{zolo_pd, ZoloOptions, ZoloOutcome};
