//! From-scratch dense matrix factorizations and estimators.
//!
//! This crate stands in for (Sca)LAPACK in the reproduced paper. It
//! provides every factorization and estimator Algorithm 1 consumes:
//!
//! * [`geqrf`] / [`unmqr`] / [`orgqr`] — blocked Householder QR (the
//!   QR-based QDWH iteration, Algorithm 1 lines 30–36);
//! * [`potrf`] / [`posv`] — Cholesky (the Cholesky-based iteration, lines
//!   38–44);
//! * [`getrf`] / [`getrs`] — partial-pivoting LU (general condition
//!   estimation);
//! * [`norm1est`] (Hager), [`gecondest`], [`trcondest`] — 1-norm condition
//!   estimators (§6.3);
//! * [`norm2est`] — power-iteration two-norm estimator (Algorithm 2);
//! * [`jacobi_svd`] — one-sided Jacobi SVD (test-matrix generation and the
//!   SVD-based polar decomposition baseline of §3);
//! * [`jacobi_eig`] — Hermitian Jacobi eigensolver (the `H = V Λ V^H` step
//!   of the QDWH-SVD application, and positive-semidefiniteness checks).

mod chol;
mod condest;
mod eig;
mod householder;
mod lu;
mod norm2est;
mod qr;
mod svd;
mod tile_qr;
mod tiled;
mod tri;

pub use chol::{posv, potrf, potrf_in};
pub use condest::{gecondest, norm1est, tr_sigma_min_est, trcondest, OneNormOracle};
pub use eig::{jacobi_eig, EigDecomposition};
pub use householder::{larf, larfg, Reflector};
pub use lu::{getrf, getrs, LuFactors};
pub use norm2est::{norm2est, Norm2Est};
pub use qr::{extract_r, geqrf, geqrf_blocked, geqrf_stacked, orgqr, unmqr, QrFactors};
pub use svd::{jacobi_svd, SvdDecomposition};
pub use tile_qr::{
    geqrt_blocked, geqrt_blocked_into, tsmqr_blocked, tsqrt_blocked, tsqrt_blocked_into,
    unmqr_tile_blocked, TileT,
};
pub use tiled::{
    auto_tile_nb, default_tile_nb, emit_geqrf, emit_orgqr, emit_potrf, geqrf_tiled,
    geqrf_tiled_stacked, orgqr_tiled, potrf_tiled, tile_nb3, QrPtr, TilePtr, TiledQr,
};
pub use tri::trtri_lower;

/// Error type for factorizations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LapackError {
    /// Leading minor of the given order is not positive definite
    /// (Cholesky), mirroring LAPACK's positive `info`.
    NotPositiveDefinite(usize),
    /// Exactly-zero pivot at the given index (LU).
    SingularPivot(usize),
    /// An iterative algorithm did not converge within its sweep budget.
    NoConvergence { sweeps: usize },
    /// Dimension mismatch or unsupported shape.
    Shape(&'static str),
}

impl std::fmt::Display for LapackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LapackError::NotPositiveDefinite(k) => {
                write!(f, "leading minor of order {k} is not positive definite")
            }
            LapackError::SingularPivot(k) => write!(f, "zero pivot at index {k}"),
            LapackError::NoConvergence { sweeps } => {
                write!(f, "no convergence after {sweeps} sweeps")
            }
            LapackError::Shape(msg) => write!(f, "shape error: {msg}"),
        }
    }
}

impl std::error::Error for LapackError {}

/// Whether a failure is worth retrying. Serving layers (see `polar-svc`)
/// use this to decide between retry-with-backoff and immediate rejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// Deterministic: the same input will fail the same way (shape
    /// mismatch, exact singularity, indefiniteness). Never retry.
    Permanent,
    /// Budget- or environment-dependent: a retry under a different
    /// configuration (larger sweep budget, different iteration path, a
    /// recovered accelerator) can succeed.
    Transient,
}

impl LapackError {
    /// Classify this failure for retry policies.
    pub fn class(&self) -> FailureClass {
        match self {
            // properties of the input matrix itself — retrying the same
            // call reproduces them exactly
            LapackError::NotPositiveDefinite(_)
            | LapackError::SingularPivot(_)
            | LapackError::Shape(_) => FailureClass::Permanent,
            // an exhausted iteration budget is a resource cap, not a
            // property of the data; retry policies may raise the budget
            // or switch algorithm variant
            LapackError::NoConvergence { .. } => FailureClass::Transient,
        }
    }
}

/// Default block size for blocked factorizations (LAPACK `ilaenv`-style
/// constant; the paper's tile sizes 192/320 play the analogous role at the
/// distributed level).
pub const DEFAULT_BLOCK: usize = 32;
