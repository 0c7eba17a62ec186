//! Scalar abstraction for the `polar-rs` workspace.
//!
//! The QDWH polar decomposition in the reproduced paper (Sukkari et al.,
//! SC-W 2023) supports all four standard dense linear algebra data types:
//! `float`, `double`, `float complex`, and `double complex`. This crate
//! provides the corresponding Rust types and the [`Scalar`] / [`Real`]
//! traits that every kernel in the workspace is generic over.
//!
//! The complex types are implemented from scratch (see [`Complex`]) because
//! the workspace builds every substrate itself.

#![forbid(unsafe_code)]

mod complex;
mod real;
mod scalar_trait;

pub use complex::{Complex, Complex32, Complex64};
pub use real::Real;
pub use scalar_trait::Scalar;

/// Machine epsilon for a scalar type's underlying real type.
///
/// Convenience free function mirroring LAPACK's `dlamch('E')`.
pub fn eps<S: Scalar>() -> S::Real {
    <S::Real as Real>::EPSILON
}

/// Safe minimum (smallest positive normal) for the underlying real type,
/// mirroring LAPACK's `dlamch('S')`.
pub fn safe_min<S: Scalar>() -> S::Real {
    <S::Real as Real>::MIN_POSITIVE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eps_matches_std() {
        assert_eq!(eps::<f32>(), f32::EPSILON);
        assert_eq!(eps::<f64>(), f64::EPSILON);
        assert_eq!(eps::<Complex32>(), f32::EPSILON);
        assert_eq!(eps::<Complex64>(), f64::EPSILON);
    }

    #[test]
    fn safe_min_positive() {
        assert!(safe_min::<f64>() > 0.0);
        assert!(safe_min::<Complex32>() > 0.0);
    }
}
