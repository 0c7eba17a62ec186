//! From-scratch parallel BLAS for the `polar-rs` workspace.
//!
//! Stands in for the vendor BLAS (cuBLAS / rocBLAS / ESSL / MKL) that SLATE
//! reaches through BLAS++ in the reproduced paper. Every kernel is generic
//! over [`polar_scalar::Scalar`] (the four paper data types) and operates on
//! [`polar_matrix::MatRef`] / [`polar_matrix::MatMut`] views.
//!
//! Parallelism follows the recursive-split pattern: kernels divide the
//! output into disjoint blocks with `split_at_row` / `split_at_col` and
//! recurse under [`rayon::join`], which is the shared-memory analogue of
//! the OpenMP task parallelism SLATE uses on a node. Whether a call splits
//! at all is one decision, [`params::fork_lanes`]: never inside a tile-task
//! body (the task graph owns the parallelism there), never below the fork
//! threshold, never finer than a floor that amortizes operand packing.
//!
//! Kernel inventory (paper Algorithm 1 call sites in parentheses):
//! * [`gemm`] — general matrix multiply (lines 35, 52);
//! * [`gemm_a`] — the `gemmA` variant of §6.2 for tall `A`, skinny `C`
//!   (power-iteration matvecs of Algorithm 2);
//! * [`herk`] — Hermitian rank-k update (line 40);
//! * [`trsm`] — triangular solve (the panels of `potrf` and of the tile
//!   Cholesky, line 40);
//! * [`trmm`] — in-place triangular multiply (the `T` factors of the QR
//!   panels, the inverted diagonal tiles of the fused Cholesky sweeps);
//! * [`add`], [`scale`], [`copy_into`] — the `add` / `scale` / `copy`
//!   operations of Algorithm 1;
//! * [`norm`], [`col_sums`] — matrix norms (lines 9, 18, 48; Algorithm 2).

mod batched;
mod gemm;
mod level1;
mod norms;
mod packed;
pub mod params;
mod symm;
mod trsm;

pub use batched::{gemm_batched, gemm_batched_packed};
pub use gemm::{gemm, gemm_a, gemm_ref};
pub use level1::{add, axpy, copy_into, dot, dotc, iamax, nrm2, scale, scale_real};
pub use norms::{col_sums, norm, norm_triangular, row_sums};
pub use packed::microkernel;
pub use symm::{herk, herk_mirrored, mirror_triangle, symmetrize};
pub use trsm::{trmm, trsm};

/// Flop-count helpers shared with the performance model.
pub mod flops {
    /// Real-flop multiplier for one multiply-add in the given scalar type.
    /// Complex fused multiply-add costs 4 real multiplies + 4 adds ≈ 4x.
    pub fn type_factor(is_complex: bool) -> f64 {
        if is_complex {
            4.0
        } else {
            1.0
        }
    }

    /// `gemm` flops: `2 m n k`.
    pub fn gemm(m: usize, n: usize, k: usize) -> f64 {
        2.0 * m as f64 * n as f64 * k as f64
    }

    /// `herk` flops: `n (n+1) k` (half of gemm on the square output).
    pub fn herk(n: usize, k: usize) -> f64 {
        (n as f64) * (n as f64 + 1.0) * k as f64
    }

    /// `trsm` flops: `n m^2` (left side, `A` is `m x m`).
    pub fn trsm_left(m: usize, n: usize) -> f64 {
        n as f64 * (m as f64) * (m as f64)
    }

    /// `trsm` flops, right side (`A` is `n x n`).
    pub fn trsm_right(m: usize, n: usize) -> f64 {
        m as f64 * (n as f64) * (n as f64)
    }

    /// `geqrf` flops (LAWN 41, `m >= n`): `2 m n^2 - (2/3) n^3`.
    pub fn geqrf(m: usize, n: usize) -> f64 {
        let (m, n) = (m as f64, n as f64);
        2.0 * m * n * n - 2.0 / 3.0 * n * n * n
    }

    /// `orgqr` flops forming the full `m x n` Q from `n` reflectors
    /// (LAWN 41 with `k = n`): `2 m n^2 - (2/3) n^3`.
    pub fn orgqr(m: usize, n: usize) -> f64 {
        geqrf(m, n)
    }

    /// `unmqr` flops applying `k` reflectors to an `m x n` C from the
    /// left (LAWN 41): `4 m n k - 2 n k^2`.
    pub fn unmqr(m: usize, n: usize, k: usize) -> f64 {
        let (m, n, k) = (m as f64, n as f64, k as f64);
        4.0 * m * n * k - 2.0 * n * k * k
    }

    /// `potrf` flops: `n^3 / 3`.
    pub fn potrf(n: usize) -> f64 {
        let n = n as f64;
        n * n * n / 3.0
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn flop_formulas() {
        assert_eq!(super::flops::gemm(2, 3, 4), 48.0);
        assert_eq!(super::flops::herk(3, 2), 24.0);
        assert_eq!(super::flops::type_factor(true), 4.0);
    }
}
