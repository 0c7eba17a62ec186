//! Performance simulation of distributed QDWH on modeled hardware.
//!
//! The reproduced paper benchmarks on Summit (IBM POWER9 + 6 NVIDIA V100
//! per node) and Frontier (AMD EPYC + 4 MI250X = 8 GCDs per node). This
//! environment has neither machine, so — per the reproduction's
//! substitution policy — the *hardware* is modeled while the *algorithm*
//! (DAG shape, flop counts, communication volume, scheduling discipline)
//! is exact:
//!
//! * [`machine`] — node models with the published §7.1 specifications,
//!   an `ExecutionModel` for the `polar-runtime` schedulers: the
//!   discrete-event simulation runs on the whole-solve task graph the
//!   solver itself emits (`polar_qdwh::task_graph`), placed on a
//!   process grid by `TaskGraph::assign_ranks` — this crate builds no
//!   graph of its own;
//! * [`analytic`] — a closed-form roofline + critical-path model usable at
//!   full paper scale (n up to 300k, where the tile DAG would have 1e8
//!   tasks), cross-validated against the discrete-event results.
//!
//! Absolute Tflop/s are model outputs, not measurements; the reproduction
//! targets the *shape* of Figs. 2–6 (who wins, the ≈18x GPU-vs-ScaLAPACK
//! gap, growth with matrix size, scaling across nodes).

#![forbid(unsafe_code)]

pub mod analytic;
pub mod kernel_flops;
pub mod machine;
pub mod real;

pub use analytic::{estimate_qdwh_time, estimate_zolo_time, AnalyticBreakdown, Implementation};
pub use machine::{ClusterModel, ExecTarget, NodeSpec};
pub use real::{compare as sim_vs_real, MeasuredHost, SimVsReal};

/// The paper's §4 flop-count formula for square QDWH (real flops):
/// `(4/3)n³ + (8 + 2/3)n³·it_qr + (4 + 1/3)n³·it_chol + 2n³`.
pub fn qdwh_flops(n: usize, it_qr: usize, it_chol: usize) -> f64 {
    let n3 = (n as f64).powi(3);
    (4.0 / 3.0) * n3
        + (8.0 + 2.0 / 3.0) * n3 * it_qr as f64
        + (4.0 + 1.0 / 3.0) * n3 * it_chol as f64
        + 2.0 * n3
}

/// The paper's worst-case iteration profile for ill-conditioned matrices
/// (κ = 1e16): three QR-based plus three Cholesky-based iterations.
pub const ILL_CONDITIONED_PROFILE: (usize, usize) = (3, 3);

/// Well-conditioned profile (§4): no QR, two Cholesky iterations.
pub const WELL_CONDITIONED_PROFILE: (usize, usize) = (0, 2);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_formula_values() {
        // it_qr = it_chol = 0: (4/3 + 2) n^3
        let n = 100usize;
        let n3 = 1e6;
        assert!((qdwh_flops(n, 0, 0) - (4.0 / 3.0 + 2.0) * n3).abs() < 1.0);
        // the ill-conditioned profile from the paper
        let full = qdwh_flops(n, 3, 3);
        let expect = (4.0 / 3.0 + 3.0 * (8.0 + 2.0 / 3.0) + 3.0 * (4.0 + 1.0 / 3.0) + 2.0) * n3;
        assert!((full - expect).abs() < 1.0);
    }

    #[test]
    fn flops_monotone_in_iterations() {
        assert!(qdwh_flops(1000, 3, 3) > qdwh_flops(1000, 2, 3));
        assert!(qdwh_flops(1000, 3, 3) > qdwh_flops(1000, 3, 2));
    }
}
