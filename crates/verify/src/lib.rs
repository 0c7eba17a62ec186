//! `polar-verify`: the paper-parity accuracy gate.
//!
//! The paper's headline correctness claim (Fig. 1) is backward error and
//! orthogonality at machine-precision level across all four scalar types
//! and condition numbers up to 1e16. This crate turns that claim into a
//! permanent, machine-checkable gate:
//!
//! 1. [`case_grid`] enumerates a sweep of synthetic matrices with
//!    prescribed spectra (via `polar-gen`): square and rectangular
//!    (`3n x n`), κ from 1e0 to 1e13 for f64/c64 and capped near 1e5 for
//!    f32/c32, through the QDWH, Zolo-PD, and mixed-precision paths;
//! 2. [`run_grid`] solves every case and computes the paper's three
//!    metrics — backward error `||A - U_p H||_F / ||A||_F`,
//!    orthogonality `||U_p^H U_p - I||_F / sqrt(n)`, and the Hermitian
//!    factor's symmetry + PSD deviation;
//! 3. [`check`] compares each metric against a checked-in JSON baseline
//!    (`results/ACCURACY_baseline.json`) with per-metric tolerance
//!    bands, and [`render_report`] emits a byte-deterministic
//!    `ACCURACY_report.json` artifact (no timestamps, fixed case order,
//!    shortest-roundtrip float formatting) so two deterministic-mode
//!    runs produce identical bytes.
//!
//! The tolerance-band criteria follow Benner/Nakatsukasa/Penke
//! (arXiv:2104.06659) — a QDWH-type iteration is backward stable iff all
//! three metrics sit at `O(eps)` — and the cond-sweep methodology follows
//! the QDWH validation protocol of Keyes et al. (arXiv:2104.14186).

#![forbid(unsafe_code)]

mod cases;
mod report;
mod run;

pub use cases::{case_grid, cond_label, CaseSpec, SolverPath};
pub use report::{
    check, parse_baseline, render_baseline, render_report, Baseline, BaselineCase, GateFailure,
    MetricBands, BAND_FACTOR, FLOOR_EPS_MULT,
};
pub use run::{eps_for_tag, run_case, run_grid, CaseMetrics, CaseResult, METRIC_NAMES};
