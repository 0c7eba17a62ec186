//! Solving one verification case and measuring the paper's three metrics.

use crate::cases::{CaseSpec, SolverPath};
use polar_blas::gemm;
use polar_gen::generate;
use polar_matrix::{Matrix, Op};
use polar_qdwh::{
    hermitian_deviation, orthogonality_error, psd_deviation, qdwh, qdwh_mixed, MixedPrecision,
    PolarDecomposition, QdwhOptions,
};
use polar_scalar::{Complex32, Complex64, Real, Scalar};

/// Metric names in report order. `backward` and `orthogonality` are the
/// paper's Fig. 1b / Fig. 1a; `hermitian` and `psd` quantify how far the
/// computed `H` is from Hermitian positive-semidefinite (the
/// backward-stability criteria of arXiv:2104.06659).
pub const METRIC_NAMES: [&str; 4] = ["backward", "orthogonality", "hermitian", "psd"];

/// The three paper metrics (the H quality claim splits into two numbers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseMetrics {
    /// `||A - U_p H||_F / ||A||_F`.
    pub backward: f64,
    /// `||U_p^H U_p - I||_F / sqrt(n)`.
    pub orthogonality: f64,
    /// `||G - G^H||_F / max(||G||_F, 1)` of the *raw* `G = U_p^H A`
    /// (the driver symmetrizes its returned `H`, so the raw product is
    /// the honest measurement).
    pub hermitian: f64,
    /// `max(0, -lambda_min(H)) / max(lambda_max(H), 1)`.
    pub psd: f64,
}

impl CaseMetrics {
    pub fn get(&self, name: &str) -> Option<f64> {
        match name {
            "backward" => Some(self.backward),
            "orthogonality" => Some(self.orthogonality),
            "hermitian" => Some(self.hermitian),
            "psd" => Some(self.psd),
            _ => None,
        }
    }
}

/// Outcome of one case: the metrics plus the iteration telemetry the
/// report records (all scheduling-independent, so the report stays
/// byte-deterministic).
#[derive(Debug, Clone)]
pub struct CaseResult {
    pub spec: CaseSpec,
    pub metrics: CaseMetrics,
    pub iterations: usize,
    pub qr_iterations: usize,
    pub chol_iterations: usize,
}

/// Machine epsilon of a type tag's real scalar, as `f64`.
pub fn eps_for_tag(tag: &str) -> f64 {
    match tag {
        "d" | "z" => f64::EPSILON,
        "s" | "c" => f32::EPSILON as f64,
        other => panic!("unknown type tag {other:?}"),
    }
}

fn measure<S: Scalar>(a: &Matrix<S>, pd: &PolarDecomposition<S>) -> Result<CaseMetrics, String> {
    let n = a.ncols();
    // raw G = U^H A, *before* the driver's symmetrization
    let mut raw = Matrix::<S>::zeros(n, n);
    gemm(Op::ConjTrans, Op::NoTrans, S::ONE, pd.u.as_ref(), a.as_ref(), S::ZERO, raw.as_mut());
    Ok(CaseMetrics {
        backward: pd.backward_error(a).to_f64(),
        orthogonality: orthogonality_error(&pd.u).to_f64(),
        hermitian: hermitian_deviation(&raw).to_f64(),
        psd: psd_deviation(&pd.h).map_err(|e| format!("psd eig failed: {e}"))?.to_f64(),
    })
}

fn result_from<S: Scalar>(
    spec: &CaseSpec,
    a: &Matrix<S>,
    pd: &PolarDecomposition<S>,
) -> Result<CaseResult, String> {
    Ok(CaseResult {
        spec: spec.clone(),
        metrics: measure(a, pd)?,
        iterations: pd.info.iterations,
        qr_iterations: pd.info.qr_iterations,
        chol_iterations: pd.info.chol_iterations,
    })
}

fn run_direct<S: Scalar>(spec: &CaseSpec) -> Result<CaseResult, String> {
    let (a, _) = generate::<S>(&spec.matrix_spec());
    let terms = match spec.solver {
        SolverPath::Qdwh => 1,
        SolverPath::Zolo => 8,
        SolverPath::Mixed => unreachable!("mixed dispatches through run_mixed"),
    };
    let opts = QdwhOptions { terms, ..Default::default() };
    let pd = qdwh(&a, &opts).map_err(|e| format!("{}: {e}", spec.id()))?;
    result_from(spec, &a, &pd)
}

fn run_mixed<S: MixedPrecision>(spec: &CaseSpec) -> Result<CaseResult, String> {
    let (a, _) = generate::<S>(&spec.matrix_spec());
    let (pd, _steps) =
        qdwh_mixed(&a, &QdwhOptions::default()).map_err(|e| format!("{}: {e}", spec.id()))?;
    result_from(spec, &a, &pd)
}

/// Solve one case and compute its metrics.
pub fn run_case(spec: &CaseSpec) -> Result<CaseResult, String> {
    match (spec.type_tag, spec.solver) {
        ("d", SolverPath::Mixed) => run_mixed::<f64>(spec),
        ("z", SolverPath::Mixed) => run_mixed::<Complex64>(spec),
        ("d", _) => run_direct::<f64>(spec),
        ("z", _) => run_direct::<Complex64>(spec),
        ("s", _) => run_direct::<f32>(spec),
        ("c", _) => run_direct::<Complex32>(spec),
        (tag, solver) => Err(format!("unsupported case: type {tag:?} via {solver:?}")),
    }
}

/// Solve every case in order. Fails fast on the first solver error — a
/// non-converging case is itself a gate failure.
pub fn run_grid(grid: &[CaseSpec]) -> Result<Vec<CaseResult>, String> {
    grid.iter().map(run_case).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::case_grid;

    #[test]
    fn one_case_per_type_meets_paper_accuracy() {
        // debug-mode smoke over a thin slice: the cheapest (cond = 1e0,
        // square, qdwh) case of each scalar type
        let grid = case_grid();
        for tag in ["d", "z", "s", "c"] {
            let spec = grid
                .iter()
                .find(|c| {
                    c.type_tag == tag && c.solver == SolverPath::Qdwh && c.m == c.n && c.cond == 1.0
                })
                .expect("grid has the well-conditioned square qdwh case");
            let r = run_case(spec).expect("case solves");
            let tol = 1e3 * eps_for_tag(tag);
            for name in METRIC_NAMES {
                let v = r.metrics.get(name).unwrap();
                assert!(v < tol, "{}: {name} = {v:e} vs {tol:e}", spec.id());
            }
            assert!(r.iterations >= 1);
        }
    }

    #[test]
    fn metrics_are_reproducible_within_a_process() {
        let grid = case_grid();
        let spec = grid.iter().find(|c| c.type_tag == "d" && c.m == 3 * c.n).unwrap();
        let a = run_case(spec).unwrap();
        let b = run_case(spec).unwrap();
        assert_eq!(a.metrics, b.metrics, "same spec, same pool -> identical metrics");
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn eps_per_tag() {
        assert_eq!(eps_for_tag("d"), f64::EPSILON);
        assert_eq!(eps_for_tag("z"), f64::EPSILON);
        assert_eq!(eps_for_tag("s"), f32::EPSILON as f64);
        assert_eq!(eps_for_tag("c"), f32::EPSILON as f64);
    }
}
