//! The verification case grid: which matrices, through which solvers.

use polar_gen::{MatrixSpec, SigmaDistribution};

/// Which solver path a case exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverPath {
    /// `polar_qdwh::qdwh` with default options (the paper's Algorithm 1).
    Qdwh,
    /// Zolo-PD: `polar_qdwh::qdwh` at `terms: 8` (Zolotarev-rational PD,
    /// §8 future work).
    Zolo,
    /// `polar_qdwh::qdwh_mixed` (low-precision solve + Newton–Schulz).
    Mixed,
}

impl SolverPath {
    pub fn as_str(self) -> &'static str {
        match self {
            SolverPath::Qdwh => "qdwh",
            SolverPath::Zolo => "zolo",
            SolverPath::Mixed => "mixed",
        }
    }
}

/// One verification case: scalar type, solver, shape, condition number.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// LAPACK-style type tag: `d`, `z`, `s`, `c`.
    pub type_tag: &'static str,
    pub solver: SolverPath,
    pub m: usize,
    pub n: usize,
    /// Target condition number, already capped for the scalar type.
    pub cond: f64,
    pub seed: u64,
}

impl CaseSpec {
    /// Stable identifier used to join report cases against the baseline,
    /// e.g. `qdwh-d-192x64-cond1e13`.
    pub fn id(&self) -> String {
        format!(
            "{}-{}-{}x{}-cond{}",
            self.solver.as_str(),
            self.type_tag,
            self.m,
            self.n,
            cond_label(self.cond)
        )
    }

    /// The generator spec for this case (geometric spectrum, the paper's
    /// ill-conditioned default distribution).
    pub fn matrix_spec(&self) -> MatrixSpec {
        MatrixSpec {
            m: self.m,
            n: self.n,
            cond: self.cond,
            distribution: SigmaDistribution::Geometric,
            seed: self.seed,
        }
    }

    /// The cond bucket named in gate-failure messages.
    pub fn cond_bucket(&self) -> String {
        cond_label(self.cond)
    }
}

/// Compact label for a condition number: `1e0`, `1e8`, `8e5`, ...
pub fn cond_label(cond: f64) -> String {
    format!("{cond:.0e}")
}

const SQUARE_N: usize = 64;
const RECT_FACTOR: usize = 3; // the paper's tall case: m = 3n
const FUSED_N: usize = 512; // several tile columns at the default tile size

/// Master cond sweep for double precision; single precision gets the
/// same sweep capped at `0.1 / eps_f32` (≈ 8e5) and deduplicated, per
/// the gate's "1e0 → 1e13 for f64/c64, 1e0 → 1e5 for f32/c32" contract.
const CONDS: [f64; 4] = [1e0, 1e4, 1e8, 1e13];

fn conds_for(eps: f64) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::new();
    for &cond in &CONDS {
        let spec = MatrixSpec {
            m: SQUARE_N,
            n: SQUARE_N,
            cond,
            distribution: SigmaDistribution::Geometric,
            seed: 0,
        }
        .cond_capped(eps);
        if out.last() != Some(&spec.cond) {
            out.push(spec.cond);
        }
    }
    out
}

/// The full verification grid, in a fixed deterministic order: for each
/// scalar type, QDWH over square and `3n x n` rectangular shapes across
/// the type's cond sweep; Zolo-PD and mixed-precision for the double
/// types (mixed is capped at the single-precision cond range because its
/// iteration runs in `f32`/`c32`); last, Zolo-PD at an order of several
/// tile columns, where a QR-based iteration is followed by a
/// Cholesky-based one.
pub fn case_grid() -> Vec<CaseSpec> {
    let n = SQUARE_N;
    let m_rect = RECT_FACTOR * n;
    let double_conds = conds_for(f64::EPSILON);
    let single_conds = conds_for(f32::EPSILON as f64);
    let mut grid = Vec::new();
    let mut seed = 100u64;

    for &tag in &["d", "z", "s", "c"] {
        let conds =
            if tag == "d" || tag == "z" { double_conds.clone() } else { single_conds.clone() };
        for &(m, nn) in &[(n, n), (m_rect, n)] {
            for &cond in &conds {
                seed += 1;
                grid.push(CaseSpec {
                    type_tag: tag,
                    solver: SolverPath::Qdwh,
                    m,
                    n: nn,
                    cond,
                    seed,
                });
            }
        }
    }
    for &tag in &["d", "z"] {
        for &cond in &double_conds {
            seed += 1;
            grid.push(CaseSpec { type_tag: tag, solver: SolverPath::Zolo, m: n, n, cond, seed });
        }
        for &cond in &single_conds {
            seed += 1;
            grid.push(CaseSpec { type_tag: tag, solver: SolverPath::Mixed, m: n, n, cond, seed });
        }
    }
    for &tag in &["d", "z"] {
        for &cond in &[1e4, 1e8] {
            seed += 1;
            let n = FUSED_N;
            grid.push(CaseSpec { type_tag: tag, solver: SolverPath::Zolo, m: n, n, cond, seed });
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_types_shapes_and_solvers() {
        let grid = case_grid();
        for tag in ["d", "z", "s", "c"] {
            assert!(grid.iter().any(|c| c.type_tag == tag), "missing type {tag}");
        }
        assert!(grid.iter().any(|c| c.m == 3 * c.n), "missing rectangular cases");
        for solver in [SolverPath::Qdwh, SolverPath::Zolo, SolverPath::Mixed] {
            assert!(grid.iter().any(|c| c.solver == solver), "missing {solver:?}");
        }
        // double precision reaches 1e13; single is capped below 1e6
        assert!(grid.iter().any(|c| c.type_tag == "d" && c.cond == 1e13));
        assert!(grid.iter().filter(|c| c.type_tag == "s").all(|c| c.cond < 1e6));
        assert!(grid.iter().any(|c| c.type_tag == "s" && c.cond > 1e5));
        // the fused Zolo graph is reached, in both double types
        for tag in ["d", "z"] {
            let fused =
                |c: &&CaseSpec| c.solver == SolverPath::Zolo && c.type_tag == tag && c.n >= FUSED_N;
            assert_eq!(grid.iter().filter(fused).count(), 2, "fused zolo rows of type {tag}");
        }
    }

    #[test]
    fn ids_are_unique_and_order_is_stable() {
        let grid = case_grid();
        let ids: Vec<String> = grid.iter().map(|c| c.id()).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate case ids");
        assert_eq!(ids, case_grid().iter().map(|c| c.id()).collect::<Vec<_>>());
    }

    #[test]
    fn cond_labels_are_compact() {
        assert_eq!(cond_label(1.0), "1e0");
        assert_eq!(cond_label(1e13), "1e13");
        assert_eq!(cond_label(0.1 / f32::EPSILON as f64), "8e5");
    }
}
