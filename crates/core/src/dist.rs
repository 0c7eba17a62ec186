//! Communication-metered QDWH on a virtual process grid.
//!
//! The paper's SLATE implementation distributes tiles 2D block-cyclically
//! and runs every tile task on the rank that owns its output. Ranks share
//! one address space here (no real network — see DESIGN.md's substitution
//! policy), so a distributed run is the shared-memory tiled solve plus
//! accounting: solve, emit the whole-solve graph of the iterations that
//! ran ([`task_graph`], the code the solve executed), place its tasks
//! on the grid and meter the tiles that cross a rank boundary. The counts
//! are what an MPI execution of the same graph would transfer.

use crate::graph::task_graph;
use crate::options::QdwhOptions;
use crate::qdwh_impl::{qdwh, PolarDecomposition, QdwhError};
use polar_matrix::{Matrix, ProcessGrid};
use polar_runtime::CommStats;
use polar_scalar::Scalar;

/// Configuration of the virtual distributed run.
#[derive(Debug, Clone)]
pub struct DistConfig {
    pub grid: ProcessGrid,
    /// Tile size (the paper tunes 320 for GPUs, 192 for CPUs; tests use
    /// small tiles to exercise multi-tile paths).
    pub nb: usize,
}

/// Result of [`qdwh_distributed`]: the decomposition plus the
/// communication profile of the tiled execution.
#[derive(Debug, Clone)]
pub struct DistOutcome<S: Scalar> {
    pub pd: PolarDecomposition<S>,
    pub comm: CommStats,
    /// Tile tasks of the whole-solve graph.
    pub tile_tasks: usize,
}

/// Distributed (virtual-cluster) QDWH: [`qdwh`] at tile
/// size `cfg.nb` — `U` and `H` are that solve's, bit for bit, whatever the
/// grid — with the cross-rank tile traffic of its task graph under
/// `cfg.grid` ([`polar_runtime::TaskGraph::comm`]).
pub fn qdwh_distributed<S: Scalar>(
    a: &Matrix<S>,
    opts: &QdwhOptions,
    cfg: &DistConfig,
) -> Result<DistOutcome<S>, QdwhError> {
    let opts = QdwhOptions { tile_nb: Some(cfg.nb), ..opts.clone() };
    let pd = qdwh(a, &opts)?;
    let mut graph =
        task_graph::<S>(a.nrows(), a.ncols(), cfg.nb, &pd.info.kinds, 1, opts.exploit_structure);
    graph.assign_ranks(cfg.grid);
    Ok(DistOutcome { pd, comm: graph.comm(), tile_tasks: graph.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::IterationPath;
    use crate::qdwh_impl::orthogonality_error;
    use polar_gen::{generate, MatrixSpec, SigmaDistribution};
    use polar_scalar::Complex64;

    fn cfg(p: usize, q: usize, nb: usize) -> DistConfig {
        DistConfig { grid: ProcessGrid::new(p, q), nb }
    }

    fn fro_diff(a: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
        let mut d = a.clone();
        polar_blas::add(-1.0, b.as_ref(), 1.0, d.as_mut());
        polar_blas::norm(polar_matrix::Norm::Fro, d.as_ref())
    }

    #[test]
    fn distributed_matches_dense() {
        let (a, _) = generate::<f64>(&MatrixSpec {
            m: 48,
            n: 48,
            cond: 1e6,
            distribution: SigmaDistribution::Geometric,
            seed: 5,
        });
        let dense = qdwh(&a, &QdwhOptions::default()).unwrap();
        let dist = qdwh_distributed(&a, &QdwhOptions::default(), &cfg(2, 2, 8)).unwrap();
        // same iteration profile (identical scalar stage)
        assert_eq!(dist.pd.info.iterations, dense.info.iterations);
        assert_eq!(dist.pd.info.qr_iterations, dense.info.qr_iterations);
        // same factors up to roundoff
        let err_u = fro_diff(&dist.pd.u, &dense.u);
        assert!(err_u < 1e-8, "U differs by {err_u}");
        let err_h = fro_diff(&dist.pd.h, &dense.h);
        assert!(err_h < 1e-8, "H differs by {err_h}");
    }

    #[test]
    fn distributed_is_the_tiled_solve_bit_for_bit_on_every_grid() {
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(40, 7));
        let opts = QdwhOptions { tile_nb: Some(8), ..Default::default() };
        let tiled = qdwh(&a, &opts).unwrap();
        for (p, q) in [(1, 1), (2, 2), (1, 3)] {
            let dist = qdwh_distributed(&a, &QdwhOptions::default(), &cfg(p, q, 8)).unwrap();
            assert_eq!(dist.pd.u.as_slice(), tiled.u.as_slice(), "U on {p}x{q}");
            assert_eq!(dist.pd.h.as_slice(), tiled.h.as_slice(), "H on {p}x{q}");
        }
    }

    #[test]
    fn distributed_contract_ill_conditioned() {
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(40, 7));
        let out = qdwh_distributed(&a, &QdwhOptions::default(), &cfg(2, 2, 8)).unwrap();
        assert!(orthogonality_error(&out.pd.u) < 1e-12);
        assert!(out.pd.backward_error(&a) < 1e-12);
        assert!(out.pd.info.iterations <= 6);
        assert!(out.tile_tasks > 100, "a multi-tile graph was metered");
    }

    #[test]
    fn communication_metered_and_grid_sensitive() {
        let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(32, 9));
        let single = qdwh_distributed(&a, &QdwhOptions::default(), &cfg(1, 1, 8)).unwrap();
        let multi = qdwh_distributed(&a, &QdwhOptions::default(), &cfg(2, 2, 8)).unwrap();
        // single rank: no point-to-point traffic
        assert_eq!(single.comm, CommStats::default());
        // multi rank: substantial traffic
        assert!(multi.comm.point_to_point_bytes > 0);
        assert!(multi.comm.point_to_point_messages > 10);
        assert_eq!(single.tile_tasks, multi.tile_tasks, "one graph, two owner maps");
    }

    #[test]
    fn distributed_complex() {
        let (a, _) = generate::<Complex64>(&MatrixSpec::well_conditioned(24, 11));
        let out = qdwh_distributed(&a, &QdwhOptions::default(), &cfg(2, 1, 8)).unwrap();
        assert!(orthogonality_error(&out.pd.u) < 1e-12);
        assert!(out.pd.backward_error(&a) < 1e-12);
        assert!(out.comm.point_to_point_bytes > 0);
    }

    #[test]
    fn distributed_rectangular() {
        let (a, _) = generate::<f64>(&MatrixSpec {
            m: 56,
            n: 24,
            cond: 1e4,
            distribution: SigmaDistribution::Geometric,
            seed: 13,
        });
        let out = qdwh_distributed(&a, &QdwhOptions::default(), &cfg(2, 2, 8)).unwrap();
        assert!(orthogonality_error(&out.pd.u) < 1e-12);
        assert!(out.pd.backward_error(&a) < 1e-12);
    }

    #[test]
    fn distributed_forced_qr_path() {
        let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(32, 17));
        let opts = QdwhOptions { path: IterationPath::ForceQr, ..Default::default() };
        let out = qdwh_distributed(&a, &opts, &cfg(2, 2, 8)).unwrap();
        assert_eq!(out.pd.info.chol_iterations, 0);
        assert!(orthogonality_error(&out.pd.u) < 1e-12);
        assert!(out.pd.backward_error(&a) < 1e-12);
    }

    #[test]
    fn distributed_paper_formula_seed() {
        use crate::options::L0Strategy;
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(32, 18));
        let opts = QdwhOptions { l0_strategy: L0Strategy::PaperFormula, ..Default::default() };
        let dist = qdwh_distributed(&a, &opts, &cfg(2, 1, 8)).unwrap();
        let dense = qdwh(&a, &opts).unwrap();
        assert_eq!(dist.pd.info.iterations, dense.info.iterations);
        assert_eq!(dist.pd.info.qr_iterations, dense.info.qr_iterations);
    }

    #[test]
    fn uneven_tiles_handled() {
        // n not a multiple of nb: edge tiles exercise the short paths
        let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(37, 15));
        let out = qdwh_distributed(&a, &QdwhOptions::default(), &cfg(2, 2, 8)).unwrap();
        assert!(orthogonality_error(&out.pd.u) < 1e-12);
        assert!(out.pd.backward_error(&a) < 1e-12);
    }

    #[test]
    fn degenerate_inputs_meter_an_empty_graph() {
        let zero = Matrix::<f64>::zeros(16, 8);
        let out = qdwh_distributed(&zero, &QdwhOptions::default(), &cfg(2, 2, 8)).unwrap();
        assert_eq!((out.tile_tasks, out.comm), (0, CommStats::default()));
        let wide = Matrix::<f64>::zeros(4, 8);
        assert!(matches!(
            qdwh_distributed(&wide, &QdwhOptions::default(), &cfg(2, 2, 8)),
            Err(QdwhError::Shape(_))
        ));
    }
}
