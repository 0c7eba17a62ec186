//! Driver options for the QDWH iteration.

/// Which iteration family Algorithm 1 may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationPath {
    /// The paper's rule: QR-based while `c > 100`, Cholesky-based after
    /// (Algorithm 1 line 29).
    Auto,
    /// Force QR-based iterations throughout (ablation).
    ForceQr,
    /// Force Cholesky-based iterations throughout (ablation; only safe for
    /// reasonably well-conditioned inputs — `Z = I + c A^H A` must stay
    /// numerically positive definite).
    ForceCholesky,
}

/// Which kind an individual iteration turned out to be (telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationKind {
    QrBased,
    CholeskyBased,
}

/// How the lower bound `l_0` on the smallest singular value of the scaled
/// input is estimated (Algorithm 1 lines 14–19).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L0Strategy {
    /// Power iteration on `(R^H R)^{-1}` — a tight 2-norm estimate of
    /// `sigma_min`, accurate to a few percent. Default: it makes the
    /// QR/Cholesky split depend on the *actual* conditioning, matching the
    /// paper's qualitative claims (well-conditioned inputs take no QR
    /// iterations).
    SigmaMinPowerIteration,
    /// The literal pseudocode formula
    /// `l_0 = ||A_0||_1 * trcondest(R) / sqrt(n)` with Hager's 1-norm
    /// estimator — pessimistic by up to `~sqrt(n)`, which costs extra
    /// early (QR) iterations on borderline inputs. Kept for fidelity
    /// comparisons (the paper's 3-QR + 3-Cholesky split at κ = 1e16 comes
    /// from this deflated bound).
    PaperFormula,
    /// The paper's §4 alternative route: "the LU factorization followed
    /// by a condition number estimator" (`getrf` + `gecondest`) instead
    /// of QR with `trcondest`. Same deflated formula, different
    /// factorization; square inputs only (rectangular inputs fall back
    /// to the QR route).
    LuFormula,
}

/// Snapshot handed to the [`QdwhOptions::progress`] hook, at every task
/// release of the solve's graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationProgress {
    /// 1-based index of the oldest iteration with tasks still outstanding.
    pub iteration: usize,
    /// `||X_k - X_{k-1}||_F` from the previous pass (a large sentinel
    /// before the first iteration).
    pub convergence: f64,
    /// Current lower bound `l_k` on the smallest singular value.
    pub ell: f64,
}

/// What the [`QdwhOptions::progress`] hook tells the driver to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationDecision {
    /// Keep iterating.
    Continue,
    /// Abandon the run; `qdwh` returns `QdwhError::Cancelled`. Used by
    /// serving layers (see `polar-svc`) for cooperative cancellation and
    /// deadline enforcement.
    Cancel,
}

/// Signature of the progress/cancellation hook.
pub type ProgressHook =
    std::sync::Arc<dyn Fn(&IterationProgress) -> IterationDecision + Send + Sync>;

/// Ask `hook` (if any) whether the iteration about to run may.
pub(crate) fn poll_progress(
    hook: Option<&ProgressHook>,
    iteration: usize,
    convergence: f64,
    ell: f64,
) -> Result<(), crate::QdwhError> {
    match hook.map(|h| h(&IterationProgress { iteration, convergence, ell })) {
        Some(IterationDecision::Cancel) => Err(crate::QdwhError::Cancelled { iteration }),
        _ => Ok(()),
    }
}

/// Tuning and behavior knobs for [`crate::qdwh`].
#[derive(Clone)]
pub struct QdwhOptions {
    /// Terms per rational step, `1..=8`. `1` is QDWH: dynamically weighted
    /// Halley steps. `r > 1` is Zolo-PD: Zolotarev steps of type `(2r+1,
    /// 2r)`, whose `r` factorizations per iteration are independent; `8`
    /// converges in two iterations at `kappa = 1/eps`.
    pub terms: usize,
    /// Iteration-family selection (default: the paper's `c > 100` switch).
    /// Read at `terms == 1` only: a Zolotarev step picks its kind from the
    /// bound.
    pub path: IterationPath,
    /// The `c` threshold for the QR→Cholesky switch (paper value: 100).
    /// Read at `terms == 1` only.
    pub qr_switch_threshold: f64,
    /// Safety cap on iterations. Theory guarantees ≤ 6 in double precision
    /// (Nakatsukasa & Higham); the cap only guards against pathological
    /// inputs (NaN, severe overscaling).
    pub max_iterations: usize,
    /// Tile size of the solve's task graph; `None` uses
    /// `polar_lapack::auto_tile_nb(n)` (256, less below 1024 columns; a
    /// function of `n` alone). Never wider than the matrix: `n` columns at
    /// most.
    pub tile_nb: Option<usize>,
    /// Compute the Hermitian factor `H = U_p^H A` (line 52). Disable when
    /// only the unitary factor is needed (e.g. orthogonalization
    /// applications), saving the final `2 n^3`-flop gemm.
    pub compute_h: bool,
    /// Override the condition-estimate-derived lower bound `l_0` of the
    /// smallest singular value of the scaled matrix (testing hook).
    pub l0_override: Option<f64>,
    /// `l_0` estimation strategy.
    pub l0_strategy: L0Strategy,
    /// Optional hook invoked with the current [`IterationProgress`];
    /// returning [`IterationDecision::Cancel`] abandons the run with
    /// `QdwhError::Cancelled`. Called once before anything is allocated
    /// and then at every task release of the solve's graph — from pool
    /// threads, one call at a time, with a non-decreasing `iteration` — so a
    /// cancel takes effect within one tile task, at any size; keep it cheap.
    pub progress: Option<ProgressHook>,
}

impl std::fmt::Debug for QdwhOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QdwhOptions")
            .field("terms", &self.terms)
            .field("path", &self.path)
            .field("qr_switch_threshold", &self.qr_switch_threshold)
            .field("max_iterations", &self.max_iterations)
            .field("tile_nb", &self.tile_nb)
            .field("compute_h", &self.compute_h)
            .field("l0_override", &self.l0_override)
            .field("l0_strategy", &self.l0_strategy)
            .field("progress", &self.progress.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl Default for QdwhOptions {
    fn default() -> Self {
        Self {
            terms: 1,
            path: IterationPath::Auto,
            qr_switch_threshold: 100.0,
            max_iterations: 50,
            tile_nb: None,
            compute_h: true,
            l0_override: None,
            l0_strategy: L0Strategy::SigmaMinPowerIteration,
            progress: None,
        }
    }
}

impl QdwhOptions {
    /// Preset used by the unitary-factor-only applications.
    pub fn factor_only() -> Self {
        Self { compute_h: false, ..Self::default() }
    }
}

/// Tile size of a whole-solve graph: the caller's, else the pool-width
/// heuristic; a tile is never wider than the matrix, so a solve of at most
/// one tile's columns is one tile column.
pub(crate) fn graph_tile_nb(tile_nb: Option<usize>, n: usize) -> usize {
    tile_nb.unwrap_or_else(|| polar_lapack::auto_tile_nb(n)).max(8).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = QdwhOptions::default();
        assert_eq!(o.qr_switch_threshold, 100.0);
        assert_eq!(o.path, IterationPath::Auto);
        assert!(o.compute_h);
    }

    #[test]
    fn factor_only_skips_h() {
        assert!(!QdwhOptions::factor_only().compute_h);
    }

    #[test]
    fn a_tile_is_never_wider_than_the_matrix() {
        assert_eq!(graph_tile_nb(Some(128), 96), 96);
        assert_eq!(graph_tile_nb(Some(32), 96), 32);
        assert_eq!(graph_tile_nb(Some(4), 96), 8);
        assert_eq!(graph_tile_nb(None, 3), 3);
        assert_eq!(graph_tile_nb(None, 1024), polar_lapack::auto_tile_nb(1024));
    }
}
