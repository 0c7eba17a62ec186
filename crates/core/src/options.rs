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

/// Whether the solve runs as one DAG-scheduled tile task graph (the fused
/// whole-solve graph) or as the per-iteration loop over the flat blocked
/// kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TiledPath {
    /// Tiled at and above 512 columns, flat below (tile DAG overheads only
    /// pay off once the trailing updates dominate). Default. Overridable
    /// at runtime with `POLAR_TILED=1` (always) or `POLAR_TILED=0` (never).
    Auto,
    /// Always use the tile task graph.
    Always,
    /// Flat path only (ablation / fallback).
    Never,
}

/// Which kind an individual iteration turned out to be (telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationKind {
    QrBased,
    CholeskyBased,
}

/// How the tiled-vs-flat choice for a run was resolved, recorded in
/// [`crate::QdwhInfo::tiled_decision`]. The granularity guard exists
/// because the tile DAG only pays for its scheduling overhead when the
/// problem yields enough tiles to form a graph worth scheduling. Pool
/// width is *not* part of the guard: with the whole-solve fused DAG the
/// tiled route wins even on a single worker (tiled trsm/herk decompose
/// into gemm-rich tile tasks that the flat kernels cannot match), so
/// [`TiledPath::Auto`] routes every large-enough problem there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TiledDecision {
    /// The tile DAG drivers ran ([`TiledPath::Auto`] above the threshold
    /// with enough tiles, an explicit [`TiledPath::Always`], or a
    /// `POLAR_TILED=1` pin).
    Tiled,
    /// Flat kernels by request: [`TiledPath::Never`], a `POLAR_TILED=0`
    /// pin, or [`TiledPath::Auto`] below 512 columns.
    FlatRequested,
    /// Granularity guard: fewer than two column tiles at the configured
    /// tile size — no inter-tile parallelism to exploit.
    FlatTooFewTiles,
}

impl TiledDecision {
    /// Whether the resolution selects the tile DAG drivers.
    pub fn is_tiled(self) -> bool {
        self == TiledDecision::Tiled
    }
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

/// Snapshot handed to the [`QdwhOptions::progress`] hook: at the top of
/// each Halley iteration on the per-iteration loop, at every task release
/// on the tiled path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationProgress {
    /// 1-based index of the iteration about to run (on the tiled path:
    /// the oldest iteration with tasks still outstanding).
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
    /// Iteration-family selection (default: the paper's `c > 100` switch).
    pub path: IterationPath,
    /// The `c` threshold for the QR→Cholesky switch (paper value: 100).
    pub qr_switch_threshold: f64,
    /// Safety cap on iterations. Theory guarantees ≤ 6 in double precision
    /// (Nakatsukasa & Higham); the cap only guards against pathological
    /// inputs (NaN, severe overscaling).
    pub max_iterations: usize,
    /// Exploit the `[B; I]` structure of the stacked QR: the identity
    /// block's fill-in stays upper trapezoidal, so each panel runs on a
    /// shrinking-complement row window, removing ~1/3 of the QR
    /// iteration's factorization flops (the standard QDWH structure
    /// optimization). Numerically identical to the general path.
    pub exploit_structure: bool,
    /// Whole-solve tile task graph vs per-iteration flat loop.
    pub tiled: TiledPath,
    /// Tile size for the tiled path; `None` uses
    /// `polar_lapack::auto_tile_nb(n)` (256, less on wide pools).
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
    /// `QdwhError::Cancelled`. The per-iteration loop calls it at the top
    /// of every iteration. On the tiled path it is called once before the
    /// task graph is built and then at every task release — from pool
    /// threads, one call at a time, with a non-decreasing `iteration` —
    /// so a cancel takes effect within one tile task; keep it cheap.
    pub progress: Option<ProgressHook>,
}

impl std::fmt::Debug for QdwhOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QdwhOptions")
            .field("path", &self.path)
            .field("qr_switch_threshold", &self.qr_switch_threshold)
            .field("max_iterations", &self.max_iterations)
            .field("exploit_structure", &self.exploit_structure)
            .field("tiled", &self.tiled)
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
            path: IterationPath::Auto,
            qr_switch_threshold: 100.0,
            max_iterations: 50,
            exploit_structure: true,
            tiled: TiledPath::Auto,
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

    /// Resolve the tile-path decision for a problem with `n` columns. The
    /// `POLAR_TILED` env var (`1`/`always` or `0`/`never`) overrides the
    /// option so CI can pin either path without code changes.
    pub fn use_tiled(&self, n: usize) -> bool {
        self.resolve_tiled(n).is_tiled()
    }

    /// [`QdwhOptions::use_tiled`] with the *reason* attached (recorded in
    /// [`crate::QdwhInfo::tiled_decision`]).
    ///
    /// Explicit pins — the `POLAR_TILED` env var or
    /// [`TiledPath::Always`]/[`TiledPath::Never`] — are always honored
    /// (CI gates and ablations rely on forcing a path). Only
    /// [`TiledPath::Auto`] is subject to the granularity guard: a
    /// sub-2-tile grid routes back to the flat kernels, so tiled never
    /// loses where it cannot win. Nothing but the shape enters: neither
    /// the pool width (the fused whole-solve DAG wins at one worker too)
    /// nor whether a progress hook is set.
    pub fn resolve_tiled(&self, n: usize) -> TiledDecision {
        resolve_tiled(self.tiled, self.tile_nb, n)
    }
}

/// Tile size of a whole-solve graph: the caller's, else the pool-width
/// heuristic.
pub(crate) fn graph_tile_nb(tile_nb: Option<usize>, n: usize) -> usize {
    tile_nb.unwrap_or_else(|| polar_lapack::auto_tile_nb(n)).max(8)
}

/// The tile-path decision shared by [`QdwhOptions::resolve_tiled`] and
/// [`crate::ZoloOptions::resolve_tiled`].
pub(crate) fn resolve_tiled(tiled: TiledPath, tile_nb: Option<usize>, n: usize) -> TiledDecision {
    /// Columns at which [`TiledPath::Auto`] switches to the tile drivers.
    const TILED_MIN_COLS: usize = 512;
    static ENV: std::sync::OnceLock<Option<bool>> = std::sync::OnceLock::new();
    let env = *ENV.get_or_init(|| match std::env::var("POLAR_TILED").ok().as_deref() {
        Some("1") | Some("always") | Some("true") => Some(true),
        Some("0") | Some("never") | Some("false") => Some(false),
        _ => None,
    });
    if let Some(forced) = env {
        return if forced { TiledDecision::Tiled } else { TiledDecision::FlatRequested };
    }
    match tiled {
        TiledPath::Always => TiledDecision::Tiled,
        TiledPath::Never => TiledDecision::FlatRequested,
        TiledPath::Auto => {
            let nb = tile_nb.unwrap_or_else(|| polar_lapack::auto_tile_nb(n));
            if n < TILED_MIN_COLS {
                TiledDecision::FlatRequested
            } else if n.div_ceil(nb) < 2 {
                TiledDecision::FlatTooFewTiles
            } else {
                TiledDecision::Tiled
            }
        }
    }
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

    // Granularity-guard tests run without POLAR_TILED set (CI pins it only
    // in dedicated stages); if the env pin is active the resolution is
    // forced and the guard logic is deliberately bypassed, so skip.
    fn env_pinned() -> bool {
        std::env::var("POLAR_TILED").is_ok()
    }

    #[test]
    fn explicit_paths_bypass_guard() {
        if env_pinned() {
            return;
        }
        let always = QdwhOptions { tiled: TiledPath::Always, ..Default::default() };
        assert_eq!(always.resolve_tiled(4), TiledDecision::Tiled);
        let never = QdwhOptions { tiled: TiledPath::Never, ..Default::default() };
        assert_eq!(never.resolve_tiled(100_000), TiledDecision::FlatRequested);
    }

    #[test]
    fn auto_below_threshold_is_flat_by_request() {
        if env_pinned() {
            return;
        }
        let o = QdwhOptions::default();
        assert_eq!(o.resolve_tiled(511), TiledDecision::FlatRequested);
        assert!(!o.use_tiled(511));
    }

    #[test]
    fn auto_guards_on_tile_count_and_pool_width() {
        if env_pinned() {
            return;
        }
        // tile_nb >= n: a single column tile -> no inter-tile parallelism
        let coarse = QdwhOptions { tile_nb: Some(4096), ..Default::default() };
        let fine = QdwhOptions { tile_nb: Some(64), ..Default::default() };
        assert_eq!(coarse.resolve_tiled(1024), TiledDecision::FlatTooFewTiles);
        assert!(!coarse.use_tiled(1024));
        // plenty of tiles: tiled runs regardless of pool width — the fused
        // whole-solve DAG wins even on a single worker
        assert_eq!(fine.resolve_tiled(1024), TiledDecision::Tiled);
        // the auto tile size always yields >= 2 column tiles above the
        // threshold, so default Auto resolves tiled too
        assert_eq!(QdwhOptions::default().resolve_tiled(1024), TiledDecision::Tiled);
    }

    #[test]
    fn decision_reports_tiled_flag() {
        assert!(TiledDecision::Tiled.is_tiled());
        assert!(!TiledDecision::FlatRequested.is_tiled());
        assert!(!TiledDecision::FlatTooFewTiles.is_tiled());
    }
}
