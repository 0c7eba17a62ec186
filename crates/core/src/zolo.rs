//! Zolo-PD: polar decomposition via Zolotarev's optimal rational
//! approximation of the sign function — the paper's §8 closing future-work
//! item ("the Zolo PD algorithm [25], which requires an even higher number
//! of flops than QDWH-based PD, but can exploit a higher level of
//! concurrency, making it attractive in the strong-scaling regime").
//!
//! Where QDWH applies a degree-(3,2) dynamically-weighted Halley map per
//! iteration (≤ 6 iterations at κ = 1e16), Zolo-PD applies the optimal
//! degree-(2r+1, 2r) Zolotarev map: with `r = 8` **two** iterations
//! suffice at κ = 1e16, because composing two Zolotarev functions is again
//! Zolotarev-optimal of degree (2r+1)² = 289 (Nakatsukasa & Freund 2016).
//! The price is `r` QR factorizations per iteration — but they are
//! *mutually independent*, which is exactly the extra concurrency the
//! paper wants for strong scaling.

use crate::options::{
    graph_tile_nb, poll_progress, ProgressHook, QdwhOptions, TiledDecision, TiledPath,
};
use crate::qdwh_impl::{PolarDecomposition, QdwhError, QdwhInfo};
use crate::zolo_fused::ZoloIterPlan;
use polar_blas::{add, gemm, norm, scale_real, symmetrize};
use polar_lapack::{norm2est, orgqr, tr_sigma_min_est};

use polar_matrix::{Matrix, Norm, Op};
use polar_scalar::{Real, Scalar};

/// Options for [`zolo_pd`].
#[derive(Clone)]
pub struct ZoloOptions {
    /// Zolotarev degree parameter: `r` partial-fraction terms, i.e. a
    /// type-(2r+1, 2r) rational map per iteration. `r = 8` gives the
    /// two-iteration guarantee at double precision; smaller `r`
    /// interpolates toward QDWH-like behavior.
    pub r: usize,
    /// Iteration safety cap.
    pub max_iterations: usize,
    /// Compute the Hermitian factor.
    pub compute_h: bool,
    /// Whole-solve fused DAG selection: when the tile path resolves (same
    /// semantics and `POLAR_TILED` pin as
    /// [`QdwhOptions::tiled`](crate::options::QdwhOptions::tiled)), the
    /// `r` stacked-QR terms of every iteration run as concurrent task
    /// branches of one graph (`zolo_fused`); otherwise the serial
    /// term-by-term loop runs.
    pub tiled: TiledPath,
    /// Problem size (columns) at which [`TiledPath::Auto`] routes to the
    /// fused graph.
    pub tiled_threshold: usize,
    /// Tile size for the fused path; `None` picks
    /// `polar_lapack::auto_tile_nb`.
    pub tile_nb: Option<usize>,
    /// Optional progress/cancellation hook, with the semantics of
    /// [`QdwhOptions::progress`](crate::options::QdwhOptions::progress) on
    /// either path.
    pub progress: Option<ProgressHook>,
}

impl std::fmt::Debug for ZoloOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZoloOptions")
            .field("r", &self.r)
            .field("max_iterations", &self.max_iterations)
            .field("compute_h", &self.compute_h)
            .field("tiled", &self.tiled)
            .field("tiled_threshold", &self.tiled_threshold)
            .field("tile_nb", &self.tile_nb)
            .field("progress", &self.progress.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl Default for ZoloOptions {
    fn default() -> Self {
        Self {
            r: 8,
            max_iterations: 6,
            compute_h: true,
            tiled: TiledPath::Auto,
            tiled_threshold: 512,
            tile_nb: None,
            progress: None,
        }
    }
}

impl ZoloOptions {
    /// Resolve the fused-vs-serial decision for `n` columns, honoring the
    /// same `POLAR_TILED` env pin and granularity guard as the QDWH
    /// driver (the decision logic is shared).
    pub fn resolve_tiled(&self, n: usize) -> TiledDecision {
        crate::options::resolve_tiled(self.tiled, self.tiled_threshold, self.tile_nb, n)
    }
}

/// Result of [`zolo_pd`]: the decomposition plus the count of QR
/// factorizations performed (the concurrency currency of the method).
#[derive(Debug, Clone)]
pub struct ZoloOutcome<S: Scalar> {
    pub pd: PolarDecomposition<S>,
    /// Total stacked-QR factorizations across all iterations
    /// (`r` per iteration, each independent within an iteration).
    pub qr_factorizations: usize,
}

/// Zolotarev-rational polar decomposition (`m >= n`).
pub fn zolo_pd<S: Scalar>(a: &Matrix<S>, zopts: &ZoloOptions) -> Result<ZoloOutcome<S>, QdwhError> {
    let m = a.nrows();
    let n = a.ncols();
    if m < n {
        return Err(QdwhError::Shape("zolo_pd requires m >= n"));
    }
    if zopts.r == 0 {
        return Err(QdwhError::Shape("zolo_pd requires r >= 1"));
    }
    if n == 0 || a.has_non_finite() {
        // degenerate inputs: defer to the QDWH driver's handling
        let pd = crate::qdwh_impl::qdwh(a, &QdwhOptions::default())?;
        return Ok(ZoloOutcome { pd, qr_factorizations: 0 });
    }

    let eps = S::Real::EPSILON;

    // scaling and sigma_min bound, as in QDWH
    let est = norm2est(a);
    let alpha = est.estimate;
    if alpha == S::Real::ZERO {
        let pd = crate::qdwh_impl::qdwh(a, &QdwhOptions::default())?;
        return Ok(ZoloOutcome { pd, qr_factorizations: 0 });
    }
    let mut x = a.clone();
    scale_real::<S>(alpha.recip(), x.as_mut());
    let tiled_decision = zopts.resolve_tiled(n);
    let mut ell = {
        // the estimate's QR is a task graph when the solve is: a job
        // cancelled while it queued runs neither
        if tiled_decision.is_tiled() {
            poll_progress(zopts.progress.as_ref(), 1, f64::MAX, 0.0)?;
        }
        let tile_nb = tiled_decision.is_tiled().then(|| graph_tile_nb(zopts.tile_nb, n));
        let r = crate::qdwh_impl::cond_qr(&x, tile_nb);
        let raw = tr_sigma_min_est(&r) * S::Real::from_f64(0.9);
        raw.max(eps * eps).min(S::Real::ONE - eps).to_f64()
    };

    let mut info = QdwhInfo {
        alpha,
        l0: S::Real::from_f64(ell),
        iterations: 0,
        qr_iterations: 0,
        chol_iterations: 0,
        kinds: Vec::new(),
        records: Vec::new(),
        flops_estimate: 0.0,
        tiled_decision: Some(tiled_decision),
    };
    let _solve_span = polar_obs::span!("zolo", m, n);
    let mut qr_count = 0usize;
    // interval-convergence threshold: the sampled [fmin, fmax] bracket is
    // accurate to a few ulps and the initial l0 estimate to a few ulps
    // more (it is sensitive to summation order in the underlying gemm), so
    // 50 eps (rather than QDWH's 5 eps on the analytic bound) avoids a
    // spurious third iteration; the factors' accuracy is set by backward
    // stability, not by this stop test
    let tol = 50.0 * eps.to_f64();

    // Tiled path: all r stacked-QR terms of every iteration as concurrent
    // branches of one task graph. The serial loop below is the small-n
    // path and the planner-overflow continuation (a `None` plan leaves
    // `ell` untouched, so the loop's own iteration cap reports
    // `NoConvergence` with the usual bookkeeping).
    if tiled_decision.is_tiled() {
        x = crate::zolo_fused::zolo_fused(x, &mut ell, &mut info, &mut qr_count, zopts)?;
    }

    let mut last_conv = info.records.last().map_or(f64::MAX, |r| r.convergence.to_f64());
    while (ell - 1.0).abs() >= tol {
        if info.iterations >= zopts.max_iterations {
            return Err(QdwhError::NoConvergence { iterations: info.iterations });
        }
        poll_progress(zopts.progress.as_ref(), info.iterations + 1, last_conv, ell)?;
        info.iterations += 1;
        info.qr_iterations += 1; // Zolo iterations are QR-based
        info.kinds.push(crate::options::IterationKind::QrBased);
        let kernels_before = polar_obs::kernel_snapshot();
        let iter_start = std::time::Instant::now();
        let _iter_span = polar_obs::span!("zolo_iter", info.iterations, n);

        // coefficients, weights, normalization M = 1 / f(1) and the next
        // interval: the scalar recurrence the fused graph plans ahead
        let step = ZoloIterPlan::at(ell, zopts.r);

        // X_next = M (X + sum_j (a_j / sqrt(c_{2j-1})) Q1_j Q2_j^H),
        // each term from the stacked QR [X; sqrt(c_{2j-1}) I] = [Q1; Q2] R.
        // The r factorizations are independent — a distributed run
        // executes them concurrently (the strong-scaling win of §8).
        let x_prev = x.clone();
        let mut x_next = x.clone();
        for (j, &aj) in step.a_w.iter().enumerate() {
            let sqrt_c = step.c[2 * j].sqrt(); // c_{2j-1}
            let bottom = {
                let mut i = Matrix::<S>::identity(n, n);
                scale_real::<S>(S::Real::from_f64(sqrt_c), i.as_mut());
                i
            };
            let mut w = Matrix::vstack(&x_prev, &bottom);
            // the diagonal bottom block has the same trapezoidal-fill
            // structure QDWH exploits, so the windowed QR applies here too
            let f = polar_lapack::geqrf_stacked(m, &mut w);
            qr_count += 1;
            let q = orgqr(&w, &f);
            let q1 = q.submatrix_owned(0, 0, m, n);
            let q2 = q.submatrix_owned(m, 0, n, n);
            // X_next += (a_j / sqrt(c_j)) Q1 Q2^H
            gemm(
                Op::NoTrans,
                Op::ConjTrans,
                S::from_f64(aj / sqrt_c),
                q1.as_ref(),
                q2.as_ref(),
                S::ONE,
                x_next.as_mut(),
            );
        }
        scale_real::<S>(S::Real::from_f64(step.m_hat), x_next.as_mut());

        if x_next.has_non_finite() {
            return Err(QdwhError::NonFinite { iteration: info.iterations });
        }

        // keep sigma_max <= 1 for the next interval
        if step.rescale < 1.0 {
            scale_real::<S>(S::Real::from_f64(step.rescale), x_next.as_mut());
        }
        ell = step.ell_after;

        // convergence telemetry
        let mut diff = x_next.clone();
        add(-S::ONE, x_prev.as_ref(), S::ONE, diff.as_mut());
        let conv: S::Real = norm(Norm::Fro, diff.as_ref());
        last_conv = conv.to_f64();
        drop(_iter_span);
        info.records.push(crate::qdwh_impl::IterationRecord {
            iteration: info.iterations,
            kind: crate::options::IterationKind::QrBased,
            ell: S::Real::from_f64(ell),
            convergence: conv,
            seconds: iter_start.elapsed().as_secs_f64(),
            kernels: polar_obs::kernel_snapshot().delta(&kernels_before),
        });
        x = x_next;
    }

    // flop estimate: per iteration, r stacked QRs + Q builds + gemms
    let nf = n as f64;
    let tf = polar_blas::flops::type_factor(S::IS_COMPLEX);
    info.flops_estimate =
        tf * info.iterations as f64 * zopts.r as f64 * ((10.0 / 3.0) * 2.0 + 2.0) * nf.powi(3)
            + tf * 2.0 * nf.powi(3);

    let h = if zopts.compute_h {
        let mut h = Matrix::<S>::zeros(n, n);
        gemm(Op::ConjTrans, Op::NoTrans, S::ONE, x.as_ref(), a.as_ref(), S::ZERO, h.as_mut());
        symmetrize(h.as_mut());
        h
    } else {
        Matrix::zeros(0, 0)
    };

    Ok(ZoloOutcome { pd: PolarDecomposition { u: x, h, info }, qr_factorizations: qr_count })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qdwh_impl::{orthogonality_error, qdwh};
    use polar_gen::{generate, MatrixSpec, SigmaDistribution};

    #[test]
    fn zolo_two_iterations_at_kappa_1e16() {
        // the headline Zolo-PD property: r = 8 needs two iterations where
        // QDWH needs six
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(48, 1));
        let out = zolo_pd(&a, &ZoloOptions::default()).unwrap();
        assert!(out.pd.info.iterations <= 2, "iterations = {}", out.pd.info.iterations);
        assert!(orthogonality_error(&out.pd.u) < 1e-12);
        assert!(out.pd.backward_error(&a) < 1e-12);
        // 8 QRs per iteration
        assert_eq!(out.qr_factorizations, 8 * out.pd.info.iterations);

        let qdwh_run = qdwh(&a, &QdwhOptions::default()).unwrap();
        assert!(out.pd.info.iterations < qdwh_run.info.iterations);
    }

    #[test]
    fn zolo_matches_qdwh_factors() {
        let spec = MatrixSpec {
            m: 30,
            n: 30,
            cond: 1e4,
            distribution: SigmaDistribution::Geometric,
            seed: 2,
        };
        let (a, _) = generate::<f64>(&spec);
        let z = zolo_pd(&a, &ZoloOptions::default()).unwrap();
        let q = qdwh(&a, &QdwhOptions::default()).unwrap();
        let mut d = z.pd.u.clone();
        add(-1.0, q.u.as_ref(), 1.0, d.as_mut());
        let err: f64 = norm(Norm::Fro, d.as_ref());
        assert!(err < 1e-9, "U factors differ by {err}");
    }

    #[test]
    fn zolo_rectangular_and_complex() {
        use polar_scalar::Complex64;
        let spec = MatrixSpec {
            m: 40,
            n: 20,
            cond: 1e8,
            distribution: SigmaDistribution::Geometric,
            seed: 3,
        };
        let (a, _) = generate::<Complex64>(&spec);
        let out = zolo_pd(&a, &ZoloOptions::default()).unwrap();
        assert!(orthogonality_error(&out.pd.u) < 1e-12);
        assert!(out.pd.backward_error(&a) < 1e-12);
        assert!(out.pd.info.iterations <= 2);
    }

    #[test]
    fn small_r_needs_more_iterations() {
        let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(32, 4));
        let r8 = zolo_pd(&a, &ZoloOptions::default()).unwrap();
        let r2 =
            zolo_pd(&a, &ZoloOptions { r: 2, max_iterations: 10, ..Default::default() }).unwrap();
        assert!(r2.pd.info.iterations > r8.pd.info.iterations);
        assert!(orthogonality_error(&r2.pd.u) < 1e-12);
        // trade-off: fewer iterations but more total QRs for big r
        assert!(r8.qr_factorizations > r2.pd.info.iterations);
    }

    #[test]
    fn zolo_single_precision() {
        let (a64, _) = generate::<f64>(&MatrixSpec {
            m: 32,
            n: 32,
            cond: 1e5, // within f32's resolvable range
            distribution: SigmaDistribution::Geometric,
            seed: 9,
        });
        let a = Matrix::<f32>::from_fn(32, 32, |i, j| a64[(i, j)] as f32);
        let out = zolo_pd(&a, &ZoloOptions::default()).unwrap();
        assert!(out.pd.info.iterations <= 2, "iters {}", out.pd.info.iterations);
        assert!(orthogonality_error(&out.pd.u) < 1e-5);
        assert!(out.pd.backward_error(&a) < 1e-5);
    }

    #[test]
    fn zolo_rejects_bad_args() {
        let a = Matrix::<f64>::zeros(3, 5);
        assert!(zolo_pd(&a, &ZoloOptions::default()).is_err());
        let a = Matrix::<f64>::identity(4, 4);
        assert!(zolo_pd(&a, &ZoloOptions { r: 0, ..Default::default() }).is_err());
    }

    #[test]
    fn zolo_identity_fast_path() {
        let a = Matrix::<f64>::identity(8, 8);
        let out = zolo_pd(&a, &ZoloOptions::default()).unwrap();
        assert!(out.pd.info.iterations <= 2);
        for i in 0..8 {
            assert!((out.pd.u[(i, i)] - 1.0).abs() < 1e-13);
        }
    }
}
