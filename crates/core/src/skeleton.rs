//! The solve skeleton: Algorithm 1 as *estimate → plan → step → finish*,
//! each stage written once. [`scaled_start`] / [`estimate_l0`] scale the
//! input and bound `sigma_min` — on the Gram matrix `X^H X` when that
//! bound starts the plan Cholesky-based (whose first step then reads that
//! matrix), else on the `R` of a tile QR of `X`; a [`Step`] is one
//! rational step of the family, planned from the scalar bound alone
//! ([`Step::halley`] plans QDWH's one-term step), and [`plan`] a whole
//! sequence; [`solve`] is the one
//! driver (degenerate inputs, the planned sequence as one task graph, the
//! per-iteration records the graph's executor measured); [`finish`] forms
//! `H`, [`qdwh_flops`] / [`zolo_flops`] cost the solve and
//! [`QdwhInfo::started`] / [`QdwhInfo::push`] keep its telemetry.
//!
//! [`crate::qdwh`] is [`solve`] under one of two [`Method`]s, picked by
//! [`QdwhOptions::terms`]; `qdwh_mixed`, `svd_based_polar` and `polar-svc`'s
//! cost model call the same pieces, and `polar-batch` plays the steps
//! [`crate::qdwh_plan`] plans.

use crate::graph::{run_graph, Workspace};
use crate::options::{
    graph_tile_nb, poll_progress, IterationKind, IterationPath, L0Strategy, QdwhOptions,
};
use crate::params::{halley_parameters, update_ell};
use crate::qdwh_impl::{IterationRecord, PolarDecomposition, QdwhError, QdwhInfo};
use crate::solve_dag::{run_gram_start, Hooked, Iterate};
use polar_blas::flops::type_factor;
use polar_blas::{gemm, norm, symmetrize};
use polar_lapack::{gecondest, getrf, norm2est, tr_sigma_min_est, trcondest};
use polar_matrix::{MatRef, Matrix, Norm, Op};
use polar_scalar::{Real, Scalar};

/// The share of a `sigma_min` estimate `l_0` keeps, so that roundoff and
/// the estimator's slack leave it a lower bound.
const MARGIN: f64 = 0.9;

/// `raw` clamped into `[eps^2, 1 - eps]`: `l_0 = 0` would stall the weights.
fn clamp_l0<R: Real>(raw: R) -> R {
    let eps = R::EPSILON;
    raw.max(eps * eps).min(R::ONE - eps)
}

/// Lower bound `l_0` on the smallest singular value of the scaled input
/// `x` (Algorithm 1 lines 14-19), clamped into `[eps^2, 1 - eps]`. `r_of_x`
/// produces the `R` of `x = QR` in the upper triangle of its result, by
/// whichever QR the caller runs fastest; the LU route does not call it.
///
/// [`L0Strategy::LuFormula`] applies to square inputs only (there is no LU
/// condition estimate for a rectangular `x`): rectangular ones take
/// [`L0Strategy::PaperFormula`].
///
/// A solve that may start Cholesky-based asks the Gram matrix first
/// (`scaled_start`); this is the route it falls back on.
pub fn estimate_l0<S: Scalar>(
    x: MatRef<'_, S>,
    strategy: L0Strategy,
    r_of_x: impl FnOnce() -> Matrix<S>,
) -> S::Real {
    let n = x.ncols();
    match strategy {
        L0Strategy::SigmaMinPowerIteration => sigma_min_l0(&r_of_x()),
        formula => {
            let anorm: S::Real = norm(Norm::One, x);
            // a reciprocal 1-norm condition estimate: §4 stage (1), by
            // getrf + gecondest or by QR + trcondest
            let rcond = if formula == L0Strategy::LuFormula && x.nrows() == n {
                match getrf(&x.to_owned()) {
                    Ok(f) | Err((f, _)) => gecondest(&f, anorm),
                }
            } else {
                trcondest(&r_of_x())
            };
            clamp_l0(anorm * rcond / S::Real::from_usize(n).sqrt())
        }
    }
}

/// [`L0Strategy::SigmaMinPowerIteration`]'s `l_0` from the `R` of `x = QR`:
/// `sigma_min(x) = sigma_min(R)`, estimated tightly by inverse power
/// iteration.
fn sigma_min_l0<S: Scalar>(r: &Matrix<S>) -> S::Real {
    clamp_l0(tr_sigma_min_est(r) * S::Real::from_f64(MARGIN))
}

/// The bound `ell*` from which `method` steps Cholesky-based: the lower
/// end of the interval below `1 - eps` on which every step is, `eps^2` if
/// that is all of them (a forced Cholesky path); `None` when even the step
/// from `1 - eps` is QR-based (a forced QR path). Found by stepping down a
/// decade at a time to the first QR-based step, then bisecting in the
/// logarithm — never from below: in single precision Halley's weights
/// overflow under `ell ~ 1e-10`, and such a step is no sign of either kind.
fn cholesky_from<S: Scalar, M: Method<S>>(method: &M) -> Option<f64> {
    let eps = S::Real::EPSILON.to_f64();
    let chol = |ell: f64| method.step_at(ell).kind == IterationKind::CholeskyBased;
    let (floor, mut hi) = (eps * eps, 1.0 - eps);
    if !chol(hi) {
        return None;
    }
    let mut qr = hi;
    while chol(qr) {
        if qr <= floor {
            return Some(floor);
        }
        hi = qr;
        qr = (qr * 0.1).max(floor);
    }
    for _ in 0..64 {
        let mid = (qr * hi).sqrt();
        if chol(mid) {
            hi = mid;
        } else {
            qr = mid;
        }
    }
    Some(hi)
}

/// The Gram route's error bound on `sigma_hat^2`, relative: forming `G =
/// X^H X` and factoring it move its eigenvalues by about `m eps ||X||^2`
/// (`m` the length of its inner products, `||X|| ~ 1` once scaled).
/// `sigma_hat` is trusted while this stays a tenth of the margin `1 -
/// MARGIN`: `sigma_hat` then errs by well under the slack `l_0` keeps.
fn gram_error<R: Real>(m: usize, sigma_hat: R) -> f64 {
    m as f64 * R::EPSILON.to_f64() / sigma_hat.to_f64().powi(2)
}

/// `l_0` certified on the Gram matrix, or `None`. Run only for a method
/// whose step from `1 - eps` is Cholesky-based: `G = X^H X` is formed in the
/// last term slot's top half ([`Workspace::gram_host`]), a copy factored `G
/// = R^H R` in its bottom half, stopping at the first pivot below `tau =
/// ell* / MARGIN` (`sigma_min(R) <= min_j r_jj`: such an `R` could never
/// certify), and `sigma_hat` taken from `R` as from a QR's. It is trusted
/// when the bound it gives starts the plan Cholesky-based, `MARGIN
/// sigma_hat >= ell*`, and [`gram_error`] is small; the first step then
/// reads `G` there instead of forming its own.
fn gram_l0<S: Scalar, M: Method<S>>(
    x: &mut Iterate<S>,
    ws: &mut Workspace<S>,
    method: &M,
    opts: &QdwhOptions,
) -> Result<Option<S::Real>, QdwhError> {
    let Some(ell_star) = cholesky_from::<S, M>(method) else {
        return Ok(None);
    };
    let xt = x.tiling();
    let hook = opts.progress.as_ref();
    let hooked = Hooked { hook, first_iteration: 1, first_conv: M::FIRST_CONV, ells: &[0.0] };
    let floor = S::Real::from_f64(ell_star / MARGIN);
    let Some(r) = run_gram_start(x, ws, opts.terms, floor, &hooked)? else {
        return Ok(None);
    };
    let sigma_hat = tr_sigma_min_est(&r);
    let raw = sigma_hat * S::Real::from_f64(MARGIN);
    let trusted = raw.to_f64() >= ell_star && gram_error(xt.m(), sigma_hat) <= 0.1 * (1.0 - MARGIN);
    Ok(trusted.then(|| clamp_l0(raw)))
}

/// Where a solve starts: the scale `alpha`, the scaled input tiled as the
/// iterate, the bound `l_0` and the solve's [`Workspace`] — holding `X_0^H
/// X_0` when `l_0` was certified on it, and, when `l_0` was estimated on
/// it and the first step factors `X_0` (a QR-based step), the `T` factors
/// of the tile QR of `X_0`, whose packed tiles the iterate holds in place
/// of `X_0`.
pub(crate) struct Start<S: Scalar> {
    pub alpha: S::Real,
    pub x: Iterate<S>,
    pub l0: S::Real,
    pub ws: Workspace<S>,
}

/// Algorithm 1 lines 10-19 for a dense input, at tile size `nb`: the
/// two-norm estimate `alpha`, `X_0 = A / alpha` and `l_0`. `l0_override`
/// is taken verbatim. Else, under [`L0Strategy::SigmaMinPowerIteration`],
/// a method that could start Cholesky-based first tries the Gram route
/// (`gram_l0`, task graphs the progress hook may cancel); a bound it does
/// not certify — or any other strategy, or a method that must start
/// QR-based — is [`estimate_l0`]'s, its QR the tile graph over the
/// iterate's own tiles ([`Iterate::factor`]), kept for a QR-based first
/// step, which would factor `X_0` again. A plan that starts Cholesky-based
/// re-tiles `X_0` from `a`: the same function of the same input, the same
/// bits. `None` for the zero matrix.
pub(crate) fn scaled_start<S: Scalar, M: Method<S>>(
    a: &Matrix<S>,
    opts: &QdwhOptions,
    method: &M,
    nb: usize,
) -> Result<Option<Start<S>>, QdwhError> {
    let alpha = norm2est(a).estimate;
    if alpha == S::Real::ZERO {
        return Ok(None);
    }
    // X_0 = A / alpha, tiled: the iterate from here on
    let mut x = Iterate::scaled(a, alpha.recip(), nb);
    let mut ws = Workspace::default();
    let strategy = opts.l0_strategy;
    let certified = match opts.l0_override {
        None if strategy == L0Strategy::SigmaMinPowerIteration => {
            gram_l0(&mut x, &mut ws, method, opts)?
        }
        _ => None,
    };
    ws.gram_given = certified.is_some();
    let l0 = match (certified, opts.l0_override) {
        (Some(l0), _) => l0,
        (None, Some(v)) => S::Real::from_f64(v),
        (None, None) => {
            // only the formulas read X_0 itself
            let dense = (strategy != L0Strategy::SigmaMinPowerIteration).then(|| x.to_dense());
            let mut r_of_x = || x.factor(&mut ws.factor);
            let l0 = match &dense {
                Some(dense) => estimate_l0(dense.as_ref(), strategy, r_of_x),
                None => sigma_min_l0(&r_of_x()),
            };
            // the same tiles through the same kernels: the first step's QR;
            // a Cholesky-based first step reads X_0, tiled again
            let qr_first = method.step_at(l0.to_f64()).kind == IterationKind::QrBased;
            if ws.factor.is_some() && !qr_first {
                (x, ws.factor) = (Iterate::scaled(a, alpha.recip(), nb), None);
            }
            ws.factor_given = ws.factor.is_some();
            l0
        }
    };
    Ok(Some(Start { alpha, x, l0, ws }))
}

/// One partial-fraction term `weight * X (alpha X^H X + shift I)^{-1}` of a
/// rational step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Term<R> {
    pub alpha: R,
    pub shift: R,
    pub weight: R,
}

impl<R: Real> Term<R> {
    /// How a step of `kind` forms the term — the one place the two families'
    /// coefficients are derived. QR-based: `(s, d, coef)` with `coef Q1 Q2^H`
    /// of `[s X; d I] = [Q1; Q2] R`, `s = sqrt(alpha)`, `d = sqrt(shift)`.
    /// Cholesky-based: `(alpha, shift, coef)` with `coef X Z^{-1}`, `Z =
    /// alpha X^H X + shift I`.
    pub fn applied(&self, kind: IterationKind) -> (R, R, R) {
        match kind {
            IterationKind::QrBased => (
                self.alpha.sqrt(),
                self.shift.sqrt(),
                self.weight / (self.alpha * self.shift).sqrt(),
            ),
            IterationKind::CholeskyBased => (self.alpha, self.shift, self.weight),
        }
    }
}

/// One step of the family, planned from the scalar bound alone:
/// `X <- x_coef X + sum_j weight_j X (alpha_j X^H X + shift_j I)^{-1}`. QDWH's
/// dynamically weighted Halley step has one term ([`Step::halley`]),
/// Zolo-PD's Zolotarev step of degree `r` has `r`.
#[derive(Debug, Clone, PartialEq)]
pub struct Step<R> {
    /// How every term's inverse is applied: stacked QRs (Eq. (1)) or
    /// Cholesky factors of the shifted Gram matrices (Eq. (2)).
    pub kind: IterationKind,
    /// The bound on `sigma_min` after the step.
    pub ell_after: R,
    pub x_coef: R,
    pub terms: Vec<Term<R>>,
}

impl Step<f64> {
    /// The dynamically weighted Halley step from the bound `ell` (Algorithm
    /// 1 lines 23-29): `x_coef = b/c` and the one term
    /// `(a - b/c) X (c X^H X + I)^{-1}`, QR-based while `c > switch` under
    /// [`IterationPath::Auto`] (the paper's switch is 100).
    pub(crate) fn halley(ell: f64, path: IterationPath, switch: f64) -> Self {
        let p = halley_parameters(ell);
        let kind = match path {
            IterationPath::Auto if p.c > switch => IterationKind::QrBased,
            IterationPath::Auto => IterationKind::CholeskyBased,
            IterationPath::ForceQr => IterationKind::QrBased,
            IterationPath::ForceCholesky => IterationKind::CholeskyBased,
        };
        let x_coef = p.b / p.c;
        let term = Term { alpha: p.c, shift: 1.0, weight: p.a - x_coef };
        Step { kind, ell_after: update_ell(ell, p), x_coef, terms: vec![term] }
    }
}

/// The iteration sequence from the bound `ell`, known before any flop runs:
/// a method's recurrence is a function of the scalar bound alone, so it is
/// run — in f64, whatever `S` — until the stop test would pass on a
/// converged iterate. `conv` is the
/// norm the last step run left (`0` to plan from the bound alone): a bound
/// already at 1 under a norm still above tolerance plans the one step more
/// that norm asks for. `None` when the sequence is longer than `budget`.
pub(crate) fn plan<S: Scalar, M: Method<S>>(
    method: &M,
    mut ell: f64,
    conv: f64,
    budget: usize,
) -> Option<Vec<Step<f64>>> {
    let mut plan = Vec::new();
    while !M::converged(if plan.is_empty() { conv } else { 0.0 }, ell) {
        if plan.len() >= budget {
            return None;
        }
        let step = method.step_at(ell);
        ell = step.ell_after;
        plan.push(step);
    }
    Some(plan)
}

/// Flops of one QDWH iteration in units of `n^3` (§4): `8 2/3` QR-based,
/// `4 1/3` Cholesky-based.
fn step_weight(kind: IterationKind) -> f64 {
    match kind {
        IterationKind::QrBased => 8.0 + 2.0 / 3.0,
        IterationKind::CholeskyBased => 4.0 + 1.0 / 3.0,
    }
}

/// Flops of one Zolo-PD iteration of degree `r` in units of `n^3`.
/// QR-based: `r` stacked QRs with their explicit `Q` (`10/3` each) and
/// rank-`n` products. Cholesky-based: the Gram matrix once, per term a
/// Cholesky factorization, its inverse and the `T^H T` triangle (`1/3`
/// each), then one `X M` gemm (`2`).
fn zolo_step_weight(kind: IterationKind, r: usize) -> f64 {
    match kind {
        IterationKind::QrBased => r as f64 * ((10.0 / 3.0) * 2.0 + 2.0),
        IterationKind::CholeskyBased => 3.0 + r as f64,
    }
}

/// The paper's §4 complexity formula (square-matrix form, real flops):
/// condition estimate, the iterations by kind, the final `H = U^H A`.
pub fn qdwh_flops(n: usize, it_qr: usize, it_chol: usize, complex: bool) -> f64 {
    let n3 = (n as f64).powi(3);
    type_factor(complex)
        * ((4.0 / 3.0) * n3
            + step_weight(IterationKind::QrBased) * n3 * it_qr as f64
            + step_weight(IterationKind::CholeskyBased) * n3 * it_chol as f64
            + 2.0 * n3)
}

/// Zolo-PD's cost in real flops at degree `r`: the iterations by kind
/// (`r (20/3 + 2) n^3` QR-based, `(3 + r) n^3` Cholesky-based), plus the
/// final `H`.
pub fn zolo_flops(n: usize, it_qr: usize, it_chol: usize, r: usize, complex: bool) -> f64 {
    let n3 = (n as f64).powi(3);
    type_factor(complex)
        * (zolo_step_weight(IterationKind::QrBased, r) * n3 * it_qr as f64
            + zolo_step_weight(IterationKind::CholeskyBased, r) * n3 * it_chol as f64
            + 2.0 * n3)
}

/// Algorithm 1 line 52: `H = U^H A`, symmetrized; `0 x 0` when the caller
/// wants the unitary factor only.
pub(crate) fn finish<S: Scalar>(u: &Matrix<S>, a: &Matrix<S>, compute_h: bool) -> Matrix<S> {
    if !compute_h {
        return Matrix::zeros(0, 0);
    }
    let n = a.ncols();
    let mut h = Matrix::<S>::zeros(n, n);
    gemm(Op::ConjTrans, Op::NoTrans, S::ONE, u.as_ref(), a.as_ref(), S::ZERO, h.as_mut());
    symmetrize(h.as_mut());
    h
}

impl<R: Real> QdwhInfo<R> {
    /// Telemetry of a solve that has not iterated yet. With zeros: of one
    /// that never will (a degenerate input, a direct method).
    pub fn started(alpha: R, l0: R) -> Self {
        QdwhInfo {
            alpha,
            l0,
            iterations: 0,
            qr_iterations: 0,
            chol_iterations: 0,
            kinds: Vec::new(),
            records: Vec::new(),
            flops_estimate: 0.0,
        }
    }

    /// Count and keep the record of the iteration that just finished.
    pub fn push(&mut self, record: IterationRecord<R>) {
        polar_obs::log!(
            polar_obs::LogLevel::Debug,
            "iter {} {:?}: conv={:e} ell={:e} {:.1} GFlop/s",
            record.iteration,
            record.kind,
            record.convergence.to_f64(),
            record.ell.to_f64(),
            record.achieved_gflops()
        );
        self.iterations += 1;
        match record.kind {
            IterationKind::QrBased => self.qr_iterations += 1,
            IterationKind::CholeskyBased => self.chol_iterations += 1,
        }
        self.kinds.push(record.kind);
        self.records.push(record);
    }

    /// The same telemetry in another precision.
    pub(crate) fn cast<T: Real>(&self) -> QdwhInfo<T> {
        let to = |v: R| T::from_f64(v.to_f64());
        QdwhInfo {
            alpha: to(self.alpha),
            l0: to(self.l0),
            iterations: self.iterations,
            qr_iterations: self.qr_iterations,
            chol_iterations: self.chol_iterations,
            kinds: self.kinds.clone(),
            records: self
                .records
                .iter()
                .map(|r| IterationRecord {
                    iteration: r.iteration,
                    kind: r.kind,
                    ell: to(r.ell),
                    convergence: to(r.convergence),
                    seconds: r.seconds,
                    kernels: r.kernels,
                })
                .collect(),
            flops_estimate: self.flops_estimate,
        }
    }
}

/// The answer to an input no iteration runs on: `u` and an all-zero `H` of
/// order `h_order`.
fn without_iterating<S: Scalar>(u: Matrix<S>, h_order: usize) -> PolarDecomposition<S> {
    let info = QdwhInfo::started(S::Real::ZERO, S::Real::ZERO);
    PolarDecomposition { u, h: Matrix::zeros(h_order, h_order), info }
}

/// What tells one member of the QDWH family from another under [`solve`]
/// — all of it something a merge of the two would change: the step, the
/// stop test, the sentinel a hook sees first, the span name and the cost
/// model. Every other option both read from the one [`QdwhOptions`]. The
/// bound's recurrence runs in f64 for every `S`; the stop test compares
/// with `S`'s precision.
pub(crate) trait Method<S: Scalar> {
    /// Span name of the solve.
    const NAME: &'static str;
    /// What the progress hook is told of `||X_k - X_{k-1}||_F` before any
    /// is known.
    const FIRST_CONV: f64;

    /// The iteration that starts from the bound `ell`.
    fn step_at(&self, ell: f64) -> Step<f64>;

    /// The stop test, on the last `||X_k - X_{k-1}||_F` and the bound.
    fn converged(conv: f64, ell: f64) -> bool;

    /// Modeled real flops of a finished solve of `n` columns.
    fn flops(&self, n: usize, info: &QdwhInfo<S::Real>) -> f64;
}

/// Polar decomposition of `a` by `method` under `opts` — the one driver.
pub(crate) fn solve<S: Scalar, M: Method<S>>(
    a: &Matrix<S>,
    opts: &QdwhOptions,
    method: &M,
) -> Result<PolarDecomposition<S>, QdwhError> {
    let (m, n) = (a.nrows(), a.ncols());
    let _solve_span = polar_obs::span!(M::NAME, m, n);
    let hook = opts.progress.as_ref();
    if m < n {
        return Err(QdwhError::Shape("polar decomposition requires m >= n"));
    }
    if n == 0 {
        return Ok(without_iterating(Matrix::zeros(m, 0), 0));
    }
    if a.has_non_finite() {
        return Err(QdwhError::NonFinite { iteration: 0 });
    }

    // the start stage's graphs are task graphs too: a job cancelled while
    // it queued runs none of them. (No bound on sigma_min is known yet; 0
    // is one.)
    poll_progress(hook, 1, M::FIRST_CONV, 0.0)?;
    let nb = graph_tile_nb(opts.tile_nb, n);
    let Some(Start { alpha, mut x, l0, mut ws }) = scaled_start(a, opts, method, nb)? else {
        // zero matrix: U = leading identity block, H = 0
        return Ok(without_iterating(Matrix::identity(m, n), if opts.compute_h { n } else { 0 }));
    };
    // the tiles are the iterate from here on, and they and the workspace
    // outlive the graph that made them
    let mut info = QdwhInfo::started(alpha, l0);
    let mut ell = l0.to_f64();
    let mut conv = M::FIRST_CONV;

    // The whole planned sequence as one task graph, a phase per iteration.
    // One pass, normally; a last norm still above tolerance with the bound
    // at 1 plans one step more, which is emitted and run the same way on
    // the same tiles and workspaces.
    while !M::converged(conv, ell) {
        let budget = opts.max_iterations.saturating_sub(info.iterations);
        let Some(steps) = plan(method, ell, conv, budget) else {
            return Err(QdwhError::NoConvergence { iterations: opts.max_iterations });
        };
        let first_iteration = info.iterations + 1;
        // a job cancelled while it queued allocates nothing
        poll_progress(hook, first_iteration, conv, ell)?;
        let ells: Vec<f64> =
            std::iter::once(ell).chain(steps.iter().map(|s| s.ell_after)).collect();
        let hooked = Hooked { hook, first_iteration, first_conv: conv, ells: &ells };
        let (sink, phases) = run_graph(&mut x, &mut ws, &steps, &hooked)?;
        for (k, (step, phase)) in steps.iter().zip(&phases).enumerate() {
            let convergence: S::Real = sink.norm(k);
            if !convergence.to_f64().is_finite() {
                return Err(QdwhError::NonFinite { iteration: first_iteration + k });
            }
            info.push(IterationRecord {
                iteration: first_iteration + k,
                kind: step.kind,
                ell: S::Real::from_f64(step.ell_after),
                convergence,
                seconds: phase.seconds(),
                kernels: phase.kernels,
            });
            (ell, conv) = (step.ell_after, convergence.to_f64());
        }
    }

    drop(ws);
    let u = x.into_dense();
    info.flops_estimate = method.flops(n, &info);
    let h = finish(&u, a, opts.compute_h);
    Ok(PolarDecomposition { u, h, info })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_models_match_the_paper() {
        // §4: 4/3 n^3 + 8 2/3 n^3 #QR + 4 1/3 n^3 #Chol + 2 n^3
        let n3 = 32f64.powi(3);
        let expect = (4.0 / 3.0) * n3
            + (8.0 + 2.0 / 3.0) * n3 * 2.0
            + (4.0 + 1.0 / 3.0) * n3 * 4.0
            + 2.0 * n3;
        assert_eq!(qdwh_flops(32, 2, 4, false), expect);
        assert_eq!(qdwh_flops(32, 2, 4, true), 4.0 * expect);
        // QR-based: r QR + Q pairs and products; Cholesky-based: one Gram
        // matrix, r factorizations, inverses and T^H T triangles, one X M
        // gemm; then H
        let qr_iter = 8.0 * (10.0 / 3.0 * 2.0 + 2.0) * n3;
        let chol_iter = n3 + 8.0 * (3.0 / 3.0) * n3 + 2.0 * n3;
        assert_eq!(zolo_flops(32, 2, 0, 8, false), 2.0 * qr_iter + 2.0 * n3);
        assert_eq!(zolo_flops(32, 1, 1, 8, false), qr_iter + chol_iter + 2.0 * n3);
        assert_eq!(zolo_flops(32, 1, 1, 8, true), 4.0 * zolo_flops(32, 1, 1, 8, false));
        assert!(zolo_flops(32, 1, 1, 2, false) < zolo_flops(32, 1, 1, 8, false));
    }

    /// `ell*` is where the kind turns, for both families and both
    /// precisions of the bound's recurrence: Cholesky-based at it, QR-based
    /// just under it. (Single-precision Halley steps are NaN far below it:
    /// no sign of either kind.)
    #[test]
    fn cholesky_from_finds_where_a_step_turns_cholesky_based() {
        use crate::qdwh_impl::Halley;
        use crate::zolo::Zolotarev;
        fn turns<S: Scalar, M: Method<S>>(method: &M) -> f64 {
            let ell = cholesky_from::<S, M>(method).expect("Cholesky-based from 1 - eps");
            let kind = |e: f64| method.step_at(e).kind;
            assert_eq!(kind(ell), IterationKind::CholeskyBased, "{ell:e}");
            assert_eq!(kind(ell * (1.0 - 1e-6)), IterationKind::QrBased, "{ell:e}");
            ell
        }
        let opts = QdwhOptions::default();
        let (d, s) = (turns::<f64, _>(&Halley(&opts)), turns::<f32, _>(&Halley(&opts)));
        // c = 100 at ell = 0.0483
        assert!((d - 0.0483).abs() < 1e-4 && (s - d).abs() < 1e-6 * d, "{d:e} {s:e}");
        // a Zolotarev step's kind: 0.075 at r = 2, 0.097 at r = 8
        let zolo = [2, 8].map(|r| turns::<f64, _>(&Zolotarev(r)));
        assert!(zolo[0] < zolo[1] && zolo[1] < 0.1, "{zolo:?}");
        let path = |path| QdwhOptions { path, ..QdwhOptions::default() };
        assert_eq!(cholesky_from::<f64, _>(&Halley(&path(IterationPath::ForceQr))), None);
        let forced = cholesky_from::<f64, _>(&Halley(&path(IterationPath::ForceCholesky)));
        assert_eq!(forced, Some(f64::EPSILON * f64::EPSILON));
    }

    #[test]
    fn halley_step_is_the_one_term_member() {
        let ell = 1e-8f64;
        let p = halley_parameters(ell);
        let step = Step::halley(ell, IterationPath::Auto, 100.0);
        assert!(step.kind == IterationKind::QrBased && p.c > 100.0);
        assert_eq!(step.x_coef, p.b / p.c);
        assert_eq!(step.terms, [Term { alpha: p.c, shift: 1.0, weight: p.a - p.b / p.c }]);
        assert_eq!(step.ell_after, update_ell(ell, p));
        // the update coefficient each family applies, bit for bit
        let (s, d, coef) = step.terms[0].applied(IterationKind::QrBased);
        assert_eq!((s, d, coef), (p.c.sqrt(), 1.0, (p.a - p.b / p.c) / p.c.sqrt()));
        // a wider Cholesky window, as the batch engine's hinted entries ask for
        let wide = Step::halley(ell, IterationPath::Auto, f64::MAX);
        assert_eq!(wide.kind, IterationKind::CholeskyBased);
        assert_eq!(wide.terms[0].applied(wide.kind), (p.c, 1.0, p.a - p.b / p.c));
        assert_eq!(
            (wide.x_coef, &wide.terms, wide.ell_after),
            (step.x_coef, &step.terms, step.ell_after)
        );
        assert_eq!(
            Step::halley(0.5f64, IterationPath::ForceQr, 100.0).kind,
            IterationKind::QrBased
        );
        let forced = Step::halley(ell, IterationPath::ForceCholesky, 100.0);
        assert_eq!(forced.kind, IterationKind::CholeskyBased);
    }

    /// A step is a scalar map on the singular values: it sends `[ell, 1]`
    /// into `[ell_after, 1]`, whichever family applies its terms.
    #[test]
    fn a_step_maps_the_interval_onto_the_bound_after_it() {
        let paths = [IterationPath::Auto, IterationPath::ForceQr, IterationPath::ForceCholesky];
        for ell in [1e-16, 1e-8, 1e-3, 0.5, 0.9] {
            let halley = paths.map(|path| Step::halley(ell, path, 100.0));
            let zolotarev = [1usize, 2, 4, 8].map(|r| Step::zolotarev(ell, r));
            for step in halley.iter().chain(&zolotarev) {
                let case = format!("ell = {ell:e}, {} terms, {:?}", step.terms.len(), step.kind);
                let (lo, hi) = (step.ell_after * (1.0 - 1e-9), 1.0 + 1e-9);
                for i in 0..=2000 {
                    // log-spaced from ell to 1, both ends included
                    let x = ell.powf(1.0 - i as f64 / 2000.0);
                    let inv = |t: &Term<f64>| x / (t.alpha * x * x + t.shift);
                    let y =
                        step.x_coef * x + step.terms.iter().map(|t| t.weight * inv(t)).sum::<f64>();
                    assert!((lo..=hi).contains(&y), "{case}: f({x:e}) = {y:e}, bound {lo:e}");
                    // the QR-based form of a term, `coef Q1 Q2^H` of `[s X; d
                    // I]`, is `coef s d x / (s^2 x^2 + d^2)`: the same function
                    for t in &step.terms {
                        let (s, d, coef) = t.applied(IterationKind::QrBased);
                        let qr = coef * s * d * x / (s * s * x * x + d * d);
                        let (alpha, shift, coef) = t.applied(IterationKind::CholeskyBased);
                        let chol = coef * x / (alpha * x * x + shift);
                        assert!((qr - chol).abs() <= 1e-14 * chol.abs(), "{case}: {qr:e} {chol:e}");
                    }
                }
            }
        }
    }
}
