//! The solve skeleton: Algorithm 1 as *estimate → plan → step → finish*,
//! each stage written once. [`scaled_start`] / [`estimate_l0`] scale the
//! input and bound `sigma_min`; a [`Step`] is one rational step of the
//! family, planned from the scalar bound alone ([`HalleyStep::at`] plans
//! QDWH's one-term step), and [`plan`] a whole sequence; [`solve`] is the one
//! driver (degenerate inputs, the planned sequence as one task graph, the
//! per-iteration records the graph's executor measured); [`finish`] forms
//! `H`, [`qdwh_flops`] / [`zolo_flops`] cost the solve and
//! [`QdwhInfo::started`] / [`QdwhInfo::push`] keep its telemetry.
//!
//! [`crate::qdwh`] and [`crate::zolo_pd`] are [`solve`] under two
//! [`Method`]s; `qdwh_mixed`, `svd_based_polar`, `polar-batch` and
//! `polar-svc`'s cost model call the same pieces.

use crate::graph::{run_graph, Workspace};
use crate::options::{
    graph_tile_nb, poll_progress, IterationKind, IterationPath, L0Strategy, ProgressHook,
};
use crate::params::{halley_parameters, update_ell};
use crate::qdwh_impl::{IterationRecord, PolarDecomposition, QdwhError, QdwhInfo};
use crate::solve_dag::{Hooked, Iterate};
use polar_blas::flops::type_factor;
use polar_blas::{gemm, norm, scale_real, symmetrize};
use polar_lapack::{gecondest, geqrf_tiled, getrf, norm2est, tr_sigma_min_est, trcondest};
use polar_matrix::{MatRef, Matrix, Norm, Op};
use polar_scalar::{Real, Scalar};

/// Lower bound `l_0` on the smallest singular value of the scaled input
/// `x` (Algorithm 1 lines 14-19), clamped into `[eps^2, 1 - eps]` (`l_0 =
/// 0` would stall the weights). `r_of_x` produces the `R` of `x = QR` in
/// the upper triangle of its result, by whichever QR the caller runs
/// fastest; the LU route does not call it.
///
/// [`L0Strategy::LuFormula`] applies to square inputs only (there is no LU
/// condition estimate for a rectangular `x`): rectangular ones take
/// [`L0Strategy::PaperFormula`].
pub fn estimate_l0<S: Scalar>(
    x: MatRef<'_, S>,
    strategy: L0Strategy,
    r_of_x: impl FnOnce() -> Matrix<S>,
) -> S::Real {
    let n = x.ncols();
    let raw = match strategy {
        // sigma_min(x) = sigma_min(R), estimated tightly by inverse power
        // iteration; scaled by 0.9 so roundoff and estimator slack keep it
        // a lower bound
        L0Strategy::SigmaMinPowerIteration => tr_sigma_min_est(&r_of_x()) * S::Real::from_f64(0.9),
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
            anorm * rcond / S::Real::from_usize(n).sqrt()
        }
    };
    let eps = S::Real::EPSILON;
    raw.max(eps * eps).min(S::Real::ONE - eps)
}

/// Algorithm 1 lines 10-19 for a dense input: the two-norm estimate
/// `alpha`, `X_0 = A / alpha` and `l_0` (`l0_override` verbatim, else
/// [`estimate_l0`], its QR the tile graph at tile size `nb`). `None` for
/// the zero matrix.
pub(crate) fn scaled_start<S: Scalar>(
    a: &Matrix<S>,
    l0_override: Option<f64>,
    strategy: L0Strategy,
    nb: usize,
) -> Option<(S::Real, Matrix<S>, S::Real)> {
    let alpha = norm2est(a).estimate;
    if alpha == S::Real::ZERO {
        return None;
    }
    let mut x = a.clone();
    scale_real::<S>(alpha.recip(), x.as_mut());
    let l0 = match l0_override {
        Some(v) => S::Real::from_f64(v),
        None => estimate_l0(x.as_ref(), strategy, || geqrf_tiled(&x, nb).extract_r()),
    };
    Some((alpha, x, l0))
}

/// One partial-fraction term `weight * X (alpha X^H X + shift I)^{-1}` of a
/// rational step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Term<R> {
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
    pub(crate) fn applied(&self, kind: IterationKind) -> (R, R, R) {
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
/// dynamically weighted Halley step has one term ([`HalleyStep::step`]),
/// Zolo-PD's Zolotarev step of degree `r` has `r`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Step<R> {
    /// How every term's inverse is applied: stacked QRs (Eq. (1)) or
    /// Cholesky factors of the shifted Gram matrices (Eq. (2)).
    pub kind: IterationKind,
    /// The bound on `sigma_min` after the step.
    pub ell_after: R,
    pub x_coef: R,
    pub terms: Vec<Term<R>>,
}

/// One dynamically weighted Halley step as planned from the bound `l`
/// entering it (Algorithm 1 lines 23-29): the weights, the factorization
/// family the switch selects, the coefficients of the update that family
/// applies and the bound after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HalleyStep<R> {
    pub a: R,
    pub b: R,
    pub c: R,
    /// QR-based (Eq. (1)) or Cholesky-based (Eq. (2)).
    pub kind: IterationKind,
    /// `X_{k+1} = theta Y + beta X_k`, with `Y = Q1 Q2^H` of `[sqrt(c) X_k;
    /// I] = [Q1; Q2] R` (QR-based: `theta = (a - b/c) / sqrt(c)`) or `Y =
    /// X_k (I + c X_k^H X_k)^{-1}` (Cholesky-based: `theta = a - b/c`).
    pub theta: R,
    /// `b / c`.
    pub beta: R,
    /// `l_{k+1}`.
    pub ell_after: R,
}

impl<R: Real> HalleyStep<R> {
    /// The step from bound `ell`: QR-based while `c > switch` under
    /// [`IterationPath::Auto`] (the paper's switch is 100).
    pub fn at(ell: R, path: IterationPath, switch: f64) -> Self {
        let p = halley_parameters(ell);
        let kind = match path {
            IterationPath::Auto if p.c.to_f64() > switch => IterationKind::QrBased,
            IterationPath::Auto => IterationKind::CholeskyBased,
            IterationPath::ForceQr => IterationKind::QrBased,
            IterationPath::ForceCholesky => IterationKind::CholeskyBased,
        };
        let beta = p.b / p.c;
        let theta = Self::term(p.a, beta, p.c).applied(kind).2;
        Self { a: p.a, b: p.b, c: p.c, kind, theta, beta, ell_after: update_ell(ell, p) }
    }

    pub fn is_qr(&self) -> bool {
        self.kind == IterationKind::QrBased
    }

    /// `(a - b/c) X (c X^H X + I)^{-1}`.
    fn term(a: R, beta: R, c: R) -> Term<R> {
        Term { alpha: c, shift: R::ONE, weight: a - beta }
    }

    /// The same step as the one-term member of the family, `x_coef = b/c`.
    pub(crate) fn step(&self) -> Step<R> {
        let terms = vec![Self::term(self.a, self.beta, self.c)];
        Step { kind: self.kind, ell_after: self.ell_after, x_coef: self.beta, terms }
    }
}

/// QDWH's stop test (Algorithm 1 line 22): `||X_k - X_{k-1}||_F` below
/// `cbrt(5 eps)` — the tolerance of a cubically convergent method — and
/// `|l_k - 1| < 5 eps`.
pub fn converged<R: Real>(conv: R, ell: R) -> bool {
    let five_eps = R::from_f64(5.0) * R::EPSILON;
    conv < five_eps.cbrt() && (ell - R::ONE).abs() < five_eps
}

/// The iteration sequence from the bound `ell`, known before any flop runs:
/// a method's recurrence is a function of the scalar bound alone, so it is
/// run until the stop test would pass on a converged iterate. `conv` is the
/// norm the last step run left (`0` to plan from the bound alone): a bound
/// already at 1 under a norm still above tolerance plans the one step more
/// that norm asks for. `None` when the sequence is longer than `budget`.
pub(crate) fn plan<S: Scalar, M: Method<S>>(
    method: &M,
    mut ell: M::Ell,
    conv: f64,
    budget: usize,
) -> Option<Vec<Step<M::Ell>>> {
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
/// rank-`n` products. Cholesky-based: the Gram matrix once, then per term
/// a Cholesky factorization (`1/3`) and the two sweeps.
fn zolo_step_weight(kind: IterationKind, r: usize) -> f64 {
    match kind {
        IterationKind::QrBased => r as f64 * ((10.0 / 3.0) * 2.0 + 2.0),
        IterationKind::CholeskyBased => 1.0 + r as f64 * (1.0 / 3.0 + 2.0),
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
/// (`r (20/3 + 2) n^3` QR-based, `(1 + r (1/3 + 2)) n^3` Cholesky-based),
/// plus the final `H`.
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

/// The options every method of the family reads.
pub(crate) struct Common<'a> {
    pub max_iterations: usize,
    pub compute_h: bool,
    pub tile_nb: Option<usize>,
    /// Prune every stacked QR to the fill window of `[B; I]`.
    pub exploit_structure: bool,
    pub progress: Option<&'a ProgressHook>,
    pub l0_override: Option<f64>,
    pub l0_strategy: L0Strategy,
}

/// What tells one member of the QDWH family from another under [`solve`].
pub(crate) trait Method<S: Scalar> {
    /// The type the bound's recurrence runs in.
    type Ell: Real;
    /// Span name of the solve.
    const NAME: &'static str;
    /// What the progress hook is told of `||X_k - X_{k-1}||_F` before any
    /// is known.
    const FIRST_CONV: f64;

    fn common(&self) -> Common<'_>;

    /// The iteration that starts from the bound `ell`.
    fn step_at(&self, ell: Self::Ell) -> Step<Self::Ell>;

    /// The stop test, on the last `||X_k - X_{k-1}||_F` and the bound.
    fn converged(conv: f64, ell: Self::Ell) -> bool;

    /// Modeled real flops of a finished solve of `n` columns.
    fn flops(&self, n: usize, info: &QdwhInfo<S::Real>) -> f64;
}

/// Polar decomposition of `a` by `method` — the one driver.
pub(crate) fn solve<S: Scalar, M: Method<S>>(
    a: &Matrix<S>,
    method: &M,
) -> Result<PolarDecomposition<S>, QdwhError> {
    let (m, n) = (a.nrows(), a.ncols());
    let c = method.common();
    let _solve_span = polar_obs::span!(M::NAME, m, n);
    if m < n {
        return Err(QdwhError::Shape("polar decomposition requires m >= n"));
    }
    if n == 0 {
        return Ok(without_iterating(Matrix::zeros(m, 0), 0));
    }
    if a.has_non_finite() {
        return Err(QdwhError::NonFinite { iteration: 0 });
    }

    // the estimate's QR is a task graph too: a job cancelled while it
    // queued runs neither graph. (No bound on sigma_min is known yet; 0 is
    // one.)
    poll_progress(c.progress, 1, M::FIRST_CONV, 0.0)?;
    let nb = graph_tile_nb(c.tile_nb, n);
    let Some((alpha, x0, l0)) = scaled_start(a, c.l0_override, c.l0_strategy, nb) else {
        // zero matrix: U = leading identity block, H = 0
        return Ok(without_iterating(Matrix::identity(m, n), if c.compute_h { n } else { 0 }));
    };
    // the tiles are the iterate from here on, and they and the workspaces
    // outlive the graph that made them
    let mut x = Iterate::from_dense(&x0, nb);
    drop(x0);
    let mut ws = Workspace::default();
    let mut info = QdwhInfo::started(alpha, l0);
    let mut ell = M::Ell::from_f64(l0.to_f64());
    let mut conv = M::FIRST_CONV;

    // The whole planned sequence as one task graph, a phase per iteration.
    // One pass, normally; a last norm still above tolerance with the bound
    // at 1 plans one step more, which is emitted and run the same way on
    // the same tiles and workspaces.
    while !M::converged(conv, ell) {
        let budget = c.max_iterations.saturating_sub(info.iterations);
        let Some(steps) = plan(method, ell, conv, budget) else {
            return Err(QdwhError::NoConvergence { iterations: c.max_iterations });
        };
        let first_iteration = info.iterations + 1;
        // a job cancelled while it queued allocates nothing
        poll_progress(c.progress, first_iteration, conv, ell.to_f64())?;
        let bounds = std::iter::once(ell).chain(steps.iter().map(|s| s.ell_after));
        let ells: Vec<f64> = bounds.map(|e| e.to_f64()).collect();
        let hooked = Hooked { hook: c.progress, first_iteration, first_conv: conv, ells: &ells };
        let (sink, phases) = run_graph(&mut x, &mut ws, &steps, c.exploit_structure, &hooked)?;
        for (k, (step, phase)) in steps.iter().zip(&phases).enumerate() {
            let convergence: S::Real = sink.norm(k);
            if !convergence.to_f64().is_finite() {
                return Err(QdwhError::NonFinite { iteration: first_iteration + k });
            }
            info.push(IterationRecord {
                iteration: first_iteration + k,
                kind: step.kind,
                ell: S::Real::from_f64(step.ell_after.to_f64()),
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
    let h = finish(&u, a, c.compute_h);
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
        // matrix, r factorizations and sweep pairs; then H
        let qr_iter = 8.0 * (10.0 / 3.0 * 2.0 + 2.0) * n3;
        let chol_iter = n3 + 8.0 * (1.0 / 3.0 + 2.0) * n3;
        assert_eq!(zolo_flops(32, 2, 0, 8, false), 2.0 * qr_iter + 2.0 * n3);
        assert_eq!(zolo_flops(32, 1, 1, 8, false), qr_iter + chol_iter + 2.0 * n3);
        assert_eq!(zolo_flops(32, 1, 1, 8, true), 4.0 * zolo_flops(32, 1, 1, 8, false));
        assert!(zolo_flops(32, 1, 1, 2, false) < zolo_flops(32, 1, 1, 8, false));
    }

    #[test]
    fn halley_step_follows_the_switch() {
        let step = HalleyStep::at(1e-8f64, IterationPath::Auto, 100.0);
        assert!(step.is_qr() && step.c > 100.0);
        assert_eq!(step.beta, step.b / step.c);
        assert_eq!(step.theta, (step.a - step.beta) / step.c.sqrt());
        // a wider Cholesky window, as the batch engine's hinted entries ask for
        let wide = HalleyStep::at(1e-8f64, IterationPath::Auto, f64::MAX);
        assert_eq!(wide.kind, IterationKind::CholeskyBased);
        assert_eq!(wide.theta, wide.a - wide.beta);
        assert_eq!(
            (wide.a, wide.b, wide.c, wide.ell_after),
            (step.a, step.b, step.c, step.ell_after)
        );
        assert!(HalleyStep::at(0.5f64, IterationPath::ForceQr, 100.0).is_qr());
        assert!(!HalleyStep::at(1e-8f64, IterationPath::ForceCholesky, 100.0).is_qr());
    }

    /// A step is a scalar map on the singular values: it sends `[ell, 1]`
    /// into `[ell_after, 1]`, whichever family applies its terms.
    #[test]
    fn a_step_maps_the_interval_onto_the_bound_after_it() {
        let paths = [IterationPath::Auto, IterationPath::ForceQr, IterationPath::ForceCholesky];
        for ell in [1e-16, 1e-8, 1e-3, 0.5, 0.9] {
            let halley = paths.map(|path| HalleyStep::at(ell, path, 100.0).step());
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

    #[test]
    fn stop_test_has_two_parts() {
        assert!(converged(0.0f64, 1.0));
        assert!(!converged(1e-3f64, 1.0), "conv above cbrt(5 eps)");
        assert!(!converged(0.0f64, 1.0 - 1e-12), "bound not at 1");
        assert!(converged(1e-6f64, 1.0 - 4.0 * f64::EPSILON));
    }
}
