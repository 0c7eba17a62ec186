//! An audit of the start stage's bound `l0`: where the solve certifies it
//! on the Gram matrix `X^H X` (a method that may start Cholesky-based, the
//! default `l0` strategy), against the QR route it replaces — `estimate_l0`
//! over the tile QR of `X`, what every solve ran before.
//!
//! * Certified: the bound matches the QR route's to `1e-10` relative (f64
//!   types) and plans the same steps — but where the QR route's plan ends
//!   on the stop test's edge (`assert_same_plan`).
//! * Declined (the bound would start QR-based): the QR route's bound, bit
//!   for bit.
//! * Single precision: the route's error bound `m eps / sigma^2` decides —
//!   certified only where it is at most a tenth of the 10 % margin `l0`
//!   keeps, and then within it.
//!
//! Each case runs the start stage only: the hook cancels the solve as soon
//! as it is told the bound the first iteration starts from. The spans say
//! which route ran. Every test holds `polar_obs::scope_lock()`.

use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_lapack::{auto_tile_nb, geqrf_tiled, norm2est};
use polar_matrix::Matrix;
use polar_qdwh::{
    estimate_l0, qdwh, qdwh_plan, IterationDecision, IterationKind, IterationProgress, L0Strategy,
    ProgressHook, QdwhError, QdwhOptions, Step,
};
use polar_scalar::{Complex32, Complex64, Real, Scalar};
use std::sync::{Arc, Mutex};

/// Square and tall. A debug build runs the double-precision sweeps on the
/// square one, and every sweep on one seed a case: `./ci.sh workspace`
/// runs the audit in release too.
const SHAPES: [(usize, usize); 2] = [(256, 256), (768, 256)];
const DOUBLE_SHAPES: &[(usize, usize)] =
    if cfg!(debug_assertions) { &[SHAPES[0]] } else { &SHAPES };
const CERTIFIED: [f64; 5] = [1.0, 2.0, 5.0, 10.0, 20.0];
const DECLINED: [f64; 4] = [1e2, 1e4, 1e8, 1e16];
/// Seeds per case of the certified sweeps, and of the others.
const SEEDS: (u64, u64) = if cfg!(debug_assertions) { (1, 1) } else { (20, 5) };

fn spec(m: usize, n: usize, cond: f64, seed: u64) -> MatrixSpec {
    MatrixSpec { m, n, cond, distribution: SigmaDistribution::Geometric, seed }
}

/// What the start stage did with one input.
struct Start {
    /// The bound the first iteration starts from.
    l0: f64,
    /// The QR route ran: the Gram matrix did not certify `l0`.
    qr: bool,
    /// The start tried the Gram route.
    attempted: bool,
}

/// Run `a`'s start stage under the default options.
fn start<S: Scalar>(a: &Matrix<S>) -> Start {
    let told: Arc<Mutex<Option<f64>>> = Arc::default();
    let seen = told.clone();
    // the start graph polls with the bound 0; the first iteration's poll
    // carries l0
    let hook: ProgressHook = Arc::new(move |p: &IterationProgress| {
        if p.ell == 0.0 {
            return IterationDecision::Continue;
        }
        *seen.lock().unwrap() = Some(p.ell);
        IterationDecision::Cancel
    });
    let opts = QdwhOptions { progress: Some(hook), ..Default::default() };
    let scope = polar_obs::scope();
    let res = qdwh(a, &opts);
    let spans = scope.finish().spans;
    assert_eq!(res.err(), Some(QdwhError::Cancelled { iteration: 1 }));
    let dims = [a.nrows(), a.ncols()];
    let ran = |name: &str| spans.iter().any(|s| s.name == name && s.dims[..2] == dims);
    let l0 = told.lock().unwrap().expect("the first iteration was announced");
    Start { l0, qr: ran("geqrf_tiled"), attempted: ran("gram_start") }
}

/// The QR route's `l0` and `sigma_hat`: `estimate_l0` over the tile QR of
/// `X = A / alpha`, at the solve's tile size.
fn qr_route<S: Scalar>(a: &Matrix<S>) -> (f64, f64) {
    let alpha = norm2est(a).estimate;
    let x = Matrix::from_fn(a.nrows(), a.ncols(), |i, j| a[(i, j)].mul_real(alpha.recip()));
    let nb = auto_tile_nb(a.ncols()).min(a.ncols());
    let l0 = estimate_l0(x.as_ref(), L0Strategy::SigmaMinPowerIteration, || {
        geqrf_tiled(&x, nb).extract_r()
    });
    (l0.to_f64(), l0.to_f64() / 0.9)
}

/// The steps planned from `l0`, rounded to `S` as a solve holds it.
fn plan<S: Scalar>(l0: f64) -> Vec<Step<f64>> {
    let l0 = S::Real::from_f64(l0).to_f64();
    let steps = qdwh_plan::<S>(&QdwhOptions::default(), l0, 100.0, 50);
    steps.expect("inside the cap")
}

/// The plans from two bounds a few ulps apart have the same kinds, and the
/// same length unless the shorter one's last bound lands on the stop
/// test's edge `|1 - ell| < 5 eps`: the longer plan's same step stops an
/// ulp short of it and plans one more. (A solve of the shorter plan runs
/// that step as its continuation: the same iterations.)
fn assert_same_plan<S: Scalar>(case: &str, a: f64, b: f64) {
    let (a, b) = (plan::<S>(a), plan::<S>(b));
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let kinds = |p: &[Step<f64>]| p.iter().map(|s| s.kind).collect::<Vec<_>>();
    assert_eq!(kinds(&short), kinds(&long[..short.len()]), "{case}");
    if short.len() < long.len() {
        let eps = S::Real::EPSILON.to_f64();
        let gap = |s: &Step<f64>| (1.0 - s.ell_after).abs();
        let (stops, goes_on) = (gap(&short[short.len() - 1]), gap(&long[short.len() - 1]));
        assert_eq!(long.len(), short.len() + 1, "{case}");
        assert!(stops < 5.0 * eps && goes_on >= 5.0 * eps, "{case}: {stops:e} {goes_on:e}");
        assert!(goes_on - stops <= eps, "{case}: {stops:e} {goes_on:e}");
    }
}

/// The Gram route's error bound at `sigma_hat` for `m` rows, relative to
/// `sigma_hat^2`.
fn gram_error<S: Scalar>(m: usize, sigma_hat: f64) -> f64 {
    m as f64 * S::Real::EPSILON.to_f64() / (sigma_hat * sigma_hat)
}

/// How a sweep's starts went.
#[derive(Default)]
struct Tally {
    certified: usize,
    /// Declined by the error bound alone: the bound would have started the
    /// plan Cholesky-based.
    by_error_bound: usize,
}

/// Sweep `conds` x `shapes` x `seeds` over inputs `make` builds and hold
/// each start to the rules above; `tol` is the relative distance a
/// certified `l0` may keep from the QR route's (`None`: the route's error
/// bound).
fn sweep<S: Scalar>(
    conds: &[f64],
    shapes: &[(usize, usize)],
    seeds: u64,
    tol: Option<f64>,
    make: fn(&MatrixSpec) -> Matrix<S>,
) -> Tally {
    let mut tally = Tally::default();
    for &cond in conds {
        for &(m, n) in shapes {
            for seed in 1..=seeds {
                let case = format!("{} {m}x{n} kappa {cond:e} seed {seed}", S::TYPE_TAG);
                let a = make(&spec(m, n, cond, seed));
                let got = start(&a);
                let (l0_qr, sigma_hat) = qr_route(&a);
                let chol_first = plan::<S>(l0_qr)[0].kind == IterationKind::CholeskyBased;
                // every default solve of QDWH may start Cholesky-based
                assert!(got.attempted, "{case}: no attempt");
                let trusted = chol_first && gram_error::<S>(m, sigma_hat) <= 0.01;
                assert_eq!(!got.qr, trusted, "{case}: l0 {:e} vs QR {l0_qr:e}", got.l0);
                if got.qr {
                    assert_eq!(got.l0.to_bits(), l0_qr.to_bits(), "{case}");
                    tally.by_error_bound += usize::from(chol_first);
                    continue;
                }
                tally.certified += 1;
                let tol = tol.unwrap_or_else(|| gram_error::<S>(m, sigma_hat));
                let rel = (got.l0 - l0_qr).abs() / l0_qr;
                assert!(rel <= tol, "{case}: l0 {:e} vs QR {l0_qr:e} ({rel:e})", got.l0);
                assert_same_plan::<S>(&case, got.l0, l0_qr);
            }
        }
    }
    tally
}

fn real<S: Scalar>(sp: &MatrixSpec) -> Matrix<S> {
    let a = generate::<f64>(sp).0;
    Matrix::from_fn(sp.m, sp.n, |i, j| S::from_f64(a[(i, j)]))
}

fn complex<S: Scalar>(sp: &MatrixSpec) -> Matrix<S> {
    let a = generate::<Complex64>(sp).0;
    let to = <S::Real as Real>::from_f64;
    Matrix::from_fn(sp.m, sp.n, |i, j| S::from_parts(to(a[(i, j)].re), to(a[(i, j)].im)))
}

#[test]
fn a_well_conditioned_start_is_certified_on_the_gram_matrix() {
    let _serial = polar_obs::scope_lock();
    let cases = CERTIFIED.len() * DOUBLE_SHAPES.len() * SEEDS.0 as usize;
    let d = sweep::<f64>(&CERTIFIED, DOUBLE_SHAPES, SEEDS.0, Some(1e-10), real::<f64>);
    let z =
        sweep::<Complex64>(&CERTIFIED, DOUBLE_SHAPES, SEEDS.0, Some(1e-10), complex::<Complex64>);
    assert_eq!((d.certified, z.certified), (cases, cases));
}

#[test]
fn an_ill_conditioned_start_keeps_the_qr_routes_bits() {
    let _serial = polar_obs::scope_lock();
    let d = sweep::<f64>(&DECLINED, DOUBLE_SHAPES, SEEDS.1, None, real::<f64>);
    let z = sweep::<Complex64>(&DECLINED, DOUBLE_SHAPES, SEEDS.1, None, complex::<Complex64>);
    assert_eq!((d.certified, z.certified), (0, 0));
}

/// In single precision the error bound also declines starts the plan would
/// take Cholesky-based: on 768 rows from about `kappa = 10`, where `m eps /
/// sigma^2` reaches 0.01 (on 256 rows only near the plan's own edge). A
/// certified bound is within the error bound the route asked for.
#[test]
fn single_precision_certifies_only_inside_its_error_bound() {
    let _serial = polar_obs::scope_lock();
    let conds: Vec<f64> = CERTIFIED.iter().chain(&DECLINED).copied().collect();
    let s = sweep::<f32>(&conds, &SHAPES, SEEDS.1, None, real::<f32>);
    let c = sweep::<Complex32>(&conds, &SHAPES, SEEDS.1, None, complex::<Complex32>);
    for (tag, tally) in [("s", s), ("c", c)] {
        assert!(tally.certified > 0 && tally.by_error_bound > 0, "{tag}: {}", tally.certified);
    }
}
