//! `dot` / `dotc` / `nrm2` against compensated references, and `nrm2`
//! where the plain sum of squares cannot be used.

use polar_blas::{dot, dotc, nrm2};
use polar_scalar::{Complex32, Complex64, Real, Scalar};
use proptest::prelude::*;

fn svec<S: Scalar>(n: usize, seed: u64) -> Vec<S> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    (0..n).map(|_| S::from_parts(S::Real::from_f64(next()), S::Real::from_f64(next()))).collect()
}

/// Neumaier-compensated sum in f64.
fn comp_sum(terms: impl Iterator<Item = f64>) -> f64 {
    let (mut s, mut c) = (0.0f64, 0.0f64);
    for t in terms {
        let u = s + t;
        c += if s.abs() >= t.abs() { (s - u) + t } else { (t - u) + s };
        s = u;
    }
    s + c
}

/// `sum op(x_i) y_i` with both parts compensated, and `sum |x_i| |y_i|`.
fn ref_dot<S: Scalar>(x: &[S], y: &[S], conj: bool) -> (f64, f64, f64) {
    let parts = |v: S| (v.re().to_f64(), v.im().to_f64());
    let sgn = if conj { -1.0 } else { 1.0 };
    let re = comp_sum(x.iter().zip(y).flat_map(|(&a, &b)| {
        let ((ar, ai), (br, bi)) = (parts(a), parts(b));
        [ar * br, -sgn * ai * bi]
    }));
    let im = comp_sum(x.iter().zip(y).flat_map(|(&a, &b)| {
        let ((ar, ai), (br, bi)) = (parts(a), parts(b));
        [ar * bi, sgn * ai * br]
    }));
    let mag = x.iter().zip(y).map(|(&a, &b)| a.abs().to_f64() * b.abs().to_f64()).sum();
    (re, im, mag)
}

fn check_reductions<S: Scalar>(n: usize, seed: u64) {
    let (x, y) = (svec::<S>(n, seed), svec::<S>(n, seed + 1));
    let eps = S::Real::EPSILON.to_f64();
    for conj in [false, true] {
        let got = if conj { dotc(&x, &y) } else { dot(&x, &y) };
        let (re, im, mag) = ref_dot(&x, &y, conj);
        let err = (got.re().to_f64() - re).abs().max((got.im().to_f64() - im).abs());
        // n * eps on the sum of magnitudes; 4 covers the complex products
        assert!(
            err <= 4.0 * (n as f64 + 1.0) * eps * mag,
            "{} n={n} conj={conj}: {err:e}",
            S::TYPE_TAG
        );
    }
    let want = comp_sum(x.iter().map(|v| v.abs_sq().to_f64())).sqrt();
    let got = nrm2(&x).to_f64();
    assert!((got - want).abs() <= (n as f64 + 2.0) * eps * want, "{} nrm2 n={n}", S::TYPE_TAG);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reductions_match_compensated_reference(n in 0usize..300, seed in 0u64..1000) {
        check_reductions::<f32>(n, seed);
        check_reductions::<f64>(n, seed);
        check_reductions::<Complex32>(n, seed);
        check_reductions::<Complex64>(n, seed);
    }
}

/// `nrm2` of `n` copies of `v` (both parts, when complex) is
/// `|v| sqrt(n)` (`sqrt(2n)`) at every magnitude `S::Real` can hold.
fn check_nrm2_scale<S: Scalar>(v: f64) {
    for n in [1usize, 3, 8, 37] {
        let x = vec![S::from_parts(S::Real::from_f64(v), S::Real::from_f64(v)); n];
        let stored = S::Real::from_f64(v).to_f64(); // v as S::Real holds it
        let parts = if S::IS_COMPLEX { 2.0 } else { 1.0 };
        let want = stored * (parts * n as f64).sqrt();
        let got = nrm2(&x).to_f64();
        assert!(got.is_finite() && got > 0.0, "{} nrm2({v:e} x {n}) = {got:e}", S::TYPE_TAG);
        let rel = (got - want).abs() / want;
        // a subnormal carries fewer bits than eps promises
        let subnormal = stored.abs() < S::Real::MIN_POSITIVE.to_f64();
        let tol = if subnormal { 1e-2 } else { 64.0 * S::Real::EPSILON.to_f64() };
        assert!(rel <= tol, "{} nrm2({v:e} x {n}) = {got:e}, want {want:e}", S::TYPE_TAG);
    }
}

#[test]
fn nrm2_out_of_range_and_empty() {
    // squares overflow, squares underflow, subnormal entries
    for v in [1e200, 1e-200, 1e-310] {
        check_nrm2_scale::<f64>(v);
        check_nrm2_scale::<Complex64>(v);
    }
    for v in [1e30, 1e-30, 1e-40] {
        check_nrm2_scale::<f32>(v);
        check_nrm2_scale::<Complex32>(v);
    }
    assert_eq!(nrm2::<f32>(&[]), 0.0);
    assert_eq!(nrm2::<f64>(&[]), 0.0);
    assert_eq!(nrm2::<Complex32>(&[]), 0.0);
    assert_eq!(nrm2::<Complex64>(&[]), 0.0);
    assert_eq!(nrm2(&[Complex64::ZERO; 9]), 0.0);
    // one huge entry among ordinary ones
    let mut x = vec![1.0f64; 20];
    x[7] = 3e200;
    assert!((nrm2(&x) - 3e200).abs() <= 1e186);
    assert_eq!(dot::<f64>(&[], &[]), 0.0);
    assert_eq!(dotc::<Complex64>(&[], &[]), Complex64::ZERO);
}
