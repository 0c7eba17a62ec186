//! Elliptic integrals and Jacobi elliptic functions, the scalar machinery
//! behind Zolotarev's optimal rational sign-function approximations
//! (used by Zolo-PD, [`crate::qdwh`] at `terms > 1`, the paper's §8 "Zolo
//! PD" future work).
//!
//! Only the real-argument, `0 <= k <= 1`, `0 <= u <= K(k)` regime is
//! needed: Zolo-PD evaluates `sn/cn` at `u = j K'/(2r+1)` inside the
//! first quarter period, where all three Jacobi functions are positive.

/// Complete elliptic integral of the first kind `K(k)` (modulus
/// convention, not parameter `m = k^2`), via the arithmetic-geometric
/// mean: `K(k) = pi / (2 AGM(1, sqrt(1 - k^2)))`.
pub fn ellip_k(k: f64) -> f64 {
    assert!((0.0..1.0).contains(&k), "ellip_k: modulus in [0, 1), got {k}");
    let kp = (1.0 - k * k).sqrt();
    let mut a = 1.0f64;
    let mut b = kp;
    for _ in 0..60 {
        let (an, bn) = ((a + b) / 2.0, (a * b).sqrt());
        if (a - b).abs() < 1e-17 * a {
            a = an;
            break;
        }
        a = an;
        b = bn;
    }
    std::f64::consts::FRAC_PI_2 / a
}

/// Jacobi elliptic functions `(sn, cn, dn)(u, k)` for `0 <= u <= K(k)`,
/// by the descending Landen (Gauss) transformation:
///
/// `k_{i+1} = (1 - k'_i) / (1 + k'_i)`, `u_{i+1} = u_i / (1 + k_{i+1})`,
/// recursing until `k_N ~ 0` where `sn(u, 0) = sin(u)`, then lifting back
/// with `sn_i = (1 + k_{i+1}) s / (1 + k_{i+1} s^2)`.
pub fn jacobi_sn_cn_dn(u: f64, k: f64) -> (f64, f64, f64) {
    assert!((0.0..=1.0).contains(&k), "modulus in [0, 1], got {k}");
    if k < 1e-15 {
        return (u.sin(), u.cos(), 1.0);
    }
    if (1.0 - k) < 1e-15 {
        // k = 1: sn = tanh, cn = dn = sech
        let t = u.tanh();
        let s = 1.0 / u.cosh();
        return (t, s, s);
    }
    // descend
    let mut ks = Vec::with_capacity(24);
    let mut kk = k;
    let mut uu = u;
    for _ in 0..24 {
        let kp = (1.0 - kk * kk).sqrt();
        let k1 = (1.0 - kp) / (1.0 + kp);
        uu /= 1.0 + k1;
        ks.push(k1);
        kk = k1;
        if k1 < 1e-16 {
            break;
        }
    }
    // base case
    let mut s = uu.sin();
    // ascend
    for &k1 in ks.iter().rev() {
        s = (1.0 + k1) * s / (1.0 + k1 * s * s);
    }
    let sn = s.clamp(-1.0, 1.0);
    let cn = (1.0 - sn * sn).max(0.0).sqrt();
    let dn = (1.0 - k * k * sn * sn).max(0.0).sqrt();
    (sn, cn, dn)
}

/// The 2r Zolotarev coefficients `c_1 < c_2 < ... < c_2r` for the optimal
/// type-(2r+1, 2r) rational approximation of `sign(x)` on
/// `[-1, -l] ∪ [l, 1]` (Nakatsukasa & Freund 2016, Eq. (3.3)):
///
/// `c_j = l^2 * sn^2(j K'/(2r+1); k') / cn^2(j K'/(2r+1); k')`,
/// with `k' = sqrt(1 - l^2)` and `K' = K(k')`.
pub fn zolotarev_coefficients(l: f64, r: usize) -> Vec<f64> {
    assert!(l > 0.0 && l < 1.0, "l in (0,1), got {l}");
    assert!(r >= 1);
    let kp = (1.0 - l * l).sqrt();
    // K' = K(k') diverges like ln(4/l) as l -> 0; below l ~ 1e-8 the f64
    // complement k' rounds to 1 and the AGM cannot see l, so switch to the
    // asymptotic expansion (error O(l^2 ln l) — far below working accuracy)
    let big_kp = if l < 1e-8 { (4.0 / l).ln() } else { ellip_k(kp) };
    let denom = (2 * r + 1) as f64;
    (1..=2 * r)
        .map(|j| {
            let u = j as f64 * big_kp / denom;
            let (sn, cn, _) = jacobi_sn_cn_dn(u, kp);
            l * l * (sn * sn) / (cn * cn)
        })
        .collect()
}

/// Partial-fraction weights `a_j` of the Zolotarev function
///
/// `f(x) = x * prod_j (x^2 + c_{2j}) / (x^2 + c_{2j-1})
///       = x * (1 + sum_j a_j / (x^2 + c_{2j-1}))`,
///
/// `a_j = -prod_k (c_{2j-1} - c_{2k}) / prod_{k != j} (c_{2j-1} - c_{2k-1})`.
pub fn zolotarev_weights(c: &[f64]) -> Vec<f64> {
    let r = c.len() / 2;
    (1..=r)
        .map(|j| {
            let cj = c[2 * j - 2]; // c_{2j-1}, 1-based odd
            let mut num = 1.0f64;
            for k in 1..=r {
                num *= cj - c[2 * k - 1]; // c_{2k}
            }
            let mut den = 1.0f64;
            for k in 1..=r {
                if k != j {
                    den *= cj - c[2 * k - 2]; // c_{2k-1}
                }
            }
            -num / den
        })
        .collect()
}

/// Evaluate the *normalized* Zolotarev approximation `hat f(x) = M f(x)`
/// with `M = 1 / f(1)` so that `hat f(1) = 1`.
pub fn zolotarev_eval(x: f64, c: &[f64], a: &[f64]) -> f64 {
    let f = |x: f64| -> f64 {
        let mut s = 1.0;
        for (j, &aj) in a.iter().enumerate() {
            s += aj / (x * x + c[2 * j]);
        }
        x * s
    };
    f(x) / f(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_known_values() {
        assert!((ellip_k(0.0) - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
        // K(1/sqrt(2)) = 1.85407467730137...
        assert!((ellip_k(std::f64::consts::FRAC_1_SQRT_2) - 1.854_074_677_301_37).abs() < 1e-12);
        // K(0.5) = 1.68575035481260...
        assert!((ellip_k(0.5) - 1.685_750_354_812_6).abs() < 1e-12);
    }

    #[test]
    fn sn_degenerate_moduli() {
        // k = 0: circular functions
        let (sn, cn, dn) = jacobi_sn_cn_dn(0.7, 0.0);
        assert!((sn - 0.7f64.sin()).abs() < 1e-14);
        assert!((cn - 0.7f64.cos()).abs() < 1e-14);
        assert!((dn - 1.0).abs() < 1e-14);
        // k = 1: hyperbolic
        let (sn, cn, _) = jacobi_sn_cn_dn(0.7, 1.0);
        assert!((sn - 0.7f64.tanh()).abs() < 1e-14);
        assert!((cn - 1.0 / 0.7f64.cosh()).abs() < 1e-14);
    }

    #[test]
    fn sn_identities() {
        for &k in &[0.1, 0.5, 0.9, 0.999] {
            let kk = ellip_k(k);
            for &frac in &[0.1, 0.3, 0.5, 0.8, 0.99] {
                let u = frac * kk;
                let (sn, cn, dn) = jacobi_sn_cn_dn(u, k);
                assert!((sn * sn + cn * cn - 1.0).abs() < 1e-12, "sn2+cn2 k={k} u={u}");
                assert!((dn * dn + k * k * sn * sn - 1.0).abs() < 1e-12, "dn identity");
                assert!(sn >= 0.0 && cn >= 0.0 && dn > 0.0);
            }
            // sn(K) = 1, cn(K) = 0
            let (sn_k, cn_k, _) = jacobi_sn_cn_dn(kk, k);
            assert!((sn_k - 1.0).abs() < 1e-9, "sn(K) = 1, got {sn_k} at k={k}");
            assert!(cn_k.abs() < 2e-5, "cn(K) = 0, got {cn_k} at k={k}");
        }
    }

    #[test]
    fn sn_known_value() {
        // sn(K/2, k) = 1/sqrt(1 + k') for any k
        for &k in &[0.3, 0.8, 0.99] {
            let kp = (1.0f64 - k * k).sqrt();
            let (sn, _, _) = jacobi_sn_cn_dn(ellip_k(k) / 2.0, k);
            assert!((sn - 1.0 / (1.0 + kp).sqrt()).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn coefficients_ordered_positive() {
        for &l in &[1e-8, 1e-3, 0.3] {
            for r in [1usize, 2, 4, 8] {
                let c = zolotarev_coefficients(l, r);
                assert_eq!(c.len(), 2 * r);
                assert!(c[0] > 0.0);
                for w in c.windows(2) {
                    assert!(w[1] > w[0], "coefficients must increase");
                }
            }
        }
    }

    #[test]
    fn zolotarev_approximates_sign() {
        // hat f maps [l, 1] close to 1, with error decreasing in r
        let l = 1e-4;
        let mut last_err = f64::MAX;
        for r in [2usize, 4, 8] {
            let c = zolotarev_coefficients(l, r);
            let a = zolotarev_weights(&c);
            let mut worst = 0.0f64;
            for i in 0..200 {
                let x = l + (1.0 - l) * (i as f64) / 199.0;
                let y = zolotarev_eval(x, &c, &a);
                worst = worst.max((y - 1.0).abs());
                assert!(y > 0.0, "positive on [l, 1]");
            }
            assert!(worst < last_err, "error must shrink with r: {worst} vs {last_err}");
            last_err = worst;
        }
        // single application at r = 8 leaves a percent-level residual —
        // which is why Zolo-PD takes two iterations
        assert!(last_err < 0.01, "r=8 single-application error {last_err}");

        // the composition f(f(x)) is the degree-(2r+1)^2 approximant:
        // machine-precision sign on the whole interval (the two-iteration
        // convergence claim of Zolo-PD)
        let c = zolotarev_coefficients(l, 8);
        let a = zolotarev_weights(&c);
        // second stage built on the post-first-stage lower bound f(l)
        let l1 = zolotarev_eval(l, &c, &a);
        let c2 = zolotarev_coefficients(l1.min(1.0 - 1e-15), 8);
        let a2 = zolotarev_weights(&c2);
        let mut worst2 = 0.0f64;
        for i in 0..200 {
            let x = l + (1.0 - l) * (i as f64) / 199.0;
            let y = zolotarev_eval(zolotarev_eval(x, &c, &a), &c2, &a2);
            worst2 = worst2.max((y - 1.0).abs());
        }
        assert!(worst2 < 1e-12, "two-stage error {worst2}");
    }

    #[test]
    fn zolotarev_is_odd_and_normalized() {
        let l = 1e-2;
        let c = zolotarev_coefficients(l, 4);
        let a = zolotarev_weights(&c);
        assert!((zolotarev_eval(1.0, &c, &a) - 1.0).abs() < 1e-14, "normalization");
        for &x in &[0.01, 0.1, 0.5] {
            let y = zolotarev_eval(x, &c, &a);
            let ym = zolotarev_eval(-x, &c, &a);
            assert!((y + ym).abs() < 1e-13, "odd function");
        }
    }

    #[test]
    fn zolotarev_r1_matches_qdwh_form() {
        // r = 1 Zolotarev is the same family as one QDWH step: a degree
        // (3,2) odd rational, exact at 1, positive on (0, 1]
        let l = 0.1;
        let c = zolotarev_coefficients(l, 1);
        let a = zolotarev_weights(&c);
        let fl = zolotarev_eval(l, &c, &a);
        // equioscillation: f(l) should be as far above l as possible — at
        // least a healthy contraction toward 1
        assert!(fl > 3.0 * l, "f(l) = {fl}");
        assert!(fl <= 1.0 + 1e-12);
    }
}
