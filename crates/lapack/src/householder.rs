//! Elementary Householder reflectors (LAPACK `larfg` / `larf`).

use polar_blas::{axpy, dotc, nrm2};
use polar_matrix::MatMut;
use polar_scalar::{Real, Scalar};

/// Result of [`larfg`]: the reflector scalar `tau` and the new leading
/// element `beta` (always real for the LAPACK convention).
#[derive(Debug, Clone, Copy)]
pub struct Reflector<S: Scalar> {
    pub tau: S,
    pub beta: S::Real,
}

/// Generate an elementary reflector `H = I - tau * v * v^H` such that
/// `H^H * [alpha; x] = [beta; 0]`, with `v = [1; x / (alpha - beta)]`
/// (the tail overwrites `x`) and `beta` real.
///
/// Mirrors LAPACK `zlarfg`. Returns `tau = 0` (so `H = I`) when the input
/// is already in the target form.
pub fn larfg<S: Scalar>(alpha: S, x: &mut [S]) -> Reflector<S> {
    let xnorm = nrm2(x);
    let alphr = alpha.re();
    let alphi = alpha.im();
    if xnorm == S::Real::ZERO && alphi == S::Real::ZERO {
        return Reflector { tau: S::ZERO, beta: alphr };
    }
    // beta = -sign(alpha_re) * ||[alpha; x]||
    let norm_all = alphr.hypot(alphi).hypot(xnorm);
    let beta = -alphr.sign1() * norm_all;
    // tau = (beta - alpha) / beta
    let tau = (S::from_real(beta) - alpha).mul_real(beta.recip());
    // v tail = x / (alpha - beta)
    let denom = (alpha - S::from_real(beta)).recip();
    for xi in x.iter_mut() {
        *xi *= denom;
    }
    Reflector { tau, beta }
}

/// Apply the reflector `H = I - tau * v * v^H` (with `v[0] = 1` implicit,
/// tail in `v_tail`) from the left to `C`:
///
/// `C := (I - tau * v * v^H) * C`.
///
/// Pass `tau.conj()` to apply `H^H` (as `geqr2` does for complex types).
pub fn larf<S: Scalar>(tau: S, v_tail: &[S], mut c: MatMut<'_, S>) {
    if tau == S::ZERO || c.ncols() == 0 {
        return;
    }
    let m = c.nrows();
    assert_eq!(v_tail.len() + 1, m, "larf: v length mismatch");
    for j in 0..c.ncols() {
        let (c0, tail) = c.col_mut(j).split_first_mut().expect("m >= 1");
        // w = v^H c_j
        let tw = tau * (*c0 + dotc(v_tail, tail));
        *c0 -= tw;
        axpy(-tw, v_tail, tail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_matrix::Matrix;
    use polar_scalar::Complex64;

    #[test]
    fn larfg_zeroes_tail_real() {
        let alpha = 3.0f64;
        let mut x = vec![4.0f64];
        let r = larfg(alpha, &mut x);
        // beta = -sign(3)*5 = -5
        assert!((r.beta + 5.0).abs() < 1e-14);
        // verify H^H [alpha; x] = [beta; 0] by direct application
        let v = [1.0, x[0]];
        let orig = [3.0f64, 4.0];
        // H^H y = y - conj(tau) v (v^H y)
        let vhy: f64 = v[0] * orig[0] + v[1] * orig[1];
        let y0 = orig[0] - r.tau * v[0] * vhy;
        let y1 = orig[1] - r.tau * v[1] * vhy;
        assert!((y0 - r.beta).abs() < 1e-13);
        assert!(y1.abs() < 1e-13);
    }

    #[test]
    fn larfg_identity_when_already_reduced() {
        let mut x: Vec<f64> = vec![0.0, 0.0];
        let r = larfg(7.0, &mut x);
        assert_eq!(r.tau, 0.0);
        assert_eq!(r.beta, 7.0);
    }

    #[test]
    fn larfg_complex_beta_is_real() {
        let alpha = Complex64::new(1.0, 2.0);
        let mut x = vec![Complex64::new(0.0, 1.0), Complex64::new(2.0, 0.0)];
        let r = larfg(alpha, &mut x);
        // beta must carry the full norm: |[alpha; x]| = sqrt(1+4+1+4) = sqrt(10)
        assert!((r.beta.abs() - 10f64.sqrt()).abs() < 1e-13);

        // apply H^H to the original vector and verify reduction
        let orig = [alpha, Complex64::new(0.0, 1.0), Complex64::new(2.0, 0.0)];
        let v = [Complex64::from_real(1.0), x[0], x[1]];
        let mut vhy = Complex64::default();
        for (vi, yi) in v.iter().zip(&orig) {
            vhy += vi.conj() * *yi;
        }
        let tc = r.tau.conj();
        let y0 = orig[0] - v[0] * tc * vhy;
        let y1 = orig[1] - v[1] * tc * vhy;
        let y2 = orig[2] - v[2] * tc * vhy;
        assert!((y0 - Complex64::from_real(r.beta)).abs() < 1e-13, "y0={y0:?} beta={}", r.beta);
        assert!(y1.abs() < 1e-13);
        assert!(y2.abs() < 1e-13);
    }

    #[test]
    fn larf_is_unitary_involution() {
        // H applied twice with the same tau: H*H = I only for real
        // reflectors (tau real, H symmetric); verify H preserves norms.
        let alpha = 2.0f64;
        let mut x = vec![1.0, -2.0, 0.5];
        let r = larfg(alpha, &mut x);
        let c0 = Matrix::from_fn(4, 2, |i, j| (i as f64 + 1.0) * (j as f64 - 0.5));
        let mut c = c0.clone();
        larf(r.tau, &x, c.as_mut());
        // column norms preserved by unitary H
        for j in 0..2 {
            let n0 = nrm2(c0.col(j));
            let n1 = nrm2(c.col(j));
            assert!((n0 - n1).abs() < 1e-12);
        }
    }
}
