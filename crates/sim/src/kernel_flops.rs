//! Independent analytic flop model for the measured kernel classes.
//!
//! These are the LAWN 41 operation counts, restated here — *not* imported
//! from `polar_blas::flops` — so integration tests can cross-check the
//! flop totals reported by the observability counters against a model
//! that shares no code with the counting hooks. If an instrumentation
//! site charges the wrong formula, the two disagree and the test fails;
//! had the test imported `polar_blas::flops`, both sides would be wrong
//! together.
//!
//! All counts are *real* flops for real scalar types; multiply by
//! [`complex_factor`] for complex types (a complex multiply-add is 4 real
//! multiplies + 4 real adds).

/// Real-flop multiplier for complex arithmetic.
pub fn complex_factor(is_complex: bool) -> f64 {
    if is_complex {
        4.0
    } else {
        1.0
    }
}

/// `C <- alpha op(A) op(B) + beta C` with `C` being `m x n`, inner
/// dimension `k`: one multiply-add per output element per inner step.
pub fn gemm(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// Hermitian rank-k update of an `n x n` output: half of the equivalent
/// gemm, counting the diagonal once.
pub fn herk(n: usize, k: usize) -> f64 {
    n as f64 * (n as f64 + 1.0) * k as f64
}

/// Triangular solve from the left: `A` is `m x m`, `B` is `m x n`.
pub fn trsm_left(m: usize, n: usize) -> f64 {
    n as f64 * (m as f64) * (m as f64)
}

/// Triangular solve from the right: `A` is `n x n`, `B` is `m x n`.
pub fn trsm_right(m: usize, n: usize) -> f64 {
    m as f64 * (n as f64) * (n as f64)
}

/// Householder QR of an `m x n` matrix (`m >= n`): `2mn² - (2/3)n³`.
pub fn geqrf(m: usize, n: usize) -> f64 {
    let (m, n) = (m as f64, n as f64);
    2.0 * m * n * n - (2.0 / 3.0) * n * n * n
}

/// Forming the `m x n` Q factor from `n` reflectors: same leading terms
/// as the factorization itself (LAWN 41 with `k = n`).
pub fn orgqr(m: usize, n: usize) -> f64 {
    geqrf(m, n)
}

/// Applying `k` reflectors to an `m x n` matrix from the left:
/// `4mnk - 2nk²`.
pub fn unmqr(m: usize, n: usize, k: usize) -> f64 {
    let (m, n, k) = (m as f64, n as f64, k as f64);
    4.0 * m * n * k - 2.0 * n * k * k
}

/// Cholesky factorization of an `n x n` matrix: `n³/3`.
pub fn potrf(n: usize) -> f64 {
    let n = n as f64;
    n * n * n / 3.0
}

/// One Zolotarev term of an `m x n` iterate: the stacked QR of the
/// `(m+n) x n` panel `[X; sqrt(c) I]`, forming its Q, and the rank-n
/// `Q1 Q2^H` accumulation into the private term slab. For square inputs
/// this is `((10/3)·2 + 2) n³` — the per-term factor of the solver's
/// Zolo-PD flop estimate (`polar_qdwh::zolo_flops`).
pub fn zolo_term(m: usize, n: usize) -> f64 {
    geqrf(m + n, n) + orgqr(m + n, n) + gemm(m, n, n)
}

/// One Cholesky-based Zolotarev term of an `m x n` iterate: the Cholesky
/// factorization of the shifted Gram matrix `X^H X + c I` (copied from the
/// iteration's one Gram matrix, `O(n²)`) and the two right-side triangular
/// solves that form `X Z^{-1}`. For square inputs `(1/3 + 2) n³`.
pub fn zolo_chol_term(m: usize, n: usize) -> f64 {
    potrf(n) + 2.0 * trsm_right(m, n)
}

/// One r-way QR-based Zolotarev iteration: the r independent terms of the
/// fused graph (the fixed-order combine and interval update are `O(n²)`
/// noise the model ignores, matching the serial estimate).
pub fn zolo_iteration(m: usize, n: usize, r: usize) -> f64 {
    r as f64 * zolo_term(m, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_hand_values() {
        assert_eq!(gemm(2, 3, 4), 48.0);
        assert_eq!(herk(3, 2), 24.0);
        assert_eq!(trsm_left(4, 2), 32.0);
        assert_eq!(trsm_right(2, 4), 32.0);
        assert_eq!(potrf(3), 9.0);
        // square geqrf: (4/3) n^3
        assert!((geqrf(6, 6) - (4.0 / 3.0) * 216.0).abs() < 1e-12);
        assert_eq!(orgqr(8, 4), geqrf(8, 4));
        assert_eq!(unmqr(4, 4, 2), 4.0 * 32.0 - 2.0 * 16.0);
        assert_eq!(complex_factor(true), 4.0);
        assert_eq!(complex_factor(false), 1.0);
    }

    #[test]
    fn zolo_term_matches_the_serial_estimate_factor() {
        // the solver's Zolo-PD flop model (`zolo_flops`) charges
        // ((10/3)*2 + 2) n^3 per term for square inputs; the structural
        // per-kernel sum must agree within 1%
        for n in [64usize, 256, 1000] {
            let nf = n as f64;
            let serial_factor = ((10.0 / 3.0) * 2.0 + 2.0) * nf * nf * nf;
            let structural = zolo_term(n, n);
            assert!(
                (structural - serial_factor).abs() <= 0.01 * serial_factor,
                "n={n}: structural {structural:e} vs serial factor {serial_factor:e}"
            );
        }
        for r in [1usize, 2, 4, 8] {
            assert_eq!(zolo_iteration(128, 128, r), r as f64 * zolo_term(128, 128));
        }
        // rectangular panels pay the taller stacked QR
        assert!(zolo_term(200, 100) > zolo_term(100, 100));
        // a Cholesky-based term: (1/3 + 2) n^3, under a third of the QR one
        let chol_factor = (1.0 / 3.0 + 2.0) * 90f64.powi(3);
        assert!((zolo_chol_term(90, 90) - chol_factor).abs() <= 1e-12 * chol_factor);
        assert!(zolo_chol_term(90, 90) < 0.3 * zolo_term(90, 90));
        assert!(zolo_chol_term(200, 100) > zolo_chol_term(100, 100));
    }

    #[test]
    fn model_agrees_with_the_counting_hooks_formulas() {
        // the blas-side formulas must stay in sync with this model; this
        // cross-check catches one side drifting
        for (m, n, k) in [(64, 48, 32), (100, 100, 100), (7, 5, 3)] {
            assert_eq!(gemm(m, n, k), polar_blas::flops::gemm(m, n, k));
            assert_eq!(herk(n, k), polar_blas::flops::herk(n, k));
            assert_eq!(trsm_left(m, n), polar_blas::flops::trsm_left(m, n));
            assert_eq!(trsm_right(m, n), polar_blas::flops::trsm_right(m, n));
            assert_eq!(geqrf(m, n), polar_blas::flops::geqrf(m, n));
            assert_eq!(unmqr(m, n, k), polar_blas::flops::unmqr(m, n, k));
            assert_eq!(potrf(n), polar_blas::flops::potrf(n));
        }
    }
}
