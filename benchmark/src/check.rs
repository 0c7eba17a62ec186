//! Output checks, run outside every timed region. A solve whose factors
//! are outside the workload's accuracy tolerance counts as a failed
//! operation, exactly like one that returned an error.

use crate::rng::Rng;
use polar_matrix::Matrix;
use polar_qdwh::{hermitian_deviation, orthogonality_error, PolarDecomposition};
use polar_scalar::{Real, Scalar};

/// The two error norms of one checked solve.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    /// `‖I − UᴴU‖_F / √n`
    pub orth: f64,
    /// `‖A − UH‖_F / ‖A‖_F`
    pub backward: f64,
}

/// Entries of `U` and `H` are all finite (the cheap check every service
/// job gets).
pub fn finite<S: Scalar>(pd: &PolarDecomposition<S>) -> bool {
    !pd.u.has_non_finite() && !pd.h.has_non_finite()
}

fn dot_col_col<S: Scalar>(a: &Matrix<S>, i: usize, b: &Matrix<S>, j: usize) -> S {
    a.col(i).iter().zip(b.col(j)).fold(S::ZERO, |acc, (&x, &y)| acc + x.conj() * y)
}

fn row_dot_col<S: Scalar>(a: &Matrix<S>, i: usize, b: &Matrix<S>, j: usize) -> S {
    (0..a.ncols()).fold(S::ZERO, |acc, k| acc + a[(i, k)] * b[(k, j)])
}

/// Full accuracy check: both Frobenius-norm errors within `tol`, `H`
/// Hermitian, all entries finite. The norms use the library's kernels
/// (the only way to afford them after every solve); `spot` entries of
/// `UᴴU − I` and `UH − A`, recomputed here with plain dot products, must
/// agree with those norms, so a kernel fault cannot vouch for itself.
pub fn accuracy<S: Scalar>(
    a: &Matrix<S>,
    pd: &PolarDecomposition<S>,
    tol: f64,
    spot: &mut Rng,
) -> (Accuracy, bool) {
    let n = a.ncols();
    let acc = Accuracy {
        orth: orthogonality_error(&pd.u).to_f64(),
        backward: pd.backward_error(a).to_f64(),
    };
    let mut ok = finite(pd)
        && acc.orth <= tol
        && acc.backward <= tol
        && hermitian_deviation(&pd.h).to_f64() <= tol;

    // an entry is bounded by the Frobenius norm it belongs to
    let a_fro = a.as_slice().iter().map(|x| x.abs_sq().to_f64()).sum::<f64>().sqrt();
    for _ in 0..32 {
        let (i, j) = (spot.below(n), spot.below(n));
        let delta = if i == j { S::ONE } else { S::ZERO };
        let g = (dot_col_col(&pd.u, i, &pd.u, j) - delta).abs().to_f64();
        ok &= g <= tol * (n as f64).sqrt();
        let r = spot.below(a.nrows());
        let e = (row_dot_col(&pd.u, r, &pd.h, j) - a[(r, j)]).abs().to_f64();
        ok &= e <= tol * a_fro;
    }
    (acc, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_gen::{generate, MatrixSpec, SigmaDistribution};
    use polar_qdwh::{qdwh, QdwhOptions};

    #[test]
    fn accepts_a_good_solve_and_rejects_a_damaged_one() {
        let spec = MatrixSpec {
            m: 48,
            n: 32,
            cond: 1e3,
            distribution: SigmaDistribution::Geometric,
            seed: 5,
        };
        let (a, _) = generate::<f64>(&spec);
        let mut pd = qdwh(&a, &QdwhOptions::default()).unwrap();
        let mut rng = Rng::stream(1, "spot");
        let (acc, ok) = accuracy(&a, &pd, 5e-14, &mut rng);
        assert!(ok, "{acc:?}");
        assert!(acc.orth < 5e-14 && acc.backward < 5e-14);

        pd.u[(3, 4)] += 1e-9;
        assert!(!accuracy(&a, &pd, 5e-14, &mut rng).1);
        pd.u[(0, 0)] = f64::NAN;
        assert!(!finite(&pd));
    }
}
