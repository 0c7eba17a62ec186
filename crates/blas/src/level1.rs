//! Level-1 style operations on vectors (slices) and matrix views.

use polar_matrix::{MatMut, MatRef};
use polar_scalar::{Real, Scalar};

/// `y += alpha * x` on slices.
pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), y.len());
    if alpha == S::ZERO {
        return;
    }
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Independent accumulators of the level-1 reductions: enough to cover the
/// add latency with vector lanes, and a fixed count, so a result depends on
/// the data alone, never on the schedule.
const LANES: usize = 8;

/// `sum_i f(x_i, y_i)` over [`LANES`] interleaved partial sums — element `i`
/// goes to partial `i % LANES` — folded pairwise in a fixed order.
#[inline]
fn reduce<S: Copy, A: Copy + std::ops::Add<Output = A>>(
    x: &[S],
    y: &[S],
    zero: A,
    f: impl Fn(S, S) -> A,
) -> A {
    assert_eq!(x.len(), y.len());
    let mut acc = [zero; LANES];
    let (xc, yc) = (x.chunks_exact(LANES), y.chunks_exact(LANES));
    let (xr, yr) = (xc.remainder(), yc.remainder());
    for (xs, ys) in xc.zip(yc) {
        for l in 0..LANES {
            acc[l] = acc[l] + f(xs[l], ys[l]);
        }
    }
    for (l, (&a, &b)) in xr.iter().zip(yr).enumerate() {
        acc[l] = acc[l] + f(a, b);
    }
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

/// Unconjugated dot product `x^T y`.
pub fn dot<S: Scalar>(x: &[S], y: &[S]) -> S {
    reduce(x, y, S::ZERO, |a, b| a * b)
}

/// Conjugated dot product `x^H y`.
pub fn dotc<S: Scalar>(x: &[S], y: &[S]) -> S {
    reduce(x, y, S::ZERO, |a: S, b| a.conj() * b)
}

/// Euclidean norm: the plain sum of squares where it neither overflows nor
/// loses bits to underflow, else lassq-style scaling.
pub fn nrm2<S: Scalar>(x: &[S]) -> S::Real {
    let ssq = reduce(x, x, S::Real::ZERO, |a: S, _| a.abs_sq());
    if ssq > S::Real::MIN_POSITIVE / S::Real::EPSILON && ssq.is_finite() {
        return ssq.sqrt();
    }
    let mut scale = S::Real::ZERO;
    let mut sumsq = S::Real::ONE;
    for &xi in x {
        let a = xi.abs();
        if a > S::Real::ZERO {
            if scale < a {
                let r = scale / a;
                sumsq = S::Real::ONE + sumsq * r * r;
                scale = a;
            } else {
                let r = a / scale;
                sumsq += r * r;
            }
        }
    }
    scale * sumsq.sqrt()
}

/// Index of the element with the largest `|Re| + |Im|` (LAPACK `i?amax`).
pub fn iamax<S: Scalar>(x: &[S]) -> usize {
    let mut best = 0;
    let mut best_val = S::Real::ZERO;
    for (i, &xi) in x.iter().enumerate() {
        let v = xi.abs1();
        if v > best_val {
            best_val = v;
            best = i;
        }
    }
    best
}

/// In-place scaling `A := alpha * A` (the paper's `scale`).
pub fn scale<S: Scalar>(alpha: S, mut a: MatMut<'_, S>) {
    for j in 0..a.ncols() {
        for x in a.col_mut(j) {
            *x *= alpha;
        }
    }
}

/// In-place scaling by a real factor (used for `A_0 = A / alpha`).
pub fn scale_real<S: Scalar>(alpha: S::Real, mut a: MatMut<'_, S>) {
    for j in 0..a.ncols() {
        for x in a.col_mut(j) {
            *x = x.mul_real(alpha);
        }
    }
}

/// `B := alpha * A + beta * B` (the paper's `add`, LAPACK `geadd`).
pub fn add<S: Scalar>(alpha: S, a: MatRef<'_, S>, beta: S, mut b: MatMut<'_, S>) {
    assert_eq!(a.nrows(), b.nrows());
    assert_eq!(a.ncols(), b.ncols());
    for j in 0..b.ncols() {
        let aj = a.col(j);
        for (bi, &ai) in b.col_mut(j).iter_mut().zip(aj) {
            *bi = alpha * ai + beta * *bi;
        }
    }
}

/// Copy `A` into `B` (the paper's `copy`).
pub fn copy_into<S: Scalar>(a: MatRef<'_, S>, mut b: MatMut<'_, S>) {
    b.copy_from(a);
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_matrix::Matrix;
    use polar_scalar::Complex64;

    #[test]
    fn axpy_and_dot() {
        let x = vec![1.0f64, 2.0, 3.0];
        let mut y = vec![1.0f64, 1.0, 1.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
        assert_eq!(dot(&x, &y), 3.0 + 10.0 + 21.0);
    }

    #[test]
    fn dotc_conjugates_left() {
        let x = vec![Complex64::new(0.0, 1.0)];
        let y = vec![Complex64::new(0.0, 1.0)];
        // conj(i) * i = 1
        assert_eq!(dotc(&x, &y), Complex64::from_real(1.0));
        // unconjugated: i * i = -1
        assert_eq!(dot(&x, &y), Complex64::from_real(-1.0));
    }

    #[test]
    fn nrm2_overflow_safe() {
        let x = vec![1e200f64, 1e200];
        let n = nrm2(&x);
        assert!(n.is_finite());
        assert!((n - 1e200 * 2f64.sqrt()).abs() / n < 1e-14);
    }

    #[test]
    fn nrm2_zero_vector() {
        assert_eq!(nrm2(&[0.0f64; 5]), 0.0);
        assert_eq!(nrm2::<f64>(&[]), 0.0);
    }

    #[test]
    fn iamax_picks_abs1_max() {
        let x = vec![
            Complex64::new(1.0, 1.0),  // abs1 = 2
            Complex64::new(0.0, 2.5),  // abs1 = 2.5
            Complex64::new(-2.0, 0.0), // abs1 = 2
        ];
        assert_eq!(iamax(&x), 1);
    }

    #[test]
    fn add_matches_formula() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut b = Matrix::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]);
        add(2.0, a.as_ref(), -1.0, b.as_mut());
        assert_eq!(b[(0, 0)], 2.0 - 10.0);
        assert_eq!(b[(1, 1)], 8.0 - 40.0);
    }

    #[test]
    fn scale_real_complex() {
        let mut a = Matrix::from_fn(2, 2, |i, j| Complex64::new(i as f64, j as f64));
        scale_real(0.5, a.as_mut());
        assert_eq!(a[(1, 1)], Complex64::new(0.5, 0.5));
    }
}
