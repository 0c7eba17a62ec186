//! From-scratch complex number type.
//!
//! The workspace avoids external numeric crates, so `Complex<T>` implements
//! exactly the operations the dense linear algebra kernels need: field
//! arithmetic, conjugation, modulus (overflow-safe via `hypot`), square
//! root, and mixed complex×real scaling.

use crate::Real;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Complex number over a [`Real`] field.
///
/// `repr(C)` pins the `[re, im]` memory layout that the packed SIMD
/// microkernels rely on when streaming complex panels as real pairs.
#[derive(Copy, Clone, Default, PartialEq)]
#[repr(C)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

/// Single-precision complex, the paper's `float complex`.
pub type Complex32 = Complex<f32>;
/// Double-precision complex, the paper's `double complex`.
pub type Complex64 = Complex<f64>;

impl<T: Real> Complex<T> {
    #[inline]
    pub fn new(re: T, im: T) -> Self {
        Self { re, im }
    }

    #[inline]
    pub fn from_real(re: T) -> Self {
        Self { re, im: T::ZERO }
    }

    #[inline]
    pub fn i() -> Self {
        Self { re: T::ZERO, im: T::ONE }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self { re: self.re, im: -self.im }
    }

    /// Modulus `|z|`, computed with `hypot` to avoid intermediate
    /// overflow/underflow.
    #[inline]
    pub fn abs(self) -> T {
        self.re.hypot(self.im)
    }

    /// Squared modulus `|z|^2`.
    #[inline]
    pub fn abs_sq(self) -> T {
        self.re * self.re + self.im * self.im
    }

    /// Principal square root.
    ///
    /// Uses the half-angle construction: for `z = x + iy`,
    /// `sqrt(z) = t + i y/(2t)` with `t = sqrt((|z| + x)/2)` when `x >= 0`,
    /// and the mirrored form when `x < 0` to avoid cancellation.
    pub fn sqrt(self) -> Self {
        let (x, y) = (self.re, self.im);
        if x == T::ZERO && y == T::ZERO {
            return Self::default();
        }
        let m = self.abs();
        if x >= T::ZERO {
            let t = ((m + x) / T::TWO).sqrt();
            Self::new(t, y / (T::TWO * t))
        } else {
            let t = ((m - x) / T::TWO).sqrt();
            let t_signed = if y < T::ZERO { -t } else { t };
            Self::new(y.abs() / (T::TWO * t), t_signed)
        }
    }

    /// Multiplicative inverse, using Smith's algorithm for robustness
    /// against overflow in the naive `conj(z)/|z|^2` formula.
    pub fn recip(self) -> Self {
        let (a, b) = (self.re, self.im);
        if a.abs() >= b.abs() {
            let r = b / a;
            let d = a + b * r;
            Self::new(d.recip(), -r / d)
        } else {
            let r = a / b;
            let d = a * r + b;
            Self::new(r / d, -d.recip())
        }
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, s: T) -> Self {
        Self::new(self.re * s, self.im * s)
    }

    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl<T: Real> Add for Complex<T> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl<T: Real> Sub for Complex<T> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl<T: Real> Mul for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl<T: Real> Div for Complex<T> {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z * w^{-1}
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl<T: Real> Neg for Complex<T> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl<T: Real> AddAssign for Complex<T> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl<T: Real> SubAssign for Complex<T> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl<T: Real> MulAssign for Complex<T> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}
impl<T: Real> DivAssign for Complex<T> {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<T: Real> Sum for Complex<T> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |acc, z| acc + z)
    }
}

impl<T: Real> fmt::Debug for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}{:+?}i)", self.re, self.im)
    }
}

impl<T: Real> fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}+{}i)", self.re, self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -1.0);
        assert_eq!(a + b, Complex64::new(4.0, 1.0));
        assert_eq!(a - b, Complex64::new(-2.0, 3.0));
        assert_eq!(a * b, Complex64::new(5.0, 5.0));
        assert!(close(a / b * b, a, 1e-15));
    }

    #[test]
    fn conj_and_abs() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.abs_sq(), 25.0);
        assert_eq!(z.conj(), Complex64::new(3.0, -4.0));
        // z * conj(z) = |z|^2
        assert!(close(z * z.conj(), Complex64::from_real(25.0), 1e-14));
    }

    #[test]
    fn sqrt_principal_branch() {
        let z = Complex64::new(-4.0, 0.0);
        let r = z.sqrt();
        assert!(close(r, Complex64::new(0.0, 2.0), 1e-14));
        assert!(close(r * r, z, 1e-13));

        // negative imaginary part stays in the principal branch (re >= 0)
        let w = Complex64::new(-3.0, -4.0);
        let s = w.sqrt();
        assert!(s.re >= 0.0);
        assert!(close(s * s, w, 1e-12));
    }

    #[test]
    fn sqrt_zero() {
        assert_eq!(Complex64::default().sqrt(), Complex64::default());
    }

    #[test]
    fn recip_extreme_magnitudes() {
        // Smith's algorithm must survive components near overflow.
        let z = Complex64::new(1e300, 1e300);
        let r = z.recip();
        assert!(r.is_finite());
        assert!(close(z * r, Complex64::from_real(1.0), 1e-12));
    }

    #[test]
    fn division_by_tiny() {
        let z = Complex64::new(1.0, 1.0);
        let tiny = Complex64::new(1e-300, 0.0);
        let q = z / tiny;
        assert!(q.is_finite());
    }

    #[test]
    fn i_squared_is_minus_one() {
        let i = Complex64::i();
        assert!(close(i * i, Complex64::from_real(-1.0), 0.0));
    }

    #[test]
    fn sum_iterator() {
        let v = vec![Complex64::new(1.0, 1.0); 4];
        let s: Complex64 = v.into_iter().sum();
        assert_eq!(s, Complex64::new(4.0, 4.0));
    }
}
