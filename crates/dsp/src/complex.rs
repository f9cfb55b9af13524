//! Double-precision complex numbers.
//!
//! IVN simulates narrowband RF at complex baseband, so almost every value in
//! the system is a phasor. We implement our own small complex type rather
//! than pulling in `num-complex`: the operation set we need is tiny and
//! having it here keeps the workspace dependency-light (see DESIGN.md §5).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// The type is `Copy` and all arithmetic is implemented by value, matching
/// the ergonomics of the primitive floats it wraps.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real (in-phase) component.
    pub re: f64,
    /// Imaginary (quadrature) component.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates (magnitude, phase in
    /// radians).
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64 {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Unit phasor `e^{jθ}`; the workhorse of every channel model.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Magnitude (Euclidean norm), `|z|`.
    ///
    /// Uses `hypot` for robustness against overflow/underflow.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude, `|z|²`. Cheaper than [`Self::norm`] when only the
    /// power is needed.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Multiplicative inverse, `1/z`.
    ///
    /// Returns NaN components when `z == 0`, mirroring float division.
    #[inline]
    pub(crate) fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex64 {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        let (r, theta) = self.to_polar();
        Self::from_polar(r.sqrt(), theta / 2.0)
    }

    /// Decomposes into `(magnitude, phase)`.
    #[inline]
    pub fn to_polar(self) -> (f64, f64) {
        (self.norm(), self.arg())
    }

    /// Scales by a real factor.
    #[inline]
    pub(crate) fn scale(self, k: f64) -> Self {
        Complex64 {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    // Division is multiplication by the reciprocal; every caller's bits depend on it.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.inv()
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |acc, z| acc + z)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |acc, z| acc + *z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).norm() < 1e-12
    }

    #[test]
    fn construction_and_accessors() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z.re, 3.0);
        assert_eq!(z.im, -4.0);
        assert_eq!(z.norm(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::from_polar(2.0, PI / 3.0);
        let (r, theta) = z.to_polar();
        assert!((r - 2.0).abs() < 1e-12);
        assert!((theta - PI / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..32 {
            let theta = k as f64 * PI / 16.0;
            assert!((Complex64::cis(theta).norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(1.5, -2.5);
        assert!(close(z + Complex64::ZERO, z));
        assert!(close(z * Complex64::ONE, z));
        assert!(close(z - z, Complex64::ZERO));
        assert!(close(z * z.inv(), Complex64::ONE));
        assert!(close(z / z, Complex64::ONE));
        assert!(close(-(-z), z));
    }

    #[test]
    fn multiplication_matches_polar_form() {
        let a = Complex64::from_polar(2.0, 0.7);
        let b = Complex64::from_polar(3.0, -0.2);
        let p = a * b;
        assert!((p.norm() - 6.0).abs() < 1e-12);
        assert!((p.arg() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!(close(
            Complex64::new(0.0, 1.0) * Complex64::new(0.0, 1.0),
            -Complex64::ONE
        ));
    }

    #[test]
    fn conjugate_properties() {
        let z = Complex64::new(0.3, 0.9);
        assert!(close(z.conj().conj(), z));
        let zc = z * z.conj();
        assert!((zc.im).abs() < 1e-15);
        assert!((zc.re - z.norm_sqr()).abs() < 1e-15);
    }

    #[test]
    fn sqrt_squares_back() {
        let z = Complex64::new(-3.0, 4.0);
        let s = z.sqrt();
        assert!(close(s * s, z));
        // principal branch: non-negative real part
        assert!(s.re >= 0.0);
    }

    #[test]
    fn sum_over_iterator() {
        let v = [Complex64::ONE; 8];
        let s: Complex64 = v.iter().sum();
        assert!(close(s, Complex64::new(8.0, 0.0)));
    }

    #[test]
    fn assign_ops() {
        let mut z = Complex64::new(1.0, 1.0);
        z += Complex64::ONE;
        z -= Complex64::new(0.0, 1.0);
        z *= Complex64::new(0.0, 2.0);
        z /= Complex64::new(2.0, 0.0);
        assert!(close(z, Complex64::new(0.0, 2.0)));
        z *= 2.0;
        assert!(close(z, Complex64::new(0.0, 4.0)));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }
}
