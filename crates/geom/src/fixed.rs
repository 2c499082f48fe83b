//! The [`Fixed`] exact fixed-point scalar.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use core::str::FromStr;

/// Number of [`Fixed`] units per cell side (one million).
const SCALE: i64 = 1_000_000;

/// An exact fixed-point scalar with a resolution of `1/1_000_000` of a cell side.
///
/// The paper's positions, entity length `l`, safety gap `rs`, and velocity `v`
/// are all real numbers, but the only values ever produced by the protocol are
/// of the form `i + l/2 + k·v` for integers `i, k`. Storing them in micro-cell
/// units keeps every computation exact: no floating-point drift over long
/// executions, bitwise-reproducible simulations, and hashable states for the
/// model checker.
///
/// `Fixed` implements the usual arithmetic operators. Addition, subtraction and
/// negation are exact; multiplication and division of two `Fixed` values
/// rescale through 128-bit intermediates and truncate toward zero (they are
/// only used for derived statistics, never in the protocol itself).
///
/// # Examples
///
/// ```
/// use cellflow_geom::Fixed;
///
/// let v = Fixed::from_milli(100); // 0.1 cells per round
/// let travelled = v * 25;         // after 25 rounds
/// assert_eq!(travelled, Fixed::from_milli(2_500));
/// assert_eq!(travelled.to_string(), "2.5");
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fixed(i64);

impl Fixed {
    /// The additive identity (`0.0`).
    pub const ZERO: Fixed = Fixed(0);
    /// One cell side (`1.0`).
    pub const ONE: Fixed = Fixed(SCALE);
    /// Half a cell side (`0.5`).
    pub const HALF: Fixed = Fixed(SCALE / 2);
    /// Largest representable value.
    pub const MAX: Fixed = Fixed(i64::MAX);
    /// Smallest representable value.
    pub const MIN: Fixed = Fixed(i64::MIN);

    /// Creates a value from raw micro-cell units (`1_000_000` = one cell).
    ///
    /// ```
    /// use cellflow_geom::Fixed;
    /// assert_eq!(Fixed::from_raw(250_000), Fixed::from_milli(250));
    /// ```
    #[inline]
    pub const fn from_raw(units: i64) -> Fixed {
        Fixed(units)
    }

    /// Creates a value from whole cells.
    ///
    /// ```
    /// use cellflow_geom::Fixed;
    /// assert_eq!(Fixed::from_int(3) + Fixed::HALF, Fixed::from_milli(3_500));
    /// ```
    #[inline]
    pub const fn from_int(cells: i64) -> Fixed {
        Fixed(cells * SCALE)
    }

    /// Creates a value from thousandths of a cell (`250` → `0.25`).
    ///
    /// Handy because every parameter in the paper's evaluation is a multiple of
    /// `0.001`.
    ///
    /// ```
    /// use cellflow_geom::Fixed;
    /// assert_eq!(Fixed::from_milli(50).to_f64(), 0.05);
    /// ```
    #[inline]
    pub const fn from_milli(milli_cells: i64) -> Fixed {
        Fixed(milli_cells * (SCALE / 1_000))
    }

    /// Returns the raw micro-cell units.
    #[inline]
    pub const fn raw(self) -> i64 {
        self.0
    }

    /// Converts to `f64` (for reporting only; may round for huge magnitudes).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / SCALE as f64
    }

    /// Converts from `f64`, requiring the value to be exactly representable.
    ///
    /// # Errors
    ///
    /// Returns [`TryFromF64Error`] if `x` is non-finite, out of range, or not an
    /// exact multiple of `1e-6`.
    ///
    /// ```
    /// use cellflow_geom::Fixed;
    /// assert_eq!(Fixed::try_from_f64(0.25)?, Fixed::from_milli(250));
    /// assert!(Fixed::try_from_f64(f64::NAN).is_err());
    /// # Ok::<(), cellflow_geom::TryFromF64Error>(())
    /// ```
    pub fn try_from_f64(x: f64) -> Result<Fixed, TryFromF64Error> {
        if !x.is_finite() {
            return Err(TryFromF64Error::NotFinite);
        }
        let scaled = x * SCALE as f64;
        if scaled.abs() > i64::MAX as f64 / 2.0 {
            return Err(TryFromF64Error::OutOfRange);
        }
        let rounded = scaled.round();
        if (scaled - rounded).abs() > 1e-6 {
            return Err(TryFromF64Error::NotRepresentable);
        }
        Ok(Fixed(rounded as i64))
    }

    /// Absolute value.
    ///
    /// # Panics
    ///
    /// Panics if `self` is [`Fixed::MIN`] (mirrors `i64::abs`).
    #[inline]
    pub const fn abs(self) -> Fixed {
        Fixed(self.0.abs())
    }

    /// The smaller of `self` and `other`.
    #[inline]
    pub fn min(self, other: Fixed) -> Fixed {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of `self` and `other`.
    #[inline]
    pub fn max(self, other: Fixed) -> Fixed {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Fixed) -> Option<Fixed> {
        self.0.checked_add(rhs.0).map(Fixed)
    }

    /// Checked subtraction; `None` on overflow.
    #[inline]
    pub fn checked_sub(self, rhs: Fixed) -> Option<Fixed> {
        self.0.checked_sub(rhs.0).map(Fixed)
    }

    /// `true` if the value is an exact whole number of cells.
    ///
    /// ```
    /// use cellflow_geom::Fixed;
    /// assert!(Fixed::from_int(7).is_integral());
    /// assert!(!Fixed::HALF.is_integral());
    /// ```
    #[inline]
    pub const fn is_integral(self) -> bool {
        self.0 % SCALE == 0
    }

    /// The largest whole number of cells `≤ self` (floor division).
    ///
    /// ```
    /// use cellflow_geom::Fixed;
    /// assert_eq!(Fixed::from_milli(2_700).floor_cells(), 2);
    /// assert_eq!(Fixed::from_milli(-300).floor_cells(), -1);
    /// ```
    #[inline]
    pub const fn floor_cells(self) -> i64 {
        self.0.div_euclid(SCALE)
    }

    /// Half of the value, truncating toward zero on odd raw units.
    ///
    /// Used for `l/2` (entity half-length); all paper parameters are even in
    /// micro-units so this is exact in practice.
    #[inline]
    pub const fn halve(self) -> Fixed {
        Fixed(self.0 / 2)
    }

    /// Sign: `-1`, `0`, or `1`.
    #[inline]
    pub const fn signum(self) -> i64 {
        self.0.signum()
    }
}

impl Add for Fixed {
    type Output = Fixed;
    #[inline]
    fn add(self, rhs: Fixed) -> Fixed {
        Fixed(self.0 + rhs.0)
    }
}

impl AddAssign for Fixed {
    #[inline]
    fn add_assign(&mut self, rhs: Fixed) {
        self.0 += rhs.0;
    }
}

impl Sub for Fixed {
    type Output = Fixed;
    #[inline]
    fn sub(self, rhs: Fixed) -> Fixed {
        Fixed(self.0 - rhs.0)
    }
}

impl SubAssign for Fixed {
    #[inline]
    fn sub_assign(&mut self, rhs: Fixed) {
        self.0 -= rhs.0;
    }
}

impl Neg for Fixed {
    type Output = Fixed;
    #[inline]
    fn neg(self) -> Fixed {
        Fixed(-self.0)
    }
}

impl Mul<i64> for Fixed {
    type Output = Fixed;
    #[inline]
    fn mul(self, rhs: i64) -> Fixed {
        Fixed(self.0 * rhs)
    }
}

impl Mul<Fixed> for i64 {
    type Output = Fixed;
    #[inline]
    fn mul(self, rhs: Fixed) -> Fixed {
        rhs * self
    }
}

impl MulAssign<i64> for Fixed {
    #[inline]
    fn mul_assign(&mut self, rhs: i64) {
        self.0 *= rhs;
    }
}

impl Mul for Fixed {
    type Output = Fixed;
    /// Full fixed-point product, truncating toward zero.
    #[inline]
    fn mul(self, rhs: Fixed) -> Fixed {
        let wide = self.0 as i128 * rhs.0 as i128 / SCALE as i128;
        Fixed(wide as i64)
    }
}

impl Div for Fixed {
    type Output = Fixed;
    /// Full fixed-point quotient, truncating toward zero.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    #[inline]
    fn div(self, rhs: Fixed) -> Fixed {
        let wide = self.0 as i128 * SCALE as i128 / rhs.0 as i128;
        Fixed(wide as i64)
    }
}

impl Div<i64> for Fixed {
    type Output = Fixed;
    /// Divides by an integer, truncating toward zero.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    #[inline]
    fn div(self, rhs: i64) -> Fixed {
        Fixed(self.0 / rhs)
    }
}

impl Rem for Fixed {
    type Output = Fixed;
    /// Remainder with the sign of the dividend.
    ///
    /// # Panics
    ///
    /// Panics on a zero divisor.
    #[inline]
    fn rem(self, rhs: Fixed) -> Fixed {
        Fixed(self.0 % rhs.0)
    }
}

impl Sum for Fixed {
    fn sum<I: Iterator<Item = Fixed>>(iter: I) -> Fixed {
        iter.fold(Fixed::ZERO, Add::add)
    }
}

impl From<i32> for Fixed {
    /// Whole cells → `Fixed` (mirrors [`Fixed::from_int`]).
    #[inline]
    fn from(cells: i32) -> Fixed {
        Fixed::from_int(cells as i64)
    }
}

impl fmt::Debug for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fixed({self})")
    }
}

impl fmt::Display for Fixed {
    /// Renders as a decimal with trailing zeros trimmed, e.g. `0.25`, `-1.5`, `3`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let mag = self.0.unsigned_abs();
        let whole = mag / SCALE as u64;
        let frac = mag % SCALE as u64;
        if frac == 0 {
            write!(f, "{sign}{whole}")
        } else {
            let digits = format!("{frac:06}");
            write!(f, "{sign}{whole}.{}", digits.trim_end_matches('0'))
        }
    }
}

impl FromStr for Fixed {
    type Err = FixedParseError;

    /// Parses a decimal literal with at most six fractional digits.
    ///
    /// ```
    /// use cellflow_geom::Fixed;
    /// assert_eq!("0.25".parse::<Fixed>()?, Fixed::from_milli(250));
    /// assert_eq!("-1.5".parse::<Fixed>()?, -Fixed::from_milli(1_500));
    /// assert!("0.1234567".parse::<Fixed>().is_err());
    /// # Ok::<(), cellflow_geom::FixedParseError>(())
    /// ```
    fn from_str(s: &str) -> Result<Fixed, FixedParseError> {
        let (sign, body) = match s.strip_prefix('-') {
            Some(rest) => (-1i64, rest),
            None => (1i64, s),
        };
        if body.is_empty() {
            return Err(FixedParseError);
        }
        let (whole_str, frac_str) = match body.split_once('.') {
            Some((w, fr)) => (w, fr),
            None => (body, ""),
        };
        if frac_str.len() > 6 {
            return Err(FixedParseError);
        }
        if !whole_str.bytes().all(|b| b.is_ascii_digit())
            || !frac_str.bytes().all(|b| b.is_ascii_digit())
        {
            return Err(FixedParseError);
        }
        let whole: i64 = if whole_str.is_empty() {
            0
        } else {
            whole_str.parse().map_err(|_| FixedParseError)?
        };
        let frac: i64 = if frac_str.is_empty() {
            0
        } else {
            let padded = format!("{frac_str:0<6}");
            padded.parse().map_err(|_| FixedParseError)?
        };
        whole
            .checked_mul(SCALE)
            .and_then(|w| w.checked_add(frac))
            .and_then(|m| m.checked_mul(sign))
            .map(Fixed)
            .ok_or(FixedParseError)
    }
}

/// Error returned when parsing a [`Fixed`] from a string fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedParseError;

impl fmt::Display for FixedParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(
            "invalid fixed-point literal (expected decimal with at most 6 fractional digits)",
        )
    }
}

impl std::error::Error for FixedParseError {}

/// Error returned by [`Fixed::try_from_f64`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryFromF64Error {
    /// Input was NaN or infinite.
    NotFinite,
    /// Input magnitude exceeds the representable range.
    OutOfRange,
    /// Input is not an exact multiple of `1e-6` cells.
    NotRepresentable,
}

impl fmt::Display for TryFromF64Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            TryFromF64Error::NotFinite => "value is not finite",
            TryFromF64Error::OutOfRange => "value is out of the representable range",
            TryFromF64Error::NotRepresentable => "value is not a multiple of 1e-6 cells",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for TryFromF64Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Fixed::from_int(1), Fixed::ONE);
        assert_eq!(Fixed::from_milli(1_000), Fixed::ONE);
        assert_eq!(Fixed::from_raw(1_000_000), Fixed::ONE);
        assert_eq!(Fixed::from_milli(500), Fixed::HALF);
    }

    #[test]
    fn paper_parameters_are_exact() {
        for (milli, f) in [(50, 0.05), (100, 0.1), (200, 0.2), (250, 0.25)] {
            assert_eq!(Fixed::from_milli(milli).to_f64(), f);
            assert_eq!(Fixed::try_from_f64(f).unwrap(), Fixed::from_milli(milli));
        }
    }

    #[test]
    fn arithmetic_basics() {
        let a = Fixed::from_milli(300);
        let b = Fixed::from_milli(200);
        assert_eq!(a + b, Fixed::HALF);
        assert_eq!(a - b, Fixed::from_milli(100));
        assert_eq!(-a, Fixed::from_milli(-300));
        assert_eq!(a * 3, Fixed::from_milli(900));
        assert_eq!(3 * a, Fixed::from_milli(900));
        assert_eq!(a * b, Fixed::from_milli(60)); // 0.3 * 0.2 = 0.06
        assert_eq!(a / b, Fixed::from_milli(1_500)); // 0.3 / 0.2 = 1.5
        assert_eq!(a / 2, Fixed::from_milli(150));
        assert_eq!(a % b, Fixed::from_milli(100));
    }

    #[test]
    fn assign_ops() {
        let mut x = Fixed::ONE;
        x += Fixed::HALF;
        assert_eq!(x, Fixed::from_milli(1_500));
        x -= Fixed::ONE;
        assert_eq!(x, Fixed::HALF);
        x *= 4;
        assert_eq!(x, Fixed::from_int(2));
    }

    #[test]
    fn min_max_abs_signum() {
        let a = Fixed::from_milli(-300);
        let b = Fixed::from_milli(200);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.abs(), Fixed::from_milli(300));
        assert_eq!(a.signum(), -1);
        assert_eq!(Fixed::ZERO.signum(), 0);
        assert_eq!(b.signum(), 1);
    }

    #[test]
    fn floor_and_integral() {
        assert_eq!(Fixed::from_milli(2_700).floor_cells(), 2);
        assert_eq!(Fixed::from_milli(-300).floor_cells(), -1);
        assert_eq!(Fixed::from_int(-2).floor_cells(), -2);
        assert!(Fixed::from_int(5).is_integral());
        assert!(!Fixed::from_milli(5_001).is_integral());
    }

    #[test]
    fn halve_is_exact_for_even_units() {
        assert_eq!(Fixed::from_milli(250).halve(), Fixed::from_milli(125));
        assert_eq!(Fixed::ONE.halve(), Fixed::HALF);
    }

    #[test]
    fn checked_ops_detect_overflow() {
        assert_eq!(Fixed::MAX.checked_add(Fixed::ONE), None);
        assert_eq!(Fixed::MIN.checked_sub(Fixed::ONE), None);
        assert_eq!(Fixed::ONE.checked_add(Fixed::ONE), Some(Fixed::from_int(2)));
    }

    #[test]
    fn display_round_trip() {
        for raw in [0, 1, -1, 250_000, -250_000, 1_000_000, 123_456_789, -42] {
            let x = Fixed::from_raw(raw);
            let s = x.to_string();
            assert_eq!(s.parse::<Fixed>().unwrap(), x, "round-trip of {s}");
        }
        assert_eq!(Fixed::from_milli(250).to_string(), "0.25");
        assert_eq!(Fixed::from_milli(-1_500).to_string(), "-1.5");
        assert_eq!(Fixed::from_int(3).to_string(), "3");
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "-", "1.2.3", "abc", "0.1234567", "--1"] {
            assert!(bad.parse::<Fixed>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn try_from_f64_rejects_bad_values() {
        assert_eq!(
            Fixed::try_from_f64(f64::NAN),
            Err(TryFromF64Error::NotFinite)
        );
        assert_eq!(
            Fixed::try_from_f64(f64::INFINITY),
            Err(TryFromF64Error::NotFinite)
        );
        assert_eq!(Fixed::try_from_f64(1e300), Err(TryFromF64Error::OutOfRange));
        assert_eq!(
            Fixed::try_from_f64(1e-9),
            Err(TryFromF64Error::NotRepresentable)
        );
    }

    #[test]
    fn sum_folds() {
        let total: Fixed = (1..=4).map(Fixed::from_int).sum();
        assert_eq!(total, Fixed::from_int(10));
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", Fixed::HALF), "Fixed(0.5)");
    }
}
