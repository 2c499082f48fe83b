//! Exact points in the partitioned plane.

use core::fmt;

use crate::{Axis, Dir, Fixed};

/// An exact position `(x, y)` in the plane, in cell-side units.
///
/// Entity centers in the paper are points `(px, py) ∈ ℝ²`; here both
/// coordinates are [`Fixed`], so positions are exact and hashable.
///
/// ```
/// use cellflow_geom::{Dir, Fixed, Point};
///
/// let p = Point::new(Fixed::from_milli(1_125), Fixed::HALF);
/// let q = p.translate(Dir::East, Fixed::from_milli(100));
/// assert_eq!(q.x, Fixed::from_milli(1_225));
/// assert_eq!(q.y, p.y);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Point {
    /// Horizontal coordinate (the paper's `px`).
    pub x: Fixed,
    /// Vertical coordinate (the paper's `py`).
    pub y: Fixed,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: Fixed, y: Fixed) -> Point {
        Point { x, y }
    }

    /// The point moved by `distance` in direction `dir`.
    #[inline]
    pub fn translate(self, dir: Dir, distance: Fixed) -> Point {
        let delta = distance * dir.sign();
        match dir.axis() {
            Axis::X => Point::new(self.x + delta, self.y),
            Axis::Y => Point::new(self.x, self.y + delta),
        }
    }

    /// The coordinate along `axis`.
    #[inline]
    pub fn along(self, axis: Axis) -> Fixed {
        match axis {
            Axis::X => self.x,
            Axis::Y => self.y,
        }
    }

    /// Replaces the coordinate along `axis`, returning the new point.
    #[inline]
    pub fn with_along(self, axis: Axis, value: Fixed) -> Point {
        match axis {
            Axis::X => Point::new(value, self.y),
            Axis::Y => Point::new(self.x, value),
        }
    }

    /// Component-wise absolute difference `(|Δx|, |Δy|)`.
    #[inline]
    pub fn abs_diff(self, other: Point) -> (Fixed, Fixed) {
        ((self.x - other.x).abs(), (self.y - other.y).abs())
    }

    /// Manhattan (L1) distance to `other`.
    ///
    /// ```
    /// use cellflow_geom::{Fixed, Point};
    /// let a = Point::new(Fixed::ZERO, Fixed::ZERO);
    /// let b = Point::new(Fixed::ONE, Fixed::HALF);
    /// assert_eq!(a.manhattan(b), Fixed::from_milli(1_500));
    /// ```
    #[inline]
    pub fn manhattan(self, other: Point) -> Fixed {
        let (dx, dy) = self.abs_diff(other);
        dx + dy
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(xm: i64, ym: i64) -> Point {
        Point::new(Fixed::from_milli(xm), Fixed::from_milli(ym))
    }

    #[test]
    fn translate_each_direction() {
        let origin = p(1_000, 2_000);
        let step = Fixed::from_milli(250);
        assert_eq!(origin.translate(Dir::East, step), p(1_250, 2_000));
        assert_eq!(origin.translate(Dir::West, step), p(750, 2_000));
        assert_eq!(origin.translate(Dir::North, step), p(1_000, 2_250));
        assert_eq!(origin.translate(Dir::South, step), p(1_000, 1_750));
    }

    #[test]
    fn translate_then_back_is_identity() {
        let origin = p(123, 456);
        let step = Fixed::from_milli(789);
        for d in Dir::ALL {
            assert_eq!(
                origin.translate(d, step).translate(d.opposite(), step),
                origin
            );
        }
    }

    #[test]
    fn along_and_with_along() {
        let q = p(100, 200);
        assert_eq!(q.along(Axis::X), Fixed::from_milli(100));
        assert_eq!(q.along(Axis::Y), Fixed::from_milli(200));
        assert_eq!(q.with_along(Axis::X, Fixed::ONE), p(1_000, 200));
        assert_eq!(q.with_along(Axis::Y, Fixed::ONE), p(100, 1_000));
    }

    #[test]
    fn abs_diff_is_symmetric() {
        let a = p(100, 900);
        let b = p(400, 200);
        assert_eq!(a.abs_diff(b), b.abs_diff(a));
        assert_eq!(
            a.abs_diff(b),
            (Fixed::from_milli(300), Fixed::from_milli(700))
        );
    }

    #[test]
    fn manhattan_triangle_inequality_spot_check() {
        let a = p(0, 0);
        let b = p(500, 500);
        let c = p(1_000, 0);
        assert!(a.manhattan(c) <= a.manhattan(b) + b.manhattan(c));
    }

    #[test]
    fn display_format() {
        assert_eq!(p(1_250, -500).to_string(), "(1.25, -0.5)");
    }
}
