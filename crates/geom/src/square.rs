//! Axis-aligned square footprints and the paper's separation predicate.

use core::fmt;

use crate::{Axis, Dir, Fixed, Point};

/// An axis-aligned square with a given center and side length.
///
/// Both entities (`l × l`) and cells (`1 × 1`) in the paper are axis-aligned
/// squares; this type provides their edge coordinates and overlap tests.
///
/// ```
/// use cellflow_geom::{Fixed, Point, Square};
///
/// let entity = Square::new(Point::new(Fixed::HALF, Fixed::HALF), Fixed::from_milli(250));
/// assert_eq!(entity.low_x(), Fixed::from_milli(375));
/// assert_eq!(entity.high_x(), Fixed::from_milli(625));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Square {
    center: Point,
    side: Fixed,
}

impl Square {
    /// Creates a square from its center and side length.
    ///
    /// # Panics
    ///
    /// Panics if `side` is not positive.
    #[inline]
    pub fn new(center: Point, side: Fixed) -> Square {
        assert!(
            side > Fixed::ZERO,
            "square side must be positive, got {side}"
        );
        Square { center, side }
    }

    /// The unit cell square whose bottom-left corner is `(i, j)`.
    ///
    /// ```
    /// use cellflow_geom::{Fixed, Square};
    /// let cell = Square::unit_cell(2, 3);
    /// assert_eq!(cell.low_x(), Fixed::from_int(2));
    /// assert_eq!(cell.high_y(), Fixed::from_int(4));
    /// ```
    #[inline]
    pub fn unit_cell(i: i64, j: i64) -> Square {
        Square {
            center: Point::new(
                Fixed::from_int(i) + Fixed::HALF,
                Fixed::from_int(j) + Fixed::HALF,
            ),
            side: Fixed::ONE,
        }
    }

    /// The square's center.
    #[inline]
    pub const fn center(self) -> Point {
        self.center
    }

    /// The square's side length.
    #[inline]
    pub const fn side(self) -> Fixed {
        self.side
    }

    /// Half the side length (distance from center to an edge).
    #[inline]
    pub fn half_side(self) -> Fixed {
        self.side.halve()
    }

    /// Left edge `x` coordinate.
    #[inline]
    pub fn low_x(self) -> Fixed {
        self.center.x - self.half_side()
    }

    /// Right edge `x` coordinate.
    #[inline]
    pub fn high_x(self) -> Fixed {
        self.center.x + self.half_side()
    }

    /// Bottom edge `y` coordinate.
    #[inline]
    pub fn low_y(self) -> Fixed {
        self.center.y - self.half_side()
    }

    /// Top edge `y` coordinate.
    #[inline]
    pub fn high_y(self) -> Fixed {
        self.center.y + self.half_side()
    }

    /// Low edge coordinate along `axis`.
    #[inline]
    pub fn low(self, axis: Axis) -> Fixed {
        self.center.along(axis) - self.half_side()
    }

    /// High edge coordinate along `axis`.
    #[inline]
    pub fn high(self, axis: Axis) -> Fixed {
        self.center.along(axis) + self.half_side()
    }

    /// The edge coordinate facing direction `dir` (e.g. `East` → right edge).
    #[inline]
    pub fn edge_toward(self, dir: Dir) -> Fixed {
        if dir.sign() > 0 {
            self.high(dir.axis())
        } else {
            self.low(dir.axis())
        }
    }

    /// The square moved by `distance` in direction `dir`.
    #[inline]
    pub fn translate(self, dir: Dir, distance: Fixed) -> Square {
        Square {
            center: self.center.translate(dir, distance),
            side: self.side,
        }
    }

    /// `true` if the two squares' interiors intersect (shared edges do not count).
    ///
    /// ```
    /// use cellflow_geom::{Fixed, Point, Square};
    /// let a = Square::new(Point::new(Fixed::ZERO, Fixed::ZERO), Fixed::ONE);
    /// let touching = Square::new(Point::new(Fixed::ONE, Fixed::ZERO), Fixed::ONE);
    /// let overlapping = Square::new(Point::new(Fixed::HALF, Fixed::ZERO), Fixed::ONE);
    /// assert!(!a.overlaps(touching));
    /// assert!(a.overlaps(overlapping));
    /// ```
    #[inline]
    pub fn overlaps(self, other: Square) -> bool {
        self.low_x() < other.high_x()
            && other.low_x() < self.high_x()
            && self.low_y() < other.high_y()
            && other.low_y() < self.high_y()
    }

    /// `true` if this square lies entirely within `outer` (edges may touch).
    ///
    /// This is the paper's Invariant 1 check: an entity's `l × l` footprint
    /// never protrudes outside its cell.
    #[inline]
    pub fn contained_in(self, outer: Square) -> bool {
        outer.low_x() <= self.low_x()
            && self.high_x() <= outer.high_x()
            && outer.low_y() <= self.low_y()
            && self.high_y() <= outer.high_y()
    }
}

impl fmt::Display for Square {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} ± {}]", self.center, self.half_side())
    }
}

/// The paper's center-separation predicate: `|px − qx| ≥ d ∨ |py − qy| ≥ d`.
///
/// Two entity centers are *adequately separated* if they differ by at least the
/// center-spacing requirement `d = rs + l` along at least one axis. With equal
/// `l × l` footprints this guarantees an edge-to-edge clearance of `rs` along
/// that axis.
///
/// ```
/// use cellflow_geom::{sep_ok, Fixed, Point};
///
/// let d = Fixed::from_milli(300);
/// let p = Point::new(Fixed::HALF, Fixed::HALF);
/// let near = Point::new(Fixed::from_milli(700), Fixed::from_milli(600));
/// let far_x = Point::new(Fixed::from_milli(800), Fixed::HALF);
/// assert!(!sep_ok(p, near, d)); // within d on both axes
/// assert!(sep_ok(p, far_x, d)); // ≥ d apart along x
/// ```
#[inline]
pub fn sep_ok(p: Point, q: Point, d: Fixed) -> bool {
    let (dx, dy) = p.abs_diff(q);
    dx >= d || dy >= d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sq(xm: i64, ym: i64, side_m: i64) -> Square {
        Square::new(
            Point::new(Fixed::from_milli(xm), Fixed::from_milli(ym)),
            Fixed::from_milli(side_m),
        )
    }

    #[test]
    fn edges() {
        let s = sq(500, 500, 250);
        assert_eq!(s.low_x(), Fixed::from_milli(375));
        assert_eq!(s.high_x(), Fixed::from_milli(625));
        assert_eq!(s.low_y(), Fixed::from_milli(375));
        assert_eq!(s.high_y(), Fixed::from_milli(625));
        assert_eq!(s.edge_toward(Dir::East), s.high_x());
        assert_eq!(s.edge_toward(Dir::West), s.low_x());
        assert_eq!(s.edge_toward(Dir::North), s.high_y());
        assert_eq!(s.edge_toward(Dir::South), s.low_y());
    }

    #[test]
    #[should_panic(expected = "side must be positive")]
    fn zero_side_panics() {
        let _ = sq(0, 0, 0);
    }

    #[test]
    fn overlap_is_symmetric_and_strict() {
        let a = sq(500, 500, 1_000);
        let touching = sq(1_500, 500, 1_000);
        let overlapping = sq(1_400, 500, 1_000);
        let diagonal = sq(1_400, 1_400, 1_000);
        assert!(!a.overlaps(touching));
        assert!(!touching.overlaps(a));
        assert!(a.overlaps(overlapping));
        assert!(overlapping.overlaps(a));
        assert!(a.overlaps(diagonal));
        assert!(a.overlaps(a));
    }

    #[test]
    fn containment_in_unit_cell() {
        let cell = Square::unit_cell(1, 2);
        // Entity centered in the cell.
        let inside = sq(1_500, 2_500, 250);
        // Entity touching the cell's left edge from inside.
        let flush = sq(1_125, 2_500, 250);
        // Entity protruding past the left edge.
        let outside = sq(1_100, 2_500, 250);
        assert!(inside.contained_in(cell));
        assert!(flush.contained_in(cell));
        assert!(!outside.contained_in(cell));
        assert!(cell.contained_in(cell));
    }

    #[test]
    fn translate_moves_center_only() {
        let s = sq(500, 500, 250);
        let t = s.translate(Dir::North, Fixed::from_milli(100));
        assert_eq!(t.center(), Point::new(Fixed::HALF, Fixed::from_milli(600)));
        assert_eq!(t.side(), s.side());
    }

    #[test]
    fn sep_ok_boundary_cases() {
        let d = Fixed::from_milli(300);
        let p = Point::new(Fixed::ZERO, Fixed::ZERO);
        // Exactly d along x: allowed.
        assert!(sep_ok(
            p,
            Point::new(Fixed::from_milli(300), Fixed::ZERO),
            d
        ));
        // One micro-unit less than d on both axes: violation.
        let eps = Fixed::from_raw(1);
        let near = Point::new(Fixed::from_milli(300) - eps, Fixed::from_milli(300) - eps);
        assert!(!sep_ok(p, near, d));
        // Far along y only.
        assert!(sep_ok(
            p,
            Point::new(Fixed::ZERO, Fixed::from_milli(300)),
            d
        ));
        // Coincident points are never separated.
        assert!(!sep_ok(p, p, d));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(sq(500, 500, 250).to_string(), "[(0.5, 0.5) ± 0.125]");
    }
}
