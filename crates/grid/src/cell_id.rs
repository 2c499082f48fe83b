//! Cell identifiers `⟨i, j⟩`.

use core::fmt;

use cellflow_geom::{Dir, Fixed, Point, Square};

/// The identifier `⟨i, j⟩` of a grid cell.
///
/// Cell `⟨i, j⟩` occupies the unit square whose bottom-left corner is the point
/// `(i, j)` in the plane: `i` is the column (x) index and `j` the row (y) index.
/// Identifiers are ordered lexicographically by `(i, j)`; the protocol uses this
/// order to break routing ties deterministically (`argmin (dist, id)` in the
/// paper's `Route` function).
///
/// ```
/// use cellflow_geom::Dir;
/// use cellflow_grid::CellId;
///
/// let c = CellId::new(2, 1);
/// assert_eq!(c.step(Dir::North), Some(CellId::new(2, 2)));
/// assert_eq!(c.step(Dir::South), Some(CellId::new(2, 0)));
/// assert_eq!(CellId::new(0, 0).step(Dir::West), None); // underflow
/// assert_eq!(c.dir_to(CellId::new(3, 1)), Some(Dir::East));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId {
    i: u16,
    j: u16,
}

impl CellId {
    /// Creates the identifier `⟨i, j⟩`.
    #[inline]
    pub const fn new(i: u16, j: u16) -> CellId {
        CellId { i, j }
    }

    /// The column (x) index `i`.
    #[inline]
    pub const fn i(self) -> u16 {
        self.i
    }

    /// The row (y) index `j`.
    #[inline]
    pub const fn j(self) -> u16 {
        self.j
    }

    /// The neighbor one step in direction `dir`, or `None` if the index would
    /// leave the first quadrant (grid bounds are checked by [`GridDims`]).
    ///
    /// [`GridDims`]: crate::GridDims
    #[inline]
    pub fn step(self, dir: Dir) -> Option<CellId> {
        let (di, dj) = dir.offset();
        let i = self.i.checked_add_signed(di as i16)?;
        let j = self.j.checked_add_signed(dj as i16)?;
        Some(CellId::new(i, j))
    }

    /// The direction from `self` to an adjacent cell `other`, or `None` if the
    /// cells are not neighbors (Manhattan distance ≠ 1).
    #[inline]
    pub fn dir_to(self, other: CellId) -> Option<Dir> {
        let di = other.i as i32 - self.i as i32;
        let dj = other.j as i32 - self.j as i32;
        match (di, dj) {
            (1, 0) => Some(Dir::East),
            (-1, 0) => Some(Dir::West),
            (0, 1) => Some(Dir::North),
            (0, -1) => Some(Dir::South),
            _ => None,
        }
    }

    /// `true` if `other` is at Manhattan distance exactly 1 (the paper's
    /// neighbor relation `|i − m| + |j − n| = 1`).
    #[inline]
    pub fn is_neighbor(self, other: CellId) -> bool {
        self.manhattan(other) == 1
    }

    /// Manhattan distance between the two identifiers.
    #[inline]
    pub fn manhattan(self, other: CellId) -> u32 {
        self.i.abs_diff(other.i) as u32 + self.j.abs_diff(other.j) as u32
    }

    /// The unit square this cell occupies in the plane.
    #[inline]
    pub fn square(self) -> Square {
        Square::unit_cell(self.i as i64, self.j as i64)
    }

    /// The center point of the cell, `(i + ½, j + ½)`.
    #[inline]
    pub fn center(self) -> Point {
        self.square().center()
    }

    /// The coordinate of this cell's boundary facing `dir`.
    ///
    /// E.g. for `⟨2, 1⟩` and `East` this is `x = 3`; entities transferring east
    /// cross this line.
    #[inline]
    pub fn boundary(self, dir: Dir) -> Fixed {
        self.square().edge_toward(dir)
    }
}

impl fmt::Debug for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}⟩", self.i, self.j)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}⟩", self.i, self.j)
    }
}

impl From<(u16, u16)> for CellId {
    #[inline]
    fn from((i, j): (u16, u16)) -> CellId {
        CellId::new(i, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_all_directions() {
        let c = CellId::new(3, 3);
        assert_eq!(c.step(Dir::East), Some(CellId::new(4, 3)));
        assert_eq!(c.step(Dir::West), Some(CellId::new(2, 3)));
        assert_eq!(c.step(Dir::North), Some(CellId::new(3, 4)));
        assert_eq!(c.step(Dir::South), Some(CellId::new(3, 2)));
    }

    #[test]
    fn step_underflows_at_origin() {
        assert_eq!(CellId::new(0, 5).step(Dir::West), None);
        assert_eq!(CellId::new(5, 0).step(Dir::South), None);
    }

    #[test]
    fn dir_to_inverse_of_step() {
        let c = CellId::new(7, 9);
        for d in Dir::ALL {
            let n = c.step(d).unwrap();
            assert_eq!(c.dir_to(n), Some(d));
            assert_eq!(n.dir_to(c), Some(d.opposite()));
        }
        assert_eq!(c.dir_to(c), None);
        assert_eq!(c.dir_to(CellId::new(8, 10)), None); // diagonal
    }

    #[test]
    fn neighbor_relation_is_manhattan_one() {
        let c = CellId::new(2, 2);
        assert!(c.is_neighbor(CellId::new(3, 2)));
        assert!(c.is_neighbor(CellId::new(2, 1)));
        assert!(!c.is_neighbor(CellId::new(3, 3)));
        assert!(!c.is_neighbor(c));
        assert_eq!(c.manhattan(CellId::new(5, 7)), 8);
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(CellId::new(0, 9) < CellId::new(1, 0));
        assert!(CellId::new(1, 0) < CellId::new(1, 1));
    }

    #[test]
    fn geometry() {
        let c = CellId::new(2, 1);
        assert_eq!(c.square().low_x(), Fixed::from_int(2));
        assert_eq!(c.square().high_y(), Fixed::from_int(2));
        assert_eq!(
            c.center(),
            Point::new(Fixed::from_milli(2_500), Fixed::from_milli(1_500))
        );
        assert_eq!(c.boundary(Dir::East), Fixed::from_int(3));
        assert_eq!(c.boundary(Dir::West), Fixed::from_int(2));
        assert_eq!(c.boundary(Dir::North), Fixed::from_int(2));
        assert_eq!(c.boundary(Dir::South), Fixed::from_int(1));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(CellId::new(2, 1).to_string(), "⟨2, 1⟩");
    }
}
