//! Grid dimensions and neighbor enumeration.

use core::fmt;

use cellflow_geom::Dir;

use crate::CellId;

/// Dimensions of a rectangular grid of unit cells.
///
/// The paper uses square `N × N` grids ([`GridDims::square`]); rectangular
/// grids are supported because nothing in the protocol depends on squareness.
///
/// ```
/// use cellflow_grid::{CellId, GridDims};
///
/// let dims = GridDims::square(4);
/// assert_eq!(dims.cell_count(), 16);
/// assert!(dims.contains(CellId::new(3, 3)));
/// assert!(!dims.contains(CellId::new(4, 0)));
/// // Corner cells have two neighbors:
/// assert_eq!(dims.neighbors(CellId::new(0, 0)).count(), 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridDims {
    nx: u16,
    ny: u16,
}

impl GridDims {
    /// A rectangular `nx × ny` grid (columns × rows).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[inline]
    pub fn new(nx: u16, ny: u16) -> GridDims {
        assert!(nx > 0 && ny > 0, "grid dimensions must be positive");
        GridDims { nx, ny }
    }

    /// The paper's square `N × N` grid.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn square(n: u16) -> GridDims {
        GridDims::new(n, n)
    }

    /// Number of columns (extent along x).
    #[inline]
    pub const fn nx(self) -> u16 {
        self.nx
    }

    /// Number of rows (extent along y).
    #[inline]
    pub const fn ny(self) -> u16 {
        self.ny
    }

    /// Total number of cells.
    #[inline]
    pub const fn cell_count(self) -> usize {
        self.nx as usize * self.ny as usize
    }

    /// `true` if `id` lies within the grid.
    #[inline]
    pub const fn contains(self, id: CellId) -> bool {
        id.i() < self.nx && id.j() < self.ny
    }

    /// Row-major linear index of `id` (for dense per-cell storage).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn index(self, id: CellId) -> usize {
        assert!(self.contains(id), "cell {id} out of {self} bounds");
        id.j() as usize * self.nx as usize + id.i() as usize
    }

    /// Inverse of [`GridDims::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ cell_count()`.
    #[inline]
    pub fn id_at(self, index: usize) -> CellId {
        assert!(index < self.cell_count(), "index {index} out of bounds");
        CellId::new(
            (index % self.nx as usize) as u16,
            (index / self.nx as usize) as u16,
        )
    }

    /// Iterates over all cell identifiers in row-major order.
    pub fn iter(self) -> impl Iterator<Item = CellId> {
        (0..self.ny).flat_map(move |j| (0..self.nx).map(move |i| CellId::new(i, j)))
    }

    /// The in-bounds neighbors of `id` — the paper's `Nbrs_{i,j}` — in the
    /// deterministic order East, West, North, South.
    pub fn neighbors(self, id: CellId) -> impl Iterator<Item = CellId> {
        Dir::ALL
            .into_iter()
            .filter_map(move |d| id.step(d))
            .filter(move |&n| self.contains(n))
    }

    /// The in-bounds neighbor of `id` in direction `dir`, if any.
    #[inline]
    pub fn neighbor(self, id: CellId, dir: Dir) -> Option<CellId> {
        id.step(dir).filter(|&n| self.contains(n))
    }
}

impl fmt::Display for GridDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{}", self.nx, self.ny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_and_rect() {
        let s = GridDims::square(8);
        assert_eq!((s.nx(), s.ny()), (8, 8));
        assert_eq!(s.cell_count(), 64);
        let r = GridDims::new(3, 5);
        assert_eq!(r.cell_count(), 15);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_panic() {
        let _ = GridDims::new(0, 4);
    }

    #[test]
    fn containment() {
        let d = GridDims::new(3, 2);
        assert!(d.contains(CellId::new(2, 1)));
        assert!(!d.contains(CellId::new(3, 0)));
        assert!(!d.contains(CellId::new(0, 2)));
    }

    #[test]
    fn index_round_trip() {
        let d = GridDims::new(5, 3);
        for (k, id) in d.iter().enumerate() {
            assert_eq!(d.index(id), k);
            assert_eq!(d.id_at(k), id);
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn index_out_of_bounds_panics() {
        GridDims::square(2).index(CellId::new(2, 0));
    }

    #[test]
    fn iter_covers_grid_exactly_once() {
        let d = GridDims::new(4, 4);
        let all: Vec<_> = d.iter().collect();
        assert_eq!(all.len(), 16);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 16);
    }

    #[test]
    fn neighbor_counts() {
        let d = GridDims::square(3);
        assert_eq!(d.neighbors(CellId::new(0, 0)).count(), 2); // corner
        assert_eq!(d.neighbors(CellId::new(1, 0)).count(), 3); // edge
        assert_eq!(d.neighbors(CellId::new(1, 1)).count(), 4); // interior
    }

    #[test]
    fn neighbors_are_symmetric() {
        let d = GridDims::square(4);
        for a in d.iter() {
            for b in d.neighbors(a) {
                assert!(d.neighbors(b).any(|x| x == a), "{b} should list {a}");
            }
        }
    }

    #[test]
    fn directed_neighbor() {
        let d = GridDims::square(2);
        assert_eq!(
            d.neighbor(CellId::new(0, 0), Dir::East),
            Some(CellId::new(1, 0))
        );
        assert_eq!(d.neighbor(CellId::new(1, 0), Dir::East), None);
        assert_eq!(d.neighbor(CellId::new(0, 0), Dir::West), None);
    }

    #[test]
    fn display() {
        assert_eq!(GridDims::new(8, 8).to_string(), "8×8");
    }
}
