//! Simple cell paths and the paper's path-complexity measure.

use core::fmt;

use cellflow_geom::Dir;

use crate::{CellId, GridDims};

/// A simple path of pairwise-adjacent, non-repeating cells.
///
/// Paths describe the corridor an entity flow takes from a source cell to the
/// target cell. The paper's Figure 8 measures throughput against *path
/// complexity* — the number of 90° turns along a fixed-length path — which
/// [`Path::turns`] computes.
///
/// ```
/// use cellflow_geom::Dir;
/// use cellflow_grid::{CellId, Path};
///
/// // The path β from the paper's Figure 7 setup: ⟨1,0⟩ … ⟨1,7⟩, length 8.
/// let beta = Path::straight(CellId::new(1, 0), Dir::North, 8)?;
/// assert_eq!(beta.len(), 8);
/// assert_eq!(beta.turns(), 0);
/// assert_eq!(*beta.target(), CellId::new(1, 7));
/// # Ok::<(), cellflow_grid::PathError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Path {
    cells: Vec<CellId>,
}

impl Path {
    /// Validates and wraps a sequence of cells as a path.
    ///
    /// # Errors
    ///
    /// * [`PathError::Empty`] if `cells` is empty;
    /// * [`PathError::NotAdjacent`] if consecutive cells are not grid neighbors;
    /// * [`PathError::Repeated`] if any cell appears twice.
    pub fn new(cells: Vec<CellId>) -> Result<Path, PathError> {
        if cells.is_empty() {
            return Err(PathError::Empty);
        }
        for (k, pair) in cells.windows(2).enumerate() {
            if !pair[0].is_neighbor(pair[1]) {
                return Err(PathError::NotAdjacent { index: k });
            }
        }
        let mut seen = cells.clone();
        seen.sort();
        for pair in seen.windows(2) {
            if pair[0] == pair[1] {
                return Err(PathError::Repeated { cell: pair[0] });
            }
        }
        Ok(Path { cells })
    }

    /// A straight path of `len` cells starting at `start`, heading `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`PathError::OutOfQuadrant`] if the path would step to a
    /// negative index, or [`PathError::Empty`] if `len == 0`.
    pub fn straight(start: CellId, dir: Dir, len: usize) -> Result<Path, PathError> {
        if len == 0 {
            return Err(PathError::Empty);
        }
        let mut cells = Vec::with_capacity(len);
        let mut cur = start;
        cells.push(cur);
        for _ in 1..len {
            cur = cur.step(dir).ok_or(PathError::OutOfQuadrant)?;
            cells.push(cur);
        }
        Ok(Path { cells })
    }

    /// Builds a path of exactly `len` cells and exactly `turns` turns inside
    /// `dims`, starting at `start`, or `None` if no such staircase fits.
    ///
    /// The construction makes the first `turns` segments one step long,
    /// alternating East and North, then runs the final segment straight —
    /// exactly the family of length-8 paths with 0–6 turns used by the paper's
    /// Figure 8.
    ///
    /// A path of `len` cells has `len − 1` steps, so `turns ≤ len − 2` is
    /// required.
    ///
    /// ```
    /// use cellflow_grid::{CellId, GridDims, Path};
    /// let dims = GridDims::square(8);
    /// for turns in 0..=6 {
    ///     let p = Path::with_turns(dims, CellId::new(0, 0), 8, turns).unwrap();
    ///     assert_eq!((p.len(), p.turns()), (8, turns));
    /// }
    /// ```
    pub fn with_turns(dims: GridDims, start: CellId, len: usize, turns: usize) -> Option<Path> {
        if len == 0 || (len == 1 && turns > 0) || (len >= 2 && turns > len - 2) {
            return None;
        }
        let steps = len - 1;
        // Segment k (0-based) heads East when k is even, North when k is odd.
        // Segments 0..turns have one step each; the final segment takes the rest.
        let mut dirs = Vec::with_capacity(steps);
        for seg in 0..turns {
            dirs.push(if seg % 2 == 0 { Dir::East } else { Dir::North });
        }
        let last_dir = if turns.is_multiple_of(2) {
            Dir::East
        } else {
            Dir::North
        };
        while dirs.len() < steps {
            dirs.push(last_dir);
        }
        let mut cells = Vec::with_capacity(len);
        let mut cur = start;
        cells.push(cur);
        for d in dirs {
            cur = cur.step(d)?;
            if !dims.contains(cur) {
                return None;
            }
            cells.push(cur);
        }
        Some(Path { cells })
    }

    /// A boustrophedon (serpentine) path visiting **every** cell of `dims`:
    /// east along row 0, one step north, west along row 1, and so on. The
    /// maximal-length simple path used by stress scenarios.
    ///
    /// ```
    /// use cellflow_grid::{GridDims, Path};
    /// let dims = GridDims::new(4, 3);
    /// let snake = Path::serpentine(dims);
    /// assert_eq!(snake.len(), 12);
    /// assert_eq!(snake.turns(), 2 * 2); // two turns per row change
    /// ```
    pub fn serpentine(dims: GridDims) -> Path {
        let mut cells = Vec::with_capacity(dims.cell_count());
        for j in 0..dims.ny() {
            let row: Vec<u16> = if j % 2 == 0 {
                (0..dims.nx()).collect()
            } else {
                (0..dims.nx()).rev().collect()
            };
            for i in row {
                cells.push(CellId::new(i, j));
            }
        }
        Path { cells }
    }

    /// The cells of the path, source first, target last.
    #[inline]
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Number of cells on the path (the paper's "path length").
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Always `false`: paths have at least one cell.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The first cell (the source end).
    #[inline]
    pub fn source(&self) -> &CellId {
        &self.cells[0]
    }

    /// The last cell (the target end).
    #[inline]
    pub fn target(&self) -> &CellId {
        self.cells.last().expect("paths are nonempty")
    }

    /// The step directions along the path (`len() − 1` entries).
    pub fn dirs(&self) -> Vec<Dir> {
        self.cells
            .windows(2)
            .map(|w| w[0].dir_to(w[1]).expect("validated adjacency"))
            .collect()
    }

    /// The number of 90° turns along the path — the paper's path-complexity
    /// measure (Figure 8).
    pub fn turns(&self) -> usize {
        let dirs = self.dirs();
        dirs.windows(2).filter(|w| w[1].is_turn_from(w[0])).count()
    }

    /// `true` if `cell` lies on the path.
    #[inline]
    pub fn contains(&self, cell: CellId) -> bool {
        self.cells.contains(&cell)
    }

    /// `true` if every cell lies within `dims`.
    pub fn fits(&self, dims: GridDims) -> bool {
        self.cells.iter().all(|&c| dims.contains(c))
    }

    /// All cells of `dims` *not* on the path, in row-major order.
    ///
    /// Failing exactly these cells restricts routing to the path — how the
    /// simulation scenarios pin entity flows to a prescribed corridor (e.g. the
    /// turn-complexity sweep of Figure 8).
    pub fn carve_failures(&self, dims: GridDims) -> Vec<CellId> {
        dims.iter().filter(|&c| !self.contains(c)).collect()
    }

    /// Iterates over the cells of the path.
    pub fn iter(&self) -> impl Iterator<Item = &CellId> {
        self.cells.iter()
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path{:?}", self.cells)
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for c in &self.cells {
            if !first {
                f.write_str(" → ")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        Ok(())
    }
}

impl TryFrom<Vec<CellId>> for Path {
    type Error = PathError;

    fn try_from(cells: Vec<CellId>) -> Result<Path, PathError> {
        Path::new(cells)
    }
}

impl<'a> IntoIterator for &'a Path {
    type Item = &'a CellId;
    type IntoIter = core::slice::Iter<'a, CellId>;

    fn into_iter(self) -> Self::IntoIter {
        self.cells.iter()
    }
}

/// Error constructing a [`Path`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathError {
    /// The cell sequence was empty.
    Empty,
    /// Cells at `index` and `index + 1` are not grid neighbors.
    NotAdjacent {
        /// Position of the first cell of the offending pair.
        index: usize,
    },
    /// A cell appears more than once.
    Repeated {
        /// The repeated cell.
        cell: CellId,
    },
    /// A step would leave the first quadrant (negative index).
    OutOfQuadrant,
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::Empty => f.write_str("path must contain at least one cell"),
            PathError::NotAdjacent { index } => {
                write!(
                    f,
                    "cells at positions {index} and {} are not adjacent",
                    index + 1
                )
            }
            PathError::Repeated { cell } => write!(f, "cell {cell} appears more than once"),
            PathError::OutOfQuadrant => f.write_str("path leaves the first quadrant"),
        }
    }
}

impl std::error::Error for PathError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u16, j: u16) -> CellId {
        CellId::new(i, j)
    }

    #[test]
    fn validation_catches_bad_sequences() {
        assert_eq!(Path::new(vec![]).unwrap_err(), PathError::Empty);
        assert_eq!(
            Path::new(vec![id(0, 0), id(2, 0)]).unwrap_err(),
            PathError::NotAdjacent { index: 0 }
        );
        assert_eq!(
            Path::new(vec![id(0, 0), id(1, 0), id(0, 0)]).unwrap_err(),
            PathError::Repeated { cell: id(0, 0) }
        );
        assert!(Path::new(vec![id(0, 0)]).is_ok());
    }

    #[test]
    fn straight_paths() {
        let p = Path::straight(id(1, 0), Dir::North, 8).unwrap();
        assert_eq!(p.len(), 8);
        assert_eq!(*p.source(), id(1, 0));
        assert_eq!(*p.target(), id(1, 7));
        assert_eq!(p.turns(), 0);
        assert_eq!(p.dirs(), vec![Dir::North; 7]);
        assert_eq!(
            Path::straight(id(0, 0), Dir::West, 2).unwrap_err(),
            PathError::OutOfQuadrant
        );
        assert_eq!(
            Path::straight(id(0, 0), Dir::East, 0).unwrap_err(),
            PathError::Empty
        );
    }

    #[test]
    fn with_turns_exact_counts() {
        let dims = GridDims::square(8);
        for turns in 0..=6 {
            let p = Path::with_turns(dims, id(0, 0), 8, turns)
                .unwrap_or_else(|| panic!("no path with {turns} turns"));
            assert_eq!(p.len(), 8, "length for {turns} turns");
            assert_eq!(p.turns(), turns, "turn count");
            assert!(p.fits(dims));
        }
    }

    #[test]
    fn with_turns_rejects_impossible() {
        let dims = GridDims::square(8);
        // len−2 is the max number of turns.
        assert!(Path::with_turns(dims, id(0, 0), 8, 7).is_none());
        assert!(Path::with_turns(dims, id(0, 0), 0, 0).is_none());
        assert!(Path::with_turns(dims, id(0, 0), 1, 1).is_none());
        // Doesn't fit: straight length 9 in an 8-wide grid.
        assert!(Path::with_turns(dims, id(0, 0), 9, 0).is_none());
        // Single cell, zero turns is fine.
        assert_eq!(Path::with_turns(dims, id(0, 0), 1, 0).unwrap().len(), 1);
    }

    #[test]
    fn turn_counting_on_handmade_path() {
        // E, E, N, E, S : turns at steps 2,3,4 → 3 turns.
        let p = Path::new(vec![
            id(0, 0),
            id(1, 0),
            id(2, 0),
            id(2, 1),
            id(3, 1),
            id(3, 0),
        ])
        .unwrap();
        assert_eq!(p.turns(), 3);
    }

    #[test]
    fn carve_failures_complements_path() {
        let dims = GridDims::square(3);
        let p = Path::straight(id(0, 0), Dir::East, 3).unwrap();
        let carved = p.carve_failures(dims);
        assert_eq!(carved.len(), 6);
        for c in &carved {
            assert!(!p.contains(*c));
        }
        for c in p.iter() {
            assert!(!carved.contains(c));
        }
    }

    #[test]
    fn try_from_and_iter() {
        let p = Path::try_from(vec![id(0, 0), id(0, 1)]).unwrap();
        let collected: Vec<_> = (&p).into_iter().copied().collect();
        assert_eq!(collected, vec![id(0, 0), id(0, 1)]);
        assert!(!p.is_empty());
    }

    #[test]
    fn display_shows_arrows() {
        let p = Path::try_from(vec![id(0, 0), id(0, 1)]).unwrap();
        assert_eq!(p.to_string(), "⟨0, 0⟩ → ⟨0, 1⟩");
    }
}
