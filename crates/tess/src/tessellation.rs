//! The rectangular tessellation: heterogeneous column widths and row heights.

use core::fmt;

use cellflow_core::Params;
use cellflow_geom::{Axis, Dir, Fixed, Point};
use cellflow_grid::{CellId, GridDims};

/// An axis-aligned rectangular tessellation: the plane region
/// `[0, Σwidths] × [0, Σheights]` cut into `columns × rows` cells.
///
/// Cell `⟨i, j⟩` occupies `[X_i, X_{i+1}) × [Y_j, Y_{j+1})` where `X`/`Y` are
/// the prefix sums of the column widths / row heights. The paper's unit grid
/// is the special case of all-`1` widths and heights
/// ([`Tessellation::unit`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Tessellation {
    /// Column boundaries `X_0 = 0, X_1, …, X_nx` (prefix sums of widths).
    col_edges: Vec<Fixed>,
    /// Row boundaries `Y_0 = 0, …, Y_ny`.
    row_edges: Vec<Fixed>,
}

impl Tessellation {
    /// Builds a tessellation from column widths and row heights, validated
    /// against `params`: every dimension must strictly exceed the center
    /// spacing `d = rs + l` (the generalization of the paper's
    /// `rs + l < 1`), so that at least one safe position exists in every
    /// cell and a freshly transferred entity never immediately violates a
    /// standing gap promise.
    ///
    /// # Errors
    ///
    /// [`TessellationError`] if a dimension list is empty or any dimension is
    /// not strictly greater than `d`.
    pub fn new(
        widths: Vec<Fixed>,
        heights: Vec<Fixed>,
        params: Params,
    ) -> Result<Tessellation, TessellationError> {
        if widths.is_empty() || heights.is_empty() {
            return Err(TessellationError::Empty);
        }
        let d = params.d();
        for (axis, dims) in [(Axis::X, &widths), (Axis::Y, &heights)] {
            for (index, &size) in dims.iter().enumerate() {
                if size <= d {
                    return Err(TessellationError::CellTooSmall {
                        axis,
                        index,
                        size,
                        d,
                    });
                }
            }
        }
        let prefix = |sizes: &[Fixed]| {
            let mut edges = Vec::with_capacity(sizes.len() + 1);
            let mut acc = Fixed::ZERO;
            edges.push(acc);
            for &s in sizes {
                acc += s;
                edges.push(acc);
            }
            edges
        };
        Ok(Tessellation {
            col_edges: prefix(&widths),
            row_edges: prefix(&heights),
        })
    }

    /// The paper's unit tessellation: `nx × ny` unit squares.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero (unit cells always satisfy the
    /// size constraint because `Params` enforces `rs + l < 1`).
    pub fn unit(nx: u16, ny: u16, params: Params) -> Tessellation {
        Tessellation::new(
            vec![Fixed::ONE; nx as usize],
            vec![Fixed::ONE; ny as usize],
            params,
        )
        .expect("unit cells always satisfy the size constraint")
    }

    /// The cell-index grid (for neighbor enumeration and routing).
    pub fn dims(&self) -> GridDims {
        GridDims::new(
            (self.col_edges.len() - 1) as u16,
            (self.row_edges.len() - 1) as u16,
        )
    }

    /// The boundary coordinate of cell `id` facing `dir`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn boundary(&self, id: CellId, dir: Dir) -> Fixed {
        assert!(self.dims().contains(id), "cell {id} out of bounds");
        match dir {
            Dir::East => self.col_edges[id.i() as usize + 1],
            Dir::West => self.col_edges[id.i() as usize],
            Dir::North => self.row_edges[id.j() as usize + 1],
            Dir::South => self.row_edges[id.j() as usize],
        }
    }

    /// The low/high extents of cell `id` along `axis`.
    pub fn extent(&self, id: CellId, axis: Axis) -> (Fixed, Fixed) {
        match axis {
            Axis::X => (self.boundary(id, Dir::West), self.boundary(id, Dir::East)),
            Axis::Y => (self.boundary(id, Dir::South), self.boundary(id, Dir::North)),
        }
    }

    /// The center point of cell `id`.
    pub fn center(&self, id: CellId) -> Point {
        let (x0, x1) = self.extent(id, Axis::X);
        let (y0, y1) = self.extent(id, Axis::Y);
        Point::new(x0 + (x1 - x0).halve(), y0 + (y1 - y0).halve())
    }

    /// `true` if an `l × l` footprint centered at `pos` lies within cell
    /// `id`'s margins (the tessellation analogue of Invariant 1).
    pub fn within_margins(&self, params: Params, id: CellId, pos: Point) -> bool {
        let h = params.half_l();
        let (x0, x1) = self.extent(id, Axis::X);
        let (y0, y1) = self.extent(id, Axis::Y);
        x0 + h <= pos.x && pos.x <= x1 - h && y0 + h <= pos.y && pos.y <= y1 - h
    }

    /// Total width of the tessellated region.
    pub fn total_width(&self) -> Fixed {
        *self.col_edges.last().expect("nonempty")
    }

    /// Total height of the tessellated region.
    pub fn total_height(&self) -> Fixed {
        *self.row_edges.last().expect("nonempty")
    }
}

/// Error building a [`Tessellation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TessellationError {
    /// No columns or no rows.
    Empty,
    /// A cell dimension does not exceed the spacing requirement `d`.
    CellTooSmall {
        /// Which axis the offending dimension lies on.
        axis: Axis,
        /// The column/row index.
        index: usize,
        /// The offending size.
        size: Fixed,
        /// The required strict lower bound.
        d: Fixed,
    },
}

impl fmt::Display for TessellationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TessellationError::Empty => f.write_str("tessellation needs at least one cell"),
            TessellationError::CellTooSmall {
                axis,
                index,
                size,
                d,
            } => write!(
                f,
                "{axis}-dimension {index} is {size}, but must strictly exceed d = {d}"
            ),
        }
    }
}

impl std::error::Error for TessellationError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::from_milli(250, 50, 200).unwrap() // d = 0.3
    }

    #[test]
    fn unit_matches_integer_boundaries() {
        let t = Tessellation::unit(3, 2, params());
        assert_eq!(t.dims(), GridDims::new(3, 2));
        let c = CellId::new(2, 1);
        assert_eq!(t.boundary(c, Dir::West), Fixed::from_int(2));
        assert_eq!(t.boundary(c, Dir::East), Fixed::from_int(3));
        assert_eq!(t.boundary(c, Dir::South), Fixed::from_int(1));
        assert_eq!(t.boundary(c, Dir::North), Fixed::from_int(2));
        assert_eq!(t.center(c), c.center());
        assert_eq!(t.total_width(), Fixed::from_int(3));
        assert_eq!(t.total_height(), Fixed::from_int(2));
    }

    #[test]
    fn heterogeneous_boundaries_are_prefix_sums() {
        let t = Tessellation::new(
            vec![Fixed::HALF, Fixed::from_milli(2_000)],
            vec![Fixed::from_milli(600)],
            params(),
        )
        .unwrap();
        assert_eq!(t.boundary(CellId::new(0, 0), Dir::East), Fixed::HALF);
        assert_eq!(
            t.boundary(CellId::new(1, 0), Dir::East),
            Fixed::from_milli(2_500)
        );
        assert_eq!(
            t.boundary(CellId::new(0, 0), Dir::North),
            Fixed::from_milli(600)
        );
        assert_eq!(
            t.center(CellId::new(1, 0)),
            Point::new(Fixed::from_milli(1_500), Fixed::from_milli(300))
        );
    }

    #[test]
    fn rejects_too_small_cells() {
        let err = Tessellation::new(
            vec![Fixed::ONE, Fixed::from_milli(300)], // width == d: not strict
            vec![Fixed::ONE],
            params(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            TessellationError::CellTooSmall {
                axis: Axis::X,
                index: 1,
                ..
            }
        ));
        assert!(err.to_string().contains("exceed"));
        assert_eq!(
            Tessellation::new(vec![], vec![Fixed::ONE], params()).unwrap_err(),
            TessellationError::Empty
        );
    }

    #[test]
    fn margins_respect_cell_extents() {
        let t =
            Tessellation::new(vec![Fixed::from_milli(2_000)], vec![Fixed::ONE], params()).unwrap();
        let id = CellId::new(0, 0);
        let p = params();
        assert!(t.within_margins(p, id, t.center(id)));
        // Flush at the wide cell's east margin.
        let flush = Point::new(Fixed::from_milli(2_000) - p.half_l(), Fixed::HALF);
        assert!(t.within_margins(p, id, flush));
        let over = Point::new(
            Fixed::from_milli(2_000) - p.half_l() + Fixed::from_raw(1),
            Fixed::HALF,
        );
        assert!(!t.within_margins(p, id, over));
    }
}
