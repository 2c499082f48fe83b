//! Cardinal directions and axes on the partitioned plane.

use core::fmt;

/// One of the two coordinate axes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Axis {
    /// The horizontal (`x`) axis.
    X,
    /// The vertical (`y`) axis.
    Y,
}

/// A cardinal direction of motion on the grid.
///
/// In the paper a cell moves its entities toward one of its four neighbors;
/// `Dir` names that relationship. `East` increases `x` (column index `i`),
/// `North` increases `y` (row index `j`), matching the paper's coordinate
/// system where cell `⟨i,j⟩` occupies the unit square with bottom-left corner
/// `(i, j)`.
///
/// ```
/// use cellflow_geom::{Axis, Dir};
///
/// assert_eq!(Dir::East.offset(), (1, 0));
/// assert_eq!(Dir::East.opposite(), Dir::West);
/// assert_eq!(Dir::North.axis(), Axis::Y);
/// assert!(Dir::East.is_turn_from(Dir::North));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dir {
    /// Toward increasing `x` (neighbor `⟨i+1, j⟩`).
    East,
    /// Toward decreasing `x` (neighbor `⟨i−1, j⟩`).
    West,
    /// Toward increasing `y` (neighbor `⟨i, j+1⟩`).
    North,
    /// Toward decreasing `y` (neighbor `⟨i, j−1⟩`).
    South,
}

impl Dir {
    /// All four directions, in a fixed deterministic order.
    pub const ALL: [Dir; 4] = [Dir::East, Dir::West, Dir::North, Dir::South];

    /// The `(Δi, Δj)` cell-index offset of the neighbor in this direction.
    #[inline]
    pub const fn offset(self) -> (i32, i32) {
        match self {
            Dir::East => (1, 0),
            Dir::West => (-1, 0),
            Dir::North => (0, 1),
            Dir::South => (0, -1),
        }
    }

    /// The reverse direction.
    #[inline]
    pub const fn opposite(self) -> Dir {
        match self {
            Dir::East => Dir::West,
            Dir::West => Dir::East,
            Dir::North => Dir::South,
            Dir::South => Dir::North,
        }
    }

    /// The axis along which this direction moves.
    #[inline]
    pub const fn axis(self) -> Axis {
        match self {
            Dir::East | Dir::West => Axis::X,
            Dir::North | Dir::South => Axis::Y,
        }
    }

    /// `+1` if this direction increases its axis coordinate, `-1` otherwise.
    #[inline]
    pub const fn sign(self) -> i64 {
        match self {
            Dir::East | Dir::North => 1,
            Dir::West | Dir::South => -1,
        }
    }

    /// `true` if moving from heading `prev` to `self` is a 90° turn.
    ///
    /// Used when counting path complexity for the paper's Figure 8 experiment.
    #[inline]
    pub fn is_turn_from(self, prev: Dir) -> bool {
        self.axis() != prev.axis()
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dir::East => "east",
            Dir::West => "west",
            Dir::North => "north",
            Dir::South => "south",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Axis::X => "x",
            Axis::Y => "y",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_is_involutive() {
        for d in Dir::ALL {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
        }
    }

    #[test]
    fn offsets_are_unit_steps() {
        for d in Dir::ALL {
            let (di, dj) = d.offset();
            assert_eq!(di.abs() + dj.abs(), 1);
            let (oi, oj) = d.opposite().offset();
            assert_eq!((di + oi, dj + oj), (0, 0));
        }
    }

    #[test]
    fn axis_and_sign_consistent_with_offset() {
        for d in Dir::ALL {
            let (di, dj) = d.offset();
            match d.axis() {
                Axis::X => {
                    assert_eq!(di as i64, d.sign());
                    assert_eq!(dj, 0);
                }
                Axis::Y => {
                    assert_eq!(dj as i64, d.sign());
                    assert_eq!(di, 0);
                }
            }
        }
    }

    #[test]
    fn turns_only_across_axes() {
        assert!(Dir::East.is_turn_from(Dir::North));
        assert!(Dir::South.is_turn_from(Dir::West));
        assert!(!Dir::East.is_turn_from(Dir::West));
        assert!(!Dir::North.is_turn_from(Dir::North));
    }

    #[test]
    fn display_names() {
        assert_eq!(Dir::East.to_string(), "east");
        assert_eq!(Axis::Y.to_string(), "y");
    }
}
