//! 3-D geometry: axes, directions, points, cube-cell identifiers, dimensions.

use core::fmt;

use cellflow_geom::Fixed;
use cellflow_routing::Topology;

/// One of the three coordinate axes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Axis3 {
    /// Horizontal `x`.
    X,
    /// Horizontal `y`.
    Y,
    /// Vertical `z` (altitude).
    Z,
}

/// One of the six face directions of a cube cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dir3 {
    /// `+x` (neighbor `⟨i+1, j, k⟩`).
    East,
    /// `−x`.
    West,
    /// `+y`.
    North,
    /// `−y`.
    South,
    /// `+z` (climb).
    Up,
    /// `−z` (descend).
    Down,
}

impl Dir3 {
    /// All six directions in a fixed deterministic order.
    pub const ALL: [Dir3; 6] = [
        Dir3::East,
        Dir3::West,
        Dir3::North,
        Dir3::South,
        Dir3::Up,
        Dir3::Down,
    ];

    /// The `(Δi, Δj, Δk)` neighbor offset.
    #[inline]
    pub const fn offset(self) -> (i32, i32, i32) {
        match self {
            Dir3::East => (1, 0, 0),
            Dir3::West => (-1, 0, 0),
            Dir3::North => (0, 1, 0),
            Dir3::South => (0, -1, 0),
            Dir3::Up => (0, 0, 1),
            Dir3::Down => (0, 0, -1),
        }
    }

    /// The reverse direction.
    #[inline]
    pub const fn opposite(self) -> Dir3 {
        match self {
            Dir3::East => Dir3::West,
            Dir3::West => Dir3::East,
            Dir3::North => Dir3::South,
            Dir3::South => Dir3::North,
            Dir3::Up => Dir3::Down,
            Dir3::Down => Dir3::Up,
        }
    }

    /// The axis this direction moves along.
    #[inline]
    pub const fn axis(self) -> Axis3 {
        match self {
            Dir3::East | Dir3::West => Axis3::X,
            Dir3::North | Dir3::South => Axis3::Y,
            Dir3::Up | Dir3::Down => Axis3::Z,
        }
    }

    /// `+1` for the increasing direction of the axis, `−1` otherwise.
    #[inline]
    pub const fn sign(self) -> i64 {
        match self {
            Dir3::East | Dir3::North | Dir3::Up => 1,
            _ => -1,
        }
    }
}

impl fmt::Display for Dir3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dir3::East => "east",
            Dir3::West => "west",
            Dir3::North => "north",
            Dir3::South => "south",
            Dir3::Up => "up",
            Dir3::Down => "down",
        };
        f.write_str(s)
    }
}

/// An exact position in 3-space, in cell-side units.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Point3 {
    /// `x` coordinate.
    pub x: Fixed,
    /// `y` coordinate.
    pub y: Fixed,
    /// `z` coordinate (altitude).
    pub z: Fixed,
}

impl Point3 {
    /// Creates a point.
    #[inline]
    pub const fn new(x: Fixed, y: Fixed, z: Fixed) -> Point3 {
        Point3 { x, y, z }
    }

    /// The coordinate along `axis`.
    #[inline]
    pub fn along(self, axis: Axis3) -> Fixed {
        match axis {
            Axis3::X => self.x,
            Axis3::Y => self.y,
            Axis3::Z => self.z,
        }
    }

    /// Replaces the coordinate along `axis`.
    #[inline]
    pub fn with_along(self, axis: Axis3, value: Fixed) -> Point3 {
        match axis {
            Axis3::X => Point3 { x: value, ..self },
            Axis3::Y => Point3 { y: value, ..self },
            Axis3::Z => Point3 { z: value, ..self },
        }
    }

    /// The point moved by `distance` along `dir`.
    #[inline]
    pub fn translate(self, dir: Dir3, distance: Fixed) -> Point3 {
        let axis = dir.axis();
        self.with_along(axis, self.along(axis) + distance * dir.sign())
    }

    /// Component-wise absolute differences.
    #[inline]
    pub fn abs_diff(self, other: Point3) -> (Fixed, Fixed, Fixed) {
        (
            (self.x - other.x).abs(),
            (self.y - other.y).abs(),
            (self.z - other.z).abs(),
        )
    }

    /// Manhattan (L1) distance.
    #[inline]
    pub fn manhattan(self, other: Point3) -> Fixed {
        let (dx, dy, dz) = self.abs_diff(other);
        dx + dy + dz
    }
}

impl fmt::Display for Point3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// The 3-D separation predicate: centers differ by at least `d` along **some**
/// axis — the direct generalization of the paper's `Safe` clause.
#[inline]
pub fn sep_ok3(p: Point3, q: Point3, d: Fixed) -> bool {
    let (dx, dy, dz) = p.abs_diff(q);
    dx >= d || dy >= d || dz >= d
}

/// The identifier `⟨i, j, k⟩` of a unit-cube cell whose lowest corner is
/// `(i, j, k)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId3 {
    i: u16,
    j: u16,
    k: u16,
}

impl CellId3 {
    /// Creates the identifier `⟨i, j, k⟩`.
    #[inline]
    pub const fn new(i: u16, j: u16, k: u16) -> CellId3 {
        CellId3 { i, j, k }
    }

    /// Column (x) index.
    #[inline]
    pub const fn i(self) -> u16 {
        self.i
    }

    /// Row (y) index.
    #[inline]
    pub const fn j(self) -> u16 {
        self.j
    }

    /// Layer (z) index.
    #[inline]
    pub const fn k(self) -> u16 {
        self.k
    }

    /// The neighbor one step along `dir`, or `None` on index underflow.
    #[inline]
    pub fn step(self, dir: Dir3) -> Option<CellId3> {
        let (di, dj, dk) = dir.offset();
        Some(CellId3::new(
            self.i.checked_add_signed(di as i16)?,
            self.j.checked_add_signed(dj as i16)?,
            self.k.checked_add_signed(dk as i16)?,
        ))
    }

    /// The direction from `self` to the adjacent cell `other`, if adjacent.
    pub fn dir_to(self, other: CellId3) -> Option<Dir3> {
        Dir3::ALL.into_iter().find(|&d| self.step(d) == Some(other))
    }

    /// Manhattan distance between identifiers.
    #[inline]
    pub fn manhattan(self, other: CellId3) -> u32 {
        self.i.abs_diff(other.i) as u32
            + self.j.abs_diff(other.j) as u32
            + self.k.abs_diff(other.k) as u32
    }

    /// The center `(i + ½, j + ½, k + ½)` of the cube.
    pub fn center(self) -> Point3 {
        Point3::new(
            Fixed::from_int(self.i as i64) + Fixed::HALF,
            Fixed::from_int(self.j as i64) + Fixed::HALF,
            Fixed::from_int(self.k as i64) + Fixed::HALF,
        )
    }

    /// The coordinate of the face of this cube toward `dir`.
    pub fn boundary(self, dir: Dir3) -> Fixed {
        let base = match dir.axis() {
            Axis3::X => self.i,
            Axis3::Y => self.j,
            Axis3::Z => self.k,
        } as i64;
        if dir.sign() > 0 {
            Fixed::from_int(base + 1)
        } else {
            Fixed::from_int(base)
        }
    }
}

impl fmt::Debug for CellId3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}, {}⟩", self.i, self.j, self.k)
    }
}

impl fmt::Display for CellId3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}, {}⟩", self.i, self.j, self.k)
    }
}

/// Dimensions of a rectangular box of unit-cube cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dims3 {
    nx: u16,
    ny: u16,
    nz: u16,
}

impl Dims3 {
    /// An `nx × ny × nz` box.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(nx: u16, ny: u16, nz: u16) -> Dims3 {
        assert!(nx > 0 && ny > 0 && nz > 0, "dimensions must be positive");
        Dims3 { nx, ny, nz }
    }

    /// Extent along x.
    #[inline]
    pub const fn nx(self) -> u16 {
        self.nx
    }

    /// Extent along y.
    #[inline]
    pub const fn ny(self) -> u16 {
        self.ny
    }

    /// Extent along z.
    #[inline]
    pub const fn nz(self) -> u16 {
        self.nz
    }

    /// Total number of cells.
    #[inline]
    pub const fn cell_count(self) -> usize {
        self.nx as usize * self.ny as usize * self.nz as usize
    }

    /// `true` if `id` is inside the box.
    #[inline]
    pub const fn contains(self, id: CellId3) -> bool {
        id.i() < self.nx && id.j() < self.ny && id.k() < self.nz
    }

    /// Dense linear index (x-major within y within z).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn index(self, id: CellId3) -> usize {
        assert!(self.contains(id), "cell {id} out of bounds");
        (id.k() as usize * self.ny as usize + id.j() as usize) * self.nx as usize + id.i() as usize
    }

    /// Inverse of [`Dims3::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn id_at(self, index: usize) -> CellId3 {
        assert!(index < self.cell_count(), "index {index} out of bounds");
        let i = (index % self.nx as usize) as u16;
        let rest = index / self.nx as usize;
        let j = (rest % self.ny as usize) as u16;
        let k = (rest / self.ny as usize) as u16;
        CellId3::new(i, j, k)
    }

    /// Iterates all cells in index order.
    pub fn iter(self) -> impl Iterator<Item = CellId3> {
        (0..self.cell_count()).map(move |x| self.id_at(x))
    }

    /// The in-bounds neighbors of `id` (up to six).
    pub fn neighbors3(self, id: CellId3) -> impl Iterator<Item = CellId3> {
        Dir3::ALL
            .into_iter()
            .filter_map(move |d| id.step(d))
            .filter(move |&n| self.contains(n))
    }
}

impl fmt::Display for Dims3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{}×{}", self.nx, self.ny, self.nz)
    }
}

impl Topology for Dims3 {
    type Node = CellId3;

    fn nodes(&self) -> Vec<CellId3> {
        self.iter().collect()
    }

    fn neighbors(&self, node: CellId3) -> Vec<CellId3> {
        self.neighbors3(node).collect()
    }

    fn node_count(&self) -> usize {
        self.cell_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirs_are_involutive_unit_steps() {
        for d in Dir3::ALL {
            assert_eq!(d.opposite().opposite(), d);
            let (di, dj, dk) = d.offset();
            assert_eq!(di.abs() + dj.abs() + dk.abs(), 1);
        }
    }

    #[test]
    fn point_translate_round_trip() {
        let p = Point3::new(Fixed::HALF, Fixed::ONE, Fixed::from_milli(2_500));
        let step = Fixed::from_milli(123);
        for d in Dir3::ALL {
            assert_eq!(p.translate(d, step).translate(d.opposite(), step), p);
            assert_eq!(p.manhattan(p.translate(d, step)), step);
        }
    }

    #[test]
    fn sep3_requires_one_axis() {
        let d = Fixed::from_milli(300);
        let p = Point3::default();
        assert!(sep_ok3(p, Point3::new(d, Fixed::ZERO, Fixed::ZERO), d));
        assert!(sep_ok3(p, Point3::new(Fixed::ZERO, Fixed::ZERO, d), d));
        let eps = Fixed::from_raw(1);
        assert!(!sep_ok3(p, Point3::new(d - eps, d - eps, d - eps), d));
    }

    #[test]
    fn id_step_and_dir_to() {
        let c = CellId3::new(1, 1, 1);
        for d in Dir3::ALL {
            let n = c.step(d).unwrap();
            assert_eq!(c.dir_to(n), Some(d));
            assert_eq!(n.dir_to(c), Some(d.opposite()));
            assert_eq!(c.manhattan(n), 1);
        }
        assert_eq!(CellId3::new(0, 0, 0).step(Dir3::Down), None);
        assert_eq!(c.dir_to(CellId3::new(2, 2, 1)), None);
    }

    #[test]
    fn boundaries() {
        let c = CellId3::new(2, 3, 4);
        assert_eq!(c.boundary(Dir3::East), Fixed::from_int(3));
        assert_eq!(c.boundary(Dir3::West), Fixed::from_int(2));
        assert_eq!(c.boundary(Dir3::Up), Fixed::from_int(5));
        assert_eq!(c.boundary(Dir3::Down), Fixed::from_int(4));
        assert_eq!(c.center().z, Fixed::from_milli(4_500));
    }

    #[test]
    fn dims_index_bijection() {
        let d = Dims3::new(3, 4, 2);
        assert_eq!(d.cell_count(), 24);
        for (x, id) in d.iter().enumerate() {
            assert_eq!(d.index(id), x);
            assert_eq!(d.id_at(x), id);
        }
    }

    #[test]
    fn neighbor_counts() {
        let d = Dims3::new(3, 3, 3);
        assert_eq!(d.neighbors3(CellId3::new(0, 0, 0)).count(), 3); // corner
        assert_eq!(d.neighbors3(CellId3::new(1, 0, 0)).count(), 4); // edge
        assert_eq!(d.neighbors3(CellId3::new(1, 1, 0)).count(), 5); // face
        assert_eq!(d.neighbors3(CellId3::new(1, 1, 1)).count(), 6); // interior
    }

    #[test]
    fn routing_over_3d_topology() {
        // The routing substrate works unchanged over Dims3.
        use cellflow_routing::{Dist, RoutingTable};
        let dims = Dims3::new(3, 3, 3);
        let target = CellId3::new(1, 1, 1);
        let mut t = RoutingTable::new(dims, target);
        t.run_to_fixpoint(100).unwrap();
        for c in dims.iter() {
            assert_eq!(t.dist(c), Dist::Finite(c.manhattan(target)), "{c}");
        }
        assert!(t.is_stabilized());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_panic() {
        let _ = Dims3::new(0, 1, 1);
    }
}
