//! Path distance `ρ` and the target-connected set `TC` (paper §III-B).
//!
//! The paper defines, for a state `x`, the *path distance* `ρ(x, ⟨i,j⟩)` of a
//! cell as its hop distance to the target through non-faulty cells (`∞` for
//! failed or disconnected cells), and `TC(x)` as the set of cells with finite
//! path distance. Both the stabilization analysis (Lemma 6, Corollary 7) and
//! the progress theorem (Theorem 10) are stated over `TC`.

use std::collections::{HashSet, VecDeque};

use crate::{CellId, GridDims};

/// Dense per-cell distances produced by [`path_distances`].
///
/// `None` means `ρ = ∞` (failed or not connected to the target).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Distances {
    dims: GridDims,
    dist: Vec<Option<u32>>,
}

impl Distances {
    /// The path distance `ρ` of `cell`, or `None` for `∞`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds.
    #[inline]
    pub fn get(&self, cell: CellId) -> Option<u32> {
        self.dist[self.dims.index(cell)]
    }

    /// `true` if `cell` is target-connected (`ρ < ∞`).
    #[inline]
    pub fn is_connected(&self, cell: CellId) -> bool {
        self.get(cell).is_some()
    }

    /// The grid dimensions these distances were computed for.
    #[inline]
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// The largest finite distance, or `None` if nothing is connected.
    pub fn eccentricity(&self) -> Option<u32> {
        self.dist.iter().flatten().copied().max()
    }

    /// Iterates over `(cell, ρ(cell))` pairs with finite distance.
    pub fn iter_connected(&self) -> impl Iterator<Item = (CellId, u32)> + '_ {
        self.dist
            .iter()
            .enumerate()
            .filter_map(move |(k, d)| d.map(|d| (self.dims.id_at(k), d)))
    }

    /// Every cell's `ρ`, in [`GridDims::index`] order (`None` for `∞`).
    pub fn by_index(&self) -> &[Option<u32>] {
        &self.dist
    }

    /// Recomputes `ρ` in place for new `failed` flags, one per cell in
    /// [`GridDims::index`] order, by breadth-first search from `target`.
    /// Reuses this value's buffer and `queue`'s, so a caller that keeps
    /// both allocates nothing once they have grown; the queue holds only
    /// the search frontier.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of bounds or `failed` does not hold one
    /// flag per cell.
    pub fn recompute(&mut self, target: CellId, failed: &[bool], queue: &mut VecDeque<usize>) {
        let dims = self.dims;
        assert!(
            dims.contains(target),
            "target {target} out of {dims} bounds"
        );
        assert_eq!(failed.len(), dims.cell_count(), "one failed flag per cell");
        let (nx, ny) = (dims.nx() as usize, dims.ny() as usize);
        self.dist.clear();
        self.dist.resize(dims.cell_count(), None);
        queue.clear();
        let t = dims.index(target);
        if failed[t] {
            return;
        }
        self.dist[t] = Some(0);
        queue.push_back(t);
        while let Some(k) = queue.pop_front() {
            let next_d = self.dist[k].expect("queued cells have distances") + 1;
            let (i, j) = (k % nx, k / nx);
            let nbrs = [
                (i > 0).then(|| k - 1),
                (i + 1 < nx).then(|| k + 1),
                (j > 0).then(|| k - nx),
                (j + 1 < ny).then(|| k + nx),
            ];
            for nk in nbrs.into_iter().flatten() {
                if self.dist[nk].is_none() && !failed[nk] {
                    self.dist[nk] = Some(next_d);
                    queue.push_back(nk);
                }
            }
        }
    }
}

/// Computes the paper's path distance `ρ` from every cell to `target` through
/// non-faulty cells, by breadth-first search; see [`Distances::recompute`]
/// to reuse the buffers across calls.
///
/// `failed` holds one flag per cell in [`GridDims::index`] order, marking
/// the set `F(x)` of crashed cells; they and anything they isolate get
/// distance `None` (`∞`). A failed target yields all-`None`.
///
/// # Panics
///
/// Panics if `target` is out of bounds or `failed` does not hold one flag
/// per cell.
///
/// ```
/// use cellflow_grid::{path_distances, CellId, GridDims};
///
/// let dims = GridDims::square(3);
/// let mut failed = vec![false; dims.cell_count()];
/// for c in [CellId::new(1, 0), CellId::new(1, 1)] {
///     failed[dims.index(c)] = true;
/// }
/// let rho = path_distances(dims, CellId::new(0, 0), &failed);
/// assert_eq!(rho.get(CellId::new(0, 0)), Some(0));
/// // ⟨2,0⟩ must route around the failed column, over the top row:
/// // ⟨2,0⟩→⟨2,1⟩→⟨2,2⟩→⟨1,2⟩→⟨0,2⟩→⟨0,1⟩→⟨0,0⟩.
/// assert_eq!(rho.get(CellId::new(2, 0)), Some(6));
/// assert_eq!(rho.get(CellId::new(1, 0)), None); // failed ⇒ ∞
/// ```
pub fn path_distances(dims: GridDims, target: CellId, failed: &[bool]) -> Distances {
    let mut rho = Distances {
        dims,
        dist: Vec::new(),
    };
    rho.recompute(target, failed, &mut VecDeque::new());
    rho
}

/// The target-connected set `TC(x)`: all cells with finite path distance,
/// for `failed` flags as in [`path_distances`].
///
/// ```
/// use cellflow_grid::{target_connected, CellId, GridDims};
///
/// let dims = GridDims::square(2);
/// let tc = target_connected(dims, CellId::new(0, 0), &[false; 4]);
/// assert_eq!(tc.len(), 4);
/// ```
pub fn target_connected(dims: GridDims, target: CellId, failed: &[bool]) -> HashSet<CellId> {
    path_distances(dims, target, failed)
        .iter_connected()
        .map(|(c, _)| c)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u16, j: u16) -> CellId {
        CellId::new(i, j)
    }

    /// `failed` flags for `dims` with exactly `cells` set.
    fn flags(dims: GridDims, cells: &[CellId]) -> Vec<bool> {
        let mut failed = vec![false; dims.cell_count()];
        for &c in cells {
            failed[dims.index(c)] = true;
        }
        failed
    }

    #[test]
    fn no_failures_is_manhattan() {
        let dims = GridDims::square(5);
        let target = id(2, 2);
        let rho = path_distances(dims, target, &flags(dims, &[]));
        for c in dims.iter() {
            assert_eq!(rho.get(c), Some(c.manhattan(target)), "cell {c}");
        }
        assert_eq!(rho.eccentricity(), Some(4));
    }

    #[test]
    fn failed_cells_are_infinite() {
        let dims = GridDims::square(3);
        let failed = flags(dims, &[id(1, 1)]);
        let rho = path_distances(dims, id(0, 0), &failed);
        assert_eq!(rho.get(id(1, 1)), None);
        assert!(!rho.is_connected(id(1, 1)));
        // Others take detours around the failed center.
        assert_eq!(rho.get(id(2, 2)), Some(4));
    }

    #[test]
    fn wall_disconnects_region() {
        let dims = GridDims::square(3);
        // Vertical wall at column 1 separates column 2 from the target at 0,1.
        let failed = flags(dims, &[id(1, 0), id(1, 1), id(1, 2)]);
        let rho = path_distances(dims, id(0, 1), &failed);
        for j in 0..3 {
            assert_eq!(rho.get(id(2, j)), None, "⟨2,{j}⟩ should be isolated");
            assert!(rho.is_connected(id(0, j)));
        }
        let tc = target_connected(dims, id(0, 1), &failed);
        assert_eq!(tc.len(), 3);
    }

    #[test]
    fn failed_target_disconnects_everything() {
        let dims = GridDims::square(2);
        let failed = flags(dims, &[id(0, 0)]);
        let rho = path_distances(dims, id(0, 0), &failed);
        for c in dims.iter() {
            assert_eq!(rho.get(c), None);
        }
        assert_eq!(rho.eccentricity(), None);
        assert!(target_connected(dims, id(0, 0), &failed).is_empty());
    }

    #[test]
    fn iter_connected_lists_pairs() {
        let dims = GridDims::square(2);
        let rho = path_distances(dims, id(1, 1), &flags(dims, &[]));
        let mut pairs: Vec<_> = rho.iter_connected().collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![(id(0, 0), 2), (id(0, 1), 1), (id(1, 0), 1), (id(1, 1), 0)]
        );
        assert_eq!(rho.dims(), dims);
    }

    #[test]
    fn recompute_matches_a_fresh_search() {
        let dims = GridDims::new(4, 3);
        let target = id(3, 2);
        let mut failed = vec![false; dims.cell_count()];
        let mut rho = path_distances(dims, target, &failed);
        let mut queue = VecDeque::new();
        for wall in [
            [id(2, 2), id(2, 1)],
            [id(1, 0), id(1, 1)],
            [id(3, 2), id(0, 0)],
        ] {
            for c in wall {
                failed[dims.index(c)] = !failed[dims.index(c)];
            }
            rho.recompute(target, &failed, &mut queue);
            assert_eq!(rho, path_distances(dims, target, &failed));
            assert_eq!(rho.by_index().len(), dims.cell_count());
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_bounds_target_panics() {
        path_distances(GridDims::square(2), id(2, 2), &[false; 4]);
    }
}
