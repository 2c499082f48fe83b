//! Property-based tests for the grid substrate.

use std::collections::HashSet;

use cellflow_grid::{path_distances, CellId, GridDims, Path};
use proptest::prelude::*;

fn dims() -> impl Strategy<Value = GridDims> {
    (1u16..=12, 1u16..=12).prop_map(|(nx, ny)| GridDims::new(nx, ny))
}

fn dims_and_cell() -> impl Strategy<Value = (GridDims, CellId)> {
    dims().prop_flat_map(|d| (0..d.nx(), 0..d.ny()).prop_map(move |(i, j)| (d, CellId::new(i, j))))
}

/// `failed` flags for `d`, one per cell in index order, set on `failed`.
fn flags<'a>(d: GridDims, failed: impl IntoIterator<Item = &'a CellId>) -> Vec<bool> {
    let mut flags = vec![false; d.cell_count()];
    for &c in failed {
        flags[d.index(c)] = true;
    }
    flags
}

fn dims_cell_failures() -> impl Strategy<Value = (GridDims, CellId, HashSet<CellId>)> {
    dims_and_cell().prop_flat_map(|(d, t)| {
        proptest::collection::hash_set(
            (0..d.nx(), 0..d.ny()).prop_map(|(i, j)| CellId::new(i, j)),
            0..=(d.cell_count() / 2).max(1),
        )
        .prop_map(move |f| (d, t, f))
    })
}

proptest! {
    #[test]
    fn neighbors_are_in_bounds_and_adjacent((d, c) in dims_and_cell()) {
        for n in d.neighbors(c) {
            prop_assert!(d.contains(n));
            prop_assert!(c.is_neighbor(n));
        }
        prop_assert!(d.neighbors(c).count() <= 4);
    }

    #[test]
    fn index_bijection(d in dims()) {
        let mut seen = vec![false; d.cell_count()];
        for c in d.iter() {
            let k = d.index(c);
            prop_assert!(!seen[k], "duplicate index {k}");
            seen[k] = true;
            prop_assert_eq!(d.id_at(k), c);
        }
        prop_assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn with_turns_meets_spec(
        (d, start) in dims_and_cell(),
        len in 1usize..=16,
        turns in 0usize..=6,
    ) {
        if let Some(p) = Path::with_turns(d, start, len, turns) {
            prop_assert_eq!(p.len(), len);
            prop_assert_eq!(p.turns(), turns);
            prop_assert!(p.fits(d));
            prop_assert_eq!(*p.source(), start);
            // Validity: re-validate through the constructor.
            prop_assert!(Path::new(p.cells().to_vec()).is_ok());
        }
        // When the generator declines, the spec was impossible for a
        // staircase from this corner (too many turns for the length, or the
        // staircase leaves the grid); there is nothing further to assert.
    }

    #[test]
    fn path_distance_matches_manhattan_without_failures((d, t) in dims_and_cell()) {
        let rho = path_distances(d, t, &flags(d, &[]));
        for c in d.iter() {
            prop_assert_eq!(rho.get(c), Some(c.manhattan(t)));
        }
    }

    #[test]
    fn path_distance_is_lipschitz((d, t, failed) in dims_cell_failures()) {
        // Adjacent live cells differ by at most 1 in finite distance.
        let rho = path_distances(d, t, &flags(d, &failed));
        for c in d.iter() {
            if let Some(dc) = rho.get(c) {
                prop_assert!(!failed.contains(&c));
                for n in d.neighbors(c) {
                    if let Some(dn) = rho.get(n) {
                        prop_assert!(dc.abs_diff(dn) <= 1, "{c}:{dc} vs {n}:{dn}");
                    }
                }
                // Every non-target connected cell has a strictly closer neighbor.
                if dc > 0 {
                    prop_assert!(
                        d.neighbors(c).any(|n| rho.get(n) == Some(dc - 1)),
                        "{c} at {dc} has no downhill neighbor"
                    );
                }
            }
        }
    }

    #[test]
    fn failed_cells_never_connected((d, t, failed) in dims_cell_failures()) {
        let rho = path_distances(d, t, &flags(d, &failed));
        for c in &failed {
            prop_assert_eq!(rho.get(*c), None);
        }
    }

    #[test]
    fn carve_failures_partitions_grid((d, start) in dims_and_cell(), len in 1usize..=10) {
        if let Some(p) = Path::with_turns(d, start, len, 0) {
            let carved = p.carve_failures(d);
            prop_assert_eq!(carved.len() + p.len(), d.cell_count());
            // Routing restricted to the carved grid gives exactly the path cells.
            let rho = path_distances(d, *p.target(), &flags(d, &carved));
            for (k, c) in p.iter().enumerate() {
                prop_assert_eq!(rho.get(*c), Some((p.len() - 1 - k) as u32));
            }
        }
    }
}
