//! Executable forms of the paper's safety predicates and invariants.
//!
//! * [`check_safe`] — the top-level safety property `Safe(x)` of Theorem 5;
//! * [`check_invariant1`] — Invariant 1 (entities stay within cell margins);
//! * [`check_invariant2`] — Invariant 2 (`Members` sets are pairwise disjoint);
//! * [`check_h`] — predicate `H(x)` (a granted signal implies an empty
//!   `d`-strip at the shared boundary), which must hold at signal-computation
//!   time (Lemma 3).
//!
//! Each checker returns a rich violation value so failing tests and the model
//! checker can explain exactly what went wrong.

use core::fmt;
use std::collections::HashMap;

use cellflow_geom::{sep_ok, Point};
use cellflow_grid::CellId;

use crate::{gap_free_toward, Entity, EntityId, StateView, SystemConfig, SystemState};

/// A violation of `Safe(x)`: two entities on one cell within `d` on both axes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SafetyViolation {
    /// The cell holding both entities.
    pub cell: CellId,
    /// One offending entity.
    pub first: Entity,
    /// The other offending entity.
    pub second: Entity,
}

impl fmt::Display for SafetyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "entities {} and {} on cell {} are within d on both axes",
            self.first, self.second, self.cell
        )
    }
}

impl std::error::Error for SafetyViolation {}

/// Checks the paper's safety property (Theorem 5): for every cell and every
/// pair of distinct entities on it, the centers differ by at least `d = rs+l`
/// along at least one axis. Takes a `&SystemState` or a [`StateView`].
///
/// # Errors
///
/// Returns the first violating pair found (deterministic order).
pub fn check_safe<'a>(
    config: &SystemConfig,
    state: impl Into<StateView<'a>>,
) -> Result<(), SafetyViolation> {
    let state = state.into();
    check_safe_in(config, state, 0..state.cell_count())
}

/// [`check_safe`] over the cells at the given arena indices only, visited
/// in the order given. Empty cells can never violate `Safe`, so scanning
/// just the occupied cells in ascending order finds the same first pair as
/// the full scan.
///
/// # Errors
///
/// Returns the first violating pair found.
pub(crate) fn check_safe_in(
    config: &SystemConfig,
    state: StateView<'_>,
    cells: impl IntoIterator<Item = usize>,
) -> Result<(), SafetyViolation> {
    let dims = config.dims();
    let d = config.params().d();
    for k in cells {
        let mut rest = state.members(k);
        while let Some(first) = rest.next() {
            for second in rest.clone() {
                if !sep_ok(first.pos, second.pos, d) {
                    return Err(SafetyViolation {
                        cell: dims.id_at(k),
                        first,
                        second,
                    });
                }
            }
        }
    }
    Ok(())
}

/// A violation of Invariant 1: an entity's footprint protrudes past its cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MarginViolation {
    /// The cell claiming the entity.
    pub cell: CellId,
    /// The offending entity.
    pub entity: Entity,
}

impl fmt::Display for MarginViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "entity {} protrudes outside cell {} (Invariant 1)",
            self.entity, self.cell
        )
    }
}

impl std::error::Error for MarginViolation {}

/// Checks Invariant 1: every entity's center obeys
/// `i + l/2 ≤ px ≤ i+1 − l/2` and `j + l/2 ≤ py ≤ j+1 − l/2` for its cell
/// `⟨i,j⟩` — footprints never straddle cell boundaries.
///
/// # Errors
///
/// Returns the first protruding entity found.
pub fn check_invariant1<'a>(
    config: &SystemConfig,
    state: impl Into<StateView<'a>>,
) -> Result<(), MarginViolation> {
    let state = state.into();
    check_invariant1_in(config, state, 0..state.cell_count())
}

/// [`check_invariant1`] over the cells at the given arena indices only,
/// visited in the order given (see [`check_safe_in`]).
///
/// # Errors
///
/// Returns the first protruding entity found.
pub(crate) fn check_invariant1_in(
    config: &SystemConfig,
    state: StateView<'_>,
    cells: impl IntoIterator<Item = usize>,
) -> Result<(), MarginViolation> {
    let dims = config.dims();
    for k in cells {
        let id = dims.id_at(k);
        for e in state.members(k) {
            if !crate::source::within_cell_margins(config.params(), id, e.pos) {
                return Err(MarginViolation {
                    cell: id,
                    entity: e,
                });
            }
        }
    }
    Ok(())
}

/// A violation of Invariant 2: one entity identifier in two cells' `Members`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DisjointnessViolation {
    /// The shared identifier.
    pub entity: EntityId,
    /// First cell claiming it.
    pub first_cell: CellId,
    /// Second cell claiming it.
    pub second_cell: CellId,
}

impl fmt::Display for DisjointnessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "entity {} appears in both {} and {} (Invariant 2)",
            self.entity, self.first_cell, self.second_cell
        )
    }
}

impl std::error::Error for DisjointnessViolation {}

/// Checks Invariant 2: the `Members` sets of distinct cells are disjoint
/// (every entity lives on exactly one cell).
///
/// # Errors
///
/// Returns the first doubly-claimed entity found.
pub fn check_invariant2<'a>(
    config: &SystemConfig,
    state: impl Into<StateView<'a>>,
) -> Result<(), DisjointnessViolation> {
    let state = state.into();
    check_invariant2_in(config, state, 0..state.cell_count())
}

/// [`check_invariant2`] among the cells at the given arena indices only,
/// visited in the order given (see [`check_safe_in`]).
///
/// # Errors
///
/// Returns the first doubly-claimed entity found.
pub(crate) fn check_invariant2_in(
    config: &SystemConfig,
    state: StateView<'_>,
    cells: impl IntoIterator<Item = usize>,
) -> Result<(), DisjointnessViolation> {
    let dims = config.dims();
    let mut owner: HashMap<EntityId, CellId> = HashMap::new();
    for k in cells {
        let id = dims.id_at(k);
        for eid in state.members(k).map(|e| e.id) {
            if let Some(&prev) = owner.get(&eid) {
                return Err(DisjointnessViolation {
                    entity: eid,
                    first_cell: prev,
                    second_cell: id,
                });
            }
            owner.insert(eid, id);
        }
    }
    Ok(())
}

/// A violation of predicate `H`: a cell granted a neighbor while an entity sat
/// inside the promised boundary strip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HViolation {
    /// The granting cell.
    pub cell: CellId,
    /// The neighbor it granted.
    pub granted: CellId,
    /// An entity inside the strip that should be empty.
    pub witness: Entity,
}

impl fmt::Display for HViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {} granted {} but {} sits inside the d-strip (predicate H)",
            self.cell, self.granted, self.witness
        )
    }
}

impl std::error::Error for HViolation {}

/// Checks predicate `H(x)`: whenever `signal_{i,j} = ⟨m,n⟩`, the boundary
/// strip of width `d` toward `⟨m,n⟩` contains no entity footprint of
/// `⟨i,j⟩`'s members.
///
/// `H` is **not** an invariant of reachable states (granted cells' entities
/// may move during the same round) — it must hold at the point the `Signal`
/// function just ran, which is what Lemma 3 establishes and what callers
/// verify by invoking this right after
/// [`signal_phase`](crate::signal_phase).
///
/// # Errors
///
/// Returns the first witness entity found inside a promised strip.
pub fn check_h(config: &SystemConfig, state: &SystemState) -> Result<(), HViolation> {
    let dims = config.dims();
    for id in dims.iter() {
        let cell = state.cell(dims, id);
        let Some(granted) = cell.signal else { continue };
        let Some(dir) = id.dir_to(granted) else {
            continue;
        };
        // Locate any member violating the strip.
        for e in cell.entities() {
            let single: [Point; 1] = [e.pos];
            if !gap_free_toward(config.params(), id, dir, &single) {
                return Err(HViolation {
                    cell: id,
                    granted,
                    witness: e,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{route_phase, signal_phase, Params, SystemConfig};
    use cellflow_geom::Fixed;
    use cellflow_grid::GridDims;

    fn config() -> SystemConfig {
        SystemConfig::new(
            GridDims::square(3),
            CellId::new(2, 1),
            Params::from_milli(250, 50, 100).unwrap(), // d = 0.3
        )
        .unwrap()
    }

    fn pt(xm: i64, ym: i64) -> Point {
        Point::new(Fixed::from_milli(xm), Fixed::from_milli(ym))
    }

    #[test]
    fn safe_accepts_separated_and_rejects_close() {
        let cfg = config();
        let dims = cfg.dims();
        let mut s = cfg.initial_state();
        let cell = CellId::new(1, 1);
        s.cell_mut(dims, cell)
            .members
            .insert(EntityId(0), pt(1_200, 1_500));
        s.cell_mut(dims, cell)
            .members
            .insert(EntityId(1), pt(1_500, 1_500)); // Δx = 0.3 = d ✓
        assert_eq!(check_safe(&cfg, &s), Ok(()));
        // Move the second within d on both axes.
        s.cell_mut(dims, cell)
            .members
            .insert(EntityId(1), pt(1_450, 1_600));
        let v = check_safe(&cfg, &s).unwrap_err();
        assert_eq!(v.cell, cell);
        assert!(v.to_string().contains("within d"));
        // Entities on *different* cells may be close (only per-cell safety).
        let mut s2 = cfg.initial_state();
        s2.cell_mut(dims, CellId::new(0, 1))
            .members
            .insert(EntityId(0), pt(875, 1_500));
        s2.cell_mut(dims, CellId::new(1, 1))
            .members
            .insert(EntityId(1), pt(1_125, 1_500));
        assert_eq!(check_safe(&cfg, &s2), Ok(()));
    }

    #[test]
    fn invariant1_margins() {
        let cfg = config();
        let dims = cfg.dims();
        let mut s = cfg.initial_state();
        let cell = CellId::new(1, 1);
        // Flush at margin: fine.
        s.cell_mut(dims, cell)
            .members
            .insert(EntityId(0), pt(1_125, 1_875));
        assert_eq!(check_invariant1(&cfg, &s), Ok(()));
        // Past the margin: violation.
        s.cell_mut(dims, cell)
            .members
            .insert(EntityId(1), pt(1_100, 1_500));
        let v = check_invariant1(&cfg, &s).unwrap_err();
        assert_eq!(v.cell, cell);
        assert_eq!(v.entity.id, EntityId(1));
        assert!(v.to_string().contains("Invariant 1"));
    }

    #[test]
    fn invariant2_disjointness() {
        let cfg = config();
        let dims = cfg.dims();
        let mut s = cfg.initial_state();
        s.cell_mut(dims, CellId::new(0, 0))
            .members
            .insert(EntityId(7), pt(500, 500));
        s.cell_mut(dims, CellId::new(2, 2))
            .members
            .insert(EntityId(7), pt(2_500, 2_500));
        let v = check_invariant2(&cfg, &s).unwrap_err();
        assert_eq!(v.entity, EntityId(7));
        assert!(v.to_string().contains("Invariant 2"));
        s.cell_mut(dims, CellId::new(2, 2)).members.clear();
        assert_eq!(check_invariant2(&cfg, &s), Ok(()));
    }

    #[test]
    fn h_holds_after_signal_phase() {
        // Lemma 3, mechanized on a small instance: run Route+Signal from a
        // populated state and check H.
        let cfg = config();
        let dims = cfg.dims();
        let mut s = cfg.initial_state();
        for _ in 0..6 {
            s = route_phase(&cfg, &s);
        }
        s.cell_mut(dims, CellId::new(0, 1))
            .members
            .insert(EntityId(0), pt(500, 1_500));
        s.cell_mut(dims, CellId::new(1, 1))
            .members
            .insert(EntityId(1), pt(1_200, 1_500));
        let routed = route_phase(&cfg, &s);
        let signaled = signal_phase(&cfg, &routed, 0);
        assert_eq!(check_h(&cfg, &signaled), Ok(()));
    }

    #[test]
    fn h_detects_hand_built_violation() {
        let cfg = config();
        let dims = cfg.dims();
        let mut s = cfg.initial_state();
        let cell = CellId::new(1, 1);
        // Grant the west neighbor while an entity sits flush at the west edge.
        s.cell_mut(dims, cell).signal = Some(CellId::new(0, 1));
        s.cell_mut(dims, cell)
            .members
            .insert(EntityId(0), pt(1_125, 1_500));
        let v = check_h(&cfg, &s).unwrap_err();
        assert_eq!(v.cell, cell);
        assert_eq!(v.granted, CellId::new(0, 1));
        assert!(v.to_string().contains("d-strip"));
    }
}
