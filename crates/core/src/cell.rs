//! Per-cell protocol state — the variables of `Cell_{i,j}` (paper Figure 3).

use std::collections::{BTreeMap, BTreeSet};

use cellflow_geom::Point;
use cellflow_grid::CellId;
use cellflow_routing::Dist;

use crate::{Entity, EntityId};

/// The state variables of one cell automaton `Cell_{i,j}`:
///
/// | paper        | here          | shared with neighbors? |
/// |--------------|---------------|------------------------|
/// | `Members`    | [`members`]   | yes (also written by them on transfer) |
/// | `dist`       | [`dist`]      | yes |
/// | `next`       | [`next`]      | yes |
/// | `signal`     | [`signal`]    | yes |
/// | `NEPrev`     | [`ne_prev`]   | private |
/// | `token`      | [`token`]     | private |
/// | `failed`     | [`failed`]    | private |
///
/// `Members` is stored as an ordered map from [`EntityId`] to center position
/// so iteration is deterministic and whole-system states hash consistently
/// (required by the model checker).
///
/// Initial values follow Figure 3: empty members, `dist = ∞`, and `⊥`
/// (`None`) pointers — except the target cell, whose `dist` is pinned to `0`
/// by [`SystemConfig`](crate::SystemConfig).
///
/// [`members`]: CellState::members
/// [`dist`]: CellState::dist
/// [`next`]: CellState::next
/// [`signal`]: CellState::signal
/// [`ne_prev`]: CellState::ne_prev
/// [`token`]: CellState::token
/// [`failed`]: CellState::failed
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CellState {
    /// `Members_{i,j}`: the entities currently on this cell.
    pub members: BTreeMap<EntityId, Point>,
    /// `dist_{i,j}`: estimated hop distance to the target (`∞` when failed or
    /// disconnected).
    pub dist: Dist,
    /// `next_{i,j}`: the neighbor this cell attempts to move entities toward
    /// (`None` is the paper's `⊥`).
    pub next: Option<CellId>,
    /// `NEPrev_{i,j}`: the nonempty neighbors currently routing through this
    /// cell (recomputed every round by `Signal`).
    pub ne_prev: BTreeSet<CellId>,
    /// `token_{i,j}`: which member of `NEPrev` holds this cell's
    /// permission-to-move token.
    pub token: Option<CellId>,
    /// `signal_{i,j}`: the neighbor (if any) this cell currently permits to
    /// move entities toward it.
    pub signal: Option<CellId>,
    /// `failed_{i,j}`: whether this cell has crashed.
    pub failed: bool,
}

impl CellState {
    /// The initial state of an ordinary cell (Figure 3's `:=` column).
    pub fn initial() -> CellState {
        CellState {
            members: BTreeMap::new(),
            dist: Dist::Infinity,
            next: None,
            ne_prev: BTreeSet::new(),
            token: None,
            signal: None,
            failed: false,
        }
    }

    /// The initial state of the target cell: as [`CellState::initial`] but
    /// with `dist = 0` (the target is the routing anchor; `Route` never
    /// recomputes it and recovery resets it — paper §IV).
    pub fn initial_target() -> CellState {
        CellState {
            dist: Dist::Finite(0),
            ..CellState::initial()
        }
    }

    /// `true` if this cell holds no entities.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of entities on this cell.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Iterates the cell's entities in identifier order.
    pub fn entities(&self) -> impl Iterator<Item = Entity> + '_ {
        self.members.iter().map(|(&id, &pos)| Entity::new(id, pos))
    }
}

impl Default for CellState {
    /// Same as [`CellState::initial`].
    fn default() -> CellState {
        CellState::initial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_geom::Fixed;

    #[test]
    fn initial_matches_figure3() {
        let c = CellState::initial();
        assert!(c.members.is_empty());
        assert_eq!(c.dist, Dist::Infinity);
        assert_eq!(c.next, None);
        assert!(c.ne_prev.is_empty());
        assert_eq!(c.token, None);
        assert_eq!(c.signal, None);
        assert!(!c.failed);
        assert_eq!(CellState::default(), c);
    }

    #[test]
    fn target_initial_has_zero_dist() {
        let t = CellState::initial_target();
        assert_eq!(t.dist, Dist::Finite(0));
        assert!(t.is_empty());
    }

    #[test]
    fn entities_iterate_in_id_order() {
        let mut c = CellState::initial();
        let p = |m: i64| Point::new(Fixed::from_milli(m), Fixed::HALF);
        c.members.insert(EntityId(5), p(500));
        c.members.insert(EntityId(1), p(100));
        c.members.insert(EntityId(3), p(300));
        let ids: Vec<_> = c.entities().map(|e| e.id).collect();
        assert_eq!(ids, vec![EntityId(1), EntityId(3), EntityId(5)]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }
}
