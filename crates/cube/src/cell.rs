//! Per-cube-cell protocol state (3-D analogue of `cellflow_core::CellState`).

use std::collections::{BTreeMap, BTreeSet};

use cellflow_core::EntityId;
use cellflow_routing::Dist;

use crate::{CellId3, Point3};

/// The state variables of one cube cell — identical in shape to the 2-D
/// [`cellflow_core::CellState`], with 3-D identifiers and positions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CellState3 {
    /// Entities on this cell with their center positions.
    pub members: BTreeMap<EntityId, Point3>,
    /// Estimated hop distance to the target.
    pub dist: Dist,
    /// The neighbor this cell moves entities toward (`None` = `⊥`).
    pub next: Option<CellId3>,
    /// Nonempty neighbors routing through this cell (recomputed per round).
    pub ne_prev: BTreeSet<CellId3>,
    /// Current token holder.
    pub token: Option<CellId3>,
    /// Currently granted neighbor.
    pub signal: Option<CellId3>,
    /// Crash flag.
    pub failed: bool,
}

impl CellState3 {
    /// The initial ordinary-cell state.
    pub fn initial() -> CellState3 {
        CellState3 {
            members: BTreeMap::new(),
            dist: Dist::Infinity,
            next: None,
            ne_prev: BTreeSet::new(),
            token: None,
            signal: None,
            failed: false,
        }
    }

    /// The initial target state (`dist = 0`).
    pub fn initial_target() -> CellState3 {
        CellState3 {
            dist: Dist::Finite(0),
            ..CellState3::initial()
        }
    }

    /// `true` if the cell holds no entities.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of entities on the cell.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }
}

impl Default for CellState3 {
    fn default() -> CellState3 {
        CellState3::initial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_matches_2d_shape() {
        let c = CellState3::initial();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.dist, Dist::Infinity);
        assert_eq!(c.next, None);
        assert!(!c.failed);
        assert_eq!(CellState3::default(), c);
        assert_eq!(CellState3::initial_target().dist, Dist::Finite(0));
    }
}
