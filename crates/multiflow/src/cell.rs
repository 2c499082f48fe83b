//! Per-cell state with one routing layer per flow type.

use std::collections::{BTreeMap, BTreeSet};

use cellflow_core::EntityId;
use cellflow_grid::CellId;
use cellflow_routing::Dist;

use crate::{FlowType, TypedEntity};

/// The state of one cell in the multi-type system.
///
/// Identical to the single-flow `CellState` except that `dist`/`next` are
/// maps keyed by [`FlowType`] (one distance-vector layer per commodity), and
/// members carry their type.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MultiCellState {
    /// Entities on this cell.
    pub members: BTreeMap<EntityId, TypedEntity>,
    /// Per-type estimated hop distance to that type's target.
    pub dist: BTreeMap<FlowType, Dist>,
    /// Per-type next pointer.
    pub next: BTreeMap<FlowType, Option<CellId>>,
    /// Nonempty neighbors whose *served* direction routes through this cell.
    pub ne_prev: BTreeSet<CellId>,
    /// Token holder.
    pub token: Option<CellId>,
    /// Granted neighbor.
    pub signal: Option<CellId>,
    /// Crash flag.
    pub failed: bool,
}

impl MultiCellState {
    /// The initial state for a cell given the set of flow types: all layers
    /// at `∞` except `zero_for` (the types this cell is the target of).
    pub fn initial<'a, I>(types: I, zero_for: &BTreeSet<FlowType>) -> MultiCellState
    where
        I: IntoIterator<Item = &'a FlowType>,
    {
        let mut dist = BTreeMap::new();
        let mut next = BTreeMap::new();
        for &t in types {
            dist.insert(
                t,
                if zero_for.contains(&t) {
                    Dist::Finite(0)
                } else {
                    Dist::Infinity
                },
            );
            next.insert(t, None);
        }
        MultiCellState {
            members: BTreeMap::new(),
            dist,
            next,
            ne_prev: BTreeSet::new(),
            token: None,
            signal: None,
            failed: false,
        }
    }

    /// The head-of-line service discipline: the type of the oldest entity on
    /// the cell (minimum [`EntityId`]), or `None` if the cell is empty.
    pub fn serve_type(&self) -> Option<FlowType> {
        self.members.values().next().map(|e| e.ty)
    }

    /// The direction this cell currently attempts to move: the `next` pointer
    /// of its served type.
    pub fn effective_next(&self) -> Option<CellId> {
        self.serve_type()
            .and_then(|t| self.next.get(&t).copied().flatten())
    }

    /// `true` if the cell holds no entities.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_geom::{Fixed, Point};

    fn pt(m: i64) -> Point {
        Point::new(Fixed::from_milli(m), Fixed::HALF)
    }

    #[test]
    fn initial_layers() {
        let types = [FlowType(0), FlowType(1)];
        let zero: BTreeSet<_> = [FlowType(1)].into();
        let c = MultiCellState::initial(types.iter(), &zero);
        assert_eq!(c.dist[&FlowType(0)], Dist::Infinity);
        assert_eq!(c.dist[&FlowType(1)], Dist::Finite(0));
        assert!(c.is_empty());
        assert_eq!(c.serve_type(), None);
        assert_eq!(c.effective_next(), None);
    }

    #[test]
    fn serves_oldest_entity_type() {
        let types = [FlowType(0), FlowType(1)];
        let mut c = MultiCellState::initial(types.iter(), &BTreeSet::new());
        c.members
            .insert(EntityId(5), TypedEntity::new(pt(500), FlowType(0)));
        c.members
            .insert(EntityId(2), TypedEntity::new(pt(200), FlowType(1)));
        assert_eq!(c.serve_type(), Some(FlowType(1)), "oldest entity is id 2");
        c.next.insert(FlowType(1), Some(CellId::new(1, 0)));
        assert_eq!(c.effective_next(), Some(CellId::new(1, 0)));
        // Remove the oldest: service switches to the other type.
        c.members.remove(&EntityId(2));
        assert_eq!(c.serve_type(), Some(FlowType(0)));
        assert_eq!(c.effective_next(), None, "type 0 has no route yet");
    }
}
