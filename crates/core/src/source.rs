//! Source cells: entity insertion policies.
//!
//! The paper specifies only a contract (§II-B and assumption (b) of §III-B):
//! each source cell adds **at most one** entity per round, the addition must
//! not violate the minimum-gap requirement on that cell, and insertion must
//! not perpetually block the cell from granting its nonempty neighbors. The
//! concrete placement is an implementation choice; this module provides one
//! that satisfies the contract.

use cellflow_geom::{Fixed, Point};
use cellflow_grid::CellId;

use crate::{kernel, CellState, Params};

/// Where (and whether) a source cell places newly created entities.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SourcePolicy {
    /// Insert at the edge *opposite* the cell's current `next` direction,
    /// centered on the transverse axis — as far as possible from where
    /// entities leave, so a new entity never blocks the outgoing boundary gap.
    /// Falls back to the cell center while `next = ⊥` (routing unstabilized).
    #[default]
    FarEdge,
    /// Never insert (turns a configured source off; useful for drain phases
    /// of experiments).
    Disabled,
}

impl SourcePolicy {
    /// The position at which a new entity would be inserted into `cell` this
    /// round, or `None` if the policy declines or no safe position exists.
    ///
    /// The returned position is guaranteed to
    /// * keep the entity's `l × l` footprint inside the cell with the margin
    ///   of Invariant 1, and
    /// * satisfy the center-spacing requirement `d` against every entity
    ///   already in `state.members` (so inserting preserves `Safe`).
    pub fn placement(self, params: Params, id: CellId, state: &CellState) -> Option<Point> {
        self.place(params, id, state.next, state.members.values())
    }

    /// [`SourcePolicy::placement`] over the cell's routed `next` and any view
    /// of its members, so the engine can pass its own entity arenas.
    pub(crate) fn place<'a, I>(
        self,
        params: Params,
        id: CellId,
        next: Option<CellId>,
        members: I,
    ) -> Option<Point>
    where
        I: IntoIterator<Item = &'a Point>,
    {
        match self {
            SourcePolicy::Disabled => None,
            SourcePolicy::FarEdge => kernel::far_edge(
                params,
                id.center(),
                next.and_then(|n| id.dir_to(n)),
                |dir| id.boundary(dir),
                members,
            ),
        }
    }
}

/// `true` if `pos` keeps an `l × l` footprint inside cell `id` (Invariant 1's
/// margin: `i + l/2 ≤ px ≤ i+1 − l/2`, same for `py`).
pub(crate) fn within_cell_margins(params: Params, id: CellId, pos: Point) -> bool {
    let h = params.half_l();
    let lo_x = Fixed::from_int(id.i() as i64) + h;
    let hi_x = Fixed::from_int(id.i() as i64 + 1) - h;
    let lo_y = Fixed::from_int(id.j() as i64) + h;
    let hi_y = Fixed::from_int(id.j() as i64 + 1) - h;
    lo_x <= pos.x && pos.x <= hi_x && lo_y <= pos.y && pos.y <= hi_y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EntityId;
    use cellflow_geom::Dir;

    fn params() -> Params {
        Params::from_milli(250, 50, 100).unwrap()
    }

    fn cell_with_next(dir: Option<Dir>) -> (CellId, CellState) {
        let id = CellId::new(1, 1);
        let mut state = CellState::initial();
        state.next = dir.map(|d| id.step(d).unwrap());
        (id, state)
    }

    #[test]
    fn far_edge_opposes_flow_direction() {
        let p = params();
        // Flow east ⇒ insert flush at the west edge.
        let (id, state) = cell_with_next(Some(Dir::East));
        let pos = SourcePolicy::FarEdge.placement(p, id, &state).unwrap();
        assert_eq!(pos.x, Fixed::from_int(1) + p.half_l());
        assert_eq!(pos.y, Fixed::from_milli(1_500));
        assert!(within_cell_margins(p, id, pos));

        // Flow north ⇒ insert flush at the south edge.
        let (id, state) = cell_with_next(Some(Dir::North));
        let pos = SourcePolicy::FarEdge.placement(p, id, &state).unwrap();
        assert_eq!(pos.y, Fixed::from_int(1) + p.half_l());
        assert_eq!(pos.x, Fixed::from_milli(1_500));

        // Flow west ⇒ east edge.
        let (id, state) = cell_with_next(Some(Dir::West));
        let pos = SourcePolicy::FarEdge.placement(p, id, &state).unwrap();
        assert_eq!(pos.x, Fixed::from_int(2) - p.half_l());

        // Flow south ⇒ north edge.
        let (id, state) = cell_with_next(Some(Dir::South));
        let pos = SourcePolicy::FarEdge.placement(p, id, &state).unwrap();
        assert_eq!(pos.y, Fixed::from_int(2) - p.half_l());
    }

    #[test]
    fn without_next_uses_center() {
        let (id, state) = cell_with_next(None);
        let pos = SourcePolicy::FarEdge
            .placement(params(), id, &state)
            .unwrap();
        assert_eq!(pos, id.center());
    }

    #[test]
    fn insertion_respects_spacing() {
        let p = params();
        let (id, mut state) = cell_with_next(Some(Dir::East));
        let slot = SourcePolicy::FarEdge.placement(p, id, &state).unwrap();
        // Occupy exactly the insertion slot: no safe position remains there.
        state.members.insert(EntityId(0), slot);
        assert_eq!(SourcePolicy::FarEdge.placement(p, id, &state), None);
        // An entity d away along x is fine.
        state.members.clear();
        state
            .members
            .insert(EntityId(0), slot.translate(Dir::East, p.d()));
        assert_eq!(SourcePolicy::FarEdge.placement(p, id, &state), Some(slot));
        // An entity d−ε away blocks insertion.
        state.members.clear();
        state.members.insert(
            EntityId(0),
            slot.translate(Dir::East, p.d() - Fixed::from_raw(1)),
        );
        assert_eq!(SourcePolicy::FarEdge.placement(p, id, &state), None);
    }

    #[test]
    fn disabled_never_inserts() {
        let (id, state) = cell_with_next(Some(Dir::East));
        assert_eq!(SourcePolicy::Disabled.placement(params(), id, &state), None);
        assert_eq!(SourcePolicy::default(), SourcePolicy::FarEdge);
    }

    #[test]
    fn margins_reject_boundary_overhang() {
        let p = params();
        let id = CellId::new(0, 0);
        assert!(within_cell_margins(p, id, id.center()));
        // Exactly flush is allowed…
        let flush = Point::new(p.half_l(), Fixed::HALF);
        assert!(within_cell_margins(p, id, flush));
        // …one micro-unit past is not.
        let over = Point::new(p.half_l() - Fixed::from_raw(1), Fixed::HALF);
        assert!(!within_cell_margins(p, id, over));
    }
}
