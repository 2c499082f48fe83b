//! One borrowed, read-only view of a protocol state.
//!
//! Every per-round reader (the monitors, the safety predicates they call,
//! the overload detector, the occupancy heat map) reads the state through a
//! [`StateView`]. In the shared-variable runtimes the view borrows the
//! [`Engine`]'s arenas in place, so no reader needs a structured copy of
//! the state; the net collector and hand-built test states wrap an
//! assembled [`SystemState`] instead. Both read the same registers, by the
//! same arena index, and reading allocates nothing.

use core::fmt;
use std::collections::btree_map;
use std::slice;

use cellflow_geom::Point;
use cellflow_grid::CellId;
use cellflow_routing::Dist;

use crate::{Engine, Entity, EntityId, SystemState};

/// A read-only view of one state, indexed by arena index
/// ([`GridDims::index`](cellflow_grid::GridDims::index) order).
///
/// Built by [`Engine::view`] or [`System::view`](crate::System::view) over
/// the engine's arenas, or from a `&SystemState`:
///
/// ```
/// use cellflow_core::{Params, StateView, System, SystemConfig};
/// use cellflow_grid::{CellId, GridDims};
///
/// let config = SystemConfig::new(
///     GridDims::square(4),
///     CellId::new(3, 3),
///     Params::from_milli(250, 50, 200)?,
/// )?
/// .with_source(CellId::new(0, 0));
/// let mut sys = System::new(config);
/// sys.run(20);
/// let target = sys.config().dims().index(CellId::new(3, 3));
/// let view = sys.view();
/// assert_eq!(view.dist(target), StateView::from(sys.state()).dist(target));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy)]
pub struct StateView<'a>(Source<'a>);

#[derive(Clone, Copy)]
enum Source<'a> {
    Engine(&'a Engine),
    State(&'a SystemState),
}

impl<'a> StateView<'a> {
    /// A view of the engine's arenas.
    pub(crate) fn of_engine(engine: &'a Engine) -> StateView<'a> {
        StateView(Source::Engine(engine))
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        match self.0 {
            Source::Engine(e) => e.cores().len(),
            Source::State(s) => s.cells.len(),
        }
    }

    /// The §IV crash flag of cell `k`.
    pub fn failed(&self, k: usize) -> bool {
        match self.0 {
            Source::Engine(e) => e.cores()[k].failed,
            Source::State(s) => s.cells[k].failed,
        }
    }

    /// `dist` of cell `k`.
    pub fn dist(&self, k: usize) -> Dist {
        match self.0 {
            Source::Engine(e) => e.cores()[k].dist,
            Source::State(s) => s.cells[k].dist,
        }
    }

    /// `next` of cell `k`.
    pub fn next(&self, k: usize) -> Option<CellId> {
        match self.0 {
            Source::Engine(e) => e.cores()[k].next,
            Source::State(s) => s.cells[k].next,
        }
    }

    /// `signal` of cell `k`.
    pub fn signal(&self, k: usize) -> Option<CellId> {
        match self.0 {
            Source::Engine(e) => e.cores()[k].signal,
            Source::State(s) => s.cells[k].signal,
        }
    }

    /// Occupancy (entity count) of cell `k`.
    pub fn occupancy(&self, k: usize) -> usize {
        match self.0 {
            Source::Engine(e) => e.arenas()[k].len(),
            Source::State(s) => s.cells[k].members.len(),
        }
    }

    /// The entities on cell `k`, in identifier order.
    pub fn members(&self, k: usize) -> Members<'a> {
        Members(match self.0 {
            Source::Engine(e) => MembersIter::Arena(e.arenas()[k].iter()),
            Source::State(s) => MembersIter::Map(s.cells[k].members.iter()),
        })
    }

    /// The viewed state as an owned [`SystemState`]: an export of the
    /// engine's arenas, or a clone of the assembled state. Allocates; for
    /// tests and reports, not per-round readers.
    pub fn to_state(&self) -> SystemState {
        match self.0 {
            Source::Engine(e) => e.export_state(),
            Source::State(s) => s.clone(),
        }
    }
}

impl<'a> From<&'a SystemState> for StateView<'a> {
    fn from(state: &'a SystemState) -> StateView<'a> {
        StateView(Source::State(state))
    }
}

impl fmt::Debug for StateView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let source = match self.0 {
            Source::Engine(_) => "engine",
            Source::State(_) => "state",
        };
        f.debug_struct("StateView")
            .field("source", &source)
            .field("cells", &self.cell_count())
            .finish()
    }
}

/// The entities on one cell in identifier order (see
/// [`StateView::members`]).
#[derive(Clone, Debug)]
pub struct Members<'a>(MembersIter<'a>);

#[derive(Clone, Debug)]
enum MembersIter<'a> {
    Arena(slice::Iter<'a, (EntityId, Point)>),
    Map(btree_map::Iter<'a, EntityId, Point>),
}

impl Iterator for Members<'_> {
    type Item = Entity;

    fn next(&mut self) -> Option<Entity> {
        match &mut self.0 {
            MembersIter::Arena(it) => it.next().map(|&(id, pos)| Entity::new(id, pos)),
            MembersIter::Map(it) => it.next().map(|(&id, &pos)| Entity::new(id, pos)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            MembersIter::Arena(it) => it.size_hint(),
            MembersIter::Map(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for Members<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Corruption, Params, System, SystemConfig};
    use cellflow_grid::GridDims;

    /// Both forms read the same registers and members, cell by cell.
    #[test]
    fn engine_and_state_views_agree() {
        let cfg = SystemConfig::new(
            GridDims::square(5),
            CellId::new(4, 4),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(0, 0));
        let mut sys = System::new(cfg);
        sys.run(40);
        sys.fail(CellId::new(2, 2));
        sys.corrupt(CellId::new(1, 1), Corruption::Scramble { salt: 3 });
        let state = sys.state().clone();
        let (a, b) = (sys.view(), StateView::from(&state));
        assert_eq!(a.cell_count(), b.cell_count());
        for k in 0..a.cell_count() {
            assert_eq!(a.failed(k), b.failed(k));
            assert_eq!(a.dist(k), b.dist(k));
            assert_eq!(a.next(k), b.next(k));
            assert_eq!(a.signal(k), b.signal(k));
            assert_eq!(a.occupancy(k), b.occupancy(k));
            assert_eq!(a.members(k).len(), b.occupancy(k));
            assert!(a.members(k).eq(b.members(k)));
        }
        assert!(state.entity_count() > 0);
        assert_eq!(a.to_state(), state);
        assert_eq!(b.to_state(), state);
    }
}
