//! Configuration, state, and facade for the 3-D system.

use core::fmt;
use std::collections::BTreeSet;

use cellflow_core::{EntityId, Params};
use cellflow_routing::Dist;

use crate::phases::update3;
use crate::{CellId3, CellState3, Dims3, Point3};

/// Static configuration of a 3-D system.
///
/// The token policy is the fair cyclic rotation (the 2-D default); the source
/// policy is the 3-D far-face placement. See the 2-D `SystemConfig` for the
/// richer policy surface — this extension keeps the paper's defaults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemConfig3 {
    dims: Dims3,
    target: CellId3,
    sources: BTreeSet<CellId3>,
    params: Params,
    dist_cap: u32,
    entity_budget: Option<u64>,
}

impl SystemConfig3 {
    /// Creates a configuration with no sources.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError3::TargetOutOfBounds`] if `target` is outside the
    /// box.
    pub fn new(
        dims: Dims3,
        target: CellId3,
        params: Params,
    ) -> Result<SystemConfig3, ConfigError3> {
        if !dims.contains(target) {
            return Err(ConfigError3::TargetOutOfBounds { target, dims });
        }
        Ok(SystemConfig3 {
            dims,
            target,
            sources: BTreeSet::new(),
            params,
            dist_cap: dims.cell_count() as u32 + 1,
            entity_budget: None,
        })
    }

    /// Adds a source cell.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds or equals the target.
    pub fn with_source(mut self, source: CellId3) -> SystemConfig3 {
        assert!(self.dims.contains(source), "source {source} out of bounds");
        assert!(source != self.target, "source must differ from target");
        self.sources.insert(source);
        self
    }

    /// Caps total entity creation (for bounded model checking).
    pub fn with_entity_budget(mut self, budget: u64) -> SystemConfig3 {
        self.entity_budget = Some(budget);
        self
    }

    /// Box dimensions.
    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    /// The target cell.
    pub fn target(&self) -> CellId3 {
        self.target
    }

    /// The source cells.
    pub fn sources(&self) -> &BTreeSet<CellId3> {
        &self.sources
    }

    /// Physical parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// `∞`-saturation cap.
    pub fn dist_cap(&self) -> u32 {
        self.dist_cap
    }

    /// Entity creation budget.
    pub fn entity_budget(&self) -> Option<u64> {
        self.entity_budget
    }

    /// The initial state: empty cells, target `dist = 0`.
    pub fn initial_state(&self) -> SystemState3 {
        let mut cells = vec![CellState3::initial(); self.dims.cell_count()];
        cells[self.dims.index(self.target)] = CellState3::initial_target();
        SystemState3 {
            cells,
            next_entity_id: 0,
        }
    }
}

/// Error building a [`SystemConfig3`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError3 {
    /// The target lies outside the box.
    TargetOutOfBounds {
        /// Offending target.
        target: CellId3,
        /// The box.
        dims: Dims3,
    },
}

impl fmt::Display for ConfigError3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError3::TargetOutOfBounds { target, dims } => {
                write!(f, "target {target} is outside the {dims} box")
            }
        }
    }
}

impl std::error::Error for ConfigError3 {}

/// A complete state of the 3-D system (hashable for model checking).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SystemState3 {
    /// Per-cell states indexed by [`Dims3::index`].
    pub cells: Vec<CellState3>,
    /// Next fresh entity identifier.
    pub next_entity_id: u64,
}

impl SystemState3 {
    /// One cell's state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn cell(&self, dims: Dims3, id: CellId3) -> &CellState3 {
        &self.cells[dims.index(id)]
    }

    /// Mutable access to one cell's state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn cell_mut(&mut self, dims: Dims3, id: CellId3) -> &mut CellState3 {
        &mut self.cells[dims.index(id)]
    }

    /// Total entities in the system.
    pub fn entity_count(&self) -> usize {
        self.cells.iter().map(|c| c.members.len()).sum()
    }

    /// The `fail` transition (3-D): crash `id`, pin `dist = ∞`, clear
    /// pointers.
    pub fn fail(&mut self, dims: Dims3, id: CellId3) {
        let c = self.cell_mut(dims, id);
        c.failed = true;
        c.dist = Dist::Infinity;
        c.next = None;
        c.signal = None;
    }

    /// The recovery transition: clear the flag; target recovers `dist = 0`.
    pub fn recover(&mut self, dims: Dims3, id: CellId3, target: CellId3) {
        let c = self.cell_mut(dims, id);
        c.failed = false;
        if id == target {
            c.dist = Dist::Finite(0);
        }
    }
}

/// The 3-D system facade: config + state + counters.
#[derive(Clone, Debug)]
pub struct System3 {
    config: SystemConfig3,
    state: SystemState3,
    round: u64,
    consumed_total: u64,
    inserted_total: u64,
}

impl System3 {
    /// Creates a system in the initial state.
    pub fn new(config: SystemConfig3) -> System3 {
        let state = config.initial_state();
        System3 {
            config,
            state,
            round: 0,
            consumed_total: 0,
            inserted_total: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig3 {
        &self.config
    }

    /// The current state.
    pub fn state(&self) -> &SystemState3 {
        &self.state
    }

    /// One cell's state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn cell(&self, id: CellId3) -> &CellState3 {
        self.state.cell(self.config.dims(), id)
    }

    /// Rounds executed.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Entities consumed so far.
    pub fn consumed_total(&self) -> u64 {
        self.consumed_total
    }

    /// Entities created so far.
    pub fn inserted_total(&self) -> u64 {
        self.inserted_total
    }

    /// One synchronous round; returns `(consumed, inserted)` counts.
    pub fn step(&mut self) -> (usize, usize) {
        let outcome = update3(&self.config, &self.state);
        self.state = outcome.state;
        self.round += 1;
        self.consumed_total += outcome.consumed.len() as u64;
        self.inserted_total += outcome.inserted.len() as u64;
        (outcome.consumed.len(), outcome.inserted.len())
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Crashes a cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn fail(&mut self, id: CellId3) {
        self.state.fail(self.config.dims(), id);
    }

    /// Recovers a cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn recover(&mut self, id: CellId3) {
        let t = self.config.target();
        self.state.recover(self.config.dims(), id, t);
    }

    /// Places an entity with a fresh id at `pos` on `id` (test/example setup).
    ///
    /// # Panics
    ///
    /// Panics if the position violates the cell margins or spacing — callers
    /// seed deliberately-valid states.
    pub fn seed_entity(&mut self, id: CellId3, pos: Point3) -> EntityId {
        let params = self.config.params();
        let h = params.half_l();
        for axis in [crate::Axis3::X, crate::Axis3::Y, crate::Axis3::Z] {
            let base = match axis {
                crate::Axis3::X => id.i(),
                crate::Axis3::Y => id.j(),
                crate::Axis3::Z => id.k(),
            } as i64;
            let c = pos.along(axis);
            assert!(
                c >= cellflow_geom::Fixed::from_int(base) + h
                    && c <= cellflow_geom::Fixed::from_int(base + 1) - h,
                "entity would protrude from {id} along {axis:?}"
            );
        }
        let dims = self.config.dims();
        assert!(
            self.state
                .cell(dims, id)
                .members
                .values()
                .all(|&q| crate::sep_ok3(pos, q, params.d())),
            "seed violates spacing"
        );
        let eid = EntityId(self.state.next_entity_id);
        self.state.next_entity_id += 1;
        self.state.cell_mut(dims, id).members.insert(eid, pos);
        eid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SystemConfig3 {
        SystemConfig3::new(
            Dims3::new(3, 3, 3),
            CellId3::new(2, 2, 2),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId3::new(0, 0, 0))
    }

    #[test]
    fn config_validates() {
        assert!(SystemConfig3::new(
            Dims3::new(2, 2, 2),
            CellId3::new(2, 0, 0),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .is_err());
        let cfg = config();
        assert_eq!(cfg.dims().cell_count(), 27);
        assert_eq!(cfg.dist_cap(), 28);
    }

    #[test]
    #[should_panic(expected = "differ from target")]
    fn source_equals_target_panics() {
        let _ = config().with_source(CellId3::new(2, 2, 2));
    }

    #[test]
    fn initial_state_and_fail_recover() {
        let cfg = config();
        let mut s = cfg.initial_state();
        assert_eq!(s.cell(cfg.dims(), cfg.target()).dist, Dist::Finite(0));
        let v = CellId3::new(1, 1, 1);
        s.fail(cfg.dims(), v);
        assert!(s.cell(cfg.dims(), v).failed);
        s.recover(cfg.dims(), v, cfg.target());
        assert!(!s.cell(cfg.dims(), v).failed);
        s.fail(cfg.dims(), cfg.target());
        s.recover(cfg.dims(), cfg.target(), cfg.target());
        assert_eq!(s.cell(cfg.dims(), cfg.target()).dist, Dist::Finite(0));
    }

    #[test]
    fn seeding_validates() {
        let mut sys = System3::new(config());
        let c = CellId3::new(1, 1, 1);
        sys.seed_entity(c, c.center());
        assert_eq!(sys.state().entity_count(), 1);
    }

    #[test]
    #[should_panic(expected = "spacing")]
    fn double_seed_panics() {
        let mut sys = System3::new(config());
        let c = CellId3::new(1, 1, 1);
        sys.seed_entity(c, c.center());
        sys.seed_entity(c, c.center());
    }
}
