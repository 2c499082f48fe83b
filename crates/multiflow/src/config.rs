//! Configuration, state, and facade of the multi-type system.

use core::fmt;
use std::collections::{BTreeMap, BTreeSet};

use cellflow_core::{EntityId, Params};
use cellflow_grid::{CellId, GridDims};
use cellflow_routing::Dist;

use crate::phases::update_multi;
use crate::{FlowType, MultiCellState};

/// Static configuration: the grid, the physical parameters, and one
/// `(source, target)` pair per flow type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiConfig {
    dims: GridDims,
    params: Params,
    targets: BTreeMap<FlowType, CellId>,
    sources: BTreeMap<FlowType, CellId>,
    dist_cap: u32,
    entity_budget: Option<u64>,
    cell_capacity: usize,
}

impl MultiConfig {
    /// Creates a configuration with no flows.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid `dims`; returns `Result` for forward
    /// compatibility with cross-flow validation.
    pub fn new(dims: GridDims, params: Params) -> Result<MultiConfig, MultiConfigError> {
        Ok(MultiConfig {
            dims,
            params,
            targets: BTreeMap::new(),
            sources: BTreeMap::new(),
            dist_cap: dims.cell_count() as u32 + 1,
            entity_budget: None,
            cell_capacity: 1,
        })
    }

    /// Declares a flow: entities of `ty` are produced at `source` and
    /// consumed at `target`.
    ///
    /// # Errors
    ///
    /// * [`MultiConfigError::OutOfBounds`] if either cell is outside the grid;
    /// * [`MultiConfigError::SourceIsTarget`] if the two coincide;
    /// * [`MultiConfigError::DuplicateType`] if `ty` was already declared.
    pub fn with_flow(
        mut self,
        ty: FlowType,
        source: CellId,
        target: CellId,
    ) -> Result<MultiConfig, MultiConfigError> {
        if !self.dims.contains(source) || !self.dims.contains(target) {
            return Err(MultiConfigError::OutOfBounds { ty });
        }
        if source == target {
            return Err(MultiConfigError::SourceIsTarget { ty });
        }
        if self.targets.contains_key(&ty) {
            return Err(MultiConfigError::DuplicateType { ty });
        }
        self.targets.insert(ty, target);
        self.sources.insert(ty, source);
        Ok(self)
    }

    /// Caps total entity creation across all sources.
    pub fn with_entity_budget(mut self, budget: u64) -> MultiConfig {
        self.entity_budget = Some(budget);
        self
    }

    /// Sets the per-cell occupancy cap (default 1): a cell never grants an
    /// incoming transfer while holding this many entities.
    ///
    /// With coupled rigid motion, a cell whose members span its full interior
    /// along an axis can never free the strips on that axis by translation —
    /// it is permanently immobile, and a crossing hotspot eventually clots
    /// (and with finite caps ≥ 2, cycles of *full* cells can still deadlock,
    /// the classic store-and-forward mode). The default cap of 1 — a cell
    /// accepts entities only while empty, the buffer-reservation idea from
    /// network-on-chip routing — empirically keeps even antagonistic
    /// crossing patterns fluid indefinitely (see the `ablation_capacity`
    /// bench). Higher caps pipeline better on lane-separated patterns but
    /// risk gridlock under sustained crossing contention; safety is
    /// unaffected either way.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_cell_capacity(mut self, cap: usize) -> MultiConfig {
        assert!(cap > 0, "capacity must be positive");
        self.cell_capacity = cap;
        self
    }

    /// The per-cell occupancy cap.
    pub fn cell_capacity(&self) -> usize {
        self.cell_capacity
    }

    /// Grid dimensions.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Physical parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// Per-type targets.
    pub fn targets(&self) -> &BTreeMap<FlowType, CellId> {
        &self.targets
    }

    /// Per-type sources.
    pub fn sources(&self) -> &BTreeMap<FlowType, CellId> {
        &self.sources
    }

    /// All declared flow types.
    pub fn types(&self) -> impl Iterator<Item = FlowType> + '_ {
        self.targets.keys().copied()
    }

    /// `∞`-saturation cap.
    pub fn dist_cap(&self) -> u32 {
        self.dist_cap
    }

    /// Entity creation budget, if any.
    pub fn entity_budget(&self) -> Option<u64> {
        self.entity_budget
    }

    /// The target cell of `ty`, if declared.
    pub fn target_of(&self, ty: FlowType) -> Option<CellId> {
        self.targets.get(&ty).copied()
    }

    /// The initial state: per-type layers with each target's own layer at 0.
    pub fn initial_state(&self) -> MultiState {
        let types: Vec<FlowType> = self.types().collect();
        let cells = self
            .dims
            .iter()
            .map(|id| {
                let zero_for: BTreeSet<FlowType> = self
                    .targets
                    .iter()
                    .filter(|&(_, &t)| t == id)
                    .map(|(&ty, _)| ty)
                    .collect();
                MultiCellState::initial(types.iter(), &zero_for)
            })
            .collect();
        MultiState {
            cells,
            next_entity_id: 0,
        }
    }
}

/// Error declaring a flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MultiConfigError {
    /// Source or target outside the grid.
    OutOfBounds {
        /// The flow type being declared.
        ty: FlowType,
    },
    /// Source equals target.
    SourceIsTarget {
        /// The flow type being declared.
        ty: FlowType,
    },
    /// The type already has a flow.
    DuplicateType {
        /// The flow type being declared.
        ty: FlowType,
    },
}

impl fmt::Display for MultiConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiConfigError::OutOfBounds { ty } => {
                write!(f, "flow {ty}: source or target outside the grid")
            }
            MultiConfigError::SourceIsTarget { ty } => {
                write!(f, "flow {ty}: source equals target")
            }
            MultiConfigError::DuplicateType { ty } => {
                write!(f, "flow {ty} declared twice")
            }
        }
    }
}

impl std::error::Error for MultiConfigError {}

/// A full state of the multi-type system.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct MultiState {
    /// Per-cell states, indexed by [`GridDims::index`].
    pub cells: Vec<MultiCellState>,
    /// Next fresh entity identifier.
    pub next_entity_id: u64,
}

impl MultiState {
    /// One cell's state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn cell(&self, dims: GridDims, id: CellId) -> &MultiCellState {
        &self.cells[dims.index(id)]
    }

    /// Mutable access to one cell's state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn cell_mut(&mut self, dims: GridDims, id: CellId) -> &mut MultiCellState {
        &mut self.cells[dims.index(id)]
    }

    /// Total entities in the system.
    pub fn entity_count(&self) -> usize {
        self.cells.iter().map(|c| c.members.len()).sum()
    }

    /// Entities of a given type currently in the system.
    pub fn entity_count_of(&self, ty: FlowType) -> usize {
        self.cells
            .iter()
            .flat_map(|c| c.members.values())
            .filter(|e| e.ty == ty)
            .count()
    }

    /// The `fail` transition: crash `id`, all layers to `∞`.
    pub fn fail(&mut self, dims: GridDims, id: CellId) {
        let c = self.cell_mut(dims, id);
        c.failed = true;
        for d in c.dist.values_mut() {
            *d = Dist::Infinity;
        }
        for n in c.next.values_mut() {
            *n = None;
        }
        c.signal = None;
    }

    /// Recovery: clear the flag; layers this cell anchors reset to 0.
    pub fn recover(&mut self, dims: GridDims, id: CellId, config: &MultiConfig) {
        let zero_for: Vec<FlowType> = config
            .targets()
            .iter()
            .filter(|&(_, &t)| t == id)
            .map(|(&ty, _)| ty)
            .collect();
        let c = self.cell_mut(dims, id);
        c.failed = false;
        for ty in zero_for {
            c.dist.insert(ty, Dist::Finite(0));
        }
    }
}

/// The multi-type system facade.
#[derive(Clone, Debug)]
pub struct MultiSystem {
    config: MultiConfig,
    state: MultiState,
    round: u64,
    consumed: BTreeMap<FlowType, u64>,
    inserted: BTreeMap<FlowType, u64>,
}

impl MultiSystem {
    /// Creates a system in the initial state.
    pub fn new(config: MultiConfig) -> MultiSystem {
        let state = config.initial_state();
        let zeroes: BTreeMap<FlowType, u64> = config.types().map(|t| (t, 0)).collect();
        MultiSystem {
            config,
            state,
            round: 0,
            consumed: zeroes.clone(),
            inserted: zeroes,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MultiConfig {
        &self.config
    }

    /// The current state.
    pub fn state(&self) -> &MultiState {
        &self.state
    }

    /// Rounds executed.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Entities of `ty` consumed so far.
    pub fn consumed(&self, ty: FlowType) -> u64 {
        self.consumed.get(&ty).copied().unwrap_or(0)
    }

    /// Entities of `ty` created so far.
    pub fn inserted(&self, ty: FlowType) -> u64 {
        self.inserted.get(&ty).copied().unwrap_or(0)
    }

    /// One synchronous round.
    pub fn step(&mut self) -> crate::MultiOutcome {
        let outcome = update_multi(&self.config, &self.state);
        self.state = outcome.state.clone();
        self.round += 1;
        for &(_, ty) in &outcome.consumed {
            *self.consumed.entry(ty).or_insert(0) += 1;
        }
        for &(_, _, ty) in &outcome.inserted {
            *self.inserted.entry(ty).or_insert(0) += 1;
        }
        outcome
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
    pub fn fail(&mut self, id: CellId) {
        self.state.fail(self.config.dims(), id);
    }

    /// Recovers a cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn recover(&mut self, id: CellId) {
        let config = self.config.clone();
        self.state.recover(config.dims(), id, &config);
    }

    /// Seeds a typed entity directly (test/example setup).
    ///
    /// # Panics
    ///
    /// Panics if the position violates margins or spacing, or `ty` is not a
    /// declared flow.
    pub fn seed_entity(&mut self, id: CellId, pos: cellflow_geom::Point, ty: FlowType) -> EntityId {
        assert!(self.config.target_of(ty).is_some(), "unknown flow {ty}");
        let params = self.config.params();
        let h = params.half_l();
        let lo_x = cellflow_geom::Fixed::from_int(id.i() as i64) + h;
        let hi_x = cellflow_geom::Fixed::from_int(id.i() as i64 + 1) - h;
        let lo_y = cellflow_geom::Fixed::from_int(id.j() as i64) + h;
        let hi_y = cellflow_geom::Fixed::from_int(id.j() as i64 + 1) - h;
        assert!(
            lo_x <= pos.x && pos.x <= hi_x && lo_y <= pos.y && pos.y <= hi_y,
            "entity would protrude from {id}"
        );
        let dims = self.config.dims();
        assert!(
            self.state
                .cell(dims, id)
                .members
                .values()
                .all(|e| cellflow_geom::sep_ok(pos, e.pos, params.d())),
            "seed violates spacing"
        );
        let eid = EntityId(self.state.next_entity_id);
        self.state.next_entity_id += 1;
        self.state
            .cell_mut(dims, id)
            .members
            .insert(eid, crate::TypedEntity::new(pos, ty));
        eid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MultiConfig {
        MultiConfig::new(
            GridDims::square(5),
            Params::from_milli(200, 50, 150).unwrap(),
        )
        .unwrap()
        .with_flow(FlowType(0), CellId::new(0, 2), CellId::new(4, 2))
        .unwrap()
        .with_flow(FlowType(1), CellId::new(2, 0), CellId::new(2, 4))
        .unwrap()
    }

    #[test]
    fn flow_declaration_validates() {
        let base = MultiConfig::new(
            GridDims::square(3),
            Params::from_milli(200, 50, 100).unwrap(),
        )
        .unwrap();
        assert_eq!(
            base.clone()
                .with_flow(FlowType(0), CellId::new(9, 9), CellId::new(0, 0))
                .unwrap_err(),
            MultiConfigError::OutOfBounds { ty: FlowType(0) }
        );
        assert_eq!(
            base.clone()
                .with_flow(FlowType(0), CellId::new(0, 0), CellId::new(0, 0))
                .unwrap_err(),
            MultiConfigError::SourceIsTarget { ty: FlowType(0) }
        );
        let one = base
            .with_flow(FlowType(0), CellId::new(0, 0), CellId::new(2, 2))
            .unwrap();
        assert_eq!(
            one.with_flow(FlowType(0), CellId::new(1, 0), CellId::new(2, 0))
                .unwrap_err(),
            MultiConfigError::DuplicateType { ty: FlowType(0) }
        );
    }

    #[test]
    fn initial_state_pins_each_target_layer() {
        let cfg = config();
        let s = cfg.initial_state();
        let dims = cfg.dims();
        assert_eq!(
            s.cell(dims, CellId::new(4, 2)).dist[&FlowType(0)],
            Dist::Finite(0)
        );
        assert_eq!(
            s.cell(dims, CellId::new(4, 2)).dist[&FlowType(1)],
            Dist::Infinity
        );
        assert_eq!(
            s.cell(dims, CellId::new(2, 4)).dist[&FlowType(1)],
            Dist::Finite(0)
        );
        assert_eq!(s.entity_count(), 0);
    }

    #[test]
    fn fail_recover_handles_layers() {
        let cfg = config();
        let dims = cfg.dims();
        let mut s = cfg.initial_state();
        let t0 = CellId::new(4, 2);
        s.fail(dims, t0);
        assert_eq!(s.cell(dims, t0).dist[&FlowType(0)], Dist::Infinity);
        s.recover(dims, t0, &cfg);
        assert_eq!(s.cell(dims, t0).dist[&FlowType(0)], Dist::Finite(0));
        assert_eq!(s.cell(dims, t0).dist[&FlowType(1)], Dist::Infinity);
    }

    #[test]
    fn seeding_and_counting() {
        let mut sys = MultiSystem::new(config());
        let c = CellId::new(1, 1);
        sys.seed_entity(c, c.center(), FlowType(0));
        assert_eq!(sys.state().entity_count_of(FlowType(0)), 1);
        assert_eq!(sys.state().entity_count_of(FlowType(1)), 0);
    }

    #[test]
    #[should_panic(expected = "unknown flow")]
    fn seeding_unknown_type_panics() {
        let mut sys = MultiSystem::new(config());
        sys.seed_entity(CellId::new(1, 1), CellId::new(1, 1).center(), FlowType(9));
    }
}
