//! The composed `System` automaton: configuration, state, and the simulation
//! facade.

use core::fmt;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use cellflow_geom::Point;
use cellflow_grid::{CellId, GridDims};
use cellflow_routing::Dist;

use crate::engine::{Engine, NeighborTable};
use crate::fault::Corruption;
use crate::{
    CellState, Entity, EntityId, Params, RoundEvents, SourcePolicy, StateView, TokenPolicy,
};

/// Static configuration of a `System`: everything that does *not* change
/// during execution.
///
/// Built with a validating constructor plus chainable `with_*` methods:
///
/// ```
/// use cellflow_core::{Params, SourcePolicy, SystemConfig, TokenPolicy};
/// use cellflow_grid::{CellId, GridDims};
///
/// let config = SystemConfig::new(
///     GridDims::square(8),
///     CellId::new(1, 7),
///     Params::from_milli(250, 50, 200)?,
/// )?
/// .with_source(CellId::new(1, 0))
/// .with_token_policy(TokenPolicy::RoundRobin)
/// .with_source_policy(SourcePolicy::FarEdge);
/// assert_eq!(config.sources().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct SystemConfig {
    dims: GridDims,
    target: CellId,
    sources: BTreeSet<CellId>,
    params: Params,
    dist_cap: u32,
    token_policy: TokenPolicy,
    source_policy: SourcePolicy,
    entity_budget: Option<u64>,
    /// Finite per-cell capacity, if any (see [`SystemConfig::capacity`]).
    capacity: Option<u32>,
    /// Lazily built, shared grid topology (see [`SystemConfig::topology`]).
    /// Derived entirely from `dims` and `target`, which are fixed at
    /// construction — so a populated cache can never go stale.
    topology: OnceLock<Arc<NeighborTable>>,
}

/// Manual: equality must ignore the derived topology cache (a populated and
/// an unpopulated cache describe the same configuration).
impl PartialEq for SystemConfig {
    fn eq(&self, other: &SystemConfig) -> bool {
        self.dims == other.dims
            && self.target == other.target
            && self.sources == other.sources
            && self.params == other.params
            && self.dist_cap == other.dist_cap
            && self.token_policy == other.token_policy
            && self.source_policy == other.source_policy
            && self.entity_budget == other.entity_budget
            && self.capacity == other.capacity
    }
}

impl Eq for SystemConfig {}

impl SystemConfig {
    /// Creates a configuration with no sources, the default policies, and the
    /// `∞`-saturation cap `cell_count + 1`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::TargetOutOfBounds`] if `target` is not a grid cell.
    pub fn new(
        dims: GridDims,
        target: CellId,
        params: Params,
    ) -> Result<SystemConfig, ConfigError> {
        if !dims.contains(target) {
            return Err(ConfigError::TargetOutOfBounds { target, dims });
        }
        Ok(SystemConfig {
            dims,
            target,
            sources: BTreeSet::new(),
            params,
            dist_cap: dims.cell_count() as u32 + 1,
            token_policy: TokenPolicy::default(),
            source_policy: SourcePolicy::default(),
            entity_budget: None,
            capacity: None,
            topology: OnceLock::new(),
        })
    }

    /// Adds a source cell (the paper's `SID`).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds or equals the target (the target
    /// consumes entities; it cannot also produce them).
    pub fn with_source(mut self, source: CellId) -> SystemConfig {
        assert!(
            self.dims.contains(source),
            "source {source} out of {} bounds",
            self.dims
        );
        assert!(source != self.target, "source must differ from target");
        self.sources.insert(source);
        self
    }

    /// Adds several source cells. Same panics as [`SystemConfig::with_source`].
    pub fn with_sources<I: IntoIterator<Item = CellId>>(mut self, sources: I) -> SystemConfig {
        for s in sources {
            self = self.with_source(s);
        }
        self
    }

    /// Sets the token-selection policy (default [`TokenPolicy::RoundRobin`]).
    pub fn with_token_policy(mut self, policy: TokenPolicy) -> SystemConfig {
        self.token_policy = policy;
        self
    }

    /// Sets the source insertion policy (default [`SourcePolicy::FarEdge`]).
    pub fn with_source_policy(mut self, policy: SourcePolicy) -> SystemConfig {
        self.source_policy = policy;
        self
    }

    /// Caps the total number of entities sources may ever create. Used by the
    /// model checker to bound the state space; `None` (default) is unbounded.
    pub fn with_entity_budget(mut self, budget: u64) -> SystemConfig {
        self.entity_budget = Some(budget);
        self
    }

    /// Gives every cell a finite capacity: the occupancy (entity count) a
    /// cell is engineered to hold. The protocol itself never reads it — the
    /// paper's safety argument is capacity-free — but the surrounding
    /// machinery does: the occupancy≤capacity monitor
    /// ([`standard_monitors`](crate::standard_monitors) gains a
    /// [`CapacityMonitor`](crate::monitor::CapacityMonitor)), the model
    /// checker's capacity invariant, and the [`overload`](crate::overload)
    /// cascade machinery, whose default crash threshold this is.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a cell that can hold nothing cannot
    /// participate in any flow).
    pub fn with_capacity(mut self, capacity: u32) -> SystemConfig {
        assert!(capacity > 0, "capacity must be positive");
        self.capacity = Some(capacity);
        self
    }

    /// Overrides the distance saturation cap (see `cellflow-routing`).
    ///
    /// # Panics
    ///
    /// Panics if `cap` does not exceed the longest possible simple path
    /// (`cell_count − 1`), which would corrupt routing on connected grids.
    pub fn with_dist_cap(mut self, cap: u32) -> SystemConfig {
        assert!(
            cap as usize >= self.dims.cell_count(),
            "cap {cap} must be at least the cell count {}",
            self.dims.cell_count()
        );
        self.dist_cap = cap;
        self
    }

    /// Grid dimensions.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// The target cell `tid`.
    pub fn target(&self) -> CellId {
        self.target
    }

    /// The source cells `SID`.
    pub fn sources(&self) -> &BTreeSet<CellId> {
        &self.sources
    }

    /// The physical parameters `(l, rs, v)`.
    pub fn params(&self) -> Params {
        self.params
    }

    /// The `∞`-saturation cap for `dist`.
    pub fn dist_cap(&self) -> u32 {
        self.dist_cap
    }

    /// The token-selection policy.
    pub fn token_policy(&self) -> TokenPolicy {
        self.token_policy
    }

    /// The source insertion policy.
    pub fn source_policy(&self) -> SourcePolicy {
        self.source_policy
    }

    /// The entity creation budget, if any.
    pub fn entity_budget(&self) -> Option<u64> {
        self.entity_budget
    }

    /// The finite per-cell capacity, if one was set
    /// ([`SystemConfig::with_capacity`]); `None` (default) means unbounded
    /// cells, the paper's original model.
    pub fn capacity(&self) -> Option<u32> {
        self.capacity
    }

    /// The precomputed neighbor table for this grid and target, built on
    /// first use and shared by every [`Engine`] (and clone of this config)
    /// thereafter — no phase recomputes neighbor identifiers per round.
    pub fn topology(&self) -> Arc<NeighborTable> {
        Arc::clone(
            self.topology
                .get_or_init(|| Arc::new(NeighborTable::new(self.dims, self.target))),
        )
    }

    /// The initial [`SystemState`] for this configuration: all cells as in
    /// Figure 3, the target's `dist` pinned to 0, no entities.
    pub fn initial_state(&self) -> SystemState {
        let mut cells = vec![CellState::initial(); self.dims.cell_count()];
        cells[self.dims.index(self.target)] = CellState::initial_target();
        SystemState {
            cells,
            next_entity_id: 0,
        }
    }
}

/// Error building a [`SystemConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The target identifier lies outside the grid.
    TargetOutOfBounds {
        /// The offending target.
        target: CellId,
        /// The grid it missed.
        dims: GridDims,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TargetOutOfBounds { target, dims } => {
                write!(f, "target {target} is outside the {dims} grid")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A complete valuation of all cells' variables — a state `x` of `System`.
///
/// `Clone + Eq + Hash` so the model checker can store and deduplicate states.
/// `next_entity_id` is the source's fresh-identifier counter (the paper draws
/// identifiers from an infinite pool `P`; we mint them in order).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SystemState {
    /// Per-cell states, indexed row-major by [`GridDims::index`].
    pub cells: Vec<CellState>,
    /// The next fresh [`EntityId`] to mint.
    pub next_entity_id: u64,
}

impl SystemState {
    /// The state of one cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds for `dims`.
    pub fn cell(&self, dims: GridDims, id: CellId) -> &CellState {
        &self.cells[dims.index(id)]
    }

    /// Mutable access to one cell's state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds for `dims`.
    pub fn cell_mut(&mut self, dims: GridDims, id: CellId) -> &mut CellState {
        &mut self.cells[dims.index(id)]
    }

    /// Total number of entities currently in the system.
    pub fn entity_count(&self) -> usize {
        self.cells.iter().map(|c| c.members.len()).sum()
    }

    /// Iterates `(cell, entity)` pairs over the whole grid.
    pub fn entities<'a>(&'a self, dims: GridDims) -> impl Iterator<Item = (CellId, Entity)> + 'a {
        self.cells.iter().enumerate().flat_map(move |(k, c)| {
            let id = dims.id_at(k);
            c.entities().map(move |e| (id, e))
        })
    }

    /// Applies the paper's `fail(⟨i,j⟩)` transition: `failed := true`,
    /// `dist := ∞`, `next := ⊥`. The cell also stops communicating, so its
    /// `signal` is cleared (neighbors read silence as `⊥`). Entities on the
    /// cell remain, frozen. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn fail(&mut self, dims: GridDims, id: CellId) {
        let c = self.cell_mut(dims, id);
        c.failed = true;
        c.dist = Dist::Infinity;
        c.next = None;
        c.signal = None;
    }

    /// Applies the recovery transition of the paper's Section IV failure
    /// model: `failed := false`, and if `id` is the target, `dist := 0`.
    /// Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn recover(&mut self, dims: GridDims, id: CellId, target: CellId) {
        let c = self.cell_mut(dims, id);
        c.failed = false;
        if id == target {
            c.dist = Dist::Finite(0);
        }
    }
}

/// The `System` automaton with its execution bookkeeping: round number and
/// cumulative counters — the convenient facade over the round transition
/// used by simulations, examples and tests.
///
/// Rounds execute on the arena-backed [`Engine`], which holds the only copy
/// of the state. Per-round readers (monitors, safety checks, the overload
/// detector) read the arenas in place through [`System::view`];
/// [`System::state`] exports a structured [`SystemState`] on demand and
/// caches it until the next mutation, so a run that never asks for the
/// whole state never builds one. Fault edits change the engine's registers
/// of the one cell they touch and schedule it ([`Engine::load_cell`]), so
/// the next round stays on the changed-set path; [`System::set_state`]
/// imports a whole state ([`Engine::load_state`]). The engine's transition
/// is proven equivalent to the pure [`update`](crate::update) composition
/// by `tests/engine_differential.rs`.
#[derive(Clone, Debug)]
pub struct System {
    config: SystemConfig,
    engine: Engine,
    round: u64,
    consumed_total: u64,
    inserted_total: u64,
    /// [`System::state`]'s export, built on the first call after a
    /// mutation; every `&mut self` method empties it.
    exported: OnceLock<SystemState>,
}

impl System {
    /// Creates a system in the initial state of `config`.
    pub fn new(config: SystemConfig) -> System {
        let engine = Engine::new(config.clone());
        System {
            config,
            engine,
            round: 0,
            consumed_total: 0,
            inserted_total: 0,
            exported: OnceLock::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The current state, exported from the engine on the first call after
    /// a mutation. Per-round readers take [`System::view`] instead.
    pub fn state(&self) -> &SystemState {
        self.exported.get_or_init(|| self.engine.export_state())
    }

    /// A read-only view of the current state in the engine's arenas.
    /// Reading it allocates nothing.
    pub fn view(&self) -> StateView<'_> {
        self.engine.view()
    }

    /// The engine, for mutation: the export cache no longer holds.
    fn engine_mut(&mut self) -> &mut Engine {
        self.exported.take();
        &mut self.engine
    }

    /// Replaces the current state (fault injection / replay). The next
    /// round runs on full sets, and [`System::changed_cells`] is `None`
    /// until the round after it.
    pub fn set_state(&mut self, state: SystemState) {
        assert_eq!(
            state.cells.len(),
            self.config.dims().cell_count(),
            "state size must match the grid"
        );
        self.engine_mut().load_state(&state);
    }

    /// The state of cell `id`, read from [`System::state`]'s export.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn cell(&self, id: CellId) -> &CellState {
        self.state().cell(self.config.dims(), id)
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Total entities consumed by the target since round 0.
    pub fn consumed_total(&self) -> u64 {
        self.consumed_total
    }

    /// Total entities inserted by sources since round 0.
    pub fn inserted_total(&self) -> u64 {
        self.inserted_total
    }

    /// Current occupancy (entity count) of cell `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn occupancy(&self, id: CellId) -> usize {
        self.engine.occupancy(id)
    }

    /// Congestion pressure of cell `id` — the engine's leaky occupancy
    /// integrator (see [`Engine::pressure`]), as of the last executed round.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn pressure(&self, id: CellId) -> u64 {
        self.engine.pressure(id)
    }

    /// Attaches per-phase span timers to the underlying engine (see
    /// [`Engine::attach_phase_timers`]).
    pub fn attach_phase_timers(&mut self, timers: cellflow_telemetry::PhaseTimers) {
        self.engine_mut().attach_phase_timers(timers);
    }

    /// Attaches the scheduler occupancy gauges to the underlying engine
    /// (see [`Engine::attach_scheduler_metrics`]).
    pub fn attach_scheduler_metrics(&mut self, metrics: cellflow_telemetry::SchedulerMetrics) {
        self.engine_mut().attach_scheduler_metrics(metrics);
    }

    /// Turns on per-round phase attribution in the underlying engine (see
    /// [`Engine::enable_round_trace`]).
    pub fn enable_round_trace(&mut self) {
        self.engine_mut().enable_round_trace();
    }

    /// Attaches a flight recorder to the underlying engine (see
    /// [`Engine::attach_recorder`]): the opening keyframe is the state
    /// visible right now, at the current round number.
    pub fn attach_recorder(&mut self, recorder: Box<crate::snapshot::Recorder>) {
        let round = self.round;
        let engine = self.engine_mut();
        engine.set_round(round);
        engine.attach_recorder(recorder);
    }

    /// Detaches and returns the flight recorder, if any (see
    /// [`Engine::take_recorder`]).
    pub fn take_recorder(&mut self) -> Option<Box<crate::snapshot::Recorder>> {
        self.engine_mut().take_recorder()
    }

    /// The most recent round's phase attribution (see
    /// [`Engine::round_trace`]).
    pub fn round_trace(&self) -> crate::RoundTrace {
        self.engine.round_trace()
    }

    /// How rounds execute (see [`Engine::exec_mode`]).
    pub fn exec_mode(&self) -> crate::ExecMode {
        self.engine.exec_mode()
    }

    /// Switches the engine between the dense reference sweep and sparse
    /// active-set scheduling (see [`Engine::set_exec_mode`]). Both modes are
    /// state- and event-identical; reports stay byte-identical per seed.
    pub fn set_exec_mode(&mut self, mode: crate::ExecMode) {
        self.engine_mut().set_exec_mode(mode);
    }

    /// Distinct cells the engine's phases ran on in the most recent round
    /// (see [`Engine::active_cells`]).
    pub fn active_cells(&self) -> usize {
        self.engine.active_cells()
    }

    /// The cells the most recent [`System::step`] may have changed, as
    /// ascending arena indices ([`GridDims::index`] order) — a superset of
    /// the cells whose state differs from the state before that step,
    /// fault edits made ahead of it included. `None` when any cell may
    /// have, as [`Engine::changed_cells`] says: after the round that
    /// follows [`System::set_state`], and from any edit until the next
    /// step. Monitors take it as [`MonitorCtx::changed`].
    ///
    /// [`MonitorCtx::changed`]: crate::MonitorCtx::changed
    pub fn changed_cells(&self) -> Option<&[u32]> {
        self.engine.changed_cells()
    }

    /// Events of the most recent round (see [`Engine::events`]).
    pub fn events(&self) -> &RoundEvents {
        self.engine.events()
    }

    /// Executes one `update` transition (one synchronous round) and returns
    /// what happened: the engine's own record of the round.
    pub fn step(&mut self) -> &RoundEvents {
        self.exported.take();
        self.engine.set_round(self.round);
        let events = self.engine.step();
        self.round += 1;
        self.consumed_total += events.consumed.len() as u64;
        self.inserted_total += events.inserted.len() as u64;
        events
    }

    /// Runs `rounds` update transitions.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Sets the per-cell incoming link-cut masks applied by the next
    /// [`System::step`] (see [`Engine::set_link_cuts`]). Cut slots read as
    /// silent neighbors: `dist = ∞`, no request seen, no grant seen.
    ///
    /// Masks are a transient *input* like the round number, not part of the
    /// protocol state — they persist across steps until replaced or cleared.
    ///
    /// # Panics
    ///
    /// Panics if `masks.len()` differs from the number of cells.
    pub fn set_link_cuts(&mut self, masks: &[u8]) {
        self.engine_mut().set_link_cuts(masks);
    }

    /// Clears all link cuts (see [`Engine::clear_link_cuts`]).
    pub fn clear_link_cuts(&mut self) {
        self.engine_mut().clear_link_cuts();
    }

    /// Crashes cell `id` (see [`SystemState::fail`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn fail(&mut self, id: CellId) {
        let k = self.config.dims().index(id);
        self.engine_mut().fail_cell(k);
    }

    /// Recovers cell `id` (see [`SystemState::recover`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn recover(&mut self, id: CellId) {
        let k = self.config.dims().index(id);
        self.engine_mut().recover_cell(k);
    }

    /// Applies a transient state corruption to cell `id` (see
    /// [`Corruption::apply`]) — the adversary of the stabilization theorems.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn corrupt(&mut self, id: CellId, corruption: Corruption) {
        let k = self.config.dims().index(id);
        let mut cell = self.engine.export_cell(k);
        corruption.apply(&self.config, id, &mut cell);
        self.engine_mut().load_cell(k, &cell);
    }

    /// Places an entity with a fresh identifier at `pos` on cell `id`,
    /// bypassing the source machinery — for test setups and examples.
    ///
    /// # Errors
    ///
    /// Returns `Err` (without modifying anything) if the position violates
    /// Invariant 1's margins for the cell or the spacing requirement against
    /// the cell's current members.
    pub fn seed_entity(&mut self, id: CellId, pos: Point) -> Result<EntityId, SeedError> {
        let params = self.config.params();
        if !crate::source::within_cell_margins(params, id, pos) {
            return Err(SeedError::OutsideMargins);
        }
        let k = self.config.dims().index(id);
        if !self
            .view()
            .members(k)
            .all(|q| cellflow_geom::sep_ok(pos, q.pos, params.d()))
        {
            return Err(SeedError::TooClose);
        }
        let eid = EntityId(self.engine.next_entity_id());
        let mut cell = self.engine.export_cell(k);
        cell.members.insert(eid, pos);
        let engine = self.engine_mut();
        engine.set_next_entity_id(eid.0 + 1);
        engine.load_cell(k, &cell);
        Ok(eid)
    }
}

/// Error from [`System::seed_entity`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedError {
    /// The footprint would protrude outside the cell (violates Invariant 1).
    OutsideMargins,
    /// The position is within `d` of an existing entity on both axes
    /// (violates `Safe`).
    TooClose,
}

impl fmt::Display for SeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            SeedError::OutsideMargins => "position leaves the cell's interior margins",
            SeedError::TooClose => "position violates the spacing requirement",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for SeedError {}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_geom::Fixed;

    fn config() -> SystemConfig {
        SystemConfig::new(
            GridDims::square(4),
            CellId::new(3, 3),
            Params::from_milli(250, 50, 100).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn config_validation() {
        let bad = SystemConfig::new(
            GridDims::square(4),
            CellId::new(4, 0),
            Params::from_milli(250, 50, 100).unwrap(),
        );
        assert!(matches!(bad, Err(ConfigError::TargetOutOfBounds { .. })));
        assert!(bad.unwrap_err().to_string().contains("outside"));
    }

    #[test]
    #[should_panic(expected = "differ from target")]
    fn source_equal_to_target_panics() {
        let _ = config().with_source(CellId::new(3, 3));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn source_out_of_bounds_panics() {
        let _ = config().with_source(CellId::new(9, 9));
    }

    #[test]
    #[should_panic(expected = "cap")]
    fn tiny_dist_cap_panics() {
        let _ = config().with_dist_cap(3);
    }

    #[test]
    fn initial_state_shape() {
        let cfg = config().with_source(CellId::new(0, 0));
        let s = cfg.initial_state();
        assert_eq!(s.cells.len(), 16);
        assert_eq!(s.next_entity_id, 0);
        assert_eq!(s.cell(cfg.dims(), cfg.target()).dist, Dist::Finite(0));
        assert_eq!(s.cell(cfg.dims(), CellId::new(0, 0)).dist, Dist::Infinity);
        assert_eq!(s.entity_count(), 0);
    }

    #[test]
    fn fail_and_recover_roundtrip() {
        let cfg = config();
        let mut s = cfg.initial_state();
        let victim = CellId::new(1, 1);
        s.fail(cfg.dims(), victim);
        assert!(s.cell(cfg.dims(), victim).failed);
        assert_eq!(s.cell(cfg.dims(), victim).dist, Dist::Infinity);
        s.recover(cfg.dims(), victim, cfg.target());
        assert!(!s.cell(cfg.dims(), victim).failed);
        assert_eq!(s.cell(cfg.dims(), victim).dist, Dist::Infinity); // Route will fix

        // Target recovery resets dist to 0.
        s.fail(cfg.dims(), cfg.target());
        assert_eq!(s.cell(cfg.dims(), cfg.target()).dist, Dist::Infinity);
        s.recover(cfg.dims(), cfg.target(), cfg.target());
        assert_eq!(s.cell(cfg.dims(), cfg.target()).dist, Dist::Finite(0));
    }

    #[test]
    fn fault_edits_keep_the_next_round_on_the_changed_set() {
        use crate::fault::Corruption;
        use cellflow_geom::Dir;
        let cfg = SystemConfig::new(
            GridDims::square(6),
            CellId::new(1, 5),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(1, 0))
        .with_source(CellId::new(4, 0));
        let mut sys = System::new(cfg);
        sys.run(30);
        let (cell, spot, target) = (CellId::new(1, 2), CellId::new(3, 3), CellId::new(1, 5));
        let edits = [
            "seed",
            "jostle",
            "fail",
            "recover",
            "fail target",
            "recover target",
            "dist",
            "next",
            "token",
            "signal",
            "ne_prev",
            "scramble",
            "fail and recover",
        ];
        for name in edits {
            let before = sys.state().clone();
            match name {
                "seed" => {
                    sys.seed_entity(spot, spot.center())
                        .expect("room on the cell");
                }
                // One round in, the seeded entity is still on its cell.
                "jostle" => sys.corrupt(spot, Corruption::Jostle { salt: 7 }),
                "fail" => sys.fail(cell),
                "recover" => sys.recover(cell),
                "fail target" => sys.fail(target),
                "recover target" => sys.recover(target),
                "dist" => sys.corrupt(cell, Corruption::Dist(Dist::Finite(0))),
                "next" => sys.corrupt(cell, Corruption::Next(Some(Dir::East))),
                "token" => sys.corrupt(cell, Corruption::Token(Some(Dir::West))),
                "signal" => sys.corrupt(cell, Corruption::Signal(Some(Dir::South))),
                "ne_prev" => sys.corrupt(cell, Corruption::NePrev { mask: 0b1111 }),
                "scramble" => sys.corrupt(cell, Corruption::Scramble { salt: 9 }),
                _ => {
                    sys.fail(cell);
                    sys.recover(cell);
                }
            }
            assert_eq!(
                sys.changed_cells(),
                None,
                "{name}: nothing bounds an edit before its round"
            );
            sys.step();
            let changed = sys
                .changed_cells()
                .unwrap_or_else(|| panic!("{name}: the round after the edit scanned in full"));
            for (k, (a, b)) in before.cells.iter().zip(&sys.state().cells).enumerate() {
                assert!(
                    a == b || changed.binary_search(&(k as u32)).is_ok(),
                    "{name}: cell {k} changed unreported"
                );
            }
        }
        // A whole-state import makes its round a full-set round.
        let state = sys.state().clone();
        sys.set_state(state);
        sys.step();
        assert_eq!(
            sys.changed_cells(),
            None,
            "set_state's round is a full-set round"
        );
        sys.step();
        assert!(sys.changed_cells().is_some());
    }

    /// Every mutator, interleaved with `state()` and `cell()` reads: each
    /// read sees what a fresh export of the engine holds, so no mutator
    /// leaves a stale export behind.
    #[test]
    fn state_reads_track_every_mutator() {
        use crate::fault::Corruption;
        let cfg = SystemConfig::new(
            GridDims::square(6),
            CellId::new(1, 5),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(1, 0));
        let mut sys = System::new(cfg);
        let check = |sys: &System, what: &str| {
            let fresh = sys.engine.export_state();
            assert_eq!(sys.state(), &fresh, "state() after {what}");
            for id in sys.config().dims().iter() {
                assert_eq!(sys.cell(id), fresh.cell(sys.config().dims(), id), "{what}");
            }
        };
        check(&sys, "construction");
        let (cell, spot) = (CellId::new(1, 2), CellId::new(4, 3));
        for round in 0..60u64 {
            check(&sys, "the previous edit");
            match round % 7 {
                0 => sys.fail(cell),
                1 => sys.recover(cell),
                2 => sys.corrupt(cell, Corruption::Scramble { salt: round }),
                3 => {
                    let _ = sys.seed_entity(spot, spot.center());
                }
                4 => {
                    let state = sys.state().clone();
                    sys.set_state(state);
                }
                5 => sys.fail(sys.config().target()),
                _ => sys.recover(sys.config().target()),
            }
            check(&sys, "an edit");
            sys.step();
        }
        check(&sys, "the last step");
        assert!(sys.state().entity_count() > 0);
    }

    #[test]
    fn seed_entity_validates() {
        let mut sys = System::new(config());
        let cell = CellId::new(1, 1);
        let center = cell.center();
        let id0 = sys.seed_entity(cell, center).unwrap();
        assert_eq!(id0, EntityId(0));
        // Same spot: spacing violation.
        assert_eq!(sys.seed_entity(cell, center), Err(SeedError::TooClose));
        // Outside margins.
        let edge = Point::new(Fixed::from_int(1), Fixed::from_milli(1_500));
        assert_eq!(sys.seed_entity(cell, edge), Err(SeedError::OutsideMargins));
        // A d-separated spot works and mints the next id.
        let ok = center.translate(cellflow_geom::Dir::North, sys.config().params().d());
        assert_eq!(sys.seed_entity(cell, ok), Ok(EntityId(1)));
        assert_eq!(sys.state().entity_count(), 2);
        let listed: Vec<_> = sys.state().entities(sys.config().dims()).collect();
        assert_eq!(listed.len(), 2);
        assert!(listed.iter().all(|(c, _)| *c == cell));
    }
}
