//! The zero-clone round engine: a flat, arena-backed implementation of the
//! atomic `update` transition.
//!
//! The pure three-phase functions ([`route_phase`](crate::route_phase),
//! [`signal_phase`](crate::signal_phase), [`move_phase`](crate::move_phase))
//! are the *specification*: they mirror the paper's Figures 4–6 line by line
//! and keep Lemma 3's intermediate states `xR`, `xS` observable, but each
//! clones the full [`SystemState`] (three `O(cells · log)` allocation storms
//! per round). This module implements the *same transition relation* on a
//! flat representation tuned for throughput:
//!
//! * cell protocol registers live in a contiguous `Vec<CellCore>` (a `Copy`
//!   struct — no `BTreeSet`/`BTreeMap` per cell);
//! * `NEPrev` is a 4-bit neighbor mask over [`Dir::ALL`] instead of a
//!   `BTreeSet<CellId>`;
//! * entities are per-cell `Vec<(EntityId, Point)>` arenas kept sorted by
//!   identifier (matching `BTreeMap` iteration order);
//! * neighbor arena indices come from a [`NeighborTable`] precomputed once
//!   per configuration (cached on [`SystemConfig`], shared via `Arc`);
//! * `Route` writes into a second buffer which then *swaps* with the first
//!   (it reads neighbor distances, so it cannot run in place), while
//!   `Signal` and `Move` are aliasing-safe in place: `Signal` writes only a
//!   cell's own `ne_prev`/`token`/`signal` and reads neighbors' `next` and
//!   members (which it never writes); `Move` defers cross-cell arrivals to a
//!   reusable `incoming` scratch exactly like the reference.
//!
//! A steady-state [`Engine::step`] therefore performs **zero heap
//! allocation**: every buffer is reused, and the only allocations ever made
//! are capacity growth while entity counts or event volumes are still
//! ramping up. The engine counts those growth events
//! ([`Engine::alloc_events`]) so benchmarks and tests can assert the
//! steady-state claim mechanically.
//!
//! On top of the flat layout, the engine schedules rounds **sparsely** by
//! default ([`ExecMode::Sparse`]): per-round dirty tracking (distance
//! updates, occupancy flips, sticky signal registers, link-cut diffs,
//! per-cell fault and corruption imports via [`Engine::load_cell`]) shrinks
//! each phase's sweep to the cells whose inputs changed, so a quiescent
//! region costs O(active), not O(N), and a fault edit O(edited cells). Each phase sweeps its sorted list on the calling
//! thread, in ascending cell order, so the events come out in the same
//! row-major order the dense sweep emits them. The dense mode remains
//! available as the differential reference and benchmark baseline.
//!
//! Equivalence with the pure phases — identical successor state *and*
//! identical [`RoundEvents`], per round, under crashes, recoveries and
//! corruptions — is enforced by `tests/engine_differential.rs` at the
//! workspace root, and sparse vs dense by `tests/sparse_differential.rs`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use cellflow_geom::{Dir, Point};
use cellflow_grid::{CellId, GridDims};
use cellflow_routing::Dist;
use cellflow_telemetry::{PhaseTimers, SchedulerMetrics};

use crate::kernel::{self, Step};
use crate::{
    CellState, EntityId, Params, RoundEvents, StateView, SystemConfig, SystemState, TokenPolicy,
    Transfer,
};

/// Sentinel for "no neighbor in this direction" in [`NeighborTable`].
const NO_NBR: u32 = u32::MAX;

/// Slot order that visits a cell's neighbors in ascending `CellId` order.
///
/// Slots index [`Dir::ALL`] = `[East, West, North, South]`; `CellId`'s
/// derived ordering is lexicographic `(i, j)`, so for cell `⟨i,j⟩` the sorted
/// neighbor order is `W ⟨i−1,j⟩ < S ⟨i,j−1⟩ < N ⟨i,j+1⟩ < E ⟨i+1,j⟩`.
const SORTED_SLOTS: [usize; 4] = [1, 3, 2, 0];

/// Precomputed grid topology: per-cell neighbor arena indices and
/// identifiers in [`Dir::ALL`] slot order, plus the target's arena index.
///
/// Built once per configuration and cached on
/// [`SystemConfig::topology`], so no phase ever recomputes
/// neighbor identifiers or row-major indices round over round.
pub struct NeighborTable {
    /// `CellId` of each arena index (row-major, [`GridDims::index`] order).
    ids: Vec<CellId>,
    /// Per cell, the arena index of the neighbor in each [`Dir::ALL`] slot
    /// (`NO_NBR` where the direction leaves the grid).
    nbr_idx: Vec<[u32; 4]>,
    /// Per cell, the neighbor `CellId` per slot (valid iff `nbr_idx` is).
    nbr_id: Vec<[CellId; 4]>,
    /// Arena index of the target cell.
    target_index: usize,
}

impl NeighborTable {
    /// Builds the table for `dims` with the given target cell.
    pub fn new(dims: GridDims, target: CellId) -> NeighborTable {
        let n = dims.cell_count();
        let mut ids = Vec::with_capacity(n);
        let mut nbr_idx = Vec::with_capacity(n);
        let mut nbr_id = Vec::with_capacity(n);
        for k in 0..n {
            let id = dims.id_at(k);
            ids.push(id);
            let mut idxs = [NO_NBR; 4];
            let mut cids = [id; 4];
            for (s, &dir) in Dir::ALL.iter().enumerate() {
                if let Some(nbr) = dims.neighbor(id, dir) {
                    idxs[s] = dims.index(nbr) as u32;
                    cids[s] = nbr;
                }
            }
            nbr_idx.push(idxs);
            nbr_id.push(cids);
        }
        NeighborTable {
            ids,
            nbr_idx,
            nbr_id,
            target_index: dims.index(target),
        }
    }

    /// The `CellId` at arena index `k`.
    pub fn id_at(&self, k: usize) -> CellId {
        self.ids[k]
    }

    /// Number of cells covered.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` for an empty grid (never happens for valid configurations).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

impl std::fmt::Debug for NeighborTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeighborTable")
            .field("cells", &self.ids.len())
            .field("target_index", &self.target_index)
            .finish()
    }
}

/// One cell's protocol registers in flat form — everything from
/// [`CellState`] except the member map, with `NEPrev`
/// packed into a 4-bit mask over [`Dir::ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellCore {
    /// Estimated hop distance to the target (`dist`).
    pub dist: Dist,
    /// Routing successor (`next`).
    pub next: Option<CellId>,
    /// Current token holder (`token`).
    pub token: Option<CellId>,
    /// Granted neighbor this round (`signal`).
    pub signal: Option<CellId>,
    /// `NEPrev` as a bitmask: bit `s` set ⇔ the neighbor in `Dir::ALL[s]`
    /// is a nonempty predecessor.
    pub ne_mask: u8,
    /// The §IV crash flag.
    pub failed: bool,
}

impl Default for CellCore {
    /// Matches [`CellState::initial`].
    fn default() -> CellCore {
        CellCore {
            dist: Dist::Infinity,
            next: None,
            token: None,
            signal: None,
            ne_mask: 0,
            failed: false,
        }
    }
}

/// How [`Engine::step`] executes a round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Recompute every cell every round — O(N) per round regardless of
    /// activity. Kept as the differential reference the sparse round is
    /// tested against, and as the benchmark baseline.
    Dense,
    /// Active-set scheduling (the default): `Route`/`Signal`/`Move` run only
    /// on cells whose inputs changed since they last ran, each phase
    /// sweeping its sorted list on the calling thread, so quiescent regions
    /// cost nothing. State- and event-identical to [`ExecMode::Dense`] —
    /// see the invariant notes on [`Sched`] and the differential suite in
    /// `tests/sparse_differential.rs`.
    Sparse,
}

/// An epoch-stamped cell set: membership is `stamp[k] == epoch`, so clearing
/// is one integer bump (no O(N) wipe) and the member list is reused round
/// over round without reallocating — the "cheap membership bitmap" the
/// sparse scheduler builds its dirty tracking on.
#[derive(Clone, Debug)]
struct MarkSet {
    stamp: Vec<u64>,
    epoch: u64,
    list: Vec<u32>,
}

impl MarkSet {
    fn with_cells(n: usize) -> MarkSet {
        MarkSet {
            stamp: vec![0; n],
            // Stamps start below the live epoch so nothing is spuriously
            // "already present" before the first insert.
            epoch: 1,
            list: Vec::new(),
        }
    }

    /// Empties the set by advancing the epoch; list capacity is retained.
    fn begin(&mut self) {
        self.epoch += 1;
        self.list.clear();
    }

    fn insert(&mut self, k: u32, allocs: &mut u64) {
        if self.stamp[k as usize] != self.epoch {
            self.stamp[k as usize] = self.epoch;
            push_tracked(&mut self.list, k, allocs);
        }
    }

    /// Inserts every cell — the conservative reset after anything that may
    /// have rewritten arbitrary registers (`load_state`, a mode switch).
    fn fill_all(&mut self, allocs: &mut u64) {
        self.begin();
        for k in 0..self.stamp.len() {
            self.stamp[k] = self.epoch;
            push_tracked(&mut self.list, k as u32, allocs);
        }
    }
}

/// Where [`move_cell_into`] writes: the round's events, the deferred
/// cross-cell arrivals, and the growth counter.
struct MoveSink<'a> {
    events: &'a mut RoundEvents,
    incoming: &'a mut Vec<(u32, EntityId, Point)>,
    allocs: &'a mut u64,
}

/// The active-set scheduler's state. The correctness invariant, per phase:
/// a cell may be skipped only if re-running the phase on it would write back
/// exactly the registers it already holds and emit no event. Concretely:
///
/// * **Route** — a cell's routed `(dist, next)` is a pure function of its
///   neighbors' `dist`, its own `failed` flag and its incoming-cut mask, so
///   `route_now` holds every cell for which any of those changed since it
///   last ran (neighbor dist writes mark neighbors; cut diffs mark the
///   reading cell; a per-cell import marks the cell and its neighbors; a
///   whole-state import marks everything).
/// * **Signal** — a skipped cell must be *idle*: registers `(0, ⊥, ⊥)` and
///   no requester. Any cell that finishes `Signal` with a nonzero register
///   re-marks itself ("sticky"); requester appearance is covered by
///   occupancy flips and `next` changes, both of which mark the four
///   neighbors of the changed cell.
/// * **Move** — only nonempty cells move, so the sweep list is exactly the
///   incrementally-maintained occupancy set.
/// * **Pressure** — the leaky integrator is zero and stays zero outside
///   `pressure_list` (cells with nonzero pressure or members).
///
/// A skipped cell reads exactly like footnote 1's silent-but-correct
/// neighbor: its `dist`/`next`/`signal` announcements are whatever it last
/// wrote, which is precisely what a dense round would have rewritten
/// unchanged.
#[derive(Clone, Debug)]
struct Sched {
    /// Cells whose `Route` inputs changed: recompute this round.
    route_now: MarkSet,
    /// `Route` dirty marks accumulating for the next round.
    route_next: MarkSet,
    /// Cells whose `Signal` must run this round.
    sig_now: MarkSet,
    /// `Signal` marks accumulating for the next round (sticky cells,
    /// occupancy flips, cut diffs).
    sig_next: MarkSet,
    /// `occupied[k]` ⇔ `members[k]` is nonempty, maintained incrementally.
    occupied: Vec<bool>,
    /// Unsorted list of occupied cells (compacted once per round).
    occupied_list: Vec<u32>,
    /// Sorted copy of `occupied_list` the `Move` sweep iterates.
    move_list: Vec<u32>,
    /// `pressure_flag[k]` ⇔ `k` is in `pressure_list`.
    pressure_flag: Vec<bool>,
    /// Cells with nonzero pressure or members — everywhere else the
    /// integrator is 0 and `⌊0/2⌋ + 0 = 0`, so skipping is exact.
    pressure_list: Vec<u32>,
    /// The cells the most recent round may have changed: every cell a
    /// phase ran on, plus arrival and source-insertion cells, sorted
    /// ascending once the round completes (see [`Engine::changed_cells`]).
    touch: MarkSet,
    /// Distinct cells any phase ran on in the most recent round.
    last_active: usize,
    /// Run the next round on full sets (construction, `load_state`, mode
    /// switches — anything that may have rewritten arbitrary registers).
    mark_all: bool,
    /// Any cell may differ from the previous round (a dense round, a
    /// full-set round, or an import since): `touch` does not bound the
    /// change.
    changed_all: bool,
}

impl Sched {
    fn with_cells(n: usize) -> Sched {
        Sched {
            route_now: MarkSet::with_cells(n),
            route_next: MarkSet::with_cells(n),
            sig_now: MarkSet::with_cells(n),
            sig_next: MarkSet::with_cells(n),
            occupied: vec![false; n],
            occupied_list: Vec::new(),
            move_list: Vec::new(),
            pressure_flag: vec![false; n],
            pressure_list: Vec::new(),
            touch: MarkSet::with_cells(n),
            last_active: n,
            mark_all: true,
            changed_all: true,
        }
    }
}

/// The sorted (ascending `CellId`) neighbor candidates selected by `mask` on
/// cell `k`.
fn candidates_of(topo: &NeighborTable, k: usize, mask: u8) -> ([CellId; 4], usize) {
    let mut cands = [topo.ids[k]; 4];
    let mut cn = 0;
    for &s in &SORTED_SLOTS {
        if mask & (1 << s) != 0 {
            cands[cn] = topo.nbr_id[k][s];
            cn += 1;
        }
    }
    (cands, cn)
}

/// `Route` (Figure 4) for a non-failed, non-target cell, hand-rolled instead
/// of calling `route_update` because it is faster (DESIGN.md §9.2): the
/// `argmin (dist, id)` over readable neighbors, visited in
/// ascending-`CellId` order ([`SORTED_SLOTS`]) with strict-`<` keep-first
/// replacement so the id tie-break never has to run. A cut slot reads as a
/// silent neighbor: `dist = ∞`.
fn route_core(
    topo: &NeighborTable,
    front: &[CellCore],
    cut: u8,
    cap: u32,
    k: usize,
) -> (Dist, Option<CellId>) {
    let nbr_idx = &topo.nbr_idx[k];
    let mut best = Dist::Infinity;
    // 4 = "no finite-distance neighbor": both the zero-neighbor case and the
    // all-∞ case produce (∞, ⊥), exactly like `route_update`.
    let mut best_slot = 4usize;
    for &s in &SORTED_SLOTS {
        let ni = nbr_idx[s];
        if ni == NO_NBR || cut & (1 << s) != 0 {
            continue;
        }
        let d = front[ni as usize].dist;
        if d < best {
            best = d;
            best_slot = s;
        }
    }
    if best_slot < 4 {
        let dist = best.succ(cap);
        let next = if dist.is_finite() {
            Some(topo.nbr_id[k][best_slot])
        } else {
            None
        };
        (dist, next)
    } else {
        (Dist::Infinity, None)
    }
}

/// `Move` (Figure 6) on cell `k`: checks the grant, then steps each member
/// through [`kernel::advance`], emitting events and deferred cross-cell
/// arrivals into `out`. All permission reads (`signal`, `failed`) come from
/// registers `Move` never writes, and the only mutation is the cell's own
/// member arena.
fn move_cell_into(
    config: &SystemConfig,
    topo: &NeighborTable,
    front: &[CellCore],
    link_cuts: &[u8],
    members_k: &mut Vec<(EntityId, Point)>,
    k: usize,
    out: &mut MoveSink<'_>,
) {
    let c = front[k];
    if c.failed || members_k.is_empty() {
        return;
    }
    let Some(nx) = c.next else { return };
    let id = topo.ids[k];
    let dir = id.dir_to(nx).expect("next is always a neighbor");
    if !link_cuts.is_empty() {
        let s = Dir::ALL
            .iter()
            .position(|&d| d == dir)
            .expect("Dir::ALL covers every direction");
        // The grant announcement from a cut neighbor never arrives: the cell
        // reads signal = ⊥ and stays put.
        if link_cuts[k] & (1 << s) != 0 {
            return;
        }
    }
    let params = config.params();
    let to_target = nx == config.target();
    let nxi = config.dims().index(nx);
    let nc = front[nxi];
    if nc.failed || nc.signal != Some(id) {
        return;
    }
    push_tracked(&mut out.events.moved, id, out.allocs);
    let edge = id.boundary(dir);
    let mut w = 0usize;
    for r in 0..members_k.len() {
        let (eid, pos) = members_k[r];
        match kernel::advance(params, dir, edge, pos) {
            Step::Stay(at) => {
                members_k[w] = (eid, at);
                w += 1;
            }
            Step::Cross(_) if to_target => {
                push_tracked(&mut out.events.consumed, eid, out.allocs);
            }
            Step::Cross(at) => {
                push_tracked(out.incoming, (nxi as u32, eid, at), out.allocs);
                push_tracked(
                    &mut out.events.transfers,
                    Transfer {
                        entity: eid,
                        from: id,
                        to: nx,
                    },
                    out.allocs,
                );
            }
        }
    }
    members_k.truncate(w);
}

/// The double-buffered round engine. See the [module docs](self) for the
/// layout and aliasing argument.
///
/// Drive it directly for maximum throughput (benchmarks do), or through
/// [`System`](crate::System), which adds the round bookkeeping and exports
/// a [`SystemState`] only on demand. Monitors and safety checks read the
/// arenas in place through [`Engine::view`].
///
/// ```
/// use cellflow_core::engine::Engine;
/// use cellflow_core::{Params, SystemConfig};
/// use cellflow_grid::{CellId, GridDims};
///
/// let config = SystemConfig::new(
///     GridDims::square(8),
///     CellId::new(1, 7),
///     Params::from_milli(250, 50, 200)?,
/// )?
/// .with_source(CellId::new(1, 0));
/// let mut engine = Engine::new(config);
/// let mut consumed = 0u64;
/// for _ in 0..200 {
///     consumed += engine.step().consumed.len() as u64;
/// }
/// assert!(consumed > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Engine {
    config: SystemConfig,
    topo: Arc<NeighborTable>,
    /// Current cell registers ("front" buffer).
    front: Vec<CellCore>,
    /// Scratch buffer `Route` writes into before swapping with `front`.
    back: Vec<CellCore>,
    /// Per-cell entity arenas, sorted by `EntityId` (BTreeMap order).
    members: Vec<Vec<(EntityId, Point)>>,
    next_entity_id: u64,
    round: u64,
    events: RoundEvents,
    /// Deferred cross-cell arrivals `(arena index, entity, position)`.
    incoming: Vec<(u32, EntityId, Point)>,
    /// Per-cell congestion pressure: a leaky integrator
    /// `p ← ⌊p/2⌋ + occupancy`, updated once per round. Bounded by
    /// `2 · max occupancy`, so a cell pinned at its capacity plateaus at
    /// twice that value while a transient spike washes out within a few
    /// rounds — the signal the cascade heat maps render. Derived telemetry,
    /// not protocol state: it survives [`Engine::load_state`] and
    /// [`Engine::load_cell`] and is zeroed only at construction.
    pressure: Vec<u64>,
    /// Exact `ne_prev` sets that cannot be encoded as a neighbor mask
    /// (imported from hand-built states, a cell's entry replaced by each
    /// import of that cell; dropped as soon as `Signal` rewrites the cell).
    /// Empty in any reachable state.
    ne_override: Vec<(u32, BTreeSet<CellId>)>,
    /// Per-cell incoming-cut masks for the *next* round (bit `s` set ⇔ the
    /// neighbor in `Dir::ALL[s]` is unreadable — its announcements are
    /// suppressed, so the cell reads `dist = ∞`, "no request", `signal = ⊥`
    /// from that side, exactly footnote 1's silent-neighbor semantics).
    /// Empty (the default) means no link faults; set per round via
    /// [`Engine::set_link_cuts`]. Transient input, not protocol state: it
    /// survives every import and is never exported.
    link_cuts: Vec<u8>,
    /// Number of buffer-growth (re)allocations since the last reset.
    alloc_events: u64,
    /// Per-phase span timers, attached when telemetry is enabled. `None`
    /// (the default) keeps [`Engine::step`] on the untimed fast path — a
    /// single branch per round, no clock reads.
    timers: Option<PhaseTimers>,
    /// Scheduler occupancy instrumentation (active/skipped cells), attached
    /// when telemetry is enabled.
    sched_metrics: Option<SchedulerMetrics>,
    /// Per-round phase attribution for the causal tracer (see
    /// [`RoundTrace`]); refreshed in place when enabled, otherwise inert.
    round_trace: RoundTrace,
    /// Dense (recompute everything) or sparse (active sets) execution.
    mode: ExecMode,
    /// Active-set scheduler state (dirty sets, occupancy, pressure list).
    sched: Sched,
    /// Sparse `Route`'s `(cell, dist, next)` updates for the cells whose
    /// routed registers change, reused round over round: the kernel reads
    /// neighbor `dist`, so the sweep cannot write in place.
    route_upd: Vec<(u32, Dist, Option<CellId>)>,
    /// Flight recorder, when a recording is being captured. `None` (the
    /// default) keeps [`Engine::step`] on the unrecorded fast path — a
    /// single branch per round, no state export, no allocation.
    recorder: Option<Box<crate::snapshot::Recorder>>,
}

/// One round's phase attribution for the causal tracer: how many cells each
/// phase actually swept and how long it took.
///
/// Plain `Copy` data refreshed in place every round — reading it allocates
/// nothing, so tracing preserves the engine's zero-allocation steady state.
/// The cell counts are deterministic (they mirror the scheduler's sorted
/// work lists); only the `*_ns` fields read the wall clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundTrace {
    /// Whether the engine is filling this struct each round.
    pub enabled: bool,
    /// Cells swept by `Route` (the whole grid in dense mode).
    pub route_cells: u64,
    /// Cells swept by `Signal`.
    pub signal_cells: u64,
    /// Cells swept by `Move`.
    pub move_cells: u64,
    /// Measured `Route` nanoseconds (wall clock; nondeterministic).
    pub route_ns: u64,
    /// Measured `Signal` nanoseconds.
    pub signal_ns: u64,
    /// Measured `Move` nanoseconds (includes source insertion).
    pub move_ns: u64,
}

/// Pushes tracking capacity growth: bumps `allocs` when the push must
/// reallocate.
fn push_tracked<T>(v: &mut Vec<T>, item: T, allocs: &mut u64) {
    if v.len() == v.capacity() {
        *allocs += 1;
    }
    v.push(item);
}

/// Sorted insert into an entity arena (replaces the position on an existing
/// identifier, mirroring `BTreeMap::insert`).
fn insert_member(v: &mut Vec<(EntityId, Point)>, eid: EntityId, pos: Point, allocs: &mut u64) {
    match v.binary_search_by_key(&eid, |e| e.0) {
        Ok(i) => v[i].1 = pos,
        Err(i) => {
            if v.len() == v.capacity() {
                *allocs += 1;
            }
            v.insert(i, (eid, pos));
        }
    }
}

impl Engine {
    /// Creates an engine in the initial state of `config` at round 0.
    pub fn new(config: SystemConfig) -> Engine {
        let topo = config.topology();
        let n = config.dims().cell_count();
        let mut engine = Engine {
            config,
            topo,
            front: vec![CellCore::default(); n],
            back: vec![CellCore::default(); n],
            members: vec![Vec::new(); n],
            next_entity_id: 0,
            round: 0,
            events: RoundEvents::default(),
            incoming: Vec::new(),
            pressure: vec![0; n],
            ne_override: Vec::new(),
            link_cuts: Vec::new(),
            alloc_events: 0,
            timers: None,
            sched_metrics: None,
            round_trace: RoundTrace::default(),
            mode: ExecMode::Sparse,
            sched: Sched::with_cells(n),
            route_upd: Vec::new(),
            recorder: None,
        };
        engine.front[engine.topo.target_index].dist = Dist::Finite(0);
        engine
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The round number the *next* [`Engine::step`] will execute.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Overrides the round counter (it parameterizes
    /// [`TokenPolicy::Randomized`](crate::TokenPolicy::Randomized) choices).
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// The next fresh [`EntityId`] sources will mint.
    pub fn next_entity_id(&self) -> u64 {
        self.next_entity_id
    }

    /// Overrides the fresh-identifier counter — for an entity minted
    /// outside the sources and imported with [`Engine::load_cell`].
    pub fn set_next_entity_id(&mut self, next: u64) {
        self.next_entity_id = next;
    }

    /// Total entities currently in the system.
    pub fn entity_count(&self) -> usize {
        self.members.iter().map(|m| m.len()).sum()
    }

    /// Current occupancy (entity count) of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds.
    pub fn occupancy(&self, cell: CellId) -> usize {
        self.members[self.config.dims().index(cell)].len()
    }

    /// Current congestion pressure of `cell`: the leaky occupancy integrator
    /// `p ← ⌊p/2⌋ + occupancy`, as of the most recent [`Engine::step`].
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds.
    pub fn pressure(&self, cell: CellId) -> u64 {
        self.pressure[self.config.dims().index(cell)]
    }

    /// Events of the most recent round.
    pub fn events(&self) -> &RoundEvents {
        &self.events
    }

    /// Buffer-growth allocations since construction or the last
    /// [`Engine::reset_alloc_events`]. After a warm-up at steady state this
    /// stays constant: a round that grows no buffer allocates nothing.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// Zeroes the growth counter (call after warm-up, before measuring).
    pub fn reset_alloc_events(&mut self) {
        self.alloc_events = 0;
    }

    /// Attaches per-phase span timers (the `cellflow_engine_*_ns`
    /// histograms). Rounds then record Route/Signal/Move and whole-round
    /// nanoseconds; detach by attaching timers from a disabled registry, or
    /// never attach to keep the untimed fast path.
    pub fn attach_phase_timers(&mut self, timers: PhaseTimers) {
        self.timers = if timers.round.is_enabled() {
            Some(timers)
        } else {
            None
        };
    }

    /// Turns on per-round phase attribution: every subsequent
    /// [`Engine::step`] refreshes the [`RoundTrace`] readable via
    /// [`Engine::round_trace`]. Adds one `Instant` read per phase and no
    /// allocations; leave off (the default) for the untraced fast path.
    pub fn enable_round_trace(&mut self) {
        self.round_trace.enabled = true;
    }

    /// The most recent round's phase attribution (all-zero until
    /// [`Engine::enable_round_trace`] and a first step).
    pub fn round_trace(&self) -> RoundTrace {
        self.round_trace
    }

    /// Attaches a flight recorder: the current state is recorded immediately
    /// (the recording's opening keyframe, at the engine's current round) and
    /// every subsequent [`Engine::step`] records its post-round state.
    /// Replaces any recorder already attached.
    pub fn attach_recorder(&mut self, mut recorder: Box<crate::snapshot::Recorder>) {
        recorder.forget_mirror();
        recorder.record_engine(self);
        self.recorder = Some(recorder);
    }

    /// Detaches and returns the flight recorder, if one is attached —
    /// callers seal it with [`Recorder::finish`](crate::snapshot::Recorder::finish).
    pub fn take_recorder(&mut self) -> Option<Box<crate::snapshot::Recorder>> {
        self.recorder.take()
    }

    /// `true` while a flight recorder is attached.
    pub fn is_recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Records the just-completed round into the attached recorder. The
    /// take/put-back dance lets the recorder borrow `self` immutably for the
    /// state export while remaining owned by it.
    fn record_round(&mut self) {
        if let Some(mut recorder) = self.recorder.take() {
            recorder.record_engine(self);
            self.recorder = Some(recorder);
        }
    }

    /// Sets the incoming-cut masks the next [`Engine::step`] honors: one
    /// mask per cell, bit `s` suppressing reads from the neighbor in
    /// `Dir::ALL[s]` (see [`PartitionSchedule::mask_row`]). The first call
    /// with any nonzero mask allocates the buffer once; steady-state
    /// campaigns then update it in place, preserving the zero-allocation
    /// claim.
    ///
    /// [`PartitionSchedule::mask_row`]: crate::PartitionSchedule::mask_row
    ///
    /// # Panics
    ///
    /// Panics if `masks` has the wrong number of cells.
    pub fn set_link_cuts(&mut self, masks: &[u8]) {
        assert_eq!(
            masks.len(),
            self.front.len(),
            "mask row must match the grid"
        );
        if self.link_cuts.is_empty() {
            if masks.iter().all(|&m| m == 0) {
                return;
            }
            for (k, &m) in masks.iter().enumerate() {
                if m != 0 {
                    self.mark_inputs_changed(k as u32);
                }
            }
            self.link_cuts = masks.to_vec();
        } else {
            for (k, (&new, old)) in masks.iter().zip(self.link_cuts.iter_mut()).enumerate() {
                if *old != new {
                    *old = new;
                    self.sched
                        .route_next
                        .insert(k as u32, &mut self.alloc_events);
                    self.sched.sig_next.insert(k as u32, &mut self.alloc_events);
                }
            }
        }
    }

    /// Cell `k`'s `Route` argmin and `Signal` requester mask read different
    /// inputs next round: its incoming-cut mask changed, or an edit
    /// rewrote it or a neighbor.
    fn mark_inputs_changed(&mut self, k: u32) {
        self.sched.route_next.insert(k, &mut self.alloc_events);
        self.sched.sig_next.insert(k, &mut self.alloc_events);
    }

    /// Restores the no-link-faults default (all edges readable).
    pub fn clear_link_cuts(&mut self) {
        for k in 0..self.link_cuts.len() {
            if self.link_cuts[k] != 0 {
                self.mark_inputs_changed(k as u32);
            }
        }
        self.link_cuts.clear();
    }

    /// Imports `state` into the arenas (replacing everything). `ne_prev`
    /// sets that are not representable as a neighbor mask are retained
    /// verbatim so [`Engine::store_state`] loses nothing. The next sparse
    /// round runs on full sets; edits to single cells go through
    /// [`Engine::load_cell`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `state` has the wrong number of cells.
    pub fn load_state(&mut self, state: &SystemState) {
        assert_eq!(
            state.cells.len(),
            self.front.len(),
            "state size must match the grid"
        );
        self.ne_override.clear();
        for (k, cs) in state.cells.iter().enumerate() {
            self.import_cell(k, cs);
        }
        self.next_entity_id = state.next_entity_id;
        // Arbitrary registers may have been rewritten: the next sparse
        // round must recompute everything, and no cell is known to match
        // the previous round.
        self.sched.mark_all = true;
        self.sched.changed_all = true;
    }

    /// Imports `cs` as the state of the cell at arena index `k` — a fault
    /// edit (crash, recovery, corruption, a seeded entity) — and schedules
    /// exactly what it can affect: `k` and its neighbors re-run `Route` and
    /// `Signal` next round (the neighbors read `k`'s `dist`, `next` and
    /// emptiness), and `k` joins the occupancy and pressure lists if it
    /// holds members. Like [`Engine::load_state`], it makes
    /// [`Engine::changed_cells`] `None` until the next step, whose set then
    /// contains `k`. In dense mode, or while a full-set round is pending,
    /// it only imports.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of bounds.
    pub fn load_cell(&mut self, k: usize, cs: &CellState) {
        if !self.ne_override.is_empty() {
            self.ne_override.retain(|(i, _)| *i != k as u32);
        }
        self.import_cell(k, cs);
        self.schedule_edit(k);
    }

    /// Applies the paper's `fail` to the cell at arena index `k` in place
    /// (see [`SystemState::fail`]) and schedules it as
    /// [`Engine::load_cell`] does.
    pub(crate) fn fail_cell(&mut self, k: usize) {
        let c = &mut self.front[k];
        c.failed = true;
        c.dist = Dist::Infinity;
        c.next = None;
        c.signal = None;
        self.schedule_edit(k);
    }

    /// Applies the §IV recovery to the cell at arena index `k` in place
    /// (see [`SystemState::recover`]) and schedules it as
    /// [`Engine::load_cell`] does.
    pub(crate) fn recover_cell(&mut self, k: usize) {
        let c = &mut self.front[k];
        c.failed = false;
        if k == self.topo.target_index {
            c.dist = Dist::Finite(0);
        }
        self.schedule_edit(k);
    }

    /// Schedules an edit of cell `k` made between rounds (see
    /// [`Engine::load_cell`]).
    fn schedule_edit(&mut self, k: usize) {
        self.sched.changed_all = true;
        if self.mode == ExecMode::Dense || self.sched.mark_all {
            return;
        }
        let nbrs = self.topo.nbr_idx[k];
        for i in std::iter::once(k as u32).chain(nbrs) {
            if i != NO_NBR {
                self.mark_inputs_changed(i);
            }
        }
        if !self.members[k].is_empty() {
            note_occupied(
                &mut self.sched,
                &self.topo,
                k as u32,
                &mut self.alloc_events,
            );
        }
    }

    /// Writes `cs` into cell `k`'s registers and member arena, encoding
    /// `ne_prev` as a neighbor mask or, when no mask can express it, as an
    /// `ne_override` entry (the caller drops any stale one).
    fn import_cell(&mut self, k: usize, cs: &CellState) {
        let mut mask = 0u8;
        let mut representable = cs.ne_prev.len() <= 4;
        if representable {
            'encode: for &m in &cs.ne_prev {
                for s in 0..4 {
                    if self.topo.nbr_idx[k][s] != NO_NBR && self.topo.nbr_id[k][s] == m {
                        mask |= 1 << s;
                        continue 'encode;
                    }
                }
                representable = false;
                break;
            }
        }
        if !representable {
            self.ne_override.push((k as u32, cs.ne_prev.clone()));
            mask = 0;
        }
        self.front[k] = CellCore {
            dist: cs.dist,
            next: cs.next,
            token: cs.token,
            signal: cs.signal,
            ne_mask: mask,
            failed: cs.failed,
        };
        let mem = &mut self.members[k];
        mem.clear();
        mem.extend(cs.members.iter().map(|(&e, &p)| (e, p)));
    }

    /// Exports the arenas into `state` in place, reusing its allocations:
    /// per-cell `BTreeSet`/`BTreeMap` structures are rebuilt only when their
    /// contents actually changed.
    ///
    /// # Panics
    ///
    /// Panics if `state` has the wrong number of cells.
    pub fn store_state(&self, state: &mut SystemState) {
        assert_eq!(
            state.cells.len(),
            self.front.len(),
            "state size must match the grid"
        );
        for (k, cs) in state.cells.iter_mut().enumerate() {
            self.store_cell(k, cs);
        }
        state.next_entity_id = self.next_entity_id;
    }

    /// [`Engine::store_state`] restricted to the cells at arena indices
    /// `cells`: with [`Engine::changed_cells`], it brings a copy of the
    /// previous round's state (the recorder's) up to date in O(changed).
    ///
    /// # Panics
    ///
    /// Panics if `state` has the wrong number of cells or an index is out
    /// of bounds.
    pub(crate) fn store_cells(&self, state: &mut SystemState, cells: &[u32]) {
        assert_eq!(
            state.cells.len(),
            self.front.len(),
            "state size must match the grid"
        );
        for &k in cells {
            self.store_cell(k as usize, &mut state.cells[k as usize]);
        }
        state.next_entity_id = self.next_entity_id;
    }

    /// Exports cell `k` into `cs`, rebuilding its sets only on change.
    fn store_cell(&self, k: usize, cs: &mut CellState) {
        let c = self.front[k];
        cs.dist = c.dist;
        cs.next = c.next;
        cs.token = c.token;
        cs.signal = c.signal;
        cs.failed = c.failed;
        let overridden = self
            .ne_override
            .iter()
            .find(|(i, _)| *i == k as u32)
            .map(|(_, set)| set);
        if let Some(set) = overridden {
            if cs.ne_prev != *set {
                cs.ne_prev = set.clone();
            }
        } else {
            let (cands, cn) = candidates_of(&self.topo, k, c.ne_mask);
            let unchanged = cs.ne_prev.len() == cn
                && cs
                    .ne_prev
                    .iter()
                    .zip(cands[..cn].iter())
                    .all(|(a, b)| a == b);
            if !unchanged {
                cs.ne_prev.clear();
                cs.ne_prev.extend(cands[..cn].iter().copied());
            }
        }
        let mem = &self.members[k];
        let same_keys = cs.members.len() == mem.len()
            && cs.members.keys().zip(mem.iter()).all(|(a, (b, _))| a == b);
        if same_keys {
            for (slot, (_, p)) in cs.members.values_mut().zip(mem.iter()) {
                *slot = *p;
            }
        } else {
            cs.members.clear();
            cs.members.extend(mem.iter().copied());
        }
    }

    /// The cells whose exported state may differ from the previous round's,
    /// as ascending arena indices ([`GridDims::index`] order): a superset
    /// of the cells the most recent [`Engine::step`] changed. In a sparse
    /// round that is every cell a phase ran on, widened with the cells
    /// entities arrived on or sources inserted into.
    ///
    /// `None` when any cell may have changed: after a dense round, the
    /// full-set round that follows construction, [`Engine::load_state`] or
    /// a mode switch, and from an import ([`Engine::load_state`] or
    /// [`Engine::load_cell`]) until the next step.
    pub fn changed_cells(&self) -> Option<&[u32]> {
        (!self.sched.changed_all).then_some(self.sched.touch.list.as_slice())
    }

    /// Allocates and returns a fresh [`SystemState`] holding the current
    /// state (for reports, final checks and tests; per-round readers take
    /// [`Engine::view`]).
    pub fn export_state(&self) -> SystemState {
        let mut state = self.config.initial_state();
        self.store_state(&mut state);
        state
    }

    /// The state of the cell at arena index `k` as a [`CellState`].
    pub(crate) fn export_cell(&self, k: usize) -> CellState {
        let mut cs = CellState::initial();
        self.store_cell(k, &mut cs);
        cs
    }

    /// A read-only view of the arenas: what monitors and other per-round
    /// readers take instead of an exported state.
    pub fn view(&self) -> StateView<'_> {
        StateView::of_engine(self)
    }

    /// The cell registers, by arena index.
    pub(crate) fn cores(&self) -> &[CellCore] {
        &self.front
    }

    /// The per-cell entity arenas, sorted by identifier.
    pub(crate) fn arenas(&self) -> &[Vec<(EntityId, Point)>] {
        &self.members
    }

    /// Executes one atomic `update` transition — `Route; Signal; Move` — and
    /// returns the round's events. Equivalent, state for state and event for
    /// event, to [`update`](crate::update) on the exported representation,
    /// in both [`ExecMode`]s.
    pub fn step(&mut self) -> &RoundEvents {
        self.events.consumed.clear();
        self.events.transfers.clear();
        self.events.inserted.clear();
        self.events.grants.clear();
        self.events.blocked.clear();
        self.events.moved.clear();

        match self.mode {
            ExecMode::Dense => self.round_dense(),
            ExecMode::Sparse => self.round_sparse(),
        }

        self.round += 1;
        if self.recorder.is_some() {
            self.record_round();
        }
        &self.events
    }

    /// The PR 3 reference round: every phase sweeps every cell.
    fn round_dense(&mut self) {
        // Spans hold only Arc handles and `RoundTrace` is plain `Copy`
        // data: starting/stopping a span or stamping a phase mark reads the
        // clock but never allocates, so the steady-state zero-allocation
        // claim holds with timing and tracing on too.
        let timers = self.timers.clone();
        let trace = self.round_trace.enabled;
        let whole = timers.as_ref().map(|t| t.round.start());

        let mark = trace.then(Instant::now);
        let span = timers.as_ref().map(|t| t.route.start());
        self.route();
        std::mem::swap(&mut self.front, &mut self.back);
        drop(span);
        if let Some(t0) = mark {
            self.round_trace.route_ns = elapsed_ns(t0);
        }

        let mark = trace.then(Instant::now);
        let span = timers.as_ref().map(|t| t.signal.start());
        self.signal();
        drop(span);
        if let Some(t0) = mark {
            self.round_trace.signal_ns = elapsed_ns(t0);
        }

        let mark = trace.then(Instant::now);
        let span = timers.as_ref().map(|t| t.mv.start());
        self.do_move();
        self.insert_sources();
        drop(span);
        if let Some(t0) = mark {
            self.round_trace.move_ns = elapsed_ns(t0);
        }
        drop(whole);

        if trace {
            let all = self.front.len() as u64;
            self.round_trace.route_cells = all;
            self.round_trace.signal_cells = all;
            self.round_trace.move_cells = all;
        }

        for (p, m) in self.pressure.iter_mut().zip(self.members.iter()) {
            *p = *p / 2 + m.len() as u64;
        }

        self.sched.last_active = self.front.len();
        self.sched.changed_all = true;
        if let Some(m) = &self.sched_metrics {
            m.active_cells.set(self.front.len() as i64);
        }
    }

    /// The active-set round: each phase sweeps only its dirty list.
    fn round_sparse(&mut self) {
        self.begin_round_sparse();
        let timers = self.timers.clone();
        let trace = self.round_trace.enabled;
        let whole = timers.as_ref().map(|t| t.round.start());

        let mark = trace.then(Instant::now);
        let span = timers.as_ref().map(|t| t.route.start());
        self.route_sparse();
        drop(span);
        if let Some(t0) = mark {
            self.round_trace.route_ns = elapsed_ns(t0);
        }

        let mark = trace.then(Instant::now);
        let span = timers.as_ref().map(|t| t.signal.start());
        self.signal_sparse();
        drop(span);
        if let Some(t0) = mark {
            self.round_trace.signal_ns = elapsed_ns(t0);
        }

        let mark = trace.then(Instant::now);
        let span = timers.as_ref().map(|t| t.mv.start());
        self.move_sparse();
        self.insert_sources();
        drop(span);
        if let Some(t0) = mark {
            self.round_trace.move_ns = elapsed_ns(t0);
        }
        drop(whole);

        if trace {
            // The phase lists stay intact until the next round's rotation,
            // so the counts can be read back here, after the sweeps.
            self.round_trace.route_cells = self.sched.route_now.list.len() as u64;
            self.round_trace.signal_cells = self.sched.sig_now.list.len() as u64;
            self.round_trace.move_cells = self.sched.move_list.len() as u64;
        }
        self.update_pressure_sparse();
        self.note_round_activity();
    }

    /// Rotates the dirty sets: marks accumulated since the last round become
    /// this round's work. After anything that rewrote arbitrary state
    /// (`load_state`, a mode switch) the sets are refilled wholesale and the
    /// occupancy/pressure lists rebuilt from the arenas.
    fn begin_round_sparse(&mut self) {
        let Engine {
            sched,
            members,
            pressure,
            alloc_events,
            ..
        } = self;
        sched.changed_all = sched.mark_all;
        if sched.mark_all {
            sched.mark_all = false;
            sched.route_now.fill_all(alloc_events);
            sched.sig_now.fill_all(alloc_events);
            // Pending marks are subsumed by the full sweep.
            sched.route_next.begin();
            sched.sig_next.begin();
            sched.occupied.iter_mut().for_each(|f| *f = false);
            sched.occupied_list.clear();
            sched.pressure_flag.iter_mut().for_each(|f| *f = false);
            sched.pressure_list.clear();
            for (k, m) in members.iter().enumerate() {
                if !m.is_empty() {
                    sched.occupied[k] = true;
                    push_tracked(&mut sched.occupied_list, k as u32, alloc_events);
                }
                if pressure[k] > 0 || !m.is_empty() {
                    sched.pressure_flag[k] = true;
                    push_tracked(&mut sched.pressure_list, k as u32, alloc_events);
                }
            }
        } else {
            std::mem::swap(&mut sched.route_now, &mut sched.route_next);
            sched.route_next.begin();
            std::mem::swap(&mut sched.sig_now, &mut sched.sig_next);
            sched.sig_next.begin();
        }
    }

    /// Sparse `Route`: runs [`route_core`] on the sorted dirty list against
    /// the unmodified `front`, buffering only the cells whose routed
    /// registers change, then writes those back in ascending cell order and
    /// propagates dirt: a changed `dist` re-routes the neighbors next round;
    /// a changed `next` feeds their requester masks in **this** round's
    /// `Signal`.
    fn route_sparse(&mut self) {
        let cap = self.config.dist_cap();
        let Engine {
            sched,
            topo,
            front,
            link_cuts,
            route_upd,
            alloc_events,
            ..
        } = self;
        sched.route_now.list.sort_unstable();
        for &k in &sched.route_now.list {
            let ku = k as usize;
            let c = front[ku];
            // Dense leaves failed cells and the target untouched too.
            if c.failed || ku == topo.target_index {
                continue;
            }
            let cut = if link_cuts.is_empty() {
                0
            } else {
                link_cuts[ku]
            };
            let (dist, next) = route_core(topo, front, cut, cap, ku);
            if dist != c.dist || next != c.next {
                push_tracked(route_upd, (k, dist, next), alloc_events);
            }
        }
        for &(k, dist, next) in route_upd.iter() {
            let ku = k as usize;
            let c = &mut front[ku];
            let dist_changed = c.dist != dist;
            let next_changed = c.next != next;
            c.dist = dist;
            c.next = next;
            let nbrs = &topo.nbr_idx[ku];
            if dist_changed {
                for &ni in nbrs {
                    if ni != NO_NBR {
                        sched.route_next.insert(ni, alloc_events);
                    }
                }
            }
            if next_changed {
                for &ni in nbrs {
                    if ni != NO_NBR {
                        sched.sig_now.insert(ni, alloc_events);
                    }
                }
            }
        }
        route_upd.clear();
    }

    /// Sparse `Signal`: the dense sweep's in-place per-cell step over the
    /// sorted dirty list, re-marking sticky cells — anything finishing with a
    /// nonzero register must run again next round (the skip precondition
    /// is the idle triple).
    fn signal_sparse(&mut self) {
        let params = self.config.params();
        let policy = self.config.token_policy();
        let round = self.round;
        self.sched.sig_now.list.sort_unstable();
        for i in 0..self.sched.sig_now.list.len() {
            let k = self.sched.sig_now.list[i];
            if self.signal_cell(k as usize, params, policy, round) {
                self.sched.sig_next.insert(k, &mut self.alloc_events);
            }
        }
    }

    /// Sparse `Move`: compacts the occupancy list, sweeps exactly the
    /// nonempty cells in ascending order, then marks drained cells'
    /// neighbors and applies deferred arrivals with occupancy tracking.
    fn move_sparse(&mut self) {
        let Engine {
            config,
            topo,
            front,
            members,
            link_cuts,
            incoming,
            events,
            sched,
            alloc_events,
            ..
        } = self;
        let occupied = &mut sched.occupied;
        sched.occupied_list.retain(|&k| {
            if members[k as usize].is_empty() {
                occupied[k as usize] = false;
                false
            } else {
                true
            }
        });
        sched.move_list.clear();
        for &k in &sched.occupied_list {
            push_tracked(&mut sched.move_list, k, alloc_events);
        }
        sched.move_list.sort_unstable();
        let mut sink = MoveSink {
            events,
            incoming,
            allocs: alloc_events,
        };
        for &k in &sched.move_list {
            let ku = k as usize;
            move_cell_into(
                config,
                topo,
                front,
                link_cuts,
                &mut members[ku],
                ku,
                &mut sink,
            );
        }
        // Cells that drained stop being requesters: their neighbors' masks
        // change next round.
        for &k in &sched.move_list {
            if members[k as usize].is_empty() {
                for &ni in &topo.nbr_idx[k as usize] {
                    if ni != NO_NBR {
                        sched.sig_next.insert(ni, alloc_events);
                    }
                }
            }
        }
        self.apply_incoming(true);
    }

    /// Applies deferred cross-cell arrivals in emission order. With `track`,
    /// cells gaining their first occupant are folded into the occupancy and
    /// pressure lists and their neighbors marked for `Signal`.
    fn apply_incoming(&mut self, track: bool) {
        let mut incoming = std::mem::take(&mut self.incoming);
        for &(to, eid, pos) in &incoming {
            let tu = to as usize;
            let was_empty = self.members[tu].is_empty();
            insert_member(&mut self.members[tu], eid, pos, &mut self.alloc_events);
            if track && was_empty {
                note_occupied(&mut self.sched, &self.topo, to, &mut self.alloc_events);
            }
        }
        incoming.clear();
        self.incoming = incoming;
    }

    /// Sparse pressure update: the leaky integrator is identically zero off
    /// the list (`⌊0/2⌋ + 0 = 0`), so only listed cells are touched; a cell
    /// leaves the list once it decays to zero while empty.
    fn update_pressure_sparse(&mut self) {
        let Engine {
            sched,
            pressure,
            members,
            ..
        } = self;
        let mut i = 0;
        while i < sched.pressure_list.len() {
            let k = sched.pressure_list[i] as usize;
            let p = pressure[k] / 2 + members[k].len() as u64;
            pressure[k] = p;
            if p == 0 {
                sched.pressure_flag[k] = false;
                sched.pressure_list.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Counts the distinct cells this round's phases ran on and publishes
    /// the occupancy gauges when scheduler metrics are attached, then
    /// widens that set with the cells entities arrived on or were inserted
    /// into — every cell the round wrote — for [`Engine::changed_cells`].
    fn note_round_activity(&mut self) {
        let Engine {
            config,
            sched,
            sched_metrics,
            front,
            events,
            alloc_events,
            ..
        } = self;
        sched.touch.begin();
        for i in 0..sched.route_now.list.len() {
            let k = sched.route_now.list[i];
            sched.touch.insert(k, alloc_events);
        }
        for i in 0..sched.sig_now.list.len() {
            let k = sched.sig_now.list[i];
            sched.touch.insert(k, alloc_events);
        }
        for i in 0..sched.move_list.len() {
            let k = sched.move_list[i];
            sched.touch.insert(k, alloc_events);
        }
        sched.last_active = sched.touch.list.len();
        if let Some(m) = sched_metrics {
            m.active_cells.set(sched.last_active as i64);
            m.skipped_cells
                .add((front.len() - sched.last_active) as u64);
        }
        if sched.changed_all {
            return; // every cell ran; `changed_cells` reports `None`
        }
        let dims = config.dims();
        for t in &events.transfers {
            sched.touch.insert(dims.index(t.to) as u32, alloc_events);
        }
        for &(s, _) in &events.inserted {
            sched.touch.insert(dims.index(s) as u32, alloc_events);
        }
        sched.touch.list.sort_unstable();
    }

    /// `Route` (Figure 4): writes the routed registers into `back`; the
    /// caller swaps the buffers. Mirrors
    /// [`route_phase`](crate::route_phase): the hand-rolled loop below
    /// computes [`route_update`](cellflow_routing::route_update)'s
    /// `argmin (dist, id)` by visiting the slots
    /// in ascending-`CellId` order ([`SORTED_SLOTS`]) with strict-`<`
    /// keep-first replacement, so the id comparison never has to run. The
    /// differential suite pins the two implementations together.
    fn route(&mut self) {
        let cap = self.config.dist_cap();
        let topo = &*self.topo;
        let front = &self.front;
        let back = &mut self.back;
        for k in 0..front.len() {
            let mut c = front[k];
            if !c.failed && k != topo.target_index {
                let cut = if self.link_cuts.is_empty() {
                    0
                } else {
                    self.link_cuts[k]
                };
                let (dist, next) = route_core(topo, front, cut, cap, k);
                c.dist = dist;
                c.next = next;
            }
            back[k] = c;
        }
    }

    /// `Signal` (Figure 5), in place on `front` over every cell.
    fn signal(&mut self) {
        let params = self.config.params();
        let policy = self.config.token_policy();
        let round = self.round;
        for k in 0..self.front.len() {
            self.signal_cell(k, params, policy, round);
        }
    }

    /// `Signal` on cell `k`, in place on `front`: reads the requester mask
    /// from the neighbor slots and hands the token decision to
    /// [`kernel::signal`]; returns whether the cell finished with a nonzero
    /// register. Safe without a second buffer: it
    /// writes only the cell's own `ne_mask`/`token`/`signal` and reads
    /// neighbors' `next` and member arenas (never written here), so the
    /// registers already rewritten for earlier cells are invisible.
    /// Grant/block events are emitted inline in the same row-major order
    /// the reference derives them. A failed cell does nothing.
    fn signal_cell(&mut self, k: usize, params: Params, policy: TokenPolicy, round: u64) -> bool {
        if self.front[k].failed {
            return false;
        }
        let cut = if self.link_cuts.is_empty() {
            0
        } else {
            self.link_cuts[k]
        };
        let (topo, front, members) = (&*self.topo, &self.front, &self.members);
        let id = topo.ids[k];
        let mut mask = 0u8;
        for (s, &ni) in topo.nbr_idx[k].iter().enumerate() {
            // A cut slot's request announcement never arrives.
            if ni == NO_NBR || cut & (1 << s) != 0 {
                continue;
            }
            let ni = ni as usize;
            if front[ni].next == Some(id) && !members[ni].is_empty() {
                mask |= 1 << s;
            }
        }
        let (cands, cn) = candidates_of(topo, k, mask);
        let (signal, token) =
            kernel::signal(policy, id, round, front[k].token, &cands[..cn], |dir| {
                let members = members[k].iter().map(|e| &e.1);
                kernel::gap_free(params, dir, id.boundary(dir), members)
            });
        match (signal, token) {
            (Some(grantee), _) => {
                push_tracked(
                    &mut self.events.grants,
                    (id, grantee),
                    &mut self.alloc_events,
                );
            }
            (None, Some(holder)) => {
                push_tracked(
                    &mut self.events.blocked,
                    (id, holder),
                    &mut self.alloc_events,
                );
            }
            (None, None) => {}
        }
        let c = &mut self.front[k];
        c.ne_mask = mask;
        c.token = token;
        c.signal = signal;
        if !self.ne_override.is_empty() {
            self.ne_override.retain(|(i, _)| *i != k as u32);
        }
        mask != 0 || token.is_some() || signal.is_some()
    }

    /// `Move` (Figure 6), in place. All permission reads (`signal`,
    /// `failed`) come from registers `Move` never writes; cross-cell
    /// arrivals are deferred to the `incoming` scratch and applied after the
    /// sweep, exactly like [`move_phase`](crate::move_phase).
    fn do_move(&mut self) {
        let Engine {
            config,
            topo,
            front,
            members,
            link_cuts,
            incoming,
            events,
            alloc_events,
            ..
        } = self;
        let mut sink = MoveSink {
            events,
            incoming,
            allocs: alloc_events,
        };
        for (k, members_k) in members.iter_mut().enumerate() {
            move_cell_into(config, topo, front, link_cuts, members_k, k, &mut sink);
        }
        self.apply_incoming(false);
    }

    /// Source insertion (at most one entity per source per round), reading
    /// post-move members exactly like the tail of
    /// [`move_phase`](crate::move_phase).
    fn insert_sources(&mut self) {
        let dims = self.config.dims();
        let params = self.config.params();
        let policy = self.config.source_policy();
        let budget = self.config.entity_budget();
        let sparse = self.mode == ExecMode::Sparse;
        for &s in self.config.sources() {
            let si = dims.index(s);
            if self.front[si].failed {
                continue; // a failed cell does nothing
            }
            if let Some(budget) = budget {
                if self.next_entity_id >= budget {
                    continue;
                }
            }
            let members = self.members[si].iter().map(|e| &e.1);
            let Some(pos) = policy.place(params, s, self.front[si].next, members) else {
                continue;
            };
            let was_empty = self.members[si].is_empty();
            let eid = EntityId(self.next_entity_id);
            self.next_entity_id += 1;
            insert_member(&mut self.members[si], eid, pos, &mut self.alloc_events);
            push_tracked(&mut self.events.inserted, (s, eid), &mut self.alloc_events);
            if sparse && was_empty {
                note_occupied(
                    &mut self.sched,
                    &self.topo,
                    si as u32,
                    &mut self.alloc_events,
                );
            }
        }
    }

    /// How [`Engine::step`] executes rounds.
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// Switches the execution strategy. The first round after a switch runs
    /// on full sets so the sparse scheduler re-learns the state (dense
    /// rounds maintain no dirty tracking).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        if self.mode != mode {
            self.mode = mode;
            self.sched.mark_all = true;
        }
    }

    /// Distinct cells any phase ran on in the most recent round (equals the
    /// grid size in dense mode) — the active-set occupancy benchmarks and
    /// the `cellflow_engine_active_cells` gauge report.
    pub fn active_cells(&self) -> usize {
        self.sched.last_active
    }

    /// Attaches the scheduler gauges (`cellflow_engine_active_cells` and
    /// `cellflow_engine_skipped_cells_total`). Handles minted from a
    /// disabled registry stay detached, keeping the untimed fast path.
    pub fn attach_scheduler_metrics(&mut self, metrics: SchedulerMetrics) {
        self.sched_metrics = if metrics.active_cells.is_enabled() {
            Some(metrics)
        } else {
            None
        };
    }
}

/// Entities appeared in a previously empty cell: fold it into the occupancy
/// and pressure lists and mark its neighbors — their requester masks read
/// this cell's emptiness next round.
fn note_occupied(sched: &mut Sched, topo: &NeighborTable, k: u32, allocs: &mut u64) {
    let ku = k as usize;
    for &ni in &topo.nbr_idx[ku] {
        if ni != NO_NBR {
            sched.sig_next.insert(ni, allocs);
        }
    }
    if !sched.occupied[ku] {
        sched.occupied[ku] = true;
        push_tracked(&mut sched.occupied_list, k, allocs);
    }
    if !sched.pressure_flag[ku] {
        sched.pressure_flag[ku] = true;
        push_tracked(&mut sched.pressure_list, k, allocs);
    }
}

/// Saturating nanoseconds since `t0` for the round trace.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{update, Params, System};
    use cellflow_geom::sep_ok;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn config() -> SystemConfig {
        SystemConfig::new(
            GridDims::square(8),
            CellId::new(1, 7),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(1, 0))
        .with_source(CellId::new(6, 0))
    }

    #[test]
    fn engine_matches_pure_phases_over_a_long_run() {
        let cfg = config();
        let mut engine = Engine::new(cfg.clone());
        let mut state = cfg.initial_state();
        let mut mirror = cfg.initial_state();
        for round in 0..300 {
            let (next, events) = update(&cfg, &state, round);
            let ev = engine.step().clone();
            engine.store_state(&mut mirror);
            assert_eq!(mirror, next, "state diverged at round {round}");
            assert_eq!(ev.consumed, events.consumed, "round {round}");
            assert_eq!(ev.transfers, events.transfers, "round {round}");
            assert_eq!(ev.inserted, events.inserted, "round {round}");
            assert_eq!(ev.grants, events.grants, "round {round}");
            assert_eq!(ev.blocked, events.blocked, "round {round}");
            assert_eq!(ev.moved, events.moved, "round {round}");
            state = next;
        }
    }

    #[test]
    fn steady_state_rounds_allocate_nothing() {
        let cfg = config();
        let mut engine = Engine::new(cfg);
        for _ in 0..400 {
            engine.step();
        }
        engine.reset_alloc_events();
        for _ in 0..400 {
            engine.step();
        }
        assert_eq!(
            engine.alloc_events(),
            0,
            "steady-state rounds must not grow any buffer"
        );
    }

    #[test]
    fn phase_timers_record_every_round_without_allocating() {
        use cellflow_telemetry::{PhaseTimers, Registry};
        let cfg = config();
        let mut engine = Engine::new(cfg);
        let reg = Registry::new();
        engine.attach_phase_timers(PhaseTimers::register(&reg));
        for _ in 0..100 {
            engine.step();
        }
        engine.reset_alloc_events();
        for _ in 0..100 {
            engine.step();
        }
        assert_eq!(engine.alloc_events(), 0, "timing must not allocate");
        let timers = PhaseTimers::register(&reg);
        assert_eq!(timers.round.count(), 200);
        assert_eq!(timers.route.count(), 200);
        assert_eq!(timers.signal.count(), 200);
        assert_eq!(timers.mv.count(), 200);
        assert!(timers.round.sum() >= timers.route.sum());
    }

    #[test]
    fn round_trace_attributes_phases_without_allocating() {
        let cfg = config();
        let mut engine = Engine::new(cfg.clone());
        engine.enable_round_trace();
        assert_eq!(
            engine.round_trace(),
            RoundTrace {
                enabled: true,
                ..RoundTrace::default()
            }
        );
        let mut counts = Vec::new();
        for _ in 0..150 {
            engine.step();
            let t = engine.round_trace();
            counts.push((t.route_cells, t.signal_cells, t.move_cells));
        }
        // Counts mirror the deterministic sparse work lists.
        let mut replay = Engine::new(cfg.clone());
        replay.enable_round_trace();
        for expected in &counts {
            replay.step();
            let t = replay.round_trace();
            assert_eq!(*expected, (t.route_cells, t.signal_cells, t.move_cells));
        }
        // Sparse rounds in a driven system sweep fewer cells than the grid.
        assert!(counts.iter().any(|&(r, _, _)| r < 64 && r > 0));
        // Dense mode attributes the whole grid to every phase.
        let mut dense = Engine::new(cfg);
        dense.set_exec_mode(ExecMode::Dense);
        dense.enable_round_trace();
        dense.step();
        let t = dense.round_trace();
        assert_eq!((t.route_cells, t.signal_cells, t.move_cells), (64, 64, 64));
        // And tracing must not break the zero-alloc steady state.
        engine.reset_alloc_events();
        for _ in 0..150 {
            engine.step();
        }
        assert_eq!(engine.alloc_events(), 0, "tracing must not allocate");
    }

    #[test]
    fn disabled_timers_stay_detached() {
        use cellflow_telemetry::{PhaseTimers, Registry};
        let cfg = config();
        let mut engine = Engine::new(cfg);
        engine.attach_phase_timers(PhaseTimers::register(&Registry::disabled()));
        assert!(engine.timers.is_none(), "disabled registry must not attach");
        engine.step();
    }

    #[test]
    fn load_store_roundtrips_arbitrary_states() {
        let cfg = config();
        let mut sys = System::new(cfg.clone());
        sys.run(50);
        sys.fail(CellId::new(3, 3));
        let mut state = sys.state().clone();
        // Junk ne_prev that no mask can express (contains a non-neighbor).
        state.cells[0]
            .ne_prev
            .extend([CellId::new(7, 7), CellId::new(1, 0)]);
        let mut engine = Engine::new(cfg);
        engine.load_state(&state);
        assert_eq!(engine.export_state(), state);
    }

    #[test]
    fn override_is_dropped_once_signal_rewrites_the_cell() {
        let cfg = config();
        let mut state = cfg.initial_state();
        state.cells[0].ne_prev.insert(CellId::new(7, 7)); // non-neighbor junk
        let mut engine = Engine::new(cfg.clone());
        engine.load_state(&state);
        engine.step();
        let exported = engine.export_state();
        // Signal recomputed ne_prev from actual neighbors: junk gone.
        assert!(!exported.cells[0].ne_prev.contains(&CellId::new(7, 7)));
        // And it matches the reference transition.
        let (next, _) = update(&cfg, &state, 0);
        assert_eq!(exported, next);
    }

    #[test]
    fn neighbor_table_slots_follow_dir_all() {
        let dims = GridDims::square(3);
        let t = NeighborTable::new(dims, CellId::new(2, 1));
        let k = dims.index(CellId::new(1, 1));
        assert_eq!(t.id_at(k), CellId::new(1, 1));
        for (s, &dir) in Dir::ALL.iter().enumerate() {
            let expected = CellId::new(1, 1).step(dir).unwrap();
            assert_eq!(t.nbr_id[k][s], expected);
            assert_eq!(t.nbr_idx[k][s] as usize, dims.index(expected));
        }
        // Corner ⟨0,0⟩: west and south are off-grid.
        let c = dims.index(CellId::new(0, 0));
        assert_eq!(t.nbr_idx[c][1], NO_NBR);
        assert_eq!(t.nbr_idx[c][3], NO_NBR);
        assert_eq!(t.len(), 9);
        assert!(!t.is_empty());
    }

    #[test]
    fn sorted_slots_visit_neighbors_in_ascending_id_order() {
        let dims = GridDims::square(3);
        let t = NeighborTable::new(dims, CellId::new(2, 1));
        let k = dims.index(CellId::new(1, 1));
        let visited: Vec<CellId> = SORTED_SLOTS.iter().map(|&s| t.nbr_id[k][s]).collect();
        let mut sorted = visited.clone();
        sorted.sort();
        assert_eq!(visited, sorted);
    }

    #[test]
    fn engine_handles_corrupted_registers_like_the_reference() {
        use crate::fault::Corruption;
        let cfg = config();
        let mut sys = System::new(cfg.clone()); // engine-backed
        let mut state = cfg.initial_state();
        let schedule = [
            (5u64, CellId::new(2, 2), Corruption::Scramble { salt: 11 }),
            (9, CellId::new(4, 4), Corruption::NePrev { mask: 0b1010 }),
            (13, CellId::new(1, 1), Corruption::Dist(Dist::Finite(0))),
            (17, CellId::new(5, 5), Corruption::Token(Some(Dir::West))),
        ];
        for step in 0..40u64 {
            for &(when, cell, corr) in &schedule {
                if when == step {
                    sys.corrupt(cell, corr);
                    let dims = cfg.dims();
                    corr.apply(&cfg, cell, state.cell_mut(dims, cell));
                }
            }
            let (next, _) = update(&cfg, &state, step);
            sys.step();
            state = next;
            assert_eq!(sys.state(), &state, "diverged at step {step}");
        }
    }

    #[test]
    fn transfers_never_cross_a_cut_edge_and_safety_holds() {
        use crate::fault::PartitionPlan;
        let cfg = config(); // sources at (1,0) and (6,0); target (1,7)
        let plan = PartitionPlan::for_grid(cfg.dims()).split_col(4, 0, None);
        let schedule = plan.expand(120);
        let mut sys = System::new(cfg.clone());
        for round in 0..120u64 {
            sys.set_link_cuts(schedule.mask_row(round));
            let events = sys.step();
            for t in &events.transfers {
                assert_eq!(
                    t.from.i() < 4,
                    t.to.i() < 4,
                    "transfer {:?} crossed the cut at round {round}",
                    t
                );
            }
            crate::safety::check_safe(sys.config(), sys.state())
                .unwrap_or_else(|v| panic!("unsafe at round {round}: {v:?}"));
        }
        // The side cut off from the target sees only ∞/⊥ toward it.
        assert!(sys.consumed_total() > 0, "open side still makes progress");
    }

    #[test]
    fn healing_restores_routing_within_the_bound() {
        use crate::fault::PartitionPlan;
        use crate::monitor::stabilization_bound;
        let cfg = config();
        let plan = PartitionPlan::for_grid(cfg.dims()).split_col(4, 0, None);
        let schedule = plan.expand(80);
        let mut sys = System::new(cfg.clone());
        for round in 0..80u64 {
            sys.set_link_cuts(schedule.mask_row(round));
            sys.step();
        }
        assert!(
            !crate::analysis::routing_stabilized(sys.config(), sys.state()),
            "a split grid must not look stabilized"
        );
        sys.clear_link_cuts();
        sys.run(stabilization_bound(&cfg));
        assert!(
            crate::analysis::routing_stabilized(sys.config(), sys.state()),
            "routing must recover within 2N²+2 rounds of healing"
        );
    }

    #[test]
    fn asymmetric_cut_masks_only_one_direction() {
        use crate::fault::PartitionPlan;
        let cfg = config();
        let a = CellId::new(1, 3);
        let b = CellId::new(1, 4);
        // Cut only a's view of b: b's announcements (dist, grants) are lost
        // on the way to a, but a's announcements still reach b.
        let plan = PartitionPlan::for_grid(cfg.dims()).cut(b, a, 0, None);
        let schedule = plan.expand(200);
        let mut sys = System::new(cfg.clone());
        for round in 0..200u64 {
            sys.set_link_cuts(schedule.mask_row(round));
            let events = sys.step();
            for t in &events.transfers {
                assert!(
                    !(t.from == a && t.to == b),
                    "a → b needs b's grant, which a can no longer hear (round {round})"
                );
            }
        }
    }

    #[test]
    fn masked_rounds_allocate_nothing_after_warmup() {
        use crate::fault::PartitionPlan;
        let cfg = config();
        let plan = PartitionPlan::for_grid(cfg.dims()).split_row(3, 0, Some(150));
        let schedule = plan.expand(400);
        let mut engine = Engine::new(cfg);
        engine.set_link_cuts(schedule.mask_row(0)); // allocates the mask row once
        for round in 0..200u64 {
            engine.set_link_cuts(schedule.mask_row(round));
            engine.step();
        }
        engine.reset_alloc_events();
        for round in 200..400u64 {
            engine.set_link_cuts(schedule.mask_row(round));
            engine.step();
        }
        assert_eq!(
            engine.alloc_events(),
            0,
            "per-round mask updates must reuse the existing buffer"
        );
    }

    #[test]
    fn sparse_matches_dense_round_for_round() {
        let cfg = config();
        let mut dense = Engine::new(cfg.clone());
        dense.set_exec_mode(ExecMode::Dense);
        let mut sparse = Engine::new(cfg);
        let mut a = dense.export_state();
        let mut b = a.clone();
        for round in 0..300 {
            let ed = dense.step().clone();
            let es = sparse.step().clone();
            assert_eq!(ed, es, "sparse events diverged at round {round}");
            dense.store_state(&mut a);
            sparse.store_state(&mut b);
            assert_eq!(a, b, "sparse state diverged at round {round}");
        }
    }

    #[test]
    fn sparse_matches_dense_under_partitions_and_heal() {
        use crate::fault::PartitionPlan;
        let cfg = config();
        let plan = PartitionPlan::for_grid(cfg.dims()).split_col(4, 10, Some(120));
        let schedule = plan.expand(200);
        let mut dense = Engine::new(cfg.clone());
        dense.set_exec_mode(ExecMode::Dense);
        let mut sparse = Engine::new(cfg);
        let mut a = dense.export_state();
        let mut b = a.clone();
        for round in 0..200u64 {
            dense.set_link_cuts(schedule.mask_row(round));
            sparse.set_link_cuts(schedule.mask_row(round));
            let ed = dense.step().clone();
            let es = sparse.step().clone();
            assert_eq!(ed, es, "events diverged at round {round}");
            dense.store_state(&mut a);
            sparse.store_state(&mut b);
            assert_eq!(a, b, "state diverged at round {round}");
        }
    }

    #[test]
    fn mode_switches_mid_run_stay_equivalent() {
        let cfg = config();
        let mut reference = Engine::new(cfg.clone());
        reference.set_exec_mode(ExecMode::Dense);
        let mut toggled = Engine::new(cfg);
        let mut a = reference.export_state();
        let mut b = a.clone();
        for round in 0..240 {
            if round % 60 == 0 {
                let mode = if (round / 60) % 2 == 0 {
                    ExecMode::Sparse
                } else {
                    ExecMode::Dense
                };
                toggled.set_exec_mode(mode);
            }
            let er = reference.step().clone();
            let et = toggled.step().clone();
            assert_eq!(er, et, "events diverged at round {round}");
            reference.store_state(&mut a);
            toggled.store_state(&mut b);
            assert_eq!(a, b, "state diverged at round {round}");
        }
    }

    #[test]
    fn quiescent_grid_collapses_to_an_empty_active_set() {
        // No sources: once the distance flood reaches its fixed point and no
        // entities exist, every per-round list must drain to nothing.
        let cfg = SystemConfig::new(
            GridDims::square(16),
            CellId::new(1, 15),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap();
        let mut engine = Engine::new(cfg);
        for _ in 0..200 {
            engine.step();
        }
        assert_eq!(
            engine.active_cells(),
            0,
            "a quiescent grid must cost O(active) = 0"
        );
        engine.reset_alloc_events();
        for _ in 0..100 {
            engine.step();
        }
        assert_eq!(
            engine.alloc_events(),
            0,
            "quiescent rounds must not allocate"
        );
    }

    #[test]
    fn steady_state_active_set_stays_a_small_fraction_of_the_grid() {
        // One source in a 24×24 grid: traffic occupies a corridor, not the
        // whole grid. The active set must track the corridor.
        let cfg = SystemConfig::new(
            GridDims::square(24),
            CellId::new(1, 23),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(1, 0));
        let mut engine = Engine::new(cfg);
        for _ in 0..400 {
            engine.step();
        }
        let n = 24 * 24;
        assert!(
            engine.active_cells() < n / 4,
            "active set {} should be well under a quarter of {} cells",
            engine.active_cells(),
            n
        );
        assert!(engine.active_cells() > 0, "traffic keeps some cells active");
    }

    #[test]
    fn scheduler_metrics_report_occupancy_and_detach_when_disabled() {
        use cellflow_telemetry::{Registry, SchedulerMetrics};
        let cfg = config();
        let mut engine = Engine::new(cfg.clone());
        let reg = Registry::new();
        engine.attach_scheduler_metrics(SchedulerMetrics::register(&reg));
        for _ in 0..50 {
            engine.step();
        }
        let m = SchedulerMetrics::register(&reg);
        assert!(m.active_cells.value() >= 0);
        assert!(
            m.skipped_cells.value() > 0,
            "a small grid still skips cells once warmed up"
        );
        let mut detached = Engine::new(cfg);
        detached.attach_scheduler_metrics(SchedulerMetrics::register(&Registry::disabled()));
        assert!(detached.sched_metrics.is_none());
    }

    #[test]
    fn cuts_survive_load_state_and_clear_restores_the_fast_path() {
        use crate::fault::PartitionPlan;
        let cfg = config();
        let plan = PartitionPlan::for_grid(cfg.dims()).split_col(4, 0, None);
        let schedule = plan.expand(40);
        let mut sys = System::new(cfg.clone());
        for round in 0..40u64 {
            sys.set_link_cuts(schedule.mask_row(round));
            sys.step();
        }
        // Neither a whole-state import nor a per-cell one drops the cuts.
        let state = sys.state().clone();
        sys.set_state(state);
        let events = sys.step();
        for t in &events.transfers {
            assert_eq!(t.from.i() < 4, t.to.i() < 4, "cut lost across load_state");
        }
        sys.fail(CellId::new(6, 6));
        let events = sys.step();
        for t in &events.transfers {
            assert_eq!(t.from.i() < 4, t.to.i() < 4, "cut lost across load_cell");
        }
        // Clearing the cuts makes the system behave exactly like the
        // reference semantics again.
        sys.clear_link_cuts();
        let mut state = sys.state().clone();
        let round = sys.round();
        for step in 0..30u64 {
            let (next, _) = update(sys.config(), &state, round + step);
            sys.step();
            state = next;
            assert_eq!(sys.state(), &state, "diverged after clear at step {step}");
        }
    }

    /// Applies one random fault edit to cell `k` of `state`: a crash, a
    /// recovery, both, a corruption of any kind, or a seeded entity.
    fn random_edit(cfg: &SystemConfig, state: &mut SystemState, k: usize, rng: &mut SmallRng) {
        use crate::fault::Corruption;
        let dims = cfg.dims();
        let id = dims.id_at(k);
        let dir = |rng: &mut SmallRng| match rng.gen_range(0..5usize) {
            0 => None,
            d => Some(Dir::ALL[d - 1]),
        };
        let corruption = match rng.gen_range(0..11u32) {
            0 => return state.fail(dims, id),
            1 => return state.recover(dims, id, cfg.target()),
            2 => {
                state.fail(dims, id);
                return state.recover(dims, id, cfg.target());
            }
            3 => {
                let pos = id.center();
                let params = cfg.params();
                let cell = &mut state.cells[k];
                if cell.members.values().all(|&q| sep_ok(pos, q, params.d())) {
                    cell.members.insert(EntityId(state.next_entity_id), pos);
                    state.next_entity_id += 1;
                }
                return;
            }
            4 => Corruption::Dist(Dist::Finite(rng.gen_range(0..cfg.dist_cap()))),
            5 => Corruption::Next(dir(rng)),
            6 => Corruption::Token(dir(rng)),
            7 => Corruption::Signal(dir(rng)),
            8 => Corruption::NePrev {
                mask: rng.gen_range(0..16u32) as u8,
            },
            9 => Corruption::Jostle { salt: rng.gen() },
            _ => Corruption::Scramble { salt: rng.gen() },
        };
        corruption.apply(cfg, id, &mut state.cells[k]);
    }

    #[test]
    fn per_cell_imports_match_whole_state_imports() {
        let cfg = config();
        let dims = cfg.dims();
        let n = dims.cell_count();
        let mut per_cell = Engine::new(cfg.clone());
        let mut whole = Engine::new(cfg.clone());
        let mut dense = Engine::new(cfg.clone());
        dense.set_exec_mode(ExecMode::Dense);
        let mut state = cfg.initial_state();
        let mut rng = SmallRng::seed_from_u64(0x1CE11);
        let mut k = 0;
        for round in 0..600u64 {
            let before = state.clone();
            // Quiet rounds between bursts of up to three edits, which hit
            // the same cell again a third of the time.
            let edits = if round % 5 == 4 {
                0
            } else {
                rng.gen_range(0..4)
            };
            for _ in 0..edits {
                if rng.gen_range(0..3) > 0 {
                    k = rng.gen_range(0..n);
                }
                random_edit(&cfg, &mut state, k, &mut rng);
                per_cell.load_cell(k, &state.cells[k]);
                per_cell.set_next_entity_id(state.next_entity_id);
            }
            if edits > 0 {
                whole.load_state(&state);
                dense.load_state(&state);
            }
            let events = per_cell.step().clone();
            assert_eq!(&events, whole.step(), "events diverged at round {round}");
            assert_eq!(
                &events,
                dense.step(),
                "dense events diverged at round {round}"
            );
            state = per_cell.export_state();
            assert_eq!(
                state,
                whole.export_state(),
                "state diverged at round {round}"
            );
            assert_eq!(
                state,
                dense.export_state(),
                "dense state diverged at round {round}"
            );
            for id in dims.iter() {
                assert_eq!(
                    per_cell.pressure(id),
                    whole.pressure(id),
                    "pressure at {id}"
                );
                assert_eq!(
                    per_cell.pressure(id),
                    dense.pressure(id),
                    "pressure at {id}"
                );
            }
            if round > 0 {
                let changed = per_cell
                    .changed_cells()
                    .unwrap_or_else(|| panic!("round {round} left the changed-set path"));
                for (c, (a, b)) in before.cells.iter().zip(&state.cells).enumerate() {
                    assert!(
                        a == b || changed.binary_search(&(c as u32)).is_ok(),
                        "cell {c} changed unreported at round {round}"
                    );
                }
            }
        }
        assert!(
            state.cells.iter().any(|c| c.failed),
            "the schedule crashed cells"
        );
    }
}
