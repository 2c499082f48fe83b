//! Online invariant monitors: the paper's theorems as per-round runtime
//! checks.
//!
//! The proofs in the paper are offline arguments about all reachable states;
//! a [`Monitor`] turns each into an *online* observer evaluated against every
//! round of an actual execution — by the lockstep simulator, the
//! message-passing runtime's collector thread, and the `cellflow chaos` CLI
//! alike:
//!
//! * [`SafetyMonitor`] — Theorem 5's `Safe(x)` plus Invariants 1 and 2, which
//!   hold in **every** reachable state despite crashes;
//! * [`RoutingMonitor`] — structural routing sanity derived from the Route
//!   function's definition (Figure 4) and the §IV failure model: pointers
//!   stay on the grid, `dist = 0` exactly at the live target, failed cells
//!   stay pinned at `∞`/`⊥`;
//! * [`ConservationMonitor`] — no entity is minted or destroyed outside the
//!   source/target protocol (`inserted − consumed = population`);
//! * [`StabilizationMonitor`] — a stopwatch for Lemma 6 / Corollary 7:
//!   routing must re-stabilize within `2·N² + 2` rounds of the last fault
//!   transition.
//!
//! Predicate `H` is deliberately **not** monitored here: Lemma 3 establishes
//! it at signal-computation time, and it legitimately fails in end-of-round
//! states (granted cells' entities move within the same round), which is all
//! a monitor gets to see.
//!
//! Every checked property is local to a cell (or a cell and `ρ`), save the
//! population sum. So when a round arrives with [`MonitorCtx::changed`] and
//! directly follows the last round a monitor saw, the monitor re-runs its
//! per-cell predicate on the changed cells only, plus a small index it keeps
//! (occupied cells, cells in violation, unstable cells). Otherwise it scans
//! the whole grid. Both scopes call the same per-cell code and report the
//! same violations, in the same order.

use core::fmt;
use std::collections::{BTreeSet, VecDeque};

use cellflow_grid::{path_distances, CellId, Distances};
use cellflow_routing::Dist;

use crate::{analysis, safety, StateView, SystemConfig};

/// Everything a monitor may inspect about one completed round.
///
/// `round` is 1-based: after the first `update` transition the observers see
/// `round = 1`. `failed` / `recovered` list the fault transitions applied at
/// the start of that round (empty when the round ran undisturbed).
#[derive(Clone, Copy, Debug)]
pub struct MonitorCtx<'a> {
    /// The static configuration.
    pub config: &'a SystemConfig,
    /// The end-of-round state: the engine's arenas in the shared-variable
    /// runtimes, the assembled cells on the net collector.
    pub state: StateView<'a>,
    /// Rounds completed so far (1-based).
    pub round: u64,
    /// Cells crashed at the start of this round.
    pub failed: &'a [CellId],
    /// Cells recovered at the start of this round.
    pub recovered: &'a [CellId],
    /// Cells whose state suffered a discontinuity at the start of this
    /// round: a transient corruption ([`FaultKind::Corrupt`]), or a re-spawn
    /// from a stale durable snapshot. The stabilization stopwatch restarts
    /// on such rounds, and entity conservation re-baselines (a corruption
    /// adversary / stale restore may legitimately change the population
    /// without a matching insert or consume).
    ///
    /// [`FaultKind::Corrupt`]: crate::FaultKind::Corrupt
    pub corrupted: &'a [CellId],
    /// `true` while ambient message chaos (dropped/delayed announcements)
    /// is active — the stabilization stopwatch treats such rounds as
    /// ongoing disturbance, since Lemma 6 only promises convergence once
    /// communication is reliable again.
    pub ambient_chaos: bool,
    /// Cumulative entities consumed by the target since round 0.
    pub consumed_total: u64,
    /// Cumulative entities inserted by sources since round 0.
    pub inserted_total: u64,
    /// Ascending arena indices
    /// ([`GridDims::index`](cellflow_grid::GridDims::index) order) forming
    /// a superset of the cells whose state differs from the state observed
    /// at `round − 1`, as
    /// [`System::changed_cells`](crate::System::changed_cells) produces
    /// them. `None` means any cell may have changed, and every monitor
    /// scans the whole grid.
    pub changed: Option<&'a [u32]>,
}

/// The cells a monitor must re-examine this round: the context's changed
/// set when this round directly follows `last_round`, the last one the
/// monitor saw, else `None` (a full scan). Records `ctx.round` as seen.
fn scope<'a>(ctx: &MonitorCtx<'a>, last_round: &mut Option<u64>) -> Option<&'a [u32]> {
    let follows = last_round.is_some_and(|r| r + 1 == ctx.round);
    *last_round = Some(ctx.round);
    ctx.changed.filter(|_| follows)
}

/// Calls `f` on each cell of `scope` in order, or on every one of the
/// `cells` cells when `scope` is `None`.
fn for_each_cell(scope: Option<&[u32]>, cells: usize, mut f: impl FnMut(usize)) {
    match scope {
        Some(changed) => changed.iter().for_each(|&k| f(k as usize)),
        None => (0..cells).for_each(f),
    }
}

/// Ascending arena indices of the nonempty cells, kept current from the
/// changed set. Empty cells can violate neither `Safe` nor Invariants 1–2
/// and hold no population, so this is all the safety and conservation
/// monitors scan.
#[derive(Debug, Default)]
struct Occupied {
    cells: BTreeSet<u32>,
    last_round: Option<u64>,
}

impl Occupied {
    fn refresh(&mut self, ctx: &MonitorCtx<'_>) -> &BTreeSet<u32> {
        let scope = scope(ctx, &mut self.last_round);
        if scope.is_none() {
            self.cells.clear();
        }
        for_each_cell(scope, ctx.state.cell_count(), |k| {
            if ctx.state.occupancy(k) == 0 {
                self.cells.remove(&(k as u32));
            } else {
                self.cells.insert(k as u32);
            }
        });
        &self.cells
    }
}

/// One property violation flagged by a monitor.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MonitorViolation {
    /// [`Monitor::name`] of the reporting monitor.
    pub monitor: &'static str,
    /// The (1-based) round whose end state violated the property.
    pub round: u64,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl fmt::Display for MonitorViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} @ round {}] {}",
            self.monitor, self.round, self.detail
        )
    }
}

/// An online observer of a protocol execution.
///
/// `Send` so the message-passing runtime can evaluate monitors on its
/// collector thread while node threads keep running.
pub trait Monitor: Send {
    /// Short stable identifier (used in reports and violations).
    fn name(&self) -> &'static str;

    /// Inspects one completed round; returns any violations it implies.
    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation>;

    /// One-line human-readable outcome for the final report.
    fn summary(&self) -> String;
}

/// Theorem 5 safety plus Invariants 1–2, checked every round over the
/// occupied cells.
#[derive(Debug, Default)]
pub struct SafetyMonitor {
    rounds: u64,
    violations: u64,
    occupied: Occupied,
}

impl SafetyMonitor {
    /// A fresh monitor.
    pub fn new() -> SafetyMonitor {
        SafetyMonitor::default()
    }
}

impl Monitor for SafetyMonitor {
    fn name(&self) -> &'static str {
        "safety"
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        self.rounds += 1;
        let occupied = self.occupied.refresh(ctx);
        let cells = || occupied.iter().map(|&k| k as usize);
        let mut out = Vec::new();
        if let Err(v) = safety::check_safe_in(ctx.config, ctx.state, cells()) {
            out.push(MonitorViolation {
                monitor: "safety",
                round: ctx.round,
                detail: format!("Theorem 5 violated: {v}"),
            });
        }
        if let Err(v) = safety::check_invariant1_in(ctx.config, ctx.state, cells()) {
            out.push(MonitorViolation {
                monitor: "safety",
                round: ctx.round,
                detail: format!("Invariant 1 violated: {v}"),
            });
        }
        if let Err(v) = safety::check_invariant2_in(ctx.config, ctx.state, cells()) {
            out.push(MonitorViolation {
                monitor: "safety",
                round: ctx.round,
                detail: format!("Invariant 2 violated: {v}"),
            });
        }
        self.violations += out.len() as u64;
        out
    }

    fn summary(&self) -> String {
        format!(
            "safety: {} rounds checked, {} violations",
            self.rounds, self.violations
        )
    }
}

/// Structural routing sanity that holds in *every* reachable state,
/// stabilized or not (Figure 4's Route plus the §IV fail/recover
/// transitions):
///
/// * `next` and `signal`, when set, point at grid neighbors;
/// * the live target has `dist = 0`; no other live cell ever does;
/// * a failed cell stays pinned at `dist = ∞`, `next = ⊥` (nothing but
///   recovery may touch it).
///
/// The cells in violation are kept as an index, so a violation on a cell
/// the round did not change is still reported every round it persists.
#[derive(Debug, Default)]
pub struct RoutingMonitor {
    rounds: u64,
    violations: u64,
    /// Ascending arena indices of the cells in violation.
    broken: BTreeSet<u32>,
    last_round: Option<u64>,
}

/// The routing rules for cell `k`: pushes one violation per broken rule.
fn check_routing_cell(ctx: &MonitorCtx<'_>, k: usize, out: &mut Vec<MonitorViolation>) {
    let dims = ctx.config.dims();
    let id = dims.id_at(k);
    let view = ctx.state;
    let (dist, next, signal) = (view.dist(k), view.next(k), view.signal(k));
    let mut flag = |detail: String| {
        out.push(MonitorViolation {
            monitor: "routing",
            round: ctx.round,
            detail,
        });
    };
    if view.failed(k) {
        if dist != Dist::Infinity || next.is_some() {
            flag(format!(
                "failed cell {id} not pinned: dist={dist:?} next={next:?}"
            ));
        }
        return;
    }
    // `Nbrs` holds in-bounds cells only: a unit step off the grid is no
    // neighbor either.
    let neighbor = |n: CellId| id.is_neighbor(n) && dims.contains(n);
    if let Some(n) = next {
        if !neighbor(n) {
            flag(format!("cell {id} routes to non-neighbor {n}"));
        }
    }
    if let Some(s) = signal {
        if !neighbor(s) {
            flag(format!("cell {id} grants non-neighbor {s}"));
        }
    }
    if id == ctx.config.target() {
        if dist != Dist::Finite(0) {
            flag(format!("live target {id} has dist {dist:?}, expected 0"));
        }
    } else if dist == Dist::Finite(0) {
        flag(format!("non-target cell {id} claims dist 0"));
    }
}

impl RoutingMonitor {
    /// A fresh monitor.
    pub fn new() -> RoutingMonitor {
        RoutingMonitor::default()
    }
}

impl Monitor for RoutingMonitor {
    fn name(&self) -> &'static str {
        "routing"
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        self.rounds += 1;
        let scope = scope(ctx, &mut self.last_round);
        if scope.is_none() {
            self.broken.clear();
        }
        // Re-judge the cells in scope; only the index keeps their verdicts.
        let mut out = Vec::new();
        for_each_cell(scope, ctx.state.cell_count(), |k| {
            check_routing_cell(ctx, k, &mut out);
            if out.is_empty() {
                self.broken.remove(&(k as u32));
            } else {
                self.broken.insert(k as u32);
                out.clear();
            }
        });
        for &k in &self.broken {
            check_routing_cell(ctx, k as usize, &mut out);
        }
        self.violations += out.len() as u64;
        out
    }

    fn summary(&self) -> String {
        format!(
            "routing: {} rounds checked, {} violations",
            self.rounds, self.violations
        )
    }
}

/// Entity conservation: starting from the empty initial state, the current
/// population must equal `inserted − consumed` — transfers move entities,
/// never mint or destroy them.
///
/// Rounds with a state discontinuity ([`MonitorCtx::corrupted`]) are
/// allowed to shift the population (a stale-snapshot restore resurrects or
/// drops entities; an adversarial jostle may not, but the adversary gets
/// the benefit of the doubt for one round). The monitor *re-baselines* on
/// such rounds — recording the new offset between population and the
/// ledger — and then enforces conservation against that offset until the
/// next discontinuity. Losing entities to a fault is permitted; minting
/// them silently afterwards is still a violation.
#[derive(Debug, Default)]
pub struct ConservationMonitor {
    rounds: u64,
    violations: u64,
    offset: i64,
    occupied: Occupied,
}

impl ConservationMonitor {
    /// A fresh monitor.
    pub fn new() -> ConservationMonitor {
        ConservationMonitor::default()
    }
}

impl Monitor for ConservationMonitor {
    fn name(&self) -> &'static str {
        "conservation"
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        self.rounds += 1;
        let population: usize = self
            .occupied
            .refresh(ctx)
            .iter()
            .map(|&k| ctx.state.occupancy(k as usize))
            .sum();
        let population = population as i64;
        let expected = (ctx.inserted_total - ctx.consumed_total.min(ctx.inserted_total)) as i64;
        if !ctx.corrupted.is_empty() {
            self.offset = population - expected;
            return Vec::new();
        }
        let mut out = Vec::new();
        if population != expected + self.offset {
            out.push(MonitorViolation {
                monitor: self.name(),
                round: ctx.round,
                detail: format!(
                    "population {population} ≠ inserted {} − consumed {}{}",
                    ctx.inserted_total,
                    ctx.consumed_total,
                    if self.offset != 0 {
                        format!(" (fault offset {})", self.offset)
                    } else {
                        String::new()
                    }
                ),
            });
            self.violations += 1;
        }
        out
    }

    fn summary(&self) -> String {
        format!(
            "conservation: {} rounds checked, {} violations",
            self.rounds, self.violations
        )
    }
}

/// The round budget the [`StabilizationMonitor`] grants after a disturbance:
/// `2·cell_count + 2`, a conservative executable form of Lemma 6 /
/// Corollary 7's `O(N²)` routing-stabilization bound.
pub fn stabilization_bound(config: &SystemConfig) -> u64 {
    2 * config.dims().cell_count() as u64 + 2
}

/// A stopwatch for Lemma 6 / Corollary 7: after the last fault transition,
/// routing (in the sense of [`analysis::routing_stabilized`]) must
/// re-stabilize within [`stabilization_bound`] rounds. Reports at most one
/// violation per disturbance epoch.
///
/// The verdict is kept as a count of unstable cells under a cached `ρ`,
/// re-judged per cell with the clause `routing_stabilized` folds over the
/// grid. When a `failed` flag flips, `ρ` is recomputed in place and only
/// the cells it can move a verdict for are re-judged.
#[derive(Debug)]
pub struct StabilizationMonitor {
    bound: u64,
    last_disturbance: u64,
    stabilized_at: Option<u64>,
    reported_epoch: bool,
    violations: u64,
    probe: Option<StabilizationProbe>,
    stability: Stability,
}

/// The per-cell stability verdicts behind [`StabilizationMonitor`].
#[derive(Debug, Default)]
struct Stability {
    /// `ρ` for the `failed` flags in `failed`; `None` before the first round.
    rho: Option<Distances>,
    /// The `ρ` before the last recomputation, whose buffer the next one
    /// reuses.
    prev_rho: Option<Distances>,
    /// The breadth-first search queue, reused.
    queue: VecDeque<usize>,
    /// Each cell's `failed` flag as of the last observed round.
    failed: Vec<bool>,
    /// Each cell's verdict: `true` while it is not stable.
    unstable: Vec<bool>,
    unstable_count: usize,
    last_round: Option<u64>,
}

impl Stability {
    /// Re-judges the cells whose verdict may have changed and returns
    /// whether routing is stabilized. A cell's verdict reads its own
    /// registers, its own `ρ` and its neighbors' `ρ`, so after a `failed`
    /// flip that means the changed cells, the cells whose `ρ` moved, and
    /// their neighbors; a full scan re-judges every cell.
    fn refresh(&mut self, ctx: &MonitorCtx<'_>) -> bool {
        let n = ctx.state.cell_count();
        if self.unstable.len() != n {
            *self = Stability {
                failed: vec![false; n],
                unstable: vec![false; n],
                ..Stability::default()
            };
        }
        // `scope` is `None` on the first round, as `rho` is.
        let scope = scope(ctx, &mut self.last_round);
        let mut flipped = false;
        for_each_cell(scope, n, |k| {
            let failed = ctx.state.failed(k);
            flipped |= failed != self.failed[k];
            self.failed[k] = failed;
        });
        let (dims, target) = (ctx.config.dims(), ctx.config.target());
        let mut rho = match self.rho.take() {
            Some(rho) => rho,
            None => {
                flipped = false;
                path_distances(dims, target, &self.failed)
            }
        };
        if flipped {
            let mut fresh = self.prev_rho.take().unwrap_or_else(|| rho.clone());
            fresh.recompute(target, &self.failed, &mut self.queue);
            let old = std::mem::replace(&mut rho, fresh);
            if scope.is_some() {
                for (k, (was, now)) in old.by_index().iter().zip(rho.by_index()).enumerate() {
                    if was != now {
                        self.judge(ctx, &rho, k);
                        for m in dims.neighbors(dims.id_at(k)) {
                            self.judge(ctx, &rho, dims.index(m));
                        }
                    }
                }
            }
            self.prev_rho = Some(old);
        }
        for_each_cell(scope, n, |k| self.judge(ctx, &rho, k));
        self.rho = Some(rho);
        self.unstable_count == 0
    }

    /// Re-judges cell `k` under `rho`, keeping the unstable count.
    fn judge(&mut self, ctx: &MonitorCtx<'_>, rho: &Distances, k: usize) {
        let stable = analysis::cell_stabilized(ctx.config, rho, ctx.state, k);
        if self.unstable[k] == stable {
            self.unstable[k] = !stable;
            if stable {
                self.unstable_count -= 1;
            } else {
                self.unstable_count += 1;
            }
        }
    }
}

/// A shared read-out of a [`StabilizationMonitor`]'s verdict, for callers
/// that hand their monitors to a runtime (which consumes them) but still
/// need the stopwatch numbers afterwards — e.g. the `cellflow stabilize`
/// certificate over a deployment run.
#[derive(Clone, Debug, Default)]
pub struct StabilizationProbe {
    inner: std::sync::Arc<std::sync::Mutex<ProbeInner>>,
}

#[derive(Clone, Copy, Debug, Default)]
struct ProbeInner {
    rounds_to_stabilize: Option<u64>,
    last_disturbance: u64,
    violations: u64,
}

impl StabilizationProbe {
    /// A fresh, unobserved probe.
    pub fn new() -> StabilizationProbe {
        StabilizationProbe::default()
    }

    /// Rounds from the last disturbance to stabilization, if the attached
    /// monitor last observed a stabilized state.
    pub fn rounds_to_stabilize(&self) -> Option<u64> {
        self.lock().rounds_to_stabilize
    }

    /// The round of the last disturbance the attached monitor saw.
    pub fn last_disturbance(&self) -> u64 {
        self.lock().last_disturbance
    }

    /// Total bound violations the attached monitor reported.
    pub fn violations(&self) -> u64 {
        self.lock().violations
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProbeInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl StabilizationMonitor {
    /// A stopwatch with the standard bound for `config`.
    pub fn new(config: &SystemConfig) -> StabilizationMonitor {
        StabilizationMonitor::with_bound(stabilization_bound(config))
    }

    /// A stopwatch with an explicit round budget.
    pub fn with_bound(bound: u64) -> StabilizationMonitor {
        StabilizationMonitor {
            bound,
            last_disturbance: 0,
            stabilized_at: None,
            reported_epoch: false,
            violations: 0,
            probe: None,
            stability: Stability::default(),
        }
    }

    /// Attaches `probe`, which mirrors the stopwatch after every observed
    /// round.
    pub fn with_probe(mut self, probe: &StabilizationProbe) -> StabilizationMonitor {
        self.probe = Some(probe.clone());
        self
    }

    /// The round budget in force.
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// The round at which the current quiet epoch stabilized, if it has.
    pub fn stabilized_at(&self) -> Option<u64> {
        self.stabilized_at
    }

    /// Rounds from the last disturbance to stabilization, if stabilized.
    pub fn rounds_to_stabilize(&self) -> Option<u64> {
        self.stabilized_at.map(|r| r - self.last_disturbance)
    }
}

impl Monitor for StabilizationMonitor {
    fn name(&self) -> &'static str {
        "stabilization"
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        if !ctx.failed.is_empty()
            || !ctx.recovered.is_empty()
            || !ctx.corrupted.is_empty()
            || ctx.ambient_chaos
        {
            // A new epoch starts; the clock restarts at this round.
            self.last_disturbance = ctx.round;
            self.stabilized_at = None;
            self.reported_epoch = false;
        }
        let out = if self.stability.refresh(ctx) {
            if self.stabilized_at.is_none() {
                self.stabilized_at = Some(ctx.round);
            }
            Vec::new()
        } else {
            self.stabilized_at = None;
            let elapsed = ctx.round - self.last_disturbance;
            if elapsed > self.bound && !self.reported_epoch {
                self.reported_epoch = true;
                self.violations += 1;
                vec![MonitorViolation {
                    monitor: self.name(),
                    round: ctx.round,
                    detail: format!(
                        "routing not stabilized {elapsed} rounds after the \
                         disturbance at round {} (bound {})",
                        self.last_disturbance, self.bound
                    ),
                }]
            } else {
                Vec::new()
            }
        };
        if let Some(probe) = &self.probe {
            *probe.lock() = ProbeInner {
                rounds_to_stabilize: self.rounds_to_stabilize(),
                last_disturbance: self.last_disturbance,
                violations: self.violations,
            };
        }
        out
    }

    fn summary(&self) -> String {
        match self.rounds_to_stabilize() {
            Some(rounds) => format!(
                "stabilization: stabilized {rounds} rounds after the last \
                 disturbance (bound {})",
                self.bound
            ),
            None => format!(
                "stabilization: NOT stabilized (last disturbance round {}, \
                 bound {}, {} violations)",
                self.last_disturbance, self.bound, self.violations
            ),
        }
    }
}

/// The capacity invariant, watched online: every cell's occupancy must stay
/// at or below the configured [`capacity`](SystemConfig::capacity).
///
/// A breach fires **once per violation episode**: the round a cell first
/// exceeds its capacity, not again while it stays over, and afresh if it
/// drains below and breaches anew. Overload campaigns hold cells over
/// capacity for many rounds — one violation per round would bury every
/// other monitor's output, while the episode edge is exactly the event a
/// cascade report wants to count.
#[derive(Debug)]
pub struct CapacityMonitor {
    capacity: u32,
    /// Per-cell episode latch: `true` while the cell is over capacity.
    over: Vec<bool>,
    rounds: u64,
    violations: u64,
    /// Highest occupancy ever observed.
    peak: usize,
    last_round: Option<u64>,
}

impl CapacityMonitor {
    /// A monitor for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` has no capacity (there would be nothing to check).
    pub fn new(config: &SystemConfig) -> CapacityMonitor {
        CapacityMonitor {
            capacity: config
                .capacity()
                .expect("capacity monitoring requires a finite capacity"),
            over: vec![false; config.dims().cell_count()],
            rounds: 0,
            violations: 0,
            peak: 0,
            last_round: None,
        }
    }
}

impl Monitor for CapacityMonitor {
    fn name(&self) -> &'static str {
        "capacity"
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        self.rounds += 1;
        let dims = ctx.config.dims();
        let mut out = Vec::new();
        // An unchanged cell keeps its occupancy, so its latch and its share
        // of `peak` already hold.
        let scope = scope(ctx, &mut self.last_round);
        for_each_cell(scope, ctx.state.cell_count(), |k| {
            let occupancy = ctx.state.occupancy(k);
            self.peak = self.peak.max(occupancy);
            if occupancy > self.capacity as usize {
                if !self.over[k] {
                    self.over[k] = true;
                    self.violations += 1;
                    out.push(MonitorViolation {
                        monitor: "capacity",
                        round: ctx.round,
                        detail: format!(
                            "cell {} holds {occupancy} entities over capacity {}",
                            dims.id_at(k),
                            self.capacity
                        ),
                    });
                }
            } else {
                self.over[k] = false;
            }
        });
        out
    }

    fn summary(&self) -> String {
        format!(
            "capacity: {} rounds checked, peak occupancy {} of {}, {} breaches",
            self.rounds, self.peak, self.capacity, self.violations
        )
    }
}

/// Labels each cell with the identifier of its connected component under the
/// per-cell incoming link-cut `mask` (see
/// [`PartitionSchedule::mask_row`](crate::PartitionSchedule::mask_row)),
/// or `None` for failed cells.
///
/// Two live neighboring cells belong to the same component iff their shared
/// edge is open in **both** directions — a one-way cut already breaks the
/// request/grant handshake, so the transfer channel is down. Components are
/// numbered `0, 1, …` in cell-scan order, which makes the labeling
/// deterministic for rendering and reports.
///
/// # Panics
///
/// Panics if `mask.len()` differs from the number of cells.
pub fn component_map<'a>(
    config: &SystemConfig,
    state: impl Into<StateView<'a>>,
    mask: &[u8],
) -> Vec<Option<u32>> {
    let state = state.into();
    let dims = config.dims();
    let n = dims.cell_count();
    assert_eq!(mask.len(), n, "mask row must match the grid");
    let mut comp: Vec<Option<u32>> = vec![None; n];
    let mut next_comp = 0u32;
    let mut stack = Vec::new();
    for start in 0..n {
        if comp[start].is_some() || state.failed(start) {
            continue;
        }
        let label = next_comp;
        next_comp += 1;
        comp[start] = Some(label);
        stack.push(start);
        while let Some(k) = stack.pop() {
            let id = dims.id_at(k);
            for (s, &dir) in cellflow_geom::Dir::ALL.iter().enumerate() {
                let Some(nid) = dims.neighbor(id, dir) else {
                    continue;
                };
                let nk = dims.index(nid);
                if comp[nk].is_some() || state.failed(nk) {
                    continue;
                }
                // k's incoming slot s faces `dir`; the neighbor hears k on
                // the opposite slot.
                let back = cellflow_geom::Dir::ALL
                    .iter()
                    .position(|&d| d == dir.opposite())
                    .expect("Dir::ALL covers every direction");
                if mask[k] & (1 << s) != 0 || mask[nk] & (1 << back) != 0 {
                    continue;
                }
                comp[nk] = Some(label);
                stack.push(nk);
            }
        }
    }
    comp
}

/// A split-brain observer for partition episodes: tracks the connected
/// components induced by a [`PartitionSchedule`](crate::PartitionSchedule),
/// re-checks Theorem 5 safety on every round an episode is active, and
/// asserts that no entity ever crosses a cut edge.
///
/// The standard suite's [`SafetyMonitor`] already checks safety every round;
/// this monitor's value is the *attribution* — its violations say "unsafe
/// **while partitioned**" and "entity crossed a **cut** edge", which is what
/// a partition campaign report needs to certify Theorem 5's
/// failure-obliviousness under link faults, not just cell crashes.
pub struct ReachabilityMonitor {
    schedule: crate::PartitionSchedule,
    /// Entity → cell of the previous observed round.
    prev: std::collections::HashMap<crate::EntityId, CellId>,
    rounds: u64,
    episode_rounds: u64,
    max_components: u32,
    violations: u64,
}

impl ReachabilityMonitor {
    /// A monitor enforcing `schedule`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule was built for a different grid than `config`.
    pub fn new(config: &SystemConfig, schedule: crate::PartitionSchedule) -> ReachabilityMonitor {
        assert_eq!(
            schedule.dims(),
            config.dims(),
            "partition schedule and system must share a grid"
        );
        ReachabilityMonitor {
            schedule,
            prev: std::collections::HashMap::new(),
            rounds: 0,
            episode_rounds: 0,
            max_components: 0,
            violations: 0,
        }
    }

    /// The largest number of simultaneously live components observed.
    pub fn max_components(&self) -> u32 {
        self.max_components
    }

    /// How many observed rounds had at least one active cut.
    pub fn episode_rounds(&self) -> u64 {
        self.episode_rounds
    }
}

impl Monitor for ReachabilityMonitor {
    fn name(&self) -> &'static str {
        "reachability"
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        self.rounds += 1;
        let dims = ctx.config.dims();
        // `ctx.round` is 1-based; the schedule's mask rows are 0-based.
        let mask_round = ctx.round.saturating_sub(1);
        let mask = self.schedule.mask_row(mask_round);
        let active = self.schedule.active(mask_round);
        let mut out = Vec::new();

        let comp = component_map(ctx.config, ctx.state, mask);
        let components = comp.iter().flatten().copied().max().map_or(0, |m| m + 1);
        self.max_components = self.max_components.max(components);

        if active {
            self.episode_rounds += 1;
            let cells = 0..ctx.state.cell_count();
            if let Err(v) = safety::check_safe_in(ctx.config, ctx.state, cells) {
                out.push(MonitorViolation {
                    monitor: self.name(),
                    round: ctx.round,
                    detail: format!("Theorem 5 violated while partitioned: {v}"),
                });
            }
        }

        // No entity may have crossed an edge whose *grant* direction is cut:
        // a mover must hear its next cell's grant that same round (the
        // request side is weaker — a standing token issued before the cut
        // may keep granting, which both executions honor).
        for k in 0..ctx.state.cell_count() {
            let here = dims.id_at(k);
            for eid in ctx.state.members(k).map(|e| e.id) {
                if let Some(&from) = self.prev.get(&eid) {
                    if from != here && self.schedule.is_cut(mask_round, here, from) {
                        out.push(MonitorViolation {
                            monitor: self.name(),
                            round: ctx.round,
                            detail: format!("entity {eid:?} crossed the cut edge {from} → {here}"),
                        });
                    }
                }
            }
        }
        self.prev.clear();
        for k in 0..ctx.state.cell_count() {
            let here = dims.id_at(k);
            for e in ctx.state.members(k) {
                self.prev.insert(e.id, here);
            }
        }
        self.violations += out.len() as u64;
        out
    }

    fn summary(&self) -> String {
        format!(
            "reachability: {} rounds checked ({} partitioned), max {} components, {} violations",
            self.rounds, self.episode_rounds, self.max_components, self.violations
        )
    }
}

/// The standard monitor suite: safety, routing sanity, conservation, and the
/// stabilization stopwatch for `config` — plus the capacity invariant when
/// `config` gives cells a finite [`capacity`](SystemConfig::capacity)
/// (capacity-free configurations keep the original four monitors).
pub fn standard_monitors(config: &SystemConfig) -> Vec<Box<dyn Monitor>> {
    let mut monitors: Vec<Box<dyn Monitor>> = vec![
        Box::new(SafetyMonitor::new()),
        Box::new(RoutingMonitor::new()),
        Box::new(ConservationMonitor::new()),
        Box::new(StabilizationMonitor::new(config)),
    ];
    if config.capacity().is_some() {
        monitors.push(Box::new(CapacityMonitor::new(config)));
    }
    monitors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Params, System, SystemConfig};
    use cellflow_grid::{CellId, GridDims};

    fn config() -> SystemConfig {
        SystemConfig::new(
            GridDims::square(4),
            CellId::new(3, 3),
            Params::from_milli(250, 50, 100).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(0, 0))
    }

    fn observe_run(monitors: &mut [Box<dyn Monitor>], rounds: u64) -> Vec<MonitorViolation> {
        let mut sys = System::new(config());
        let mut all = Vec::new();
        for _ in 0..rounds {
            sys.step();
            let ctx = MonitorCtx {
                config: sys.config(),
                state: sys.view(),
                round: sys.round(),
                failed: &[],
                recovered: &[],
                corrupted: &[],
                ambient_chaos: false,
                consumed_total: sys.consumed_total(),
                inserted_total: sys.inserted_total(),
                changed: None,
            };
            for m in monitors.iter_mut() {
                all.extend(m.observe(&ctx));
            }
        }
        all
    }

    #[test]
    fn clean_run_fires_no_monitor() {
        let cfg = config();
        let mut monitors = standard_monitors(&cfg);
        let violations = observe_run(&mut monitors, 60);
        assert_eq!(violations, Vec::new());
        for m in &monitors {
            assert!(m.summary().contains("0 violations") || m.name() == "stabilization");
        }
    }

    #[test]
    fn safety_monitor_flags_seeded_overlap() {
        let mut sys = System::new(config());
        // Bypass the protocol: plant two coincident entities by hand.
        let dims = sys.config().dims();
        let cell = CellId::new(1, 1);
        let mut state = sys.state().clone();
        state
            .cell_mut(dims, cell)
            .members
            .insert(crate::EntityId(900), cell.center());
        state
            .cell_mut(dims, cell)
            .members
            .insert(crate::EntityId(901), cell.center());
        sys.set_state(state);
        let mut m = SafetyMonitor::new();
        let ctx = MonitorCtx {
            config: sys.config(),
            state: sys.view(),
            round: 1,
            failed: &[],
            recovered: &[],
            corrupted: &[],
            ambient_chaos: false,
            consumed_total: 0,
            inserted_total: 2,
            changed: None,
        };
        let vs = m.observe(&ctx);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("Theorem 5"));
        assert!(m.summary().contains("1 violations"));
        assert!(vs[0].to_string().contains("safety"));
    }

    #[test]
    fn routing_monitor_flags_corrupted_pointer() {
        let sys = System::new(config());
        let dims = sys.config().dims();
        let mut state = sys.state().clone();
        // ⟨0,0⟩ pointing at the far corner is never a legal route pointer.
        state.cell_mut(dims, CellId::new(0, 0)).next = Some(CellId::new(3, 3));
        let mut m = RoutingMonitor::new();
        let ctx = MonitorCtx {
            config: sys.config(),
            state: (&state).into(),
            round: 3,
            failed: &[],
            recovered: &[],
            corrupted: &[],
            ambient_chaos: false,
            consumed_total: 0,
            inserted_total: 0,
            changed: None,
        };
        let vs = m.observe(&ctx);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("non-neighbor"));
    }

    #[test]
    fn routing_monitor_flags_off_grid_pointer() {
        let sys = System::new(config());
        let dims = sys.config().dims();
        let mut state = sys.state().clone();
        // ⟨4,1⟩ is a unit step east of ⟨3,1⟩, but off the 4×4 grid.
        state.cell_mut(dims, CellId::new(3, 1)).next = Some(CellId::new(4, 1));
        let mut m = RoutingMonitor::new();
        let ctx = MonitorCtx {
            config: sys.config(),
            state: (&state).into(),
            round: 3,
            failed: &[],
            recovered: &[],
            corrupted: &[],
            ambient_chaos: false,
            consumed_total: 0,
            inserted_total: 0,
            changed: None,
        };
        let vs = m.observe(&ctx);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("routes to non-neighbor ⟨4, 1⟩"));
    }

    #[test]
    fn conservation_monitor_flags_count_mismatch() {
        let sys = System::new(config());
        let mut m = ConservationMonitor::new();
        let ctx = MonitorCtx {
            config: sys.config(),
            state: sys.view(),
            round: 1,
            failed: &[],
            recovered: &[],
            corrupted: &[],
            ambient_chaos: false,
            consumed_total: 0,
            inserted_total: 5, // claims 5 inserted but the state is empty
            changed: None,
        };
        let vs = m.observe(&ctx);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("population"));
    }

    #[test]
    fn stabilization_stopwatch_restarts_on_disturbance() {
        let cfg = config();
        let mut sys = System::new(cfg.clone());
        let mut m = StabilizationMonitor::new(&cfg);
        assert_eq!(m.bound(), 2 * 16 + 2);
        // Quiet start: stabilizes well within the bound.
        for _ in 0..10 {
            sys.step();
            let ctx = MonitorCtx {
                config: sys.config(),
                state: sys.view(),
                round: sys.round(),
                failed: &[],
                recovered: &[],
                corrupted: &[],
                ambient_chaos: false,
                consumed_total: sys.consumed_total(),
                inserted_total: sys.inserted_total(),
                changed: None,
            };
            assert_eq!(m.observe(&ctx), Vec::new());
        }
        assert!(m.rounds_to_stabilize().is_some());
        // A crash restarts the clock.
        let victim = CellId::new(2, 2);
        sys.fail(victim);
        sys.step();
        let ctx = MonitorCtx {
            config: sys.config(),
            state: sys.view(),
            round: sys.round(),
            failed: &[victim],
            recovered: &[],
            corrupted: &[],
            ambient_chaos: false,
            consumed_total: sys.consumed_total(),
            inserted_total: sys.inserted_total(),
            changed: None,
        };
        m.observe(&ctx);
        assert_eq!(m.stabilized_at().is_some(), {
            // Whatever the immediate verdict, the epoch must have restarted.
            self::analysis::routing_stabilized(sys.config(), sys.state())
        });
        assert!(m.summary().contains("bound 34"));
    }

    #[test]
    fn stabilization_stopwatch_fires_past_bound() {
        // A tight artificial bound of 1 must fire on the unstabilized start.
        let mut m = StabilizationMonitor::with_bound(1);
        let mut sys = System::new(config());
        let mut fired = Vec::new();
        for _ in 0..4 {
            sys.step();
            let ctx = MonitorCtx {
                config: sys.config(),
                state: sys.view(),
                round: sys.round(),
                failed: &[],
                recovered: &[],
                corrupted: &[],
                ambient_chaos: false,
                consumed_total: sys.consumed_total(),
                inserted_total: sys.inserted_total(),
                changed: None,
            };
            fired.extend(m.observe(&ctx));
        }
        // Fires exactly once per epoch, not once per late round.
        assert_eq!(fired.len(), 1);
        assert!(fired[0].detail.contains("bound 1"));
    }

    #[test]
    fn conservation_rebaselines_on_corrupted_rounds() {
        let sys = System::new(config());
        let mut m = ConservationMonitor::new();
        let ctx = |round, corrupted: &'static [CellId], inserted| MonitorCtx {
            config: sys.config(),
            state: sys.view(),
            round,
            failed: &[],
            recovered: &[],
            corrupted,
            ambient_chaos: false,
            consumed_total: 0,
            inserted_total: inserted,
            changed: None,
        };
        static VICTIM: [CellId; 1] = [CellId::new(1, 1)];
        // Discontinuity round: the ledger says 3, the state holds 0. The
        // monitor re-baselines instead of firing.
        assert_eq!(m.observe(&ctx(1, &VICTIM, 3)), Vec::new());
        // Quiet rounds hold against the recorded offset of −3.
        assert_eq!(m.observe(&ctx(2, &[], 3)), Vec::new());
        // A later ledger shift without a discontinuity still fires.
        let vs = m.observe(&ctx(3, &[], 2));
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("fault offset -3"));
    }

    #[test]
    fn stabilization_restarts_on_corruption_and_probe_mirrors() {
        let cfg = config();
        let probe = StabilizationProbe::new();
        let mut m = StabilizationMonitor::new(&cfg).with_probe(&probe);
        let mut sys = System::new(cfg);
        for _ in 0..10 {
            sys.step();
            let ctx = MonitorCtx {
                config: sys.config(),
                state: sys.view(),
                round: sys.round(),
                failed: &[],
                recovered: &[],
                corrupted: &[],
                ambient_chaos: false,
                consumed_total: sys.consumed_total(),
                inserted_total: sys.inserted_total(),
                changed: None,
            };
            m.observe(&ctx);
        }
        assert!(probe.rounds_to_stabilize().is_some());
        assert_eq!(probe.violations(), 0);
        // A corruption restarts the epoch clock, mirrored by the probe.
        sys.step();
        let disturbed = MonitorCtx {
            config: sys.config(),
            state: sys.view(),
            round: sys.round(),
            failed: &[],
            recovered: &[],
            corrupted: &[CellId::new(2, 2)],
            ambient_chaos: false,
            consumed_total: sys.consumed_total(),
            inserted_total: sys.inserted_total(),
            changed: None,
        };
        m.observe(&disturbed);
        assert_eq!(probe.last_disturbance(), sys.round());
    }

    /// A neighbor that routes through a crashed cell turns unstable while
    /// its own registers and `ρ` stay put: only re-judging the neighbors of
    /// the cells whose `ρ` moved catches it. Each fault edit is observed
    /// before the next step, with the edited cell as the changed set.
    #[test]
    fn stabilization_fed_fault_edits_matches_a_full_scan() {
        /// Feeds `[fed, full]` one round, `changed` and `None`, asserts
        /// they agree with each other and with `routing_stabilized`, and
        /// returns that verdict. `edit` is the round's crashed cells if
        /// `failed`, else its recovered cells.
        fn observe(
            [fed, full]: &mut [StabilizationMonitor; 2],
            sys: &System,
            round: u64,
            (edit, failed): (&[CellId], bool),
            changed: Option<&[u32]>,
        ) -> bool {
            let ctx = |changed| MonitorCtx {
                config: sys.config(),
                state: sys.view(),
                round,
                failed: if failed { edit } else { &[] },
                recovered: if failed { &[] } else { edit },
                corrupted: &[],
                ambient_chaos: false,
                consumed_total: sys.consumed_total(),
                inserted_total: sys.inserted_total(),
                changed,
            };
            fed.observe(&ctx(changed));
            full.observe(&ctx(None));
            let want = analysis::routing_stabilized(sys.config(), sys.state());
            assert_eq!(full.stabilized_at().is_some(), want, "round {round}");
            assert_eq!(fed.stabilized_at(), full.stabilized_at(), "round {round}");
            want
        }

        let cfg = config();
        let dims = cfg.dims();
        let mut caught = 0;
        for cell in dims.iter().filter(|&c| c != cfg.target()) {
            let k = dims.index(cell) as u32;
            let mut sys = System::new(cfg.clone());
            sys.run(10);
            let mut pair = [
                StabilizationMonitor::new(&cfg),
                StabilizationMonitor::new(&cfg),
            ];
            let mut round = sys.round();
            observe(&mut pair, &sys, round, (&[], true), None);
            for failed in [true, false] {
                if failed {
                    sys.fail(cell);
                } else {
                    sys.recover(cell);
                }
                round += 1;
                if !observe(&mut pair, &sys, round, (&[cell], failed), Some(&[k])) {
                    caught += 1;
                }
                for _ in 0..12 {
                    sys.step();
                    round += 1;
                    observe(&mut pair, &sys, round, (&[], true), sys.changed_cells());
                }
            }
        }
        // Some crashes leave only such a neighbor unstable.
        assert!(caught > 0);
    }

    #[test]
    fn component_map_tracks_splits_and_failed_cells() {
        use crate::fault::PartitionPlan;
        let cfg = config();
        let mut sys = System::new(cfg.clone());
        // No cuts: one component covering all 16 cells.
        let comp = component_map(&cfg, sys.state(), &[0; 16]);
        assert!(comp.iter().all(|c| *c == Some(0)));
        // Split before column 2: exactly two components, divided on `i`.
        let schedule = PartitionPlan::for_grid(cfg.dims())
            .split_col(2, 0, None)
            .expand(1);
        let comp = component_map(&cfg, sys.state(), schedule.mask_row(0));
        for (k, c) in comp.iter().enumerate() {
            let id = cfg.dims().id_at(k);
            assert_eq!(*c, Some(u32::from(id.i() >= 2)), "cell {id}");
        }
        // A failed cell is in no component.
        sys.fail(CellId::new(0, 0));
        let comp = component_map(&cfg, sys.state(), schedule.mask_row(0));
        assert_eq!(comp[cfg.dims().index(CellId::new(0, 0))], None);
        // A one-way cut alone already severs the component edge.
        let schedule = PartitionPlan::for_grid(cfg.dims())
            .cut(CellId::new(0, 3), CellId::new(1, 3), 0, None)
            .expand(1);
        let comp = component_map(&cfg, sys.state(), schedule.mask_row(0));
        // The grid minus that edge is still connected elsewhere, so still
        // one component — but the edge itself must not be what connects it.
        assert_eq!(comp.iter().flatten().max(), Some(&0));
    }

    #[test]
    fn reachability_monitor_attributes_partition_rounds() {
        use crate::fault::PartitionPlan;
        let cfg = config();
        let plan = PartitionPlan::for_grid(cfg.dims()).split_col(2, 5, Some(20));
        let schedule = plan.expand(40);
        let mut m = ReachabilityMonitor::new(&cfg, schedule.clone());
        let mut sys = System::new(cfg.clone());
        for round in 0..40u64 {
            sys.set_link_cuts(schedule.mask_row(round));
            sys.step();
            let ctx = MonitorCtx {
                config: sys.config(),
                state: sys.view(),
                round: sys.round(),
                failed: &[],
                recovered: &[],
                corrupted: &[],
                ambient_chaos: schedule.active(round),
                consumed_total: sys.consumed_total(),
                inserted_total: sys.inserted_total(),
                changed: None,
            };
            assert_eq!(m.observe(&ctx), Vec::new(), "round {round}");
        }
        assert_eq!(m.max_components(), 2);
        assert_eq!(m.episode_rounds(), 15);
        assert!(m.summary().contains("max 2 components"));
    }

    #[test]
    fn reachability_monitor_flags_entity_crossing_a_cut() {
        use crate::fault::PartitionPlan;
        let cfg = config();
        let schedule = PartitionPlan::for_grid(cfg.dims())
            .split_col(2, 0, None)
            .expand(10);
        let mut m = ReachabilityMonitor::new(&cfg, schedule);
        let mut sys = System::new(cfg.clone());
        let eid = sys
            .seed_entity(CellId::new(1, 1), CellId::new(1, 1).center())
            .unwrap();
        let observe = |m: &mut ReachabilityMonitor, sys: &System, round| {
            m.observe(&MonitorCtx {
                config: sys.config(),
                state: sys.view(),
                round,
                failed: &[],
                recovered: &[],
                corrupted: &[],
                ambient_chaos: true,
                consumed_total: sys.consumed_total(),
                inserted_total: sys.inserted_total(),
                changed: None,
            })
        };
        assert_eq!(observe(&mut m, &sys, 1), Vec::new());
        // Teleport the entity across the cut by hand: ⟨1,1⟩ → ⟨2,1⟩.
        let dims = cfg.dims();
        let mut state = sys.state().clone();
        let pos = state
            .cell_mut(dims, CellId::new(1, 1))
            .members
            .remove(&eid)
            .unwrap();
        let _ = pos;
        state
            .cell_mut(dims, CellId::new(2, 1))
            .members
            .insert(eid, CellId::new(2, 1).center());
        sys.set_state(state);
        let vs = observe(&mut m, &sys, 2);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("crossed the cut edge"));
    }

    #[test]
    fn capacity_monitor_fires_once_per_violation_episode() {
        let cfg = config().with_capacity(2);
        let mut sys = System::new(cfg.clone());
        let dims = cfg.dims();
        let cell = CellId::new(1, 1);
        let mut m = CapacityMonitor::new(&cfg);
        let observe = |m: &mut CapacityMonitor, sys: &System, round: u64| {
            let ctx = MonitorCtx {
                config: sys.config(),
                state: sys.view(),
                round,
                failed: &[],
                recovered: &[],
                corrupted: &[],
                ambient_chaos: false,
                consumed_total: sys.consumed_total(),
                inserted_total: sys.inserted_total(),
                changed: None,
            };
            m.observe(&ctx)
        };

        // Round 1: push the cell one over capacity — exactly one violation.
        let mut state = sys.state().clone();
        for e in 0..3u64 {
            state
                .cell_mut(dims, cell)
                .members
                .insert(crate::EntityId(900 + e), cell.center());
        }
        sys.set_state(state);
        let vs = observe(&mut m, &sys, 1);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("over capacity 2"));

        // Rounds 2-4: still over capacity — the episode latch stays set.
        for round in 2..5 {
            assert_eq!(observe(&mut m, &sys, round), Vec::new());
        }

        // Round 5: drain below capacity — no violation, latch clears.
        let mut state = sys.state().clone();
        state
            .cell_mut(dims, cell)
            .members
            .remove(&crate::EntityId(902));
        sys.set_state(state);
        assert_eq!(observe(&mut m, &sys, 5), Vec::new());

        // Round 6: breach anew — a fresh episode fires a second violation.
        let mut state = sys.state().clone();
        state
            .cell_mut(dims, cell)
            .members
            .insert(crate::EntityId(903), cell.center());
        sys.set_state(state);
        let vs = observe(&mut m, &sys, 6);
        assert_eq!(vs.len(), 1);
        assert!(m.summary().contains("2 breaches"));
    }
}
