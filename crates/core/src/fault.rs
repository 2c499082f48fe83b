//! A shared fault-schedule vocabulary (the paper's §IV failure model, made
//! injectable).
//!
//! The paper proves safety *despite* crashes (Theorem 5) and stabilization
//! *after* they cease (Lemma 6, Theorem 10). A [`FaultPlan`] is a scripted
//! sequence of fail/recover transitions — burst crashes, region blackouts,
//! flapping cells, adversarial kills — that the shared-variable reference
//! (`cellflow-sim`'s `FailureModel`), the message-passing runtime
//! (`cellflow-net`), and the `cellflow chaos` CLI all consume **identically**,
//! so differential tests can drive both implementations through the same
//! adversity.
//!
//! Two fault severities go beyond the paper's polite crash flag:
//!
//! * [`FaultKind::HardCrash`] — the deployment actually takes the cell out
//!   of the run: it withdraws its barrier seat, and its state survives only
//!   in the snapshot store until the paired [`FaultKind::Recover`]
//!   re-spawns it from there. The reference models it as an ordinary crash,
//!   which is exactly the paper's reading: a failed cell is silent and
//!   frozen.
//! * [`FaultKind::Kill`] — the cell vanishes *forever* and never recovers;
//!   the runtime must degrade via timeouts instead of deadlocking. There is
//!   no reference equivalent (the run ends with a typed error), so plans
//!   with kills are excluded from differential comparisons.

use std::collections::BTreeSet;

use cellflow_geom::{sep_ok, Dir, Fixed, Point};
use cellflow_grid::{CellId, GridDims};
use cellflow_routing::Dist;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::hash::{edge_seed, splitmix64, SPLITMIX64_GAMMA};
use crate::{CellState, SystemConfig};

/// The kind of a scripted fault transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// The paper's `fail(⟨i,j⟩)`: the cell sets its flag, pins `dist = ∞`,
    /// and goes silent. State (members, token, `NEPrev`) is retained.
    Crash,
    /// The paper's recovery transition: `failed := false` (the target
    /// re-anchors `dist = 0`). Also the re-spawn point of a [`HardCrash`].
    ///
    /// [`HardCrash`]: FaultKind::HardCrash
    Recover,
    /// A crash that a deployment realizes by taking the cell out of the
    /// run; the paired [`Recover`] re-spawns it from the snapshot store.
    /// Observationally identical to [`Crash`] in the shared-variable model.
    ///
    /// [`Crash`]: FaultKind::Crash
    /// [`Recover`]: FaultKind::Recover
    HardCrash,
    /// An unrecoverable disappearance: the cell becomes permanently
    /// unreachable. Deployments degrade via timeouts (footnote 1's "no
    /// timely response") and report a typed error instead of hanging.
    Kill,
    /// An *endogenous* crash: the cell died because its occupancy exceeded
    /// its finite capacity (see [`SystemConfig::capacity`] and
    /// [`overload`](crate::overload)). Observationally a [`Crash`] — the
    /// flag is set, state retained, the cell may later [`Recover`] — but
    /// census-tracked separately because cascades (Como et al.) are a
    /// distinct failure family: the dead cell's inflow sheds onto its
    /// neighbors, which may overload in turn.
    ///
    /// [`Crash`]: FaultKind::Crash
    /// [`Recover`]: FaultKind::Recover
    OverloadCrash,
    /// A transient state corruption: the cell's protocol state is perturbed
    /// in place (the *self*-stabilization adversary of Corollary 7 /
    /// Theorem 10, as opposed to the polite crash flag). The cell keeps
    /// running; the protocol must wash the damage out within the
    /// stabilization bound without ever violating safety.
    Corrupt(Corruption),
}

/// A perturbation of one cell's protocol state, applied atomically at the
/// start of a round — the "arbitrary transient fault" the paper's
/// stabilization theorems quantify over.
///
/// Shared-register corruptions (`next`, `token`, `signal`, `NEPrev`) are
/// expressed as **direction registers** rather than raw cell identifiers:
/// the adversary scribbles a direction, and the value the protocol observes
/// is that direction resolved on the grid (`⊥` when it points off-grid).
/// This keeps corrupted values inside each variable's type — the paper's
/// model permits arbitrary *values of the declared type*, not arbitrary
/// bit patterns — while still exercising every reachable wrong value.
///
/// Entity-position corruption ([`Corruption::Jostle`]) is constrained by
/// physical well-formedness: entities are matter, so a transient fault may
/// displace them but cannot make two of them overlap or teleport one across
/// a cell boundary. Each nudge is accepted only if it preserves Invariant 1
/// (interior margins) and the `d`-separation of Theorem 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Corruption {
    /// Overwrite `dist` with an arbitrary value (including a fake `0`).
    Dist(Dist),
    /// Overwrite `next` with the neighbor in this direction (`⊥` when `None`
    /// or off-grid).
    Next(Option<Dir>),
    /// Overwrite `token` likewise.
    Token(Option<Dir>),
    /// Overwrite `signal` likewise.
    Signal(Option<Dir>),
    /// Overwrite `NEPrev` with the neighbors selected by `mask` (bit `k`
    /// selects `Dir::ALL[k]`; off-grid bits are ignored).
    NePrev {
        /// Direction bitmask over [`Dir::ALL`].
        mask: u8,
    },
    /// Deterministically nudge every entity on the cell, keeping each nudge
    /// only if it preserves Invariant 1 and `d`-separation.
    Jostle {
        /// Seed for the per-entity nudge derivation.
        salt: u64,
    },
    /// Scramble the *entire* protocol state: `dist`, `next`, `token`,
    /// `signal`, `NEPrev`, and entity positions, all derived from `salt`.
    Scramble {
        /// Seed for the derived sub-corruptions.
        salt: u64,
    },
}

impl Corruption {
    /// Applies this corruption to `cell` (the state of `id` under `config`).
    ///
    /// Two well-formedness clauses are re-asserted afterwards, mirroring the
    /// parts of the state a transient fault cannot reach in the paper's
    /// model:
    ///
    /// * a **failed** cell stays pinned (`dist = ∞`, `next = signal = ⊥`) —
    ///   the fail flag is the §IV failure model's, not the adversary's;
    /// * the live **target** keeps `dist = 0` — the anchor is part of the
    ///   configuration (recovery re-asserts it, `Route` never recomputes
    ///   it), so a corrupted anchor would model a different system, not a
    ///   transient fault of this one.
    pub fn apply(&self, config: &SystemConfig, id: CellId, cell: &mut CellState) {
        let dims = config.dims();
        let resolve = |dir: Option<Dir>| dir.and_then(|d| id.step(d)).filter(|&n| dims.contains(n));
        match *self {
            Corruption::Dist(d) => cell.dist = d,
            Corruption::Next(dir) => cell.next = resolve(dir),
            Corruption::Token(dir) => cell.token = resolve(dir),
            Corruption::Signal(dir) => cell.signal = resolve(dir),
            Corruption::NePrev { mask } => {
                cell.ne_prev = Dir::ALL
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| mask & (1 << k) != 0)
                    .filter_map(|(_, &d)| resolve(Some(d)))
                    .collect();
            }
            Corruption::Jostle { salt } => jostle(config, id, cell, salt),
            Corruption::Scramble { salt } => {
                let mut rng = SmallRng::seed_from_u64(salt);
                let dist = if rng.gen_bool(0.3) {
                    Dist::Infinity
                } else {
                    Dist::Finite(rng.gen_range(0..config.dist_cap() as usize) as u32)
                };
                Corruption::Dist(dist).apply(config, id, cell);
                for mk in [Corruption::Next, Corruption::Token, Corruption::Signal] {
                    mk(random_dir(&mut rng)).apply(config, id, cell);
                }
                let mask = rng.gen_range(0..16usize) as u8;
                Corruption::NePrev { mask }.apply(config, id, cell);
                Corruption::Jostle {
                    salt: salt ^ 0xD1B5_4A32_D192_ED03,
                }
                .apply(config, id, cell);
            }
        }
        if cell.failed {
            cell.dist = Dist::Infinity;
            cell.next = None;
            cell.signal = None;
        } else if id == config.target() {
            cell.dist = Dist::Finite(0);
        }
    }
}

/// A direction drawn uniformly from `⊥` and the four compass directions.
fn random_dir(rng: &mut SmallRng) -> Option<Dir> {
    match rng.gen_range(0..5usize) {
        0 => None,
        k => Some(Dir::ALL[k - 1]),
    }
}

/// Nudges every entity on the cell by a `salt`-derived offset of at most
/// `d/2` per axis, keeping a nudge only if the new position stays inside the
/// cell's interior margins (Invariant 1) and `d`-separated from every other
/// entity (Theorem 5's `Safe`). Rejected nudges leave the entity in place,
/// so the result is well-formed by construction.
fn jostle(config: &SystemConfig, id: CellId, cell: &mut CellState, salt: u64) {
    let params = config.params();
    let amp = params.d().halve().raw();
    if amp == 0 {
        return;
    }
    let ids: Vec<crate::EntityId> = cell.members.keys().copied().collect();
    for eid in ids {
        let mut rng = SmallRng::seed_from_u64(salt ^ eid.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let dx = Fixed::from_raw(rng.gen_range(-amp..=amp));
        let dy = Fixed::from_raw(rng.gen_range(-amp..=amp));
        let old = cell.members[&eid];
        let cand = Point::new(old.x + dx, old.y + dy);
        let ok = crate::source::within_cell_margins(params, id, cand)
            && cell
                .members
                .iter()
                .all(|(&k, &q)| k == eid || sep_ok(cand, q, params.d()));
        if ok {
            cell.members.insert(eid, cand);
        }
    }
}

/// One scripted transition: `kind` applied to `cell` at the start of `round`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultEvent {
    /// The round at whose start the transition fires.
    pub round: u64,
    /// The affected cell.
    pub cell: CellId,
    /// What happens to it.
    pub kind: FaultKind,
}

/// A deterministic schedule of [`FaultEvent`]s, consumed identically by the
/// lockstep simulator, the message-passing runtime, and the chaos CLI.
///
/// Built with chainable constructors:
///
/// ```
/// use cellflow_core::fault::{FaultKind, FaultPlan};
/// use cellflow_grid::CellId;
///
/// let plan = FaultPlan::new()
///     .crash_at(5, CellId::new(1, 1))
///     .recover_at(30, CellId::new(1, 1))
///     .hard_crash_at(10, CellId::new(2, 0))
///     .recover_at(40, CellId::new(2, 0));
/// assert_eq!(plan.len(), 4);
/// assert_eq!(plan.last_event_round(), Some(40));
/// assert_eq!(plan.respawn_round_after(CellId::new(2, 0), 10), Some(40));
/// assert!(!plan.has_kills());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults ever).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds an arbitrary event.
    pub fn with_event(mut self, round: u64, cell: CellId, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent { round, cell, kind });
        self
    }

    /// Adds a [`FaultKind::Crash`] of `cell` at `round`.
    pub fn crash_at(self, round: u64, cell: CellId) -> FaultPlan {
        self.with_event(round, cell, FaultKind::Crash)
    }

    /// Adds a [`FaultKind::Recover`] of `cell` at `round`.
    pub fn recover_at(self, round: u64, cell: CellId) -> FaultPlan {
        self.with_event(round, cell, FaultKind::Recover)
    }

    /// Adds a [`FaultKind::HardCrash`] of `cell` at `round`.
    pub fn hard_crash_at(self, round: u64, cell: CellId) -> FaultPlan {
        self.with_event(round, cell, FaultKind::HardCrash)
    }

    /// Adds a [`FaultKind::Kill`] of `cell` at `round`.
    pub fn kill_at(self, round: u64, cell: CellId) -> FaultPlan {
        self.with_event(round, cell, FaultKind::Kill)
    }

    /// Adds a [`FaultKind::Corrupt`] of `cell` at `round`.
    pub fn corrupt_at(self, round: u64, cell: CellId, corruption: Corruption) -> FaultPlan {
        self.with_event(round, cell, FaultKind::Corrupt(corruption))
    }

    /// Adds a [`FaultKind::OverloadCrash`] of `cell` at `round` (normally
    /// recorded by [`overload::expand_overload`](crate::overload::expand_overload)
    /// rather than scripted by hand).
    pub fn overload_crash_at(self, round: u64, cell: CellId) -> FaultPlan {
        self.with_event(round, cell, FaultKind::OverloadCrash)
    }

    /// A targeted corruption sweep: every cell in `cells` gets its full
    /// state scrambled at `round`, each with a distinct salt derived from
    /// `salt` and its coordinates (so no two cells scramble identically).
    pub fn scramble_sweep<I: IntoIterator<Item = CellId>>(
        mut self,
        round: u64,
        cells: I,
        salt: u64,
    ) -> FaultPlan {
        for c in cells {
            let cell_salt = salt
                ^ (((c.i() as u64) << 16 | c.j() as u64) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            self.events.push(FaultEvent {
                round,
                cell: c,
                kind: FaultKind::Corrupt(Corruption::Scramble { salt: cell_salt }),
            });
        }
        self
    }

    /// Crashes all `cells` at round 0 — the path-carving helper (Figure 8).
    pub fn carve<I: IntoIterator<Item = CellId>>(mut self, cells: I) -> FaultPlan {
        for c in cells {
            self.events.push(FaultEvent {
                round: 0,
                cell: c,
                kind: FaultKind::Crash,
            });
        }
        self
    }

    /// A burst: every cell in `cells` crashes at `round` and recovers
    /// together at `round + outage`.
    pub fn burst<I: IntoIterator<Item = CellId>>(
        mut self,
        round: u64,
        cells: I,
        outage: u64,
    ) -> FaultPlan {
        for c in cells {
            self.events.push(FaultEvent {
                round,
                cell: c,
                kind: FaultKind::Crash,
            });
            self.events.push(FaultEvent {
                round: round + outage,
                cell: c,
                kind: FaultKind::Recover,
            });
        }
        self
    }

    /// A region blackout: the axis-aligned rectangle spanned by `a` and `b`
    /// (inclusive) crashes at `round` and recovers at `round + outage`.
    pub fn blackout(self, round: u64, a: CellId, b: CellId, outage: u64) -> FaultPlan {
        let (i0, i1) = (a.i().min(b.i()), a.i().max(b.i()));
        let (j0, j1) = (a.j().min(b.j()), a.j().max(b.j()));
        let region = (i0..=i1).flat_map(move |i| (j0..=j1).map(move |j| CellId::new(i, j)));
        self.burst(round, region, outage)
    }

    /// A flapping cell: starting at `start`, `cell` crashes and recovers
    /// `flips` times with `half_period` rounds between each transition.
    pub fn flapping(mut self, cell: CellId, start: u64, half_period: u64, flips: u32) -> FaultPlan {
        let step = half_period.max(1);
        for k in 0..flips as u64 {
            self.events.push(FaultEvent {
                round: start + 2 * k * step,
                cell,
                kind: FaultKind::Crash,
            });
            self.events.push(FaultEvent {
                round: start + (2 * k + 1) * step,
                cell,
                kind: FaultKind::Recover,
            });
        }
        self
    }

    /// Appends every event of `other`.
    pub fn merge(mut self, other: FaultPlan) -> FaultPlan {
        self.events.extend(other.events);
        self
    }

    /// All events, in insertion order (the order they are applied within a
    /// round).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events firing at the start of `round`, in insertion order.
    pub fn events_at(&self, round: u64) -> impl Iterator<Item = FaultEvent> + '_ {
        self.events
            .iter()
            .copied()
            .filter(move |e| e.round == round)
    }

    /// The events affecting `cell` at the start of `round`.
    pub fn events_at_for(&self, round: u64, cell: CellId) -> impl Iterator<Item = FaultEvent> + '_ {
        self.events_at(round).filter(move |e| e.cell == cell)
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events are scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The round of the last scripted event — the moment "failures cease"
    /// from which the Theorem 10 stabilization clock starts. `None` for an
    /// empty plan.
    pub fn last_event_round(&self) -> Option<u64> {
        self.events.iter().map(|e| e.round).max()
    }

    /// The earliest [`FaultKind::Recover`] of `cell` strictly after `round` —
    /// where a hard-crashed cell's thread re-spawns. `None` means the cell
    /// stays dead.
    pub fn respawn_round_after(&self, cell: CellId, round: u64) -> Option<u64> {
        self.events
            .iter()
            .filter(|e| e.cell == cell && e.kind == FaultKind::Recover && e.round > round)
            .map(|e| e.round)
            .min()
    }

    /// `true` if the plan contains any [`FaultKind::Kill`] (such plans end a
    /// deployment run with a timeout error by design).
    pub fn has_kills(&self) -> bool {
        self.events.iter().any(|e| e.kind == FaultKind::Kill)
    }

    /// `true` if the plan contains any [`FaultKind::HardCrash`].
    pub fn has_hard_crashes(&self) -> bool {
        self.events.iter().any(|e| e.kind == FaultKind::HardCrash)
    }

    /// Cells that are hard-dead (between a [`FaultKind::HardCrash`] /
    /// [`FaultKind::Kill`] and their next recovery, if any) at the start of
    /// `round`, *after* this round's events fire.
    pub fn hard_dead_at(&self, round: u64) -> BTreeSet<CellId> {
        let mut dead = BTreeSet::new();
        for e in self.events.iter().filter(|e| e.round <= round) {
            match e.kind {
                FaultKind::HardCrash | FaultKind::Kill => {
                    dead.insert(e.cell);
                }
                FaultKind::Recover => {
                    dead.remove(&e.cell);
                }
                FaultKind::Crash | FaultKind::OverloadCrash | FaultKind::Corrupt(_) => {}
            }
        }
        dead
    }

    /// Cells taken down by a [`FaultKind::Kill`] at or before `round` (and
    /// not scripted to recover, which plans never do for kills). Unlike
    /// [`FaultPlan::hard_dead_at`] this excludes hard-crash victims — it
    /// identifies the cells whose silence is *expected and unrecoverable*,
    /// the culprits a timeout report should name.
    pub fn killed_at(&self, round: u64) -> BTreeSet<CellId> {
        let mut dead = BTreeSet::new();
        for e in self.events.iter().filter(|e| e.round <= round) {
            match e.kind {
                FaultKind::Kill => {
                    dead.insert(e.cell);
                }
                FaultKind::Recover => {
                    dead.remove(&e.cell);
                }
                _ => {}
            }
        }
        dead
    }

    /// Counts per kind.
    pub fn census(&self) -> FaultCensus {
        let mut c = FaultCensus::default();
        for e in &self.events {
            match e.kind {
                FaultKind::Crash => c.crashes += 1,
                FaultKind::Recover => c.recoveries += 1,
                FaultKind::HardCrash => c.hard_crashes += 1,
                FaultKind::Kill => c.kills += 1,
                FaultKind::Corrupt(_) => c.corruptions += 1,
                FaultKind::OverloadCrash => c.overload_crashes += 1,
            }
        }
        c
    }
}

/// Event counts per [`FaultKind`], as reported by [`FaultPlan::census`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCensus {
    /// [`FaultKind::Crash`] events.
    pub crashes: usize,
    /// [`FaultKind::Recover`] events.
    pub recoveries: usize,
    /// [`FaultKind::HardCrash`] events.
    pub hard_crashes: usize,
    /// [`FaultKind::Kill`] events.
    pub kills: usize,
    /// [`FaultKind::Corrupt`] events.
    pub corruptions: usize,
    /// [`FaultKind::OverloadCrash`] events — endogenous, capacity-induced
    /// deaths, counted apart from exogenous crashes so cascade campaigns can
    /// be compared against their backoff-mitigated runs.
    pub overload_crashes: usize,
}

/// Shape parameters for [`FaultPlan::random_campaign`]: how much adversity a
/// generated campaign contains. All faults land in `[0, active_rounds)`; the
/// tail of a run after that is the fault-free window in which the Theorem 10
/// stabilization clock must expire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Faults only fire before this round (recoveries included).
    pub active_rounds: u64,
    /// Number of burst crashes (a clump of cells failing together).
    pub bursts: u32,
    /// Cells per burst.
    pub burst_size: u32,
    /// Number of rectangular region blackouts.
    pub blackouts: u32,
    /// Number of flapping cells (repeated crash/recover).
    pub flappers: u32,
    /// Number of hard crashes (the cell leaves the run, with scripted
    /// re-spawn).
    pub hard_crashes: u32,
    /// Number of unrecoverable kills (the run is expected to end in a
    /// timeout error; keep 0 for differential campaigns).
    pub kills: u32,
    /// Number of transient state corruptions ([`FaultKind::Corrupt`]):
    /// seeded draws over the full [`Corruption`] vocabulary, landing on
    /// cells that are never hard-crash/kill victims (a dead node has no
    /// state to corrupt).
    pub corruptions: u32,
    /// Never fault the target (an adversarial target kill otherwise
    /// disconnects everything).
    pub protect_target: bool,
    /// Never fault source cells.
    pub protect_sources: bool,
}

impl Default for CampaignSpec {
    fn default() -> CampaignSpec {
        CampaignSpec {
            active_rounds: 100,
            bursts: 2,
            burst_size: 3,
            blackouts: 1,
            flappers: 1,
            hard_crashes: 1,
            kills: 0,
            corruptions: 0,
            protect_target: true,
            protect_sources: true,
        }
    }
}

impl FaultPlan {
    /// Generates a seeded random campaign over `config`'s grid following
    /// `spec`. Deterministic: the same `(config, spec, seed)` triple always
    /// yields the same plan.
    ///
    /// Hard-crash and kill victims are kept disjoint from each other and
    /// from every flag-fault generator, so a hard-crashed cell's scripted
    /// re-spawn is never confused with a foreign recovery.
    pub fn random_campaign(config: &SystemConfig, spec: &CampaignSpec, seed: u64) -> FaultPlan {
        let dims = config.dims();
        let mut rng = SmallRng::seed_from_u64(seed);
        let horizon = spec.active_rounds.max(2);
        let protected: BTreeSet<CellId> = {
            let mut p = BTreeSet::new();
            if spec.protect_target {
                p.insert(config.target());
            }
            if spec.protect_sources {
                p.extend(config.sources().iter().copied());
            }
            p
        };
        let pool: Vec<CellId> = dims.iter().filter(|c| !protected.contains(c)).collect();
        if pool.is_empty() {
            return FaultPlan::new();
        }
        let mut plan = FaultPlan::new();
        // Hard crashes and kills first, drawing exclusive victims.
        let mut exclusive: Vec<CellId> = pool.clone();
        let mut taken = BTreeSet::new();
        for _ in 0..spec.hard_crashes {
            if exclusive.is_empty() {
                break;
            }
            let cell = exclusive.swap_remove(rng.gen_range(0..exclusive.len()));
            taken.insert(cell);
            let down = rng.gen_range(0..horizon / 2);
            let up = rng.gen_range(down + 1..horizon);
            plan = plan.hard_crash_at(down, cell).recover_at(up, cell);
        }
        for _ in 0..spec.kills {
            if exclusive.is_empty() {
                break;
            }
            let cell = exclusive.swap_remove(rng.gen_range(0..exclusive.len()));
            taken.insert(cell);
            plan = plan.kill_at(rng.gen_range(0..horizon), cell);
        }
        // Flag faults over the remaining pool.
        let flaggable: Vec<CellId> = pool
            .iter()
            .copied()
            .filter(|c| !taken.contains(c))
            .collect();
        if flaggable.is_empty() {
            return plan;
        }
        for _ in 0..spec.bursts {
            let when = rng.gen_range(0..horizon / 2);
            let outage = rng.gen_range(1..(horizon - when).max(2));
            let mut victims = BTreeSet::new();
            for _ in 0..spec.burst_size {
                victims.insert(flaggable[rng.gen_range(0..flaggable.len())]);
            }
            plan = plan.burst(when, victims, outage);
        }
        for _ in 0..spec.blackouts {
            let a = flaggable[rng.gen_range(0..flaggable.len())];
            let span = rng.gen_range(0..2u16);
            let b = CellId::new(
                (a.i() + span).min(dims.nx() - 1),
                (a.j() + span).min(dims.ny() - 1),
            );
            let when = rng.gen_range(0..horizon / 2);
            let outage = rng.gen_range(1..(horizon - when).max(2));
            // Clip the rectangle to unprotected, non-exclusive cells.
            let (i0, i1) = (a.i().min(b.i()), a.i().max(b.i()));
            let (j0, j1) = (a.j().min(b.j()), a.j().max(b.j()));
            let region: Vec<CellId> = (i0..=i1)
                .flat_map(|i| (j0..=j1).map(move |j| CellId::new(i, j)))
                .filter(|c| !protected.contains(c) && !taken.contains(c))
                .collect();
            plan = plan.burst(when, region, outage);
        }
        for _ in 0..spec.flappers {
            let cell = flaggable[rng.gen_range(0..flaggable.len())];
            let flips = rng.gen_range(1..=3u32);
            let half = rng.gen_range(1..=(horizon / (2 * flips as u64 + 1)).max(1));
            let latest_start = horizon.saturating_sub(2 * flips as u64 * half).max(1);
            let start = rng.gen_range(0..latest_start);
            plan = plan.flapping(cell, start, half, flips);
        }
        for _ in 0..spec.corruptions {
            let cell = flaggable[rng.gen_range(0..flaggable.len())];
            let when = rng.gen_range(0..horizon);
            let corruption = match rng.gen_range(0..7usize) {
                0 => Corruption::Dist(if rng.gen_bool(0.3) {
                    Dist::Infinity
                } else {
                    Dist::Finite(rng.gen_range(0..config.dist_cap() as usize) as u32)
                }),
                1 => Corruption::Next(random_dir(&mut rng)),
                2 => Corruption::Token(random_dir(&mut rng)),
                3 => Corruption::Signal(random_dir(&mut rng)),
                4 => Corruption::NePrev {
                    mask: rng.gen_range(0..16usize) as u8,
                },
                5 => Corruption::Jostle {
                    salt: rng.gen::<u64>(),
                },
                _ => Corruption::Scramble {
                    salt: rng.gen::<u64>(),
                },
            };
            plan = plan.corrupt_at(when, cell, corruption);
        }
        plan
    }
}

/// One scripted **directed link cut**: every message `from → to` is
/// suppressed from the start of round `start` until (exclusively) round
/// `heal` — forever, when `heal` is `None`. Asymmetric by construction:
/// cutting `A → B` leaves `B → A` alive, the half-open link failure that
/// drives count-to-infinity in distance-vector routing.
///
/// The receiving side observes exactly the paper's footnote 1: a neighbor
/// it hears nothing from reads as `dist = ∞`, `signal = ⊥`. Cells on both
/// sides keep running — link faults never crash anyone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LinkFault {
    /// The silenced sender.
    pub from: CellId,
    /// The receiver that stops hearing it.
    pub to: CellId,
    /// First round (0-based, as seen by the engine) the cut is active.
    pub start: u64,
    /// First round the link works again; `None` = never heals.
    pub heal: Option<u64>,
}

impl LinkFault {
    /// `true` if the cut suppresses traffic during `round`.
    pub fn active(&self, round: u64) -> bool {
        round >= self.start && self.heal.is_none_or(|h| round < h)
    }
}

/// Seeded intermittent link weather: during `[start, heal)`, every directed
/// grid edge is independently cut in each round with probability
/// `rate_milli / 1000`, decided by a **stateless** per-`(edge, round)` hash.
/// Statelessness is the determinism anchor: re-expanding the plan over any
/// horizon reproduces the same cuts round for round, so a schedule's prefix
/// never depends on how far ahead it was expanded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlakySpec {
    /// Seed for the per-(edge, round) cut decisions.
    pub seed: u64,
    /// Cut probability in parts per thousand (`0..=1000`).
    pub rate_milli: u32,
    /// First round the weather is active.
    pub start: u64,
    /// First calm round; `None` = never calms.
    pub heal: Option<u64>,
}

impl FlakySpec {
    fn active(&self, round: u64) -> bool {
        round >= self.start && self.heal.is_none_or(|h| round < h)
    }

    /// The stateless cut decision for edge `from → to` in `round`.
    fn cuts(&self, round: u64, from: CellId, to: CellId) -> bool {
        let key = edge_seed(self.seed, from, to) ^ round.wrapping_mul(SPLITMIX64_GAMMA);
        splitmix64(key) % 1000 < self.rate_milli as u64
    }
}

/// A deterministic schedule of link cuts and partition episodes over one
/// grid — the correlated-failure counterpart of [`FaultPlan`]'s per-cell
/// faults. Consumed identically by the lockstep simulator (edge masks on
/// the engine's neighbor reads) and the message-passing runtime (a
/// [`LinkFaultTransport`] suppressing announcements), so partition
/// campaigns can be compared differentially.
///
/// Built with chainable constructors and expanded ([`PartitionPlan::expand`])
/// into a per-round, per-cell incoming-cut mask ([`PartitionSchedule`]) that
/// both runtimes index the same way.
///
/// ```
/// use cellflow_core::fault::PartitionPlan;
/// use cellflow_grid::{CellId, GridDims};
///
/// let dims = GridDims::square(4);
/// let plan = PartitionPlan::for_grid(dims)
///     .split_col(2, 10, Some(40))            // split-brain along a grid line
///     .cut(CellId::new(0, 0), CellId::new(0, 1), 5, None); // asymmetric cut
/// let schedule = plan.expand(60);
/// assert!(schedule.is_cut(12, CellId::new(1, 0), CellId::new(2, 0)));
/// assert!(!schedule.is_cut(40, CellId::new(1, 0), CellId::new(2, 0)));
/// assert!(schedule.is_cut(59, CellId::new(0, 0), CellId::new(0, 1)));
/// ```
///
/// [`LinkFaultTransport`]: ../../cellflow_net/struct.LinkFaultTransport.html
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionPlan {
    dims: GridDims,
    faults: Vec<LinkFault>,
    flaky: Vec<FlakySpec>,
}

impl PartitionPlan {
    /// An empty plan over `dims` (no cuts ever).
    pub fn for_grid(dims: GridDims) -> PartitionPlan {
        PartitionPlan {
            dims,
            faults: Vec::new(),
            flaky: Vec::new(),
        }
    }

    /// Adds one directed cut `from → to` active over `[start, heal)`.
    ///
    /// # Panics
    ///
    /// Panics if the cells are not grid neighbors, lie out of bounds, or
    /// `heal ≤ start` (an empty cut is always a scripting mistake).
    pub fn cut(mut self, from: CellId, to: CellId, start: u64, heal: Option<u64>) -> PartitionPlan {
        assert!(
            self.dims.contains(from) && self.dims.contains(to),
            "link {from}->{to} out of {} bounds",
            self.dims
        );
        assert!(from.is_neighbor(to), "{from} and {to} are not neighbors");
        assert!(
            heal.is_none_or(|h| h > start),
            "heal round {heal:?} must follow start round {start}"
        );
        self.faults.push(LinkFault {
            from,
            to,
            start,
            heal,
        });
        self
    }

    /// Adds both directions of the edge `{a, b}` as cuts over `[start, heal)`.
    pub fn cut_both(self, a: CellId, b: CellId, start: u64, heal: Option<u64>) -> PartitionPlan {
        self.cut(a, b, start, heal).cut(b, a, start, heal)
    }

    /// Splits the grid along the vertical line before column `col`: every
    /// edge between columns `col − 1` and `col` is cut in both directions
    /// over `[start, heal)` — the canonical split-brain episode.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ col < nx` (the line must have cells on both sides).
    pub fn split_col(mut self, col: u16, start: u64, heal: Option<u64>) -> PartitionPlan {
        assert!(
            col >= 1 && col < self.dims.nx(),
            "column {col} does not split a {} grid",
            self.dims
        );
        for j in 0..self.dims.ny() {
            self = self.cut_both(CellId::new(col - 1, j), CellId::new(col, j), start, heal);
        }
        self
    }

    /// Splits the grid along the horizontal line before row `row` — the
    /// [`PartitionPlan::split_col`] of the other axis.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ row < ny`.
    pub fn split_row(mut self, row: u16, start: u64, heal: Option<u64>) -> PartitionPlan {
        assert!(
            row >= 1 && row < self.dims.ny(),
            "row {row} does not split a {} grid",
            self.dims
        );
        for i in 0..self.dims.nx() {
            self = self.cut_both(CellId::new(i, row - 1), CellId::new(i, row), start, heal);
        }
        self
    }

    /// Isolates the axis-aligned rectangle spanned by `a` and `b`
    /// (inclusive): every edge crossing the rectangle's boundary is cut in
    /// both directions over `[start, heal)`, leaving an island that keeps
    /// running on its own.
    pub fn island(mut self, a: CellId, b: CellId, start: u64, heal: Option<u64>) -> PartitionPlan {
        let (i0, i1) = (a.i().min(b.i()), a.i().max(b.i()));
        let (j0, j1) = (a.j().min(b.j()), a.j().max(b.j()));
        let inside = |c: CellId| c.i() >= i0 && c.i() <= i1 && c.j() >= j0 && c.j() <= j1;
        for i in i0..=i1 {
            for j in j0..=j1 {
                let cell = CellId::new(i, j);
                for dir in Dir::ALL {
                    if let Some(nbr) = self.dims.neighbor(cell, dir) {
                        if !inside(nbr) {
                            self = self.cut_both(cell, nbr, start, heal);
                        }
                    }
                }
            }
        }
        self
    }

    /// Adds seeded intermittent cuts over every directed edge: each edge is
    /// independently down with probability `rate_milli / 1000` per round
    /// during `[start, heal)`. See [`FlakySpec`] for the determinism
    /// contract.
    ///
    /// # Panics
    ///
    /// Panics if `rate_milli > 1000`.
    pub fn flaky_links(
        mut self,
        seed: u64,
        rate_milli: u32,
        start: u64,
        heal: Option<u64>,
    ) -> PartitionPlan {
        assert!(rate_milli <= 1000, "rate is in parts per thousand");
        self.flaky.push(FlakySpec {
            seed,
            rate_milli,
            start,
            heal,
        });
        self
    }

    /// The grid this plan is scripted over.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// The scripted directed cuts, in insertion order.
    pub fn faults(&self) -> &[LinkFault] {
        &self.faults
    }

    /// The flaky-weather episodes, in insertion order.
    pub fn flaky(&self) -> &[FlakySpec] {
        &self.flaky
    }

    /// `true` if the plan scripts no cuts at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.flaky.is_empty()
    }

    /// The first round from which every cut has healed — the moment "link
    /// failures cease" that starts the stabilization clock. `None` if any
    /// cut or flaky episode never heals.
    pub fn heal_round(&self) -> Option<u64> {
        let mut heal = 0u64;
        for f in &self.faults {
            heal = heal.max(f.heal?);
        }
        for f in &self.flaky {
            heal = heal.max(f.heal?);
        }
        Some(heal)
    }

    /// Is the directed edge `from → to` cut during `round`? The scripted
    /// answer, independent of any expansion horizon.
    pub fn is_cut(&self, round: u64, from: CellId, to: CellId) -> bool {
        self.faults
            .iter()
            .any(|f| f.from == from && f.to == to && f.active(round))
            || self
                .flaky
                .iter()
                .any(|f| f.active(round) && f.cuts(round, from, to))
    }

    /// Expands the plan over rounds `0..rounds` into the flat per-round mask
    /// form both runtimes consume. Deterministic, and **prefix-stable**:
    /// `expand(n)` agrees with `expand(m)` on the first `min(n, m)` rounds.
    pub fn expand(&self, rounds: u64) -> PartitionSchedule {
        let n = self.dims.cell_count();
        let mut masks = vec![0u8; rounds as usize * n];
        let mut active = vec![false; rounds as usize];
        for round in 0..rounds {
            let row = &mut masks[round as usize * n..(round as usize + 1) * n];
            for f in self.faults.iter().filter(|f| f.active(round)) {
                apply_cut(self.dims, row, f.from, f.to);
            }
            for f in self.flaky.iter().filter(|f| f.active(round)) {
                for (k, mask) in row.iter_mut().enumerate() {
                    let to = self.dims.id_at(k);
                    for dir in Dir::ALL {
                        if let Some(from) = self.dims.neighbor(to, dir) {
                            if f.cuts(round, from, to) {
                                *mask |= 1 << dir_slot(dir);
                            }
                        }
                    }
                }
            }
            active[round as usize] = row.iter().any(|&m| m != 0);
        }
        PartitionSchedule {
            dims: self.dims,
            rounds,
            masks,
            active,
            zeros: vec![0u8; n],
        }
    }
}

/// The slot of `dir` in [`Dir::ALL`] — the bit the engine's neighbor masks
/// use for that direction.
fn dir_slot(dir: Dir) -> usize {
    Dir::ALL
        .iter()
        .position(|&d| d == dir)
        .expect("Dir::ALL covers every direction")
}

/// Sets the incoming-cut bit on `to`'s mask for the neighbor `from`.
fn apply_cut(dims: GridDims, row: &mut [u8], from: CellId, to: CellId) {
    let dir = to
        .dir_to(from)
        .expect("cuts are validated as neighbor edges");
    row[dims.index(to)] |= 1 << dir_slot(dir);
}

/// A [`PartitionPlan`] expanded over a fixed horizon: for each round, one
/// **incoming-cut bitmask per cell** (bit `s` set ⇔ traffic from the
/// neighbor in `Dir::ALL[s]` is suppressed this round). This is the single
/// runtime-portable artifact: the engine masks its neighbor reads with it,
/// and the net transport suppresses exactly the announcements it marks, so
/// both runtimes see the identical degraded topology.
///
/// Rounds at or past the horizon read as fully healed (all-zero masks).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSchedule {
    dims: GridDims,
    rounds: u64,
    /// Round-major: `masks[round * cell_count + k]` is cell `k`'s mask.
    masks: Vec<u8>,
    /// Per round: does any cut exist at all?
    active: Vec<bool>,
    /// The all-healed row returned beyond the horizon.
    zeros: Vec<u8>,
}

impl PartitionSchedule {
    /// The grid the schedule covers.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// The expansion horizon (rounds `0..rounds` carry real masks).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The per-cell incoming-cut masks for `round` (all zeros at or past
    /// the horizon).
    pub fn mask_row(&self, round: u64) -> &[u8] {
        let n = self.zeros.len();
        if round < self.rounds {
            &self.masks[round as usize * n..(round as usize + 1) * n]
        } else {
            &self.zeros
        }
    }

    /// `true` if any link is cut during `round`.
    pub fn active(&self, round: u64) -> bool {
        round < self.rounds && self.active[round as usize]
    }

    /// Is the directed edge `from → to` cut during `round`?
    ///
    /// # Panics
    ///
    /// Panics if the cells are not neighbors or lie out of bounds.
    pub fn is_cut(&self, round: u64, from: CellId, to: CellId) -> bool {
        let dir = to.dir_to(from).expect("is_cut takes a neighbor edge");
        self.mask_row(round)[self.dims.index(to)] & (1 << dir_slot(dir)) != 0
    }

    /// Total directed cut-rounds over the horizon (one cut edge for one
    /// round counts once) — the partition-severity scalar reports quote.
    pub fn cut_edge_rounds(&self) -> u64 {
        self.masks.iter().map(|m| m.count_ones() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Params;
    use cellflow_grid::GridDims;

    fn config() -> SystemConfig {
        SystemConfig::new(
            GridDims::square(6),
            CellId::new(1, 5),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(1, 0))
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::new()
            .burst(10, [CellId::new(2, 2), CellId::new(3, 3)], 5)
            .blackout(20, CellId::new(0, 0), CellId::new(1, 1), 3)
            .flapping(CellId::new(4, 4), 30, 2, 2)
            .kill_at(50, CellId::new(5, 5))
            .corrupt_at(55, CellId::new(2, 1), Corruption::Dist(Dist::Finite(0)));
        let census = plan.census();
        assert_eq!(census.crashes, 2 + 4 + 2);
        assert_eq!(census.recoveries, 2 + 4 + 2);
        assert_eq!(census.hard_crashes, 0);
        assert_eq!(census.kills, 1);
        assert_eq!(census.corruptions, 1);
        assert!(plan.has_kills());
        assert_eq!(plan.last_event_round(), Some(55));
    }

    #[test]
    fn events_at_preserves_insertion_order() {
        let plan = FaultPlan::new()
            .crash_at(3, CellId::new(1, 1))
            .recover_at(3, CellId::new(2, 2))
            .crash_at(3, CellId::new(0, 0));
        let at3: Vec<CellId> = plan.events_at(3).map(|e| e.cell).collect();
        assert_eq!(
            at3,
            vec![CellId::new(1, 1), CellId::new(2, 2), CellId::new(0, 0)]
        );
        assert_eq!(plan.events_at_for(3, CellId::new(0, 0)).count(), 1);
        assert_eq!(plan.events_at(4).count(), 0);
    }

    #[test]
    fn respawn_finds_next_recovery() {
        let c = CellId::new(2, 3);
        let plan = FaultPlan::new()
            .hard_crash_at(5, c)
            .recover_at(12, c)
            .hard_crash_at(20, c)
            .recover_at(33, c);
        assert_eq!(plan.respawn_round_after(c, 5), Some(12));
        assert_eq!(plan.respawn_round_after(c, 20), Some(33));
        assert_eq!(plan.respawn_round_after(c, 33), None);
        assert!(plan.hard_dead_at(7).contains(&c));
        assert!(!plan.hard_dead_at(12).contains(&c));
        assert!(plan.hard_dead_at(40).is_empty());
    }

    #[test]
    fn campaign_is_seed_deterministic() {
        let cfg = config();
        let spec = CampaignSpec::default();
        let a = FaultPlan::random_campaign(&cfg, &spec, 42);
        let b = FaultPlan::random_campaign(&cfg, &spec, 42);
        assert_eq!(a, b);
        let c = FaultPlan::random_campaign(&cfg, &spec, 43);
        assert_ne!(a, c, "different seeds should differ");
        assert!(!a.is_empty());
    }

    #[test]
    fn campaign_respects_protections_and_window() {
        let cfg = config();
        let spec = CampaignSpec {
            active_rounds: 60,
            kills: 1,
            ..CampaignSpec::default()
        };
        for seed in 0..20 {
            let plan = FaultPlan::random_campaign(&cfg, &spec, seed);
            for e in plan.events() {
                assert_ne!(e.cell, cfg.target(), "seed {seed}: target faulted");
                assert!(
                    !cfg.sources().contains(&e.cell),
                    "seed {seed}: source faulted"
                );
                assert!(e.round < 60, "seed {seed}: event outside active window");
            }
        }
    }

    #[test]
    fn corruption_registers_resolve_to_neighbors_or_bottom() {
        let cfg = config();
        let corner = CellId::new(0, 0);
        let mut cell = CellState::initial();
        // West of the corner is off-grid: the register resolves to ⊥.
        Corruption::Next(Some(Dir::West)).apply(&cfg, corner, &mut cell);
        assert_eq!(cell.next, None);
        Corruption::Next(Some(Dir::East)).apply(&cfg, corner, &mut cell);
        assert_eq!(cell.next, Some(CellId::new(1, 0)));
        // A mask selecting all four directions keeps only the on-grid two.
        Corruption::NePrev { mask: 0b1111 }.apply(&cfg, corner, &mut cell);
        assert_eq!(cell.ne_prev.len(), 2);
        assert!(cell.ne_prev.iter().all(|&n| corner.is_neighbor(n)));
    }

    #[test]
    fn corruption_respects_failed_and_target_pinning() {
        let cfg = config();
        let mut failed = CellState::initial();
        failed.failed = true;
        Corruption::Scramble { salt: 7 }.apply(&cfg, CellId::new(2, 2), &mut failed);
        assert_eq!(failed.dist, Dist::Infinity);
        assert_eq!(failed.next, None);
        assert_eq!(failed.signal, None);
        let mut target = CellState::initial_target();
        Corruption::Dist(Dist::Infinity).apply(&cfg, cfg.target(), &mut target);
        assert_eq!(target.dist, Dist::Finite(0), "live target anchor is pinned");
    }

    #[test]
    fn jostle_preserves_physical_well_formedness() {
        use crate::EntityId;
        use cellflow_geom::{sep_ok, Point};

        let cfg = config();
        let id = CellId::new(2, 2);
        let params = cfg.params();
        let mut cell = CellState::initial();
        // Two entities legally placed inside the cell.
        let c = id.center();
        cell.members
            .insert(EntityId(1), Point::new(c.x - params.d(), c.y));
        cell.members
            .insert(EntityId(2), Point::new(c.x + params.d(), c.y));
        for salt in 0..50u64 {
            let mut jostled = cell.clone();
            Corruption::Jostle { salt }.apply(&cfg, id, &mut jostled);
            assert_eq!(jostled.members.len(), 2);
            let pts: Vec<Point> = jostled.members.values().copied().collect();
            assert!(
                sep_ok(pts[0], pts[1], params.d()),
                "salt {salt}: separation violated"
            );
        }
        // Determinism: the same salt jostles identically.
        let (mut a, mut b) = (cell.clone(), cell.clone());
        Corruption::Jostle { salt: 9 }.apply(&cfg, id, &mut a);
        Corruption::Jostle { salt: 9 }.apply(&cfg, id, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn scramble_sweep_salts_cells_distinctly() {
        let cells = [CellId::new(2, 2), CellId::new(3, 3)];
        let plan = FaultPlan::new().scramble_sweep(4, cells, 99);
        assert_eq!(plan.len(), 2);
        let salts: BTreeSet<u64> = plan
            .events()
            .iter()
            .map(|e| match e.kind {
                FaultKind::Corrupt(Corruption::Scramble { salt }) => salt,
                other => panic!("unexpected kind {other:?}"),
            })
            .collect();
        assert_eq!(salts.len(), 2, "per-cell salts must differ");
        assert_eq!(
            plan,
            FaultPlan::new().scramble_sweep(4, cells, 99),
            "sweep is deterministic"
        );
    }

    #[test]
    fn campaign_corruptions_avoid_hard_victims() {
        let cfg = config();
        let spec = CampaignSpec {
            hard_crashes: 2,
            corruptions: 5,
            ..CampaignSpec::default()
        };
        for seed in 0..20 {
            let plan = FaultPlan::random_campaign(&cfg, &spec, seed);
            assert_eq!(plan.census().corruptions, 5, "seed {seed}");
            let hard: BTreeSet<CellId> = plan
                .events()
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::HardCrash | FaultKind::Kill))
                .map(|e| e.cell)
                .collect();
            for e in plan.events() {
                if matches!(e.kind, FaultKind::Corrupt(_)) {
                    assert!(
                        !hard.contains(&e.cell),
                        "seed {seed}: corrupted a dead cell"
                    );
                }
            }
        }
    }

    #[test]
    fn directed_cuts_are_asymmetric_and_interval_scoped() {
        let dims = GridDims::square(4);
        let (a, b) = (CellId::new(1, 1), CellId::new(2, 1));
        let plan = PartitionPlan::for_grid(dims).cut(a, b, 10, Some(20));
        let sched = plan.expand(30);
        for round in 0..30 {
            let expect = (10..20).contains(&round);
            assert_eq!(sched.is_cut(round, a, b), expect, "round {round}");
            assert!(!sched.is_cut(round, b, a), "reverse stays alive");
            assert_eq!(plan.is_cut(round, a, b), expect, "plan view agrees");
        }
        assert!(!sched.is_cut(100, a, b), "past the horizon reads healed");
        assert_eq!(sched.cut_edge_rounds(), 10);
        assert_eq!(plan.heal_round(), Some(20));
    }

    #[test]
    fn split_col_disconnects_the_grid_both_ways() {
        let dims = GridDims::square(4);
        let sched = PartitionPlan::for_grid(dims)
            .split_col(2, 5, Some(15))
            .expand(20);
        for j in 0..4 {
            let west = CellId::new(1, j);
            let east = CellId::new(2, j);
            assert!(sched.is_cut(7, west, east), "row {j} west->east");
            assert!(sched.is_cut(7, east, west), "row {j} east->west");
        }
        // Inside each half everything still flows.
        assert!(!sched.is_cut(7, CellId::new(0, 0), CellId::new(1, 0)));
        assert!(!sched.is_cut(7, CellId::new(2, 0), CellId::new(3, 0)));
        assert!(sched.active(7));
        assert!(!sched.active(15), "healed from the heal round on");
    }

    #[test]
    fn island_cuts_exactly_the_boundary() {
        let dims = GridDims::square(4);
        let sched = PartitionPlan::for_grid(dims)
            .island(CellId::new(1, 1), CellId::new(2, 2), 0, None)
            .expand(5);
        // Boundary edge: cut in both directions.
        assert!(sched.is_cut(0, CellId::new(0, 1), CellId::new(1, 1)));
        assert!(sched.is_cut(0, CellId::new(1, 1), CellId::new(0, 1)));
        // Interior edge of the island: alive.
        assert!(!sched.is_cut(0, CellId::new(1, 1), CellId::new(2, 1)));
        // Edge fully outside the island: alive.
        assert!(!sched.is_cut(0, CellId::new(0, 0), CellId::new(0, 1)));
        assert_eq!(
            PartitionPlan::for_grid(dims)
                .island(CellId::new(1, 1), CellId::new(2, 2), 0, None)
                .heal_round(),
            None
        );
    }

    #[test]
    fn flaky_expansion_is_prefix_stable_and_seed_deterministic() {
        let dims = GridDims::square(4);
        let plan = |seed| PartitionPlan::for_grid(dims).flaky_links(seed, 300, 0, Some(40));
        let a = plan(7).expand(40);
        let b = plan(7).expand(40);
        assert_eq!(a, b, "same seed, same schedule");
        // Prefix stability: a longer expansion agrees round for round.
        let long = plan(7).expand(80);
        for round in 0..40 {
            assert_eq!(a.mask_row(round), long.mask_row(round), "round {round}");
        }
        // A different seed cuts differently somewhere.
        assert_ne!(a, plan(8).expand(40));
        // The rate is roughly honored (300‰ over 48 directed edges × 40
        // rounds ≈ 576 expected cut-rounds; allow a wide band).
        let cuts = a.cut_edge_rounds();
        assert!((300..900).contains(&cuts), "cut-rounds {cuts} implausible");
    }

    #[test]
    fn flaky_rate_extremes() {
        let dims = GridDims::square(3);
        let calm = PartitionPlan::for_grid(dims)
            .flaky_links(1, 0, 0, None)
            .expand(10);
        assert_eq!(calm.cut_edge_rounds(), 0);
        let storm = PartitionPlan::for_grid(dims)
            .flaky_links(1, 1000, 0, None)
            .expand(10);
        // 3×3 grid: 24 directed edges, all cut every round.
        assert_eq!(storm.cut_edge_rounds(), 24 * 10);
    }

    #[test]
    fn plan_view_matches_expanded_view_under_mixed_episodes() {
        let dims = GridDims::square(4);
        let plan = PartitionPlan::for_grid(dims)
            .split_row(1, 3, Some(12))
            .cut(CellId::new(3, 3), CellId::new(3, 2), 0, Some(30))
            .flaky_links(99, 250, 8, Some(25));
        let sched = plan.expand(35);
        for round in 0..35 {
            for k in 0..dims.cell_count() {
                let to = dims.id_at(k);
                for dir in Dir::ALL {
                    if let Some(from) = dims.neighbor(to, dir) {
                        assert_eq!(
                            sched.is_cut(round, from, to),
                            plan.is_cut(round, from, to),
                            "round {round} edge {from}->{to}"
                        );
                    }
                }
            }
        }
        assert_eq!(plan.heal_round(), Some(30));
        assert!(!plan.is_empty());
        assert_eq!(plan.faults().len(), 1 + 8);
        assert_eq!(plan.flaky().len(), 1);
    }

    #[test]
    #[should_panic(expected = "not neighbors")]
    fn non_neighbor_cut_panics() {
        let _ = PartitionPlan::for_grid(GridDims::square(4)).cut(
            CellId::new(0, 0),
            CellId::new(2, 0),
            0,
            None,
        );
    }

    #[test]
    #[should_panic(expected = "does not split")]
    fn split_outside_grid_panics() {
        let _ = PartitionPlan::for_grid(GridDims::square(4)).split_col(4, 0, None);
    }

    #[test]
    fn killed_at_tracks_only_kills() {
        let plan = FaultPlan::new()
            .hard_crash_at(5, CellId::new(1, 1))
            .kill_at(10, CellId::new(2, 2));
        assert!(plan.killed_at(7).is_empty(), "hard crashes are not kills");
        assert_eq!(
            plan.killed_at(10).into_iter().collect::<Vec<_>>(),
            vec![CellId::new(2, 2)]
        );
        assert!(plan.hard_dead_at(10).contains(&CellId::new(1, 1)));
    }

    #[test]
    fn campaign_keeps_hard_victims_exclusive() {
        let cfg = config();
        let spec = CampaignSpec {
            hard_crashes: 3,
            kills: 2,
            ..CampaignSpec::default()
        };
        for seed in 0..20 {
            let plan = FaultPlan::random_campaign(&cfg, &spec, seed);
            let hard: Vec<CellId> = plan
                .events()
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::HardCrash | FaultKind::Kill))
                .map(|e| e.cell)
                .collect();
            let unique: BTreeSet<CellId> = hard.iter().copied().collect();
            assert_eq!(hard.len(), unique.len(), "seed {seed}: duplicate victim");
            // No flag fault ever touches a hard victim.
            for e in plan.events() {
                if e.kind == FaultKind::Crash {
                    assert!(!unique.contains(&e.cell), "seed {seed}: overlap");
                }
            }
            // Every hard crash has a scripted respawn; kills never do.
            for e in plan.events() {
                match e.kind {
                    FaultKind::HardCrash => {
                        assert!(plan.respawn_round_after(e.cell, e.round).is_some())
                    }
                    FaultKind::Kill => {
                        assert!(plan.respawn_round_after(e.cell, e.round).is_none())
                    }
                    _ => {}
                }
            }
        }
    }
}
