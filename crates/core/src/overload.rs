//! Endogenous overload faults: finite-capacity cells, cascading failures,
//! and randomized backoff degradation.
//!
//! Every fault in [`fault`](crate::fault) is *exogenous* — an adversary
//! scripts it. This module adds the failure family that load itself causes
//! (Como et al., *Robust Distributed Routing in Dynamical Networks with
//! Cascading Failures*): when a cell's occupancy sits at or above a
//! threshold for `sustain_rounds` consecutive rounds, the cell
//! *overload-crashes* ([`FaultKind::OverloadCrash`]). Its registers freeze,
//! routing sheds its inflow onto neighboring cells, and those neighbors —
//! now carrying the dead cell's load on top of their own — may overload in
//! turn: a cascade, tracked with per-cell *cascade depth* (1 + the deepest
//! previously-overloaded neighbor).
//!
//! The mitigation is the randomized, memory-light backoff of Feldmann,
//! Götte & Scheideler (*A Loosely Self-stabilizing Protocol for Randomized
//! Congestion Control with Logarithmic Memory*): instead of dying, an
//! overloaded cell pauses admission for a randomized window — seeded
//! splitmix64 jitter on top of a window that doubles per activation
//! (logarithmic state: only the activation count is stored) — and resumes.
//! In protocol terms the pause *is* a [`fail`](crate::System::fail) /
//! [`recover`](crate::System::recover) pair: a failed cell's `signal` reads
//! `⊥`, which is precisely "grant no admission", and `Route` steers inflow
//! around it. No new protocol semantics are introduced, so every safety and
//! equivalence argument about the round transition is untouched.
//!
//! Because detection is a deterministic function of the (deterministic)
//! execution, an entire overload campaign can be *precomputed*:
//! [`expand_overload`] replays a scenario on the shared-variable reference,
//! records every endogenous event, and returns an ordinary [`FaultPlan`]
//! that scripted-fault machinery — the sim, the message-passing runtime,
//! the supervisor's restart policies — consumes exactly like a hand-written
//! plan. The online ([`OverloadDetector`]) and expanded views are proven
//! equivalent by the sim crate's differential tests.

use cellflow_geom::Dir;
use cellflow_grid::CellId;

use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::{StateView, System, SystemConfig, SystemState};

/// When does overload trip? A cell (other than the target, which is an
/// infinite sink) trips once its occupancy has been `≥ threshold` for
/// `sustain_rounds` consecutive rounds — the sustain filter keeps one-round
/// spikes from killing cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverloadTrigger {
    /// Occupancy at or above this trips the sustain counter. Typically the
    /// cell's [`capacity`](SystemConfig::capacity).
    pub threshold: u32,
    /// Consecutive rounds at/above `threshold` before the cell trips.
    pub sustain_rounds: u32,
}

impl OverloadTrigger {
    /// A trigger at `threshold`, sustained for `sustain_rounds`.
    ///
    /// # Panics
    ///
    /// Panics if either field is zero.
    pub fn new(threshold: u32, sustain_rounds: u32) -> OverloadTrigger {
        assert!(threshold > 0, "threshold must be positive");
        assert!(sustain_rounds > 0, "sustain_rounds must be positive");
        OverloadTrigger {
            threshold,
            sustain_rounds,
        }
    }

    /// The default trigger for `config`: threshold at the configured
    /// capacity, sustained for 2 rounds.
    ///
    /// # Panics
    ///
    /// Panics if `config` has no capacity.
    pub fn for_config(config: &SystemConfig) -> OverloadTrigger {
        let cap = config
            .capacity()
            .expect("overload triggers require a finite capacity");
        OverloadTrigger::new(cap, 2)
    }
}

/// Feldmann-style randomized backoff: an overloaded cell pauses for
/// `min(base · 2^(activations−1), max) + jitter` rounds instead of dying,
/// where `jitter ∈ [0, base)` is drawn by seeded splitmix64. Per cell, only
/// the activation count is kept — logarithmic in the largest window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First pause window, in rounds; also the jitter range.
    pub base: u64,
    /// Cap on the doubling window.
    pub max: u64,
    /// Seed for the per-(cell, activation) jitter draw.
    pub seed: u64,
}

impl BackoffPolicy {
    /// The pause length for `cell`'s `activation`-th trip (1-based).
    pub fn pause_rounds(&self, cell: CellId, activation: u32) -> u64 {
        let doublings = activation.saturating_sub(1).min(62);
        let window = (self.base << doublings).min(self.max);
        let jitter = if self.base == 0 {
            0
        } else {
            splitmix64(
                self.seed ^ ((cell.i() as u64) << 40 | (cell.j() as u64) << 20 | activation as u64),
            ) % self.base
        };
        window.max(1) + jitter
    }
}

// splitmix64: the same deterministic mixer the supervisor's jitter and the
// parallel random walks use — the shared copy in [`crate::hash`].
use crate::hash::splitmix64;

/// What a tripped cell does, as decided by the [`OverloadDetector`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadAction {
    /// No mitigation: the cell overload-crashes (permanently, unless a
    /// restart is scripted). `shed` is the occupancy stranded on the cell at
    /// crash time — the load its neighbors must now absorb.
    Crash {
        /// Cascade depth: 1 + the deepest previously-tripped neighbor.
        depth: u32,
        /// Entities stranded on the cell when it died.
        shed: u64,
    },
    /// Backoff mitigation: the cell pauses admission (fails) and resumes
    /// (recovers) at `resume_round`.
    Backoff {
        /// First round at which the cell runs again.
        resume_round: u64,
        /// The cell's activation count after this trip (the logarithmic
        /// backoff state).
        activation: u32,
        /// Cascade depth of this activation.
        depth: u32,
    },
}

/// Aggregate counters of one overload campaign — the numbers the telemetry
/// registries export and `cellflow chaos --cascade` reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CascadeStats {
    /// Cells that overload-crashed (no mitigation).
    pub overload_crashes: u64,
    /// Total entities stranded on cells at overload-crash time.
    pub sheds: u64,
    /// Backoff pauses taken (mitigation on).
    pub backoff_activations: u64,
    /// Deepest cascade chain observed (0 when nothing tripped).
    pub max_cascade_depth: u32,
}

/// Online overload detection over a running [`System`]'s state.
///
/// Poll it once per round *before* the round executes (where failure models
/// apply their faults); it returns the cells that trip this round and what
/// each does. Fully deterministic: same configuration, trigger, policy and
/// execution ⇒ same decisions, which is what lets [`expand_overload`]
/// precompute a whole campaign as a scripted plan.
#[derive(Clone, Debug)]
pub struct OverloadDetector {
    trigger: OverloadTrigger,
    backoff: Option<BackoffPolicy>,
    /// Cells exempt from overload: the target (an infinite sink) and the
    /// sources (exogenous demand — crashing the load generator ends the
    /// experiment instead of cascading it).
    protected: Vec<bool>,
    /// Consecutive rounds at/above threshold, per cell.
    sustain: Vec<u32>,
    /// Backoff activation count per cell (the Feldmann logarithmic state).
    activations: Vec<u32>,
    /// Cascade depth per cell (0 = never tripped).
    depth: Vec<u32>,
    stats: CascadeStats,
}

impl OverloadDetector {
    /// A detector for `config` with the given trigger, optionally mitigated
    /// by randomized backoff.
    pub fn new(
        config: &SystemConfig,
        trigger: OverloadTrigger,
        backoff: Option<BackoffPolicy>,
    ) -> OverloadDetector {
        let n = config.dims().cell_count();
        let mut protected = vec![false; n];
        protected[config.dims().index(config.target())] = true;
        for &source in config.sources() {
            protected[config.dims().index(source)] = true;
        }
        OverloadDetector {
            trigger,
            backoff,
            protected,
            sustain: vec![0; n],
            activations: vec![0; n],
            depth: vec![0; n],
            stats: CascadeStats::default(),
        }
    }

    /// Campaign counters accumulated so far.
    pub fn stats(&self) -> CascadeStats {
        self.stats
    }

    /// Cascade depth of `cell` (0 if it never tripped).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds for the detector's grid.
    pub fn cascade_depth(&self, config: &SystemConfig, cell: CellId) -> u32 {
        self.depth[config.dims().index(cell)]
    }

    /// Examines `state` at the start of `round` and returns the cells that
    /// trip, in ascending `CellId` order. The caller is responsible for
    /// enacting the actions ([`System::fail`] now; for
    /// [`OverloadAction::Backoff`], a recovery at `resume_round`).
    pub fn poll<'a>(
        &mut self,
        config: &SystemConfig,
        state: impl Into<StateView<'a>>,
        round: u64,
    ) -> Vec<(CellId, OverloadAction)> {
        let state = state.into();
        let dims = config.dims();
        let mut tripped = Vec::new();
        for k in 0..state.cell_count() {
            if self.protected[k] {
                continue; // targets sink, sources generate; neither trips
            }
            if state.failed(k) {
                // Dead or pausing cells are inert; the counter restarts
                // from zero when (if) they come back.
                self.sustain[k] = 0;
                continue;
            }
            let occupancy = state.occupancy(k);
            if occupancy >= self.trigger.threshold as usize {
                self.sustain[k] += 1;
            } else {
                self.sustain[k] = 0;
                continue;
            }
            if self.sustain[k] < self.trigger.sustain_rounds {
                continue;
            }
            self.sustain[k] = 0;
            let id = dims.id_at(k);
            let nbr_depth = Dir::ALL
                .iter()
                .filter_map(|&d| dims.neighbor(id, d))
                .map(|n| self.depth[dims.index(n)])
                .max()
                .unwrap_or(0);
            let depth = nbr_depth + 1;
            self.depth[k] = self.depth[k].max(depth);
            self.stats.max_cascade_depth = self.stats.max_cascade_depth.max(depth);
            let action = match self.backoff {
                None => {
                    let shed = occupancy as u64;
                    self.stats.overload_crashes += 1;
                    self.stats.sheds += shed;
                    OverloadAction::Crash { depth, shed }
                }
                Some(policy) => {
                    self.activations[k] += 1;
                    let activation = self.activations[k];
                    self.stats.backoff_activations += 1;
                    OverloadAction::Backoff {
                        resume_round: round + policy.pause_rounds(id, activation),
                        activation,
                        depth,
                    }
                }
            };
            tripped.push((id, action));
        }
        tripped
    }
}

/// One overload trip in an expanded campaign: `(round, cell, depth)`.
pub type CascadeTrip = (u64, CellId, u32);

/// A precomputed overload campaign: the scripted plan that reproduces it on
/// any runtime, plus what happened.
#[derive(Clone, Debug)]
pub struct CascadeOutcome {
    /// `base` plus every endogenous event the campaign generated:
    /// [`FaultKind::OverloadCrash`] trips (with scripted restarts when
    /// `restart_after` was given), or `Crash`/`Recover` backoff pauses.
    pub plan: FaultPlan,
    /// Campaign counters.
    pub stats: CascadeStats,
    /// Every overload trip, in firing order.
    pub trips: Vec<CascadeTrip>,
}

/// Precomputes an overload campaign by replaying `base` on the
/// shared-variable reference for `rounds` rounds with an
/// [`OverloadDetector`] attached, recording every endogenous fault as an
/// ordinary scripted event.
///
/// * `backoff: None` — trips are [`FaultKind::OverloadCrash`]es. With
///   `restart_after: Some(d)` each crash also scripts an optimistic
///   [`FaultKind::Recover`] `d` rounds later — the raw restart request a
///   deployment's supervisor then disciplines (backoff, budgets, flapping
///   quarantine; see `cellflow-net`'s `RestartPolicy`).
/// * `backoff: Some(_)` — trips become `Crash`/`Recover` pauses: no
///   overload crash is recorded, only
///   [`CascadeStats::backoff_activations`].
///
/// The returned plan replayed through any `FaultPlan` consumer reproduces
/// the expansion run event for event (within a round: base events first,
/// then endogenous ones, matching this function's application order).
///
/// # Panics
///
/// Panics if `restart_after` is `Some(0)` (a same-round crash+recover would
/// reorder) or combined with `backoff` (pick one mitigation discipline).
pub fn expand_overload(
    config: &SystemConfig,
    base: &FaultPlan,
    trigger: OverloadTrigger,
    backoff: Option<BackoffPolicy>,
    restart_after: Option<u64>,
    rounds: u64,
) -> CascadeOutcome {
    assert!(
        restart_after != Some(0),
        "restart_after must be at least one round"
    );
    assert!(
        backoff.is_none() || restart_after.is_none(),
        "backoff pauses already schedule their own resume"
    );
    let mut system = System::new(config.clone());
    let mut detector = OverloadDetector::new(config, trigger, backoff);
    let mut extra: Vec<FaultEvent> = Vec::new();
    let mut trips = Vec::new();
    for round in 0..rounds {
        for event in base.events_at(round) {
            apply_event(&mut system, &event);
        }
        // Endogenous events recorded in earlier rounds (backoff resumes,
        // scripted restarts) fire here exactly as a replay would fire them.
        for event in &extra {
            if event.round == round {
                apply_event(&mut system, event);
            }
        }
        for (cell, action) in detector.poll(config, system.view(), round) {
            system.fail(cell);
            match action {
                OverloadAction::Crash { depth, .. } => {
                    trips.push((round, cell, depth));
                    extra.push(FaultEvent {
                        round,
                        cell,
                        kind: FaultKind::OverloadCrash,
                    });
                    if let Some(after) = restart_after {
                        extra.push(FaultEvent {
                            round: round + after,
                            cell,
                            kind: FaultKind::Recover,
                        });
                    }
                }
                OverloadAction::Backoff {
                    resume_round,
                    depth,
                    ..
                } => {
                    trips.push((round, cell, depth));
                    extra.push(FaultEvent {
                        round,
                        cell,
                        kind: FaultKind::Crash,
                    });
                    extra.push(FaultEvent {
                        round: resume_round,
                        cell,
                        kind: FaultKind::Recover,
                    });
                }
            }
        }
        system.step();
    }
    let mut plan = base.clone();
    for event in extra {
        plan = plan.with_event(event.round, event.cell, event.kind);
    }
    CascadeOutcome {
        plan,
        stats: detector.stats(),
        trips,
    }
}

/// Applies one scripted event in the shared-variable model — the same
/// reading `cellflow-sim`'s `FailureModel` impl for [`FaultPlan`] uses:
/// every crash flavor is `fail`, recovery is `recover`, corruption is
/// `corrupt`.
fn apply_event(system: &mut System, event: &FaultEvent) {
    match event.kind {
        FaultKind::Recover => system.recover(event.cell),
        FaultKind::Crash | FaultKind::HardCrash | FaultKind::Kill | FaultKind::OverloadCrash => {
            system.fail(event.cell)
        }
        FaultKind::Corrupt(c) => system.corrupt(event.cell, c),
    }
}

/// A capacity breach: some cell holds more entities than it is engineered
/// for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapacityViolation {
    /// The over-full cell.
    pub cell: CellId,
    /// Its occupancy.
    pub occupancy: usize,
    /// The configured capacity it exceeds.
    pub capacity: u32,
}

impl std::fmt::Display for CapacityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} holds {} entities over capacity {}",
            self.cell, self.occupancy, self.capacity
        )
    }
}

/// Checks the capacity invariant `∀ cell: occupancy ≤ capacity` (trivially
/// true when `config` has no capacity). This is the invariant the bounded
/// model checker verifies exhaustively on small grids and the
/// [`CapacityMonitor`](crate::monitor::CapacityMonitor) watches online.
pub fn check_capacity(config: &SystemConfig, state: &SystemState) -> Result<(), CapacityViolation> {
    let Some(capacity) = config.capacity() else {
        return Ok(());
    };
    let dims = config.dims();
    for (k, cell) in state.cells.iter().enumerate() {
        if cell.members.len() > capacity as usize {
            return Err(CapacityViolation {
                cell: dims.id_at(k),
                occupancy: cell.members.len(),
                capacity,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Params, TokenPolicy};
    use cellflow_grid::GridDims;

    fn capacity_config(n: u16, cap: u32) -> SystemConfig {
        SystemConfig::new(
            GridDims::square(n),
            CellId::new(1, n - 1),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(1, 0))
        .with_capacity(cap)
    }

    /// A congestion seed: crash the corridor cell above the source so
    /// traffic piles up beneath the blockage.
    fn congestion_plan() -> FaultPlan {
        FaultPlan::new().crash_at(8, CellId::new(1, 2))
    }

    #[test]
    fn sustained_overload_crashes_and_cascades() {
        let config = capacity_config(5, 2);
        let outcome = expand_overload(
            &config,
            &congestion_plan(),
            OverloadTrigger::new(2, 2),
            None,
            None,
            160,
        );
        assert!(
            outcome.stats.overload_crashes >= 1,
            "congestion must trip at least one overload crash: {:?}",
            outcome.stats
        );
        assert_eq!(outcome.stats.backoff_activations, 0);
        assert!(outcome.stats.sheds >= outcome.stats.overload_crashes);
        assert!(outcome.stats.max_cascade_depth >= 1);
        assert_eq!(
            outcome.plan.census().overload_crashes as u64,
            outcome.stats.overload_crashes
        );
        // Trips fire in round order and carry positive depth.
        for w in outcome.trips.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        assert!(outcome.trips.iter().all(|&(_, _, d)| d >= 1));
    }

    #[test]
    fn backoff_mitigation_pauses_instead_of_killing() {
        let config = capacity_config(5, 2);
        let trigger = OverloadTrigger::new(2, 2);
        let cascade = expand_overload(&config, &congestion_plan(), trigger, None, None, 160);
        let backoff = expand_overload(
            &config,
            &congestion_plan(),
            trigger,
            Some(BackoffPolicy {
                base: 4,
                max: 32,
                seed: 7,
            }),
            None,
            160,
        );
        assert!(cascade.stats.overload_crashes >= 1);
        assert_eq!(backoff.stats.overload_crashes, 0);
        assert!(backoff.stats.backoff_activations >= 1);
        assert!(backoff.stats.overload_crashes < cascade.stats.overload_crashes);
        // Backoff pauses are Crash/Recover pairs in the plan, never
        // OverloadCrash.
        assert_eq!(backoff.plan.census().overload_crashes, 0);
        assert!(backoff.plan.census().recoveries >= 1);
    }

    #[test]
    fn expansion_is_deterministic() {
        let config = capacity_config(5, 2);
        let trigger = OverloadTrigger::new(2, 2);
        let policy = Some(BackoffPolicy {
            base: 4,
            max: 32,
            seed: 7,
        });
        let a = expand_overload(&config, &congestion_plan(), trigger, policy, None, 160);
        let b = expand_overload(&config, &congestion_plan(), trigger, policy, None, 160);
        assert_eq!(a.plan.events(), b.plan.events());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.trips, b.trips);
    }

    #[test]
    fn scripted_restarts_let_cells_flap() {
        let config = capacity_config(5, 2);
        let outcome = expand_overload(
            &config,
            &congestion_plan(),
            OverloadTrigger::new(2, 2),
            None,
            Some(6),
            200,
        );
        // Each crash scripts a recover; a cell whose congestion persists
        // re-trips after its restart.
        let census = outcome.plan.census();
        assert!(census.overload_crashes >= 1);
        assert_eq!(census.recoveries, census.overload_crashes);
        let mut per_cell = std::collections::BTreeMap::new();
        for &(_, cell, _) in &outcome.trips {
            *per_cell.entry(cell).or_insert(0u32) += 1;
        }
        assert!(
            per_cell.values().any(|&c| c >= 2),
            "some cell should flap under naive restarts: {per_cell:?}"
        );
    }

    #[test]
    fn backoff_windows_double_up_to_the_cap_with_bounded_jitter() {
        let policy = BackoffPolicy {
            base: 4,
            max: 16,
            seed: 99,
        };
        let cell = CellId::new(2, 2);
        for activation in 1..=6u32 {
            let pause = policy.pause_rounds(cell, activation);
            let doublings = activation.saturating_sub(1).min(62);
            let window = (policy.base << doublings).min(policy.max);
            assert!(
                pause >= window,
                "activation {activation}: {pause} < {window}"
            );
            assert!(
                pause < window + policy.base,
                "activation {activation}: jitter out of range"
            );
        }
        // Deterministic per (cell, activation).
        assert_eq!(policy.pause_rounds(cell, 3), policy.pause_rounds(cell, 3));
        // And different cells draw different jitter (with overwhelming
        // probability for this seed).
        let other = CellId::new(3, 1);
        assert!(
            (1..=8).any(|a| policy.pause_rounds(cell, a) != policy.pause_rounds(other, a)),
            "jitter should depend on the cell"
        );
    }

    #[test]
    fn check_capacity_flags_the_overfull_cell() {
        let config = capacity_config(4, 3);
        let mut state = config.initial_state();
        assert_eq!(check_capacity(&config, &state), Ok(()));
        // Overfill ⟨2,2⟩ with 4 members (positions are irrelevant to the
        // occupancy count).
        let dims = config.dims();
        let cell = state.cell_mut(dims, CellId::new(2, 2));
        for e in 0..4u64 {
            cell.members.insert(
                crate::EntityId(e),
                cellflow_geom::Point::new(
                    cellflow_geom::Fixed::from_milli(2_500),
                    cellflow_geom::Fixed::from_milli(2_500),
                ),
            );
        }
        let err = check_capacity(&config, &state).unwrap_err();
        assert_eq!(err.cell, CellId::new(2, 2));
        assert_eq!(err.occupancy, 4);
        assert_eq!(err.capacity, 3);
        assert!(err.to_string().contains("over capacity"));
        // No capacity configured ⇒ trivially fine.
        let unbounded = SystemConfig::new(
            dims,
            config.target(),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap();
        assert_eq!(check_capacity(&unbounded, &state), Ok(()));
    }

    #[test]
    fn detector_ignores_target_and_dead_cells() {
        let config = capacity_config(4, 1);
        let mut system = System::new(config.clone());
        let mut detector = OverloadDetector::new(&config, OverloadTrigger::new(1, 1), None);
        // Give the target and a dead cell members beyond threshold.
        let dims = config.dims();
        let target = config.target();
        let dead = CellId::new(3, 3);
        let mut state = system.state().clone();
        for (id, base) in [(target, 0u64), (dead, 10u64)] {
            let cell = state.cell_mut(dims, id);
            for e in 0..2u64 {
                cell.members.insert(
                    crate::EntityId(base + e),
                    cellflow_geom::Point::new(
                        cellflow_geom::Fixed::from_milli(500 + 300 * e as i64),
                        cellflow_geom::Fixed::from_milli(500),
                    ),
                );
            }
        }
        state.next_entity_id = 20;
        system.set_state(state);
        system.fail(dead);
        let tripped = detector.poll(&config, system.state(), 0);
        assert!(tripped.is_empty(), "{tripped:?}");
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_restart_delay_rejected() {
        let config = capacity_config(4, 2);
        let _ = expand_overload(
            &config,
            &FaultPlan::new(),
            OverloadTrigger::new(2, 2),
            None,
            Some(0),
            10,
        );
    }

    #[test]
    fn deterministic_token_policy_required_for_mc_but_not_here() {
        // Expansion itself is fine with randomized tokens (it is still
        // deterministic given the salt).
        let config = capacity_config(4, 2).with_token_policy(TokenPolicy::Randomized { salt: 3 });
        let a = expand_overload(
            &config,
            &congestion_plan(),
            OverloadTrigger::new(2, 2),
            None,
            None,
            60,
        );
        let b = expand_overload(
            &config,
            &congestion_plan(),
            OverloadTrigger::new(2, 2),
            None,
            None,
            60,
        );
        assert_eq!(a.plan.events(), b.plan.events());
    }
}
