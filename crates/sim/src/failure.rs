//! Crash/recovery models.

use cellflow_core::fault::{FaultKind, FaultPlan};
use cellflow_core::overload::{
    BackoffPolicy, CascadeStats, OverloadAction, OverloadDetector, OverloadTrigger,
};
use cellflow_core::{System, SystemConfig};
use cellflow_grid::CellId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What a failure model did to the system this round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailureEvents {
    /// Cells crashed this round.
    pub failed: Vec<CellId>,
    /// Cells recovered this round.
    pub recovered: Vec<CellId>,
    /// Cells whose state was transiently corrupted this round
    /// ([`FaultKind::Corrupt`]).
    pub corrupted: Vec<CellId>,
}

impl FailureEvents {
    /// `true` if nothing happened.
    pub fn is_empty(&self) -> bool {
        self.failed.is_empty() && self.recovered.is_empty() && self.corrupted.is_empty()
    }
}

/// A source of crash and recovery transitions, applied before each round.
///
/// Implementations mutate the system through [`System::fail`] /
/// [`System::recover`] only.
pub trait FailureModel {
    /// Applies this round's failures/recoveries to `system`.
    fn apply(&mut self, system: &mut System, round: u64) -> FailureEvents;
}

/// No failures ever — the environment of Figures 7 and 8.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoFailures;

impl FailureModel for NoFailures {
    fn apply(&mut self, _system: &mut System, _round: u64) -> FailureEvents {
        FailureEvents::default()
    }
}

/// The random fail/recover model of Figure 9 (and of DeVille & Mitra,
/// SSS 2009): each round, every live cell fails with probability `pf` and
/// every failed cell recovers with probability `pr`, independently.
///
/// The target may fail too (its recovery resets `dist_tid = 0`, exactly as
/// the paper describes); set `protect_target` to exclude it, and
/// `protect_sources` to keep sources alive.
#[derive(Clone, Debug)]
pub struct RandomFailRecover {
    /// Per-round, per-cell failure probability.
    pub pf: f64,
    /// Per-round, per-cell recovery probability.
    pub pr: f64,
    /// Never fail the target cell.
    pub protect_target: bool,
    /// Never fail source cells.
    pub protect_sources: bool,
    rng: SmallRng,
}

impl RandomFailRecover {
    /// Creates the model with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `pf` or `pr` is outside `[0, 1]`.
    pub fn new(pf: f64, pr: f64, seed: u64) -> RandomFailRecover {
        assert!(
            (0.0..=1.0).contains(&pf),
            "pf must be a probability, got {pf}"
        );
        assert!(
            (0.0..=1.0).contains(&pr),
            "pr must be a probability, got {pr}"
        );
        RandomFailRecover {
            pf,
            pr,
            protect_target: false,
            protect_sources: false,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Builder: never crash the target.
    pub fn protect_target(mut self) -> RandomFailRecover {
        self.protect_target = true;
        self
    }

    /// Builder: never crash sources.
    pub fn protect_sources(mut self) -> RandomFailRecover {
        self.protect_sources = true;
        self
    }
}

impl FailureModel for RandomFailRecover {
    fn apply(&mut self, system: &mut System, _round: u64) -> FailureEvents {
        let dims = system.config().dims();
        let target = system.config().target();
        let mut events = FailureEvents::default();
        // Arena order is `dims.iter()`'s row-major order.
        for (k, id) in dims.iter().enumerate() {
            if system.view().failed(k) {
                if self.rng.gen_bool(self.pr) {
                    system.recover(id);
                    events.recovered.push(id);
                }
            } else {
                if self.protect_target && id == target {
                    continue;
                }
                if self.protect_sources && system.config().sources().contains(&id) {
                    continue;
                }
                if self.rng.gen_bool(self.pf) {
                    system.fail(id);
                    events.failed.push(id);
                }
            }
        }
        events
    }
}

/// A scripted schedule of fail/recover transitions: `(round, cell, recover?)`.
/// Used to carve paths (Figure 8) and to build reproducible churn tests.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    entries: Vec<(u64, CellId, bool)>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Schedule {
        Schedule::default()
    }

    /// Adds a crash of `cell` at `round`.
    pub fn fail_at(mut self, round: u64, cell: CellId) -> Schedule {
        self.entries.push((round, cell, false));
        self
    }

    /// Adds a recovery of `cell` at `round`.
    pub fn recover_at(mut self, round: u64, cell: CellId) -> Schedule {
        self.entries.push((round, cell, true));
        self
    }

    /// Adds crashes of all `cells` at round 0 — the path-carving helper.
    pub fn carve<I: IntoIterator<Item = CellId>>(mut self, cells: I) -> Schedule {
        for c in cells {
            self.entries.push((0, c, false));
        }
        self
    }
}

impl FailureModel for Schedule {
    fn apply(&mut self, system: &mut System, round: u64) -> FailureEvents {
        let mut events = FailureEvents::default();
        for &(when, cell, recover) in &self.entries {
            if when == round {
                if recover {
                    system.recover(cell);
                    events.recovered.push(cell);
                } else {
                    system.fail(cell);
                    events.failed.push(cell);
                }
            }
        }
        events
    }
}

/// A [`FaultPlan`] drives the shared-variable reference too: the same
/// scripted campaign that the message-passing runtime executes mechanically
/// (barrier leave/re-join, store restore, silence) reads here as plain
/// fail/recover transitions — which is exactly the abstraction the paper's
/// model makes. This is what the differential tests lean on: one plan, two
/// runtimes, identical observable behavior.
impl FailureModel for FaultPlan {
    fn apply(&mut self, system: &mut System, round: u64) -> FailureEvents {
        let mut events = FailureEvents::default();
        for event in self.events_at(round) {
            match event.kind {
                FaultKind::Recover => {
                    system.recover(event.cell);
                    events.recovered.push(event.cell);
                }
                // Crash, HardCrash, Kill, and OverloadCrash are
                // indistinguishable in the shared-variable model: the
                // cell's state freezes at `fail`.
                FaultKind::Crash
                | FaultKind::HardCrash
                | FaultKind::Kill
                | FaultKind::OverloadCrash => {
                    system.fail(event.cell);
                    events.failed.push(event.cell);
                }
                FaultKind::Corrupt(c) => {
                    system.corrupt(event.cell, c);
                    events.corrupted.push(event.cell);
                }
            }
        }
        events
    }
}

/// Online overload detection as a failure model: a scripted base campaign
/// plus an [`OverloadDetector`] polled live against the running system, so
/// finite-capacity cells crash (or backoff-pause) *endogenously* as
/// congestion builds, instead of by script.
///
/// This is the same decision procedure
/// [`expand_overload`](cellflow_core::expand_overload) runs offline — a
/// differential test pins the two to identical executions — but the online
/// form is what a live deployment would run, and it composes with the
/// simulation's monitors, trace, and telemetry without precomputation.
#[derive(Clone, Debug)]
pub struct OverloadModel {
    base: FaultPlan,
    detector: OverloadDetector,
    restart_after: Option<u64>,
    backoff: bool,
    /// Scheduled future recoveries: `(round, cell)`, in schedule order.
    resumes: Vec<(u64, CellId)>,
}

impl OverloadModel {
    /// A model that overlays endogenous overload faults on `base`.
    ///
    /// With `backoff` set, trips pause-and-resume instead of crashing
    /// (mirroring `expand_overload` with a [`BackoffPolicy`]).
    pub fn new(
        config: &SystemConfig,
        base: FaultPlan,
        trigger: OverloadTrigger,
        backoff: Option<BackoffPolicy>,
    ) -> OverloadModel {
        OverloadModel {
            base,
            backoff: backoff.is_some(),
            detector: OverloadDetector::new(config, trigger, backoff),
            restart_after: None,
            resumes: Vec::new(),
        }
    }

    /// Builder: optimistically restart each overload-crashed cell `after`
    /// rounds — the raw restart request a supervisor would discipline.
    ///
    /// # Panics
    ///
    /// Panics if `after` is zero or the model was built with backoff
    /// (backoff pauses schedule their own resume).
    pub fn with_restart_after(mut self, after: u64) -> OverloadModel {
        assert!(after > 0, "restart_after must be at least one round");
        assert!(
            !self.backoff,
            "backoff pauses already schedule their own resume"
        );
        self.restart_after = Some(after);
        self
    }

    /// Campaign counters accumulated so far.
    pub fn stats(&self) -> CascadeStats {
        self.detector.stats()
    }
}

impl FailureModel for OverloadModel {
    fn apply(&mut self, system: &mut System, round: u64) -> FailureEvents {
        // Base script first, then scheduled resumes, then fresh trips —
        // the exact within-round order `expand_overload` both runs and
        // records, so the two stay replay-equivalent.
        let mut events = self.base.apply(system, round);
        for i in 0..self.resumes.len() {
            let (when, cell) = self.resumes[i];
            if when == round {
                system.recover(cell);
                events.recovered.push(cell);
            }
        }
        let tripped = self.detector.poll(system.config(), system.view(), round);
        for (cell, action) in tripped {
            system.fail(cell);
            events.failed.push(cell);
            match action {
                OverloadAction::Crash { .. } => {
                    if let Some(after) = self.restart_after {
                        self.resumes.push((round + after, cell));
                    }
                }
                OverloadAction::Backoff { resume_round, .. } => {
                    self.resumes.push((resume_round, cell));
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_core::Params;
    use cellflow_grid::GridDims;

    fn system() -> System {
        System::new(
            SystemConfig::new(
                GridDims::square(4),
                CellId::new(3, 3),
                Params::from_milli(250, 50, 100).unwrap(),
            )
            .unwrap()
            .with_source(CellId::new(0, 0)),
        )
    }

    #[test]
    fn no_failures_is_a_noop() {
        let mut sys = system();
        let ev = NoFailures.apply(&mut sys, 0);
        assert!(ev.is_empty());
        assert!(sys.config().dims().iter().all(|c| !sys.cell(c).failed));
    }

    #[test]
    fn random_model_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut sys = system();
            let mut model = RandomFailRecover::new(0.2, 0.3, seed);
            let mut log = Vec::new();
            for round in 0..50 {
                log.push(model.apply(&mut sys, round));
            }
            log
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
    }

    #[test]
    fn random_model_respects_protections() {
        let mut sys = system();
        let mut model = RandomFailRecover::new(1.0, 0.0, 1)
            .protect_target()
            .protect_sources();
        let ev = model.apply(&mut sys, 0);
        assert!(!ev.failed.contains(&CellId::new(3, 3)));
        assert!(!ev.failed.contains(&CellId::new(0, 0)));
        assert_eq!(ev.failed.len(), 14); // 16 − target − source
        assert!(!sys.cell(CellId::new(3, 3)).failed);
    }

    #[test]
    fn certain_recovery_heals_everything() {
        let mut sys = system();
        let mut kill = RandomFailRecover::new(1.0, 0.0, 1);
        kill.apply(&mut sys, 0);
        let mut heal = RandomFailRecover::new(0.0, 1.0, 2);
        let ev = heal.apply(&mut sys, 1);
        assert!(ev.failed.is_empty());
        assert!(!ev.recovered.is_empty());
        assert!(sys.config().dims().iter().all(|c| !sys.cell(c).failed));
    }

    #[test]
    fn schedule_fires_at_exact_rounds() {
        let mut sys = system();
        let mut sched = Schedule::new()
            .fail_at(2, CellId::new(1, 1))
            .recover_at(5, CellId::new(1, 1))
            .carve([CellId::new(2, 2)]);
        for round in 0..8 {
            let ev = sched.apply(&mut sys, round);
            match round {
                0 => assert_eq!(ev.failed, vec![CellId::new(2, 2)]),
                2 => assert_eq!(ev.failed, vec![CellId::new(1, 1)]),
                5 => assert_eq!(ev.recovered, vec![CellId::new(1, 1)]),
                _ => assert!(ev.is_empty()),
            }
        }
        assert!(sys.cell(CellId::new(2, 2)).failed);
        assert!(!sys.cell(CellId::new(1, 1)).failed);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_probability_panics() {
        let _ = RandomFailRecover::new(1.5, 0.0, 1);
    }

    #[test]
    fn fault_plan_drives_the_reference() {
        let mut sys = system();
        let mut plan = FaultPlan::new()
            .crash_at(1, CellId::new(1, 1))
            .hard_crash_at(2, CellId::new(2, 2))
            .recover_at(4, CellId::new(1, 1));
        for round in 0..6 {
            let ev = plan.apply(&mut sys, round);
            match round {
                1 => assert_eq!(ev.failed, vec![CellId::new(1, 1)]),
                2 => assert_eq!(ev.failed, vec![CellId::new(2, 2)]),
                4 => assert_eq!(ev.recovered, vec![CellId::new(1, 1)]),
                _ => assert!(ev.is_empty()),
            }
        }
        assert!(!sys.cell(CellId::new(1, 1)).failed);
        assert!(
            sys.cell(CellId::new(2, 2)).failed,
            "hard crash reads as fail"
        );
    }

    #[test]
    fn fault_plan_applies_corruptions() {
        use cellflow_core::{Corruption, Dist};

        let mut sys = system();
        let victim = CellId::new(1, 2);
        let mut plan = FaultPlan::new().corrupt_at(3, victim, Corruption::Dist(Dist::Finite(0)));
        for round in 0..5 {
            let ev = plan.apply(&mut sys, round);
            if round == 3 {
                assert_eq!(ev.corrupted, vec![victim]);
                assert!(ev.failed.is_empty() && ev.recovered.is_empty());
                assert!(!ev.is_empty());
                assert_eq!(sys.cell(victim).dist, Dist::Finite(0));
            } else {
                assert!(ev.is_empty());
            }
        }
        assert!(!sys.cell(victim).failed, "corruption does not crash");
    }

    #[test]
    fn recover_scheduled_same_round_as_crash_applies_in_plan_order() {
        let c = CellId::new(1, 1);
        // Crash then recover within the same round: the cell ends live
        // (events apply in insertion order, same as the net runtime).
        let mut sys = system();
        let mut plan = FaultPlan::new().crash_at(2, c).recover_at(2, c);
        let ev = plan.apply(&mut sys, 2);
        assert_eq!(ev.failed, vec![c]);
        assert_eq!(ev.recovered, vec![c]);
        assert!(!sys.cell(c).failed);
        // Reversed insertion order: recover (of a live cell) first, then
        // crash — the cell ends failed.
        let mut sys = system();
        let mut plan = FaultPlan::new().recover_at(2, c).crash_at(2, c);
        plan.apply(&mut sys, 2);
        assert!(sys.cell(c).failed);
    }

    #[test]
    fn recover_of_never_crashed_cell_is_harmless() {
        let c = CellId::new(2, 1);
        let mut sys = system();
        let before = sys.cell(c).clone();
        let mut plan = FaultPlan::new().recover_at(1, c);
        let ev = plan.apply(&mut sys, 1);
        assert_eq!(ev.recovered, vec![c]);
        assert_eq!(sys.cell(c), &before, "recovery of a live cell is a no-op");
        // Recovering the live target must keep its dist-0 anchor.
        let target = CellId::new(3, 3);
        let mut plan = FaultPlan::new().recover_at(2, target);
        plan.apply(&mut sys, 2);
        assert_eq!(
            sys.cell(target).dist,
            cellflow_core::Dist::Finite(0),
            "target anchor survives spurious recovery"
        );
    }

    #[test]
    fn kill_then_recover_ordering() {
        let c = CellId::new(1, 1);
        // In the shared-variable model a Kill is a crash; a later scripted
        // Recover revives the cell (the *deployment* is where a kill is
        // unrecoverable — its thread is gone and never re-spawned).
        let mut sys = system();
        let mut plan = FaultPlan::new().kill_at(1, c).recover_at(3, c);
        plan.apply(&mut sys, 1);
        assert!(sys.cell(c).failed);
        plan.apply(&mut sys, 2);
        assert!(sys.cell(c).failed);
        plan.apply(&mut sys, 3);
        assert!(!sys.cell(c).failed);
        // The plan itself still reports the kill as permanent hard death
        // (respawn accounting ignores kills only in the runtime's spawn
        // logic, not in hard_dead_at bookkeeping).
        assert!(plan.hard_dead_at(2).contains(&c));
        assert!(!plan.hard_dead_at(3).contains(&c));
    }

    fn capacity_system() -> System {
        System::new(
            SystemConfig::new(
                GridDims::square(5),
                CellId::new(1, 4),
                Params::from_milli(250, 50, 200).unwrap(),
            )
            .unwrap()
            .with_source(CellId::new(1, 0))
            .with_capacity(2),
        )
    }

    /// The online model and the offline expansion are the same decision
    /// procedure: replaying the expanded plan reproduces the online run
    /// state for state, for every mitigation mode.
    #[test]
    fn online_overload_matches_expanded_plan() {
        use cellflow_core::expand_overload;
        let base = FaultPlan::new().crash_at(8, CellId::new(1, 2));
        let trigger = OverloadTrigger::new(2, 2);
        let rounds = 160;
        let modes: [(Option<BackoffPolicy>, Option<u64>); 3] = [
            (None, None),
            (None, Some(12)),
            (
                Some(BackoffPolicy {
                    base: 4,
                    max: 32,
                    seed: 0xCA5CADE,
                }),
                None,
            ),
        ];
        for (backoff, restart_after) in modes {
            let mut online = capacity_system();
            let mut model = OverloadModel::new(online.config(), base.clone(), trigger, backoff);
            if let Some(after) = restart_after {
                model = model.with_restart_after(after);
            }
            let outcome = expand_overload(
                online.config(),
                &base,
                trigger,
                backoff,
                restart_after,
                rounds,
            );
            let mut replay = capacity_system();
            let mut plan = outcome.plan.clone();
            for round in 0..rounds {
                model.apply(&mut online, round);
                online.step();
                plan.apply(&mut replay, round);
                replay.step();
            }
            assert_eq!(
                online.state(),
                replay.state(),
                "mode {backoff:?}/{restart_after:?}"
            );
            assert_eq!(online.consumed_total(), replay.consumed_total());
            assert_eq!(model.stats(), outcome.stats);
        }
    }

    #[test]
    #[should_panic(expected = "backoff pauses already schedule their own resume")]
    fn overload_model_rejects_restart_with_backoff() {
        let sys = capacity_system();
        let _ = OverloadModel::new(
            sys.config(),
            FaultPlan::new(),
            OverloadTrigger::new(2, 2),
            Some(BackoffPolicy {
                base: 4,
                max: 32,
                seed: 1,
            }),
        )
        .with_restart_after(5);
    }
}
