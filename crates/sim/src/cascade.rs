//! Cascading-failure campaigns: drive a finite-capacity grid into
//! endogenous overload, watch the cascade propagate, and report what the
//! monitors and heat maps saw — deterministically, so two runs of the same
//! scenario produce byte-identical reports.
//!
//! The campaign is precomputed by
//! [`expand_overload`](cellflow_core::expand_overload) into an ordinary
//! scripted [`FaultPlan`]; the simulation then replays it with the full
//! monitor suite attached, plus `settle` fault-free rounds at the end so
//! the stabilization stopwatch (Corollary 7's `O(N²)` clock) has room to
//! expire. Running the same scenario with a [`BackoffPolicy`] swaps every
//! overload crash for a randomized pause — the comparison
//! `cellflow chaos --cascade` prints.

use std::fmt::Write as _;

use cellflow_core::certify::fnv1a;
use cellflow_core::monitor::{
    stabilization_bound, CapacityMonitor, ConservationMonitor, Monitor, RoutingMonitor,
    SafetyMonitor, StabilizationMonitor, StabilizationProbe,
};
use cellflow_core::overload::{check_capacity, BackoffPolicy, CascadeOutcome, OverloadTrigger};
use cellflow_core::{expand_overload, FaultCensus, FaultPlan, SystemConfig};

use crate::heatmap::{render_cascade, OccupancyGrid, PressureGrid};
use crate::{SimTelemetry, Simulation};

/// One cascade campaign: a base fault script on a finite-capacity grid,
/// an overload trigger, and at most one mitigation discipline.
#[derive(Clone, Debug)]
pub struct CascadeScenario {
    /// The grid under test; must have a finite capacity
    /// ([`SystemConfig::with_capacity`]).
    pub config: SystemConfig,
    /// The exogenous script that seeds the congestion.
    pub base: FaultPlan,
    /// When sustained occupancy trips a cell.
    pub trigger: OverloadTrigger,
    /// Randomized backoff mitigation; `None` lets cells overload-crash.
    pub backoff: Option<BackoffPolicy>,
    /// Optimistic restart delay for overload crashes (exclusive with
    /// `backoff`); what a supervisor's restart policy then disciplines.
    pub restart_after: Option<u64>,
    /// Rounds of active campaign (overloads may trip anywhere in here).
    pub rounds: u64,
    /// Fault-free tail rounds for the stabilization clock to expire in.
    pub settle: u64,
}

/// What one campaign did, plus everything needed to judge and render it.
#[derive(Clone, Debug)]
pub struct CascadeReport {
    /// The expanded campaign: scripted plan, counters, trip log.
    pub outcome: CascadeOutcome,
    /// Event census of the expanded plan.
    pub census: FaultCensus,
    /// Entities the target consumed over the whole run.
    pub consumed: u64,
    /// Total rounds driven (`rounds + settle`).
    pub rounds: u64,
    /// The stabilization bound (`2N² + 2`) the run is judged against.
    pub bound: u64,
    /// Rounds from the last disturbance to re-stabilization, if reached.
    pub rounds_to_stabilize: Option<u64>,
    /// Each monitor's closing summary line.
    pub monitor_summaries: Vec<String>,
    /// Monitor violations accumulated over the run.
    pub violations: usize,
    /// Whether the final state satisfies occupancy ≤ capacity.
    pub capacity_ok_final: bool,
    /// Rendered occupancy heat map.
    pub occupancy: String,
    /// Rendered peak-pressure heat map.
    pub pressure: String,
    /// Rendered cascade-depth map.
    pub cascade: String,
}

impl CascadeReport {
    /// `true` iff the run re-stabilized within the bound after the last
    /// disturbance — the campaign-level reading of Corollary 7.
    pub fn stabilized_in_bound(&self) -> bool {
        self.rounds_to_stabilize.is_some_and(|r| r <= self.bound)
    }

    /// A deterministic plain-text report: byte-identical for equal
    /// reports, sealed by an FNV-1a checksum like
    /// [`Certificate::render`](cellflow_core::Certificate::render).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "cascade campaign report");
        let _ = writeln!(s, "rounds driven: {}", self.rounds);
        let _ = writeln!(s, "trips: {}", self.outcome.trips.len());
        for &(round, cell, depth) in &self.outcome.trips {
            let _ = writeln!(
                s,
                "  round {:>4}  cell ({},{})  depth {}",
                round,
                cell.i(),
                cell.j(),
                depth
            );
        }
        let st = self.outcome.stats;
        let _ = writeln!(
            s,
            "overload crashes: {}  sheds: {}  backoff activations: {}  max cascade depth: {}",
            st.overload_crashes, st.sheds, st.backoff_activations, st.max_cascade_depth
        );
        let _ = writeln!(
            s,
            "census: crashes={} recoveries={} hard={} kills={} corruptions={} overload={}",
            self.census.crashes,
            self.census.recoveries,
            self.census.hard_crashes,
            self.census.kills,
            self.census.corruptions,
            self.census.overload_crashes
        );
        let _ = writeln!(s, "consumed: {}", self.consumed);
        let restab = match self.rounds_to_stabilize {
            Some(r) => format!("{r} rounds after last disturbance"),
            None => "NO".to_string(),
        };
        let _ = writeln!(s, "stabilization bound: {} rounds", self.bound);
        let _ = writeln!(s, "re-stabilized: {restab}");
        let _ = writeln!(s, "monitor violations: {}", self.violations);
        for m in &self.monitor_summaries {
            let _ = writeln!(s, "  {m}");
        }
        let _ = writeln!(
            s,
            "capacity at end: {}",
            if self.capacity_ok_final {
                "OK"
            } else {
                "VIOLATED"
            }
        );
        let _ = writeln!(s, "occupancy:");
        s.push_str(&self.occupancy);
        let _ = writeln!(s, "pressure peaks:");
        s.push_str(&self.pressure);
        let _ = writeln!(s, "cascade depth:");
        s.push_str(&self.cascade);
        let checksum = fnv1a(s.as_bytes());
        let _ = writeln!(s, "checksum: {checksum:016x}");
        s
    }
}

/// Runs `scenario` end to end. See [`run_cascade_with`] for the telemetry
/// variant.
///
/// # Panics
///
/// Panics if the scenario's config has no capacity, or on the
/// [`expand_overload`] mitigation conflicts.
pub fn run_cascade(scenario: &CascadeScenario) -> CascadeReport {
    run_cascade_with(scenario, None)
}

/// Runs `scenario`, optionally folding the campaign's counters and
/// per-round activity into `telemetry`'s registry and event stream.
pub fn run_cascade_with(
    scenario: &CascadeScenario,
    telemetry: Option<SimTelemetry>,
) -> CascadeReport {
    run_cascade_recorded(scenario, telemetry, None).0
}

/// [`run_cascade_with`], optionally capturing a flight recording of every
/// driven round. Returns the sealed `.rec` bytes when a recorder was
/// supplied — byte-identical for reruns of the same scenario, since the
/// whole campaign is deterministic.
pub fn run_cascade_recorded(
    scenario: &CascadeScenario,
    telemetry: Option<SimTelemetry>,
    recorder: Option<Box<cellflow_core::snapshot::Recorder>>,
) -> (CascadeReport, Option<Vec<u8>>) {
    let config = &scenario.config;
    assert!(
        config.capacity().is_some(),
        "cascade campaigns need a finite capacity"
    );
    let outcome = expand_overload(
        config,
        &scenario.base,
        scenario.trigger,
        scenario.backoff,
        scenario.restart_after,
        scenario.rounds,
    );

    let probe = StabilizationProbe::new();
    let monitors: Vec<Box<dyn Monitor>> = vec![
        Box::new(SafetyMonitor::new()),
        Box::new(RoutingMonitor::new()),
        Box::new(ConservationMonitor::new()),
        Box::new(StabilizationMonitor::new(config).with_probe(&probe)),
        Box::new(CapacityMonitor::new(config)),
    ];

    let mut sim = Simulation::new(config.clone(), 0)
        .with_failure_model(outcome.plan.clone())
        .with_monitors(monitors)
        .with_safety_checks(false);
    if let Some(tel) = telemetry {
        tel.record_cascade(&outcome.stats, &outcome.trips);
        sim = sim.with_telemetry(tel);
    }
    if let Some(rec) = recorder {
        sim = sim.with_recorder(rec);
    }

    let dims = config.dims();
    let mut occupancy = OccupancyGrid::new(dims);
    let mut pressure = PressureGrid::new(dims);
    let total_rounds = scenario.rounds + scenario.settle;
    for _ in 0..total_rounds {
        sim.step();
        occupancy.record(config, sim.system().view());
        pressure.record(sim.system());
    }

    let recording = sim.take_recorder().map(|r| r.finish());
    let census = outcome.plan.census();
    let capacity_ok_final = check_capacity(config, sim.system().state()).is_ok();
    let report = CascadeReport {
        census,
        consumed: sim.system().consumed_total(),
        rounds: total_rounds,
        bound: stabilization_bound(config),
        rounds_to_stabilize: probe.rounds_to_stabilize(),
        monitor_summaries: sim.monitor_summaries(),
        violations: sim.violations().len(),
        capacity_ok_final,
        occupancy: occupancy.render(),
        pressure: pressure.render(),
        cascade: render_cascade(dims, &outcome.trips),
        outcome,
    };
    (report, recording)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_core::Params;
    use cellflow_grid::{CellId, GridDims};

    fn scenario(backoff: Option<BackoffPolicy>) -> CascadeScenario {
        let config = SystemConfig::new(
            GridDims::square(5),
            CellId::new(1, 4),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(1, 0))
        .with_capacity(2);
        CascadeScenario {
            config,
            base: FaultPlan::new().crash_at(8, CellId::new(1, 2)),
            trigger: OverloadTrigger::new(2, 2),
            backoff,
            restart_after: None,
            rounds: 160,
            settle: 80,
        }
    }

    #[test]
    fn cascade_run_reports_crashes_and_backoff_mitigates() {
        let cascade = run_cascade(&scenario(None));
        assert!(cascade.outcome.stats.overload_crashes > 0);
        assert_eq!(cascade.outcome.stats.backoff_activations, 0);
        assert!(cascade.census.overload_crashes > 0);

        let mitigated = run_cascade(&scenario(Some(BackoffPolicy {
            base: 4,
            max: 32,
            seed: 0xFE1D,
        })));
        // Backoff strictly reduces overload crashes (to zero: pauses are
        // recorded as plain Crash/Recover pairs) and actually activates.
        assert!(mitigated.outcome.stats.overload_crashes < cascade.outcome.stats.overload_crashes);
        assert_eq!(mitigated.outcome.stats.overload_crashes, 0);
        assert!(mitigated.outcome.stats.backoff_activations > 0);
    }

    #[test]
    fn cascade_stabilizes_within_bound_after_settling() {
        let report = run_cascade(&scenario(None));
        assert!(
            report.stabilized_in_bound(),
            "rounds_to_stabilize={:?} bound={}",
            report.rounds_to_stabilize,
            report.bound
        );
    }

    #[test]
    fn reports_are_byte_identical_across_runs() {
        let a = run_cascade(&scenario(None)).render();
        let b = run_cascade(&scenario(None)).render();
        assert_eq!(a, b);
        assert!(a.contains("checksum: "));
        // The cascade-depth map marks at least one tripped cell.
        assert!(a.contains("cascade depth:"));
    }

    #[test]
    #[should_panic(expected = "cascade campaigns need a finite capacity")]
    fn capacity_free_config_is_rejected() {
        let mut s = scenario(None);
        s.config = SystemConfig::new(
            GridDims::square(5),
            CellId::new(1, 4),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(1, 0));
        run_cascade(&s);
    }
}
