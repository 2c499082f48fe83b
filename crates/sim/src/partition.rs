//! Partition campaigns: script link faults and split-brain episodes over
//! the lockstep simulator, watch every island with the full monitor suite
//! (including the split-brain [`ReachabilityMonitor`]), and report what
//! happened — deterministically, so two runs of the same scenario produce
//! byte-identical reports.
//!
//! The scenario's [`PartitionPlan`] is expanded once into a round-major
//! [`PartitionSchedule`]; the simulation installs each round's cut mask
//! before the round runs, so a cut slot reads as a silent neighbor (the
//! paper's footnote-1 convention: silence is `∞`/`⊥`). Rounds with any
//! active cut count as ambient disturbance, which makes the stabilization
//! stopwatch measure recovery *from the heal* — the post-heal reading of
//! Corollary 7 that `cellflow chaos --partition` certifies.

use std::fmt::Write as _;

use cellflow_core::certify::fnv1a;
use cellflow_core::monitor::{
    component_map, stabilization_bound, ConservationMonitor, Monitor, ReachabilityMonitor,
    RoutingMonitor, SafetyMonitor, StabilizationMonitor, StabilizationProbe,
};
use cellflow_core::{FaultPlan, PartitionPlan, PartitionSchedule, SystemConfig};

use crate::heatmap::{render_components, OccupancyGrid};
use crate::{SimTelemetry, Simulation};

/// One partition campaign: a link-fault script, an optional crash script
/// riding along, and the round horizon.
#[derive(Clone, Debug)]
pub struct PartitionScenario {
    /// The grid under test.
    pub config: SystemConfig,
    /// The scripted link faults (cuts, splits, islands, flaky links).
    pub plan: PartitionPlan,
    /// An exogenous crash/recover script applied alongside the cuts.
    pub base: FaultPlan,
    /// Rounds of active campaign (every cut should heal in here for the
    /// certificate to have a chance).
    pub rounds: u64,
    /// Fault-free tail rounds for the stabilization clock to expire in.
    pub settle: u64,
}

/// What one campaign did, plus everything needed to judge and render it.
#[derive(Clone, Debug)]
pub struct PartitionReport {
    /// Scripted directed cuts in the plan.
    pub faults: usize,
    /// Seeded flaky-link specs in the plan.
    pub flaky: usize,
    /// Total directed edge-rounds suppressed over the schedule.
    pub cut_edge_rounds: u64,
    /// The round the last cut healed; `None` if some cut never heals.
    pub heal_round: Option<u64>,
    /// Entities the target consumed over the whole run.
    pub consumed: u64,
    /// Total rounds driven (`rounds + settle`).
    pub rounds: u64,
    /// The stabilization bound (`2N² + 2`) the run is judged against.
    pub bound: u64,
    /// Rounds from the last disturbance to re-stabilization, if reached.
    pub rounds_to_stabilize: Option<u64>,
    /// The largest number of simultaneous connected components observed.
    pub max_components: u32,
    /// Each monitor's closing summary line.
    pub monitor_summaries: Vec<String>,
    /// Monitor violations accumulated over the run.
    pub violations: usize,
    /// Component map at the first round of deepest fragmentation.
    pub components_split: String,
    /// Component map at the end of the run (one island iff healed).
    pub components_final: String,
    /// Rendered occupancy heat map.
    pub occupancy: String,
}

impl PartitionReport {
    /// `true` iff every cut healed, routing re-stabilized within the bound
    /// of the heal, and no monitor fired — the campaign-level reading of
    /// "Theorem 5 through the split, Corollary 7 after the heal".
    pub fn certified(&self) -> bool {
        self.heal_round.is_some()
            && self.rounds_to_stabilize.is_some_and(|r| r <= self.bound)
            && self.violations == 0
    }

    /// A deterministic plain-text report: byte-identical for equal reports,
    /// sealed by an FNV-1a checksum like
    /// [`Certificate::render`](cellflow_core::Certificate::render).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "partition campaign report");
        let _ = writeln!(s, "rounds driven: {}", self.rounds);
        let _ = writeln!(
            s,
            "scripted cuts: {}  flaky specs: {}  cut edge-rounds: {}",
            self.faults, self.flaky, self.cut_edge_rounds
        );
        let heal = match self.heal_round {
            Some(h) => format!("{h}"),
            None => "never".to_string(),
        };
        let _ = writeln!(s, "heal round: {heal}");
        let _ = writeln!(s, "max components: {}", self.max_components);
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
            "verdict: {}",
            if self.certified() {
                "CERTIFIED"
            } else {
                "FAILED"
            }
        );
        let _ = writeln!(s, "components at deepest split:");
        s.push_str(&self.components_split);
        let _ = writeln!(s, "components at end:");
        s.push_str(&self.components_final);
        let _ = writeln!(s, "occupancy:");
        s.push_str(&self.occupancy);
        let checksum = fnv1a(s.as_bytes());
        let _ = writeln!(s, "checksum: {checksum:016x}");
        s
    }
}

/// Runs `scenario` end to end. See [`run_partition_with`] for the
/// telemetry variant.
pub fn run_partition(scenario: &PartitionScenario) -> PartitionReport {
    run_partition_with(scenario, None)
}

/// Runs `scenario`, optionally folding the campaign's counters into
/// `telemetry`'s registry and event stream.
///
/// # Panics
///
/// Panics if the plan was built for a different grid than the config.
pub fn run_partition_with(
    scenario: &PartitionScenario,
    telemetry: Option<SimTelemetry>,
) -> PartitionReport {
    run_partition_recorded(scenario, telemetry, None).0
}

/// [`run_partition_with`], optionally capturing a flight recording of every
/// driven round. Returns the sealed `.rec` bytes when a recorder was
/// supplied — byte-identical for reruns of the same scenario, since the
/// whole campaign is deterministic.
pub fn run_partition_recorded(
    scenario: &PartitionScenario,
    telemetry: Option<SimTelemetry>,
    recorder: Option<Box<cellflow_core::snapshot::Recorder>>,
) -> (PartitionReport, Option<Vec<u8>>) {
    let config = &scenario.config;
    let total_rounds = scenario.rounds + scenario.settle;
    let schedule: PartitionSchedule = scenario.plan.expand(total_rounds);

    let probe = StabilizationProbe::new();
    let monitors: Vec<Box<dyn Monitor>> = vec![
        Box::new(SafetyMonitor::new()),
        Box::new(RoutingMonitor::new()),
        Box::new(ConservationMonitor::new()),
        Box::new(StabilizationMonitor::new(config).with_probe(&probe)),
        Box::new(ReachabilityMonitor::new(config, schedule.clone())),
    ];

    let mut sim = Simulation::new(config.clone(), 0)
        .with_failure_model(scenario.base.clone())
        .with_partition(schedule.clone())
        .with_monitors(monitors)
        .with_safety_checks(false);
    if let Some(tel) = telemetry {
        tel.record_partition(&schedule);
        sim = sim.with_telemetry(tel);
    }
    if let Some(rec) = recorder {
        sim = sim.with_recorder(rec);
    }

    let dims = config.dims();
    let mut occupancy = OccupancyGrid::new(dims);
    let mut max_components = 0u32;
    let mut components_split = render_components(
        dims,
        &component_map(config, sim.system().view(), schedule.mask_row(0)),
    );
    for round in 0..total_rounds {
        sim.step();
        occupancy.record(config, sim.system().view());
        let comp = component_map(config, sim.system().view(), schedule.mask_row(round));
        let count = comp.iter().flatten().copied().max().map_or(0, |m| m + 1);
        if count > max_components {
            max_components = count;
            components_split = render_components(dims, &comp);
        }
    }
    let components_final = render_components(
        dims,
        &component_map(config, sim.system().view(), schedule.mask_row(total_rounds)),
    );

    let recording = sim.take_recorder().map(|r| r.finish());
    let report = PartitionReport {
        faults: scenario.plan.faults().len(),
        flaky: scenario.plan.flaky().len(),
        cut_edge_rounds: schedule.cut_edge_rounds(),
        heal_round: scenario.plan.heal_round(),
        consumed: sim.system().consumed_total(),
        rounds: total_rounds,
        bound: stabilization_bound(config),
        rounds_to_stabilize: probe.rounds_to_stabilize(),
        max_components,
        monitor_summaries: sim.monitor_summaries(),
        violations: sim.violations().len(),
        components_split,
        components_final,
        occupancy: occupancy.render(),
    };
    (report, recording)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_core::Params;
    use cellflow_grid::{CellId, GridDims};

    fn scenario(plan: PartitionPlan) -> PartitionScenario {
        let config = SystemConfig::new(
            GridDims::square(5),
            CellId::new(1, 4),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(1, 0))
        .with_source(CellId::new(3, 0));
        PartitionScenario {
            config,
            plan,
            base: FaultPlan::new(),
            rounds: 120,
            settle: 80,
        }
    }

    fn split_plan() -> PartitionPlan {
        PartitionPlan::for_grid(GridDims::square(5)).split_col(2, 10, Some(80))
    }

    #[test]
    fn split_and_heal_campaign_certifies() {
        let report = run_partition(&scenario(split_plan()));
        assert_eq!(report.max_components, 2);
        assert_eq!(report.heal_round, Some(80));
        assert!(report.certified(), "{}", report.render());
        // The deepest-split map shows both islands; the final map is whole.
        assert!(report.components_split.contains('1'));
        assert!(!report.components_final.contains('1'));
        assert!(report.render().contains("verdict: CERTIFIED"));
    }

    #[test]
    fn never_healing_split_fails_certification() {
        let plan = PartitionPlan::for_grid(GridDims::square(5)).split_row(2, 10, None);
        let report = run_partition(&scenario(plan));
        assert!(!report.certified());
        assert_eq!(report.heal_round, None);
        assert!(report.render().contains("verdict: FAILED"));
    }

    #[test]
    fn island_and_flaky_reports_are_byte_identical_across_runs() {
        let island = PartitionPlan::for_grid(GridDims::square(5)).island(
            CellId::new(3, 3),
            CellId::new(4, 4),
            5,
            Some(60),
        );
        let a = run_partition(&scenario(island.clone())).render();
        let b = run_partition(&scenario(island)).render();
        assert_eq!(a, b);
        assert!(a.contains("checksum: "));

        let flaky = PartitionPlan::for_grid(GridDims::square(5)).flaky_links(9, 250, 0, Some(50));
        let a = run_partition(&scenario(flaky.clone())).render();
        let b = run_partition(&scenario(flaky)).render();
        assert_eq!(a, b);
    }

    #[test]
    fn partition_telemetry_registers_counters() {
        use cellflow_telemetry::{MetricSnapshot, Registry};
        let registry = Registry::new();
        let tel = SimTelemetry::new(&registry);
        let report = run_partition_with(&scenario(split_plan()), Some(tel));
        assert!(report.certified());
        let counter = |name: &str| {
            registry.snapshot().into_iter().find_map(|m| match m {
                MetricSnapshot::Counter { name: n, value } if n == name => Some(value),
                _ => None,
            })
        };
        // Cuts ran rounds 10..80; 10 directed edges per round on a 5-wide split.
        assert_eq!(counter("cellflow_sim_partition_rounds_total"), Some(70));
        assert_eq!(counter("cellflow_sim_cut_edge_rounds_total"), Some(700));
        assert_eq!(counter("cellflow_sim_partition_heals_total"), Some(1));
    }

    #[test]
    #[should_panic(expected = "share a grid")]
    fn mismatched_grid_is_rejected() {
        let mut s = scenario(split_plan());
        s.plan = PartitionPlan::for_grid(GridDims::square(4)).split_col(2, 0, Some(10));
        run_partition(&s);
    }
}
