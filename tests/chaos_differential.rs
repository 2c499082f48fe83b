//! Property-based differential testing of the chaos subsystem: arbitrary
//! fault campaigns driven simultaneously through the message-passing runtime
//! (`cellflow-net`) and the shared-variable reference (`cellflow-core` via
//! `cellflow-sim`'s `FailureModel`), asserting the deployments are
//! observationally identical — the paper's §II-B claim, now under fire.

use cellular_flows::core::{FaultPlan, Params, SystemConfig};
use cellular_flows::grid::{CellId, GridDims};
use cellular_flows::net::NetSystem;
use cellular_flows::sim::{FailureModel, Simulation};
use proptest::prelude::*;

fn single_source_config(n: u16) -> SystemConfig {
    SystemConfig::new(
        GridDims::square(n),
        CellId::new(1, n - 1),
        Params::from_milli(250, 50, 200).unwrap(),
    )
    .unwrap()
    .with_source(CellId::new(1, 0))
}

/// Runs the shared-variable reference under `plan` via the `FailureModel`
/// impl — the exact code path simulations use, not a bespoke reimplementation.
fn reference(config: &SystemConfig, rounds: u64, plan: &FaultPlan) -> (Vec<String>, u64, u64) {
    let mut sim = Simulation::new(config.clone(), 0)
        .with_failure_model(plan.clone())
        .with_safety_checks(true);
    sim.run(rounds);
    let dists = sim
        .system()
        .state()
        .cells
        .iter()
        .map(|c| format!("{:?}", c.dist))
        .collect();
    (
        dists,
        sim.system().consumed_total(),
        sim.system().inserted_total(),
    )
}

/// A random crash/recover event stream over an `n × n` grid.
fn plan_strategy(n: u16, rounds: u64) -> impl Strategy<Value = FaultPlan> {
    proptest::collection::vec((0..rounds, (0..n, 0..n), proptest::bool::ANY), 0..8).prop_map(
        move |events| {
            let mut plan = FaultPlan::new();
            for (round, (i, j), recover) in events {
                let cell = CellId::new(i, j);
                plan = if recover {
                    plan.recover_at(round, cell)
                } else {
                    plan.crash_at(round, cell)
                };
            }
            plan
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random crash/recovery schedules: the net runtime (driven by
    /// `with_schedule`-style plans) and the reference (driven by the
    /// `FailureModel` impl of the same plan) agree on consumed/inserted
    /// counts and the entire final `dist` table.
    #[test]
    fn random_schedules_are_differential(
        n in 3u16..=5,
        rounds in 10u64..=80,
        plan in plan_strategy(5, 80),
    ) {
        let cfg = single_source_config(n);
        // Clamp cells outside smaller grids back in bounds.
        let mut clamped = FaultPlan::new();
        for event in plan.events() {
            let cell = CellId::new(event.cell.i() % n, event.cell.j() % n);
            clamped = match event.kind {
                cellular_flows::core::FaultKind::Recover => clamped.recover_at(event.round, cell),
                _ => clamped.crash_at(event.round, cell),
            };
        }
        let net = NetSystem::new(cfg.clone())
            .unwrap()
            .with_plan(clamped.clone())
            .run(rounds)
            .unwrap();
        let (ref_dists, ref_consumed, ref_inserted) = reference(&cfg, rounds, &clamped);
        let net_dists: Vec<String> = net
            .state
            .cells
            .iter()
            .map(|c| format!("{:?}", c.dist))
            .collect();
        prop_assert_eq!(net_dists, ref_dists);
        prop_assert_eq!(net.consumed, ref_consumed);
        prop_assert_eq!(net.inserted, ref_inserted);
    }

    /// Hard crashes (barrier leave + re-spawn from the store in the net
    /// runtime, plain `fail` in the reference) preserve the differential
    /// guarantee on a lossless fabric.
    #[test]
    fn hard_crash_respawns_are_differential(
        victim in (0u16..4, 0u16..4),
        crash_round in 5u64..30,
        gap in 5u64..25,
    ) {
        let cfg = single_source_config(4);
        let cell = CellId::new(victim.0, victim.1);
        let plan = FaultPlan::new()
            .hard_crash_at(crash_round, cell)
            .recover_at(crash_round + gap, cell);
        let net = NetSystem::new(cfg.clone())
            .unwrap()
            .with_plan(plan.clone())
            .run(80)
            .unwrap();
        let (ref_dists, ref_consumed, ref_inserted) = reference(&cfg, 80, &plan);
        let net_dists: Vec<String> = net
            .state
            .cells
            .iter()
            .map(|c| format!("{:?}", c.dist))
            .collect();
        prop_assert_eq!(net_dists, ref_dists);
        prop_assert_eq!(net.consumed, ref_consumed);
        prop_assert_eq!(net.inserted, ref_inserted);
    }
}

/// The `FailureModel` impl and `with_schedule` interpret one plan
/// identically (a guard against the two runtimes drifting apart in how they
/// read the shared vocabulary).
#[test]
fn failure_model_and_schedule_read_plans_identically() {
    let cfg = single_source_config(4);
    let cell = CellId::new(2, 1);
    let plan = FaultPlan::new().crash_at(7, cell).recover_at(19, cell);
    let via_plan = NetSystem::new(cfg.clone())
        .unwrap()
        .with_plan(plan.clone())
        .run(50)
        .unwrap();
    let via_schedule = NetSystem::new(cfg.clone())
        .unwrap()
        .with_schedule([(7u64, cell, false), (19, cell, true)])
        .run(50)
        .unwrap();
    assert_eq!(via_plan, via_schedule);
    let mut model = plan;
    let mut sys = cellular_flows::core::System::new(cfg);
    for round in 0..50 {
        model.apply(&mut sys, round);
        sys.step();
    }
    assert_eq!(via_plan.state.cells, sys.state().cells);
}
