//! Partition determinism, pinned three ways (the ISSUE-7 proptest suite):
//!
//! 1. a partition campaign's checksummed report is **byte-identical** across
//!    runs of the same seeded scenario;
//! 2. expanding a [`PartitionPlan`] into its per-round schedule is **stable**
//!    — re-expansion reproduces the identical schedule, a longer horizon is
//!    a superset that agrees on every shared round, and every cut reads as
//!    healed at its heal round;
//! 3. the message-passing deployment under a [`LinkFaultTransport`] matches
//!    the shared-variable reference driving the same masks **bit for bit**,
//!    across random *asymmetric* directed-cut schedules (A→B dead while
//!    B→A lives).

use cellflow_core::{FaultPlan, Params, PartitionPlan, System, SystemConfig};
use cellflow_grid::{CellId, GridDims};
use cellflow_net::NetSystem;
use cellflow_sim::partition::{run_partition, PartitionScenario};
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

/// Directed neighbor of `(i, j)` in direction `d` (0=E, 1=W, 2=N, 3=S),
/// if it stays on the grid.
fn neighbor(dims: GridDims, i: u16, j: u16, d: u8) -> Option<(CellId, CellId)> {
    let from = CellId::new(i, j);
    let to = match d {
        0 if i + 1 < dims.nx() => CellId::new(i + 1, j),
        1 if i > 0 => CellId::new(i - 1, j),
        2 if j + 1 < dims.ny() => CellId::new(i, j + 1),
        3 if j > 0 => CellId::new(i, j - 1),
        _ => return None,
    };
    Some((from, to))
}

/// A random plan of asymmetric directed cuts (each severs one direction of
/// one edge over its own window) plus an optional flaky band.
fn asymmetric_plan(
    n: u16,
    cuts: &[(u16, u16, u8, u64, u64)],
    flaky: Option<(u64, u32, u64)>,
) -> PartitionPlan {
    let dims = GridDims::square(n);
    let mut plan = PartitionPlan::for_grid(dims);
    for &(i, j, d, start, len) in cuts {
        let (i, j) = (i % n, j % n);
        if let Some((from, to)) = neighbor(dims, i, j, d % 4) {
            plan = plan.cut(from, to, start, Some(start + 1 + len));
        }
    }
    if let Some((seed, rate, heal)) = flaky {
        plan = plan.flaky_links(seed, rate % 400, 0, Some(heal.max(1)));
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1: the rendered, checksummed campaign report is
    /// byte-identical across two runs of the same scenario.
    #[test]
    fn reports_are_byte_identical_per_seed(
        seed in 0u64..1_000,
        rate in 50u32..350,
        heal in 20u64..60,
    ) {
        let plan = PartitionPlan::for_grid(GridDims::square(4))
            .flaky_links(seed, rate, 5, Some(heal));
        let scenario = PartitionScenario {
            config: single_source_config(4),
            plan,
            base: FaultPlan::new(),
            rounds: heal + 10,
            settle: 40,
        };
        let a = run_partition(&scenario).render();
        let b = run_partition(&scenario).render();
        prop_assert_eq!(&a, &b);
        prop_assert!(a.contains("checksum: "));
    }

    /// Property 2: plan expansion is stable — identical on re-expansion,
    /// prefix-consistent across horizons, and healed at the heal round.
    #[test]
    fn expansion_is_stable_and_heals_on_schedule(
        n in 3u16..=5,
        cuts in proptest::collection::vec(
            (0u16..5, 0u16..5, 0u8..4, 0u64..40, 0u64..30),
            1..6,
        ),
        flaky_seed in 0u64..500,
        horizon in 50u64..90,
    ) {
        let plan = asymmetric_plan(n, &cuts, Some((flaky_seed, 200, 45)));
        let first = plan.expand(horizon);
        prop_assert_eq!(&first, &plan.expand(horizon), "re-expansion diverged");

        // A longer horizon agrees with the shorter one on every round both
        // cover; past its own horizon the short schedule reads all-healed.
        let longer = plan.expand(horizon + 25);
        for round in 0..horizon {
            prop_assert_eq!(
                first.mask_row(round),
                longer.mask_row(round),
                "round {} differs across horizons",
                round
            );
        }
        prop_assert!(first.mask_row(horizon + 5).iter().all(|&m| m == 0));

        // Every scripted cut is healed from its heal round on (when the
        // horizon reaches it).
        if let Some(heal) = plan.heal_round() {
            if heal < horizon + 25 {
                prop_assert!(longer.mask_row(heal).iter().all(|&m| m == 0));
                prop_assert!(!longer.active(heal));
            }
        }
    }

    /// Property 3: sim == net under random asymmetric-cut schedules — the
    /// deployment suppressing announcements on the wire is bit-identical to
    /// the engine masking the same slots.
    #[test]
    fn deployment_matches_reference_under_asymmetric_cuts(
        n in 3u16..=5,
        rounds in 20u64..=70,
        cuts in proptest::collection::vec(
            (0u16..5, 0u16..5, 0u8..4, 0u64..50, 0u64..25),
            1..5,
        ),
    ) {
        let cfg = single_source_config(n);
        let plan = asymmetric_plan(n, &cuts, None);
        let report = NetSystem::new(cfg.clone())
            .unwrap()
            .with_partition(plan.clone())
            .run_monitored(rounds, cellflow_core::standard_monitors(&cfg))
            .unwrap();
        prop_assert!(report.violations.is_empty(), "monitors fired: {:?}", report.violations);

        let schedule = plan.expand(rounds);
        let mut reference = System::new(cfg);
        for round in 0..rounds {
            reference.set_link_cuts(schedule.mask_row(round));
            reference.step();
        }
        prop_assert_eq!(&report.state.cells, &reference.state().cells);
        prop_assert_eq!(report.consumed, reference.consumed_total());
        prop_assert_eq!(report.inserted, reference.inserted_total());
    }
}
