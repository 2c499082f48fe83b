//! Equivalence of the message-passing deployment and the shared-variable
//! reference: the mechanized form of the paper's claim (§II-B) that the
//! discrete-transition-system model faithfully captures a message-passing
//! implementation.

use cellflow_core::{
    update, CellState, FaultKind, FaultPlan, Params, System, SystemConfig, SystemState,
};
use cellflow_geom::Point;
use cellflow_grid::{CellId, GridDims};
use cellflow_net::NetSystem;
use cellflow_routing::Dist;
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

/// The reference implementation run under the same failure schedule.
fn reference_run(
    config: &SystemConfig,
    rounds: u64,
    schedule: &[(u64, CellId, bool)],
) -> (SystemState, u64, u64) {
    let mut sys = System::new(config.clone());
    for round in 0..rounds {
        for &(when, cell, recover) in schedule {
            if when == round {
                if recover {
                    sys.recover(cell);
                } else {
                    sys.fail(cell);
                }
            }
        }
        sys.step();
    }
    (
        sys.state().clone(),
        sys.consumed_total(),
        sys.inserted_total(),
    )
}

/// With a single source, the distributed runtime's private id pool (rank 0)
/// coincides with the reference's sequential counter, so entire states must
/// be **bit-identical** (modulo the global counter the deployment lacks).
#[test]
fn single_source_states_are_bit_identical() {
    for rounds in [1u64, 7, 40, 150] {
        let cfg = single_source_config(5);
        let net = NetSystem::new(cfg.clone()).unwrap().run(rounds).unwrap();
        let (ref_state, ref_consumed, ref_inserted) = reference_run(&cfg, rounds, &[]);
        assert_eq!(net.state.cells, ref_state.cells, "diverged at K={rounds}");
        assert_eq!(net.consumed, ref_consumed);
        assert_eq!(net.inserted, ref_inserted);
    }
}

#[test]
fn single_source_with_failures_bit_identical() {
    let schedule = vec![
        (5u64, CellId::new(1, 2), false),
        (9, CellId::new(0, 3), false),
        (40, CellId::new(1, 2), true),
        (55, CellId::new(1, 4), false),
    ];
    let cfg = single_source_config(5);
    let net = NetSystem::new(cfg.clone())
        .unwrap()
        .with_schedule(schedule.clone())
        .run(120)
        .unwrap();
    let (ref_state, ref_consumed, ref_inserted) = reference_run(&cfg, 120, &schedule);
    assert_eq!(net.state.cells, ref_state.cells);
    assert_eq!(net.consumed, ref_consumed);
    assert_eq!(net.inserted, ref_inserted);
}

/// With several sources, identifiers come from disjoint pools (a deployment
/// cannot share a counter), so compare with identifiers erased: all control
/// variables plus the multiset of entity positions per cell.
type ErasedCell = (
    Vec<Point>,
    Dist,
    Option<CellId>,
    Vec<CellId>,
    Option<CellId>,
    Option<CellId>,
    bool,
);

fn erased(state: &SystemState) -> Vec<ErasedCell> {
    state
        .cells
        .iter()
        .map(|c: &CellState| {
            let mut positions: Vec<Point> = c.members.values().copied().collect();
            positions.sort();
            (
                positions,
                c.dist,
                c.next,
                c.ne_prev.iter().copied().collect(),
                c.token,
                c.signal,
                c.failed,
            )
        })
        .collect()
}

#[test]
fn multi_source_equivalent_modulo_ids() {
    let cfg = SystemConfig::new(
        GridDims::square(6),
        CellId::new(3, 3),
        Params::from_milli(200, 50, 150).unwrap(),
    )
    .unwrap()
    .with_source(CellId::new(0, 0))
    .with_source(CellId::new(5, 0))
    .with_source(CellId::new(0, 5));
    let net = NetSystem::new(cfg.clone()).unwrap().run(200).unwrap();
    let (ref_state, ref_consumed, ref_inserted) = reference_run(&cfg, 200, &[]);
    assert_eq!(erased(&net.state), erased(&ref_state));
    assert_eq!(net.consumed, ref_consumed);
    assert_eq!(net.inserted, ref_inserted);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized equivalence: random grids, parameters, and failure
    /// schedules produce bit-identical single-source behavior.
    #[test]
    fn equivalence_under_random_schedules(
        n in 3u16..=6,
        rounds in 1u64..=80,
        l in 100i64..=300,
        schedule in proptest::collection::vec(
            (0u64..80, (0u16..6, 0u16..6), prop::bool::ANY),
            0..6,
        ),
    ) {
        let params = Params::from_milli(l, 50, l / 2 + 10).expect("valid");
        let cfg = SystemConfig::new(GridDims::square(n), CellId::new(1, n - 1), params)
            .expect("in bounds")
            .with_source(CellId::new(1, 0));
        let schedule: Vec<(u64, CellId, bool)> = schedule
            .into_iter()
            .map(|(when, (i, j), rec)| (when, CellId::new(i % n, j % n), rec))
            .collect();
        let net = NetSystem::new(cfg.clone()).unwrap()
            .with_schedule(schedule.clone())
            .run(rounds)
            .unwrap();
        let (ref_state, ref_consumed, ref_inserted) = reference_run(&cfg, rounds, &schedule);
        prop_assert_eq!(&net.state.cells, &ref_state.cells);
        prop_assert_eq!(net.consumed, ref_consumed);
        prop_assert_eq!(net.inserted, ref_inserted);
    }
}

/// The equivalence also holds under the randomized token policy: both sides
/// key the pseudo-random choice on the same (salt, cell, round) triple.
#[test]
fn randomized_token_policy_equivalent() {
    use cellflow_core::TokenPolicy;
    let cfg = SystemConfig::new(
        GridDims::square(5),
        CellId::new(2, 2),
        Params::from_milli(200, 50, 150).unwrap(),
    )
    .unwrap()
    .with_source(CellId::new(0, 2))
    .with_source(CellId::new(2, 0))
    .with_token_policy(TokenPolicy::Randomized { salt: 0xFEED });
    let net = NetSystem::new(cfg.clone()).unwrap().run(150).unwrap();
    let (ref_state, ref_consumed, _) = reference_run(&cfg, 150, &[]);
    assert_eq!(erased(&net.state), erased(&ref_state));
    assert_eq!(net.consumed, ref_consumed);
}

/// The pure `update` composition under `plan`, whose events each round
/// edits the state as the shared-variable model reads them (every kind of
/// crash is `fail`) before that round's `update`. Returns the final state
/// and the consumed and inserted totals. The engine behind [`System`] and
/// the deployment's nodes share their `Signal` and `Move` rules
/// (`cellflow_core::kernel`), so only this oracle, whose phases share none
/// of those rules, can tell a bug in them.
fn oracle_run(config: &SystemConfig, plan: &FaultPlan, rounds: u64) -> (SystemState, u64, u64) {
    let (dims, target) = (config.dims(), config.target());
    let mut state = config.initial_state();
    let (mut consumed, mut inserted) = (0, 0);
    for round in 0..rounds {
        for event in plan.events_at(round) {
            let cell = event.cell;
            match event.kind {
                FaultKind::Recover => state.recover(dims, cell, target),
                FaultKind::Corrupt(c) => c.apply(config, cell, state.cell_mut(dims, cell)),
                FaultKind::Crash
                | FaultKind::HardCrash
                | FaultKind::Kill
                | FaultKind::OverloadCrash => state.fail(dims, cell),
            }
        }
        let (next, events) = update(config, &state, round);
        consumed += events.consumed.len() as u64;
        inserted += events.inserted.len() as u64;
        state = next;
    }
    (state, consumed, inserted)
}

/// The deployment against the pure phases directly: two contending sources
/// under every token policy.
#[test]
fn deployment_matches_the_pure_oracle() {
    use cellflow_core::TokenPolicy;
    for policy in [
        TokenPolicy::RoundRobin,
        TokenPolicy::FixedPriority,
        TokenPolicy::Randomized { salt: 0xFEED },
    ] {
        let cfg = SystemConfig::new(
            GridDims::square(5),
            CellId::new(2, 2),
            Params::from_milli(200, 50, 150).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(0, 2))
        .with_source(CellId::new(2, 0))
        .with_token_policy(policy);
        let net = NetSystem::new(cfg.clone()).unwrap().run(150).unwrap();
        let (oracle, consumed, _) = oracle_run(&cfg, &FaultPlan::new(), 150);
        assert_eq!(erased(&net.state), erased(&oracle), "{policy:?}");
        assert_eq!(net.consumed, consumed, "{policy:?}");
    }
}

/// The deployment against the pure phases under faults: crashes and
/// recoveries (the target's too), a hard crash with its re-spawn from the
/// snapshot store, and register corruptions, with and without lossless
/// message chaos (duplication and reordering). Corruptions that move
/// entities stay out, since they depend on entity identifiers, which two
/// sources mint differently here; partitions stay out, since the pure
/// `update` has no link cuts.
#[test]
fn deployment_matches_the_pure_oracle_under_faults() {
    use cellflow_core::{Corruption, TokenPolicy};
    use cellflow_geom::Dir;
    use cellflow_net::ChaosConfig;
    let plan = FaultPlan::new()
        .crash_at(10, CellId::new(1, 2))
        .corrupt_at(18, CellId::new(2, 1), Corruption::Dist(Dist::Finite(0)))
        .hard_crash_at(24, CellId::new(3, 2))
        .recover_at(36, CellId::new(1, 2))
        .corrupt_at(42, CellId::new(1, 1), Corruption::Token(Some(Dir::East)))
        .corrupt_at(47, CellId::new(2, 3), Corruption::Next(Some(Dir::West)))
        .recover_at(55, CellId::new(3, 2))
        .corrupt_at(61, CellId::new(0, 1), Corruption::Signal(Some(Dir::North)))
        .corrupt_at(66, CellId::new(3, 1), Corruption::NePrev { mask: 0b0101 })
        .crash_at(72, CellId::new(2, 2))
        .recover_at(80, CellId::new(2, 2));
    let lossless = ChaosConfig {
        dup_rate: 0.2,
        reorder_rate: 0.2,
        until_round: Some(100),
        ..ChaosConfig::quiet(29)
    };
    for policy in [
        TokenPolicy::RoundRobin,
        TokenPolicy::FixedPriority,
        TokenPolicy::Randomized { salt: 0xFEED },
    ] {
        let cfg = SystemConfig::new(
            GridDims::square(5),
            CellId::new(2, 2),
            Params::from_milli(200, 50, 150).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(0, 2))
        .with_source(CellId::new(2, 0))
        .with_token_policy(policy);
        let (oracle, consumed, inserted) = oracle_run(&cfg, &plan, 150);
        for chaos in [None, Some(lossless)] {
            let mut net = NetSystem::new(cfg.clone()).unwrap().with_plan(plan.clone());
            if let Some(chaos) = chaos {
                net = net.with_chaos(chaos);
            }
            let report = net.run(150).unwrap();
            let run = format!("{policy:?}, chaos {}", chaos.is_some());
            assert_eq!(erased(&report.state), erased(&oracle), "{run}");
            assert_eq!(report.consumed, consumed, "{run}");
            assert_eq!(report.inserted, inserted, "{run}");
        }
    }
}
