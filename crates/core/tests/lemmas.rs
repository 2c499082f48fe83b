//! Mechanized counterparts of the paper's supporting lemmas, checked on
//! randomized reachable states — the proof obligations of Section III as
//! executable tests.

use cellflow_core::{
    analysis, gap_free_toward, move_phase, route_phase, signal_phase, update, Params, System,
    SystemConfig,
};
use cellflow_geom::{Dir, Fixed, Point};
use cellflow_grid::{CellId, GridDims};
use proptest::prelude::*;

fn paper_config(n: u16) -> SystemConfig {
    SystemConfig::new(
        GridDims::square(n),
        CellId::new(1, n - 1),
        Params::from_milli(250, 50, 200).unwrap(),
    )
    .unwrap()
    .with_source(CellId::new(1, 0))
}

/// Lemma 4, synthetic: whenever two adjacent cells hold mutually-granting
/// signals with positions satisfying `H` on both sides (the only reachable
/// way mutual grants arise — Lemma 3), the round's `Move` produces **no
/// transfer between them**, for arbitrary `H`-respecting positions.
#[test]
fn lemma4_mutual_signals_never_transfer() {
    let cfg = paper_config(4);
    let dims = cfg.dims();
    let d = cfg.params().d();
    let h = cfg.params().half_l();
    let a = CellId::new(1, 1);
    let b = CellId::new(2, 1);

    let mut runner = proptest::test_runner::TestRunner::default();
    // a's entity: x within [1 + h, 2 − d − h] (H toward b), y anywhere valid.
    let lo_ax = (Fixed::from_int(1) + h).raw();
    let hi_ax = (Fixed::from_int(2) - d - h).raw();
    let lo_bx = (Fixed::from_int(2) + d + h).raw();
    let hi_bx = (Fixed::from_int(3) - h).raw();
    let lo_y = (Fixed::from_int(1) + h).raw();
    let hi_y = (Fixed::from_int(2) - h).raw();
    runner
        .run(
            &(lo_ax..=hi_ax, lo_bx..=hi_bx, lo_y..=hi_y, lo_y..=hi_y),
            |(ax, bx, ay, by)| {
                let mut s = cfg.initial_state();
                s.cell_mut(dims, a).next = Some(b);
                s.cell_mut(dims, b).next = Some(a);
                s.cell_mut(dims, a).signal = Some(b);
                s.cell_mut(dims, b).signal = Some(a);
                s.cell_mut(dims, a).members.insert(
                    cellflow_core::EntityId(0),
                    Point::new(Fixed::from_raw(ax), Fixed::from_raw(ay)),
                );
                s.cell_mut(dims, b).members.insert(
                    cellflow_core::EntityId(1),
                    Point::new(Fixed::from_raw(bx), Fixed::from_raw(by)),
                );
                let out = move_phase(&cfg, &s);
                prop_assert!(
                    out.transfers.is_empty() && out.consumed.is_empty(),
                    "Lemma 4 violated: {:?}",
                    out.transfers
                );
                // Both cells kept their members (identity, new positions).
                prop_assert_eq!(out.state.cell(dims, a).members.len(), 1);
                prop_assert_eq!(out.state.cell(dims, b).members.len(), 1);
                Ok(())
            },
        )
        .unwrap();
}

/// Lemma 8: in any reachable state where a cell is granted permission, every
/// entity that stays on the cell (or transfers to `next`) gets strictly
/// closer to `next`'s cell center along the motion axis.
#[test]
fn lemma8_granted_movement_makes_progress() {
    let mut sys = System::new(paper_config(6));
    for round in 0..400u64 {
        // Inject occasional failures to diversify reachable states.
        if round == 120 {
            sys.fail(CellId::new(1, 3));
        }
        if round == 240 {
            sys.recover(CellId::new(1, 3));
        }
        let before = sys.state().clone();
        sys.step();
        let ev = sys.events();
        let dims = sys.config().dims();
        for &mover in &ev.moved {
            // Move acts on the `next` computed by Route within the same
            // round; that value persists into the post-step state.
            let next = sys.state().cell(dims, mover).next;
            let Some(next) = next else { continue };
            let target_center = next.center();
            for (eid, &old_pos) in &before.cell(dims, mover).members {
                // Where is it now? Same cell, next cell, or consumed.
                let new_pos = sys
                    .state()
                    .cell(dims, mover)
                    .members
                    .get(eid)
                    .or_else(|| sys.state().cell(dims, next).members.get(eid));
                if let Some(&new_pos) = new_pos {
                    assert!(
                        new_pos.manhattan(target_center) < old_pos.manhattan(target_center),
                        "round {round}: {eid} on {mover} did not progress toward {next}"
                    );
                }
            }
        }
    }
}

/// Lemma 9's fairness core, bounded: once routing is stable and failures have
/// ceased, every cell that stays nonempty receives a grant within a bounded
/// number of rounds (each cell has ≤ 3 contenders after stabilization, and
/// blocked strips drain by induction — we check a generous bound).
#[test]
fn lemma9_nonempty_cells_granted_within_bound() {
    let mut sys = System::new(paper_config(8));
    sys.run(20); // stabilize and fill
    let dims = sys.config().dims();
    let bound = 40u64; // generous vs. the ~4-round argument in the paper
    let mut waiting: std::collections::HashMap<CellId, u64> = Default::default();
    for round in 0..600u64 {
        let ev = sys.step();
        let granted: std::collections::HashSet<CellId> =
            ev.grants.iter().map(|&(_, grantee)| grantee).collect();
        for id in dims.iter() {
            let cell = sys.state().cell(dims, id);
            if cell.members.is_empty() || cell.next.is_none() {
                waiting.remove(&id);
                continue;
            }
            if granted.contains(&id) {
                waiting.remove(&id);
            } else {
                let w = waiting.entry(id).or_insert(0);
                *w += 1;
                assert!(
                    *w <= bound,
                    "round {round}: nonempty cell {id} ungranted for {w} rounds"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lemma 3, randomized: H(Signal(Route(x))) for states x sampled from
    /// random prefixes of random executions (with failures).
    #[test]
    fn lemma3_h_after_signal(seed in any::<u64>(), prefix in 0u64..80, fail_round in 0u64..40) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut sys = System::new(paper_config(5));
        for round in 0..prefix {
            if round == fail_round {
                let victim = CellId::new(rng.gen_range(0..5), rng.gen_range(0..5));
                sys.fail(victim);
            }
            sys.step();
        }
        let routed = route_phase(sys.config(), sys.state());
        let signaled = signal_phase(sys.config(), &routed, prefix);
        prop_assert!(cellflow_core::safety::check_h(sys.config(), &signaled).is_ok());
    }

    /// The gap check is exactly the transfer-safety condition: if a strip is
    /// free and an entity enters flush at that edge, it is d-separated from
    /// every resident along the entry axis.
    #[test]
    fn gap_check_implies_entry_separation(
        x_milli in 1_125i64..=1_875,
        y_milli in 1_125i64..=1_875,
    ) {
        let cfg = paper_config(4);
        let id = CellId::new(1, 1);
        let resident = Point::new(Fixed::from_milli(x_milli), Fixed::from_milli(y_milli));
        let h = cfg.params().half_l();
        let d = cfg.params().d();
        for dir in [Dir::East, Dir::West, Dir::North, Dir::South] {
            let strip_free = gap_free_toward(cfg.params(), id, dir, [&resident]);
            // A newcomer flush at that boundary:
            let entry = id.boundary(dir) - h * dir.sign();
            let newcomer = resident.with_along(dir.axis(), entry);
            let sep = (newcomer.along(dir.axis()) - resident.along(dir.axis())).abs();
            if strip_free {
                prop_assert!(sep >= d, "{dir}: strip free but separation {sep} < d");
            }
        }
    }

    /// Theorem 5 under churn: already covered by safety_props, re-checked
    /// here through full `update` composition with the intermediate phases
    /// exposed (route → signal → move equals update).
    #[test]
    fn update_equals_phase_composition(seed in any::<u64>(), rounds in 1u64..40) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = paper_config(4);
        let mut state = cfg.initial_state();
        for round in 0..rounds {
            if rng.gen_bool(0.1) {
                state.fail(cfg.dims(), CellId::new(rng.gen_range(0..4), rng.gen_range(0..4)));
            }
            let (via_update, _) = update(&cfg, &state, round);
            let composed =
                move_phase(&cfg, &signal_phase(&cfg, &route_phase(&cfg, &state), round)).state;
            prop_assert_eq!(&via_update, &composed);
            state = via_update;
        }
    }

    /// Corollary 7 at the system level: after a random batch of failures,
    /// 2·N²+2 update rounds re-stabilize routing.
    #[test]
    fn corollary7_system_level(seed in any::<u64>(), nfail in 0usize..6) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut sys = System::new(paper_config(5));
        sys.run(10);
        for _ in 0..nfail {
            let victim = CellId::new(rng.gen_range(0..5), rng.gen_range(0..5));
            if victim != sys.config().target() {
                sys.fail(victim);
            }
        }
        sys.run(2 * 25 + 2);
        prop_assert!(analysis::routing_stabilized(sys.config(), sys.state()));
    }
}
