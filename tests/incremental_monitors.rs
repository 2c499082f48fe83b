//! Differential tests for the per-round changed-cell set and the monitors
//! that consume it.
//!
//! `System::changed_cells` lets the mirror writeback, the flight recorder
//! and the standard monitors pay O(changed) per round instead of O(N). The
//! contract is that the set is a superset of the cells whose state differs
//! from the previous round's, and that a monitor fed it reports exactly
//! what a full scan reports. This suite checks both under random crash,
//! recovery, corruption, partition and overload-cascade schedules, with
//! planted violations that persist over quiet rounds. The schedules are
//! fault-dense — several edits per round early on, most rounds flipping a
//! `failed` flag — and then sparse, so routing re-stabilizes between the
//! late faults:
//!
//! * fault rounds stay on the changed-set path, and the set covers every
//!   cell whose state changed, fault edits included;
//! * the sparse `System`'s mirror equals a dense-mode `System`'s;
//! * suites fed the engine's set, or the exact diff, or nothing (`None`,
//!   a full scan) report the same violations round for round and end on
//!   the same summaries — also when attached mid-run or observing with
//!   gaps;
//! * an engine-hooked recording is byte-identical to one that diffs every
//!   cell.

use cellular_flows::core::monitor::{
    CapacityMonitor, ConservationMonitor, MonitorCtx, MonitorViolation, RoutingMonitor,
    SafetyMonitor, StabilizationMonitor, StabilizationProbe,
};
use cellular_flows::core::snapshot::Recorder;
use cellular_flows::core::{
    analysis, expand_overload, standard_monitors, Corruption, Engine, EntityId, ExecMode,
    FaultPlan, Monitor, OverloadTrigger, Params, PartitionPlan, System, SystemConfig, SystemState,
    TokenPolicy,
};
use cellular_flows::geom::Dir;
use cellular_flows::grid::{CellId, GridDims};
use cellular_flows::routing::Dist;
use cellular_flows::sim::FailureModel;
use proptest::prelude::*;

fn config(n: u16, policy_code: u8, capacity: Option<u32>) -> SystemConfig {
    let policy = match policy_code % 3 {
        0 => TokenPolicy::RoundRobin,
        1 => TokenPolicy::Randomized { salt: 0xC4A6 },
        _ => TokenPolicy::FixedPriority,
    };
    let mut cfg = SystemConfig::new(
        GridDims::square(n),
        CellId::new(1, n - 1),
        Params::from_milli(250, 50, 200).unwrap(),
    )
    .unwrap()
    .with_source(CellId::new(1, 0))
    .with_source(CellId::new(n - 1, 0))
    .with_token_policy(policy);
    if let Some(c) = capacity {
        cfg = cfg.with_capacity(c);
    }
    cfg
}

fn decode_dir(code: u64) -> Option<Dir> {
    match code % 5 {
        0 => None,
        k => Some(Dir::ALL[(k - 1) as usize]),
    }
}

/// One scheduled disturbance: a crash, a recovery, or a corruption.
#[derive(Clone, Copy, Debug)]
enum Event {
    Crash,
    Recover,
    Corrupt(Corruption),
}

/// Crashes and recoveries take 6 of the 13 codes, so that most rounds of a
/// dense schedule flip a `failed` flag.
fn decode_event(kind: u8, salt: u64, dist_cap: u32) -> Event {
    match kind % 13 {
        0 | 9 | 10 => Event::Crash,
        1 | 11 | 12 => Event::Recover,
        2 => Event::Corrupt(Corruption::Dist(Dist::Finite(
            (salt % dist_cap as u64) as u32,
        ))),
        3 => Event::Corrupt(Corruption::Next(decode_dir(salt))),
        4 => Event::Corrupt(Corruption::Token(decode_dir(salt))),
        5 => Event::Corrupt(Corruption::Signal(decode_dir(salt))),
        6 => Event::Corrupt(Corruption::NePrev {
            mask: (salt % 16) as u8,
        }),
        7 => Event::Corrupt(Corruption::Jostle { salt }),
        _ => Event::Corrupt(Corruption::Scramble { salt }),
    }
}

/// A disturbance schedule of `(round, (i, j), kind, salt)` tuples: a
/// fault-dense burst of up to 40 in rounds `1..16`, several per round,
/// then up to 5 in rounds `16..60` — after routing has settled, a
/// partition has healed or a late suite has attached. Rounds past the end
/// of a run never fire.
fn schedule_strategy() -> impl Strategy<Value = Vec<(u64, (u16, u16), u8, u64)>> {
    let events = |rounds: std::ops::Range<u64>, count: std::ops::Range<usize>| {
        proptest::collection::vec((rounds, (0u16..8, 0u16..8), 0u8..13, 0u64..u64::MAX), count)
    };
    (events(1..16, 0..40), events(16..60, 0..6)).prop_map(|(mut burst, tail)| {
        burst.extend(tail);
        burst
    })
}

/// Plants violations that no round repairs: two coincident entities on a
/// crashed cell (Theorem 5; `Move` never touches a failed cell) and an
/// off-grid `next` on the target (`Route` never recomputes the target).
fn plant(cfg: &SystemConfig, state: &SystemState, cell: CellId) -> SystemState {
    let dims = cfg.dims();
    let mut state = state.clone();
    let first = state.next_entity_id;
    state.next_entity_id += 2;
    let c = state.cell_mut(dims, cell);
    c.members.insert(EntityId(first), cell.center());
    c.members.insert(EntityId(first + 1), cell.center());
    state.fail(dims, cell);
    let target = cfg.target();
    state.cell_mut(dims, target).next = Some(CellId::new(target.i(), target.j() + 1));
    state
}

/// Ascending indices of the cells where `a` and `b` differ.
fn diff_cells(a: &SystemState, b: &SystemState) -> Vec<u32> {
    (0..a.cells.len() as u32)
        .filter(|&k| a.cells[k as usize] != b.cells[k as usize])
        .collect()
}

/// What the monitors hear about one round besides the state.
struct Round<'a> {
    round: u64,
    failed: &'a [CellId],
    recovered: &'a [CellId],
    corrupted: &'a [CellId],
    ambient_chaos: bool,
}

/// The standard monitor suite, its stabilization verdict made visible
/// every round.
struct Suite {
    monitors: Vec<Box<dyn Monitor>>,
    stabilization: StabilizationProbe,
}

/// One observed round: the fresh violations and the stopwatch reading.
type Verdict = (Vec<MonitorViolation>, Option<u64>);

impl Suite {
    /// [`standard_monitors`], with a probe on the stopwatch.
    fn new(cfg: &SystemConfig) -> Suite {
        let stabilization = StabilizationProbe::new();
        let mut monitors: Vec<Box<dyn Monitor>> = vec![
            Box::new(SafetyMonitor::new()),
            Box::new(RoutingMonitor::new()),
            Box::new(ConservationMonitor::new()),
            Box::new(StabilizationMonitor::new(cfg).with_probe(&stabilization)),
        ];
        if cfg.capacity().is_some() {
            monitors.push(Box::new(CapacityMonitor::new(cfg)));
        }
        let names = |ms: &[Box<dyn Monitor>]| ms.iter().map(|m| m.name()).collect::<Vec<_>>();
        assert_eq!(names(&monitors), names(&standard_monitors(cfg)));
        Suite {
            monitors,
            stabilization,
        }
    }

    /// Observes `sys`'s current state.
    fn observe(&mut self, sys: &System, r: &Round<'_>, changed: Option<&[u32]>) -> Verdict {
        let ctx = MonitorCtx {
            config: sys.config(),
            state: sys.view(),
            round: r.round,
            failed: r.failed,
            recovered: r.recovered,
            corrupted: r.corrupted,
            ambient_chaos: r.ambient_chaos,
            consumed_total: sys.consumed_total(),
            inserted_total: sys.inserted_total(),
            changed,
        };
        let fresh = self.monitors.iter_mut().flat_map(|m| m.observe(&ctx));
        (fresh.collect(), self.stabilization.rounds_to_stabilize())
    }

    fn summaries(&self) -> Vec<String> {
        self.monitors.iter().map(|m| m.summary()).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Suites fed the engine's changed set, the exact diff, or nothing
    /// agree round for round; the set covers every change; the sparse
    /// mirror equals the dense one; and the hooked recording equals a
    /// full-diff one.
    #[test]
    fn changed_sets_match_full_scans_under_random_schedules(
        shape in (3u16..=6, 12u64..=60),
        knobs in (0u8..3, proptest::bool::ANY, 0u64..30),
        split in (0u64..20, 1u16..5), // round 0 = no partition
        late in (1u64..40, 2u64..4),  // (attach round, observation stride)
        schedule in schedule_strategy(),
    ) {
        let (n, rounds) = shape;
        let (policy_code, overloaded, plant_round) = knobs;
        let (split_round, split_col) = split;
        let (attach_round, stride) = late;
        let cfg = config(n, policy_code, overloaded.then_some(2));
        let dims = cfg.dims();
        let planted_cell = CellId::new(n - 1, n / 2);

        let overload = overloaded.then(|| {
            let base = FaultPlan::new().crash_at(2, CellId::new(1, n / 2));
            expand_overload(&cfg, &base, OverloadTrigger::new(2, 2), None, None, rounds).plan
        });
        let mut overload_plans = overload.map(|p| [p.clone(), p]);
        let partition = (split_round > 0).then(|| {
            PartitionPlan::for_grid(dims)
                .split_col(1 + split_col % (n - 1), split_round, Some(split_round + 15))
                .expand(rounds)
        });

        let mut sparse = System::new(cfg.clone());
        let mut dense = System::new(cfg.clone());
        dense.set_exec_mode(ExecMode::Dense);
        sparse.attach_recorder(Box::new(Recorder::for_config(&cfg, 1, 4, "hooked")));
        let mut by_hand = Recorder::for_config(&cfg, 1, 4, "hooked");
        by_hand.record(0, sparse.state());

        let mut full = Suite::new(&cfg);
        let mut engine_fed = Suite::new(&cfg);
        let mut exact_fed = Suite::new(&cfg);
        let mut late_full: Option<Suite> = None;
        let mut late_fed: Option<Suite> = None;
        let mut strided_full = Suite::new(&cfg);
        let mut strided_fed = Suite::new(&cfg);
        let mut observed = sparse.state().clone();

        for round in 0..rounds {
            let mut failed = Vec::new();
            let mut recovered = Vec::new();
            let mut corrupted = Vec::new();
            for &(when, (i, j), kind, salt) in &schedule {
                if when != round {
                    continue;
                }
                let cell = CellId::new(i % n, j % n);
                let event = decode_event(kind, salt, cfg.dist_cap());
                for sys in [&mut sparse, &mut dense] {
                    match event {
                        Event::Crash => sys.fail(cell),
                        Event::Recover => sys.recover(cell),
                        Event::Corrupt(c) => sys.corrupt(cell, c),
                    }
                }
                match event {
                    Event::Crash => failed.push(cell),
                    Event::Recover => recovered.push(cell),
                    Event::Corrupt(_) => corrupted.push(cell),
                }
            }
            if let Some([ps, pd]) = overload_plans.as_mut() {
                let events = ps.apply(&mut sparse, round);
                pd.apply(&mut dense, round);
                failed.extend(events.failed);
                recovered.extend(events.recovered);
                corrupted.extend(events.corrupted);
            }
            if plant_round > 0 && round == plant_round {
                let planted = plant(&cfg, sparse.state(), planted_cell);
                sparse.set_state(planted.clone());
                dense.set_state(planted);
                failed.push(planted_cell);
            }
            let mut ambient_chaos = false;
            if let Some(schedule) = &partition {
                for sys in [&mut sparse, &mut dense] {
                    sys.set_link_cuts(schedule.mask_row(round));
                }
                ambient_chaos = schedule.active(round);
            }

            sparse.step();
            dense.step();
            prop_assert_eq!(sparse.state(), dense.state(), "mirrors diverged at round {}", round);
            by_hand.record(sparse.round(), sparse.state());

            // Against the last observed state: this round's fault edits
            // count as changes too.
            let exact = diff_cells(&observed, sparse.state());
            observed.clone_from(sparse.state());
            let changed = sparse.changed_cells();
            // Only `set_state` (the planted round) and the first round
            // leave the changed-set path.
            if round > 0 && round != plant_round {
                prop_assert!(changed.is_some(), "round {} scanned in full", round);
            }
            if let Some(set) = changed {
                prop_assert!(set.windows(2).all(|w| w[0] < w[1]), "set not ascending at round {}", round);
                for k in &exact {
                    prop_assert!(set.binary_search(k).is_ok(), "cell {} changed unreported at round {}", k, round);
                }
            }
            prop_assert_eq!(dense.changed_cells(), None, "dense rounds bound no change");

            let r = Round {
                round: sparse.round(),
                failed: &failed,
                recovered: &recovered,
                corrupted: &corrupted,
                ambient_chaos,
            };
            let want = full.observe(&sparse, &r, None);
            // The stopwatch's cached verdict against the from-scratch one.
            prop_assert_eq!(
                want.1.is_some(),
                analysis::routing_stabilized(&cfg, sparse.state()),
                "stabilization verdict at round {}", round
            );
            if plant_round > 0 && round == plant_round {
                for monitor in ["safety", "routing"] {
                    prop_assert!(want.0.iter().any(|v| v.monitor == monitor), "planted {} violation missed", monitor);
                }
            }
            prop_assert_eq!(&engine_fed.observe(&sparse, &r, changed), &want, "engine-fed verdicts at round {}", round);
            prop_assert_eq!(&exact_fed.observe(&sparse, &r, Some(&exact)), &want, "exact-fed verdicts at round {}", round);

            if round == attach_round {
                late_full = Some(Suite::new(&cfg));
                late_fed = Some(Suite::new(&cfg));
            }
            if let (Some(lf), Some(lc)) = (late_full.as_mut(), late_fed.as_mut()) {
                let want = lf.observe(&sparse, &r, None);
                prop_assert_eq!(&lc.observe(&sparse, &r, changed), &want, "late verdicts at round {}", round);
            }
            // With gaps the set covers only the last round: a monitor that
            // missed rounds must fall back to a full scan.
            if round % stride == 0 {
                let want = strided_full.observe(&sparse, &r, None);
                prop_assert_eq!(&strided_fed.observe(&sparse, &r, changed), &want, "strided verdicts at round {}", round);
            }
        }
        prop_assert_eq!(engine_fed.summaries(), full.summaries());
        prop_assert_eq!(exact_fed.summaries(), full.summaries());
        prop_assert_eq!(strided_fed.summaries(), strided_full.summaries());
        if let (Some(lf), Some(lc)) = (&late_full, &late_fed) {
            prop_assert_eq!(lc.summaries(), lf.summaries());
        }
        let hooked = sparse.take_recorder().expect("recorder attached").finish();
        prop_assert!(hooked == by_hand.finish(), "hooked recording differs from the full diff");
    }
}

/// The planted off-grid pointer is a routing violation in every round it
/// persists: `⟨1,4⟩` is a unit step from the target `⟨1,3⟩` but lies off
/// the 4×4 grid, so it is no neighbor.
#[test]
fn off_grid_target_pointer_is_reported_every_round() {
    let cfg = config(4, 0, None);
    let mut sys = System::new(cfg.clone());
    sys.run(3);
    sys.set_state(plant(&cfg, sys.state(), CellId::new(3, 2)));
    let mut full = Suite::new(&cfg);
    let mut fed = Suite::new(&cfg);
    for _ in 0..6 {
        sys.step();
        let r = Round {
            round: sys.round(),
            failed: &[],
            recovered: &[],
            corrupted: &[],
            ambient_chaos: false,
        };
        let want = full.observe(&sys, &r, None);
        assert!(
            want.0
                .iter()
                .any(|v| v.detail.contains("routes to non-neighbor ⟨1, 4⟩")),
            "{want:?}"
        );
        assert_eq!(fed.observe(&sys, &r, sys.changed_cells()), want);
    }
}

/// Changed-set tracking keeps the engine's zero-allocation steady state,
/// and a quiescent grid reports an empty set rather than every cell.
#[test]
fn steady_state_changed_sets_stay_allocation_free() {
    let cfg = config(8, 0, None);
    let mut engine = Engine::new(cfg);
    for _ in 0..500 {
        engine.step();
    }
    engine.reset_alloc_events();
    for _ in 0..500 {
        engine.step();
        let changed = engine
            .changed_cells()
            .expect("steady sparse rounds bound the change");
        assert!(changed.len() < 64, "changed set covers the whole grid");
    }
    assert_eq!(engine.alloc_events(), 0, "changed-set tracking allocated");

    let quiet = SystemConfig::new(
        GridDims::square(6),
        CellId::new(1, 5),
        Params::from_milli(250, 50, 200).unwrap(),
    )
    .unwrap();
    let mut engine = Engine::new(quiet);
    assert_eq!(
        engine.changed_cells(),
        None,
        "nothing bounds the first round"
    );
    for _ in 0..100 {
        engine.step();
    }
    assert_eq!(engine.changed_cells(), Some(&[][..]));
    engine.load_state(&engine.export_state());
    assert_eq!(engine.changed_cells(), None, "a load may change any cell");
}
