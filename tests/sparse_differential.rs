//! Property-based differential testing of the sparse active-set scheduler:
//! random grids, token policies, fault-dense crash/recover/corruption
//! schedules, scripted partitions, and endogenous-overload campaigns driven
//! simultaneously through a dense `System` and a sparse one — asserting
//! identical `SystemState`, identical `RoundEvents`, and identical monitor
//! verdicts after every single round, and that the sparse round after a
//! fault edit still bounds its change with a set covering every changed
//! cell.
//!
//! The dense engine is the reference (itself pinned to the pure phase
//! composition by `engine_differential.rs`); the active-set scheduler is
//! the optimization. This suite is what licenses
//! running every campaign — chaos, stabilize, cascade, partition — on the
//! sparse path by default.

use cellular_flows::core::monitor::MonitorCtx;
use cellular_flows::core::monitor::MonitorViolation;
use cellular_flows::core::{
    expand_overload, standard_monitors, Corruption, Engine, ExecMode, Monitor, OverloadTrigger,
    Params, PartitionPlan, System, SystemConfig, TokenPolicy,
};
use cellular_flows::geom::Dir;
use cellular_flows::grid::{CellId, GridDims};
use cellular_flows::routing::Dist;
use cellular_flows::sim::FailureModel;
use proptest::prelude::*;

/// One scheduled disturbance in a differential run.
#[derive(Clone, Copy, Debug)]
enum Event {
    Crash,
    Recover,
    Corrupt(Corruption),
}

fn decode_dir(code: u64) -> Option<Dir> {
    match code % 5 {
        0 => None,
        k => Some(Dir::ALL[(k - 1) as usize]),
    }
}

/// Decodes `(kind, salt)` into a disturbance, covering every `Corruption`
/// variant plus crash and recovery, which take 6 of the 14 codes so that
/// most rounds of a dense schedule flip a `failed` flag.
fn decode_event(kind: u8, salt: u64, dist_cap: u32) -> Event {
    match kind % 14 {
        0 | 10 | 11 => Event::Crash,
        1 | 12 | 13 => Event::Recover,
        2 => Event::Corrupt(Corruption::Dist(Dist::Finite(
            (salt % dist_cap as u64) as u32,
        ))),
        3 => Event::Corrupt(Corruption::Dist(Dist::Infinity)),
        4 => Event::Corrupt(Corruption::Next(decode_dir(salt))),
        5 => Event::Corrupt(Corruption::Token(decode_dir(salt))),
        6 => Event::Corrupt(Corruption::Signal(decode_dir(salt))),
        7 => Event::Corrupt(Corruption::NePrev {
            mask: (salt % 16) as u8,
        }),
        8 => Event::Corrupt(Corruption::Jostle { salt }),
        _ => Event::Corrupt(Corruption::Scramble { salt }),
    }
}

fn config(n: u16, policy_code: u8, extra_source: bool, capacity: Option<u32>) -> SystemConfig {
    let policy = match policy_code % 3 {
        0 => TokenPolicy::RoundRobin,
        1 => TokenPolicy::Randomized { salt: 0xD1FF },
        _ => TokenPolicy::FixedPriority,
    };
    let mut cfg = SystemConfig::new(
        GridDims::square(n),
        CellId::new(1, n - 1),
        Params::from_milli(250, 50, 200).unwrap(),
    )
    .unwrap()
    .with_source(CellId::new(1, 0))
    .with_token_policy(policy);
    if extra_source {
        cfg = cfg.with_source(CellId::new(n - 1, 0));
    }
    if let Some(c) = capacity {
        cfg = cfg.with_capacity(c);
    }
    cfg
}

/// A disturbance schedule of `(round, (i, j), kind, salt)` tuples: a
/// fault-dense burst of up to 40 in rounds `1..16`, several per round,
/// then up to 5 in rounds `16..60`, once routing has settled or a
/// partition has healed. Rounds past the end of a run never fire.
fn schedule_strategy() -> impl Strategy<Value = Vec<(u64, (u16, u16), u8, u64)>> {
    let events = |rounds: std::ops::Range<u64>, count: std::ops::Range<usize>| {
        proptest::collection::vec((rounds, (0u16..8, 0u16..8), 0u8..14, 0u64..u64::MAX), count)
    };
    (events(1..16, 0..40), events(16..60, 0..6)).prop_map(|(mut burst, tail)| {
        burst.extend(tail);
        burst
    })
}

/// One execution variant under test, with its own monitor suite.
struct Variant {
    system: System,
    monitors: Vec<Box<dyn Monitor>>,
    violations: Vec<MonitorViolation>,
}

impl Variant {
    fn new(cfg: &SystemConfig, mode: ExecMode) -> Variant {
        let mut system = System::new(cfg.clone());
        system.set_exec_mode(mode);
        Variant {
            system,
            monitors: standard_monitors(cfg),
            violations: Vec::new(),
        }
    }

    /// Evaluates the monitor suite on the just-completed round.
    fn observe(&mut self, cfg: &SystemConfig, round: u64, corrupted: &[CellId]) {
        let ctx = MonitorCtx {
            config: cfg,
            state: self.system.view(),
            round: round + 1,
            failed: &[],
            recovered: &[],
            corrupted,
            ambient_chaos: false,
            consumed_total: self.system.consumed_total(),
            inserted_total: self.system.inserted_total(),
            changed: self.system.changed_cells(),
        };
        for monitor in self.monitors.iter_mut() {
            self.violations.extend(monitor.observe(&ctx));
        }
    }

    fn summaries(&self) -> Vec<String> {
        self.monitors.iter().map(|m| m.summary()).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A dense `System` and a sparse one agree on the full successor
    /// state, the full event record, and every monitor verdict, round for
    /// round, under
    /// arbitrary crash/recover/corruption schedules, scripted partitions
    /// (with heal), endogenous-overload campaigns on finite-capacity
    /// grids, and every token policy.
    #[test]
    fn sparse_matches_dense_under_random_schedules(
        shape in (3u16..=6, 10u64..=60),
        knobs in (0u8..3, proptest::bool::ANY, proptest::bool::ANY),
        split in (0u64..20, 1u16..5), // round 0 = run without a partition
        schedule in schedule_strategy(),
    ) {
        let (n, rounds) = shape;
        let (policy_code, extra_source, overloaded) = knobs;
        let (split_round, split_col) = split;
        let cfg = config(n, policy_code, extra_source, overloaded.then_some(2));
        let dims = cfg.dims();
        let dist_cap = cfg.dist_cap();

        // Endogenous overload: precompute the cascade the same way the
        // campaign runner does, then replay its plan on every variant
        // (one clone each — `apply` advances an internal cursor).
        let overload_plan = overloaded.then(|| {
            let base = cellular_flows::core::FaultPlan::new()
                .crash_at(2, CellId::new(1, n / 2));
            expand_overload(&cfg, &base, OverloadTrigger::new(2, 2), None, None, rounds).plan
        });
        let mut overload_plans = overload_plan.map(|p| [p.clone(), p]);

        // Scripted partition: a column split that heals mid-run, before a
        // column in 1..n so both sides have cells.
        let partition = (split_round > 0).then(|| {
            PartitionPlan::for_grid(dims)
                .split_col(1 + (split_col - 1) % (n - 1), split_round, Some(split_round + 15))
                .expand(rounds)
        });

        let mut dense = Variant::new(&cfg, ExecMode::Dense);
        let mut sparse = Variant::new(&cfg, ExecMode::Sparse);
        let mut before = sparse.system.state().clone();

        for round in 0..rounds {
            let mut corrupted: Vec<CellId> = Vec::new();
            for &(when, (i, j), kind, salt) in &schedule {
                if when != round {
                    continue;
                }
                let cell = CellId::new(i % n, j % n);
                let event = decode_event(kind, salt, dist_cap);
                for v in [&mut dense, &mut sparse] {
                    match event {
                        Event::Crash => v.system.fail(cell),
                        Event::Recover => v.system.recover(cell),
                        Event::Corrupt(c) => v.system.corrupt(cell, c),
                    }
                }
                if matches!(event, Event::Corrupt(_)) {
                    corrupted.push(cell);
                }
            }
            if let Some([pd, ps]) = overload_plans.as_mut() {
                pd.apply(&mut dense.system, round);
                ps.apply(&mut sparse.system, round);
            }
            if let Some(schedule) = &partition {
                for v in [&mut dense, &mut sparse] {
                    v.system.set_link_cuts(schedule.mask_row(round));
                }
            }

            let dense_events = dense.system.step().clone();
            let sparse_events = sparse.system.step().clone();
            prop_assert_eq!(
                sparse.system.state(),
                dense.system.state(),
                "sparse state diverged at round {} (n = {}, policy {})",
                round, n, policy_code
            );
            prop_assert_eq!(&sparse_events, &dense_events, "sparse events diverged at round {}", round);
            if round > 0 {
                let Some(set) = sparse.system.changed_cells() else {
                    return Err(TestCaseError::fail(format!("round {round} scanned in full")));
                };
                for (k, (a, b)) in before.cells.iter().zip(&sparse.system.state().cells).enumerate() {
                    prop_assert!(a == b || set.binary_search(&(k as u32)).is_ok(), "cell {} changed unreported at round {}", k, round);
                }
            }
            before.clone_from(sparse.system.state());

            for v in [&mut dense, &mut sparse] {
                v.observe(&cfg, round, &corrupted);
            }
            prop_assert_eq!(&sparse.violations, &dense.violations, "sparse verdicts diverged at round {}", round);
        }
        prop_assert_eq!(sparse.summaries(), dense.summaries());
    }
}

/// The sparse zero-alloc claim, checked mechanically: once warm, a
/// steady-state sparse round grows no buffer — the epoch-stamped mark sets
/// recycle their backing stores, the `Route` update buffer is reused, and
/// the active lists only shrink back to their high-water marks.
#[test]
fn steady_state_sparse_rounds_do_not_allocate() {
    let cfg = config(8, 0, true, None);
    let mut engine = Engine::new(cfg);
    assert_eq!(
        engine.exec_mode(),
        ExecMode::Sparse,
        "sparse is the default"
    );
    for _ in 0..500 {
        engine.step();
    }
    engine.reset_alloc_events();
    for _ in 0..500 {
        engine.step();
    }
    assert_eq!(
        engine.alloc_events(),
        0,
        "steady-state sparse rounds must be allocation-free"
    );
    // And the scheduler is actually sparse: the steady flow keeps the
    // active set well under the full 64-cell grid.
    assert!(engine.active_cells() < 64, "active set never shrank");
}

/// A quiescent grid is O(active): with no sources there is nothing to do,
/// and the active set collapses to empty — rounds become no-ops rather
/// than full sweeps.
#[test]
fn quiescent_grids_run_empty_rounds() {
    let cfg = SystemConfig::new(
        GridDims::square(12),
        CellId::new(1, 11),
        Params::from_milli(250, 50, 200).unwrap(),
    )
    .unwrap();
    let mut engine = Engine::new(cfg);
    for _ in 0..600 {
        engine.step();
    }
    assert_eq!(engine.active_cells(), 0, "quiescent grid kept cells active");
}
