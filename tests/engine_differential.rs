//! Property-based differential testing of the arena-backed round engine:
//! random grids, sources, token policies, and crash/recover/corruption
//! schedules driven simultaneously through the engine-backed `System` and
//! the legacy clone-based phase composition (`update` =
//! `route_phase ∘ signal_phase ∘ move_phase`), asserting identical
//! `SystemState` *and* identical `RoundEvents` after every single round.
//!
//! The pure phases are the specification (they mirror the paper's Figures
//! 4–6 line by line); the engine is the optimization. This suite is what
//! licenses every caller to run on the fast path.

use cellular_flows::core::{update, Corruption, Engine, Params, System, SystemConfig, TokenPolicy};
use cellular_flows::geom::Dir;
use cellular_flows::grid::{CellId, GridDims};
use cellular_flows::routing::Dist;
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
/// variant plus crash and recovery.
fn decode_event(kind: u8, salt: u64, dist_cap: u32) -> Event {
    match kind % 10 {
        0 => Event::Crash,
        1 => Event::Recover,
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

fn config(n: u16, policy_code: u8, extra_source: bool) -> SystemConfig {
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
    cfg
}

/// A random disturbance schedule: `(round, (i, j), kind, salt)` tuples.
fn schedule_strategy(rounds: u64) -> impl Strategy<Value = Vec<(u64, (u16, u16), u8, u64)>> {
    proptest::collection::vec(
        (1..rounds, (0u16..8, 0u16..8), 0u8..10, 0u64..u64::MAX),
        0..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The engine-backed `System` and the legacy phase chain agree on the
    /// full successor state and the full event record, round for round,
    /// under arbitrary crash/recover/corruption schedules and every token
    /// policy.
    #[test]
    fn engine_and_legacy_phases_are_differential(
        n in 3u16..=6,
        rounds in 10u64..=60,
        policy_code in 0u8..3,
        extra_source in proptest::bool::ANY,
        schedule in schedule_strategy(60),
    ) {
        let cfg = config(n, policy_code, extra_source);
        let dims = cfg.dims();
        let target = cfg.target();
        let dist_cap = cfg.dist_cap();

        let mut sys = System::new(cfg.clone()); // engine path
        let mut state = cfg.initial_state();    // legacy path

        for round in 0..rounds {
            for &(when, (i, j), kind, salt) in &schedule {
                if when != round {
                    continue;
                }
                // Clamp out-of-grid victims back in bounds.
                let cell = CellId::new(i % n, j % n);
                match decode_event(kind, salt, dist_cap) {
                    Event::Crash => {
                        sys.fail(cell);
                        state.fail(dims, cell);
                    }
                    Event::Recover => {
                        sys.recover(cell);
                        state.recover(dims, cell, target);
                    }
                    Event::Corrupt(c) => {
                        sys.corrupt(cell, c);
                        c.apply(&cfg, cell, state.cell_mut(dims, cell));
                    }
                }
            }
            let (next, legacy_events) = update(&cfg, &state, round);
            let engine_events = sys.step().clone();
            state = next;
            prop_assert_eq!(
                sys.state(),
                &state,
                "state diverged at round {} (n = {}, policy {})",
                round,
                n,
                policy_code
            );
            prop_assert_eq!(
                &engine_events,
                &legacy_events,
                "events diverged at round {} (n = {}, policy {})",
                round,
                n,
                policy_code
            );
        }
    }
}

/// The zero-clone claim, checked mechanically: once warm, a steady-state
/// engine round grows no buffer — no full-state clone, no per-cell
/// `BTreeSet`/`BTreeMap` rebuild, nothing.
#[test]
fn steady_state_engine_rounds_do_not_allocate() {
    let cfg = config(8, 0, true);
    let mut engine = Engine::new(cfg);
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
        "steady-state rounds must be allocation-free"
    );
}
