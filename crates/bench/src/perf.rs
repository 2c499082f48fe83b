//! The committed performance baseline: a fixed scenario matrix timing the
//! arena-backed [`Engine`] against the legacy clone-based phase composition,
//! reported as machine-readable JSON (`BENCH_PR3.json`; format documented in
//! `DESIGN.md` §9.5).
//!
//! Three code paths are timed per scenario, at identical semantics (each
//! run's final state is asserted equal to the reference before any timing):
//!
//! * **legacy** — the pure `update` composition: `route_phase`,
//!   `signal_phase`, `move_phase`, each cloning the full `SystemState`;
//! * **engine** — [`Engine::step`] on the double-buffered arenas (the
//!   zero-allocation steady-state path; asserted allocation-free here);
//! * **system** — [`System::step`], the compatibility facade: engine rounds
//!   plus the per-round `SystemState` mirror writeback.

use std::time::Instant;

use cellflow_core::{update, Engine, Params, System, SystemConfig};
use cellflow_grid::{CellId, GridDims};

/// Grid sizes of the fixed scenario matrix.
pub const GRID_SIZES: [u16; 3] = [8, 16, 24];

/// Measured results for one grid size.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Scenario key, e.g. `"16x16"`.
    pub name: String,
    /// Grid side length.
    pub n: u16,
    /// Rounds per timed repetition.
    pub rounds: u64,
    /// Median ns/round of the legacy clone-based phase composition.
    pub legacy_ns_per_round: u64,
    /// Median ns/round of direct [`Engine::step`] calls.
    pub engine_ns_per_round: u64,
    /// Median ns/round of [`System::step`] (engine + mirror writeback).
    pub system_ns_per_round: u64,
    /// `legacy_ns_per_round / engine_ns_per_round`.
    pub speedup_engine_vs_legacy: f64,
    /// Most entities simultaneously in the system during the semantics run.
    pub peak_entities: usize,
    /// Buffer-growth allocations during the engine's timed rounds — the
    /// allocs-avoided proxy. Asserted to be 0 (steady state is warm).
    pub engine_steady_alloc_events: u64,
}

/// A full run of the scenario matrix.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Report format identifier.
    pub schema: String,
    /// `true` for `--quick` runs (fewer rounds/reps, same shape).
    pub quick: bool,
    /// Timed repetitions per path (median taken).
    pub reps: usize,
    /// Per-scenario results, in [`GRID_SIZES`] order.
    pub scenarios: Vec<ScenarioResult>,
}

fn scenario_config(n: u16) -> SystemConfig {
    SystemConfig::new(
        GridDims::square(n),
        CellId::new(1, n - 1),
        Params::from_milli(250, 50, 200).expect("paper parameters are valid"),
    )
    .expect("target is in bounds")
    .with_source(CellId::new(1, 0))
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Runs the legacy phase chain and the engine side by side, asserting equal
/// final states (the "equal semantics" guard) and returning the peak entity
/// count observed.
fn check_semantics(config: &SystemConfig, rounds: u64) -> usize {
    let mut engine = Engine::new(config.clone());
    let mut state = config.initial_state();
    let mut peak = 0usize;
    for round in 0..rounds {
        let (next, _) = update(config, &state, round);
        engine.step();
        state = next;
        peak = peak.max(engine.entity_count());
    }
    assert_eq!(
        engine.export_state(),
        state,
        "engine diverged from the legacy phases; benchmark numbers would be meaningless"
    );
    peak
}

fn time_legacy(config: &SystemConfig, warmup: u64, rounds: u64) -> u64 {
    let mut state = config.initial_state();
    let mut round = 0u64;
    for _ in 0..warmup {
        state = update(config, &state, round).0;
        round += 1;
    }
    let start = Instant::now();
    for _ in 0..rounds {
        state = update(config, &state, round).0;
        round += 1;
    }
    (start.elapsed().as_nanos() / rounds as u128) as u64
}

fn time_engine(config: &SystemConfig, warmup: u64, rounds: u64) -> (u64, u64) {
    let mut engine = Engine::new(config.clone());
    for _ in 0..warmup {
        engine.step();
    }
    engine.reset_alloc_events();
    let start = Instant::now();
    for _ in 0..rounds {
        engine.step();
    }
    let ns = (start.elapsed().as_nanos() / rounds as u128) as u64;
    (ns, engine.alloc_events())
}

fn time_system(config: &SystemConfig, warmup: u64, rounds: u64) -> u64 {
    let mut sys = System::new(config.clone());
    sys.run(warmup);
    let start = Instant::now();
    sys.run(rounds);
    (start.elapsed().as_nanos() / rounds as u128) as u64
}

/// Runs the whole scenario matrix. `quick` shrinks rounds and repetitions
/// (for CI smoke) while keeping the report shape identical.
///
/// # Panics
///
/// Panics if the engine diverges from the legacy phases on any scenario, or
/// if any timed steady-state engine round allocates.
pub fn run(quick: bool) -> PerfReport {
    let (rounds, reps, warmup) = if quick { (120, 2, 120) } else { (600, 5, 600) };
    let scenarios = GRID_SIZES
        .iter()
        .map(|&n| {
            let config = scenario_config(n);
            let peak_entities = check_semantics(&config, rounds.min(200));
            let legacy = median(
                (0..reps)
                    .map(|_| time_legacy(&config, warmup, rounds))
                    .collect(),
            );
            let mut alloc_events = 0u64;
            let engine = median(
                (0..reps)
                    .map(|_| {
                        let (ns, allocs) = time_engine(&config, warmup, rounds);
                        alloc_events += allocs;
                        ns
                    })
                    .collect(),
            );
            assert_eq!(
                alloc_events, 0,
                "{n}x{n}: steady-state engine rounds allocated — the zero-clone claim is broken"
            );
            let system = median(
                (0..reps)
                    .map(|_| time_system(&config, warmup, rounds))
                    .collect(),
            );
            ScenarioResult {
                name: format!("{n}x{n}"),
                n,
                rounds,
                legacy_ns_per_round: legacy,
                engine_ns_per_round: engine,
                system_ns_per_round: system,
                speedup_engine_vs_legacy: legacy as f64 / engine.max(1) as f64,
                peak_entities,
                engine_steady_alloc_events: alloc_events,
            }
        })
        .collect();
    PerfReport {
        schema: "cellflow-bench-v1".to_string(),
        quick,
        reps,
        scenarios,
    }
}

impl PerfReport {
    /// Renders the report as pretty-printed JSON. Hand-rolled (the workspace
    /// builds hermetically, without a JSON dependency); keys are emitted in
    /// a fixed order so equal reports are byte-identical.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{}\",\n", self.schema));
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!("  \"reps\": {},\n", self.reps));
        s.push_str("  \"scenarios\": [\n");
        for (k, sc) in self.scenarios.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": \"{}\",\n", sc.name));
            s.push_str(&format!("      \"n\": {},\n", sc.n));
            s.push_str(&format!("      \"rounds\": {},\n", sc.rounds));
            s.push_str(&format!(
                "      \"legacy_ns_per_round\": {},\n",
                sc.legacy_ns_per_round
            ));
            s.push_str(&format!(
                "      \"engine_ns_per_round\": {},\n",
                sc.engine_ns_per_round
            ));
            s.push_str(&format!(
                "      \"system_ns_per_round\": {},\n",
                sc.system_ns_per_round
            ));
            s.push_str(&format!(
                "      \"speedup_engine_vs_legacy\": {:.2},\n",
                sc.speedup_engine_vs_legacy
            ));
            s.push_str(&format!("      \"peak_entities\": {},\n", sc.peak_entities));
            s.push_str(&format!(
                "      \"engine_steady_alloc_events\": {}\n",
                sc.engine_steady_alloc_events
            ));
            s.push_str(if k + 1 < self.scenarios.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_well_formed_report() {
        let report = run(true);
        assert!(report.quick);
        assert_eq!(report.scenarios.len(), GRID_SIZES.len());
        for sc in &report.scenarios {
            assert_eq!(sc.engine_steady_alloc_events, 0);
            assert!(sc.peak_entities > 0, "{}: no entities flowed", sc.name);
            assert!(sc.legacy_ns_per_round > 0);
            assert!(sc.engine_ns_per_round > 0);
        }
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"cellflow-bench-v1\""));
        assert!(json.contains("\"16x16\""));
        // Balanced braces/brackets — cheap well-formedness check without a
        // JSON parser in the dependency set.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
