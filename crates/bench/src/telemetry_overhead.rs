//! Telemetry overhead baseline: the engine's ns/round with phase timers
//! detached vs. attached, over the same scenario matrix as the perf
//! baseline (`BENCH_PR5.json`; format documented in `DESIGN.md` §10).
//!
//! Two configurations are timed per grid size:
//!
//! * **off** — no timers attached (the default): the engine's round loop
//!   takes the branch-free path, identical to what `BENCH_PR3.json` times
//!   as `engine_ns_per_round`. The committed reports are generated
//!   back-to-back on one machine, so the off column doubles as a
//!   regression guard on the instrumentation seam itself.
//! * **on** — [`PhaseTimers`] registered in a live [`Registry`]: four
//!   histogram spans per round (route, signal, move, whole round), the
//!   full cost a profiling run pays.
//!
//! A final `cascade-5x5` scenario times a full cascading-failure campaign
//! ([`run_cascade`]) with and without a live [`SimTelemetry`] — covering
//! the overload/shed/backoff counters this PR adds on top of the phase
//! timers. It is appended after the grid matrix so older tooling that
//! zips scenario lists positionally keeps comparing the shared prefix.

use std::time::Instant;

use cellflow_core::{Engine, FaultPlan, OverloadTrigger, Params, SystemConfig};
use cellflow_grid::{CellId, GridDims};
use cellflow_sim::{run_cascade, run_cascade_with, CascadeScenario, SimTelemetry};
use cellflow_telemetry::{PhaseTimers, Registry};

use crate::perf::GRID_SIZES;

/// Measured telemetry overhead for one grid size.
#[derive(Clone, Debug)]
pub struct OverheadResult {
    /// Scenario key, e.g. `"16x16"`.
    pub name: String,
    /// Grid side length.
    pub n: u16,
    /// Rounds per timed repetition.
    pub rounds: u64,
    /// Median ns/round with timers detached (the default path).
    pub telemetry_off_ns_per_round: u64,
    /// Median ns/round with live phase timers attached.
    pub telemetry_on_ns_per_round: u64,
    /// `on / off` — the multiplicative cost of enabling phase timing.
    pub overhead_ratio: f64,
}

/// A full telemetry-overhead run over the scenario matrix.
#[derive(Clone, Debug)]
pub struct TelemetryOverheadReport {
    /// Report format identifier.
    pub schema: String,
    /// `true` for `--quick` runs (fewer rounds/reps, same shape).
    pub quick: bool,
    /// Timed repetitions per configuration (median taken).
    pub reps: usize,
    /// Per-scenario results: [`GRID_SIZES`] order, then the appended
    /// `cascade-5x5` campaign.
    pub scenarios: Vec<OverheadResult>,
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

fn cascade_scenario(rounds: u64, settle: u64) -> CascadeScenario {
    CascadeScenario {
        config: scenario_config(5).with_capacity(2),
        base: FaultPlan::new().crash_at(8, CellId::new(1, 2)),
        trigger: OverloadTrigger::new(2, 2),
        backoff: None,
        restart_after: None,
        rounds,
        settle,
    }
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn time_engine(
    config: &SystemConfig,
    timers: Option<PhaseTimers>,
    warmup: u64,
    rounds: u64,
) -> u64 {
    let mut engine = Engine::new(config.clone());
    if let Some(t) = timers {
        engine.attach_phase_timers(t);
    }
    for _ in 0..warmup {
        engine.step();
    }
    let start = Instant::now();
    for _ in 0..rounds {
        engine.step();
    }
    (start.elapsed().as_nanos() / rounds as u128) as u64
}

fn time_cascade(scenario: &CascadeScenario, registry: Option<&Registry>) -> u64 {
    let start = Instant::now();
    match registry {
        None => drop(run_cascade(scenario)),
        Some(r) => drop(run_cascade_with(scenario, Some(SimTelemetry::new(r)))),
    }
    let total = scenario.rounds + scenario.settle;
    (start.elapsed().as_nanos() / total as u128) as u64
}

/// Runs the telemetry-overhead matrix. `quick` shrinks rounds and
/// repetitions (for CI smoke) while keeping the report shape identical.
pub fn run(quick: bool) -> TelemetryOverheadReport {
    let (rounds, reps, warmup) = if quick { (120, 2, 120) } else { (600, 5, 600) };
    let mut scenarios: Vec<OverheadResult> = GRID_SIZES
        .iter()
        .map(|&n| {
            let config = scenario_config(n);
            let off = median(
                (0..reps)
                    .map(|_| time_engine(&config, None, warmup, rounds))
                    .collect(),
            );
            let registry = Registry::new();
            let on = median(
                (0..reps)
                    .map(|_| {
                        time_engine(
                            &config,
                            Some(PhaseTimers::register(&registry)),
                            warmup,
                            rounds,
                        )
                    })
                    .collect(),
            );
            OverheadResult {
                name: format!("{n}x{n}"),
                n,
                rounds,
                telemetry_off_ns_per_round: off,
                telemetry_on_ns_per_round: on,
                overhead_ratio: on as f64 / off.max(1) as f64,
            }
        })
        .collect();
    // Cascade campaign: same off/on comparison, but the unit under test is
    // a whole `run_cascade` (overload expansion + monitor suite + heat
    // maps), and the "on" path exercises the overload/shed/backoff
    // counters. Appended after the grid matrix so positional zips against
    // older reports keep comparing the shared prefix.
    let (c_rounds, c_settle) = if quick { (80, 40) } else { (160, 80) };
    let cascade = cascade_scenario(c_rounds, c_settle);
    time_cascade(&cascade, None); // warmup
    let off = median((0..reps).map(|_| time_cascade(&cascade, None)).collect());
    let registry = Registry::new();
    let on = median(
        (0..reps)
            .map(|_| time_cascade(&cascade, Some(&registry)))
            .collect(),
    );
    scenarios.push(OverheadResult {
        name: "cascade-5x5".to_string(),
        n: 5,
        rounds: c_rounds + c_settle,
        telemetry_off_ns_per_round: off,
        telemetry_on_ns_per_round: on,
        overhead_ratio: on as f64 / off.max(1) as f64,
    });
    TelemetryOverheadReport {
        schema: "cellflow-bench-telemetry-v1".to_string(),
        quick,
        reps,
        scenarios,
    }
}

impl TelemetryOverheadReport {
    /// Renders the report as pretty-printed JSON, keys in a fixed order
    /// (hand-rolled; the workspace builds without a JSON dependency).
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
                "      \"telemetry_off_ns_per_round\": {},\n",
                sc.telemetry_off_ns_per_round
            ));
            s.push_str(&format!(
                "      \"telemetry_on_ns_per_round\": {},\n",
                sc.telemetry_on_ns_per_round
            ));
            s.push_str(&format!(
                "      \"overhead_ratio\": {:.3}\n",
                sc.overhead_ratio
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
    use cellflow_telemetry::Json;

    #[test]
    fn quick_run_produces_well_formed_report() {
        let report = run(true);
        assert!(report.quick);
        assert_eq!(report.scenarios.len(), GRID_SIZES.len() + 1);
        for sc in &report.scenarios {
            assert!(sc.telemetry_off_ns_per_round > 0);
            assert!(sc.telemetry_on_ns_per_round > 0);
        }
        // The cascade campaign rides at the end, after the grid matrix.
        assert_eq!(report.scenarios.last().unwrap().name, "cascade-5x5");
        let json = report.to_json();
        let parsed = Json::parse(&json).expect("report is valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("cellflow-bench-telemetry-v1")
        );
        assert_eq!(
            parsed
                .get("scenarios")
                .and_then(Json::as_arr)
                .map(|a| a.len()),
            Some(GRID_SIZES.len() + 1)
        );
    }

    /// The committed baselines are generated back-to-back on one machine:
    /// `BENCH_PR5.json`'s telemetry-off medians must sit within noise of
    /// `BENCH_PR3.json`'s engine medians — the instrumentation seam in the
    /// engine's round loop costs nothing when detached. Skips silently
    /// when either committed artifact is absent (fresh checkout mid-run).
    #[test]
    fn committed_off_baseline_tracks_pr3() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let (Ok(pr3), Ok(pr5)) = (
            std::fs::read_to_string(format!("{root}/BENCH_PR3.json")),
            std::fs::read_to_string(format!("{root}/BENCH_PR5.json")),
        ) else {
            return;
        };
        let pr3 = Json::parse(&pr3).expect("BENCH_PR3.json parses");
        let pr5 = Json::parse(&pr5).expect("BENCH_PR5.json parses");
        let medians = |doc: &Json, key: &str| -> Vec<(String, u64)> {
            doc.get("scenarios")
                .and_then(Json::as_arr)
                .expect("scenarios array")
                .iter()
                .map(|sc| {
                    (
                        sc.get("name")
                            .and_then(Json::as_str)
                            .expect("name")
                            .to_string(),
                        sc.get(key).and_then(Json::as_u64).expect("median"),
                    )
                })
                .collect()
        };
        let baseline = medians(&pr3, "engine_ns_per_round");
        let off = medians(&pr5, "telemetry_off_ns_per_round");
        for ((name, base), (name5, measured)) in baseline.iter().zip(&off) {
            assert_eq!(name, name5, "scenario order matches");
            let ratio = *measured as f64 / (*base).max(1) as f64;
            assert!(
                ratio < 1.03,
                "{name}: telemetry-off {measured} ns/round regresses >3% vs baseline {base}"
            );
        }
    }
}
