//! Causal-tracing overhead baseline: the instrumented simulation's ns/round
//! with the tracer detached vs. attached (`BENCH_PR9.json`; format
//! documented in `DESIGN.md` §14).
//!
//! Two configurations are timed per grid size, both with a live
//! [`SimTelemetry`] streaming round events into an in-memory buffer — so
//! the delta isolates exactly what tracing adds on top of telemetry:
//!
//! * **off** — telemetry only: per-round counters, histograms, and the
//!   ordinary event stream. This is the configuration `BENCH_PR5.json`'s
//!   "on" column already guards, one layer up the stack.
//! * **on** — a [`Tracer`] attached via `Simulation::with_tracer`: the
//!   engine's per-phase round trace fills, and every round additionally
//!   emits its causal span tree (round → phase → shard/cell leaves).

use std::time::Instant;

use cellflow_core::{Params, SystemConfig};
use cellflow_grid::{CellId, GridDims};
use cellflow_sim::{SimTelemetry, Simulation};
use cellflow_telemetry::{EventLog, Registry, SharedBuffer, Tracer};

use crate::perf::GRID_SIZES;

/// Measured tracing overhead for one grid size.
#[derive(Clone, Debug)]
pub struct TraceOverheadResult {
    /// Scenario key, e.g. `"16x16"`.
    pub name: String,
    /// Grid side length.
    pub n: u16,
    /// Rounds per timed repetition.
    pub rounds: u64,
    /// Median ns/round with telemetry on and the tracer detached.
    pub trace_off_ns_per_round: u64,
    /// Median ns/round with the tracer attached (spans emitted per round).
    pub trace_on_ns_per_round: u64,
    /// `on / off` — the multiplicative cost of causal tracing.
    pub overhead_ratio: f64,
}

/// A full tracing-overhead run over the scenario matrix.
#[derive(Clone, Debug)]
pub struct TraceOverheadReport {
    /// Report format identifier.
    pub schema: String,
    /// `true` for `--quick` runs (fewer rounds/reps, same shape).
    pub quick: bool,
    /// Timed repetitions per configuration (median taken).
    pub reps: usize,
    /// Per-scenario results, in [`GRID_SIZES`] order.
    pub scenarios: Vec<TraceOverheadResult>,
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

fn time_sim(config: &SystemConfig, traced: bool, warmup: u64, rounds: u64) -> u64 {
    let registry = Registry::new();
    let telemetry = SimTelemetry::new(&registry)
        .with_event_log(EventLog::new().with_stream(Box::new(SharedBuffer::new())));
    let mut sim = Simulation::new(config.clone(), 1).with_telemetry(telemetry);
    if traced {
        sim = sim.with_tracer(Tracer::new(1));
    }
    sim.run(warmup);
    let start = Instant::now();
    sim.run(rounds);
    (start.elapsed().as_nanos() / rounds as u128) as u64
}

/// Runs the tracing-overhead matrix. `quick` shrinks rounds and repetitions
/// (for CI smoke and `bench --check`) while keeping the report shape
/// identical.
pub fn run(quick: bool) -> TraceOverheadReport {
    let (rounds, reps, warmup) = if quick { (120, 2, 60) } else { (600, 5, 300) };
    let scenarios = GRID_SIZES
        .iter()
        .map(|&n| {
            let config = scenario_config(n);
            let off = median(
                (0..reps)
                    .map(|_| time_sim(&config, false, warmup, rounds))
                    .collect(),
            );
            let on = median(
                (0..reps)
                    .map(|_| time_sim(&config, true, warmup, rounds))
                    .collect(),
            );
            TraceOverheadResult {
                name: format!("{n}x{n}"),
                n,
                rounds,
                trace_off_ns_per_round: off,
                trace_on_ns_per_round: on,
                overhead_ratio: on as f64 / off.max(1) as f64,
            }
        })
        .collect();
    TraceOverheadReport {
        schema: "cellflow-bench-trace-v1".to_string(),
        quick,
        reps,
        scenarios,
    }
}

impl TraceOverheadReport {
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
                "      \"trace_off_ns_per_round\": {},\n",
                sc.trace_off_ns_per_round
            ));
            s.push_str(&format!(
                "      \"trace_on_ns_per_round\": {},\n",
                sc.trace_on_ns_per_round
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
        assert_eq!(report.scenarios.len(), GRID_SIZES.len());
        for sc in &report.scenarios {
            assert!(sc.trace_off_ns_per_round > 0);
            assert!(sc.trace_on_ns_per_round > 0);
            assert!(sc.overhead_ratio > 0.0);
        }
        let json = report.to_json();
        let parsed = Json::parse(&json).expect("report is valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("cellflow-bench-trace-v1")
        );
        assert_eq!(
            parsed
                .get("scenarios")
                .and_then(Json::as_arr)
                .map(|a| a.len()),
            Some(GRID_SIZES.len())
        );
    }
}
