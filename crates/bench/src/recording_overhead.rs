//! Flight-recording overhead baseline: the simulation's ns/round with the
//! recorder detached vs. attached (`BENCH_PR10.json`; format documented in
//! `DESIGN.md` §15).
//!
//! Two configurations are timed per grid size:
//!
//! * **off** — the bare simulation. Recording-off is the configuration
//!   every other baseline measures; the engine's step hook is a single
//!   `Option` check, and the zero-allocation guarantee `BENCH_PR3.json`
//!   pins already covers it.
//! * **on** — a [`Recorder`](cellflow_core::snapshot::Recorder) attached
//!   via `Simulation::with_recorder`: every round the engine's state is
//!   delta-encoded (a full keyframe every
//!   [`DEFAULT_KEYFRAME_INTERVAL`] rounds) and framed with an FNV-1a
//!   checksum into the in-memory recording buffer.

use std::time::Instant;

use cellflow_core::snapshot::Recorder;
use cellflow_core::{Params, SystemConfig};
use cellflow_grid::{CellId, GridDims};
use cellflow_sim::Simulation;

use crate::perf::GRID_SIZES;

/// The keyframe cadence the baseline records at — the CLI's default.
pub const DEFAULT_KEYFRAME_INTERVAL: u64 = 16;

/// Measured recording overhead for one grid size.
#[derive(Clone, Debug)]
pub struct RecordingOverheadResult {
    /// Scenario key, e.g. `"16x16"`.
    pub name: String,
    /// Grid side length.
    pub n: u16,
    /// Rounds per timed repetition.
    pub rounds: u64,
    /// Median ns/round with no recorder attached.
    pub recording_off_ns_per_round: u64,
    /// Median ns/round with the recorder encoding every round.
    pub recording_on_ns_per_round: u64,
    /// `on / off` — the multiplicative cost of recording.
    pub overhead_ratio: f64,
    /// Recording bytes buffered per round (amortized, integer-truncated) —
    /// pins the encoding's compactness, not just its speed.
    pub bytes_per_round: u64,
}

/// A full recording-overhead run over the scenario matrix.
#[derive(Clone, Debug)]
pub struct RecordingOverheadReport {
    /// Report format identifier.
    pub schema: String,
    /// `true` for `--quick` runs (fewer rounds/reps, same shape).
    pub quick: bool,
    /// Timed repetitions per configuration (median taken).
    pub reps: usize,
    /// Per-scenario results, in [`GRID_SIZES`] order.
    pub scenarios: Vec<RecordingOverheadResult>,
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

/// Times one configuration; returns `(ns_per_round, recording_bytes)` with
/// `recording_bytes` zero when no recorder is attached.
fn time_sim(config: &SystemConfig, recorded: bool, warmup: u64, rounds: u64) -> (u64, u64) {
    let mut sim = Simulation::new(config.clone(), 1);
    if recorded {
        let recorder = Box::new(Recorder::for_config(
            config,
            1,
            DEFAULT_KEYFRAME_INTERVAL,
            "bench",
        ));
        sim = sim.with_recorder(recorder);
    }
    sim.run(warmup);
    let start = Instant::now();
    sim.run(rounds);
    let ns = (start.elapsed().as_nanos() / rounds as u128) as u64;
    // Bytes are amortized over every recorded frame (warmup included) —
    // steady-state deltas dominate, so the average pins compactness.
    let bytes = sim
        .take_recorder()
        .map(|r| r.bytes_buffered() as u64 / (warmup + rounds + 1))
        .unwrap_or(0);
    (ns, bytes)
}

/// Runs the recording-overhead matrix. `quick` shrinks rounds and
/// repetitions (for CI smoke and `bench --check`) while keeping the report
/// shape identical.
pub fn run(quick: bool) -> RecordingOverheadReport {
    let (rounds, reps, warmup) = if quick { (120, 2, 60) } else { (600, 5, 300) };
    let scenarios = GRID_SIZES
        .iter()
        .map(|&n| {
            let config = scenario_config(n);
            let off = median(
                (0..reps)
                    .map(|_| time_sim(&config, false, warmup, rounds).0)
                    .collect(),
            );
            let mut bytes = 0;
            let on = median(
                (0..reps)
                    .map(|_| {
                        let (ns, b) = time_sim(&config, true, warmup, rounds);
                        bytes = b;
                        ns
                    })
                    .collect(),
            );
            RecordingOverheadResult {
                name: format!("{n}x{n}"),
                n,
                rounds,
                recording_off_ns_per_round: off,
                recording_on_ns_per_round: on,
                overhead_ratio: on as f64 / off.max(1) as f64,
                bytes_per_round: bytes,
            }
        })
        .collect();
    RecordingOverheadReport {
        schema: "cellflow-bench-recording-v1".to_string(),
        quick,
        reps,
        scenarios,
    }
}

impl RecordingOverheadReport {
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
                "      \"recording_off_ns_per_round\": {},\n",
                sc.recording_off_ns_per_round
            ));
            s.push_str(&format!(
                "      \"recording_on_ns_per_round\": {},\n",
                sc.recording_on_ns_per_round
            ));
            s.push_str(&format!(
                "      \"overhead_ratio\": {:.3},\n",
                sc.overhead_ratio
            ));
            s.push_str(&format!(
                "      \"bytes_per_round\": {}\n",
                sc.bytes_per_round
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
            assert!(sc.recording_off_ns_per_round > 0);
            assert!(sc.recording_on_ns_per_round > 0);
            assert!(sc.overhead_ratio > 0.0);
            assert!(sc.bytes_per_round > 0, "the recorder buffered nothing");
        }
        let json = report.to_json();
        let parsed = Json::parse(&json).expect("report is valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("cellflow-bench-recording-v1")
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
