//! `cellflow bench --check`: the perf-regression harness.
//!
//! Loads the committed baseline reports (`BENCH_PR3.json`,
//! `BENCH_PR5.json`, `BENCH_PR8.json`, `BENCH_PR9.json`,
//! `BENCH_PR10.json`), reruns every
//! matrix in `--quick` mode on the current machine, and compares the
//! machine-independent shape of the results inside wide tolerance bands:
//!
//! * **speedups** (engine-vs-legacy, sparse-vs-dense) must not collapse:
//!   the fresh quick measurement must stay above a fixed fraction of the
//!   committed median. A 38× speedup measured at 12× on a noisy CI box is
//!   fine; measured at 2× it is a regression, not noise.
//! * **overhead ratios** (telemetry-on/off, trace-on/off, recording-on/off)
//!   must not blow
//!   up: the fresh ratio must stay below a fixed multiple of the
//!   committed one.
//! * **steady-state allocations** must stay exactly zero — the one band
//!   with no tolerance at all.
//!
//! Ratios rather than absolute ns/round are compared because the committed
//! baselines come from one machine and the checker runs on another;
//! absolute bands would be pure noise. Scenarios are matched by name, so a
//! quick run (which caps the mega matrix at 128²) silently checks only the
//! shared prefix of a full committed report.

use std::path::Path;

use cellflow_telemetry::Json;

use crate::mega::MegaReport;
use crate::perf::PerfReport;
use crate::recording_overhead::RecordingOverheadReport;
use crate::telemetry_overhead::TelemetryOverheadReport;
use crate::trace_overhead::TraceOverheadReport;

/// A fresh quick measurement must retain at least this fraction of a
/// committed speedup (PR3 engine-vs-legacy, PR8 sparse-vs-dense). Quick
/// runs on small grids swing hard under transient machine load, so the
/// floor only trips on order-of-magnitude collapses, not scheduler noise.
pub const SPEEDUP_FLOOR: f64 = 0.15;
/// The mega matrix is noisier still (occupancy-dependent): its floor is
/// looser.
pub const MEGA_SPEEDUP_FLOOR: f64 = 0.1;
/// A fresh overhead ratio may exceed the committed one by at most this
/// factor (PR5 telemetry, PR9 tracing, PR10 recording).
pub const RATIO_CEIL: f64 = 3.0;

/// One baseline-vs-fresh comparison.
#[derive(Clone, Debug)]
pub struct CheckRow {
    /// Which committed artifact the row checks, e.g. `"BENCH_PR3"`.
    pub baseline: String,
    /// Scenario key, e.g. `"16x16"`.
    pub scenario: String,
    /// The compared metric, e.g. `"speedup_engine_vs_legacy"`.
    pub metric: String,
    /// The committed value.
    pub committed: f64,
    /// The fresh quick measurement.
    pub measured: f64,
    /// The pass bound derived from the committed value (a floor for
    /// speedups, a ceiling for ratios, exactly 0 for allocations).
    pub bound: f64,
    /// `true` when the measurement respects the bound.
    pub pass: bool,
}

/// The full comparison: every row, pass/fail per row.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// All comparisons, in baseline order.
    pub rows: Vec<CheckRow>,
}

/// The committed baseline documents.
#[derive(Clone, Debug)]
pub struct Baselines {
    /// `BENCH_PR3.json` (engine vs legacy + zero-alloc).
    pub pr3: Json,
    /// `BENCH_PR5.json` (telemetry overhead).
    pub pr5: Json,
    /// `BENCH_PR8.json` (mega-grid sparse vs dense).
    pub pr8: Json,
    /// `BENCH_PR9.json` (causal-tracing overhead).
    pub pr9: Json,
    /// `BENCH_PR10.json` (flight-recording overhead).
    pub pr10: Json,
}

/// The fresh quick reports the committed documents are compared to.
#[derive(Clone, Debug)]
pub struct FreshReports {
    /// `perf::run(true)`.
    pub perf: PerfReport,
    /// `telemetry_overhead::run(true)`.
    pub telemetry: TelemetryOverheadReport,
    /// `mega::run(true)`.
    pub mega: MegaReport,
    /// `trace_overhead::run(true)`.
    pub trace: TraceOverheadReport,
    /// `recording_overhead::run(true)`.
    pub recording: RecordingOverheadReport,
}

/// Reads and parses the committed baselines from `dir`.
///
/// # Errors
///
/// A missing or unparsable artifact is an error — the checker exists to
/// guard the committed files, so their absence is itself a failure.
pub fn load_baselines(dir: &Path) -> Result<Baselines, String> {
    let load = |name: &str| -> Result<Json, String> {
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
    };
    Ok(Baselines {
        pr3: load("BENCH_PR3.json")?,
        pr5: load("BENCH_PR5.json")?,
        pr8: load("BENCH_PR8.json")?,
        pr9: load("BENCH_PR9.json")?,
        pr10: load("BENCH_PR10.json")?,
    })
}

/// A committed scenario's metric, looked up by name.
fn committed(doc: &Json, name: &str, key: &str) -> Option<f64> {
    doc.get("scenarios")?
        .as_arr()?
        .iter()
        .find(|sc| sc.get("name").and_then(Json::as_str) == Some(name))?
        .get(key)?
        .as_f64()
}

/// Compares the committed baselines to fresh quick measurements. Pure:
/// runs nothing, so doctored inputs are unit-testable.
pub fn evaluate(base: &Baselines, fresh: &FreshReports) -> CheckReport {
    let mut rows = Vec::new();
    for sc in &fresh.perf.scenarios {
        if let Some(c) = committed(&base.pr3, &sc.name, "speedup_engine_vs_legacy") {
            let bound = c * SPEEDUP_FLOOR;
            let measured = sc.speedup_engine_vs_legacy;
            rows.push(CheckRow {
                baseline: "BENCH_PR3".into(),
                scenario: sc.name.clone(),
                metric: "speedup_engine_vs_legacy".into(),
                committed: c,
                measured,
                bound,
                pass: measured >= bound,
            });
        }
        let allocs = sc.engine_steady_alloc_events as f64;
        rows.push(CheckRow {
            baseline: "BENCH_PR3".into(),
            scenario: sc.name.clone(),
            metric: "engine_steady_alloc_events".into(),
            committed: 0.0,
            measured: allocs,
            bound: 0.0,
            pass: allocs == 0.0,
        });
    }
    for sc in &fresh.telemetry.scenarios {
        if let Some(c) = committed(&base.pr5, &sc.name, "overhead_ratio") {
            let bound = c * RATIO_CEIL;
            rows.push(CheckRow {
                baseline: "BENCH_PR5".into(),
                scenario: sc.name.clone(),
                metric: "overhead_ratio".into(),
                committed: c,
                measured: sc.overhead_ratio,
                bound,
                pass: sc.overhead_ratio <= bound,
            });
        }
    }
    for sc in &fresh.mega.scenarios {
        if let Some(c) = committed(&base.pr8, &sc.name, "speedup_sparse_vs_dense") {
            let bound = c * MEGA_SPEEDUP_FLOOR;
            rows.push(CheckRow {
                baseline: "BENCH_PR8".into(),
                scenario: sc.name.clone(),
                metric: "speedup_sparse_vs_dense".into(),
                committed: c,
                measured: sc.speedup_sparse_vs_dense,
                bound,
                pass: sc.speedup_sparse_vs_dense >= bound,
            });
        }
    }
    for sc in &fresh.trace.scenarios {
        if let Some(c) = committed(&base.pr9, &sc.name, "overhead_ratio") {
            let bound = c * RATIO_CEIL;
            rows.push(CheckRow {
                baseline: "BENCH_PR9".into(),
                scenario: sc.name.clone(),
                metric: "overhead_ratio".into(),
                committed: c,
                measured: sc.overhead_ratio,
                bound,
                pass: sc.overhead_ratio <= bound,
            });
        }
    }
    for sc in &fresh.recording.scenarios {
        if let Some(c) = committed(&base.pr10, &sc.name, "overhead_ratio") {
            let bound = c * RATIO_CEIL;
            rows.push(CheckRow {
                baseline: "BENCH_PR10".into(),
                scenario: sc.name.clone(),
                metric: "overhead_ratio".into(),
                committed: c,
                measured: sc.overhead_ratio,
                bound,
                pass: sc.overhead_ratio <= bound,
            });
        }
    }
    CheckReport { rows }
}

/// Loads the baselines from `dir`, reruns every matrix in quick mode, and
/// compares.
///
/// # Errors
///
/// As [`load_baselines`].
pub fn run(dir: &Path) -> Result<CheckReport, String> {
    let base = load_baselines(dir)?;
    let fresh = FreshReports {
        perf: crate::perf::run(true),
        telemetry: crate::telemetry_overhead::run(true),
        mega: crate::mega::run(true),
        trace: crate::trace_overhead::run(true),
        recording: crate::recording_overhead::run(true),
    };
    Ok(evaluate(&base, &fresh))
}

impl CheckReport {
    /// `true` when every row passed.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.pass)
    }

    /// The failing rows.
    pub fn failures(&self) -> Vec<&CheckRow> {
        self.rows.iter().filter(|r| !r.pass).collect()
    }

    /// Renders the PASS/FAIL table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:<12} {:<28} {:>10} {:>10} {:>10}  verdict",
            "baseline", "scenario", "metric", "committed", "measured", "bound"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<10} {:<12} {:<28} {:>10.3} {:>10.3} {:>10.3}  {}",
                r.baseline,
                r.scenario,
                r.metric,
                r.committed,
                r.measured,
                r.bound,
                if r.pass { "PASS" } else { "FAIL" }
            );
        }
        let fails = self.failures().len();
        if fails == 0 {
            let _ = writeln!(out, "\nall {} checks passed", self.rows.len());
        } else {
            let _ = writeln!(out, "\n{fails} of {} checks FAILED", self.rows.len());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mega::MegaScenarioResult;
    use crate::perf::ScenarioResult;
    use crate::recording_overhead::{RecordingOverheadReport, RecordingOverheadResult};
    use crate::telemetry_overhead::OverheadResult;
    use crate::trace_overhead::TraceOverheadResult;

    fn baseline_doc(scenario_body: &str) -> Json {
        Json::parse(&format!("{{\"scenarios\": [{scenario_body}]}}")).unwrap()
    }

    fn fresh() -> FreshReports {
        FreshReports {
            perf: PerfReport {
                schema: "cellflow-bench-v1".into(),
                quick: true,
                reps: 1,
                scenarios: vec![ScenarioResult {
                    name: "8x8".into(),
                    n: 8,
                    rounds: 10,
                    legacy_ns_per_round: 1000,
                    engine_ns_per_round: 50,
                    system_ns_per_round: 60,
                    speedup_engine_vs_legacy: 20.0,
                    peak_entities: 4,
                    engine_steady_alloc_events: 0,
                }],
            },
            telemetry: TelemetryOverheadReport {
                schema: "cellflow-bench-telemetry-v1".into(),
                quick: true,
                reps: 1,
                scenarios: vec![OverheadResult {
                    name: "8x8".into(),
                    n: 8,
                    rounds: 10,
                    telemetry_off_ns_per_round: 50,
                    telemetry_on_ns_per_round: 80,
                    overhead_ratio: 1.6,
                }],
            },
            mega: MegaReport {
                schema: "cellflow-bench-mega-v1".into(),
                quick: true,
                reps: 1,
                cores: 1,
                scenarios: vec![MegaScenarioResult {
                    name: "64x64".into(),
                    n: 64,
                    cells: 4096,
                    rounds: 10,
                    warmup: 5,
                    dense_ns_per_round: 1000,
                    sparse_ns_per_round: 100,
                    speedup_sparse_vs_dense: 10.0,
                    active_cells: 40,
                    occupancy: 0.01,
                }],
            },
            trace: TraceOverheadReport {
                schema: "cellflow-bench-trace-v1".into(),
                quick: true,
                reps: 1,
                scenarios: vec![TraceOverheadResult {
                    name: "8x8".into(),
                    n: 8,
                    rounds: 10,
                    trace_off_ns_per_round: 80,
                    trace_on_ns_per_round: 100,
                    overhead_ratio: 1.25,
                }],
            },
            recording: RecordingOverheadReport {
                schema: "cellflow-bench-recording-v1".into(),
                quick: true,
                reps: 1,
                scenarios: vec![RecordingOverheadResult {
                    name: "8x8".into(),
                    n: 8,
                    rounds: 10,
                    recording_off_ns_per_round: 80,
                    recording_on_ns_per_round: 95,
                    overhead_ratio: 1.19,
                    bytes_per_round: 120,
                }],
            },
        }
    }

    fn healthy_baselines() -> Baselines {
        Baselines {
            pr3: baseline_doc(
                "{\"name\": \"8x8\", \"speedup_engine_vs_legacy\": 38.0, \
                 \"engine_steady_alloc_events\": 0}",
            ),
            pr5: baseline_doc("{\"name\": \"8x8\", \"overhead_ratio\": 1.8}"),
            pr8: baseline_doc("{\"name\": \"64x64\", \"speedup_sparse_vs_dense\": 35.0}"),
            pr9: baseline_doc("{\"name\": \"8x8\", \"overhead_ratio\": 1.3}"),
            pr10: baseline_doc("{\"name\": \"8x8\", \"overhead_ratio\": 1.2}"),
        }
    }

    #[test]
    fn healthy_measurements_pass_every_band() {
        let report = evaluate(&healthy_baselines(), &fresh());
        assert!(report.passed(), "{}", report.render());
        // One speedup + one alloc row from PR3, one row each for 5/8/9/10.
        assert_eq!(report.rows.len(), 6);
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn doctored_baseline_fails_the_speedup_floor() {
        // A doctored committed speedup of 500× demands ≥125× fresh; the
        // honest 20× measurement must flag it.
        let mut base = healthy_baselines();
        base.pr3 = baseline_doc(
            "{\"name\": \"8x8\", \"speedup_engine_vs_legacy\": 500.0, \
             \"engine_steady_alloc_events\": 0}",
        );
        let report = evaluate(&base, &fresh());
        assert!(!report.passed());
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].metric, "speedup_engine_vs_legacy");
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn blown_up_overhead_ratio_fails_the_ceiling() {
        let base = healthy_baselines();
        let mut measured = fresh();
        measured.trace.scenarios[0].overhead_ratio = 10.0;
        let report = evaluate(&base, &measured);
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].baseline, "BENCH_PR9");
    }

    #[test]
    fn unknown_scenarios_are_skipped_not_failed() {
        // A quick mega run lacks the committed 1024² row; matching is by
        // name, so the extra committed scenario simply contributes no row.
        let mut base = healthy_baselines();
        base.pr8 = baseline_doc("{\"name\": \"1024x1024\", \"speedup_sparse_vs_dense\": 400.0}");
        let report = evaluate(&base, &fresh());
        assert!(report.passed());
        assert!(report.rows.iter().all(|r| r.baseline != "BENCH_PR8"));
    }

    #[test]
    fn missing_baseline_files_error() {
        let dir =
            std::env::temp_dir().join(format!("cellflow-check-missing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = load_baselines(&dir).unwrap_err();
        assert!(err.contains("BENCH_PR3.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
