//! Mega-grid scaling baseline: the sparse active-set scheduler timed
//! against the dense sweep on grids from 64² up to 1024² (1,048,576
//! cells), reported as machine-readable JSON (`BENCH_PR8.json`; format
//! documented in `DESIGN.md` §13).
//!
//! Two engine configurations are timed per grid size, at identical
//! semantics (pinned by `tests/sparse_differential.rs`, and spot-checked
//! here on the smallest grid before any timing):
//!
//! * **dense** — [`ExecMode::Dense`]: every phase sweeps every cell;
//! * **sparse** — [`ExecMode::Sparse`] (the default): Route/Signal/Move
//!   visit only cells whose inputs changed, so quiescent regions cost
//!   nothing.
//!
//! The workload is the corridor scenario every other baseline uses — one
//! source, one target, both on row 1 — which is *quiescent-heavy* at mega
//! scale: steady-state traffic touches a band of cells around one row while
//! the rest of the grid has nothing to do. That is exactly the regime the
//! active-set scheduler targets, and the report records the measured
//! occupancy (`active_cells / cells`) alongside ns/round so the speedup can
//! be read against how sparse the round actually was.
//!
//! The committed report is generated on one machine in one sitting; the
//! `cores` field records the hardware threads that machine had.

use std::time::Instant;

use cellflow_core::{Engine, ExecMode, Params, SystemConfig};
use cellflow_grid::{CellId, GridDims};

/// Grid sizes of the full mega matrix: 4096 up to 1,048,576 cells.
pub const MEGA_GRID_SIZES: [u16; 5] = [64, 128, 256, 512, 1024];

/// Grid sizes timed under `--quick` (CI smoke): capped at 128².
pub const QUICK_GRID_SIZES: [u16; 2] = [64, 128];

/// Measured results for one grid size.
#[derive(Clone, Debug)]
pub struct MegaScenarioResult {
    /// Scenario key, e.g. `"256x256"`.
    pub name: String,
    /// Grid side length.
    pub n: u16,
    /// Total cell count (`n²`).
    pub cells: usize,
    /// Rounds per timed repetition.
    pub rounds: u64,
    /// Warmup rounds before timing (dist settles, traffic enters).
    pub warmup: u64,
    /// Median ns/round of the dense full-sweep engine.
    pub dense_ns_per_round: u64,
    /// Median ns/round of the sparse active-set engine (one thread).
    pub sparse_ns_per_round: u64,
    /// `dense_ns_per_round / sparse_ns_per_round`.
    pub speedup_sparse_vs_dense: f64,
    /// Active-set size after the sparse run's last timed round.
    pub active_cells: usize,
    /// `active_cells / cells` — how sparse the steady rounds actually were.
    pub occupancy: f64,
}

/// A full run of the mega matrix.
#[derive(Clone, Debug)]
pub struct MegaReport {
    /// Report format identifier.
    pub schema: String,
    /// `true` for `--quick` runs (128² cap, fewer rounds, same shape).
    pub quick: bool,
    /// Timed repetitions per configuration (median taken).
    pub reps: usize,
    /// Hardware threads available when this report was generated.
    pub cores: usize,
    /// Per-scenario results, in grid-size order.
    pub scenarios: Vec<MegaScenarioResult>,
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

fn make_engine(config: &SystemConfig, mode: ExecMode) -> Engine {
    let mut engine = Engine::new(config.clone());
    engine.set_exec_mode(mode);
    engine
}

/// Warms one engine, then times `reps` consecutive windows of `rounds`
/// rounds on it (the engine stays warm between windows — no re-warmup per
/// repetition). Returns the median ns/round and the final active-set size.
fn time_mode(
    config: &SystemConfig,
    mode: ExecMode,
    warmup: u64,
    rounds: u64,
    reps: usize,
) -> (u64, usize) {
    let mut engine = make_engine(config, mode);
    for _ in 0..warmup {
        engine.step();
    }
    let samples = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..rounds {
                engine.step();
            }
            (start.elapsed().as_nanos() / rounds as u128) as u64
        })
        .collect();
    (median(samples), engine.active_cells())
}

/// The cheap semantics spot-check run before any timing: dense and sparse
/// agree on the exported state after `rounds` rounds. The
/// real guarantee is the property suite (`tests/sparse_differential.rs`);
/// this guards against benchmarking a silently mis-wired build.
fn check_semantics(config: &SystemConfig, rounds: u64) {
    let mut dense = make_engine(config, ExecMode::Dense);
    let mut sparse = make_engine(config, ExecMode::Sparse);
    for _ in 0..rounds {
        dense.step();
        sparse.step();
    }
    assert_eq!(
        sparse.export_state(),
        dense.export_state(),
        "sparse diverged from dense; benchmark numbers would be meaningless"
    );
}

/// Runs the mega matrix. `quick` caps the grid at 128² and shrinks rounds
/// and repetitions (for CI smoke) while keeping the report shape identical.
///
/// # Panics
///
/// Panics if the sparse engine diverges from the dense sweep on the
/// smallest grid.
pub fn run(quick: bool) -> MegaReport {
    let sizes: &[u16] = if quick {
        &QUICK_GRID_SIZES
    } else {
        &MEGA_GRID_SIZES
    };
    let (rounds, reps) = if quick { (20, 2) } else { (40, 3) };
    check_semantics(&scenario_config(sizes[0]), 200);
    let scenarios = sizes
        .iter()
        .map(|&n| {
            let config = scenario_config(n);
            let cells = usize::from(n) * usize::from(n);
            // Warmup: the dist gradient settles in ~2n rounds and traffic
            // starts filling the corridor; steady rounds after that are
            // representative of the long-run regime.
            let warmup = 2 * u64::from(n) + 64;
            let (dense, _) = time_mode(&config, ExecMode::Dense, warmup, rounds, reps);
            let (sparse, active_cells) = time_mode(&config, ExecMode::Sparse, warmup, rounds, reps);
            MegaScenarioResult {
                name: format!("{n}x{n}"),
                n,
                cells,
                rounds,
                warmup,
                dense_ns_per_round: dense,
                sparse_ns_per_round: sparse,
                speedup_sparse_vs_dense: dense as f64 / sparse.max(1) as f64,
                active_cells,
                occupancy: active_cells as f64 / cells as f64,
            }
        })
        .collect();
    MegaReport {
        schema: "cellflow-bench-mega-v1".to_string(),
        quick,
        reps,
        cores: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        scenarios,
    }
}

impl MegaReport {
    /// Renders the report as pretty-printed JSON, keys in a fixed order
    /// (hand-rolled; the workspace builds without a JSON dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{}\",\n", self.schema));
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!("  \"reps\": {},\n", self.reps));
        s.push_str(&format!("  \"cores\": {},\n", self.cores));
        s.push_str("  \"scenarios\": [\n");
        for (k, sc) in self.scenarios.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": \"{}\",\n", sc.name));
            s.push_str(&format!("      \"n\": {},\n", sc.n));
            s.push_str(&format!("      \"cells\": {},\n", sc.cells));
            s.push_str(&format!("      \"rounds\": {},\n", sc.rounds));
            s.push_str(&format!("      \"warmup\": {},\n", sc.warmup));
            s.push_str(&format!(
                "      \"dense_ns_per_round\": {},\n",
                sc.dense_ns_per_round
            ));
            s.push_str(&format!(
                "      \"sparse_ns_per_round\": {},\n",
                sc.sparse_ns_per_round
            ));
            s.push_str(&format!(
                "      \"speedup_sparse_vs_dense\": {:.2},\n",
                sc.speedup_sparse_vs_dense
            ));
            s.push_str(&format!("      \"active_cells\": {},\n", sc.active_cells));
            s.push_str(&format!("      \"occupancy\": {:.4}\n", sc.occupancy));
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
        assert_eq!(report.scenarios.len(), QUICK_GRID_SIZES.len());
        assert!(report.cores >= 1);
        for sc in &report.scenarios {
            assert!(sc.dense_ns_per_round > 0);
            assert!(sc.sparse_ns_per_round > 0);
            assert_eq!(sc.cells, usize::from(sc.n) * usize::from(sc.n));
            // The corridor workload is quiescent-heavy: steady-state
            // activity stays well under the full grid.
            assert!(
                sc.active_cells < sc.cells / 2,
                "{}: active set {}/{} is not sparse",
                sc.name,
                sc.active_cells,
                sc.cells
            );
        }
        let json = report.to_json();
        let parsed = Json::parse(&json).expect("report is valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("cellflow-bench-mega-v1")
        );
        assert_eq!(
            parsed
                .get("scenarios")
                .and_then(Json::as_arr)
                .map(|a| a.len()),
            Some(QUICK_GRID_SIZES.len())
        );
    }
}
