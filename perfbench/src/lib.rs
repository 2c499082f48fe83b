//! The cellflow benchmark: four closed-loop workloads over what users run,
//! each checked for correct output, each reporting the same end-to-end
//! metrics, plus a traced mode that splits the round time by layer.
//!
//! All timing happens out here, around calls into the crates' public API
//! (`Simulation::step`, `System::round_trace`, `NetSystem::run_monitored`,
//! `scenario::run_spec`) and inside the timing adapters this crate wraps
//! around every [`FailureModel`](cellflow_sim::FailureModel) and
//! [`Monitor`](cellflow_core::Monitor) it hands to the program. Nothing
//! inside the crates is instrumented for the benchmark's sake.
//!
//! See `perfbench/README.md` for why each workload exists and which layer
//! metric should move which end-to-end metric.

pub mod alloc;
mod corridor;
mod fig9;
mod net;
mod pins;
pub mod probe;
mod storm;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cellflow_telemetry::Json;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Quiescent 256² corridor under the standard monitors.
    Corridor,
    /// 64² grid, 32 sources, a seeded fault storm, full observer stack.
    Storm,
    /// The paper's Figure 9 point set swept over a few seeds.
    Fig9,
    /// A 32² message-passing deployment under a lossless chaos campaign.
    Net,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Corridor,
        Workload::Storm,
        Workload::Fig9,
        Workload::Net,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Corridor => "corridor-256",
            Workload::Storm => "storm-64",
            Workload::Fig9 => "fig9-sweep",
            Workload::Net => "net-chaos-32",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: `Full` is what the benchmark measures; `Tiny` shrinks every
/// grid and round count so the smoke tests finish in well under a second.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workload names promise.
    Full,
    /// Smoke-test sizes. No digest is pinned at this scale.
    Tiny,
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
    /// Digest the checked outputs must reproduce (see [`pins`]); `None`
    /// checks only the seed-independent properties.
    pub expect: Option<u64>,
}

impl Options {
    /// A full-scale run with the pinned digest looked up for `seed`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::Full,
            expect: pins::pinned(workload, seed),
        }
    }

    fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("rounds_per_s", "1/s"),
    ("round_p50_us", "us"),
    ("point_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics printed by the traced run, in `BENCHMARK.json` order.
/// Every workload prints all of them; a layer a workload never enters
/// reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("setup.config_ns", "ns"),
    ("setup.plan_ns", "ns"),
    ("setup.build_ns", "ns"),
    ("setup.warmup_ns", "ns"),
    ("core.system.facade_ns", "ns"),
    ("core.monitor.safety_ns", "ns"),
    ("core.monitor.routing_ns", "ns"),
    ("core.monitor.conservation_ns", "ns"),
    ("core.monitor.stabilization_ns", "ns"),
    ("core.state.dirty_ratio", "ratio"),
    ("core.engine.route_ns", "ns"),
    ("core.engine.signal_ns", "ns"),
    ("core.engine.move_ns", "ns"),
    ("core.engine.route_cells", "cells"),
    ("core.engine.signal_cells", "cells"),
    ("core.engine.move_cells", "cells"),
    ("core.engine.occupancy", "ratio"),
    ("sim.failure.apply_ns", "ns"),
    ("sim.failure.transitions_per_round", "count"),
    ("observe.ns_per_round", "ns"),
    ("telemetry.events_per_round", "count"),
    ("recording.bytes_per_round", "bytes"),
    ("sim.sweep.point_ns", "ns"),
    ("sim.sweep.busy_ratio", "ratio"),
    ("net.barrier_wait_ns.p50", "ns"),
    ("net.barrier_wait_ns.p99", "ns"),
    ("net.cell_round_ns.p50", "ns"),
    ("net.cell_round_ns.p99", "ns"),
    ("net.messages_per_round", "count"),
    ("net.inbox_batch.p50", "count"),
    ("net.wal_appends_per_round", "count"),
    ("net.chaos.duplicated", "count"),
    ("net.chaos.reordered", "count"),
    ("net.collector.monitor_ns", "ns"),
    ("alloc.count_per_round", "count"),
    ("alloc.bytes_per_round", "bytes"),
    ("trace.round_ns", "ns"),
    ("trace.unattributed_ns", "ns"),
    ("trace.rounds_per_s.untraced", "1/s"),
    ("trace.rounds_per_s.traced", "1/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Metric values by name, checked against the declared lists on output.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    /// The per-unit best times an untraced run's latencies are taken over
    /// (see [`probe::report_e2e`]), so that a caller can merge the units of
    /// several runs before taking quantiles.
    pub bests: Option<probe::Bests>,
}

impl Metrics {
    /// Sets `name` to `value`.
    ///
    /// # Panics
    ///
    /// Panics on a name neither list declares: that is a bug in a workload.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// What one invocation measured and whether its outputs were right.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Rounds the workload attempted (simulated rounds, all passes).
    pub attempted: u64,
    /// Attempted rounds that failed: a monitor violation, a `NetError`, or
    /// membership of a pass whose output check failed.
    pub failed: u64,
    /// Why each failed check failed (empty when every check passed).
    pub errors: Vec<String>,
    /// Digest of the checked outputs (see [`pins`]).
    pub digest: u64,
    /// Threads the workload's load ran on.
    pub threads: Threads,
    /// Every measured metric.
    pub metrics: Metrics,
}

impl Outcome {
    /// `true` when every output check passed and no round failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, and the metrics
    /// of the run's kind (end-to-end, or per-layer when traced), each with
    /// its unit.
    pub fn result_json(&self, trace: bool) -> Json {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics = list
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                let entry = BTreeMap::from([
                    ("value".to_string(), Json::Float(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ]);
                (name.to_string(), Json::Obj(entry))
            })
            .collect();
        Json::Obj(BTreeMap::from([
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Int(self.attempted.into())),
            ("failed".to_string(), Json::Int(self.failed.into())),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]))
    }
}

/// The threads a workload's load ran on, against the machine's `nproc`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Threads {
    /// Threads stepping rounds or running sweep points.
    pub workers: usize,
    /// The net runtime's monitor collector (0 elsewhere). It blocks on a
    /// channel between rounds, so it is reported apart from the workers.
    pub collector: usize,
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Outcome {
    let mut outcome = match opts.workload {
        Workload::Corridor => corridor::run(opts),
        Workload::Storm => storm::run(opts),
        Workload::Fig9 => fig9::run(opts),
        Workload::Net => net::run(opts),
    };
    if let Some(expect) = opts.expect {
        if outcome.digest != expect {
            outcome.errors.push(format!(
                "digest {:#018x} differs from the pinned {expect:#018x}",
                outcome.digest
            ));
        }
    }
    if !outcome.errors.is_empty() {
        // A failed output check fails every round it covered.
        outcome.failed = outcome.attempted;
    }
    outcome.metrics.set("peak_rss_mb", probe::peak_rss_mb());
    outcome
}
