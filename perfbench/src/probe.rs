//! Measurement plumbing shared by the workloads: the timing adapters handed
//! to the program, the per-layer accumulator for traced `Simulation`
//! passes, set-up timing, percentiles, and peak memory.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cellflow_core::hash::fnv1a;
use cellflow_core::monitor::{Monitor, MonitorCtx, MonitorViolation};
use cellflow_core::{snapshot, System, SystemState};
use cellflow_sim::{FailureEvents, FailureModel, Simulation};

use crate::{alloc, Metrics};

/// Nanoseconds accumulated by one layer, shareable with the threads that
/// run it.
#[derive(Clone, Debug, Default)]
pub struct Clock(Arc<AtomicU64>);

impl Clock {
    fn add(&self, elapsed: Duration) {
        self.0.fetch_add(elapsed.as_nanos() as u64, Relaxed);
    }

    /// Total nanoseconds so far.
    pub fn ns(&self) -> u64 {
        self.0.load(Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Relaxed);
    }

    fn absorb(&self, other: &Clock) {
        self.0.fetch_add(other.ns(), Relaxed);
    }
}

/// Times a failure model's `apply` and counts the transitions it made.
pub struct TimedFailure<F> {
    inner: F,
    clock: Clock,
    transitions: Arc<AtomicU64>,
}

/// What a [`TimedFailure`] measured.
#[derive(Clone, Debug, Default)]
pub struct FailureProbe {
    clock: Clock,
    transitions: Arc<AtomicU64>,
}

impl FailureProbe {
    /// Wraps `inner`; its measurements land in this probe.
    pub fn wrap<F: FailureModel>(&self, inner: F) -> TimedFailure<F> {
        TimedFailure {
            inner,
            clock: self.clock.clone(),
            transitions: Arc::clone(&self.transitions),
        }
    }

    /// `(apply ns, transitions)` so far.
    pub fn totals(&self) -> (u64, u64) {
        (self.clock.ns(), self.transitions.load(Relaxed))
    }

    /// Forgets what was measured so far, e.g. during a warm-up.
    pub fn reset(&self) {
        self.clock.reset();
        self.transitions.store(0, Relaxed);
    }

    /// Adds what `other` measured to this probe's totals.
    pub fn absorb(&self, other: &FailureProbe) {
        self.clock.absorb(&other.clock);
        self.transitions
            .fetch_add(other.transitions.load(Relaxed), Relaxed);
    }
}

impl<F: FailureModel> FailureModel for TimedFailure<F> {
    fn apply(&mut self, system: &mut System, round: u64) -> FailureEvents {
        let started = Instant::now();
        let events = self.inner.apply(system, round);
        self.clock.add(started.elapsed());
        let made = events.failed.len() + events.recovered.len() + events.corrupted.len();
        self.transitions.fetch_add(made as u64, Relaxed);
        events
    }
}

/// The four standard monitors, by name, in `standard_monitors` order.
pub const MONITORS: [&str; 4] = ["safety", "routing", "conservation", "stabilization"];

/// Per-monitor clocks for the monitors a workload hands over.
#[derive(Clone, Debug, Default)]
pub struct MonitorProbe {
    clocks: [Clock; 4],
}

struct TimedMonitor {
    inner: Box<dyn Monitor>,
    clock: Clock,
}

impl Monitor for TimedMonitor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        let started = Instant::now();
        let out = self.inner.observe(ctx);
        self.clock.add(started.elapsed());
        out
    }

    fn summary(&self) -> String {
        self.inner.summary()
    }
}

impl MonitorProbe {
    /// Wraps each of the standard monitors in a timing adapter.
    ///
    /// # Panics
    ///
    /// Panics on a monitor outside [`MONITORS`]: the workloads hand over
    /// exactly the standard four.
    pub fn wrap(&self, monitors: Vec<Box<dyn Monitor>>) -> Vec<Box<dyn Monitor>> {
        monitors
            .into_iter()
            .map(|inner| {
                let k = MONITORS
                    .iter()
                    .position(|&n| n == inner.name())
                    .unwrap_or_else(|| panic!("unexpected monitor {}", inner.name()));
                Box::new(TimedMonitor {
                    inner,
                    clock: self.clocks[k].clone(),
                }) as Box<dyn Monitor>
            })
            .collect()
    }

    /// Forgets what was measured so far, e.g. during a warm-up.
    pub fn reset(&self) {
        self.clocks.iter().for_each(Clock::reset);
    }

    /// Adds what `other` measured to this probe's totals.
    pub fn absorb(&self, other: &MonitorProbe) {
        for (mine, theirs) in self.clocks.iter().zip(&other.clocks) {
            mine.absorb(theirs);
        }
    }

    /// Nanoseconds per monitor, in [`MONITORS`] order.
    pub fn ns(&self) -> [u64; 4] {
        std::array::from_fn(|k| self.clocks[k].ns())
    }

    /// Sets `core.monitor.<name>_ns` to each monitor's time per round.
    pub fn report(&self, metrics: &mut Metrics, rounds: u64) {
        const NAMES: [&str; 4] = [
            "core.monitor.safety_ns",
            "core.monitor.routing_ns",
            "core.monitor.conservation_ns",
            "core.monitor.stabilization_ns",
        ];
        for (name, ns) in NAMES.into_iter().zip(self.ns()) {
            metrics.set(name, per(ns, rounds));
        }
    }
}

/// Records when the collector observes each round: wraps one monitor and
/// stamps the instant its `observe` is entered. The gaps between stamps
/// are the deployment's round latencies as a monitoring user sees them.
pub struct RoundStamps {
    inner: Box<dyn Monitor>,
    stamps: Arc<Mutex<Vec<Instant>>>,
}

impl RoundStamps {
    /// Wraps `inner`; stamps go to `stamps`.
    pub fn new(inner: Box<dyn Monitor>, stamps: &Arc<Mutex<Vec<Instant>>>) -> RoundStamps {
        RoundStamps {
            inner,
            stamps: Arc::clone(stamps),
        }
    }
}

impl Monitor for RoundStamps {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        self.stamps
            .lock()
            .expect("no stamp holder panics")
            .push(Instant::now());
        self.inner.observe(ctx)
    }

    fn summary(&self) -> String {
        self.inner.summary()
    }
}

/// Per-layer totals of traced `Simulation` rounds: step time, the engine's
/// own phase attribution, allocations inside the step, and the dirty share
/// of the state on sampled rounds.
#[derive(Clone, Debug, Default)]
pub struct SimLayers {
    /// Rounds stepped.
    pub rounds: u64,
    /// Nanoseconds inside `Simulation::step`.
    pub step_ns: u64,
    phase_ns: [u64; 3],
    phase_cells: [u64; 3],
    active_cells: u64,
    grid_cells: u64,
    dirty_cells: u64,
    sampled_cells: u64,
    allocs: u64,
    alloc_bytes: u64,
}

/// Rounds between dirty-share samples: each sample clones and diffs the
/// full state, which would otherwise dominate a traced 256² round.
const DIRTY_EVERY: u64 = 16;

impl SimLayers {
    /// Steps `sim` once and attributes the round. The engine must have its
    /// round trace enabled.
    pub fn step(&mut self, sim: &mut Simulation) {
        let before = self
            .rounds
            .is_multiple_of(DIRTY_EVERY)
            .then(|| sim.system().state().clone());
        let (allocs, bytes) = alloc::counts();
        let started = Instant::now();
        sim.step();
        self.step_ns += started.elapsed().as_nanos() as u64;
        let (allocs_after, bytes_after) = alloc::counts();
        self.allocs += allocs_after - allocs;
        self.alloc_bytes += bytes_after - bytes;
        self.rounds += 1;

        let system = sim.system();
        let trace = system.round_trace();
        debug_assert!(trace.enabled, "round trace must be on");
        for (k, ns) in [trace.route_ns, trace.signal_ns, trace.move_ns]
            .into_iter()
            .enumerate()
        {
            self.phase_ns[k] += ns;
        }
        let swept = [trace.route_cells, trace.signal_cells, trace.move_cells];
        for (k, cells) in swept.into_iter().enumerate() {
            self.phase_cells[k] += cells;
        }
        let grid = system.config().dims().cell_count() as u64;
        self.active_cells += system.active_cells() as u64;
        self.grid_cells += grid;
        if let Some(before) = before {
            let mut changed: Vec<_> =
                snapshot::diff_states(system.config().dims(), &before, system.state())
                    .into_iter()
                    .filter_map(|d| d.cell)
                    .collect();
            changed.dedup();
            self.dirty_cells += changed.len() as u64;
            self.sampled_cells += grid;
        }
    }

    /// Adds another thread's totals.
    pub fn merge(&mut self, other: &SimLayers) {
        self.rounds += other.rounds;
        self.step_ns += other.step_ns;
        for k in 0..3 {
            self.phase_ns[k] += other.phase_ns[k];
            self.phase_cells[k] += other.phase_cells[k];
        }
        self.active_cells += other.active_cells;
        self.grid_cells += other.grid_cells;
        self.dirty_cells += other.dirty_cells;
        self.sampled_cells += other.sampled_cells;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
    }

    /// Nanoseconds per round inside the engine's three phases.
    pub fn engine_ns_per_round(&self) -> f64 {
        per(self.phase_ns.iter().sum(), self.rounds)
    }

    /// Writes the core, failure and allocation layers. The facade is the
    /// step time no other listed layer covers: failure apply, monitors,
    /// engine phases, and `observer_ns` per round of observer stack.
    pub fn report(
        &self,
        metrics: &mut Metrics,
        failure: &FailureProbe,
        monitors: &MonitorProbe,
        observer_ns: f64,
    ) {
        let rounds = self.rounds;
        let (failure_ns, transitions) = failure.totals();
        let monitor_ns: u64 = monitors.ns().iter().sum();
        monitors.report(metrics, rounds);
        let phases = [
            "core.engine.route_ns",
            "core.engine.signal_ns",
            "core.engine.move_ns",
        ];
        let cells = [
            "core.engine.route_cells",
            "core.engine.signal_cells",
            "core.engine.move_cells",
        ];
        for k in 0..3 {
            metrics.set(phases[k], per(self.phase_ns[k], rounds));
            metrics.set(cells[k], per(self.phase_cells[k], rounds));
        }
        metrics.set(
            "core.engine.occupancy",
            per(self.active_cells, self.grid_cells),
        );
        metrics.set(
            "core.state.dirty_ratio",
            per(self.dirty_cells, self.sampled_cells),
        );
        metrics.set("sim.failure.apply_ns", per(failure_ns, rounds));
        metrics.set(
            "sim.failure.transitions_per_round",
            per(transitions, rounds),
        );
        let attributed =
            per(failure_ns + monitor_ns, rounds) + self.engine_ns_per_round() + observer_ns;
        metrics.set(
            "core.system.facade_ns",
            (per(self.step_ns, rounds) - attributed).max(0.0),
        );
        metrics.set("alloc.count_per_round", per(self.allocs, rounds));
        metrics.set("alloc.bytes_per_round", per(self.alloc_bytes, rounds));
    }
}

/// Sets the tracing-overhead metrics from one untraced and one traced
/// throughput, and the per-round wall time the listed layers leave
/// unexplained.
pub fn report_overhead(
    metrics: &mut Metrics,
    untraced: f64,
    traced: f64,
    round_ns: f64,
    attributed_ns: f64,
) {
    metrics.set("trace.rounds_per_s.untraced", untraced);
    metrics.set("trace.rounds_per_s.traced", traced);
    metrics.set(
        "trace.overhead_ratio",
        if traced > 0.0 { untraced / traced } else { 0.0 },
    );
    metrics.set("trace.round_ns", round_ns);
    metrics.set("trace.unattributed_ns", (round_ns - attributed_ns).max(0.0));
}

/// `total / count`, 0 for no count.
pub fn per(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// `count` per second of `wall`.
pub fn per_s(count: u64, wall: Duration) -> f64 {
    count as f64 / wall.as_secs_f64()
}

/// The `q` quantile of `values` by linear interpolation between closest
/// ranks (0 for no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The fastest time seen for each unit of work a run repeats: every
/// workload replays the same rounds, points or sweeps over and over, and a
/// unit's best time is its cost with the least interference from whatever
/// else shares the machine. On shared hosts the speed of memory-bound code
/// switches between levels for seconds at a time; medians over one run
/// then land on either level, while per-unit bests stay put.
#[derive(Clone, Debug, Default)]
pub struct Best(Vec<f64>);

impl Best {
    /// Notes one time of unit `index`.
    pub fn note(&mut self, index: usize, value: f64) {
        if index >= self.0.len() {
            self.0.resize(index + 1, f64::INFINITY);
        }
        self.0[index] = self.0[index].min(value);
    }

    /// The best time of each unit, by index.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// `units` per second of the units' summed best times, given in `scale`
    /// seconds (1e-6 for µs).
    pub fn rate(&self, units: u64, scale: f64) -> f64 {
        units as f64 / (self.0.iter().sum::<f64>() * scale)
    }
}

/// The per-unit best times behind an untraced run's end-to-end metrics.
#[derive(Clone, Debug, Default)]
pub struct Bests {
    /// Best time of each round, in µs.
    pub round_us: Vec<f64>,
    /// Best time of each point, in ms.
    pub point_ms: Vec<f64>,
}

/// Sets the end-to-end latency and throughput metrics from the best
/// per-round latencies in µs and per-point latencies in ms, and keeps the
/// bests themselves in `metrics.bests`.
pub fn report_e2e(metrics: &mut Metrics, rounds_per_s: f64, round_us: &Best, point_ms: &Best) {
    let (round_us, point_ms) = (round_us.values(), point_ms.values());
    metrics.set("rounds_per_s", rounds_per_s);
    metrics.set("round_p50_us", quantile(round_us, 0.5));
    metrics.set("point_p50_ms", quantile(point_ms, 0.5));
    metrics.bests = Some(Bests {
        round_us: round_us.to_vec(),
        point_ms: point_ms.to_vec(),
    });
}

/// One set-up, split into the stages `setup_s` covers.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupSplit {
    /// Configuration and topology.
    pub config: Duration,
    /// Fault-plan or sweep-point generation.
    pub plan: Duration,
    /// Constructing the runtime and attaching monitors and observers.
    pub build: Duration,
    /// Rounds run before the first timed round.
    pub warmup: Duration,
}

/// A stopwatch that splits one set-up into its stages.
pub struct SetupTimer {
    split: SetupSplit,
    last: Instant,
}

impl SetupTimer {
    /// Starts timing a set-up.
    pub fn start() -> SetupTimer {
        SetupTimer {
            split: SetupSplit::default(),
            last: Instant::now(),
        }
    }

    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let lap = now - self.last;
        self.last = now;
        lap
    }

    /// Ends the configuration stage.
    pub fn config_done(&mut self) {
        self.split.config = self.lap();
    }

    /// Ends the plan stage.
    pub fn plan_done(&mut self) {
        self.split.plan = self.lap();
    }

    /// Ends the build stage.
    pub fn build_done(&mut self) {
        self.split.build = self.lap();
    }

    /// Ends the warm-up stage and returns the whole split.
    pub fn warmup_done(mut self) -> SetupSplit {
        self.split.warmup = self.lap();
        self.split
    }
}

/// Writes `setup_s` and the `setup.*` stages as medians over `setups`.
pub fn report_setup(metrics: &mut Metrics, setups: &[SetupSplit]) {
    let stage = |f: fn(&SetupSplit) -> Duration| -> Vec<f64> {
        setups.iter().map(|s| f(s).as_secs_f64()).collect()
    };
    let total = stage(|s| s.config + s.plan + s.build + s.warmup);
    metrics.set("setup_s", quantile(&total, 0.5));
    metrics.set("setup.config_ns", quantile(&stage(|s| s.config), 0.5) * 1e9);
    metrics.set("setup.plan_ns", quantile(&stage(|s| s.plan), 0.5) * 1e9);
    metrics.set("setup.build_ns", quantile(&stage(|s| s.build), 0.5) * 1e9);
    metrics.set("setup.warmup_ns", quantile(&stage(|s| s.warmup), 0.5) * 1e9);
}

/// FNV-1a over the encoded state and the consumed/inserted totals — the
/// digest every state-producing workload pins.
pub fn digest(state: &SystemState, consumed: u64, inserted: u64) -> u64 {
    let mut bytes = snapshot::encode_state(state);
    bytes.extend_from_slice(&consumed.to_le_bytes());
    bytes.extend_from_slice(&inserted.to_le_bytes());
    fnv1a(&bytes)
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
