//! `fig9-sweep`: the paper's Figure 9 point set — 9 failure rates × 4
//! recovery rates under `RandomFailRecover` on the 8×8 grid — over a few
//! seeds, each point one `scenario::run_spec` call, fanned out by
//! `sweep::parallel_map` over `nproc` threads. Small-grid engine, facade
//! and failure-model time with no monitors at all: a monitor-only change
//! must not move it.
//!
//! `run_spec` builds its own failure model, so the traced run replays
//! every point through a hand-built `Simulation` with the same model under
//! a timing adapter, sequentially (so allocation counts stay per round),
//! and checks the replay consumes exactly what `run_spec` did.

use std::time::{Duration, Instant};

use cellflow_core::hash::fnv1a;
use cellflow_sim::failure::RandomFailRecover;
use cellflow_sim::scenario::{self, ExperimentSpec, FailureSpec};
use cellflow_sim::sweep::parallel_map;
use cellflow_sim::Simulation;

use crate::probe::{self, Best, FailureProbe, MonitorProbe, SetupSplit, SetupTimer, SimLayers};
use crate::{nproc, Options, Outcome, Scale, Threads};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

struct Size {
    /// Rounds per point (the paper's K).
    k: u64,
    seeds: u64,
    pf: usize,
    pr: usize,
}

fn size(opts: &Options) -> Size {
    match opts.scale {
        Scale::Full => Size {
            k: 2000,
            seeds: 3,
            pf: 9,
            pr: 4,
        },
        Scale::Tiny => Size {
            k: 50,
            seeds: 1,
            pf: 2,
            pr: 2,
        },
    }
}

type Point = (ExperimentSpec, u64);

fn points(opts: &Options, size: &Size) -> Vec<Point> {
    let mut points = Vec::new();
    for s in 0..size.seeds {
        let seed = opts.seed.wrapping_add(s);
        for &pf in scenario::fig9_pf_values().iter().take(size.pf) {
            for &pr in scenario::fig9_pr_values().iter().take(size.pr) {
                points.push((scenario::fig9_point(pf, pr), seed));
            }
        }
    }
    points
}

fn setup(opts: &Options, size: &Size) -> (Vec<Point>, SetupSplit) {
    let mut timer = SetupTimer::start();
    let _ = scenario::fig9_point(0.01, 0.05).config.topology();
    timer.config_done();
    let points = points(opts, size);
    timer.plan_done();
    timer.build_done();
    let (spec, seed) = &points[0];
    let _ = scenario::run_spec(spec, size.k, *seed);
    (points, timer.warmup_done())
}

/// One sweep: every point through `run_spec` on `threads` threads. Returns
/// each point's consumed count and latency, and the sweep's wall time.
fn sweep(points: &[Point], k: u64, threads: usize) -> (Vec<(u64, Duration)>, Duration) {
    let start = Instant::now();
    let results = parallel_map(points, threads, |(spec, seed)| {
        let t = Instant::now();
        let outcome = scenario::run_spec(spec, k, *seed);
        assert_eq!(outcome.rounds, k, "run_spec runs exactly k rounds");
        (outcome.consumed, t.elapsed())
    });
    (results, start.elapsed())
}

/// Replays one point through a hand-built simulation with the failure
/// model under a timing adapter; returns what it consumed.
fn replay(point: &Point, k: u64, failure: &FailureProbe, layers: &mut SimLayers) -> u64 {
    let (spec, seed) = point;
    let FailureSpec::Random { pf, pr } = spec.failure else {
        unreachable!("figure 9 points fail at random");
    };
    let mut sim = Simulation::new(spec.config.clone(), *seed)
        .with_failure_model(failure.wrap(RandomFailRecover::new(pf, pr, *seed)));
    sim.system_mut().enable_round_trace();
    for _ in 0..k {
        layers.step(&mut sim);
    }
    sim.metrics().consumed_total()
}

pub(crate) fn run(opts: &Options) -> Outcome {
    let size = size(opts);
    let threads = nproc();
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        digest: 0,
        threads: Threads {
            workers: threads,
            collector: 0,
        },
        metrics: Default::default(),
    };
    let mut setups = Vec::new();
    let mut points = Vec::new();
    for _ in 0..SETUPS {
        let (built, split) = setup(opts, &size);
        setups.push(split);
        points = built;
    }
    let per_sweep = points.len() as u64 * size.k;

    let mut expected: Option<Vec<u64>> = None;
    let (mut round_us, mut point_ms) = (Best::default(), Best::default());
    let (mut wall, mut busy, mut rounds) = (Duration::ZERO, Duration::ZERO, 0);
    let (failure, mut layers) = (FailureProbe::default(), SimLayers::default());
    let mut replay_wall = Duration::ZERO;
    let deadline = opts.deadline();
    while rounds == 0 || Instant::now() < deadline {
        let (results, elapsed) = sweep(&points, size.k, threads);
        let consumed: Vec<u64> = results.iter().map(|r| r.0).collect();
        for (i, (_, t)) in results.iter().enumerate() {
            point_ms.note(i, t.as_secs_f64() * 1e3);
            round_us.note(i, t.as_secs_f64() * 1e6 / size.k as f64);
            busy += *t;
        }
        wall += elapsed;
        rounds += per_sweep;
        outcome.attempted += per_sweep;
        match &expected {
            None => expected = Some(consumed),
            Some(first) if *first != consumed => {
                outcome.errors.push(
                    "a sweep's per-point consumed counts differ from the first sweep's".into(),
                );
            }
            Some(_) => {}
        }
        if opts.trace {
            let start = Instant::now();
            crate::alloc::set_counting(true);
            let replayed: Vec<u64> = points
                .iter()
                .map(|p| replay(p, size.k, &failure, &mut layers))
                .collect();
            crate::alloc::set_counting(false);
            replay_wall += start.elapsed();
            outcome.attempted += per_sweep;
            if Some(&replayed) != expected.as_ref() {
                outcome
                    .errors
                    .push("a hand-built replay consumed differently from run_spec".into());
            }
        }
    }
    let consumed = expected.unwrap_or_default();
    let bytes: Vec<u8> = consumed.iter().flat_map(|c| c.to_le_bytes()).collect();
    outcome.digest = fnv1a(&bytes);

    let metrics = &mut outcome.metrics;
    probe::report_setup(metrics, &setups);
    if !opts.trace {
        // A sweep's rounds over its points' best times shared among the
        // threads: the wall time of a whole sweep swings with whatever else
        // runs on either core, while each point's best stays put. Imbalance
        // between the threads shows in `sim.sweep.busy_ratio`.
        let rounds_per_s = threads as f64 * point_ms.rate(per_sweep, 1e-3);
        probe::report_e2e(metrics, rounds_per_s, &round_us, &point_ms);
        return outcome;
    }
    layers.report(metrics, &failure, &MonitorProbe::default(), 0.0);
    let swept = rounds / size.k;
    metrics.set(
        "sim.sweep.point_ns",
        probe::per(busy.as_nanos() as u64, swept),
    );
    metrics.set(
        "sim.sweep.busy_ratio",
        busy.as_secs_f64() / (threads as f64 * wall.as_secs_f64()),
    );
    // Both throughputs are per sweep thread: the replay runs on one.
    probe::report_overhead(
        metrics,
        rounds as f64 / busy.as_secs_f64(),
        layers.rounds as f64 / replay_wall.as_secs_f64(),
        probe::per(replay_wall.as_nanos() as u64, layers.rounds),
        probe::per(layers.step_ns, layers.rounds),
    );
    outcome
}
