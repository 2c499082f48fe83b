//! `corridor-256`: the quiescent mega grid. One source at ⟨1,0⟩ feeds the
//! target at ⟨1,255⟩ on a 256² grid with the paper's parameters and the
//! standard monitors. A few hundred of the 65,536 cells are active, so the
//! facade's full-state writeback and the monitors' full-grid scans do
//! nearly all the work while the engine does almost none: this is where a
//! dirty-set facade or incremental monitors must show their gain.
//!
//! One pass is a fresh set-up warmed past the start-up transient, then a
//! fixed window of rounds. The corridor fills as it runs, so a window of
//! fixed length keeps every run timing the same stretch of the trajectory
//! however fast the machine is. The protocol is deterministic here (one
//! source, round-robin tokens), so the seed only shifts the warm-up by up
//! to 15 rounds; each seed pins its own final state.

use std::time::{Duration, Instant};

use cellflow_core::{standard_monitors, Params, System, SystemConfig, SystemState};
use cellflow_grid::{CellId, GridDims};
use cellflow_sim::failure::NoFailures;
use cellflow_sim::Simulation;

use crate::probe::{self, Best, FailureProbe, MonitorProbe, SetupSplit, SetupTimer, SimLayers};
use crate::{alloc, Options, Outcome, Scale, Threads};

struct Size {
    n: u16,
    /// Rounds per "point": one block of a pass, timed as a whole.
    block: u64,
    /// Timed rounds per pass, after the warm-up.
    window: u64,
    warmup: u64,
}

fn size(opts: &Options) -> Size {
    match opts.scale {
        Scale::Full => Size {
            n: 256,
            block: 32,
            window: 256,
            warmup: 64 + opts.seed % 16,
        },
        Scale::Tiny => Size {
            n: 16,
            block: 4,
            window: 12,
            warmup: 4 + opts.seed % 4,
        },
    }
}

fn config(n: u16) -> SystemConfig {
    SystemConfig::new(
        GridDims::square(n),
        CellId::new(1, n - 1),
        Params::from_milli(250, 50, 200).expect("paper parameters are valid"),
    )
    .expect("target is in bounds")
    .with_source(CellId::new(1, 0))
}

/// Builds and warms one simulation; with `probes`, every failure model and
/// monitor handed over is wrapped in a timing adapter, the engine's round
/// trace is on, and the probes are cleared after the warm-up.
fn build(
    opts: &Options,
    probes: Option<(&FailureProbe, &MonitorProbe)>,
) -> (Simulation, SetupSplit) {
    let size = size(opts);
    let mut timer = SetupTimer::start();
    let config = config(size.n);
    let _ = config.topology();
    timer.config_done();
    timer.plan_done();
    let monitors = standard_monitors(&config);
    let sim = Simulation::new(config, opts.seed);
    let mut sim = match probes {
        None => sim.with_failure_model(NoFailures).with_monitors(monitors),
        Some((failure, monitor)) => {
            let mut sim = sim
                .with_failure_model(failure.wrap(NoFailures))
                .with_monitors(monitor.wrap(monitors));
            sim.system_mut().enable_round_trace();
            sim
        }
    };
    timer.build_done();
    sim.run(size.warmup);
    if let Some((failure, monitor)) = probes {
        failure.reset();
        monitor.reset();
    }
    (sim, timer.warmup_done())
}

/// A bare `System` stepped through the warm-up and one window: the state
/// every pass must end in.
struct Reference {
    state: SystemState,
    consumed: u64,
    inserted: u64,
    digest: u64,
}

fn reference(opts: &Options) -> Reference {
    let size = size(opts);
    let mut system = System::new(config(size.n));
    system.run(size.warmup + size.window);
    Reference {
        digest: probe::digest(
            system.state(),
            system.consumed_total(),
            system.inserted_total(),
        ),
        consumed: system.consumed_total(),
        inserted: system.inserted_total(),
        state: system.state().clone(),
    }
}

/// The output check: no violations, and the monitored simulation
/// bit-identical to the bare reference.
fn check(sim: &Simulation, reference: &Reference, errors: &mut Vec<String>) {
    if let Some(first) = sim.violations().first() {
        errors.push(format!(
            "{} monitor violation(s), first: {first}",
            sim.violations().len()
        ));
    }
    let system = sim.system();
    if system.state() != &reference.state
        || system.consumed_total() != reference.consumed
        || system.inserted_total() != reference.inserted
    {
        errors.push(format!(
            "simulation diverged from the System reference by round {}",
            system.round()
        ));
    }
}

/// Totals over the passes of one kind.
#[derive(Default)]
struct Tally {
    setups: Vec<SetupSplit>,
    round_us: Best,
    point_ms: Best,
    wall: Duration,
    rounds: u64,
    layers: SimLayers,
    failure: FailureProbe,
    monitors: MonitorProbe,
}

/// One pass: a fresh warmed set-up, then one window of rounds back to back
/// (through the layer accumulator when `traced`), then its output check.
fn pass(
    opts: &Options,
    traced: bool,
    reference: &Reference,
    tally: &mut Tally,
    outcome: &mut Outcome,
) {
    let size = size(opts);
    let probes = (FailureProbe::default(), MonitorProbe::default());
    let (mut sim, setup) = build(opts, traced.then_some((&probes.0, &probes.1)));
    let start = Instant::now();
    let mut block_start = start;
    for k in 0..size.window {
        if traced {
            tally.layers.step(&mut sim);
        } else {
            let t = Instant::now();
            sim.step();
            tally
                .round_us
                .note(k as usize, t.elapsed().as_secs_f64() * 1e6);
        }
        if (k + 1).is_multiple_of(size.block) {
            tally.point_ms.note(
                (k / size.block) as usize,
                block_start.elapsed().as_secs_f64() * 1e3,
            );
            block_start = Instant::now();
        }
    }
    tally.wall += start.elapsed();
    tally.rounds += size.window;
    tally.setups.push(setup);
    tally.failure.absorb(&probes.0);
    tally.monitors.absorb(&probes.1);
    outcome.attempted += size.window;
    outcome.failed += sim.violations().len() as u64;
    check(&sim, reference, &mut outcome.errors);
}

pub(crate) fn run(opts: &Options) -> Outcome {
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        digest: 0,
        threads: Threads {
            workers: 1,
            collector: 0,
        },
        metrics: Default::default(),
    };
    let reference = reference(opts);
    outcome.digest = reference.digest;
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let deadline = opts.deadline();
    while plain.rounds == 0 || Instant::now() < deadline {
        pass(opts, false, &reference, &mut plain, &mut outcome);
        if opts.trace {
            // Traced passes alternate with plain ones, so both see the same
            // machine conditions.
            alloc::set_counting(true);
            pass(opts, true, &reference, &mut traced, &mut outcome);
            alloc::set_counting(false);
        }
    }
    let metrics = &mut outcome.metrics;
    probe::report_setup(metrics, &plain.setups);
    if !opts.trace {
        let rounds_per_s = plain.round_us.rate(size(opts).window, 1e-6);
        probe::report_e2e(metrics, rounds_per_s, &plain.round_us, &plain.point_ms);
        return outcome;
    }
    let layers = &traced.layers;
    layers.report(metrics, &traced.failure, &traced.monitors, 0.0);
    probe::report_overhead(
        metrics,
        probe::per_s(plain.rounds, plain.wall),
        probe::per_s(traced.rounds, traced.wall),
        probe::per(traced.wall.as_nanos() as u64, traced.rounds),
        probe::per(layers.step_ns, layers.rounds),
    );
    outcome
}
