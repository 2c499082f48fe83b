//! `storm-64`: the busy grid. Thirty-two sources on the bottom edge of a
//! 64² grid feed a target mid-way along the top edge while a seeded
//! campaign (bursts, blackouts, flappers, a hard crash and state
//! corruptions, after the cascade and overload campaigns of Como et al.)
//! hits it, then a quiet tail lets routing re-stabilize. The full observer
//! stack rides along, as in `cellflow chaos --telemetry --trace --record`:
//! telemetry with an event log, the causal tracer, and a flight recorder.
//!
//! Same facade, same monitors as `corridor-256`, but a large dirty set:
//! engine phases, faults and observers all carry weight, so a dirty-set or
//! incremental change that wins on the corridor must not lose here.
//!
//! One pass is one campaign from a fresh set-up; passes run back to back,
//! cycling through a few campaigns drawn from the run's seed so that no
//! single draw of fault sites sets a run's figures.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cellflow_core::hash::fnv1a;
use cellflow_core::snapshot::{self, Recorder};
use cellflow_core::{
    standard_monitors, CampaignSpec, FaultPlan, Params, System, SystemConfig, SystemState,
};
use cellflow_grid::{CellId, GridDims};
use cellflow_sim::{FailureModel, SimTelemetry, Simulation};
use cellflow_telemetry::{EventLog, Recording, Registry, Tracer};

use crate::probe::{self, Best, FailureProbe, MonitorProbe, SetupSplit, SetupTimer, SimLayers};
use crate::{Options, Outcome, Scale, Threads};

struct Size {
    n: u16,
    sources: u16,
    /// Faults fire in the first `active` rounds of a pass.
    active: u64,
    /// Rounds per pass: the campaign plus its quiet tail.
    rounds: u64,
    /// Rounds per "point": one block of a pass, timed as a whole.
    block: u64,
    /// Distinct campaigns a run cycles through.
    campaigns: u64,
}

fn size(opts: &Options) -> Size {
    match opts.scale {
        Scale::Full => Size {
            n: 64,
            sources: 32,
            active: 160,
            rounds: 240,
            block: 24,
            campaigns: 4,
        },
        Scale::Tiny => Size {
            n: 12,
            sources: 4,
            active: 20,
            rounds: 40,
            block: 10,
            campaigns: 2,
        },
    }
}

fn config(size: &Size) -> SystemConfig {
    let n = size.n;
    let first = (n - size.sources) / 2;
    SystemConfig::new(
        GridDims::square(n),
        CellId::new(n / 2, n - 1),
        Params::from_milli(250, 50, 200).expect("paper parameters are valid"),
    )
    .expect("target is in bounds")
    .with_sources((first..first + size.sources).map(|i| CellId::new(i, 0)))
}

/// The seed of campaign `k` of a run with seed `seed`.
fn campaign_seed(size: &Size, seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(size.campaigns).wrapping_add(k)
}

fn plan(config: &SystemConfig, size: &Size, seed: u64) -> FaultPlan {
    let spec = CampaignSpec {
        active_rounds: size.active,
        bursts: 3,
        burst_size: 4,
        blackouts: 2,
        flappers: 3,
        hard_crashes: 1,
        kills: 0,
        corruptions: 4,
        ..CampaignSpec::default()
    };
    FaultPlan::random_campaign(config, &spec, seed)
}

/// An event-log sink that keeps only the byte count.
#[derive(Clone, Default)]
struct CountingSink(Arc<AtomicU64>);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.fetch_add(buf.len() as u64, Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// How a pass is observed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The full observer stack, no timing adapters: the end-to-end pass.
    Plain,
    /// The full observer stack under timing adapters and the round trace.
    Traced,
    /// Timing adapters and the round trace without the observer stack.
    Bare,
}

fn build(
    opts: &Options,
    seed: u64,
    kind: Kind,
    probes: (&FailureProbe, &MonitorProbe),
) -> (Simulation, SetupSplit) {
    let size = size(opts);
    let mut timer = SetupTimer::start();
    let config = config(&size);
    let _ = config.topology();
    timer.config_done();
    let plan = plan(&config, &size, seed);
    timer.plan_done();
    let monitors = standard_monitors(&config);
    let recorder = Recorder::for_config(&config, seed, 16, "storm-64");
    let sim = Simulation::new(config, seed);
    let (failure, monitor) = probes;
    let mut sim = match kind {
        Kind::Plain => sim.with_failure_model(plan).with_monitors(monitors),
        Kind::Traced | Kind::Bare => sim
            .with_failure_model(failure.wrap(plan))
            .with_monitors(monitor.wrap(monitors)),
    };
    if kind != Kind::Bare {
        let log = EventLog::new()
            .with_stream(Box::new(CountingSink::default()))
            .with_flight(32);
        sim = sim
            .with_telemetry(SimTelemetry::new(&Registry::new()).with_event_log(log))
            .with_tracer(Tracer::new(seed))
            .with_recorder(Box::new(recorder));
    }
    sim.system_mut().enable_round_trace();
    timer.build_done();
    (sim, timer.warmup_done())
}

/// The reference run: a bare `System` under the same plan.
fn reference(opts: &Options, seed: u64) -> Reference {
    let size = size(opts);
    let config = config(&size);
    let mut plan = plan(&config, &size, seed);
    let mut system = System::new(config);
    for round in 0..size.rounds {
        plan.apply(&mut system, round);
        system.step();
    }
    Reference {
        digest: probe::digest(
            system.state(),
            system.consumed_total(),
            system.inserted_total(),
        ),
        state: system.state().clone(),
    }
}

/// The reference run's final state and digest.
struct Reference {
    state: SystemState,
    digest: u64,
}

/// Checks one finished pass against the reference and, when given its
/// flight recording, that the recording replays to the final state.
fn check(
    sim: &Simulation,
    reference: &Reference,
    recording: Option<Vec<u8>>,
    errors: &mut Vec<String>,
) {
    if let Some(first) = sim.violations().first() {
        errors.push(format!(
            "{} monitor violation(s), first: {first}",
            sim.violations().len()
        ));
    }
    let system = sim.system();
    let digest = probe::digest(
        system.state(),
        system.consumed_total(),
        system.inserted_total(),
    );
    if digest != reference.digest || system.state() != &reference.state {
        errors.push(format!(
            "pass diverged from the System reference (digest {digest:#018x})"
        ));
    }
    if let Some(bytes) = recording {
        let replayed = Recording::parse(&bytes)
            .map_err(|e| e.to_string())
            .and_then(|rec| {
                let last = rec.frames.last().map_or(0, |f| f.round);
                snapshot::state_at(&rec, last)
            });
        match replayed {
            Ok(state) if &state == system.state() => {}
            Ok(_) => errors.push("flight recording replays to a different final state".into()),
            Err(e) => errors.push(format!("flight recording unreadable: {e}")),
        }
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
    events: u64,
    recorded_bytes: u64,
    layers: SimLayers,
}

/// One pass: a fresh set-up, then the campaign's rounds back to back, then
/// its output check (each campaign's first plain pass also replays its
/// recording).
fn pass(
    opts: &Options,
    kind: Kind,
    probes: (&FailureProbe, &MonitorProbe),
    campaign: (usize, u64, &Reference),
    tally: &mut Tally,
    outcome: &mut Outcome,
) {
    let Size { rounds, block, .. } = size(opts);
    let (c, seed, reference) = campaign;
    let (mut sim, setup) = build(opts, seed, kind, probes);
    let start = Instant::now();
    let mut block_start = start;
    for k in 0..rounds {
        if kind == Kind::Plain {
            let t = Instant::now();
            sim.step();
            tally.round_us.note(
                c * rounds as usize + k as usize,
                t.elapsed().as_secs_f64() * 1e6,
            );
        } else {
            tally.layers.step(&mut sim);
        }
        if (k + 1).is_multiple_of(block) {
            let index = c * (rounds / block) as usize + (k / block) as usize;
            tally
                .point_ms
                .note(index, block_start.elapsed().as_secs_f64() * 1e3);
            block_start = Instant::now();
        }
    }
    let wall = start.elapsed();
    if let Some(tel) = sim.telemetry_mut() {
        tel.flush();
        tally.events += tel.log_stats().0;
    }
    let recording = sim.take_recorder().map(|r| {
        tally.recorded_bytes += r.bytes_buffered() as u64;
        r.finish()
    });
    let replay = kind == Kind::Plain && (tally.setups.len() as u64) < size(opts).campaigns;
    check(
        &sim,
        reference,
        recording.filter(|_| replay),
        &mut outcome.errors,
    );
    tally.setups.push(setup);
    tally.wall += wall;
    tally.rounds += rounds;
    outcome.attempted += rounds;
    outcome.failed += sim.violations().len() as u64;
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
    let size = size(opts);
    let campaigns: Vec<(u64, Reference)> = (0..size.campaigns)
        .map(|k| campaign_seed(&size, opts.seed, k))
        .map(|seed| (seed, reference(opts, seed)))
        .collect();
    let digests: Vec<u8> = campaigns
        .iter()
        .flat_map(|(_, r)| r.digest.to_le_bytes())
        .collect();
    outcome.digest = fnv1a(&digests);
    let probes = [(); 3].map(|_| (FailureProbe::default(), MonitorProbe::default()));
    let [mut plain, mut traced, mut bare] = [(); 3].map(|_| Tally::default());
    let deadline = opts.deadline();
    // Whole cycles only, so every campaign weighs the same in a run.
    for (c, (seed, reference)) in campaigns.iter().enumerate().cycle() {
        let first_of_cycle = (plain.setups.len() as u64).is_multiple_of(size.campaigns);
        if first_of_cycle && plain.rounds > 0 && Instant::now() >= deadline {
            break;
        }
        let campaign = (c, *seed, reference);
        pass(
            opts,
            Kind::Plain,
            (&probes[0].0, &probes[0].1),
            campaign,
            &mut plain,
            &mut outcome,
        );
        if opts.trace {
            // Traced and bare passes alternate with the plain one, so all
            // three see the same machine conditions.
            crate::alloc::set_counting(true);
            pass(
                opts,
                Kind::Traced,
                (&probes[1].0, &probes[1].1),
                campaign,
                &mut traced,
                &mut outcome,
            );
            crate::alloc::set_counting(false);
            pass(
                opts,
                Kind::Bare,
                (&probes[2].0, &probes[2].1),
                campaign,
                &mut bare,
                &mut outcome,
            );
        }
    }
    let metrics = &mut outcome.metrics;
    probe::report_setup(metrics, &plain.setups);
    if !opts.trace {
        let rounds_per_s = plain.round_us.rate(size.rounds * size.campaigns, 1e-6);
        probe::report_e2e(metrics, rounds_per_s, &plain.round_us, &plain.point_ms);
        return outcome;
    }
    let (layers, rounds) = (&traced.layers, traced.rounds);
    let observe_ns = (probe::per(layers.step_ns, rounds)
        - probe::per(bare.layers.step_ns, bare.rounds))
    .max(0.0);
    metrics.set("observe.ns_per_round", observe_ns);
    metrics.set(
        "telemetry.events_per_round",
        probe::per(traced.events, rounds),
    );
    metrics.set(
        "recording.bytes_per_round",
        probe::per(traced.recorded_bytes, rounds),
    );
    layers.report(metrics, &probes[1].0, &probes[1].1, observe_ns);
    probe::report_overhead(
        metrics,
        probe::per_s(plain.rounds, plain.wall),
        probe::per_s(traced.rounds, traced.wall),
        probe::per(traced.wall.as_nanos() as u64, rounds),
        probe::per(layers.step_ns, rounds),
    );
    outcome
}
