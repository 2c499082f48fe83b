//! `net-chaos-32`: the message-passing deployment. A 1024-cell corridor
//! runs as a `NetSystem` with its worker pool capped at `nproc` under the
//! default `CampaignSpec` fault plan (bursts, a blackout, a flapper and a
//! hard crash whose successor respawns from the snapshot store) and
//! lossless chaos — duplicated and reordered announcements, nothing dropped
//! or delayed — during the active prefix. The standard monitors run on the
//! collector thread. Transport, barrier and write-ahead log carry the
//! round; the core engine is not used at all.
//!
//! One pass is one `run_monitored` call from a fresh deployment; its final
//! state must be bit-identical to a bare `System` under the same plan, as
//! `cellflow chaos` checks it. Passes cycle through a few plans drawn from
//! the run's seed, so that no single draw of fault sites sets a run's
//! figures.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cellflow_core::hash::fnv1a;
use cellflow_core::{
    standard_monitors, CampaignSpec, FaultPlan, Monitor, Params, System, SystemConfig, SystemState,
};
use cellflow_grid::{CellId, GridDims};
use cellflow_net::{ChaosConfig, NetSystem, NetTelemetry};
use cellflow_sim::FailureModel;
use cellflow_telemetry::Registry;

use crate::probe::{self, Best, MonitorProbe, RoundStamps, SetupSplit, SetupTimer};
use crate::{alloc, nproc, Options, Outcome, Scale, Threads};

/// Set-ups per plan; `setup_s` is the median over all of them.
const SETUPS: usize = 2;

#[derive(Clone, Copy)]
struct Size {
    n: u16,
    rounds: u64,
    /// Faults and chaos stop after this round.
    active: u64,
    /// Rounds per "point": one block of a pass, timed as a whole.
    block: u64,
    warmup: u64,
    /// Distinct plans a run cycles through.
    campaigns: u64,
}

fn size(opts: &Options) -> Size {
    match opts.scale {
        Scale::Full => Size {
            n: 32,
            rounds: 300,
            active: 100,
            block: 30,
            warmup: 20,
            campaigns: 4,
        },
        Scale::Tiny => Size {
            n: 6,
            rounds: 40,
            active: 15,
            block: 10,
            warmup: 5,
            campaigns: 2,
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

/// The seed of plan `k` of a run with seed `seed`.
fn campaign_seed(size: &Size, seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(size.campaigns).wrapping_add(k)
}

fn plan(config: &SystemConfig, size: &Size, seed: u64) -> FaultPlan {
    let spec = CampaignSpec {
        active_rounds: size.active,
        ..CampaignSpec::default()
    };
    FaultPlan::random_campaign(config, &spec, seed)
}

fn deployment(config: SystemConfig, plan: FaultPlan, size: &Size, seed: u64) -> NetSystem {
    NetSystem::new(config)
        .expect("budget-free configurations deploy")
        .with_plan(plan)
        .with_chaos(ChaosConfig {
            dup_rate: 0.1,
            reorder_rate: 0.1,
            until_round: Some(size.active),
            ..ChaosConfig::quiet(seed)
        })
        .with_worker_cap(nproc())
}

/// Builds the deployment and warms it with a short monitored run.
fn setup(opts: &Options, seed: u64) -> (NetSystem, SetupSplit) {
    let size = size(opts);
    let mut timer = SetupTimer::start();
    let config = config(size.n);
    let _ = config.topology();
    timer.config_done();
    let plan = plan(&config, &size, seed);
    timer.plan_done();
    let monitors = standard_monitors(&config);
    let net = deployment(config, plan, &size, seed);
    timer.build_done();
    net.run_monitored(size.warmup, monitors)
        .expect("the warm-up prefix of a kill-free campaign completes");
    (net, timer.warmup_done())
}

/// A bare `System` under the same plan: the state every pass must reach.
struct Reference {
    state: SystemState,
    consumed: u64,
    inserted: u64,
    digest: u64,
}

fn reference(opts: &Options, seed: u64) -> Reference {
    let size = size(opts);
    let config = config(size.n);
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
        consumed: system.consumed_total(),
        inserted: system.inserted_total(),
        state: system.state().clone(),
    }
}

/// Totals over the passes of one kind.
#[derive(Default)]
struct Tally {
    round_us: Best,
    point_ms: Best,
    wall: Duration,
    rounds: u64,
    passes: u64,
    duplicated: u64,
    reordered: u64,
}

/// One checked `run_monitored` call. Round latencies are the gaps between
/// the collector's observations of consecutive rounds; `campaign` is the
/// plan's index in the run's cycle.
fn pass(
    net: &NetSystem,
    size: &Size,
    campaign: usize,
    monitors: Vec<Box<dyn Monitor>>,
    reference: &Reference,
    tally: &mut Tally,
    outcome: &mut Outcome,
) {
    let Size { rounds, block, .. } = *size;
    let stamps = Arc::new(Mutex::new(Vec::with_capacity(rounds as usize)));
    let mut monitors = monitors.into_iter();
    let first = Box::new(RoundStamps::new(
        monitors.next().expect("four monitors"),
        &stamps,
    ));
    let monitors = std::iter::once(first as Box<dyn Monitor>)
        .chain(monitors)
        .collect();
    let start = Instant::now();
    let result = net.run_monitored(rounds, monitors);
    let wall = start.elapsed();
    let (mut last, mut block_start) = (start, start);
    for (k, &stamp) in stamps.lock().expect("the run has ended").iter().enumerate() {
        tally.round_us.note(
            campaign * rounds as usize + k,
            (stamp - last).as_secs_f64() * 1e6,
        );
        last = stamp;
        if (k as u64 + 1).is_multiple_of(block) {
            let index = campaign * (rounds / block) as usize + k / block as usize;
            tally
                .point_ms
                .note(index, (stamp - block_start).as_secs_f64() * 1e3);
            block_start = stamp;
        }
    }
    tally.wall += wall;
    tally.rounds += rounds;
    tally.passes += 1;
    outcome.attempted += rounds;
    match result {
        Err(e) => {
            outcome.errors.push(format!("deployment failed: {e}"));
            outcome.failed += rounds;
        }
        Ok(report) => {
            tally.duplicated += report.chaos.duplicated;
            tally.reordered += report.chaos.reordered;
            if let Some(first) = report.violations.first() {
                outcome.errors.push(format!(
                    "{} monitor violation(s), first: {first}",
                    report.violations.len()
                ));
                outcome.failed += report.violations.len() as u64;
            }
            if report.state.cells != reference.state.cells
                || report.consumed != reference.consumed
                || report.inserted != reference.inserted
            {
                outcome
                    .errors
                    .push("deployment diverged from the System reference".into());
            }
        }
    }
}

pub(crate) fn run(opts: &Options) -> Outcome {
    let size = size(opts);
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        digest: 0,
        threads: Threads {
            workers: nproc(),
            collector: 1,
        },
        metrics: Default::default(),
    };
    let seeds: Vec<u64> = (0..size.campaigns)
        .map(|k| campaign_seed(&size, opts.seed, k))
        .collect();
    let mut setups = Vec::new();
    let mut plain_nets = Vec::new();
    for _ in 0..SETUPS {
        plain_nets.clear();
        for &seed in &seeds {
            let (net, split) = setup(opts, seed);
            setups.push(split);
            plain_nets.push(net);
        }
    }
    let references: Vec<Reference> = seeds.iter().map(|&seed| reference(opts, seed)).collect();
    let digests: Vec<u8> = references
        .iter()
        .flat_map(|r| r.digest.to_le_bytes())
        .collect();
    outcome.digest = fnv1a(&digests);
    let config = config(size.n);

    let registry = Registry::new();
    let telemetry = Arc::new(NetTelemetry::new(&registry));
    let traced_nets: Option<Vec<NetSystem>> = opts.trace.then(|| {
        seeds
            .iter()
            .map(|&seed| {
                deployment(config.clone(), plan(&config, &size, seed), &size, seed)
                    .with_telemetry(Arc::clone(&telemetry))
            })
            .collect()
    });
    let monitor_probe = MonitorProbe::default();
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let mut allocs = (0, 0);
    let deadline = opts.deadline();
    // Whole cycles only, so every plan weighs the same in a run.
    for c in (0..seeds.len()).cycle() {
        if c == 0 && plain.passes > 0 && Instant::now() >= deadline {
            break;
        }
        let reference = &references[c];
        pass(
            &plain_nets[c],
            &size,
            c,
            standard_monitors(&config),
            reference,
            &mut plain,
            &mut outcome,
        );
        if let Some(nets) = &traced_nets {
            let before = alloc::counts();
            alloc::set_counting(true);
            pass(
                &nets[c],
                &size,
                c,
                monitor_probe.wrap(standard_monitors(&config)),
                reference,
                &mut traced,
                &mut outcome,
            );
            alloc::set_counting(false);
            let after = alloc::counts();
            allocs.0 += after.0 - before.0;
            allocs.1 += after.1 - before.1;
        }
    }

    let metrics = &mut outcome.metrics;
    probe::report_setup(metrics, &setups);
    if !opts.trace {
        let rounds_per_s = plain.round_us.rate(size.rounds * size.campaigns, 1e-6);
        probe::report_e2e(metrics, rounds_per_s, &plain.round_us, &plain.point_ms);
        return outcome;
    }
    let rounds = traced.rounds;
    let histogram = |name: &str, q: f64| registry.histogram(name).quantile(q) as f64;
    metrics.set(
        "net.barrier_wait_ns.p50",
        histogram("cellflow_net_barrier_wait_ns", 0.5),
    );
    metrics.set(
        "net.barrier_wait_ns.p99",
        histogram("cellflow_net_barrier_wait_ns", 0.99),
    );
    metrics.set(
        "net.cell_round_ns.p50",
        histogram("cellflow_net_cell_round_ns", 0.5),
    );
    metrics.set(
        "net.cell_round_ns.p99",
        histogram("cellflow_net_cell_round_ns", 0.99),
    );
    metrics.set(
        "net.inbox_batch.p50",
        histogram("cellflow_net_inbox_batch_size", 0.5),
    );
    let counter = |name: &str| probe::per(registry.counter(name).value(), rounds);
    metrics.set(
        "net.messages_per_round",
        counter("cellflow_net_messages_sent_total"),
    );
    metrics.set(
        "net.wal_appends_per_round",
        counter("cellflow_net_wal_appends_total"),
    );
    metrics.set(
        "net.chaos.duplicated",
        probe::per(traced.duplicated, traced.passes),
    );
    metrics.set(
        "net.chaos.reordered",
        probe::per(traced.reordered, traced.passes),
    );
    monitor_probe.report(metrics, rounds);
    metrics.set(
        "net.collector.monitor_ns",
        probe::per(monitor_probe.ns().iter().sum(), rounds),
    );
    metrics.set("alloc.count_per_round", probe::per(allocs.0, rounds));
    metrics.set("alloc.bytes_per_round", probe::per(allocs.1, rounds));
    let cell_round = registry.histogram("cellflow_net_cell_round_ns").mean() as f64;
    probe::report_overhead(
        metrics,
        probe::per_s(plain.rounds, plain.wall),
        probe::per_s(rounds, traced.wall),
        probe::per(traced.wall.as_nanos() as u64, rounds),
        cell_round,
    );
    outcome
}
