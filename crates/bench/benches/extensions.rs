//! Benchmarks of the paper-§V extensions: 3-D airspace rounds, the
//! multi-commodity crossing, and the deployment's overhead. The capacity
//! and cell-size ablation tables are printed by the `ablations` binary.

use cellflow_core::Params;
use cellflow_cube::{CellId3, Dims3, System3, SystemConfig3};
use cellflow_grid::{CellId, GridDims};
use cellflow_multiflow::{FlowType, MultiConfig, MultiSystem};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const ROUNDS: u64 = 250;

fn cube_tower(n: u16) -> SystemConfig3 {
    SystemConfig3::new(
        Dims3::new(n, n, 3),
        CellId3::new(n - 1, n - 1, 2),
        Params::from_milli(200, 50, 150).unwrap(),
    )
    .unwrap()
    .with_source(CellId3::new(0, 0, 0))
}

fn bench_cube(c: &mut Criterion) {
    let mut group = c.benchmark_group("cube_rounds");
    group.throughput(Throughput::Elements(ROUNDS));
    group.sample_size(20);
    for n in [4u16, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}x{n}x3")),
            &n,
            |b, &n| {
                b.iter(|| {
                    let mut sys = System3::new(cube_tower(n));
                    sys.run(ROUNDS);
                    sys.consumed_total()
                });
            },
        );
    }
    group.finish();
}

fn bench_multiflow(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiflow_rounds");
    group.throughput(Throughput::Elements(ROUNDS));
    group.sample_size(20);
    for types in [1usize, 2, 3] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{types}flows")),
            &types,
            |b, &types| {
                b.iter(|| {
                    let mut cfg = MultiConfig::new(
                        GridDims::square(7),
                        Params::from_milli(200, 50, 150).unwrap(),
                    )
                    .unwrap();
                    let flows = [
                        (CellId::new(0, 3), CellId::new(6, 3)),
                        (CellId::new(3, 0), CellId::new(3, 6)),
                        (CellId::new(6, 4), CellId::new(0, 4)),
                    ];
                    for (k, &(s, t)) in flows.iter().take(types).enumerate() {
                        cfg = cfg.with_flow(FlowType(k as u8), s, t).unwrap();
                    }
                    let mut sys = MultiSystem::new(cfg);
                    sys.run(ROUNDS);
                    (0..types as u8)
                        .map(|t| sys.consumed(FlowType(t)))
                        .sum::<u64>()
                });
            },
        );
    }
    group.finish();
}

fn bench_deployment_overhead(c: &mut Criterion) {
    // Shared-variable reference vs the real message-passing deployment
    // (threads + channels + barriers), same workload: the price of actually
    // being distributed, per 100 rounds on an 8×8 grid.
    use cellflow_grid::GridDims as GD;
    let config = cellflow_core::SystemConfig::new(
        GD::square(8),
        CellId::new(1, 7),
        Params::from_milli(250, 50, 200).unwrap(),
    )
    .unwrap()
    .with_source(CellId::new(1, 0));
    let mut group = c.benchmark_group("deployment");
    group.sample_size(10);
    group.bench_function("reference_100_rounds", |b| {
        b.iter(|| {
            let mut sys = cellflow_core::System::new(config.clone());
            sys.run(100);
            sys.consumed_total()
        });
    });
    group.bench_function("message_passing_100_rounds", |b| {
        b.iter(|| {
            cellflow_net::NetSystem::new(config.clone())
                .expect("no entity budget")
                .run(100)
                .expect("no node panics")
                .consumed
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cube,
    bench_multiflow,
    bench_deployment_overhead
);
criterion_main!(benches);
