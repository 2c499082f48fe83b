//! Ablation A's per-round cost: RoundRobin vs Randomized vs the
//! rotation-free FixedPriority on a two-flow merge. The achieved throughput
//! (what the paper's fairness rule, Figure 5 lines 10–12, buys) is printed
//! by the `ablations` binary.

use cellflow_core::{Params, SystemConfig, TokenPolicy};
use cellflow_grid::{CellId, GridDims};
use cellflow_sim::Simulation;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Two flows (east and north) merging one hop before the target.
fn merge_config(policy: TokenPolicy) -> SystemConfig {
    SystemConfig::new(
        GridDims::square(4),
        CellId::new(2, 1),
        Params::from_milli(250, 50, 200).unwrap(),
    )
    .unwrap()
    .with_source(CellId::new(0, 1))
    .with_source(CellId::new(1, 0))
    .with_token_policy(policy)
}

fn bench_token_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("token_policy_merge");
    group.sample_size(20);
    for (name, policy) in [
        ("round_robin", TokenPolicy::RoundRobin),
        ("randomized", TokenPolicy::Randomized { salt: 7 }),
        ("fixed_priority", TokenPolicy::FixedPriority),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &policy, |b, &p| {
            b.iter(|| {
                let mut sim = Simulation::new(merge_config(p), 1).with_safety_checks(false);
                sim.run(300);
                sim.metrics().consumed_total()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_token_policies);
criterion_main!(benches);
