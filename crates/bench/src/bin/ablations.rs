//! The ablation tables of EXPERIMENTS.md: the token policy on a two-flow
//! merge (Ablation A), the occupancy capacity under antagonistic
//! multi-commodity crossings, and the cell size of a rectangular
//! tessellation. Deterministic: every run prints the same bytes.
//!
//! Usage: `cargo run --release -p cellflow-bench --bin ablations`

use cellflow_core::{Params, SystemConfig, TokenPolicy};
use cellflow_geom::Fixed;
use cellflow_grid::{CellId, GridDims};
use cellflow_multiflow::{FlowType, MultiConfig, MultiSystem};
use cellflow_sim::Simulation;
use cellflow_tess::{TessSystem, Tessellation};

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

/// Head-on plus a double crossing on a 7×7 grid, with per-cell capacity
/// `cap`.
fn antagonistic_multi(cap: usize) -> MultiConfig {
    MultiConfig::new(
        GridDims::square(7),
        Params::from_milli(200, 50, 150).unwrap(),
    )
    .unwrap()
    .with_flow(FlowType(0), CellId::new(0, 3), CellId::new(6, 3))
    .unwrap()
    .with_flow(FlowType(1), CellId::new(3, 0), CellId::new(3, 6))
    .unwrap()
    .with_flow(FlowType(2), CellId::new(6, 4), CellId::new(0, 4))
    .unwrap()
    .with_cell_capacity(cap)
}

/// Ablation A: what Figure 5's rotation rule (lines 10–12) buys.
fn token_policy() {
    let k = 2_500;
    println!("Ablation A: token policy on a two-flow merge (4x4, K={k})\n");
    println!(
        "{:>16}  {:>10}  {:>13}",
        "policy", "throughput", "blocked/round"
    );
    for (name, policy) in [
        ("round_robin", TokenPolicy::RoundRobin),
        ("randomized", TokenPolicy::Randomized { salt: 7 }),
        ("fixed_priority", TokenPolicy::FixedPriority),
    ] {
        let mut sim = Simulation::new(merge_config(policy), 1).with_safety_checks(false);
        sim.run(k);
        let m = sim.metrics();
        println!(
            "{name:>16}  {:>10.4}  {:>13.2}",
            m.throughput(),
            m.mean_blocked()
        );
    }
}

/// Deliveries per capacity over a long horizon: the fluidity cliff between
/// capacity 1 and capacity ≥ 2 under antagonistic crossing load.
fn capacity() {
    let k = 5_000;
    println!("Occupancy capacity: antagonistic 3-flow crossing (7x7, K={k})\n");
    println!("{:>8}  {:>9}", "capacity", "delivered");
    for cap in [1usize, 2, 4, 8] {
        let mut sys = MultiSystem::new(antagonistic_multi(cap));
        sys.run(k);
        let total: u64 = (0..3u8).map(|t| sys.consumed(FlowType(t))).sum();
        println!("{cap:>8}  {total:>9}");
    }
}

/// A 6-cell corridor whose four interior cells are stretched: steady-state
/// throughput barely depends on cell size.
fn cell_size() {
    let k = 2_500;
    let params = Params::from_milli(250, 50, 200).unwrap();
    println!("Cell size: 6-cell corridor, interior cells stretched (K={k})\n");
    println!("{:>8}  {:>10}", "stretch", "throughput");
    for stretch_milli in [1_000i64, 1_500, 2_000, 3_000] {
        let stretched = Fixed::from_milli(stretch_milli);
        let mut widths = vec![stretched; 6];
        widths[0] = Fixed::ONE;
        widths[5] = Fixed::ONE;
        let tess = Tessellation::new(widths, vec![Fixed::ONE], params).unwrap();
        let mut sys = TessSystem::new(tess, CellId::new(5, 0), params)
            .unwrap()
            .with_source(CellId::new(0, 0));
        sys.run(k);
        println!(
            "{:>8.1}  {:>10.4}",
            stretch_milli as f64 / 1_000.0,
            sys.consumed_total() as f64 / k as f64
        );
    }
}

fn main() {
    token_policy();
    println!();
    capacity();
    println!();
    cell_size();
}
