//! A centralized omniscient controller — the comparison baseline.
//!
//! The paper motivates its protocol against "traditional traffic protocols
//! \[which\] are centralized" (§I). This module implements that comparator with
//! the *same physics* (`Move` from `cellflow-core`) but perfect global
//! knowledge replacing the two distributed mechanisms:
//!
//! * **Routing**: exact BFS distances installed instantly each round (no
//!   `O(N²)`-round stabilization delay);
//! * **Granting**: each receiving cell grants the eligible upstream sender
//!   whose lead entity is closest to the shared boundary (no token rotation,
//!   never a wasted grant to a blocked or stale contender).
//!
//! Safety is preserved by construction (grants still require the free
//! boundary strip, one grant per receiver), so measured throughput
//! differences isolate the *cost of distribution* — the ablation reported in
//! `EXPERIMENTS.md`.

use cellflow_core::{move_phase, safety, SystemConfig, SystemState};
use cellflow_geom::Fixed;
use cellflow_grid::{connectivity, CellId};
use cellflow_routing::Dist;

/// The centralized controller and its system state.
pub struct CentralizedBaseline {
    config: SystemConfig,
    state: SystemState,
    round: u64,
    consumed_total: u64,
    inserted_total: u64,
    check_safety: bool,
}

impl CentralizedBaseline {
    /// Creates a centralized run of `config` from the initial state.
    pub fn new(config: SystemConfig) -> CentralizedBaseline {
        let state = config.initial_state();
        CentralizedBaseline {
            config,
            state,
            round: 0,
            consumed_total: 0,
            inserted_total: 0,
            check_safety: cfg!(debug_assertions),
        }
    }

    /// Forces per-round safety checking on or off.
    pub fn with_safety_checks(mut self, on: bool) -> CentralizedBaseline {
        self.check_safety = on;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The current state.
    pub fn state(&self) -> &SystemState {
        &self.state
    }

    /// Rounds executed.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Entities consumed by the target so far.
    pub fn consumed_total(&self) -> u64 {
        self.consumed_total
    }

    /// Entities created so far.
    pub fn inserted_total(&self) -> u64 {
        self.inserted_total
    }

    /// Average throughput so far (consumed / rounds).
    pub fn throughput(&self) -> f64 {
        if self.round == 0 {
            0.0
        } else {
            self.consumed_total as f64 / self.round as f64
        }
    }

    /// Crashes a cell (the baseline tolerates failures the same way).
    pub fn fail(&mut self, id: CellId) {
        self.state.fail(self.config.dims(), id);
    }

    /// Recovers a cell.
    pub fn recover(&mut self, id: CellId) {
        let t = self.config.target();
        self.state.recover(self.config.dims(), id, t);
    }

    /// One centralized round: instant routing, optimal granting, same physics.
    pub fn step(&mut self) {
        self.install_routes();
        self.install_grants();
        let outcome = move_phase(&self.config, &self.state);
        self.consumed_total += outcome.consumed.len() as u64;
        self.inserted_total += outcome.inserted.len() as u64;
        self.state = outcome.state;
        self.round += 1;
        if self.check_safety {
            if let Err(v) = safety::check_safe(&self.config, &self.state) {
                panic!("baseline safety violated at round {}: {v}", self.round);
            }
        }
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Installs exact BFS routing in one shot (the centralized coordinator
    /// has the global failure map).
    fn install_routes(&mut self) {
        let dims = self.config.dims();
        let failed: Vec<bool> = self.state.cells.iter().map(|c| c.failed).collect();
        let rho = connectivity::path_distances(dims, self.config.target(), &failed);
        for id in dims.iter() {
            if self.state.cell(dims, id).failed {
                continue;
            }
            let dist = match rho.get(id) {
                Some(d) => Dist::Finite(d),
                None => Dist::Infinity,
            };
            let next = if id == self.config.target() {
                None
            } else {
                rho.get(id).and_then(|d| {
                    dims.neighbors(id)
                        .filter(|&n| rho.get(n) == Some(d - 1))
                        .min()
                })
            };
            let c = self.state.cell_mut(dims, id);
            c.dist = dist;
            c.next = next;
        }
    }

    /// For every receiver, grant the eligible sender with the most imminent
    /// transfer; clear all other signals.
    fn install_grants(&mut self) {
        let dims = self.config.dims();
        let params = self.config.params();
        let mut grants: Vec<(CellId, Option<CellId>)> = Vec::new();
        for receiver in dims.iter() {
            let rcell = self.state.cell(dims, receiver);
            if rcell.failed {
                grants.push((receiver, None));
                continue;
            }
            // Eligible senders: live, nonempty, routing into `receiver`, and
            // the boundary strip on the receiver side is free.
            let mut best: Option<(Fixed, CellId)> = None;
            for sender in dims.neighbors(receiver) {
                let scell = self.state.cell(dims, sender);
                if scell.failed || scell.members.is_empty() || scell.next != Some(receiver) {
                    continue;
                }
                let dir = receiver.dir_to(sender).expect("neighbors have a direction");
                let members = self.state.cell(dims, receiver).members.values();
                if !cellflow_core::gap_free_toward(params, receiver, dir, members) {
                    continue;
                }
                // Distance of the sender's lead entity to the shared boundary.
                let toward = sender.dir_to(receiver).expect("neighbors");
                let boundary = sender.boundary(toward);
                let lead_gap = scell
                    .members
                    .values()
                    .map(|p| {
                        let edge = p.along(toward.axis()) + params.half_l() * toward.sign();
                        (boundary - edge).abs()
                    })
                    .min()
                    .expect("nonempty members");
                let candidate = (lead_gap, sender);
                best = Some(match best {
                    None => candidate,
                    Some(cur) if candidate < cur => candidate,
                    Some(cur) => cur,
                });
            }
            grants.push((receiver, best.map(|(_, s)| s)));
        }
        for (receiver, grant) in grants {
            self.state.cell_mut(dims, receiver).signal = grant;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use cellflow_core::Params;
    use cellflow_grid::GridDims;

    fn config() -> SystemConfig {
        SystemConfig::new(
            GridDims::square(8),
            CellId::new(1, 7),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(1, 0))
    }

    #[test]
    fn baseline_moves_traffic_safely() {
        let mut b = CentralizedBaseline::new(config()).with_safety_checks(true);
        b.run(400);
        assert!(b.throughput() > 0.0);
        assert_eq!(
            b.inserted_total(),
            b.consumed_total() + b.state().entity_count() as u64
        );
    }

    #[test]
    fn baseline_at_least_matches_distributed_throughput() {
        let rounds = 1_500;
        let mut base = CentralizedBaseline::new(config()).with_safety_checks(false);
        base.run(rounds);
        let mut dist = Simulation::new(config(), 1).with_safety_checks(false);
        dist.run(rounds);
        // The omniscient controller can't be noticeably worse on the paper's
        // single-flow scenario; allow a small tolerance for phase effects.
        assert!(
            base.throughput() >= dist.metrics().throughput() * 0.95,
            "baseline {} vs distributed {}",
            base.throughput(),
            dist.metrics().throughput()
        );
    }

    #[test]
    fn baseline_survives_failures() {
        let mut b = CentralizedBaseline::new(config()).with_safety_checks(true);
        b.run(50);
        b.fail(CellId::new(1, 4));
        b.run(100);
        b.recover(CellId::new(1, 4));
        b.run(100);
        assert!(b.consumed_total() > 0);
    }

    #[test]
    fn routes_install_instantly() {
        let mut b = CentralizedBaseline::new(config());
        b.step();
        // After one round every cell already has exact distances — no O(N²)
        // stabilization phase.
        let dims = b.config().dims();
        for id in dims.iter() {
            let c = b.state().cell(dims, id);
            assert_eq!(
                c.dist,
                Dist::Finite(id.manhattan(CellId::new(1, 7))),
                "cell {id}"
            );
        }
    }
}
