//! Analysis helpers: the path distance `ρ`, the target-connected set `TC`,
//! and routing-stabilization observers (paper §III-B).

use std::collections::HashSet;

use cellflow_grid::{connectivity, CellId};
use cellflow_routing::{route_update, Dist};

use crate::{StateView, SystemConfig, SystemState};

/// The paper's path distance `ρ(x, ⟨i,j⟩)`: hop distance to the target
/// through non-faulty cells, `None` for `∞`.
pub fn rho(config: &SystemConfig, state: &SystemState) -> connectivity::Distances {
    let failed: Vec<bool> = state.cells.iter().map(|c| c.failed).collect();
    connectivity::path_distances(config.dims(), config.target(), &failed)
}

/// The target-connected set `TC(x)`: cells with finite path distance.
pub fn tc(config: &SystemConfig, state: &SystemState) -> HashSet<CellId> {
    rho(config, state)
        .iter_connected()
        .map(|(c, _)| c)
        .collect()
}

/// `true` if routing has stabilized (the stable set `S` of Lemma 6 for the
/// whole grid): every non-faulty cell's `dist` equals `ρ` (with `∞` for
/// disconnected cells) and its `next` is the `(dist, id)`-argmin neighbor.
///
/// ```
/// use cellflow_core::{analysis, Params, System, SystemConfig};
/// use cellflow_grid::{CellId, GridDims};
///
/// let cfg = SystemConfig::new(
///     GridDims::square(4),
///     CellId::new(3, 3),
///     Params::from_milli(250, 50, 200)?,
/// )?;
/// let mut sys = System::new(cfg);
/// assert!(!analysis::routing_stabilized(sys.config(), sys.state()));
/// sys.run(7); // eccentricity of ⟨3,3⟩ is 6 (Corollary 7's bound is generous)
/// assert!(analysis::routing_stabilized(sys.config(), sys.state()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn routing_stabilized(config: &SystemConfig, state: &SystemState) -> bool {
    let rho = rho(config, state);
    let view = StateView::from(state);
    (0..view.cell_count()).all(|k| cell_stabilized(config, &rho, view, k))
}

/// The per-cell clause of [`routing_stabilized`] for the cell at arena
/// index `k` under the path distances `rho`: a failed cell is stable
/// (`fail()` pinned it), a live one holds `dist = ρ` and, off the target,
/// the `(dist, id)`-argmin neighbor as `next`. It reads only the cell's own
/// registers and `ρ`, so while no `failed` flag flips, a cell's verdict
/// changes only with its registers.
pub(crate) fn cell_stabilized(
    config: &SystemConfig,
    rho: &connectivity::Distances,
    state: StateView<'_>,
    k: usize,
) -> bool {
    let id = config.dims().id_at(k);
    let expected_dist = |id: CellId| -> Dist {
        match rho.get(id) {
            Some(d) => Dist::Finite(d),
            None => Dist::Infinity,
        }
    };
    if state.failed(k) {
        return true;
    }
    if state.dist(k) != expected_dist(id) {
        return false;
    }
    if id == config.target() {
        return true;
    }
    let (_, want_next) = route_update(
        config.dims().neighbors(id).map(|n| (n, expected_dist(n))),
        config.dist_cap(),
    );
    state.next(k) == want_next
}

/// The number of entities sitting on target-connected cells — the entities
/// Theorem 10 promises will eventually be consumed.
pub fn entities_on_tc(config: &SystemConfig, state: &SystemState) -> usize {
    let dims = config.dims();
    let connected = tc(config, state);
    connected
        .iter()
        .map(|&id| state.cell(dims, id).members.len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Params, System, SystemConfig};
    use cellflow_grid::GridDims;

    fn config() -> SystemConfig {
        SystemConfig::new(
            GridDims::square(4),
            CellId::new(3, 3),
            Params::from_milli(250, 50, 100).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn rho_and_tc_track_failures() {
        let mut sys = System::new(config());
        assert_eq!(tc(sys.config(), sys.state()).len(), 16);
        assert_eq!(
            rho(sys.config(), sys.state()).get(CellId::new(0, 0)),
            Some(6)
        );
        sys.fail(CellId::new(0, 0));
        let connected = tc(sys.config(), sys.state());
        assert_eq!(connected.len(), 15);
        assert!(!connected.contains(&CellId::new(0, 0)));
        assert_eq!(rho(sys.config(), sys.state()).get(CellId::new(0, 0)), None);
    }

    #[test]
    fn stabilization_observer_flips_after_enough_rounds() {
        let mut sys = System::new(config());
        assert!(!routing_stabilized(sys.config(), sys.state()));
        sys.run(7); // eccentricity of ⟨3,3⟩ is 6
        assert!(routing_stabilized(sys.config(), sys.state()));
        // A failure invalidates stabilization; O(N²) rounds restore it.
        sys.fail(CellId::new(3, 2));
        sys.fail(CellId::new(2, 3));
        sys.run(2 * 16 + 2);
        assert!(routing_stabilized(sys.config(), sys.state()));
        // Everything is now disconnected except the target.
        assert_eq!(tc(sys.config(), sys.state()).len(), 1);
    }

    #[test]
    fn entities_on_tc_counts_only_connected() {
        let mut sys = System::new(config());
        sys.run(7);
        sys.seed_entity(CellId::new(0, 0), CellId::new(0, 0).center())
            .unwrap();
        sys.seed_entity(CellId::new(2, 2), CellId::new(2, 2).center())
            .unwrap();
        assert_eq!(entities_on_tc(sys.config(), sys.state()), 2);
        // Wall off ⟨0,0⟩.
        sys.fail(CellId::new(1, 0));
        sys.fail(CellId::new(0, 1));
        assert_eq!(entities_on_tc(sys.config(), sys.state()), 1);
    }
}
