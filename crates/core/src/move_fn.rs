//! The `Move` function (paper Figure 6): physical motion, transfers,
//! consumption, and source insertion.

use cellflow_geom::Point;
use cellflow_grid::CellId;

use crate::{EntityId, SystemConfig, SystemState};

/// An entity crossing from one cell into a neighboring cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// Which entity moved.
    pub entity: EntityId,
    /// The cell it left.
    pub from: CellId,
    /// The cell it entered.
    pub to: CellId,
}

/// Everything the `Move` phase did in one round.
#[derive(Clone, Debug)]
pub struct MoveOutcome {
    /// The post-move state.
    pub state: SystemState,
    /// Entities consumed by the target this round (they left the system).
    pub consumed: Vec<EntityId>,
    /// Entity transfers between ordinary cells this round.
    pub transfers: Vec<Transfer>,
    /// Entities created by source cells this round, with their cell.
    pub inserted: Vec<(CellId, EntityId)>,
    /// Cells that held permission and moved their entities this round.
    pub moved: Vec<CellId>,
}

/// Applies the `Move` function to every cell simultaneously.
///
/// A non-faulty cell `⟨i,j⟩` with `next = ⟨m,n⟩` moves all its entities by `v`
/// toward `⟨m,n⟩` **iff** `signal_{m,n} = ⟨i,j⟩` (and `⟨m,n⟩` is alive — a
/// failed cell "never communicates", so its stale signal reads as `⊥`).
/// An entity whose far edge then lies strictly beyond the shared boundary is
/// removed from `Members_{i,j}` and
///
/// * **consumed** if `⟨m,n⟩ = tid` (it leaves the system), or
/// * **transferred**: added to `Members_{m,n}` with its crossing coordinate
///   snapped flush to the receiving cell's near edge — `px := m + l/2` when
///   entering from the west, `px := (m+1) − l/2` from the east (the paper's
///   line 16 has the sign typo corrected; see `DESIGN.md`), and symmetrically
///   for `py`.
///
/// After all motion, each non-faulty source cell inserts at most one fresh
/// entity per its [`SourcePolicy`](crate::SourcePolicy), never violating the
/// spacing requirement, and subject to the configured entity budget.
///
/// All reads are from the input state (positions, signals), so motion is
/// simultaneous: a cell may receive an entity in the same round it moves its
/// own — safety under that interleaving is exactly what predicate `H` and
/// Lemma 4 establish, and what `safety::check_safe` verifies in tests.
///
/// ```
/// use cellflow_core::{move_phase, route_phase, signal_phase, Params, System, SystemConfig};
/// use cellflow_grid::{CellId, GridDims};
///
/// let cfg = SystemConfig::new(
///     GridDims::new(3, 1),
///     CellId::new(2, 0),
///     Params::from_milli(250, 50, 200)?,
/// )?
/// .with_source(CellId::new(0, 0));
/// let mut sys = System::new(cfg.clone());
/// sys.run(3); // routing stable, source primed
/// let x_s = signal_phase(&cfg, &route_phase(&cfg, sys.state()), 3);
/// let outcome = move_phase(&cfg, &x_s);
/// // The granted source cell moved its entities toward the corridor.
/// assert!(!outcome.moved.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn move_phase(config: &SystemConfig, state: &SystemState) -> MoveOutcome {
    let dims = config.dims();
    let params = config.params();
    let v = params.v();
    let h = params.half_l();

    let mut out = state.clone();
    let mut consumed = Vec::new();
    let mut transfers = Vec::new();
    let mut inserted = Vec::new();
    let mut moved = Vec::new();
    let mut incoming: Vec<(CellId, EntityId, Point)> = Vec::new();

    for id in dims.iter() {
        let cell = state.cell(dims, id);
        if cell.failed || cell.members.is_empty() {
            continue;
        }
        let Some(nx) = cell.next else { continue };
        let nx_cell = state.cell(dims, nx);
        if nx_cell.failed || nx_cell.signal != Some(id) {
            continue;
        }
        let dir = id.dir_to(nx).expect("next is always a neighbor");
        moved.push(id);
        let boundary = id.boundary(dir);
        for (&eid, &pos) in &cell.members {
            let new_pos = pos.translate(dir, v);
            let far_edge = new_pos.along(dir.axis()) + h * dir.sign();
            let crossed = if dir.sign() > 0 {
                far_edge > boundary
            } else {
                far_edge < boundary
            };
            let members = &mut out.cell_mut(dims, id).members;
            if crossed {
                members.remove(&eid);
                if nx == config.target() {
                    consumed.push(eid);
                } else {
                    // Enter the receiving cell flush at its near edge.
                    let entry_edge = nx.boundary(dir.opposite());
                    let snapped = new_pos.with_along(dir.axis(), entry_edge + h * dir.sign());
                    incoming.push((nx, eid, snapped));
                    transfers.push(Transfer {
                        entity: eid,
                        from: id,
                        to: nx,
                    });
                }
            } else {
                members.insert(eid, new_pos);
            }
        }
    }

    for (to, eid, pos) in incoming {
        out.cell_mut(dims, to).members.insert(eid, pos);
    }

    // Source insertion (at most one entity per source per round).
    for &s in config.sources() {
        if state.cell(dims, s).failed {
            continue; // a failed cell does nothing
        }
        if let Some(budget) = config.entity_budget() {
            if out.next_entity_id >= budget {
                continue;
            }
        }
        let placement = config
            .source_policy()
            .placement(params, s, out.cell(dims, s));
        if let Some(pos) = placement {
            let eid = EntityId(out.next_entity_id);
            out.next_entity_id += 1;
            out.cell_mut(dims, s).members.insert(eid, pos);
            inserted.push((s, eid));
        }
    }

    MoveOutcome {
        state: out,
        consumed,
        transfers,
        inserted,
        moved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Params, SourcePolicy, SystemConfig};
    use cellflow_geom::{Dir, Fixed};
    use cellflow_grid::GridDims;

    fn params() -> Params {
        Params::from_milli(250, 50, 100).unwrap() // l=0.25, rs=0.05, v=0.1
    }

    fn config() -> SystemConfig {
        SystemConfig::new(GridDims::square(3), CellId::new(2, 1), params()).unwrap()
    }

    fn pt(xm: i64, ym: i64) -> Point {
        Point::new(Fixed::from_milli(xm), Fixed::from_milli(ym))
    }

    /// State where ⟨0,1⟩ holds one entity and has permission to move east.
    fn granted_state(cfg: &SystemConfig, entity_x_milli: i64) -> SystemState {
        let dims = cfg.dims();
        let mut s = cfg.initial_state();
        s.cell_mut(dims, CellId::new(0, 1)).next = Some(CellId::new(1, 1));
        s.cell_mut(dims, CellId::new(0, 1))
            .members
            .insert(EntityId(0), pt(entity_x_milli, 1_500));
        s.cell_mut(dims, CellId::new(1, 1)).signal = Some(CellId::new(0, 1));
        s
    }

    #[test]
    fn permitted_cell_moves_by_v() {
        let cfg = config();
        let s = granted_state(&cfg, 500);
        let out = move_phase(&cfg, &s);
        assert_eq!(out.moved, vec![CellId::new(0, 1)]);
        assert!(out.transfers.is_empty());
        assert_eq!(
            out.state.cell(cfg.dims(), CellId::new(0, 1)).members[&EntityId(0)],
            pt(600, 1_500)
        );
    }

    #[test]
    fn unpermitted_cell_is_static() {
        let cfg = config();
        let mut s = granted_state(&cfg, 500);
        // Revoke the permission.
        s.cell_mut(cfg.dims(), CellId::new(1, 1)).signal = None;
        let out = move_phase(&cfg, &s);
        assert!(out.moved.is_empty());
        assert_eq!(
            out.state.cell(cfg.dims(), CellId::new(0, 1)).members[&EntityId(0)],
            pt(500, 1_500)
        );
        // Permission addressed to someone else also doesn't move us.
        s.cell_mut(cfg.dims(), CellId::new(1, 1)).signal = Some(CellId::new(1, 0));
        assert!(move_phase(&cfg, &s).moved.is_empty());
    }

    #[test]
    fn eastward_transfer_snaps_to_west_edge() {
        let cfg = config();
        // Entity at x = 0.85: far edge 0.975; after v = 0.1 → edge 1.075 > 1: crosses.
        let s = granted_state(&cfg, 850);
        let out = move_phase(&cfg, &s);
        assert_eq!(
            out.transfers,
            vec![Transfer {
                entity: EntityId(0),
                from: CellId::new(0, 1),
                to: CellId::new(1, 1)
            }]
        );
        assert!(out
            .state
            .cell(cfg.dims(), CellId::new(0, 1))
            .members
            .is_empty());
        // Snapped flush: px = 1 + l/2 = 1.125, py preserved.
        assert_eq!(
            out.state.cell(cfg.dims(), CellId::new(1, 1)).members[&EntityId(0)],
            pt(1_125, 1_500)
        );
    }

    #[test]
    fn touching_the_boundary_does_not_transfer() {
        let cfg = config();
        // x = 0.775: far edge 0.9; after v → edge exactly 1.0: NOT strictly past.
        let s = granted_state(&cfg, 775);
        let out = move_phase(&cfg, &s);
        assert!(out.transfers.is_empty());
        assert_eq!(
            out.state.cell(cfg.dims(), CellId::new(0, 1)).members[&EntityId(0)],
            pt(875, 1_500)
        );
    }

    #[test]
    fn westward_transfer_snaps_to_east_edge() {
        let cfg = config();
        let dims = cfg.dims();
        let mut s = cfg.initial_state();
        s.cell_mut(dims, CellId::new(1, 1)).next = Some(CellId::new(0, 1));
        s.cell_mut(dims, CellId::new(1, 1))
            .members
            .insert(EntityId(0), pt(1_150, 1_500)); // near west edge of ⟨1,1⟩
        s.cell_mut(dims, CellId::new(0, 1)).signal = Some(CellId::new(1, 1));
        let out = move_phase(&cfg, &s);
        assert_eq!(out.transfers.len(), 1);
        // Entering ⟨0,1⟩ from the east: px = 1 − l/2 = 0.875 (the corrected
        // Figure 6 line 16).
        assert_eq!(
            out.state.cell(dims, CellId::new(0, 1)).members[&EntityId(0)],
            pt(875, 1_500)
        );
    }

    #[test]
    fn vertical_transfers_snap_too() {
        let cfg = config();
        let dims = cfg.dims();
        // North: ⟨1,0⟩ → ⟨1,1⟩.
        let mut s = cfg.initial_state();
        s.cell_mut(dims, CellId::new(1, 0)).next = Some(CellId::new(1, 1));
        s.cell_mut(dims, CellId::new(1, 0))
            .members
            .insert(EntityId(0), pt(1_500, 850));
        s.cell_mut(dims, CellId::new(1, 1)).signal = Some(CellId::new(1, 0));
        let out = move_phase(&cfg, &s);
        assert_eq!(
            out.state.cell(dims, CellId::new(1, 1)).members[&EntityId(0)],
            pt(1_500, 1_125)
        );
        // South: ⟨1,2⟩ → ⟨1,1⟩.
        let mut s = cfg.initial_state();
        s.cell_mut(dims, CellId::new(1, 2)).next = Some(CellId::new(1, 1));
        s.cell_mut(dims, CellId::new(1, 2))
            .members
            .insert(EntityId(0), pt(1_500, 2_150));
        s.cell_mut(dims, CellId::new(1, 1)).signal = Some(CellId::new(1, 2));
        let out = move_phase(&cfg, &s);
        assert_eq!(
            out.state.cell(dims, CellId::new(1, 1)).members[&EntityId(0)],
            pt(1_500, 1_875)
        );
    }

    #[test]
    fn target_consumes_instead_of_receiving() {
        let cfg = config();
        let dims = cfg.dims();
        let mut s = cfg.initial_state();
        // ⟨1,1⟩ routes into the target ⟨2,1⟩ with an entity about to cross.
        s.cell_mut(dims, CellId::new(1, 1)).next = Some(CellId::new(2, 1));
        s.cell_mut(dims, CellId::new(1, 1))
            .members
            .insert(EntityId(7), pt(1_850, 1_500));
        s.cell_mut(dims, CellId::new(2, 1)).signal = Some(CellId::new(1, 1));
        let out = move_phase(&cfg, &s);
        assert_eq!(out.consumed, vec![EntityId(7)]);
        assert!(out.transfers.is_empty());
        assert_eq!(out.state.entity_count(), 0);
        assert!(out.state.cell(dims, CellId::new(2, 1)).members.is_empty());
    }

    #[test]
    fn failed_next_grants_nothing() {
        let cfg = config();
        let mut s = granted_state(&cfg, 500);
        // The granting cell fails, but its stale signal remains in memory:
        // a failed cell never communicates, so no movement may happen.
        let dims = cfg.dims();
        s.cell_mut(dims, CellId::new(1, 1)).failed = true;
        s.cell_mut(dims, CellId::new(1, 1)).signal = Some(CellId::new(0, 1));
        let out = move_phase(&cfg, &s);
        assert!(out.moved.is_empty());
    }

    #[test]
    fn failed_cell_does_not_move_even_with_grant() {
        let cfg = config();
        let mut s = granted_state(&cfg, 500);
        s.cell_mut(cfg.dims(), CellId::new(0, 1)).failed = true;
        let out = move_phase(&cfg, &s);
        assert!(out.moved.is_empty());
        assert_eq!(
            out.state.cell(cfg.dims(), CellId::new(0, 1)).members[&EntityId(0)],
            pt(500, 1_500),
            "entities on failed cells are frozen"
        );
    }

    #[test]
    fn two_side_by_side_entities_transfer_together() {
        let cfg = config();
        let dims = cfg.dims();
        let mut s = cfg.initial_state();
        s.cell_mut(dims, CellId::new(0, 1)).next = Some(CellId::new(1, 1));
        // Same x, d-separated in y: both cross together.
        s.cell_mut(dims, CellId::new(0, 1))
            .members
            .insert(EntityId(0), pt(850, 1_300));
        s.cell_mut(dims, CellId::new(0, 1))
            .members
            .insert(EntityId(1), pt(850, 1_600));
        s.cell_mut(dims, CellId::new(1, 1)).signal = Some(CellId::new(0, 1));
        let out = move_phase(&cfg, &s);
        assert_eq!(out.transfers.len(), 2);
        let m = &out.state.cell(dims, CellId::new(1, 1)).members;
        assert_eq!(m[&EntityId(0)], pt(1_125, 1_300));
        assert_eq!(m[&EntityId(1)], pt(1_125, 1_600));
    }

    #[test]
    fn sources_insert_with_budget() {
        let cfg = SystemConfig::new(GridDims::square(3), CellId::new(2, 1), params())
            .unwrap()
            .with_source(CellId::new(0, 1))
            .with_entity_budget(2);
        let dims = cfg.dims();
        let mut s = cfg.initial_state();
        s.cell_mut(dims, CellId::new(0, 1)).next = Some(CellId::new(1, 1));
        // Round 1: insert p0 at far (west) edge.
        let out = move_phase(&cfg, &s);
        assert_eq!(out.inserted, vec![(CellId::new(0, 1), EntityId(0))]);
        assert_eq!(out.state.next_entity_id, 1);
        assert_eq!(
            out.state.cell(dims, CellId::new(0, 1)).members[&EntityId(0)],
            pt(125, 1_500)
        );
        // Round 2 without movement: slot occupied ⇒ no insertion.
        let mut s2 = out.state;
        s2.cell_mut(dims, CellId::new(0, 1)).next = Some(CellId::new(1, 1));
        let out2 = move_phase(&cfg, &s2);
        assert!(out2.inserted.is_empty());
        // Move the resident d away; insertion resumes (budget: one left).
        let mut s3 = out2.state;
        s3.cell_mut(dims, CellId::new(0, 1))
            .members
            .insert(EntityId(0), pt(125 + 300, 1_500));
        let out3 = move_phase(&cfg, &s3);
        assert_eq!(out3.inserted.len(), 1);
        assert_eq!(out3.state.next_entity_id, 2);
        // Budget exhausted: no more insertions ever.
        let mut s4 = out3.state;
        s4.cell_mut(dims, CellId::new(0, 1)).members.clear();
        let out4 = move_phase(&cfg, &s4);
        assert!(out4.inserted.is_empty());
    }

    #[test]
    fn failed_source_does_not_insert() {
        let cfg = SystemConfig::new(GridDims::square(3), CellId::new(2, 1), params())
            .unwrap()
            .with_source(CellId::new(0, 1));
        let mut s = cfg.initial_state();
        s.fail(cfg.dims(), CellId::new(0, 1));
        let out = move_phase(&cfg, &s);
        assert!(out.inserted.is_empty());
    }

    #[test]
    fn disabled_source_policy_inserts_nothing() {
        let cfg = SystemConfig::new(GridDims::square(3), CellId::new(2, 1), params())
            .unwrap()
            .with_source(CellId::new(0, 1))
            .with_source_policy(SourcePolicy::Disabled);
        let out = move_phase(&cfg, &cfg.initial_state());
        assert!(out.inserted.is_empty());
    }

    #[test]
    fn mutual_grant_produces_no_transfer() {
        // Lemma 4: signal 2-cycle ⇒ Members unchanged (entities may still move
        // inside their cells, but cannot cross).
        let cfg = config();
        let dims = cfg.dims();
        let mut s = cfg.initial_state();
        let a = CellId::new(0, 1);
        let b = CellId::new(1, 1);
        s.cell_mut(dims, a).next = Some(b);
        s.cell_mut(dims, b).next = Some(a);
        s.cell_mut(dims, a).signal = Some(b);
        s.cell_mut(dims, b).signal = Some(a);
        // Positions satisfying H on both sides (the only reachable way a
        // mutual grant arises): gaps free toward each other.
        s.cell_mut(dims, a)
            .members
            .insert(EntityId(0), pt(500, 1_500));
        s.cell_mut(dims, b)
            .members
            .insert(EntityId(1), pt(1_500, 1_500));
        let out = move_phase(&cfg, &s);
        assert!(out.transfers.is_empty(), "Lemma 4 violated");
        assert_eq!(out.moved.len(), 2);
        // Both moved toward each other without crossing.
        assert_eq!(
            out.state.cell(dims, a).members[&EntityId(0)],
            pt(600, 1_500)
        );
        assert_eq!(
            out.state.cell(dims, b).members[&EntityId(1)],
            pt(1_400, 1_500)
        );
    }

    #[test]
    fn dir_to_direction_matrix_covers_moves() {
        // Sanity: a grant moves entities exactly toward `next` for all four dirs.
        let cfg = config();
        let dims = cfg.dims();
        let center = CellId::new(1, 1);
        for dir in Dir::ALL {
            let nbr = center.step(dir).unwrap();
            let mut s = cfg.initial_state();
            s.cell_mut(dims, center).next = Some(nbr);
            s.cell_mut(dims, center)
                .members
                .insert(EntityId(0), pt(1_500, 1_500));
            s.cell_mut(dims, nbr).signal = Some(center);
            let out = move_phase(&cfg, &s);
            let moved_to = out.state.cell(dims, center).members[&EntityId(0)];
            assert_eq!(
                moved_to,
                pt(1_500, 1_500).translate(dir, params().v()),
                "{dir}"
            );
        }
    }
}
