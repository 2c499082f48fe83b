//! The per-cell rules of Figures 5 and 6, each written once for every
//! production driver: the engine's arena round ([`Engine`](crate::Engine)),
//! the message-passing node of `cellflow-net` and the tessellation phases of
//! `cellflow-tess`.
//!
//! Each rule is a plain, allocation-free function over values its caller has
//! already read. How a neighbour is reached (an arena index, a mailbox slot,
//! a [`SystemState`](crate::SystemState) lookup) stays with the driver. Cell
//! geometry comes in as boundary coordinates and is never derived from a unit
//! [`CellId`], so a tessellation with cells of any size runs the same rules.
//!
//! The pure phases ([`signal_phase`](crate::signal_phase),
//! [`move_phase`](crate::move_phase)) keep their own copies: they are the
//! oracle these functions are tested against.

use cellflow_geom::{sep_ok, Dir, Fixed, Point};
use cellflow_grid::CellId;

use crate::{Params, TokenPolicy};

/// The gap check of Figure 5 lines 4–7: `true` if no footprint among
/// `members` reaches into the `d`-wide strip along the cell's boundary facing
/// `dir`, which lies at coordinate `edge`.
pub fn gap_free<'a, I>(params: Params, dir: Dir, edge: Fixed, members: I) -> bool
where
    I: IntoIterator<Item = &'a Point>,
{
    let d = params.d();
    let h = params.half_l();
    members.into_iter().all(|p| {
        let far = p.along(dir.axis()) + h * dir.sign();
        if dir.sign() > 0 {
            far <= edge - d
        } else {
            far >= edge + d
        }
    })
}

/// Figure 5 lines 2–14 for the non-failed cell `id`: returns the new
/// `(signal, token)` registers.
///
/// `token` is the register as read, `cands` is `NEPrev` sorted ascending,
/// and `strip_free(dir)` is the [`gap_free`] check toward `dir`, called only
/// when a token exists. A token left on a non-neighbour by a transient fault
/// reads as `⊥`, so `Signal` self-stabilizes instead of trusting it. Then a
/// `⊥` token is chosen from `cands`. A free strip toward the holder grants it
/// and rotates the token (lines 10–12); an occupied one blocks and keeps the
/// token (line 14).
pub fn signal<F>(
    policy: TokenPolicy,
    id: CellId,
    round: u64,
    token: Option<CellId>,
    cands: &[CellId],
    strip_free: F,
) -> (Option<CellId>, Option<CellId>)
where
    F: FnOnce(Dir) -> bool,
{
    let token = token
        .filter(|&t| id.is_neighbor(t))
        .or_else(|| policy.choose_from(cands, id, round));
    let Some(tok) = token else {
        return (None, None);
    };
    let dir = id
        .dir_to(tok)
        .expect("token is always one of the cell's neighbors");
    if strip_free(dir) {
        (Some(tok), policy.rotate_from(cands, tok, id, round))
    } else {
        (None, Some(tok))
    }
}

/// Where one entity lands after a granted `Move` step ([`advance`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Still inside the sender, at the advanced position.
    Stay(Point),
    /// Crossed into the receiver, at this position flush against the
    /// receiver's entry edge. The sender consumes it instead when the
    /// receiver is the target.
    Cross(Point),
}

/// Figure 6 for one entity of a cell granted to move toward `dir`, where
/// `edge` is the boundary the cell shares with the receiver. The entity
/// advances by `v`. It crosses iff its far edge then lies strictly past
/// `edge`, and is snapped flush inside the receiver (the paper's line 16 with
/// its sign typo corrected).
pub fn advance(params: Params, dir: Dir, edge: Fixed, pos: Point) -> Step {
    let h = params.half_l();
    let moved = pos.translate(dir, params.v());
    let far = moved.along(dir.axis()) + h * dir.sign();
    let crossed = if dir.sign() > 0 {
        far > edge
    } else {
        far < edge
    };
    if crossed {
        Step::Cross(moved.with_along(dir.axis(), edge + h * dir.sign()))
    } else {
        Step::Stay(moved)
    }
}

/// The far-edge source placement of [`SourcePolicy::FarEdge`]: flush against
/// the boundary opposite `out` (the direction of the cell's `next`) and
/// centred on the transverse axis, or at `center` while `next = ⊥`.
/// `boundary(dir)` is the cell's boundary coordinate facing `dir`. Returns
/// `None` if an entity among `members` is closer than `d` to that slot.
///
/// [`SourcePolicy::FarEdge`]: crate::SourcePolicy::FarEdge
pub fn far_edge<'a, B, I>(
    params: Params,
    center: Point,
    out: Option<Dir>,
    boundary: B,
    members: I,
) -> Option<Point>
where
    B: FnOnce(Dir) -> Fixed,
    I: IntoIterator<Item = &'a Point>,
{
    let pos = match out {
        Some(dir) => {
            let back = dir.opposite();
            center.with_along(back.axis(), boundary(back) - params.half_l() * back.sign())
        }
        None => center,
    };
    members
        .into_iter()
        .all(|&q| sep_ok(pos, q, params.d()))
        .then_some(pos)
}

/// Each rule checked case by case against the pure phases on a 3×3 grid.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{move_phase, signal_phase, EntityId, SystemConfig};
    use cellflow_grid::GridDims;

    const MID: CellId = CellId::new(1, 1);

    fn params() -> Params {
        Params::from_milli(250, 50, 100).unwrap() // l/2 = 0.125, d = 0.3, v = 0.1
    }

    /// `MID`'s centre moved along `dir` until its far edge is `gap` short of
    /// the boundary facing `dir`.
    fn short_of(dir: Dir, gap: Fixed) -> Point {
        let along = MID.boundary(dir) - (gap + params().half_l()) * dir.sign();
        MID.center().with_along(dir.axis(), along)
    }

    /// Every `NEPrev` subset of `MID` × every token (⊥, a non-neighbour,
    /// each neighbour) × a resident at the centre or leaving the strip
    /// toward one side `d` wide, one raw unit narrower or closed × every
    /// policy × two rounds: `signal` writes what `signal_phase` writes.
    #[test]
    fn signal_matches_signal_phase_exhaustively() {
        let p = params();
        let nbrs = [
            CellId::new(0, 1),
            CellId::new(1, 0),
            CellId::new(1, 2),
            CellId::new(2, 1),
        ];
        let mut residents = vec![MID.center()];
        for dir in Dir::ALL {
            for gap in [p.d(), p.d() - Fixed::from_raw(1), Fixed::ZERO] {
                residents.push(short_of(dir, gap));
            }
        }
        let policies = [
            TokenPolicy::RoundRobin,
            TokenPolicy::FixedPriority,
            TokenPolicy::Randomized { salt: 7 },
        ];
        let (mut grants, mut blocks) = (0, 0);
        for policy in policies {
            let cfg = SystemConfig::new(GridDims::square(3), CellId::new(2, 2), p)
                .unwrap()
                .with_token_policy(policy);
            let dims = cfg.dims();
            for mask in 0..16 {
                let cands: Vec<CellId> = (0..4)
                    .filter(|s| mask & (1 << s) != 0)
                    .map(|s| nbrs[s])
                    .collect();
                let mut base = cfg.initial_state();
                for (slot, &n) in nbrs.iter().enumerate() {
                    // Outside `NEPrev`, even slots route here but hold
                    // nothing and odd ones hold an entity but route away.
                    let requests = mask & (1 << slot) != 0;
                    let c = base.cell_mut(dims, n);
                    if requests || slot % 2 == 0 {
                        c.next = Some(MID);
                    }
                    if requests || slot % 2 == 1 {
                        c.members.insert(EntityId(slot as u64), n.center());
                    }
                }
                let tokens = [None, Some(CellId::new(2, 2))];
                for token in tokens.into_iter().chain(nbrs.map(Some)) {
                    for &resident in &residents {
                        for round in 0..2 {
                            let mut s = base.clone();
                            let c = s.cell_mut(dims, MID);
                            c.token = token;
                            c.members.insert(EntityId(9), resident);
                            let want = signal_phase(&cfg, &s, round);
                            let want = want.cell(dims, MID);
                            let got = signal(policy, MID, round, token, &cands, |dir| {
                                gap_free(p, dir, MID.boundary(dir), [&resident])
                            });
                            assert_eq!(
                                got,
                                (want.signal, want.token),
                                "{policy:?} {mask:04b} {token:?} {resident:?} {round}"
                            );
                            grants += usize::from(got.0.is_some());
                            blocks += usize::from(got.0.is_none() && got.1.is_some());
                        }
                    }
                }
            }
        }
        assert!(grants > 0 && blocks > 0);
    }

    /// For each direction, toward the target or not, an entity whose far
    /// edge ends the step `v` or one raw unit short of the shared boundary,
    /// on it, or one raw unit or `v` past it: `advance` lands it where
    /// `move_phase` does.
    #[test]
    fn advance_matches_move_phase_exhaustively() {
        let p = params();
        let (v, one) = (p.v(), Fixed::from_raw(1));
        for dir in Dir::ALL {
            let nx = MID.step(dir).unwrap();
            for target in [nx, CellId::new(0, 0)] {
                let cfg = SystemConfig::new(GridDims::square(3), target, p).unwrap();
                let dims = cfg.dims();
                for past in [-v, -one, Fixed::ZERO, one, v] {
                    let pos = short_of(dir, v - past);
                    let mut s = cfg.initial_state();
                    s.cell_mut(dims, MID).next = Some(nx);
                    s.cell_mut(dims, MID).members.insert(EntityId(0), pos);
                    s.cell_mut(dims, nx).signal = Some(MID);
                    let want = move_phase(&cfg, &s);
                    let got = advance(p, dir, MID.boundary(dir), pos);
                    let case = format!("{dir} target {target} past {past:?}");
                    assert_eq!(matches!(got, Step::Cross(_)), past > Fixed::ZERO, "{case}");
                    let (cell, at) = match got {
                        Step::Stay(at) => (MID, at),
                        Step::Cross(at) => (nx, at),
                    };
                    if cell == target {
                        assert_eq!(want.consumed, [EntityId(0)], "{case}");
                    } else {
                        let members = &want.state.cell(dims, cell).members;
                        assert_eq!(members.get(&EntityId(0)), Some(&at), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn far_edge_uses_the_boundaries_it_is_given() {
        let p = params();
        // A cell spanning x ∈ [0, 2]: flow east inserts flush at x = l/2,
        // flow west at x = 2 − l/2, whatever a unit cell would say.
        let center = Point::new(Fixed::ONE, Fixed::HALF);
        let wide = |dir: Dir| match dir {
            Dir::East => Fixed::from_int(2),
            Dir::North => Fixed::ONE,
            Dir::West | Dir::South => Fixed::ZERO,
        };
        let slot = Point::new(p.half_l(), Fixed::HALF);
        let west = Point::new(Fixed::from_int(2) - p.half_l(), Fixed::HALF);
        let near = slot.translate(Dir::East, p.d() - Fixed::from_raw(1));
        let far = slot.translate(Dir::East, p.d());
        let east = Some(Dir::East);
        assert_eq!(far_edge(p, center, east, wide, [&far]), Some(slot));
        assert_eq!(far_edge(p, center, east, wide, [&near]), None);
        assert_eq!(far_edge(p, center, Some(Dir::West), wide, []), Some(west));
        assert_eq!(far_edge(p, center, None, wide, []), Some(center));
    }
}
