//! The distance domain `ℕ∞` and the single-node routing kernel.

use core::fmt;

/// A hop-distance estimate in `ℕ∞ = ℕ ∪ {∞}` (the paper's `dist` domain).
///
/// `Infinity` is what failed cells report (their neighbors treat a missing
/// response as `∞`, footnote 1 in the paper) and what disconnected cells
/// converge to. Ordered with `Infinity` greatest.
///
/// ```
/// use cellflow_routing::Dist;
///
/// assert!(Dist::Finite(7) < Dist::Infinity);
/// assert_eq!(Dist::Finite(7).succ(100), Dist::Finite(8));
/// // Saturation at the cap models ∞ with a finite state space:
/// assert_eq!(Dist::Finite(99).succ(100), Dist::Infinity);
/// assert_eq!(Dist::Infinity.succ(100), Dist::Infinity);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dist {
    /// A finite hop count.
    Finite(u32),
    /// Unreachable / failed (`∞`).
    Infinity,
}

impl Dist {
    /// `self + 1`, saturating to [`Dist::Infinity`] at `cap`.
    ///
    /// The paper's `dist` lives in unbounded `ℕ∞`; in a region disconnected
    /// from the target the rule `dist := 1 + min(nbrs)` counts up forever.
    /// Saturating at a cap strictly greater than any realizable path length
    /// (the callers use the cell count) leaves target-connected behavior
    /// untouched while making the state space finite — required by the model
    /// checker, and documented as a substitution in `DESIGN.md`.
    #[inline]
    pub fn succ(self, cap: u32) -> Dist {
        match self {
            Dist::Finite(d) if d + 1 < cap => Dist::Finite(d + 1),
            _ => Dist::Infinity,
        }
    }

    /// `true` if this is a finite distance.
    #[inline]
    pub const fn is_finite(self) -> bool {
        matches!(self, Dist::Finite(_))
    }

    /// The finite value, or `None` for `∞`.
    #[inline]
    pub const fn finite(self) -> Option<u32> {
        match self {
            Dist::Finite(d) => Some(d),
            Dist::Infinity => None,
        }
    }
}

impl fmt::Display for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dist::Finite(d) => write!(f, "{d}"),
            Dist::Infinity => f.write_str("∞"),
        }
    }
}

impl From<u32> for Dist {
    #[inline]
    fn from(d: u32) -> Dist {
        Dist::Finite(d)
    }
}

/// The paper's `Route` body for a single node (Figure 4, lines 2–5): given the
/// `(id, dist)` pairs of all neighbors, returns the node's new `dist` and
/// `next`.
///
/// * `dist := 1 + min(neighbor dists)`, saturating at `cap` (see [`Dist::succ`]);
/// * `next := ⊥` if `dist = ∞`, else the neighbor minimizing `(dist, id)` —
///   the identifier breaks ties, exactly as the paper's
///   `argmin (dist_{m,n}, ⟨m,n⟩)`.
///
/// ```
/// use cellflow_routing::{route_update, Dist};
///
/// let nbrs = [(1u32, Dist::Finite(3)), (2, Dist::Finite(2)), (3, Dist::Finite(2))];
/// let (d, next) = route_update(nbrs, 100);
/// assert_eq!(d, Dist::Finite(3));
/// assert_eq!(next, Some(2)); // tie on dist=2 broken by smaller id
///
/// let (d, next) = route_update([(9u32, Dist::Infinity)], 100);
/// assert_eq!((d, next), (Dist::Infinity, None));
/// ```
pub fn route_update<N, I>(neighbors: I, cap: u32) -> (Dist, Option<N>)
where
    N: Copy + Ord,
    I: IntoIterator<Item = (N, Dist)>,
{
    let mut best: Option<(Dist, N)> = None;
    for (id, d) in neighbors {
        let candidate = (d, id);
        best = Some(match best {
            None => candidate,
            Some(cur) if candidate < cur => candidate,
            Some(cur) => cur,
        });
    }
    match best {
        None => (Dist::Infinity, None),
        Some((d, id)) => {
            let new_dist = d.succ(cap);
            if new_dist.is_finite() {
                (new_dist, Some(id))
            } else {
                (new_dist, None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_display() {
        assert!(Dist::Finite(0) < Dist::Finite(1));
        assert!(Dist::Finite(u32::MAX) < Dist::Infinity);
        assert_eq!(Dist::Finite(4).to_string(), "4");
        assert_eq!(Dist::Infinity.to_string(), "∞");
        assert_eq!(Dist::from(3), Dist::Finite(3));
    }

    #[test]
    fn succ_saturates() {
        assert_eq!(Dist::Finite(0).succ(10), Dist::Finite(1));
        assert_eq!(Dist::Finite(8).succ(10), Dist::Finite(9));
        assert_eq!(Dist::Finite(9).succ(10), Dist::Infinity);
        assert_eq!(Dist::Infinity.succ(10), Dist::Infinity);
        assert_eq!(Dist::Finite(5).finite(), Some(5));
        assert_eq!(Dist::Infinity.finite(), None);
    }

    #[test]
    fn kernel_picks_min_dist_then_min_id() {
        let (d, n) = route_update(
            [
                (5u32, Dist::Finite(7)),
                (1, Dist::Finite(7)),
                (3, Dist::Finite(8)),
            ],
            1_000,
        );
        assert_eq!(d, Dist::Finite(8));
        assert_eq!(n, Some(1));
    }

    #[test]
    fn kernel_with_no_neighbors_is_isolated() {
        let (d, n) = route_update(core::iter::empty::<(u32, Dist)>(), 10);
        assert_eq!((d, n), (Dist::Infinity, None));
    }

    #[test]
    fn kernel_all_infinite_gives_bottom_next() {
        let (d, n) = route_update([(1u32, Dist::Infinity), (2, Dist::Infinity)], 10);
        assert_eq!(d, Dist::Infinity);
        assert_eq!(n, None);
    }

    #[test]
    fn kernel_saturation_drops_next() {
        // A neighbor at cap−1: successor saturates to ∞, so next must be ⊥
        // (Figure 4 line 3: if dist = ∞ then next := ⊥).
        let (d, n) = route_update([(1u32, Dist::Finite(9))], 10);
        assert_eq!(d, Dist::Infinity);
        assert_eq!(n, None);
    }
}
