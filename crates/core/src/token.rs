//! Token selection policies — the `choose` steps of the `Signal` function.
//!
//! The paper's Figure 5 says *"token := **choose** from NEPrev"* (line 3) and
//! *"token := **choose** from NEPrev \ {token}"* (line 11) without fixing the
//! choice. The progress proof (Lemma 9) only needs the choice to be fair:
//! every nonempty predecessor must hold the token infinitely often. This
//! module provides deterministic implementations of the choice, plus a
//! deliberately *unfair* one used by the ablation experiments to demonstrate
//! starvation when rotation is removed.

use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hash, Hasher};

use cellflow_grid::CellId;

/// How a cell picks which neighbor in `NEPrev` receives its token.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TokenPolicy {
    /// Cyclic successor in identifier order (default). Fair: with `k`
    /// contenders, each holds the token at least once every `k` grants.
    RoundRobin,
    /// Pseudo-random choice keyed by `(salt, cell, round)`. Deterministic for
    /// a given seed, fair with probability 1. Not usable under the model
    /// checker (the choice depends on the round number, which is not part of
    /// the hashable state).
    Randomized {
        /// Seed mixed into every choice.
        salt: u64,
    },
    /// Always the smallest identifier — **ignores the paper's rotation rule**
    /// (Figure 5 lines 10–12). Unfair by construction; exists only so the
    /// ablation benchmarks/tests can demonstrate the starvation the rotation
    /// rule prevents.
    FixedPriority,
}

impl Default for TokenPolicy {
    /// [`TokenPolicy::RoundRobin`].
    fn default() -> TokenPolicy {
        TokenPolicy::RoundRobin
    }
}

impl TokenPolicy {
    /// Figure 5 line 3: pick a token holder from `ne_prev` when the current
    /// token is `⊥`. Returns `None` iff `ne_prev` is empty.
    ///
    /// ```
    /// use cellflow_core::TokenPolicy;
    /// use cellflow_grid::CellId;
    /// use std::collections::BTreeSet;
    ///
    /// let contenders: BTreeSet<CellId> =
    ///     [CellId::new(0, 1), CellId::new(2, 1)].into_iter().collect();
    /// let me = CellId::new(1, 1);
    /// let first = TokenPolicy::RoundRobin.choose(&contenders, me, 0).unwrap();
    /// // After a grant, rotation always moves off the current holder:
    /// let second = TokenPolicy::RoundRobin.rotate(&contenders, first, me, 1).unwrap();
    /// assert_ne!(first, second);
    /// ```
    pub fn choose(self, ne_prev: &BTreeSet<CellId>, cell: CellId, round: u64) -> Option<CellId> {
        match self {
            TokenPolicy::RoundRobin | TokenPolicy::FixedPriority => ne_prev.first().copied(),
            TokenPolicy::Randomized { salt } => pick_hashed(ne_prev, None, salt, cell, round),
        }
    }

    /// Figure 5 lines 10–12: after granting, pick the next token holder,
    /// avoiding `current` when another contender exists (`|NEPrev| > 1` ⇒
    /// choose from `NEPrev \ {token}`).
    ///
    /// Returns `None` iff `ne_prev` is empty. [`TokenPolicy::FixedPriority`]
    /// deliberately violates the avoid-`current` rule.
    pub fn rotate(
        self,
        ne_prev: &BTreeSet<CellId>,
        current: CellId,
        cell: CellId,
        round: u64,
    ) -> Option<CellId> {
        match ne_prev.len() {
            0 => None,
            1 => ne_prev.first().copied(),
            _ => match self {
                TokenPolicy::RoundRobin => {
                    // Smallest id strictly greater than `current`, wrapping.
                    ne_prev
                        .range((
                            std::ops::Bound::Excluded(current),
                            std::ops::Bound::Unbounded,
                        ))
                        .next()
                        .or_else(|| ne_prev.iter().find(|&&c| c != current))
                        .copied()
                }
                TokenPolicy::Randomized { salt } => {
                    pick_hashed(ne_prev, Some(current), salt, cell, round)
                }
                TokenPolicy::FixedPriority => ne_prev.first().copied(),
            },
        }
    }
    /// Allocation-free twin of [`TokenPolicy::choose`] over a sorted slice of
    /// contenders — the engine's `NEPrev` is a neighbor mask decoded into a
    /// stack array, never a `BTreeSet`. Agrees with `choose` on every input
    /// (`cands` sorted ascending, as a `BTreeSet` iterates).
    pub fn choose_from(self, cands: &[CellId], cell: CellId, round: u64) -> Option<CellId> {
        match self {
            TokenPolicy::RoundRobin | TokenPolicy::FixedPriority => cands.first().copied(),
            TokenPolicy::Randomized { salt } => pick_hashed_slice(cands, None, salt, cell, round),
        }
    }

    /// Allocation-free twin of [`TokenPolicy::rotate`] over a sorted slice.
    pub fn rotate_from(
        self,
        cands: &[CellId],
        current: CellId,
        cell: CellId,
        round: u64,
    ) -> Option<CellId> {
        match cands.len() {
            0 => None,
            1 => cands.first().copied(),
            _ => match self {
                TokenPolicy::RoundRobin => cands
                    .iter()
                    .find(|&&c| c > current)
                    .or_else(|| cands.iter().find(|&&c| c != current))
                    .copied(),
                TokenPolicy::Randomized { salt } => {
                    pick_hashed_slice(cands, Some(current), salt, cell, round)
                }
                TokenPolicy::FixedPriority => cands.first().copied(),
            },
        }
    }
}

/// Slice counterpart of [`pick_hashed`]: identical hash, identical filter,
/// identical index arithmetic — just counting instead of collecting.
fn pick_hashed_slice(
    cands: &[CellId],
    exclude: Option<CellId>,
    salt: u64,
    cell: CellId,
    round: u64,
) -> Option<CellId> {
    let keep = |c: &CellId| Some(*c) != exclude || cands.len() == 1;
    let n = cands.iter().filter(|c| keep(c)).count();
    if n == 0 {
        return cands.first().copied();
    }
    let mut h = DefaultHasher::new();
    (salt, cell, round).hash(&mut h);
    let idx = (h.finish() % n as u64) as usize;
    cands.iter().filter(|c| keep(c)).nth(idx).copied()
}

fn pick_hashed(
    ne_prev: &BTreeSet<CellId>,
    exclude: Option<CellId>,
    salt: u64,
    cell: CellId,
    round: u64,
) -> Option<CellId> {
    let candidates: Vec<CellId> = ne_prev
        .iter()
        .copied()
        .filter(|c| Some(*c) != exclude || ne_prev.len() == 1)
        .collect();
    if candidates.is_empty() {
        return ne_prev.first().copied();
    }
    let mut h = DefaultHasher::new();
    (salt, cell, round).hash(&mut h);
    let idx = (h.finish() % candidates.len() as u64) as usize;
    Some(candidates[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u16, j: u16) -> CellId {
        CellId::new(i, j)
    }

    fn set(cells: &[CellId]) -> BTreeSet<CellId> {
        cells.iter().copied().collect()
    }

    #[test]
    fn choose_from_empty_is_bottom() {
        for p in [
            TokenPolicy::RoundRobin,
            TokenPolicy::FixedPriority,
            TokenPolicy::Randomized { salt: 7 },
        ] {
            assert_eq!(p.choose(&BTreeSet::new(), id(1, 1), 0), None);
            assert_eq!(p.rotate(&BTreeSet::new(), id(0, 1), id(1, 1), 0), None);
        }
    }

    #[test]
    fn round_robin_cycles_through_all() {
        let contenders = set(&[id(0, 1), id(1, 0), id(1, 2), id(2, 1)]);
        let me = id(1, 1);
        let mut cur = TokenPolicy::RoundRobin.choose(&contenders, me, 0).unwrap();
        let mut seen = BTreeSet::from([cur]);
        for round in 1..=3 {
            cur = TokenPolicy::RoundRobin
                .rotate(&contenders, cur, me, round)
                .unwrap();
            assert!(seen.insert(cur), "{cur} repeated before full cycle");
        }
        assert_eq!(seen, contenders, "all contenders visited in one cycle");
        // Next rotation wraps back to the start.
        let wrapped = TokenPolicy::RoundRobin
            .rotate(&contenders, cur, me, 4)
            .unwrap();
        assert_eq!(wrapped, id(0, 1));
    }

    #[test]
    fn rotation_avoids_current_when_possible() {
        let contenders = set(&[id(0, 1), id(2, 1)]);
        for p in [TokenPolicy::RoundRobin, TokenPolicy::Randomized { salt: 3 }] {
            for round in 0..10 {
                let next = p.rotate(&contenders, id(0, 1), id(1, 1), round).unwrap();
                assert_ne!(next, id(0, 1), "{p:?} failed to rotate at round {round}");
            }
        }
    }

    #[test]
    fn singleton_keeps_token() {
        let only = set(&[id(0, 1)]);
        for p in [
            TokenPolicy::RoundRobin,
            TokenPolicy::FixedPriority,
            TokenPolicy::Randomized { salt: 1 },
        ] {
            assert_eq!(p.rotate(&only, id(0, 1), id(1, 1), 5), Some(id(0, 1)));
        }
    }

    #[test]
    fn fixed_priority_starves() {
        let contenders = set(&[id(0, 1), id(2, 1)]);
        // FixedPriority keeps handing the token to the smallest id.
        let first = TokenPolicy::FixedPriority
            .choose(&contenders, id(1, 1), 0)
            .unwrap();
        let second = TokenPolicy::FixedPriority
            .rotate(&contenders, first, id(1, 1), 1)
            .unwrap();
        assert_eq!(first, id(0, 1));
        assert_eq!(second, id(0, 1), "fixed priority must not rotate");
    }

    #[test]
    fn randomized_is_deterministic_per_round() {
        let contenders = set(&[id(0, 1), id(1, 0), id(2, 1)]);
        let p = TokenPolicy::Randomized { salt: 99 };
        let a = p.choose(&contenders, id(1, 1), 17);
        let b = p.choose(&contenders, id(1, 1), 17);
        assert_eq!(a, b);
        // Over many rounds every contender appears (fairness with pr. 1).
        let mut seen = BTreeSet::new();
        for round in 0..64 {
            seen.insert(p.choose(&contenders, id(1, 1), round).unwrap());
        }
        assert_eq!(seen, contenders);
    }

    #[test]
    fn default_is_round_robin() {
        assert_eq!(TokenPolicy::default(), TokenPolicy::RoundRobin);
    }

    /// The slice twins must agree with the `BTreeSet` originals on every
    /// subset of a cell's neighbors, every policy, every current holder —
    /// this is what lets the engine's mask-decoded arrays replace the sets.
    #[test]
    fn slice_twins_agree_with_set_versions_exhaustively() {
        let me = id(1, 1);
        let nbrs = [id(0, 1), id(1, 0), id(1, 2), id(2, 1)];
        let policies = [
            TokenPolicy::RoundRobin,
            TokenPolicy::FixedPriority,
            TokenPolicy::Randomized { salt: 0xC0FFEE },
        ];
        for mask in 0u8..16 {
            let subset: Vec<CellId> = nbrs
                .iter()
                .enumerate()
                .filter(|(s, _)| mask & (1 << s) != 0)
                .map(|(_, &c)| c)
                .collect();
            let as_set: BTreeSet<CellId> = subset.iter().copied().collect();
            for p in policies {
                for round in 0..8 {
                    assert_eq!(
                        p.choose_from(&subset, me, round),
                        p.choose(&as_set, me, round),
                        "choose mismatch: {p:?} mask {mask:04b} round {round}"
                    );
                    for &current in &nbrs {
                        assert_eq!(
                            p.rotate_from(&subset, current, me, round),
                            p.rotate(&as_set, current, me, round),
                            "rotate mismatch: {p:?} mask {mask:04b} \
                             current {current} round {round}"
                        );
                    }
                }
            }
        }
    }
}
