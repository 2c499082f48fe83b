//! Monte-Carlo invariant checking: randomized walks through the state space.
//!
//! Exhaustive exploration ([`Explorer`](crate::Explorer)) proves properties
//! on *small* instances; plain simulation exercises one schedule. Random
//! walks sit in between: many independent trajectories with randomly chosen
//! enabled actions, checking the invariant at every visited state — a cheap
//! high-coverage smoke test for instances too large to enumerate.

use crate::{Dts, Execution};

/// A deterministic xorshift64* generator — enough randomness for walk
/// scheduling without pulling a dependency into this crate.
#[derive(Clone, Debug)]
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

// Each walk owning its own splitmix64-derived seed ([`crate::hash::walk_seed`])
// is what makes the sequential and parallel drivers produce identical
// results: a walk's randomness no longer depends on how many values earlier
// walks consumed.
use crate::hash::walk_seed;

/// Configuration for [`random_walks`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkConfig {
    /// Number of independent trajectories.
    pub walks: usize,
    /// Transitions per trajectory.
    pub depth: usize,
    /// Seed for the walk scheduler.
    pub seed: u64,
}

impl Default for WalkConfig {
    /// 64 walks of depth 256.
    fn default() -> WalkConfig {
        WalkConfig {
            walks: 64,
            depth: 256,
            seed: 0x5EED,
        }
    }
}

/// Statistics from a successful [`random_walks`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkReport {
    /// States on which the invariant was checked (including revisits).
    pub states_checked: usize,
    /// Walks that ended early in a deadlock (no enabled actions).
    pub deadlocked_walks: usize,
}

/// Runs random walks over `sys`, checking `invariant` at every state.
///
/// Each walk starts from a uniformly chosen initial state and repeatedly
/// fires a uniformly chosen enabled action. Unlike
/// [`check_invariant`](crate::check_invariant) this is *not* exhaustive — a
/// clean pass is evidence, not proof — but it scales to instances far beyond
/// enumeration.
///
/// # Errors
///
/// Returns the violating [`Execution`] (the full walk up to and including the
/// bad state).
///
/// ```
/// use cellflow_dts::{random_walks, Dts, WalkConfig};
/// # struct C;
/// # impl Dts for C {
/// #     type State = u32; type Action = u32;
/// #     fn initial_states(&self) -> Vec<u32> { vec![0] }
/// #     fn enabled(&self, _: &u32) -> Vec<u32> { vec![1, 2] }
/// #     fn apply(&self, s: &u32, a: &u32) -> u32 { (s + a) % 97 }
/// # }
/// let report = random_walks(&C, |s| *s < 97, &WalkConfig::default()).unwrap();
/// assert!(report.states_checked > 1_000);
/// let bad = random_walks(&C, |s| *s != 42, &WalkConfig::default()).unwrap_err();
/// assert_eq!(*bad.last(), 42);
/// ```
pub fn random_walks<A, P>(
    sys: &A,
    invariant: P,
    config: &WalkConfig,
) -> Result<WalkReport, Execution<A>>
where
    A: Dts,
    P: Fn(&A::State) -> bool,
{
    let initials = sys.initial_states();
    assert!(!initials.is_empty(), "system has no initial states");
    let mut states_checked = 0usize;
    let mut deadlocked_walks = 0usize;

    for walk in 0..config.walks {
        let mut rng = XorShift::new(walk_seed(config.seed, walk));
        match run_walk(sys, &invariant, &initials, &mut rng, config.depth) {
            Ok((checked, deadlocked)) => {
                states_checked += checked;
                deadlocked_walks += deadlocked;
            }
            Err(exec) => return Err(exec),
        }
    }
    Ok(WalkReport {
        states_checked,
        deadlocked_walks,
    })
}

/// One trajectory: returns `(states checked, 1 if deadlocked else 0)`, or
/// the violating execution.
fn run_walk<A, P>(
    sys: &A,
    invariant: &P,
    initials: &[A::State],
    rng: &mut XorShift,
    depth: usize,
) -> Result<(usize, usize), Execution<A>>
where
    A: Dts,
    P: Fn(&A::State) -> bool,
{
    let start = initials[rng.below(initials.len())].clone();
    let mut exec = Execution::new(start);
    let mut states_checked = 1usize;
    if !invariant(exec.last()) {
        return Err(exec);
    }
    for _ in 0..depth {
        let actions = sys.enabled(exec.last());
        if actions.is_empty() {
            return Ok((states_checked, 1));
        }
        let action = actions[rng.below(actions.len())].clone();
        let next = sys.apply(exec.last(), &action);
        exec.push(action, next);
        states_checked += 1;
        if !invariant(exec.last()) {
            return Err(exec);
        }
    }
    Ok((states_checked, 0))
}

/// [`random_walks`] fanned out over `threads` scoped workers, each owning a
/// disjoint contiguous range of walk indices. Because every walk derives its
/// generator from [`walk_seed`]`(seed, walk)` alone, the outcome — including
/// *which* violating execution is reported when several walks fail — is
/// byte-identical to the sequential driver: all walks run to completion and
/// the error of the lowest-numbered failing walk wins.
///
/// # Errors
///
/// Returns the violating [`Execution`] of the lowest-numbered failing walk.
///
/// # Panics
///
/// Panics if the system has no initial states, and propagates panics from
/// worker threads.
pub fn random_walks_parallel<A, P>(
    sys: &A,
    invariant: P,
    config: &WalkConfig,
    threads: usize,
) -> Result<WalkReport, Execution<A>>
where
    A: Dts + Sync,
    A::State: Send + Sync,
    A::Action: Send,
    P: Fn(&A::State) -> bool + Sync,
{
    if threads <= 1 || config.walks <= 1 {
        return random_walks(sys, invariant, config);
    }
    let initials = sys.initial_states();
    assert!(!initials.is_empty(), "system has no initial states");
    let workers = threads.min(config.walks);
    let chunk = config.walks.div_ceil(workers);
    type WalkOutcome<A> = Option<Result<(usize, usize), Execution<A>>>;
    let mut results: Vec<WalkOutcome<A>> = Vec::new();
    results.resize_with(config.walks, || None);
    let walk_ids: Vec<usize> = (0..config.walks).collect();
    let (invariant, initials) = (&invariant, &initials);
    std::thread::scope(|scope| {
        for (ids, out) in walk_ids.chunks(chunk).zip(results.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (&walk, slot) in ids.iter().zip(out.iter_mut()) {
                    let mut rng = XorShift::new(walk_seed(config.seed, walk));
                    *slot = Some(run_walk(sys, invariant, initials, &mut rng, config.depth));
                }
            });
        }
    });
    let mut states_checked = 0usize;
    let mut deadlocked_walks = 0usize;
    for result in results {
        match result.expect("every walk ran") {
            Ok((checked, deadlocked)) => {
                states_checked += checked;
                deadlocked_walks += deadlocked;
            }
            Err(exec) => return Err(exec),
        }
    }
    Ok(WalkReport {
        states_checked,
        deadlocked_walks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::toys::{Branching, Counter};

    #[test]
    fn clean_pass_reports_counts() {
        let sys = Counter { modulus: 10 };
        let cfg = WalkConfig {
            walks: 10,
            depth: 50,
            seed: 7,
        };
        let report = random_walks(&sys, |s| *s < 10, &cfg).unwrap();
        assert_eq!(report.states_checked, 10 * 51);
        assert_eq!(report.deadlocked_walks, 0);
    }

    #[test]
    fn violation_returns_valid_trace() {
        let sys = Branching { m: 1_000 };
        let bad = random_walks(&sys, |s| *s < 30, &WalkConfig::default()).unwrap_err();
        assert!(*bad.last() >= 30);
        assert_eq!(bad.validate(&sys), Ok(()));
        // The walk found the violation at its end — everything before is fine.
        for s in &bad.states()[..bad.states().len() - 1] {
            assert!(*s < 30);
        }
    }

    #[test]
    fn deadlocks_are_counted_not_fatal() {
        struct Dead;
        impl Dts for Dead {
            type State = u8;
            type Action = ();
            fn initial_states(&self) -> Vec<u8> {
                vec![0]
            }
            fn enabled(&self, s: &u8) -> Vec<()> {
                if *s < 3 {
                    vec![()]
                } else {
                    vec![]
                }
            }
            fn apply(&self, s: &u8, _: &()) -> u8 {
                s + 1
            }
        }
        let cfg = WalkConfig {
            walks: 5,
            depth: 100,
            seed: 1,
        };
        let report = random_walks(&Dead, |_| true, &cfg).unwrap();
        assert_eq!(report.deadlocked_walks, 5);
        assert_eq!(report.states_checked, 5 * 4); // 0,1,2,3 each walk
    }

    #[test]
    fn walks_are_seed_deterministic() {
        let sys = Branching { m: 17 };
        let cfg = WalkConfig {
            walks: 8,
            depth: 64,
            seed: 99,
        };
        let a = random_walks(&sys, |_| true, &cfg).unwrap();
        let b = random_walks(&sys, |_| true, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_sequential_on_clean_runs() {
        let sys = Branching { m: 10_000 };
        let cfg = WalkConfig {
            walks: 37,
            depth: 80,
            seed: 0xFEED,
        };
        let seq = random_walks(&sys, |_| true, &cfg).unwrap();
        for threads in [2, 4, 16] {
            let par = random_walks_parallel(&sys, |_| true, &cfg, threads).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_reports_the_same_violation_as_sequential() {
        // Growth is monotone, so many walks violate; both drivers must
        // surface the lowest-numbered failing walk's exact trace.
        let sys = Branching { m: 1_000 };
        let cfg = WalkConfig::default();
        let seq = random_walks(&sys, |s| *s < 30, &cfg).unwrap_err();
        let par = random_walks_parallel(&sys, |s| *s < 30, &cfg, 8).unwrap_err();
        assert_eq!(par.states(), seq.states());
        assert_eq!(par.validate(&sys), Ok(()));
    }

    #[test]
    fn parallel_counts_deadlocks_like_sequential() {
        struct Dead;
        impl Dts for Dead {
            type State = u8;
            type Action = ();
            fn initial_states(&self) -> Vec<u8> {
                vec![0]
            }
            fn enabled(&self, s: &u8) -> Vec<()> {
                if *s < 3 {
                    vec![()]
                } else {
                    vec![]
                }
            }
            fn apply(&self, s: &u8, _: &()) -> u8 {
                s + 1
            }
        }
        let cfg = WalkConfig {
            walks: 9,
            depth: 100,
            seed: 5,
        };
        let seq = random_walks(&Dead, |_| true, &cfg).unwrap();
        let par = random_walks_parallel(&Dead, |_| true, &cfg, 3).unwrap();
        assert_eq!(par, seq);
        assert_eq!(par.deadlocked_walks, 9);
    }
}
