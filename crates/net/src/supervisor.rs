//! Restart supervision for hard-crashed cells: exponential backoff with
//! deterministic jitter, restart budgets, and flapping-cell quarantine.
//!
//! Como et al. (arXiv:1205.0076) show that *how* a distributed system
//! restarts failed components decides whether local failures cascade; a
//! supervisor that blindly re-spawns a flapping cell at full speed is a
//! resonance amplifier. This module applies the classic supervision recipe
//! to the scripted fault world of [`FaultPlan`]:
//!
//! * the **first** restart of a cell is free (fast recovery of a one-off
//!   crash);
//! * each **repeat** restart is pushed back by an exponentially growing
//!   backoff plus a deterministic per-(cell, attempt) jitter, so repeated
//!   victims don't re-join in lockstep;
//! * a cell that exhausts its **restart budget** is *quarantined*: its
//!   scripted re-spawn is dropped and the cell stays down (the paper's
//!   protocol tolerates a permanently failed cell; it does not owe cheap
//!   restarts to one that keeps dying).
//!
//! Everything is a *plan rewrite* performed before the run starts:
//! [`RestartPolicy::rewrite`] maps the scripted plan to an **effective
//! plan**, which both the workers and the monitor collector then
//! consume. That keeps supervision fully deterministic — same plan, same
//! policy, same effective schedule — which the byte-identical certificate
//! reports of `cellflow stabilize` rely on.

use cellflow_core::{FaultKind, FaultPlan};
use cellflow_grid::CellId;

/// Supervision knobs. The default policy is the identity: no backoff, no
/// budget, every scripted re-spawn honored as written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Backoff (in rounds) applied to the second restart of a cell; the
    /// `k`-th repeat doubles it `k − 2` more times. `0` disables backoff.
    pub backoff_base: u64,
    /// Backoff ceiling in rounds (the exponential is clamped here).
    pub backoff_max: u64,
    /// Restarts allowed per cell before quarantine. `u32::MAX` means never
    /// quarantine.
    pub restart_budget: u32,
    /// Seed for the deterministic jitter mixed into repeat restarts.
    pub jitter_seed: u64,
}

impl Default for RestartPolicy {
    fn default() -> RestartPolicy {
        RestartPolicy {
            backoff_base: 0,
            backoff_max: 0,
            restart_budget: u32::MAX,
            jitter_seed: 0,
        }
    }
}

/// One supervision intervention, reported alongside the run so campaigns
/// can assert on what the supervisor actually did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SupervisorDecision {
    /// A repeat restart was delayed.
    Backoff {
        /// The restarting cell.
        cell: CellId,
        /// Which restart of this cell this was (1-based).
        attempt: u32,
        /// The re-spawn round the plan scripted.
        scheduled: u64,
        /// The re-spawn round after backoff + jitter.
        delayed_to: u64,
    },
    /// A cell exhausted its restart budget; its re-spawn was dropped.
    Quarantine {
        /// The quarantined cell.
        cell: CellId,
        /// Which restart attempt crossed the budget (1-based).
        attempt: u32,
        /// The re-spawn round that was dropped.
        dropped_respawn: u64,
    },
}

// splitmix64 — the deterministic jitter hash, shared via
// `cellflow_core::hash` (stream-pinned there against this module's
// historical private copy).
use cellflow_core::hash::splitmix64;

impl RestartPolicy {
    /// `true` if this policy never changes a plan (the default).
    pub fn is_identity(&self) -> bool {
        self.backoff_base == 0 && self.restart_budget == u32::MAX
    }

    /// The backoff (without jitter) for the `attempt`-th restart of a cell.
    fn backoff_rounds(&self, attempt: u32) -> u64 {
        if self.backoff_base == 0 || attempt < 2 {
            return 0;
        }
        let doublings = (attempt - 2).min(62);
        self.backoff_base
            .saturating_mul(1u64 << doublings)
            .min(self.backoff_max.max(self.backoff_base))
    }

    /// The deterministic jitter for the `attempt`-th restart of `cell`:
    /// `[0, backoff_base)` rounds, or `0` when backoff is disabled or the
    /// attempt is free.
    fn jitter_rounds(&self, cell: CellId, attempt: u32) -> u64 {
        if self.backoff_base == 0 || attempt < 2 {
            return 0;
        }
        let key = self
            .jitter_seed
            .wrapping_add((cell.i() as u64) << 40)
            .wrapping_add((cell.j() as u64) << 20)
            .wrapping_add(attempt as u64);
        splitmix64(key) % self.backoff_base
    }

    /// Rewrites `plan` into the effective plan this policy supervises:
    /// repeat re-spawns are delayed by backoff + jitter, and re-spawns past
    /// the restart budget are dropped (quarantine). Returns the effective
    /// plan and every intervention taken, in event order. A budget of `N`
    /// honors **at most `N` restarts** per cell; the `N+1`-th is the first
    /// quarantined.
    ///
    /// Only the `Recover` paired with each [`FaultKind::HardCrash`] or
    /// [`FaultKind::OverloadCrash`] is touched (the overload case is how a
    /// supervisor disciplines a cascade campaign's optimistic restarts);
    /// soft crashes ([`FaultKind::Crash`]) recover in place without a
    /// re-spawn and are none of the supervisor's business.
    pub fn rewrite(&self, plan: &FaultPlan) -> (FaultPlan, Vec<SupervisorDecision>) {
        if self.is_identity() {
            return (plan.clone(), Vec::new());
        }
        // Matching runs against the *scripted* rounds, never rounds this
        // rewrite already pushed back — a backoff must not make a recover
        // look available to a later crash.
        let original: Vec<cellflow_core::FaultEvent> = plan.events().to_vec();
        let mut events = original.clone();
        let mut decisions = Vec::new();
        // Supervised crashes in chronological order, counting attempts
        // per cell.
        let mut crashes: Vec<(u64, CellId)> = original
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::HardCrash | FaultKind::OverloadCrash))
            .map(|e| (e.round, e.cell))
            .collect();
        crashes.sort();
        let mut attempts: std::collections::BTreeMap<CellId, u32> =
            std::collections::BTreeMap::new();
        // Every recover a crash has matched, honored or not: a scripted
        // re-spawn answers exactly one crash.
        let mut claimed: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        let mut dropped: Vec<usize> = Vec::new();
        for (crash_round, cell) in crashes {
            // The matching scripted re-spawn: the earliest Recover of this
            // cell after the crash that hasn't been claimed yet.
            let Some((idx, scheduled)) = original
                .iter()
                .enumerate()
                .filter(|&(k, e)| {
                    e.cell == cell
                        && e.kind == FaultKind::Recover
                        && e.round > crash_round
                        && !claimed.contains(&k)
                })
                .map(|(k, e)| (k, e.round))
                .min_by_key(|&(_, round)| round)
            else {
                continue; // crash with no scripted re-spawn
            };
            claimed.insert(idx);
            let attempt = attempts.entry(cell).or_insert(0);
            *attempt += 1;
            let attempt = *attempt;
            if attempt > self.restart_budget {
                dropped.push(idx);
                decisions.push(SupervisorDecision::Quarantine {
                    cell,
                    attempt,
                    dropped_respawn: scheduled,
                });
                continue;
            }
            let delay = self.backoff_rounds(attempt) + self.jitter_rounds(cell, attempt);
            if delay > 0 {
                events[idx].round = scheduled + delay;
                decisions.push(SupervisorDecision::Backoff {
                    cell,
                    attempt,
                    scheduled,
                    delayed_to: scheduled + delay,
                });
            }
        }
        let mut effective = FaultPlan::new();
        for (k, e) in events.iter().enumerate() {
            if !dropped.contains(&k) {
                effective = effective.with_event(e.round, e.cell, e.kind);
            }
        }
        (effective, decisions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> CellId {
        CellId::new(1, 1)
    }

    #[test]
    fn default_policy_is_identity() {
        let plan = FaultPlan::new()
            .hard_crash_at(5, cell())
            .recover_at(10, cell())
            .hard_crash_at(20, cell())
            .recover_at(25, cell());
        let (effective, decisions) = RestartPolicy::default().rewrite(&plan);
        assert_eq!(effective, plan);
        assert!(decisions.is_empty());
    }

    #[test]
    fn first_restart_is_free_repeats_back_off() {
        let plan = FaultPlan::new()
            .hard_crash_at(5, cell())
            .recover_at(10, cell())
            .hard_crash_at(20, cell())
            .recover_at(25, cell())
            .hard_crash_at(40, cell())
            .recover_at(45, cell());
        let policy = RestartPolicy {
            backoff_base: 4,
            backoff_max: 64,
            restart_budget: u32::MAX,
            jitter_seed: 7,
        };
        let (effective, decisions) = policy.rewrite(&plan);
        // First re-spawn untouched.
        assert_eq!(effective.respawn_round_after(cell(), 5), Some(10));
        // Second delayed by 4 + jitter(∈ [0,4)), third by 8 + jitter.
        let second = effective.respawn_round_after(cell(), 20).unwrap();
        assert!((29..33).contains(&second), "second respawn at {second}");
        let third = effective.respawn_round_after(cell(), 40).unwrap();
        assert!((53..57).contains(&third), "third respawn at {third}");
        assert_eq!(decisions.len(), 2);
        assert!(matches!(
            decisions[0],
            SupervisorDecision::Backoff {
                attempt: 2,
                scheduled: 25,
                ..
            }
        ));
        // Determinism: same inputs, same effective plan.
        assert_eq!(policy.rewrite(&plan).0, effective);
    }

    #[test]
    fn backoff_clamps_at_max() {
        let policy = RestartPolicy {
            backoff_base: 4,
            backoff_max: 10,
            restart_budget: u32::MAX,
            jitter_seed: 0,
        };
        assert_eq!(policy.backoff_rounds(1), 0);
        assert_eq!(policy.backoff_rounds(2), 4);
        assert_eq!(policy.backoff_rounds(3), 8);
        assert_eq!(policy.backoff_rounds(4), 10, "clamped");
        assert_eq!(policy.backoff_rounds(40), 10, "no overflow");
    }

    #[test]
    fn flapping_cell_is_quarantined() {
        let mut plan = FaultPlan::new();
        for k in 0..4u64 {
            plan = plan
                .hard_crash_at(10 * k, cell())
                .recover_at(10 * k + 5, cell());
        }
        let policy = RestartPolicy {
            backoff_base: 0,
            backoff_max: 0,
            restart_budget: 2,
            jitter_seed: 0,
        };
        let (effective, decisions) = policy.rewrite(&plan);
        // Restarts 1 and 2 honored; 3 and 4 quarantined.
        assert_eq!(effective.respawn_round_after(cell(), 0), Some(5));
        assert_eq!(effective.respawn_round_after(cell(), 10), Some(15));
        assert_eq!(effective.respawn_round_after(cell(), 20), None);
        let quarantines: Vec<_> = decisions
            .iter()
            .filter(|d| matches!(d, SupervisorDecision::Quarantine { .. }))
            .collect();
        assert_eq!(quarantines.len(), 2);
        // The quarantined cell counts as hard-dead forever after.
        assert!(effective.hard_dead_at(100).contains(&cell()));
    }

    #[test]
    fn budget_n_honors_at_most_n_restarts() {
        // The off-by-one pin: budget N means at most N restarts — the
        // N+1-th attempt is the first one quarantined, for every N.
        for budget in 1..=3u32 {
            let mut plan = FaultPlan::new();
            for k in 0..5u64 {
                plan = plan
                    .hard_crash_at(10 * k, cell())
                    .recover_at(10 * k + 5, cell());
            }
            let policy = RestartPolicy {
                restart_budget: budget,
                ..RestartPolicy::default()
            };
            let (effective, decisions) = policy.rewrite(&plan);
            let honored = (0..5u64)
                .filter(|&k| effective.respawn_round_after(cell(), 10 * k).is_some())
                .count();
            assert_eq!(honored, budget as usize, "budget {budget}");
            let quarantines = decisions
                .iter()
                .filter(|d| matches!(d, SupervisorDecision::Quarantine { .. }))
                .count();
            assert_eq!(quarantines, 5 - budget as usize, "budget {budget}");
        }
    }

    #[test]
    fn shared_recover_is_claimed_by_one_crash_only() {
        // Two crashes racing for one scripted re-spawn: the first claims
        // it (a free first attempt), the second goes unanswered. The old
        // matcher double-claimed the recover, counting a phantom second
        // attempt and pushing the honored re-spawn back.
        let plan = FaultPlan::new()
            .hard_crash_at(5, cell())
            .hard_crash_at(8, cell())
            .recover_at(10, cell());
        let policy = RestartPolicy {
            backoff_base: 4,
            backoff_max: 64,
            restart_budget: u32::MAX,
            jitter_seed: 7,
        };
        let (effective, decisions) = policy.rewrite(&plan);
        assert_eq!(effective, plan, "single free restart stays as scripted");
        assert!(decisions.is_empty());
    }

    #[test]
    fn backed_off_recover_is_not_rematched_by_a_later_crash() {
        // Attempt 2's recover is delayed past crash 3. Matching runs on
        // scripted rounds, so crash 3 must still claim the *third*
        // recover, not re-claim the delayed second one.
        let plan = FaultPlan::new()
            .hard_crash_at(0, cell())
            .recover_at(5, cell())
            .hard_crash_at(10, cell())
            .recover_at(15, cell())
            .hard_crash_at(40, cell())
            .recover_at(45, cell());
        let policy = RestartPolicy {
            backoff_base: 30,
            backoff_max: 64,
            restart_budget: u32::MAX,
            jitter_seed: 1,
        };
        let (_, decisions) = policy.rewrite(&plan);
        let scheduled: Vec<u64> = decisions
            .iter()
            .filter_map(|d| match d {
                SupervisorDecision::Backoff { scheduled, .. } => Some(*scheduled),
                _ => None,
            })
            .collect();
        // Each scripted recover is delayed at most once, from its own
        // scripted round.
        assert_eq!(scheduled, vec![15, 45]);
    }

    #[test]
    fn overload_crashes_are_supervised_like_hard_crashes() {
        // A cascade campaign's optimistic restarts (OverloadCrash +
        // scripted Recover) flow through the same backoff/budget/
        // quarantine discipline: a cell that keeps re-overloading is
        // quarantined once its budget runs out.
        let mut plan = FaultPlan::new();
        for k in 0..3u64 {
            plan = plan
                .overload_crash_at(10 * k, cell())
                .recover_at(10 * k + 5, cell());
        }
        let policy = RestartPolicy {
            restart_budget: 1,
            ..RestartPolicy::default()
        };
        let (effective, decisions) = policy.rewrite(&plan);
        assert_eq!(effective.respawn_round_after(cell(), 0), Some(5));
        assert_eq!(effective.respawn_round_after(cell(), 10), None);
        let quarantines = decisions
            .iter()
            .filter(|d| matches!(d, SupervisorDecision::Quarantine { .. }))
            .count();
        assert_eq!(quarantines, 2);
    }
}
