//! Throughput and congestion metrics (paper §IV).
//!
//! The paper defines the **K-round throughput** as the number of entities
//! arriving at the target over `K` rounds divided by `K`, and the **average
//! throughput** as its large-`K` limit. [`Metrics`] records the per-round
//! consumption series, so both (and windowed variants) can be computed after
//! a run, and keeps running totals of everything else it counts.

use cellflow_core::RoundEvents;

use crate::failure::FailureEvents;

/// Counters accumulated over a simulation: the per-round consumption series
/// and running totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    consumed_per_round: Vec<u32>,
    consumed: u64,
    inserted: u64,
    blocked: u64,
    grants: u64,
    failed: u64,
    recovered: u64,
}

impl Metrics {
    /// Empty metrics (zero rounds recorded).
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one round's events.
    pub fn record(&mut self, events: &RoundEvents) {
        self.consumed_per_round.push(events.consumed.len() as u32);
        self.consumed += events.consumed.len() as u64;
        self.inserted += events.inserted.len() as u64;
        self.blocked += events.blocked.len() as u64;
        self.grants += events.grants.len() as u64;
    }

    /// Records the round's failure-model activity alongside the protocol
    /// events. Call once per round, before or after [`Metrics::record`].
    pub fn record_failures(&mut self, events: &FailureEvents) {
        self.failed += events.failed.len() as u64;
        self.recovered += events.recovered.len() as u64;
    }

    /// Total cells crashed by the failure model over the run.
    pub fn failed_total(&self) -> u64 {
        self.failed
    }

    /// Total cells recovered by the failure model over the run.
    pub fn recovered_total(&self) -> u64 {
        self.recovered
    }

    /// Rounds recorded so far (the `K` of K-round throughput).
    pub fn rounds(&self) -> u64 {
        self.consumed_per_round.len() as u64
    }

    /// Total entities consumed by the target.
    pub fn consumed_total(&self) -> u64 {
        self.consumed
    }

    /// Total entities inserted by sources.
    pub fn inserted_total(&self) -> u64 {
        self.inserted
    }

    /// Total blocked signals (a congestion indicator).
    pub fn blocked_total(&self) -> u64 {
        self.blocked
    }

    /// Total grants issued.
    pub fn grants_total(&self) -> u64 {
        self.grants
    }

    /// The paper's K-round throughput over *all* recorded rounds:
    /// `consumed_total / rounds`. Returns 0 for an empty record.
    pub fn throughput(&self) -> f64 {
        if self.rounds() == 0 {
            0.0
        } else {
            self.consumed_total() as f64 / self.rounds() as f64
        }
    }

    /// K-round throughput of the **last** `k` rounds (a steady-state estimate
    /// that skips the initial fill transient). Uses all rounds if fewer than
    /// `k` are recorded.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn tail_throughput(&self, k: usize) -> f64 {
        assert!(k > 0, "window must be positive");
        let n = self.consumed_per_round.len();
        let window = &self.consumed_per_round[n.saturating_sub(k)..];
        if window.is_empty() {
            0.0
        } else {
            window.iter().map(|&c| c as u64).sum::<u64>() as f64 / window.len() as f64
        }
    }

    /// Mean number of blocked signals per round.
    pub fn mean_blocked(&self) -> f64 {
        if self.rounds() == 0 {
            0.0
        } else {
            self.blocked_total() as f64 / self.rounds() as f64
        }
    }

    /// Per-round consumption history (for time-series plots).
    pub fn consumed_history(&self) -> &[u32] {
        &self.consumed_per_round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_core::{EntityId, Transfer};
    use cellflow_grid::CellId;

    fn events(consumed: usize, inserted: usize, blocked: usize) -> RoundEvents {
        RoundEvents {
            consumed: (0..consumed).map(|k| EntityId(k as u64)).collect(),
            transfers: vec![Transfer {
                entity: EntityId(99),
                from: CellId::new(0, 0),
                to: CellId::new(1, 0),
            }],
            inserted: (0..inserted)
                .map(|k| (CellId::new(0, 0), EntityId(100 + k as u64)))
                .collect(),
            grants: vec![(CellId::new(1, 0), CellId::new(0, 0))],
            blocked: (0..blocked)
                .map(|_| (CellId::new(1, 0), CellId::new(0, 0)))
                .collect(),
            moved: vec![CellId::new(0, 0)],
        }
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = Metrics::new();
        assert_eq!(m.rounds(), 0);
        assert_eq!(m.throughput(), 0.0);
        assert_eq!(m.tail_throughput(10), 0.0);
        assert_eq!(m.mean_blocked(), 0.0);
    }

    #[test]
    fn throughput_is_consumed_over_rounds() {
        let mut m = Metrics::new();
        m.record(&events(0, 1, 0));
        m.record(&events(2, 1, 1));
        m.record(&events(1, 0, 2));
        assert_eq!(m.rounds(), 3);
        assert_eq!(m.consumed_total(), 3);
        assert_eq!(m.inserted_total(), 2);
        assert_eq!(m.blocked_total(), 3);
        assert_eq!(m.grants_total(), 3);
        assert!((m.throughput() - 1.0).abs() < 1e-12);
        assert!((m.mean_blocked() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_throughput_windows() {
        let mut m = Metrics::new();
        for consumed in [0, 0, 0, 3, 3] {
            m.record(&events(consumed, 0, 0));
        }
        assert!((m.tail_throughput(2) - 3.0).abs() < 1e-12);
        assert!((m.tail_throughput(5) - 1.2).abs() < 1e-12);
        assert!((m.tail_throughput(100) - 1.2).abs() < 1e-12); // clamps
        assert_eq!(m.consumed_history(), &[0, 0, 0, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        Metrics::new().tail_throughput(0);
    }

    #[test]
    fn failure_totals_accumulate() {
        let mut m = Metrics::new();
        m.record_failures(&FailureEvents::default());
        m.record_failures(&FailureEvents {
            failed: vec![CellId::new(1, 1), CellId::new(2, 2)],
            recovered: vec![],
            corrupted: vec![],
        });
        m.record_failures(&FailureEvents {
            failed: vec![],
            recovered: vec![CellId::new(1, 1)],
            corrupted: vec![],
        });
        assert_eq!(m.failed_total(), 2);
        assert_eq!(m.recovered_total(), 1);
    }
}
