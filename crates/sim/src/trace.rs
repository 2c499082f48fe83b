//! Structured event traces of simulation runs.

use cellflow_core::{EntityId, RoundEvents};
use cellflow_grid::CellId;

use crate::failure::FailureEvents;

/// One observable event, tagged with the round it happened in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A source created an entity.
    Insert {
        /// Source cell.
        cell: CellId,
        /// The new entity.
        entity: EntityId,
    },
    /// An entity crossed between cells.
    Transfer {
        /// The entity.
        entity: EntityId,
        /// Cell it left.
        from: CellId,
        /// Cell it entered.
        to: CellId,
    },
    /// The target consumed an entity.
    Consume {
        /// The entity.
        entity: EntityId,
    },
    /// A cell granted its token holder permission to move.
    Grant {
        /// The granting cell.
        granter: CellId,
        /// The cell allowed to move toward it.
        grantee: CellId,
    },
    /// A cell withheld its signal (occupied boundary strip).
    Block {
        /// The blocking cell.
        blocker: CellId,
        /// The token holder that stays put.
        blocked: CellId,
    },
    /// A cell crashed.
    Fail {
        /// The crashed cell.
        cell: CellId,
    },
    /// A cell recovered.
    Recover {
        /// The recovered cell.
        cell: CellId,
    },
}

/// Records [`TraceEvent`]s with their round numbers.
///
/// Grant/Block events are voluminous; recording them is off by default and
/// enabled with [`TraceRecorder::with_signals`].
#[derive(Clone, Debug, Default)]
pub struct TraceRecorder {
    events: Vec<(u64, TraceEvent)>,
    record_signals: bool,
}

impl TraceRecorder {
    /// A recorder of inserts, transfers, consumes, fails and recoveries.
    pub fn new() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// Also record grant/block signal events.
    pub fn with_signals(mut self) -> TraceRecorder {
        self.record_signals = true;
        self
    }

    /// Ingests one round's worth of events.
    pub fn record(&mut self, round: u64, failures: &FailureEvents, events: &RoundEvents) {
        for &cell in &failures.failed {
            self.events.push((round, TraceEvent::Fail { cell }));
        }
        for &cell in &failures.recovered {
            self.events.push((round, TraceEvent::Recover { cell }));
        }
        for &(cell, entity) in &events.inserted {
            self.events
                .push((round, TraceEvent::Insert { cell, entity }));
        }
        for t in &events.transfers {
            self.events.push((
                round,
                TraceEvent::Transfer {
                    entity: t.entity,
                    from: t.from,
                    to: t.to,
                },
            ));
        }
        for &entity in &events.consumed {
            self.events.push((round, TraceEvent::Consume { entity }));
        }
        if self.record_signals {
            for &(granter, grantee) in &events.grants {
                self.events
                    .push((round, TraceEvent::Grant { granter, grantee }));
            }
            for &(blocker, blocked) in &events.blocked {
                self.events
                    .push((round, TraceEvent::Block { blocker, blocked }));
            }
        }
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[(u64, TraceEvent)] {
        &self.events
    }

    /// The full lifecycle of one entity: its insert, transfers, and consume.
    pub fn lifecycle(&self, entity: EntityId) -> Vec<(u64, TraceEvent)> {
        self.events
            .iter()
            .filter(|(_, e)| match e {
                TraceEvent::Insert { entity: x, .. }
                | TraceEvent::Transfer { entity: x, .. }
                | TraceEvent::Consume { entity: x } => *x == entity,
                _ => false,
            })
            .copied()
            .collect()
    }

    /// Validates causal sanity of the trace: every consumed or transferred
    /// entity was inserted first, rounds are non-decreasing, and each entity
    /// is consumed at most once. Returns the number of entities checked.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<usize, String> {
        let mut last_round = 0u64;
        let mut born = std::collections::HashSet::new();
        let mut dead = std::collections::HashSet::new();
        for &(round, ev) in &self.events {
            if round < last_round {
                return Err(format!("round went backwards at {ev:?}"));
            }
            last_round = round;
            match ev {
                TraceEvent::Insert { entity, .. } if !born.insert(entity) => {
                    return Err(format!("{entity} inserted twice"));
                }
                TraceEvent::Transfer { entity, from, to } => {
                    if !born.contains(&entity) {
                        return Err(format!("{entity} transferred before insert"));
                    }
                    if dead.contains(&entity) {
                        return Err(format!("{entity} transferred after consume"));
                    }
                    if !from.is_neighbor(to) {
                        return Err(format!("non-adjacent transfer {from} → {to}"));
                    }
                }
                TraceEvent::Consume { entity } => {
                    if !born.contains(&entity) {
                        return Err(format!("{entity} consumed before insert"));
                    }
                    if !dead.insert(entity) {
                        return Err(format!("{entity} consumed twice"));
                    }
                }
                _ => {}
            }
        }
        Ok(born.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_core::{RoundEvents, Transfer};

    fn id(i: u16, j: u16) -> CellId {
        CellId::new(i, j)
    }

    fn round_events() -> RoundEvents {
        RoundEvents {
            consumed: vec![],
            transfers: vec![Transfer {
                entity: EntityId(0),
                from: id(0, 0),
                to: id(1, 0),
            }],
            inserted: vec![(id(0, 0), EntityId(1))],
            grants: vec![(id(1, 0), id(0, 0))],
            blocked: vec![(id(2, 0), id(1, 0))],
            moved: vec![id(0, 0)],
        }
    }

    #[test]
    fn records_core_events_without_signals() {
        let mut tr = TraceRecorder::new();
        let failures = FailureEvents {
            failed: vec![id(3, 3)],
            recovered: vec![],
            corrupted: vec![],
        };
        // Entity 0 must exist before it transfers.
        let birth = RoundEvents {
            inserted: vec![(id(0, 0), EntityId(0))],
            ..Default::default()
        };
        tr.record(0, &FailureEvents::default(), &birth);
        tr.record(1, &failures, &round_events());
        assert_eq!(tr.events().len(), 4); // insert(0), fail, insert(1), transfer
        assert_eq!(tr.validate(), Ok(2));
        let life = tr.lifecycle(EntityId(0));
        assert_eq!(life.len(), 2);
    }

    #[test]
    fn signal_recording_is_opt_in() {
        let mut tr = TraceRecorder::new().with_signals();
        let birth = RoundEvents {
            inserted: vec![(id(0, 0), EntityId(0))],
            ..Default::default()
        };
        tr.record(0, &FailureEvents::default(), &birth);
        tr.record(1, &FailureEvents::default(), &round_events());
        assert!(tr
            .events()
            .iter()
            .any(|(_, e)| matches!(e, TraceEvent::Grant { .. })));
        assert!(tr
            .events()
            .iter()
            .any(|(_, e)| matches!(e, TraceEvent::Block { .. })));
    }

    #[test]
    fn validate_catches_inconsistencies() {
        let mut tr = TraceRecorder::new();
        // Consume without insert.
        let bad = RoundEvents {
            consumed: vec![EntityId(9)],
            ..Default::default()
        };
        tr.record(0, &FailureEvents::default(), &bad);
        assert!(tr.validate().unwrap_err().contains("before insert"));
    }
}
