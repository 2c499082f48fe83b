//! Telemetry binding for the reference simulation.
//!
//! [`SimTelemetry`] mirrors the simulation's per-round activity into a
//! [`Registry`] (counters + a round-latency histogram) and unifies the
//! trace vocabulary ([`TraceEvent`](crate::TraceEvent)-shaped protocol
//! events, failure-model activity, monitor verdicts) into the same
//! schema-versioned JSONL [`Event`] stream the `cellflow-net` runtime
//! emits — one inspector reads both. Monitor violations are trigger
//! events: when the attached [`EventLog`] carries a flight recorder, the
//! first violation dumps the last K rounds of history to disk.
//!
//! Attaching a [`SimTelemetry`] to a [`Simulation`](crate::Simulation)
//! also registers the core engine's phase timers
//! ([`PhaseTimers`](cellflow_telemetry::PhaseTimers)) in the same
//! registry, so Route/Signal/Move latency lands beside the sim counters.

use std::collections::BTreeMap;

use cellflow_core::monitor::MonitorViolation;
use cellflow_core::overload::{CascadeStats, CascadeTrip};
use cellflow_core::{RoundEvents, RoundTrace};
use cellflow_grid::CellId;
use cellflow_telemetry::trace::cell_ordinal;
use cellflow_telemetry::{
    Counter, Event, EventLog, Histogram, Registry, SpanBuilder, SpanKind, Tracer,
};

use crate::failure::FailureEvents;

/// The simulation's metric handles and structured event sink.
pub struct SimTelemetry {
    registry: Registry,
    /// Wall-clock nanoseconds of each `update` transition.
    pub(crate) round_ns: Histogram,
    rounds: Counter,
    consumed: Counter,
    inserted: Counter,
    blocked: Counter,
    moved: Counter,
    failures: Counter,
    violations: Counter,
    overload_crashes: Counter,
    sheds: Counter,
    backoff_activations: Counter,
    cascade_depth: Histogram,
    partition_rounds: Counter,
    cut_edge_rounds: Counter,
    partition_heals: Counter,
    signals: bool,
    log: EventLog,
}

impl SimTelemetry {
    /// Registers the simulation's metrics on `registry` (under
    /// `cellflow_sim_*` names) with a disabled event log.
    pub fn new(registry: &Registry) -> SimTelemetry {
        SimTelemetry {
            registry: registry.clone(),
            round_ns: registry.histogram("cellflow_sim_round_ns"),
            rounds: registry.counter("cellflow_sim_rounds_total"),
            consumed: registry.counter("cellflow_sim_consumed_total"),
            inserted: registry.counter("cellflow_sim_inserted_total"),
            blocked: registry.counter("cellflow_sim_blocked_total"),
            moved: registry.counter("cellflow_sim_moved_total"),
            failures: registry.counter("cellflow_sim_failures_total"),
            violations: registry.counter("cellflow_sim_violations_total"),
            overload_crashes: registry.counter("cellflow_sim_overload_crashes_total"),
            sheds: registry.counter("cellflow_sim_sheds_total"),
            backoff_activations: registry.counter("cellflow_sim_backoff_activations_total"),
            cascade_depth: registry.histogram("cellflow_sim_cascade_depth"),
            partition_rounds: registry.counter("cellflow_sim_partition_rounds_total"),
            cut_edge_rounds: registry.counter("cellflow_sim_cut_edge_rounds_total"),
            partition_heals: registry.counter("cellflow_sim_partition_heals_total"),
            signals: false,
            log: EventLog::new(),
        }
    }

    /// Folds one partition campaign's schedule into the registry: rounds
    /// with at least one active cut, cut edge-rounds (one directed edge
    /// suppressed for one round), and whether the campaign healed.
    pub fn record_partition(&self, schedule: &cellflow_core::PartitionSchedule) {
        let active = (0..schedule.rounds())
            .filter(|&r| schedule.active(r))
            .count() as u64;
        self.partition_rounds.add(active);
        self.cut_edge_rounds.add(schedule.cut_edge_rounds());
        if active > 0 && !schedule.active(schedule.rounds().saturating_sub(1)) {
            self.partition_heals.add(1);
        }
    }

    /// Folds one overload campaign's counters into the registry: crash,
    /// shed, and backoff totals plus a histogram sample per trip depth.
    pub fn record_cascade(&self, stats: &CascadeStats, trips: &[CascadeTrip]) {
        self.overload_crashes.add(stats.overload_crashes);
        self.sheds.add(stats.sheds);
        self.backoff_activations.add(stats.backoff_activations);
        for &(_, _, depth) in trips {
            self.cascade_depth.observe(depth as u64);
        }
    }

    /// Attaches the structured event sink (stream and/or flight recorder).
    pub fn with_event_log(mut self, log: EventLog) -> SimTelemetry {
        self.log = log;
        self
    }

    /// Also stream grant/block signal events (voluminous; off by default,
    /// mirroring [`TraceRecorder::with_signals`](crate::TraceRecorder)).
    pub fn with_signals(mut self) -> SimTelemetry {
        self.signals = true;
        self
    }

    /// The registry the metric handles live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Flushes the event stream.
    pub fn flush(&mut self) {
        self.log.flush();
    }

    /// `(events emitted, flight dumps written)` so far.
    pub fn log_stats(&self) -> (u64, u64) {
        (self.log.events_emitted(), self.log.dumps_written())
    }

    /// Ingests one round: counters, then the unified event stream in trace
    /// order (faults, inserts, transfers, consumes, optional signals, fresh
    /// monitor verdicts, rollup). `round` is 1-based, matching the
    /// monitors' numbering and the net collector's stream.
    pub(crate) fn observe_round(
        &mut self,
        round: u64,
        failures: &FailureEvents,
        events: &RoundEvents,
        fresh_violations: &[MonitorViolation],
    ) {
        self.rounds.inc();
        self.consumed.add(events.consumed.len() as u64);
        self.inserted.add(events.inserted.len() as u64);
        self.blocked.add(events.blocked.len() as u64);
        self.moved.add(events.moved.len() as u64);
        self.failures.add(failures.failed.len() as u64);
        self.violations.add(fresh_violations.len() as u64);

        for &cell in &failures.failed {
            self.log.emit(round, Event::Fail { cell });
        }
        for &cell in &failures.recovered {
            self.log.emit(round, Event::Recover { cell });
        }
        for &cell in &failures.corrupted {
            self.log.emit(round, Event::Corrupt { cell });
        }
        for &(cell, entity) in &events.inserted {
            self.log.emit(
                round,
                Event::Insert {
                    cell,
                    entity: entity.0,
                },
            );
        }
        for t in &events.transfers {
            self.log.emit(
                round,
                Event::Transfer {
                    entity: t.entity.0,
                    from: t.from,
                    to: t.to,
                },
            );
        }
        for &entity in &events.consumed {
            self.log.emit(round, Event::Consume { entity: entity.0 });
        }
        if self.signals {
            for &(granter, grantee) in &events.grants {
                self.log.emit(round, Event::Grant { granter, grantee });
            }
            for &(blocker, blocked) in &events.blocked {
                self.log.emit(round, Event::Block { blocker, blocked });
            }
        }
        for v in fresh_violations {
            self.log.emit(
                round,
                Event::Violation {
                    monitor: v.monitor.to_string(),
                    detail: v.detail.clone(),
                },
            );
        }
        self.log.emit(
            round,
            Event::RoundSummary {
                consumed: events.consumed.len() as u64,
                inserted: events.inserted.len() as u64,
                blocked: events.blocked.len() as u64,
                moved: events.moved.len() as u64,
            },
        );
    }

    /// [`Self::observe_round`] plus the causal span tree: a round span
    /// carrying the engine's phase attribution (route/signal/move children
    /// with deterministic swept-cell work), fault leaves, and one leaf per
    /// event-bearing cell whose id is
    /// the [`Tracer::cell_round_id`] linking key. Spans are appended after
    /// the round's protocol events at the same round tag, so the stream
    /// stays round-monotonic, and are only emitted here — with the tracer
    /// absent the stream is byte-identical to previous releases.
    pub(crate) fn observe_round_traced(
        &mut self,
        round: u64,
        failures: &FailureEvents,
        events: &RoundEvents,
        fresh_violations: &[MonitorViolation],
        tracer: &Tracer,
        rt: RoundTrace,
    ) {
        self.observe_round(round, failures, events, fresh_violations);
        if !self.log.is_enabled() {
            return;
        }
        let mut b = SpanBuilder::new(round);
        b.open(tracer.span_id(round, SpanKind::Round, 0), SpanKind::Round);
        b.add_work(rt.route_cells + rt.signal_cells + rt.move_cells);
        b.add_ns(rt.route_ns + rt.signal_ns + rt.move_ns);
        for (kind, cells, ns) in [
            (SpanKind::Route, rt.route_cells, rt.route_ns),
            (SpanKind::Signal, rt.signal_cells, rt.signal_ns),
            (SpanKind::Move, rt.move_cells, rt.move_ns),
        ] {
            b.open(tracer.span_id(round, kind, 0), kind);
            b.add_work(cells);
            b.add_ns(ns);
            b.close();
        }
        for &cell in &failures.failed {
            b.leaf(
                tracer.span_id(round, SpanKind::Fault, cell_ordinal(cell)),
                SpanKind::Fault,
                Some(cell),
                2,
                0,
            );
        }
        for &cell in &failures.recovered {
            b.leaf(
                tracer.span_id(round, SpanKind::Recover, cell_ordinal(cell)),
                SpanKind::Recover,
                Some(cell),
                1,
                0,
            );
        }
        for &cell in &failures.corrupted {
            b.leaf(
                tracer.span_id(round, SpanKind::Corrupt, cell_ordinal(cell)),
                SpanKind::Corrupt,
                Some(cell),
                1,
                0,
            );
        }
        // One leaf per event-bearing cell, work = its protocol events this
        // round. Aggregated first so each cell-round id appears exactly
        // once (the causality suite rejects duplicate span ids).
        let mut touched: BTreeMap<(u16, u16), u64> = BTreeMap::new();
        for &(cell, _) in &events.inserted {
            *touched.entry((cell.i(), cell.j())).or_default() += 1;
        }
        for t in &events.transfers {
            *touched.entry((t.from.i(), t.from.j())).or_default() += 1;
        }
        if self.signals {
            for &(granter, _) in &events.grants {
                *touched.entry((granter.i(), granter.j())).or_default() += 1;
            }
            for &(blocker, _) in &events.blocked {
                *touched.entry((blocker.i(), blocker.j())).or_default() += 1;
            }
        }
        for (&(i, j), &work) in &touched {
            let cell = CellId::new(i, j);
            b.leaf(
                tracer.cell_round_id(round, cell),
                SpanKind::Cell,
                Some(cell),
                work,
                0,
            );
        }
        for event in b.finish() {
            self.log.emit(round, event);
        }
    }
}

impl std::fmt::Debug for SimTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (events, dumps) = self.log_stats();
        f.debug_struct("SimTelemetry")
            .field("registry", &self.registry)
            .field("signals", &self.signals)
            .field("events", &events)
            .field("dumps", &dumps)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_core::{EntityId, Transfer};
    use cellflow_grid::CellId;
    use cellflow_telemetry::SharedBuffer;

    #[test]
    fn rounds_flow_into_counters_and_the_stream() {
        let buffer = SharedBuffer::new();
        let registry = Registry::new();
        let mut tel = SimTelemetry::new(&registry)
            .with_event_log(EventLog::new().with_stream(Box::new(buffer.clone())));
        let events = RoundEvents {
            consumed: vec![EntityId(7)],
            transfers: vec![Transfer {
                entity: EntityId(7),
                from: CellId::new(0, 0),
                to: CellId::new(1, 0),
            }],
            inserted: vec![(CellId::new(0, 0), EntityId(8))],
            grants: vec![(CellId::new(1, 0), CellId::new(0, 0))],
            blocked: vec![],
            moved: vec![CellId::new(0, 0)],
        };
        tel.observe_round(1, &FailureEvents::default(), &events, &[]);
        tel.flush();

        let stats = cellflow_telemetry::validate_stream(&buffer.contents()).unwrap();
        // transfer + insert + consume + round_summary; grants are opt-in.
        assert_eq!(stats.events, 4);
        let names: Vec<String> = registry
            .snapshot()
            .iter()
            .map(|m| m.name().to_string())
            .collect();
        assert!(names.contains(&"cellflow_sim_consumed_total".to_string()));
    }

    #[test]
    fn signals_are_opt_in() {
        let buffer = SharedBuffer::new();
        let mut tel = SimTelemetry::new(&Registry::disabled())
            .with_signals()
            .with_event_log(EventLog::new().with_stream(Box::new(buffer.clone())));
        let events = RoundEvents {
            grants: vec![(CellId::new(1, 0), CellId::new(0, 0))],
            blocked: vec![(CellId::new(2, 0), CellId::new(1, 0))],
            ..Default::default()
        };
        tel.observe_round(1, &FailureEvents::default(), &events, &[]);
        tel.flush();
        let stats = cellflow_telemetry::validate_stream(&buffer.contents()).unwrap();
        assert!(stats.by_kind.iter().any(|(k, _)| k == "grant"));
        assert!(stats.by_kind.iter().any(|(k, _)| k == "block"));
    }

    #[test]
    fn cascade_counters_register_and_accumulate() {
        let registry = Registry::new();
        let tel = SimTelemetry::new(&registry);
        let stats = CascadeStats {
            overload_crashes: 2,
            sheds: 5,
            backoff_activations: 3,
            max_cascade_depth: 2,
        };
        let trips = [(10, CellId::new(1, 1), 1), (12, CellId::new(1, 2), 2)];
        tel.record_cascade(&stats, &trips);
        let names: Vec<String> = registry
            .snapshot()
            .iter()
            .map(|m| m.name().to_string())
            .collect();
        for name in [
            "cellflow_sim_overload_crashes_total",
            "cellflow_sim_sheds_total",
            "cellflow_sim_backoff_activations_total",
            "cellflow_sim_cascade_depth",
        ] {
            assert!(names.contains(&name.to_string()), "missing {name}");
        }
        assert_eq!(tel.overload_crashes.value(), 2);
        assert_eq!(tel.sheds.value(), 5);
        assert_eq!(tel.backoff_activations.value(), 3);
        assert_eq!(tel.cascade_depth.count(), 2);
    }
}
