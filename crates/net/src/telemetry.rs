//! Telemetry binding for the message-passing runtime.
//!
//! A [`NetTelemetry`] bundles the metric handles the runtime's workers
//! record into — barrier wait and per-worker round latency histograms,
//! message/WAL/supervisor counters — with a shared [`EventLog`] the
//! monitor collector streams round events into (failures, recoveries,
//! corruptions, monitor verdicts, per-round rollups). A round timeout is
//! emitted as a [`Event::Timeout`] line, which also triggers the event
//! log's flight-recorder dump when one is configured — a chaos run that
//! dies leaves the last K rounds on disk.
//!
//! All handles come from one [`Registry`]; pass a disabled registry and an
//! empty log and every recording operation is a no-op, so the runtime
//! carries its instrumentation unconditionally.

use std::sync::Mutex;

use cellflow_telemetry::{Counter, Event, EventLog, Histogram, Registry};

/// The net runtime's metric handles and event sink. Construct once per run
/// (or share across runs to aggregate), attach with
/// [`NetSystem::with_telemetry`](crate::NetSystem::with_telemetry).
pub struct NetTelemetry {
    registry: Registry,
    /// Nanoseconds spent in each barrier wait (8 waits per round per
    /// worker; a worker per cell while the grid fits the worker cap).
    pub(crate) barrier_wait_ns: Histogram,
    /// Nanoseconds each worker spends on one full round of its shard — one
    /// cell's round while the grid fits the worker cap. Rounds a worker
    /// spends parked with its whole shard dormant are not timed.
    pub(crate) cell_round_ns: Histogram,
    /// Protocol messages sent over edge links (announcements + transfers).
    pub(crate) messages_sent: Counter,
    /// Envelopes drained from an inbox in one exchange.
    pub(crate) inbox_batch: Histogram,
    /// Write-ahead/seal records appended to the snapshot store.
    pub(crate) wal_appends: Counter,
    /// Supervisor interventions (backoffs and quarantines).
    pub(crate) supervisor_interventions: Counter,
    /// Round timeouts surfaced as [`NetError::Timeout`](crate::NetError).
    pub(crate) timeouts: Counter,
    /// Rounds the monitor collector assembled.
    pub(crate) rounds_collected: Counter,
    /// Endogenous overload crashes observed in the effective plan
    /// ([`FaultKind::OverloadCrash`](cellflow_core::FaultKind)).
    pub(crate) overload_crashes: Counter,
    /// Announcements the link-fault fabric suppressed on cut edges.
    pub(crate) links_suppressed: Counter,
    log: Mutex<EventLog>,
}

impl NetTelemetry {
    /// Registers the runtime's metrics on `registry` (under
    /// `cellflow_net_*` names) with a disabled event log; attach one with
    /// [`NetTelemetry::with_event_log`].
    pub fn new(registry: &Registry) -> NetTelemetry {
        NetTelemetry {
            registry: registry.clone(),
            barrier_wait_ns: registry.histogram("cellflow_net_barrier_wait_ns"),
            cell_round_ns: registry.histogram("cellflow_net_cell_round_ns"),
            messages_sent: registry.counter("cellflow_net_messages_sent_total"),
            inbox_batch: registry.histogram("cellflow_net_inbox_batch_size"),
            wal_appends: registry.counter("cellflow_net_wal_appends_total"),
            supervisor_interventions: registry.counter("cellflow_net_supervisor_total"),
            timeouts: registry.counter("cellflow_net_timeouts_total"),
            rounds_collected: registry.counter("cellflow_net_rounds_total"),
            overload_crashes: registry.counter("cellflow_net_overload_crashes_total"),
            links_suppressed: registry.counter("cellflow_net_links_suppressed_total"),
            log: Mutex::new(EventLog::new()),
        }
    }

    /// Attaches the structured event sink (stream and/or flight recorder).
    pub fn with_event_log(self, log: EventLog) -> NetTelemetry {
        NetTelemetry {
            log: Mutex::new(log),
            ..self
        }
    }

    /// The registry the metric handles live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Emits one event into the log (and the flight recorder, if any).
    pub fn emit(&self, round: u64, event: Event) {
        self.log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .emit(round, event);
    }

    /// Flushes the event stream.
    pub fn flush(&self) {
        self.log.lock().unwrap_or_else(|e| e.into_inner()).flush();
    }

    /// `(events emitted, flight dumps written)` so far.
    pub fn log_stats(&self) -> (u64, u64) {
        let log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        (log.events_emitted(), log.dumps_written())
    }
}

impl std::fmt::Debug for NetTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (events, dumps) = self.log_stats();
        f.debug_struct("NetTelemetry")
            .field("registry", &self.registry)
            .field("events", &events)
            .field("dumps", &dumps)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_telemetry::SharedBuffer;

    #[test]
    fn registers_standard_names() {
        let reg = Registry::new();
        let tel = NetTelemetry::new(&reg);
        tel.messages_sent.add(3);
        tel.barrier_wait_ns.observe(500);
        let names: Vec<String> = reg
            .snapshot()
            .iter()
            .map(|m| m.name().to_string())
            .collect();
        assert!(names.contains(&"cellflow_net_messages_sent_total".to_string()));
        assert!(names.contains(&"cellflow_net_barrier_wait_ns".to_string()));
        assert!(names.contains(&"cellflow_net_links_suppressed_total".to_string()));
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn emit_goes_through_the_shared_log() {
        let buffer = SharedBuffer::new();
        let tel = NetTelemetry::new(&Registry::disabled())
            .with_event_log(EventLog::new().with_stream(Box::new(buffer.clone())));
        tel.emit(
            4,
            Event::Timeout {
                detail: "test".into(),
            },
        );
        tel.flush();
        assert_eq!(tel.log_stats().0, 1);
        let stats = cellflow_telemetry::validate_stream(&buffer.contents()).unwrap();
        assert_eq!(stats.timeouts, 1);
    }
}
