//! The structured event sink: JSONL streaming plus a flight recorder.
//!
//! An [`EventLog`] is where instrumented runtimes hand their [`Event`]s.
//! It can do two things with them, independently enabled:
//!
//! * **stream** every event as a JSONL line to any `Write` sink (a file,
//!   a buffer in tests);
//! * **retain** the last K rounds of events in a bounded [`FlightRecorder`]
//!   ring, and when a *trigger* event arrives (a monitor violation or a
//!   round timeout — [`Event::is_trigger`]), auto-dump that history to a
//!   configured path. A chaos run that fails thus leaves behind a
//!   replayable artifact of exactly the rounds leading up to the failure,
//!   with the trigger recorded in the dump's header line.
//!
//! Telemetry is best-effort by design: I/O errors are counted, never
//! propagated into the instrumented runtime.

use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::event::{Event, SCHEMA_VERSION};

/// A bounded ring of the last K rounds' events.
///
/// Events for the same round merge into one slot, so capacity is measured
/// in *rounds of history*, not event count — a burst round doesn't evict
/// disproportionate context.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<(u64, Vec<Event>)>,
}

impl FlightRecorder {
    /// A recorder retaining the last `rounds_capacity` rounds (minimum 1).
    pub fn new(rounds_capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: rounds_capacity.max(1),
            ring: VecDeque::new(),
        }
    }

    /// Round capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rounds currently retained.
    pub fn rounds_held(&self) -> usize {
        self.ring.len()
    }

    /// Total events currently retained.
    pub fn events_held(&self) -> usize {
        self.ring.iter().map(|(_, evs)| evs.len()).sum()
    }

    /// Records one event, evicting the oldest round if a new round pushes
    /// the ring past capacity.
    pub fn push(&mut self, round: u64, event: Event) {
        match self.ring.back_mut() {
            Some((r, events)) if *r == round => events.push(event),
            _ => {
                if self.ring.len() == self.capacity {
                    self.ring.pop_front();
                }
                self.ring.push_back((round, vec![event]));
            }
        }
    }

    /// The retained history, oldest round first.
    pub fn rounds(&self) -> impl Iterator<Item = (u64, &[Event])> {
        self.ring.iter().map(|(r, evs)| (*r, evs.as_slice()))
    }

    /// Renders the retained history as a JSONL dump: a `flight_header`
    /// line naming the `trigger`, then every retained event in order.
    pub fn render_dump(&self, trigger: &str, trigger_round: u64) -> String {
        let mut out = String::new();
        let header = Event::FlightHeader {
            trigger: trigger.to_string(),
            rounds: self.ring.len() as u64,
        };
        out.push_str(&header.to_line(trigger_round));
        out.push('\n');
        for (round, events) in self.rounds() {
            for event in events {
                out.push_str(&event.to_line(round));
                out.push('\n');
            }
        }
        out
    }
}

/// The unified event sink. See the module docs for the two roles
/// (streaming and flight recording); a default `EventLog` does neither and
/// costs one branch per emit.
#[derive(Default)]
pub struct EventLog {
    stream: Option<Box<dyn Write + Send>>,
    flight: Option<FlightRecorder>,
    flight_path: Option<PathBuf>,
    events: u64,
    dumps: u64,
    io_errors: u64,
}

impl EventLog {
    /// A disabled log: emits are a no-op.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Streams every event as a JSONL line into `sink`.
    pub fn with_stream(mut self, sink: Box<dyn Write + Send>) -> EventLog {
        self.stream = Some(sink);
        self
    }

    /// Streams every event to the file at `path` (created or truncated).
    ///
    /// # Errors
    ///
    /// Returns the error from creating the file.
    pub fn with_stream_file(self, path: &Path) -> std::io::Result<EventLog> {
        let file = std::fs::File::create(path)?;
        Ok(self.with_stream(Box::new(std::io::BufWriter::new(file))))
    }

    /// Retains the last `rounds` rounds in a flight recorder.
    pub fn with_flight(mut self, rounds: usize) -> EventLog {
        self.flight = Some(FlightRecorder::new(rounds));
        self
    }

    /// Auto-dumps the flight recorder to `path` whenever a trigger event
    /// ([`Event::is_trigger`]) arrives. Each trigger overwrites the dump,
    /// so the file always holds the history behind the *latest* trigger.
    /// Implies [`EventLog::with_flight`] (default 32 rounds) if no ring was
    /// configured.
    pub fn with_flight_path(mut self, path: PathBuf) -> EventLog {
        if self.flight.is_none() {
            self.flight = Some(FlightRecorder::new(32));
        }
        self.flight_path = Some(path);
        self
    }

    /// `true` if emitting records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.stream.is_some() || self.flight.is_some()
    }

    /// Events emitted so far.
    pub fn events_emitted(&self) -> u64 {
        self.events
    }

    /// Flight-recorder dumps written so far.
    pub fn dumps_written(&self) -> u64 {
        self.dumps
    }

    /// I/O errors swallowed so far (telemetry never fails the run).
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// The flight recorder, if one is attached.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Records one event: streams it, retains it, and — if it is a trigger
    /// and a dump path is configured — writes the flight dump.
    pub fn emit(&mut self, round: u64, event: Event) {
        if !self.is_enabled() {
            return;
        }
        self.events += 1;
        if let Some(sink) = &mut self.stream {
            let line = event.to_line(round);
            if writeln!(sink, "{line}").is_err() {
                self.io_errors += 1;
            }
        }
        let trigger = event.is_trigger().then(|| event.kind());
        if let Some(flight) = &mut self.flight {
            flight.push(round, event);
            if let (Some(kind), Some(path)) = (trigger, &self.flight_path) {
                let dump = flight.render_dump(kind, round);
                if std::fs::write(path, dump).is_err() {
                    self.io_errors += 1;
                } else {
                    self.dumps += 1;
                }
            }
        }
    }

    /// Flushes the stream sink, if any.
    pub fn flush(&mut self) {
        if let Some(sink) = &mut self.stream {
            if sink.flush().is_err() {
                self.io_errors += 1;
            }
        }
    }
}

impl Drop for EventLog {
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("stream", &self.stream.is_some())
            .field("flight", &self.flight)
            .field("flight_path", &self.flight_path)
            .field("events", &self.events)
            .field("dumps", &self.dumps)
            .field("io_errors", &self.io_errors)
            .finish()
    }
}

/// A `Write` sink backed by a shared string buffer, for capturing streams
/// in tests and for `cellflow` subcommands that render in-process.
#[derive(Clone, Default, Debug)]
pub struct SharedBuffer {
    inner: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
}

impl SharedBuffer {
    /// An empty buffer.
    pub fn new() -> SharedBuffer {
        SharedBuffer::default()
    }

    /// The buffered bytes as UTF-8 (lossy).
    pub fn contents(&self) -> String {
        let bytes = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut bytes = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Convenience check used by smoke tests: `true` if `line` is a
/// schema-`v1` `flight_header` line.
pub fn is_flight_header(line: &str) -> bool {
    matches!(Event::parse_line(line), Ok((_, Event::FlightHeader { .. }))) && SCHEMA_VERSION == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_grid::CellId;

    fn consume(n: u64) -> Event {
        Event::Consume { entity: n }
    }

    #[test]
    fn ring_merges_same_round_and_evicts_oldest() {
        let mut fr = FlightRecorder::new(3);
        fr.push(0, consume(0));
        fr.push(0, consume(1));
        fr.push(1, consume(2));
        fr.push(2, consume(3));
        assert_eq!(fr.rounds_held(), 3);
        assert_eq!(fr.events_held(), 4);
        fr.push(3, consume(4)); // evicts round 0 (two events)
        assert_eq!(fr.rounds_held(), 3);
        assert_eq!(fr.events_held(), 3);
        let first = fr.rounds().next().unwrap();
        assert_eq!(first.0, 1);
    }

    #[test]
    fn dump_has_header_then_history() {
        let mut fr = FlightRecorder::new(8);
        fr.push(5, consume(0));
        fr.push(
            6,
            Event::Fail {
                cell: CellId::new(1, 1),
            },
        );
        let dump = fr.render_dump("violation", 6);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(is_flight_header(lines[0]));
        let (round, header) = Event::parse_line(lines[0]).unwrap();
        assert_eq!(round, 6);
        assert_eq!(
            header,
            Event::FlightHeader {
                trigger: "violation".into(),
                rounds: 2
            }
        );
        assert!(crate::event::validate_stream(&dump).is_ok());
    }

    #[test]
    fn disabled_log_is_noop() {
        let mut log = EventLog::new();
        assert!(!log.is_enabled());
        log.emit(0, consume(0));
        assert_eq!(log.events_emitted(), 0);
        assert_eq!(log.dumps_written(), 0);
    }

    #[test]
    fn stream_writes_valid_jsonl() {
        let buffer = SharedBuffer::new();
        let mut log = EventLog::new().with_stream(Box::new(buffer.clone()));
        log.emit(0, consume(0));
        log.emit(
            1,
            Event::Transfer {
                entity: 0,
                from: CellId::new(0, 0),
                to: CellId::new(0, 1),
            },
        );
        log.flush();
        let stats = crate::event::validate_stream(&buffer.contents()).unwrap();
        assert_eq!(stats.events, 2);
        assert_eq!(log.events_emitted(), 2);
    }

    #[test]
    fn trigger_dumps_flight_to_disk() {
        let dir = std::env::temp_dir().join("cellflow-telemetry-test-dump");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut log = EventLog::new()
            .with_flight(4)
            .with_flight_path(path.clone());
        assert!(log.is_enabled());
        for round in 0..10 {
            log.emit(round, consume(round));
        }
        assert_eq!(log.dumps_written(), 0, "no trigger yet");
        assert!(!path.exists());

        log.emit(
            10,
            Event::Violation {
                monitor: "safety".into(),
                detail: "boom".into(),
            },
        );
        assert_eq!(log.dumps_written(), 1);
        let dump = std::fs::read_to_string(&path).unwrap();
        let stats = crate::event::validate_stream(&dump).unwrap();
        // Header + last 4 rounds (7, 8, 9, 10), one event each — round 10
        // holds only the violation.
        assert_eq!(stats.events, 5);
        assert_eq!(stats.violations, 1);
        assert!(is_flight_header(dump.lines().next().unwrap()));

        // A second trigger overwrites with the newer window.
        log.emit(11, Event::Timeout { detail: "t".into() });
        assert_eq!(log.dumps_written(), 2);
        let dump = std::fs::read_to_string(&path).unwrap();
        assert!(dump.contains("\"trigger\":\"timeout\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flight_path_implies_ring() {
        let log = EventLog::new()
            .with_flight_path(std::env::temp_dir().join("cellflow-telemetry-unused.jsonl"));
        assert_eq!(log.flight().unwrap().capacity(), 32);
    }
}
