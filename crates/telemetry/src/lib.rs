//! # cellflow-telemetry
//!
//! The unified observability substrate for the cellular-flows workspace.
//! The paper's evaluation (§IV) is measurement-driven — throughput,
//! stabilization time, and failure response are all read off executions —
//! so every runtime here (the shared-variable simulator, the zero-clone
//! engine, the message-passing net runtime) feeds **one** telemetry layer
//! instead of each keeping private counters:
//!
//! * [`Registry`] — sharded, lock-cheap metrics: monotonic [`Counter`]s,
//!   [`Gauge`]s, and fixed power-of-two-bucket [`Histogram`]s. A registry
//!   created with [`Registry::disabled`] mints no-op handles whose every
//!   operation is a single pointer check, so instrumentation can stay in
//!   hot paths (the engine's Route/Signal/Move phases) without perturbing
//!   the perf envelope when telemetry is off.
//! * [`PhaseTimers`] / [`Span`] — span-style phase timing; a span records
//!   its elapsed nanoseconds into its histogram on drop and never reads
//!   the clock when disabled.
//! * [`Event`] + [`EventLog`] — a schema-versioned (`"v":1`) JSONL event
//!   stream unifying sim trace events, failure/corruption activity,
//!   monitor verdicts, net-runtime timeouts, and supervisor actions; and
//!   [`FlightRecorder`], a bounded ring of the last K rounds that
//!   auto-dumps to disk when a violation or timeout arrives — failed chaos
//!   runs leave replayable artifacts.
//! * [`recording`] — deterministic flight recordings (`.rec` files):
//!   checksummed per-round state frames (full keyframe every K rounds,
//!   deltas between) behind `cellflow record`/`replay`/`diff`/`bisect`.
//!   This crate owns the container format; the state codec lives in
//!   `cellflow_core::snapshot`, one layer up.
//! * [`prometheus`] — text-format exposition of any registry snapshot,
//!   plus a strict validator; [`report`] — latency tables and round
//!   timelines for the `cellflow metrics` / `cellflow inspect` commands.
//! * [`json`] — the dependency-free JSON value model and parser backing
//!   stream validation (the workspace builds hermetically; no serde).
//!
//! Everything is deterministic where it can be: snapshots sort by name,
//! serialized lines use fixed key order, renders are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod prometheus;
pub mod recorder;
pub mod recording;
pub mod registry;
pub mod report;
pub mod trace;

pub use event::{validate_stream, Event, StreamStats, SCHEMA_VERSION};
pub use json::Json;
pub use recorder::{EventLog, FlightRecorder, SharedBuffer};
pub use recording::{
    FrameKind, RecError, RecFrame, RecHeader, Recording, RecordingWriter, REC_SCHEMA_VERSION,
};
pub use registry::{
    Counter, Gauge, Histogram, MetricSnapshot, PhaseTimers, Registry, SchedulerMetrics, Span,
    BUCKETS, SHARDS,
};
pub use trace::{cell_ordinal, SpanBuilder, SpanKind, Trace, TraceSpan, Tracer};
