//! Causal-trace properties under arbitrary fault schedules: every span
//! tree a traced run emits must be *causal* (ids unique per round, every
//! parent present in the same round and closing only after its children
//! open), and the deterministic span fields — ids, parents, labels, work,
//! logical clocks — must be **byte-identical across reruns** of the same
//! seed, on both the message-passing deployment (chaos and partition
//! campaigns included) and the shared-variable reference simulation.
//!
//! Exactly two span fields are exempt from the rerun contract, by design:
//! the measured `ns` and the barrier/timeout spans' `cell` attribution
//! (last completer / first detector — thread-scheduling races). The
//! normalizer below blanks precisely those and nothing else.

use std::sync::Arc;

use cellular_flows::core::{standard_monitors, FaultPlan, Params, PartitionPlan, SystemConfig};
use cellular_flows::grid::{CellId, GridDims};
use cellular_flows::net::{NetSystem, NetTelemetry};
use cellular_flows::sim::{SimTelemetry, Simulation};
use cellular_flows::telemetry::{EventLog, Registry, SharedBuffer, Trace, TraceSpan, Tracer};
use proptest::prelude::*;

fn single_source_config(n: u16) -> SystemConfig {
    SystemConfig::new(
        GridDims::square(n),
        CellId::new(1, n - 1),
        Params::from_milli(250, 50, 200).unwrap(),
    )
    .unwrap()
    .with_source(CellId::new(1, 0))
}

/// A random crash/recover schedule over an `n × n` grid — the same shape
/// `chaos_differential.rs` fires at the runtimes.
fn plan_strategy(n: u16, rounds: u64) -> impl Strategy<Value = FaultPlan> {
    proptest::collection::vec((0..rounds, (0..n, 0..n), proptest::bool::ANY), 0..6).prop_map(
        move |events| {
            let mut plan = FaultPlan::new();
            for (round, (i, j), recover) in events {
                let cell = CellId::new(i, j);
                plan = if recover {
                    plan.recover_at(round, cell)
                } else {
                    plan.crash_at(round, cell)
                };
            }
            plan
        },
    )
}

/// Runs a traced deployment campaign and returns the raw event stream.
/// `partition` optionally overlays a scripted link-fault schedule.
fn traced_net_stream(
    n: u16,
    seed: u64,
    rounds: u64,
    plan: &FaultPlan,
    partition: Option<&PartitionPlan>,
) -> String {
    let buffer = SharedBuffer::new();
    let telemetry = Arc::new(
        NetTelemetry::new(&Registry::new())
            .with_event_log(EventLog::new().with_stream(Box::new(buffer.clone()))),
    );
    let config = single_source_config(n);
    let monitors = standard_monitors(&config);
    let mut net = NetSystem::new(config)
        .unwrap()
        .with_plan(plan.clone())
        .with_telemetry(Arc::clone(&telemetry))
        .with_tracer(Tracer::new(seed));
    if let Some(p) = partition {
        net = net.with_partition(p.clone());
    }
    net.run_monitored(rounds, monitors).unwrap();
    buffer.contents()
}

/// Runs a traced reference simulation and returns the raw event stream.
fn traced_sim_stream(n: u16, seed: u64, rounds: u64) -> String {
    let buffer = SharedBuffer::new();
    let registry = Registry::new();
    let telemetry = SimTelemetry::new(&registry)
        .with_event_log(EventLog::new().with_stream(Box::new(buffer.clone())));
    let mut sim = Simulation::new(single_source_config(n), seed)
        .with_telemetry(telemetry)
        .with_tracer(Tracer::new(seed));
    sim.run(rounds);
    if let Some(tel) = sim.telemetry_mut() {
        tel.flush();
    }
    buffer.contents()
}

/// `(round, id, parent, label, cell, work, open, close)` — every span
/// field the rerun contract covers.
type SpanView = (u64, u64, u64, String, Option<(u16, u16)>, u64, u64, u64);

/// The deterministic projection of a span: everything except the measured
/// `ns`, with the barrier/timeout spans' scheduling-dependent cell
/// attribution blanked.
fn deterministic_view(span: &TraceSpan) -> SpanView {
    let cell = if span.label == "barrier" || span.label == "timeout" {
        None
    } else {
        span.cell.map(|c| (c.i(), c.j()))
    };
    (
        span.round,
        span.id,
        span.parent,
        span.label.clone(),
        cell,
        span.work,
        span.open,
        span.close,
    )
}

/// Parses, causality-checks, and projects a stream to its deterministic
/// span list.
fn causal_projection(stream: &str) -> Vec<SpanView> {
    let trace = Trace::parse(stream).expect("traced stream is schema-valid");
    assert!(!trace.spans.is_empty(), "traced run emitted spans");
    trace.check_causality().expect("span tree is causal");
    trace.spans.iter().map(deterministic_view).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any crash/recover schedule yields a causal span tree whose
    /// cell-attributed leaves carry exactly the id the cell's envelopes
    /// used as their causal context that round.
    #[test]
    fn chaos_schedules_emit_causal_span_trees(
        seed in 0u64..1_000,
        plan in plan_strategy(4, 40),
    ) {
        let stream = traced_net_stream(4, seed, 40, &plan, None);
        let trace = Trace::parse(&stream).unwrap();
        prop_assert!(trace.check_causality().is_ok());
        let tracer = Tracer::new(seed);
        for span in &trace.spans {
            if span.label == "cell" || span.label == "silent" {
                let cell = span.cell.expect("cell leaves name their cell");
                prop_assert_eq!(span.id, tracer.cell_round_id(span.round, cell));
            }
        }
    }

    /// Rerunning the same seeded chaos campaign reproduces the span tree
    /// bit for bit on every deterministic field.
    #[test]
    fn chaos_trace_ids_are_identical_across_reruns(
        seed in 0u64..1_000,
        plan in plan_strategy(4, 32),
    ) {
        let a = traced_net_stream(4, seed, 32, &plan, None);
        let b = traced_net_stream(4, seed, 32, &plan, None);
        prop_assert_eq!(causal_projection(&a), causal_projection(&b));
    }

    /// The same holds through a scripted split-brain partition window.
    #[test]
    fn partition_trace_ids_are_identical_across_reruns(
        seed in 0u64..1_000,
        col in 1u16..4,
    ) {
        let partition = PartitionPlan::for_grid(GridDims::square(4))
            .split_col(col, 6, Some(20));
        let plan = FaultPlan::new();
        let a = traced_net_stream(4, seed, 32, &plan, Some(&partition));
        let b = traced_net_stream(4, seed, 32, &plan, Some(&partition));
        prop_assert_eq!(causal_projection(&a), causal_projection(&b));
    }

    /// The reference simulation's trace obeys the same two contracts.
    #[test]
    fn sim_trace_is_causal_and_identical_across_reruns(
        seed in 0u64..1_000,
        n in 4u16..6,
    ) {
        let a = traced_sim_stream(n, seed, 40);
        let b = traced_sim_stream(n, seed, 40);
        prop_assert_eq!(causal_projection(&a), causal_projection(&b));
    }
}

/// Parents referenced by any span exist in the same round and stay open
/// past their children — spelled out once against a concrete run so the
/// guarantee isn't only as strong as `check_causality`'s implementation.
#[test]
fn parents_exist_and_close_after_their_children_open() {
    let stream = traced_net_stream(
        5,
        7,
        48,
        &FaultPlan::new().crash_at(9, CellId::new(2, 2)),
        None,
    );
    let trace = Trace::parse(&stream).unwrap();
    for span in &trace.spans {
        if span.parent == 0 {
            continue;
        }
        let parent = trace
            .spans
            .iter()
            .find(|p| p.round == span.round && p.id == span.parent)
            .unwrap_or_else(|| {
                panic!(
                    "round {} span {:#x} has an absent parent",
                    span.round, span.id
                )
            });
        assert!(
            parent.close > span.open,
            "round {}: parent {:#x} closed at {} before child {:#x} opened at {}",
            span.round,
            parent.id,
            parent.close,
            span.id,
            span.open
        );
        assert!(parent.close > parent.open, "parents close after opening");
    }
}
